#!/usr/bin/env python3
"""intsched static analyzer: determinism lint and whole-program contracts.

One parse of the scanned tree (a dependency-free textual frontend, or
libclang over compile_commands.json) feeds two families of rules
(DESIGN.md §7, §12, §14).

Local rules, checked in every scanned file:

  unordered-iter     range-for over a std::unordered_{map,set,...} variable
                     (or one declared through a `using` alias of one, or
                     an `auto` local bound to one).
                     Hash-map iteration order depends on libstdc++
                     version, insertion history, and rehash points; any
                     such loop that feeds rankings, reports, or
                     serialization is a reproducibility bug.
  float-accum        floating-point `+=` accumulation inside an unordered
                     iteration: even with a deterministic final set, the
                     *order* of FP additions changes the rounded result.
  wall-clock         std::chrono::{system,steady,high_resolution}_clock::now,
                     time(nullptr), clock(), gettimeofday, localtime/gmtime.
                     Simulation code must use sim::SimTime exclusively.
  unseeded-rng       rand()/srand(), std::random_device, default-constructed
                     std::mt19937/std::default_random_engine. All randomness
                     must flow through named, seeded sim::Rng streams.
  pointer-key        std::map/std::set keyed (or ordered) by a raw pointer:
                     the order is the allocator's, not the program's.
  thread-share       threading primitives (std::thread/jthread/async, mutex,
                     condition_variable, atomic, future/promise, latch,
                     barrier, thread_local) outside the designated thread-pool
                     boundary. The simulator is single-threaded by contract;
                     cross-thread shared mutable state anywhere else is a
                     nondeterminism hazard. The sanctioned boundary
                     (exp::SweepRunner) carries a file-level suppression.
  mutex-no-guard     a mutex member (std::*mutex or core::AnnotatedMutex) in
                     a class that declares no GUARDED_BY-annotated field. A
                     lock that guards nothing *named* guards nothing at all:
                     the -Wthread-safety preset can only check the lock
                     discipline the annotations declare (thread_annot.hpp).
  raw-thread         direct std::thread/std::jthread use or a .detach() call
                     anywhere but sweep_runner.cpp. All parallelism flows
                     through exp::SweepRunner so pool policy (stop flag,
                     exception funnel, claim order) stays in one audited
                     place. std::thread::id / hardware_concurrency (member
                     access, no spawn) are deliberately not flagged.
  atomic-ordering    memory_order_relaxed outside a fetch_add/fetch_sub
                     counter bump. Relaxed accesses carry no happens-before
                     edge; outside plain counters they are almost always a
                     latent race or a stale-read bug. Use the seq_cst
                     default, acquire/release, or justify the counter read
                     with allow(atomic-ordering).
  raw-unit           a raw arithmetic parameter/field whose name encodes a
                     unit or time-like quantity (`*_ns`, `*_ms`, `*delay*`,
                     `*latency*`, `*epoch*`, ...). Raw int64/double unit
                     values are exactly the bug class the strong-type layer
                     (sim::SimDuration/SimTime, core::Epoch) removes; declare
                     the typed quantity instead of the raw count.

Hot-path reachability, over the cross-TU call graph: every function
marked INTSCHED_HOTPATH (core/contracts.hpp) is a root. Nothing
transitively reachable from a root may:

  hot-alloc          allocate (new / malloc / make_unique / make_shared /
                     std::to_string / construction of an allocating
                     container or string). Capacity-reusing calls
                     (push_back into a retained scratch buffer) are the
                     sanctioned warm-path idiom and are not flagged —
                     the contract is the same "allocation-free once
                     warm" one the counting-operator-new test measures.
  hot-lock           acquire a lock (lock_guard/unique_lock/scoped_lock/
                     shared_lock, .lock(), std::call_once,
                     pthread_mutex_lock). The read path is lock-free by
                     construction (§10); a once-only memo fill is the
                     one sanctioned exception and carries a named
                     suppression where it happens.
  hot-io             block on I/O (printf family, iostream globals,
                     fstream construction, getline).
  hot-clock          read the wall clock: the wall-clock patterns, enforced
                     transitively. Decisions must be functions of sim-time
                     arguments, never of the host clock.
  hot-unordered-iter the unordered-iter loop detector, enforced
                     transitively.
  hot-coldcall       call a function marked INTSCHED_COLDPATH. Cold
                     functions are barriers (the analyzer does not
                     descend into them) and tripwires (reaching one from
                     hot code is itself a finding unless the call site
                     is suppressed with a named rule).

Snapshot lifetime (cross-function, whole program — not root-limited):
references into an RCU-published snapshot (RankSnapshot / MetroView, or
a local handle bound from view() / *snapshot*() / acquire()) must not
outlive the handle that pins the epoch:

  snapshot-return    a function returns a pointer/reference rooted at a
                     locally acquired snapshot handle, or forwards a
                     callee's interior pointer out of its own frame.
  snapshot-store     a pointer/reference rooted at a locally acquired
                     handle — or at a snapshot-typed reference
                     parameter — is stored into a member (the
                     trailing-underscore convention), or the handle is
                     captured by reference in a callback handed to the
                     event scheduler; either way it outlives the publish
                     epoch. A helper that squirrels away `&param` is
                     flagged at the helper AND linked to every caller
                     that feeds it an epoch-bound view.

Suppression: `// intsched-lint: allow(<rule>[, <rule>...])[: <reason>]`
on the offending line or the line directly above it. A file that is
*itself* a sanctioned boundary (e.g. the thread-pool implementation)
declares so once with `// intsched-lint: allow-file(<rule>[, ...])`.
An unknown rule name is an error (a typo silently disables nothing),
and a suppression that matches no finding is reported as unused (an
error under --strict-suppressions).

Engines: `--engine clang` parses every TU in compile_commands.json with
libclang (python3-clang) for type-accurate call edges and type-accurate
unordered iteration, and a missing libclang is a hard error (CI);
`--engine text` is the dependency-free fallback (same rule set,
heuristic call resolution); `--engine auto` (default) picks clang when
importable. A scan with no hot root is an error, so the contract can
never pass vacuously.

Exit status: 0 clean, 1 findings/hygiene errors, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

RULES = (
    "unordered-iter",
    "float-accum",
    "wall-clock",
    "unseeded-rng",
    "pointer-key",
    "thread-share",
    "mutex-no-guard",
    "raw-thread",
    "atomic-ordering",
    "raw-unit",
    "hot-alloc",
    "hot-lock",
    "hot-io",
    "hot-clock",
    "hot-unordered-iter",
    "hot-coldcall",
    "snapshot-return",
    "snapshot-store",
)

# The one file allowed to create threads (the pool implementation); the
# raw-thread rule is suppressed there by construction, not by annotation.
RAW_THREAD_BOUNDARY_BASENAMES = ("sweep_runner.cpp",)

CXX_EXTENSIONS = (".cpp", ".cc", ".cxx", ".hpp", ".hh", ".h", ".ipp")

HOT_TOKEN = "INTSCHED_HOTPATH"
COLD_TOKEN = "INTSCHED_COLDPATH"

SNAPSHOT_CLASSES = ("RankSnapshot", "MetroView")

ALLOW_RE = re.compile(r"//.*?\bintsched-lint:\s*allow\(([^)]*)\)")
ALLOW_FILE_RE = re.compile(r"//.*?\bintsched-lint:\s*allow-file\(([^)]*)\)")
EXPECT_RE = re.compile(r"\bexpect\(([\w-]+)\)")
EXPECT_VIA_RE = re.compile(r"//.*?\bexpect-via\(([^)]+)\)")
EXPECT_ERROR_RE = re.compile(r"//.*?\bexpect-error\(([^)]+)\)")
EXPECT_WARNING_RE = re.compile(r"//.*?\bexpect-warning\(([^)]+)\)")

# ---------------------------------------------------------------------------
# Lexical helpers (offset-preserving strip, bracket matching)
# ---------------------------------------------------------------------------


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments and string/char literals, preserving offsets
    (every replaced character becomes a space, newlines survive)."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                out[i] = " "
                i += 1
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            while i < n - 1 and not (text[i] == "*" and text[i + 1] == "/"):
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n - 1:
                out[i] = out[i + 1] = " "
                i += 2
        elif c in "\"'":
            q, j = c, i + 1
            while j < n and text[j] != q:
                if text[j] == "\\":
                    j += 1
                j += 1
            for k in range(i, min(j + 1, n)):
                if text[k] != "\n":
                    out[k] = " "
            i = j + 1
        else:
            i += 1
    return "".join(out)


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def match_forward(text: str, open_idx: int, open_c: str, close_c: str) -> int:
    """Index just past the bracket matching text[open_idx]; -1 if none."""
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == open_c:
            depth += 1
        elif text[i] == close_c:
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


def split_top_commas(s: str) -> List[str]:
    parts, depth, start = [], 0, 0
    for i, c in enumerate(s):
        if c in "<([{":
            depth += 1
        elif c in ">)]}":
            depth -= 1
        elif c == "," and depth == 0:
            parts.append(s[start:i])
            start = i + 1
    parts.append(s[start:])
    return [p for p in (x.strip() for x in parts) if p]


def loop_body_span(stripped: str, after_paren: int) -> Tuple[int, int]:
    """(start, end) offsets of the loop body following `for (...)`."""
    i = after_paren
    n = len(stripped)
    while i < n and stripped[i].isspace():
        i += 1
    if i < n and stripped[i] == "{":
        end = match_forward(stripped, i, "{", "}")
        return (i, end if end > 0 else n)
    # single-statement body
    j = stripped.find(";", i)
    return (i, j + 1 if j >= 0 else n)


# ---------------------------------------------------------------------------
# Data model
# ---------------------------------------------------------------------------


@dataclass
class Fact:
    rule: str
    file: str
    line: int
    detail: str


@dataclass
class CallSite:
    name: str  # as written, e.g. "rank_into" or "Class::fn"
    receiver: Optional[str]  # terminal identifier of the receiver chain
    args: str  # raw argument text (stripped source)
    file: str
    line: int


@dataclass
class Function:
    qual: str  # "MetroView::rank_into" / "free_fn"
    name: str  # unqualified
    cls: Optional[str]
    file: str
    line: int
    hot: bool = False
    cold: bool = False
    returns_ptr_or_ref: bool = False
    params: List[Tuple[str, str]] = field(default_factory=list)  # (type, name)
    locals: Dict[str, str] = field(default_factory=dict)  # name -> class
    calls: List[CallSite] = field(default_factory=list)
    facts: List[Fact] = field(default_factory=list)
    # snapshot pass state
    handles: Set[str] = field(default_factory=set)  # locally acquired handles
    snap_params: Set[str] = field(default_factory=set)
    stores_param: List[Tuple[str, int]] = field(default_factory=list)
    returns_param_interior: List[Tuple[str, int]] = field(default_factory=list)
    body_text: str = ""  # stripped body (offset-local)
    body_line: int = 0  # file line of the body's opening brace


@dataclass(frozen=True)
class Finding:
    rule: str
    file: str
    line: int
    message: str
    witness: Tuple[str, ...] = ()  # qualified function names, root first

    def render(self) -> str:
        head = f"{self.file}:{self.line}: [{self.rule}] {self.message}"
        if len(self.witness) > 1:
            head += "\n    path: " + " -> ".join(self.witness)
        return head


# ---------------------------------------------------------------------------
# Fact tables. A fact that both a local rule and a hot-path rule check has
# one table (the clock reads) or one detector (unordered iteration).
# ---------------------------------------------------------------------------

CLOCK_RES: Sequence[Tuple[re.Pattern, str]] = (
    (re.compile(r"std::chrono::(?:system|steady|high_resolution)_clock"
                r"\s*::\s*now"),
     "wall-clock read"),
    (re.compile(r"(?<![\w.>:])time\s*\(\s*(?:NULL|nullptr|0|&)"),
     "time() wall-clock read"),
    (re.compile(r"(?<![\w.>:])(?:clock|clock_gettime|gettimeofday|"
                r"localtime|localtime_r|gmtime|gmtime_r)\s*\("),
     "C wall-clock API"),
)

LOCAL_PATTERNS: Sequence[Tuple[str, re.Pattern, str]] = tuple(
    ("wall-clock", pattern, f"{what}; simulation code must use sim::SimTime")
    for pattern, what in CLOCK_RES) + (
    ("unseeded-rng",
     re.compile(r"(?<![\w.>:])s?rand\s*\("),
     "rand()/srand(); use a named sim::Rng stream"),
    ("unseeded-rng",
     re.compile(r"std::random_device"),
     "std::random_device is nondeterministic entropy"),
    ("unseeded-rng",
     re.compile(r"std::(?:mt19937(?:_64)?|default_random_engine|minstd_rand0?)"
                r"\s+\w+\s*(?:;|\{\s*\})"),
     "default-constructed std engine; seed it from the experiment seed "
     "or use sim::Rng"),
    ("pointer-key",
     re.compile(r"std::(?:multi)?(?:map|set)\s*<\s*(?:const\s+)?"
                r"[\w:]+(?:\s*<[^<>]*>)?\s*\*"),
     "ordered container keyed by raw pointer: ordering is the "
     "allocator's, not the program's"),
    ("pointer-key",
     re.compile(r"std::less\s*<\s*(?:const\s+)?[\w:]+\s*\*\s*>"),
     "std::less over raw pointers"),
    ("thread-share",
     re.compile(r"std::(?:jthread|thread|async|mutex|recursive_mutex|"
                r"shared_mutex|timed_mutex|condition_variable(?:_any)?|"
                r"atomic(?:_flag)?\b|atomic\s*<|future|shared_future|"
                r"promise|latch|barrier|stop_token|counting_semaphore|"
                r"binary_semaphore)\b"),
     "threading primitive outside the thread-pool boundary: the simulator "
     "is single-threaded by contract; confine cross-thread state to "
     "exp::SweepRunner or justify with allow-file(thread-share)"),
    ("thread-share",
     re.compile(r"\bthread_local\b"),
     "thread_local state: per-thread copies diverge across --jobs values"),
    ("thread-share",
     re.compile(r"(?<![\w.>:])pthread_\w+\s*\("),
     "raw pthread call outside the thread-pool boundary"),
    ("raw-thread",
     re.compile(r"\bstd::j?thread\b(?!\s*::)"),
     "direct thread creation outside the pool implementation: all "
     "parallelism goes through exp::SweepRunner (sweep_runner.cpp)"),
    ("raw-thread",
     re.compile(r"\.\s*detach\s*\(\s*\)"),
     "detached thread: orphaned concurrency can be neither joined nor "
     "reasoned about; run the work on exp::SweepRunner instead"),
)

ALLOC_RES: Sequence[Tuple[re.Pattern, str]] = (
    (re.compile(r"(?<![\w:])new\b(?!\s*\()"), "raw `new`"),
    (re.compile(r"\bstd::make_(?:unique|shared)\s*<"),
     "std::make_unique/make_shared"),
    (re.compile(r"(?<![\w.>:])(?:std\s*::\s*)?(?:malloc|calloc|realloc|strdup)"
                r"\s*\("),
     "C heap allocation"),
    (re.compile(r"\bstd::(?:vector|deque|list|(?:unordered_)?(?:multi)?"
                r"(?:map|set)|basic_string|function|priority_queue|queue|"
                r"[io]?stringstream|ostringstream)\s*<[^;{}()]*>\s+"
                r"[A-Za-z_]\w*\s*[;({=]"),
     "allocating container constructed locally"),
    (re.compile(r"\bstd::string\s+[A-Za-z_]\w*\s*[;({=]"),
     "std::string constructed locally"),
    (re.compile(r"\bstd::to_string\s*\("), "std::to_string allocates"),
)

LOCK_RES: Sequence[Tuple[re.Pattern, str]] = (
    (re.compile(r"\bstd::(?:lock_guard|unique_lock|scoped_lock|shared_lock)"
                r"\s*[<{(]"),
     "lock acquisition"),
    (re.compile(r"(?:\.|->)\s*(?:lock|try_lock|lock_shared)\s*\(\s*\)"),
     "explicit .lock()"),
    (re.compile(r"\bstd::call_once\s*\("),
     "std::call_once (blocks every caller while the fill runs)"),
    (re.compile(r"\bpthread_mutex_(?:lock|trylock)\s*\("),
     "pthread mutex acquisition"),
)

IO_RES: Sequence[Tuple[re.Pattern, str]] = (
    (re.compile(r"(?<![\w.>:])(?:printf|fprintf|fputs|fputc|fwrite|fread|"
                r"fopen|fscanf|puts)\s*\("),
     "C stdio call"),
    (re.compile(r"\bstd::(?:cout|cerr|clog|cin)\b"), "iostream global"),
    (re.compile(r"\bstd::(?:basic_)?[io]?fstream\b"), "fstream construction"),
    (re.compile(r"\bstd::getline\s*\("), "std::getline"),
)

FACT_FAMILIES: Sequence[Tuple[str, Sequence[Tuple[re.Pattern, str]]]] = (
    ("hot-alloc", ALLOC_RES),
    ("hot-lock", LOCK_RES),
    ("hot-io", IO_RES),
    ("hot-clock", CLOCK_RES),
)

UNORDERED_DECL_RE = re.compile(r"\bstd::unordered_(?:multi)?(?:map|set)\s*<")
# `using Name = std::unordered_map<...>`
ALIAS_RE = re.compile(
    r"\busing\s+(\w+)\s*=\s*std::unordered_(?:multi)?(?:map|set)\s*<")
IDENT_AFTER_TYPE_RE = re.compile(r"\s*[&*]*\s*([A-Za-z_]\w*)")
RANGE_FOR_RE = re.compile(r"\bfor\s*\(")
RANGE_COLON_RE = re.compile(r"(?<!:):(?!:)")  # first ':' not part of '::'
LAST_IDENT_RE = re.compile(r"([A-Za-z_]\w*)\s*(?:\(\s*\))?\s*$")
AUTO_DECL_RE = re.compile(
    r"\bauto\b[\s*&]*?([A-Za-z_]\w*)\s*=\s*([^;]{1,160})")
FLOAT_DECL_RE = re.compile(r"\b(?:double|float)\s+(\w+)\s*(?:=|;|\{)")
PLUS_ASSIGN_RE = re.compile(r"([A-Za-z_]\w*)\s*\+=")


def collect_unordered_names(stripped: str, aliases: Set[str]) -> Set[str]:
    """Names of variables/members/functions declared in this file with an
    unordered container type or one of the program's `aliases` of one."""
    ends: List[int] = []
    for m in UNORDERED_DECL_RE.finditer(stripped):
        end = match_forward(stripped, stripped.index("<", m.start()), "<", ">")
        if end > 0:
            ends.append(end)
    for alias in aliases:
        ends.extend(m.end() for m in re.finditer(rf"\b{alias}\b", stripped))
    names: Set[str] = set()
    for end in ends:
        im = IDENT_AFTER_TYPE_RE.match(stripped, end)
        if im:
            names.add(im.group(1))
    return names


def unordered_loops(stripped: str,
                    pool: Set[str]) -> Iterator[Tuple[int, str, int]]:
    """(offset of `for`, container name, offset past the closing paren) of
    every range-for whose range expression ends in a name from `pool`
    (`map_->link_delay_` -> `link_delay_`, `obj.plan()` -> `plan`) or in
    an `auto` local bound to one in `stripped` (`const auto& m = load_;`)."""
    bound = set()
    for m in AUTO_DECL_RE.finditer(stripped):
        tm = LAST_IDENT_RE.search(m.group(2).strip())
        if tm and tm.group(1) in pool:
            bound.add(m.group(1))
    if bound:
        pool = pool | bound
    for m in RANGE_FOR_RE.finditer(stripped):
        open_paren = stripped.index("(", m.start())
        close = match_forward(stripped, open_paren, "(", ")")
        if close < 0:
            continue
        head = stripped[open_paren + 1:close - 1]
        split = RANGE_COLON_RE.search(head)
        if split is None:
            continue  # classic for(;;)
        tm = LAST_IDENT_RE.search(head[split.end():].strip())
        if tm and tm.group(1) in pool:
            yield m.start(), tm.group(1), close


# Locally acquired snapshot handles: `auto v = x.view();`,
# `... snap = map.snapshot(...);`, `... s = svc.acquire();`
HANDLE_BIND_RE = re.compile(
    r"\b([A-Za-z_]\w*)\s*=\s*[\w.\->:\[\]]*\b"
    r"(?:view|\w*snapshot\w*|acquire)\s*\(")
# Event-scheduler entry points whose callbacks outlive the caller's frame.
DEFERRED_CALL_RE = re.compile(
    r"\b(?:schedule_at|schedule_after|schedule_periodic|submit|post|defer)"
    r"\s*\(")

KEYWORDS = frozenset((
    "if", "for", "while", "switch", "return", "sizeof", "catch", "alignof",
    "decltype", "static_cast", "dynamic_cast", "reinterpret_cast",
    "const_cast", "noexcept", "assert", "defined", "new", "delete", "throw",
    "alignas", "static_assert", "typeid", "requires", "co_await", "co_yield",
    "co_return", "operator", "else", "do", "case", "default",
))

# Method names too generic to link by bare-name fallback: these are
# overwhelmingly std-container calls, and a wrong edge here would poison
# the reachability analysis with false paths.
STD_METHOD_NAMES = frozenset((
    "find", "begin", "end", "size", "empty", "clear", "push_back",
    "emplace_back", "insert", "erase", "count", "contains", "front", "back",
    "data", "reserve", "resize", "at", "get", "reset", "load", "store",
    "value", "index", "valid", "swap", "min", "max", "ns", "bps", "first",
    "second", "has_value", "fetch_add", "fetch_sub", "c_str", "substr",
    "length", "rbegin", "rend", "lower_bound", "upper_bound", "emplace",
    "pop", "push", "top", "str", "reject", "what", "none", "invalid", "zero",
))

# The qualifier in front of a call site names the standard library
# (`std::to_string(`, `::std::chrono::steady_clock::now(`): such a call
# never resolves to a project function of the same bare name.
STD_QUALIFIER_RE = re.compile(
    r"(?<![\w:])(?:::\s*)?std\s*::\s*(?:[A-Za-z_]\w*\s*::\s*)*$")

# ---------------------------------------------------------------------------
# Local rules
# ---------------------------------------------------------------------------

MUTEX_MEMBER_RE = re.compile(
    r"\b(?:std::(?:recursive_|shared_|timed_|recursive_timed_)?mutex|"
    r"AnnotatedMutex)\s+([A-Za-z_]\w*)\s*(?:;|\{|=)")
RELAXED_RE = re.compile(r"\bmemory_order_relaxed\b")
COUNTER_OP_RE = re.compile(r"\bfetch_(?:add|sub)\s*\(")

# Raw arithmetic declarations whose *name* encodes a unit or time-like
# quantity. Fractions/ratios/counters are legitimately raw; exclude them.
RAW_UNIT_RE = re.compile(
    r"\b(?:std::)?(?:u?int(?:8|16|32|64)_t|long\s+long|long|int|double|"
    r"float)\s+"
    r"([A-Za-z_]\w*(?:_ns|_us|_ms|_sec|_secs)|"
    r"[A-Za-z_]*(?:delay|latency|interval|window|timeout|staleness|rtt|"
    r"epoch)_?)\s*(?=[,)=;{\[])")
RAW_UNIT_EXEMPT_RE = re.compile(
    r"(?:_frac|_fraction|_ratio|_factor|_scale|_count|_chance|_pkts|"
    r"_bytes|_idx|_index)\w*$|(?:^|_)per_")


def concurrency_findings(path: str, stripped: str) -> List[Finding]:
    findings: List[Finding] = []

    # mutex-no-guard: every mutex *member* (declared at class-body depth,
    # not inside a method) must live next to at least one GUARDED_BY field.
    spans = class_spans(stripped)
    for m in MUTEX_MEMBER_RE.finditer(stripped):
        span = innermost_span(spans, m.start())
        if span is None:
            continue  # function-local lock: scoping is its discipline
        if not at_class_depth_one(stripped, span, m.start()):
            continue  # inside a member function body, not a member
        if "GUARDED_BY" in stripped[span[1]:span[2]]:
            continue
        findings.append(Finding(
            "mutex-no-guard", path, line_of(stripped, m.start()),
            f"mutex member '{m.group(1)}' in a class with no "
            "GUARDED_BY-annotated field: declare what it protects "
            "(intsched/core/thread_annot.hpp) so -Wthread-safety can "
            "check the discipline, or justify with allow(mutex-no-guard)"))

    # atomic-ordering: relaxed is for counter bumps (fetch_add/fetch_sub
    # in the same statement); any other relaxed access needs a reason.
    for m in RELAXED_RE.finditer(stripped):
        stmt_start = max(stripped.rfind(c, 0, m.start())
                         for c in (";", "{", "}"))
        stmt = stripped[stmt_start + 1:m.end()]
        if COUNTER_OP_RE.search(stmt):
            continue
        findings.append(Finding(
            "atomic-ordering", path, line_of(stripped, m.start()),
            "memory_order_relaxed outside a fetch_add/fetch_sub counter "
            "bump: relaxed accesses publish nothing (no happens-before); "
            "use the seq_cst default or acquire/release, or justify a "
            "counter read with allow(atomic-ordering)"))

    return findings


def local_findings(prog: Program, path: str) -> List[Finding]:
    """Every local rule over one file of the program."""
    stripped = prog.stripped[path]
    findings = [Finding(rule, path, line_of(stripped, m.start()), msg)
                for rule, pattern, msg in LOCAL_PATTERNS
                for m in pattern.finditer(stripped)]
    findings.extend(concurrency_findings(path, stripped))

    for m in RAW_UNIT_RE.finditer(stripped):
        name = m.group(1)
        if RAW_UNIT_EXEMPT_RE.search(name):
            continue
        findings.append(Finding(
            "raw-unit", path, line_of(stripped, m.start()),
            f"raw arithmetic declaration '{name}' encodes a unit in its "
            "name: use the strong type (sim::SimDuration/SimTime for time "
            "spans/instants, core::Epoch for snapshot freshness) so unit "
            "mixups fail to compile"))

    float_vars = set(FLOAT_DECL_RE.findall(stripped))
    loop_lines: Set[int] = set()
    for start, name, close in unordered_loops(stripped, prog.unordered_pool):
        loop_lines.add(line_of(stripped, start))
        findings.append(Finding(
            "unordered-iter", path, line_of(stripped, start),
            f"range-for over unordered container '{name}': iteration "
            "order is hash/rehash dependent; sort on output or justify "
            "with an allow() annotation"))
        body_start, body_end = loop_body_span(stripped, close)
        for am in PLUS_ASSIGN_RE.finditer(stripped, body_start, body_end):
            if am.group(1) in float_vars:
                findings.append(Finding(
                    "float-accum", path, line_of(stripped, am.start()),
                    f"floating-point accumulation into '{am.group(1)}' in "
                    "hash-ordered loop: FP addition is not associative, the "
                    "sum depends on iteration order"))
    # The libclang frontend adds the loops whose range *type* is unordered
    # but whose name the pool cannot see (e.g. an `auto` local).
    for line, range_type in sorted(prog.typed_unordered.get(path, ())):
        if line not in loop_lines:
            findings.append(Finding(
                "unordered-iter", path, line,
                f"range-for over '{range_type}': iteration order is "
                "hash/rehash dependent"))
    return findings


# ---------------------------------------------------------------------------
# Textual frontend: function extraction
# ---------------------------------------------------------------------------

# `class NAME {`, also behind alignas(...) or an attribute macro such as
# `class INTSCHED_CAPABILITY("mutex") AnnotatedMutex {`.
CLASS_OPEN_RE = re.compile(
    r"(?<!enum\s)(?<!enum)\b(?:class|struct)\s+"
    r"(?:(?:alignas|[A-Z][A-Z0-9_]*)\s*(?:\([^()]*\))?\s+)*"
    r"(?!final\b)([A-Za-z_]\w*)(?:\s+final)?[^;{}()]*?\{")
FUNC_NAME_RE = re.compile(
    r"([A-Za-z_]\w*(?:\s*::\s*~?[A-Za-z_]\w*)*)\s*\(")
MEMBER_DECL_RE = re.compile(
    r"([A-Za-z_][\w:]*(?:\s*<[^;{}]*?>)?(?:\s*[*&])*)\s+"
    r"([A-Za-z_]\w*)\s*(?:;|=|\{)")
LOCAL_DECL_RE = re.compile(
    r"([A-Za-z_][\w:]*(?:\s*<[^;{}]*?>)?)\s*([*&]*)\s+([A-Za-z_]\w*)"
    r"\s*(?:=|\{)")
CALL_RE = re.compile(r"([A-Za-z_]\w*)\s*(?:<[^<>;(){}&|]{0,80}>)?\s*\(")


def class_spans(stripped: str) -> List[Tuple[str, int, int]]:
    """(name, open-brace, end) of every named class/struct body."""
    spans: List[Tuple[str, int, int]] = []
    for m in CLASS_OPEN_RE.finditer(stripped):
        open_idx = stripped.index("{", m.start())
        end = match_forward(stripped, open_idx, "{", "}")
        spans.append((m.group(1), open_idx, end if end > 0 else len(stripped)))
    return spans


def innermost_span(spans: Sequence[Tuple[str, int, int]],
                   pos: int) -> Optional[Tuple[str, int, int]]:
    """Innermost class body containing `pos` (None for free/local scope)."""
    best: Optional[Tuple[str, int, int]] = None
    for span in spans:
        if span[1] < pos < span[2] and (best is None or span[1] > best[1]):
            best = span
    return best


def at_class_depth_one(stripped: str, span: Tuple[str, int, int],
                       pos: int) -> bool:
    """True when `pos` sits directly in the class body `span` (not in a
    member function body or another nested brace)."""
    depth = 0
    for i in range(span[1], pos):
        if stripped[i] == "{":
            depth += 1
        elif stripped[i] == "}":
            depth -= 1
    return depth == 1


def scan_past_qualifiers(stripped: str, pos: int) -> Tuple[str, int]:
    """From just past a parameter list's ')', classify the declarator:
    returns ("def", body_open), ("decl", end) or ("no", pos)."""
    n = len(stripped)
    i = pos
    while i < n:
        c = stripped[i]
        if c.isspace():
            i += 1
        elif c == "{":
            return ("def", i)
        elif c == ";":
            return ("decl", i + 1)
        elif c == "=":  # = default / = delete / = 0
            j = stripped.find(";", i)
            return ("decl", (j + 1) if j >= 0 else n)
        elif c == ":":  # constructor init list
            if i + 1 < n and stripped[i + 1] == ":":
                return ("no", pos)
            i += 1
            while i < n:
                while i < n and stripped[i].isspace():
                    i += 1
                m = re.match(r"[A-Za-z_][\w:]*", stripped[i:])
                if not m:
                    return ("no", pos)
                i += m.end()
                while i < n and stripped[i].isspace():
                    i += 1
                if i < n and stripped[i] == "<":
                    e = match_forward(stripped, i, "<", ">")
                    if e < 0:
                        return ("no", pos)
                    i = e
                    while i < n and stripped[i].isspace():
                        i += 1
                if i < n and stripped[i] in "({":
                    close = ")" if stripped[i] == "(" else "}"
                    e = match_forward(stripped, i, stripped[i], close)
                    if e < 0:
                        return ("no", pos)
                    i = e
                while i < n and stripped[i].isspace():
                    i += 1
                if i < n and stripped[i] == ",":
                    i += 1
                    continue
                if i < n and stripped[i] == "{":
                    return ("def", i)
                return ("no", pos)
            return ("no", pos)
        elif c == "-" and i + 1 < n and stripped[i + 1] == ">":
            i += 2  # trailing return type: consume type tokens
        elif c == "<":
            e = match_forward(stripped, i, "<", ">")
            if e < 0:
                return ("no", pos)
            i = e
        elif re.match(r"[A-Za-z_]", c):
            m = re.match(r"[A-Za-z_][\w:]*", stripped[i:])
            i += m.end()
            while i < n and stripped[i].isspace():
                i += 1
            if i < n and stripped[i] == "(":
                e = match_forward(stripped, i, "(", ")")
                if e < 0:
                    return ("no", pos)
                i = e
        elif c in "*&":
            i += 1  # pointer/ref in a trailing return type
        else:
            return ("no", pos)
    return ("no", pos)


def header_prefix(stripped: str, name_start: int) -> str:
    """Text between the previous statement boundary and the function name:
    return type, attributes, annotation macros, template header."""
    j = name_start - 1
    while j >= 0 and stripped[j] not in ";{}":
        j -= 1
    prefix = stripped[j + 1:name_start]
    # Drop access specifiers that slipped in ("public:" has no ; or }).
    return re.sub(r"\b(?:public|private|protected)\s*:", " ", prefix)


class Program:
    """The whole-program model both engines produce."""

    def __init__(self) -> None:
        self.functions: Dict[str, Function] = {}  # qual -> merged record
        self.by_name: Dict[str, List[Function]] = {}
        self.classes: Set[str] = set()
        self.members: Dict[str, Dict[str, str]] = {}  # class -> member->type
        self.unordered_pool: Set[str] = set()
        self.files: Dict[str, List[str]] = {}  # path -> raw lines
        self.stripped: Dict[str, str] = {}  # path -> stripped text
        # path -> {(line, range type)} from the libclang TU walk
        self.typed_unordered: Dict[str, Set[Tuple[int, str]]] = {}
        self.engine = "text"

    def add_function(self, fn: Function) -> Function:
        prev = self.functions.get(fn.qual)
        if prev is None:
            self.functions[fn.qual] = fn
            self.by_name.setdefault(fn.name, []).append(fn)
            return fn
        # Merge: annotations union; a definition (has body) wins over a
        # declaration for body-derived state.
        prev.hot = prev.hot or fn.hot
        prev.cold = prev.cold or fn.cold
        prev.returns_ptr_or_ref = prev.returns_ptr_or_ref or fn.returns_ptr_or_ref
        if fn.body_text and not prev.body_text:
            prev.body_text = fn.body_text
            prev.body_line = fn.body_line
            prev.file, prev.line = fn.file, fn.line
            prev.calls, prev.facts = fn.calls, fn.facts
            prev.locals, prev.params = fn.locals, fn.params
            prev.handles = fn.handles
        elif fn.params and not prev.params:
            prev.params = fn.params
        return prev

    def resolve_type(self, type_text: str) -> Optional[str]:
        for cls in self.classes:
            if re.search(rf"\b{cls}\b", type_text):
                return cls
        return None


def load_sources(prog: Program, paths: Sequence[str]) -> None:
    """Phase 1, shared by both frontends: read and strip every file, and
    discover the classes and the unordered-name pool program-wide
    (receiver resolution and both unordered rules need the global sets:
    a member declared in a header is iterated in a .cpp file)."""
    aliases: Set[str] = set()
    for p in paths:
        path = norm_path(p)
        with open(p, encoding="utf-8", errors="replace") as f:
            text = f.read()
        prog.files[path] = text.splitlines()
        stripped = prog.stripped[path] = strip_comments_and_strings(text)
        aliases.update(ALIAS_RE.findall(stripped))
        for name, _, _ in class_spans(stripped):
            prog.classes.add(name)
    for stripped in prog.stripped.values():
        prog.unordered_pool |= collect_unordered_names(stripped, aliases)


def extract_receiver(body: str, call_start: int) -> Optional[str]:
    """Terminal identifier of the receiver chain before `.` / `->`."""
    j = call_start - 1
    while j >= 0 and body[j].isspace():
        j -= 1
    if j >= 1 and body[j] == ">" and body[j - 1] == "-":
        j -= 2
    elif j >= 0 and body[j] == ".":
        j -= 1
    else:
        return None
    while j >= 0 and body[j].isspace():
        j -= 1
    # Skip one balanced [] or () group (indexing / call result).
    while j >= 0 and body[j] in ")]":
        close = body[j]
        open_c = "(" if close == ")" else "["
        depth = 0
        while j >= 0:
            if body[j] == close:
                depth += 1
            elif body[j] == open_c:
                depth -= 1
                if depth == 0:
                    break
            j -= 1
        j -= 1
        while j >= 0 and body[j].isspace():
            j -= 1
    end = j + 1
    while j >= 0 and (body[j].isalnum() or body[j] == "_"):
        j -= 1
    ident = body[j + 1:end]
    return ident if ident else None


def analyze_body(prog: Program, fn: Function, stripped: str, path: str,
                 body_open: int, body_end: int) -> None:
    body = stripped[body_open:body_end]
    fn.body_text = body
    fn.body_line = line_of(stripped, body_open)

    def file_line(rel: int) -> int:
        return line_of_body(fn, rel)

    # Primitive facts.
    for rule, patterns in FACT_FAMILIES:
        for pattern, what in patterns:
            for m in pattern.finditer(body):
                fn.facts.append(Fact(rule, path, file_line(m.start()), what))
    for start, name, _ in unordered_loops(body, prog.unordered_pool):
        fn.facts.append(Fact(
            "hot-unordered-iter", path, file_line(start),
            f"range-for over unordered container '{name}'"))

    # Local declarations -> class types (for receiver resolution).
    for m in LOCAL_DECL_RE.finditer(body):
        type_text, name = m.group(1), m.group(3)
        if type_text in ("return", "delete", "case"):
            continue
        cls = prog.resolve_type(type_text)
        if cls:
            fn.locals[name] = cls
    for m in AUTO_DECL_RE.finditer(body):
        name, rhs = m.group(1), m.group(2)
        if name not in fn.locals:
            cls = prog.resolve_type(rhs)
            if cls:
                fn.locals[name] = cls

    # Snapshot handles acquired in this frame.
    for m in HANDLE_BIND_RE.finditer(body):
        fn.handles.add(m.group(1))
    for m in LOCAL_DECL_RE.finditer(body):
        type_text, name = m.group(1), m.group(3)
        if "shared_ptr" in type_text and any(
                s in type_text for s in SNAPSHOT_CLASSES):
            fn.handles.add(name)

    # Call sites.
    for m in CALL_RE.finditer(body):
        name = m.group(1)
        if name in KEYWORDS or STD_QUALIFIER_RE.search(
                body[max(0, m.start() - 80):m.start()]):
            continue
        open_paren = body.index("(", m.end() - 1)
        close = match_forward(body, open_paren, "(", ")")
        args = body[open_paren + 1:close - 1] if close > 0 else ""
        fn.calls.append(CallSite(
            name=name,
            receiver=extract_receiver(body, m.start()),
            args=args,
            file=path,
            line=file_line(m.start())))


def parse_file_textual(prog: Program, path: str) -> None:
    stripped = prog.stripped[path]
    spans = class_spans(stripped)

    # Member declarations (class depth 1).
    for m in MEMBER_DECL_RE.finditer(stripped):
        span = innermost_span(spans, m.start())
        if span is None or not at_class_depth_one(stripped, span, m.start()):
            continue
        prog.members.setdefault(span[0], {})[m.group(2)] = m.group(1)

    # Function definitions and declarations.
    consumed_until = 0
    for m in FUNC_NAME_RE.finditer(stripped):
        if m.start() < consumed_until:
            continue
        raw_name = re.sub(r"\s+", "", m.group(1))
        base = raw_name.split("::")[-1].lstrip("~")
        if base in KEYWORDS or raw_name.startswith("INTSCHED_") \
                or base.startswith("__"):
            continue
        # Preprocessor lines are not declarations (`#define X attr(...)`).
        ls = stripped.rfind("\n", 0, m.start()) + 1
        if stripped[ls:m.start()].lstrip().startswith("#"):
            continue
        open_paren = stripped.index("(", m.end() - 1)
        close = match_forward(stripped, open_paren, "(", ")")
        if close < 0:
            continue
        kind, after = scan_past_qualifiers(stripped, close)
        if kind == "no":
            continue
        prefix = header_prefix(stripped, m.start())
        if "::" in raw_name:
            parts = raw_name.split("::")
            cls: Optional[str] = parts[-2]
            qual = f"{parts[-2]}::{parts[-1]}"
        else:
            span = innermost_span(spans, m.start())
            cls = span[0] if span else None
            qual = f"{cls}::{base}" if cls else base
        fn = Function(
            qual=qual, name=base, cls=cls, file=path,
            line=line_of(stripped, m.start()),
            hot=HOT_TOKEN in prefix, cold=COLD_TOKEN in prefix,
            returns_ptr_or_ref=bool(re.search(r"[*&]\s*$", prefix.strip())))
        params_text = stripped[open_paren + 1:close - 1]
        for p in split_top_commas(params_text):
            pm = re.match(r"(.*?)([A-Za-z_]\w*)\s*(?:=[^,]*)?$", p.strip())
            if pm and pm.group(1).strip():
                fn.params.append((pm.group(1).strip(), pm.group(2)))
        fn = prog.add_function(fn)
        if kind == "def":
            body_end = match_forward(stripped, after, "{", "}")
            if body_end < 0:
                body_end = len(stripped)
            if not fn.body_text:
                fn.file, fn.line = path, line_of(stripped, m.start())
                analyze_body(prog, fn, stripped, path, after, body_end)
            consumed_until = body_end
        else:
            consumed_until = after


def build_program_textual(paths: Sequence[str]) -> Program:
    prog = Program()
    load_sources(prog, paths)
    # Phase 2: full parse (functions, bodies, facts, calls).
    for path in prog.stripped:
        parse_file_textual(prog, path)
    return prog


# ---------------------------------------------------------------------------
# libclang frontend (type-accurate call edges; same fact regexes on the
# function's source extent so both engines agree on the rule semantics)
# ---------------------------------------------------------------------------


def norm_path(p: str) -> str:
    rel = os.path.relpath(p)
    return rel if not rel.startswith("..") else os.path.abspath(p)


def libclang_available() -> bool:
    try:
        from clang import cindex  # type: ignore  # noqa: F401
        return True
    except ImportError:
        return False


def build_program_libclang(paths: Sequence[str],
                           compile_commands: Optional[str]) -> Program:
    from clang import cindex  # type: ignore

    prog = Program()
    prog.engine = "clang"
    index = cindex.Index.create()
    path_set = {os.path.abspath(p) for p in paths}

    # Compile args per TU: from compile_commands.json when given,
    # otherwise a plain -std=c++20 parse (corpus mode).
    tu_args: Dict[str, List[str]] = {}
    tus: List[str] = []
    if compile_commands and os.path.isfile(compile_commands):
        with open(compile_commands, encoding="utf-8") as f:
            for entry in json.load(f):
                src = os.path.abspath(
                    os.path.join(entry["directory"], entry["file"]))
                if src not in path_set:
                    continue
                raw = entry.get("arguments") or entry["command"].split()
                args = [a for a in raw[1:]
                        if a != "-c" and a != entry["file"]
                        and not a.endswith(".o")]
                cleaned: List[str] = []
                skip = False
                for a in args:
                    if skip:
                        skip = False
                        continue
                    if a == "-o":
                        skip = True
                        continue
                    cleaned.append(a)
                tu_args[src] = cleaned
                tus.append(src)
    for p in sorted(path_set):
        if p.endswith((".cpp", ".cc", ".cxx")) and p not in tu_args:
            tu_args[p] = ["-std=c++20"]
            tus.append(p)

    load_sources(prog, sorted(path_set))

    usr_to_qual: Dict[str, str] = {}

    def qual_of(cursor) -> str:
        parent = cursor.semantic_parent
        if parent is not None and parent.kind in (
                cindex.CursorKind.CLASS_DECL, cindex.CursorKind.STRUCT_DECL,
                cindex.CursorKind.CLASS_TEMPLATE):
            return f"{parent.spelling}::{cursor.spelling}"
        return cursor.spelling

    fn_kinds = (
        cindex.CursorKind.FUNCTION_DECL, cindex.CursorKind.CXX_METHOD,
        cindex.CursorKind.CONSTRUCTOR, cindex.CursorKind.DESTRUCTOR,
        cindex.CursorKind.FUNCTION_TEMPLATE)

    def visit(cursor, enclosing: Optional[Function] = None) -> None:
        # Only descend into subtrees whose source lives in the scanned
        # set: project namespaces/classes are in-scope blocks in our own
        # files, while `namespace std` et al. live in system headers and
        # are skipped wholesale (keeps TU walks near-linear in our code).
        for child in cursor.get_children():
            loc_file = child.location.file
            if loc_file is None or \
                    os.path.abspath(loc_file.name) not in path_set:
                continue
            inner = enclosing
            if child.kind in fn_kinds:
                inner = handle_function(child)
            if child.kind == cindex.CursorKind.CXX_FOR_RANGE_STMT:
                # Type-accurate unordered iteration: the range expression's
                # type, not its name. The local rules merge it per file
                # (unordered-iter); the enclosing function carries it as
                # a fact (hot-unordered-iter), like a name-pool loop.
                kids = list(child.get_children())
                range_type = kids[-2].type.spelling if len(kids) >= 2 \
                    else ""
                if "unordered_" in range_type:
                    path = norm_path(os.path.abspath(loc_file.name))
                    line = child.location.line
                    prog.typed_unordered.setdefault(path, set()).add(
                        (line, range_type))
                    if enclosing is not None and not any(
                            f.rule == "hot-unordered-iter" and
                            f.line == line for f in enclosing.facts):
                        enclosing.facts.append(Fact(
                            "hot-unordered-iter", path, line,
                            f"range-for over '{range_type}'"))
            visit(child, inner)

    def handle_function(cursor) -> Function:
        path = norm_path(os.path.abspath(cursor.location.file.name))
        qual = qual_of(cursor)
        base = cursor.spelling
        cls = qual.split("::")[0] if "::" in qual else None
        annotations = [c.spelling for c in cursor.get_children()
                       if c.kind == cindex.CursorKind.ANNOTATE_ATTR]
        ret = cursor.result_type.spelling if cursor.result_type else ""
        fn = Function(
            qual=qual, name=base, cls=cls, file=path,
            line=cursor.location.line,
            hot="intsched::hotpath" in annotations,
            cold="intsched::coldpath" in annotations,
            returns_ptr_or_ref=bool(re.search(r"[*&]\s*$", ret.strip())))
        for arg in cursor.get_arguments():
            fn.params.append((arg.type.spelling, arg.spelling))
        fn = prog.add_function(fn)
        usr = cursor.get_usr()
        if usr:
            usr_to_qual.setdefault(usr, fn.qual)
        if not cursor.is_definition() or fn.body_text:
            return fn
        ext = cursor.extent
        stripped = prog.stripped[path]
        start = ext.start.offset
        body_open = stripped.find("{", start, ext.end.offset)
        if body_open < 0:
            return fn
        fn.file, fn.line = path, cursor.location.line
        analyze_body(prog, fn, stripped, path, body_open, ext.end.offset)
        # Replace the heuristic call list with AST-accurate edges where
        # the AST resolves the callee; keep textual sites otherwise.
        ast_calls: List[CallSite] = []

        def walk_calls(c) -> None:
            for ch in c.get_children():
                if ch.kind == cindex.CursorKind.CALL_EXPR:
                    ref = ch.referenced
                    if ref is not None and ref.location.file is not None \
                            and os.path.abspath(
                                ref.location.file.name) in path_set:
                        ast_calls.append(CallSite(
                            name=qual_of(ref), receiver=None, args="",
                            file=path, line=ch.location.line))
                walk_calls(ch)

        walk_calls(cursor)
        if ast_calls:
            # Merge: AST edges are authoritative; retain textual sites for
            # arg-text-dependent checks (snapshot pass) — dedupe later.
            fn.calls.extend(ast_calls)
        return fn

    for tu_path in tus:
        tu = index.parse(tu_path, args=tu_args[tu_path])
        fatal = [d for d in tu.diagnostics if d.severity >= 4]
        if fatal:
            raise RuntimeError(
                f"libclang failed to parse {tu_path}: {fatal[0].spelling}")
        visit(tu.cursor)
    # Headers never reached through a TU (pure-header corpus cases): parse
    # them standalone so their functions still enter the graph.
    seen_files = {fn.file for fn in prog.functions.values()}
    for p in sorted(path_set):
        if norm_path(p) not in seen_files and p.endswith((".hpp", ".hh", ".h")):
            tu = index.parse(p, args=["-std=c++20", "-xc++"])
            visit(tu.cursor)
    return prog


# ---------------------------------------------------------------------------
# Call resolution (textual edges), reachability, suppression accounting
# ---------------------------------------------------------------------------


def resolve_call(prog: Program, caller: Function,
                 site: CallSite) -> Optional[Function]:
    if "::" in site.name:
        return prog.functions.get(site.name.split("::", 1)[0] + "::" +
                                  site.name.rsplit("::", 1)[-1]) \
            or prog.functions.get(site.name)
    if site.receiver is not None:
        recv_cls: Optional[str] = None
        if site.receiver == "this":
            recv_cls = caller.cls
        else:
            recv_cls = caller.locals.get(site.receiver)
            if recv_cls is None:
                for ptype, pname in caller.params:
                    if pname == site.receiver:
                        recv_cls = prog.resolve_type(ptype)
                        break
            if recv_cls is None and caller.cls:
                mtype = prog.members.get(caller.cls, {}).get(site.receiver)
                if mtype:
                    recv_cls = prog.resolve_type(mtype)
            if recv_cls is None:
                # Unique member name across every known class.
                owners = [c for c, mem in prog.members.items()
                          if site.receiver in mem]
                if len(owners) == 1:
                    recv_cls = prog.resolve_type(
                        prog.members[owners[0]][site.receiver])
        if recv_cls is not None:
            target = prog.functions.get(f"{recv_cls}::{site.name}")
            if target is not None:
                return target
        if site.name in STD_METHOD_NAMES:
            return None
        candidates = prog.by_name.get(site.name, [])
        return candidates[0] if len(candidates) == 1 else None
    # Bare call: own class first, then free function, then unique method.
    if caller.cls:
        target = prog.functions.get(f"{caller.cls}::{site.name}")
        if target is not None:
            return target
    target = prog.functions.get(site.name)
    if target is not None:
        return target
    if site.name in STD_METHOD_NAMES:
        return None
    candidates = prog.by_name.get(site.name, [])
    return candidates[0] if len(candidates) == 1 else None


class SuppressionIndex:
    """Every allow()/allow-file() annotation in the program, with use
    tracking: an annotation is used once it silences a finding."""

    def __init__(self, files: Dict[str, List[str]]) -> None:
        self.by_site: Dict[Tuple[str, int], Set[str]] = {}
        self.by_file: Dict[str, Dict[str, int]] = {}  # path -> rule -> line
        self.errors: List[str] = []
        self.all: List[Tuple[str, int, str, str]] = []
        self.used: Set[Tuple[str, int, str]] = set()
        for path, lines in files.items():
            for i, raw in enumerate(lines, start=1):
                for regex, form in ((ALLOW_RE, "allow"),
                                    (ALLOW_FILE_RE, "allow-file")):
                    m = regex.search(raw)
                    if not m:
                        continue
                    for rule in (r.strip() for r in m.group(1).split(",")):
                        if rule not in RULES:
                            self.errors.append(
                                f"{path}:{i}: unknown rule '{rule}' in "
                                f"{form}() — this suppresses nothing "
                                "(typo?); known rules: --list-rules")
                            continue
                        if form == "allow":
                            self.by_site.setdefault((path, i), set()).add(rule)
                        else:
                            self.by_file.setdefault(path, {})[rule] = i
                        self.all.append((path, i, rule, form))
            if os.path.basename(path) in RAW_THREAD_BOUNDARY_BASENAMES:
                self.by_file.setdefault(path, {}).setdefault("raw-thread", 0)

    def allowed(self, path: str, line: int, rule: str) -> bool:
        for ln in (line, line - 1):
            if rule in self.by_site.get((path, ln), set()):
                self.used.add((path, ln, rule))
                return True
        file_line = self.by_file.get(path, {}).get(rule)
        if file_line is not None:
            self.used.add((path, file_line, rule))
            return True
        return False

    def unused(self) -> List[str]:
        out = []
        for path, line, rule, form in self.all:
            if (path, line, rule) in self.used:
                continue
            where = ("on this line or the next" if form == "allow"
                     else "anywhere in this file")
            out.append(
                f"{path}:{line}: unused suppression {form}({rule}): no "
                f"[{rule}] finding {where} — the code it excused has "
                "moved; delete the annotation")
        return sorted(set(out))


def hot_reachability(prog: Program,
                     supp: SuppressionIndex) -> List[Finding]:
    findings: List[Finding] = []
    roots = sorted((f for f in prog.functions.values() if f.hot),
                   key=lambda f: f.qual)
    witness: Dict[str, Tuple[str, ...]] = {}
    queue: deque = deque()
    for r in roots:
        witness[r.qual] = (r.qual,)
        queue.append(r)
    while queue:
        fn = queue.popleft()
        path_here = witness[fn.qual]
        for fact in fn.facts:
            if supp.allowed(fact.file, fact.line, fact.rule):
                continue
            findings.append(Finding(
                fact.rule, fact.file, fact.line,
                f"{fact.detail} in '{fn.qual}' reachable from hot root "
                f"'{path_here[0]}' — the decision-path budget forbids it "
                "(DESIGN.md §14); hoist the work to the caller/publish "
                "side or suppress with a named rule and a reason",
                path_here))
        seen_edges: Set[Tuple[str, int]] = set()
        for site in fn.calls:
            target = resolve_call(prog, fn, site)
            if target is None or target.qual == fn.qual:
                continue
            edge_key = (target.qual, site.line)
            if edge_key in seen_edges:
                continue
            seen_edges.add(edge_key)
            if target.cold:
                if not supp.allowed(site.file, site.line, "hot-coldcall"):
                    findings.append(Finding(
                        "hot-coldcall", site.file, site.line,
                        f"'{fn.qual}' calls INTSCHED_COLDPATH function "
                        f"'{target.qual}': cold work (allocation, publish, "
                        "growth) reached from the hot path; restructure or "
                        "suppress with a named rule and a reason",
                        path_here + (target.qual,)))
                continue
            if target.qual not in witness:
                witness[target.qual] = path_here + (target.qual,)
                queue.append(target)
    return findings


# ---------------------------------------------------------------------------
# Snapshot-lifetime pass (whole program, cross-function)
# ---------------------------------------------------------------------------


def line_of_body(fn: Function, rel: int) -> int:
    # Newlines survive stripping, so the body-open line plus the newlines
    # in the body prefix is the exact file line.
    return fn.body_line + fn.body_text.count("\n", 0, rel)


def classify_snapshot_params(prog: Program) -> None:
    for fn in prog.functions.values():
        if not fn.body_text:
            continue
        for ptype, pname in fn.params:
            if "shared_ptr" in ptype:
                continue  # shared ownership pins the epoch: sanctioned
            if not any(s in ptype for s in SNAPSHOT_CLASSES):
                continue
            if "&" not in ptype and "*" not in ptype:
                continue  # by-value copy cannot dangle
            fn.snap_params.add(pname)
            body = fn.body_text

            def to_line(rel: int) -> int:
                return line_of_body(fn, rel)

            for m in re.finditer(
                    rf"(?:this\s*->\s*)?([A-Za-z_]\w*_)\s*=\s*&\s*{pname}\b",
                    body):
                fn.stores_param.append((pname, to_line(m.start())))
            for m in re.finditer(
                    rf"(?:this\s*->\s*)?([A-Za-z_]\w*_)\s*=\s*{pname}\s*"
                    rf"(?:\.|->)\s*(\w+)\s*\(", body):
                if callee_returns_ptr(prog, m.group(2)):
                    fn.stores_param.append((pname, to_line(m.start())))
            for m in re.finditer(rf"return\s*&\s*{pname}\b", body):
                fn.returns_param_interior.append((pname, to_line(m.start())))
            if fn.returns_ptr_or_ref:
                for m in re.finditer(
                        rf"return\s+{pname}\s*(?:\.|->)\s*(\w+)\s*\(", body):
                    if callee_returns_ptr(prog, m.group(1)):
                        fn.returns_param_interior.append(
                            (pname, to_line(m.start())))
                for m in re.finditer(rf"return\s+{pname}\s*;", body):
                    fn.returns_param_interior.append(
                        (pname, to_line(m.start())))


def snapshot_pass(prog: Program, supp: SuppressionIndex) -> List[Finding]:
    classify_snapshot_params(prog)
    findings: List[Finding] = []
    for fn in sorted(prog.functions.values(), key=lambda f: f.qual):
        if not fn.body_text:
            continue
        body = fn.body_text
        roots = fn.handles
        # Derived locals: `x = handle->f(...)` / `x = *handle` where f
        # yields an interior pointer/reference.
        derived: Set[str] = set()
        for h in roots:
            for m in re.finditer(
                    rf"\b([A-Za-z_]\w*)\s*=\s*(?:\*\s*{h}\b|&\s*{h}\b|"
                    rf"{h}\s*(?:\.|->)\s*\w+\s*\()", body):
                if m.group(1) != h:
                    derived.add(m.group(1))
        tracked = roots | derived
        if tracked:
            # (a) Return of a handle-rooted pointer/reference.
            for h in sorted(tracked):
                for m in re.finditer(rf"return\s*&\s*{h}\b", body):
                    ln = line_of_body(fn, m.start())
                    if not supp.allowed(fn.file, ln, "snapshot-return"):
                        findings.append(Finding(
                            "snapshot-return", fn.file, ln,
                            f"address rooted at snapshot handle '{h}' "
                            f"returned from '{fn.qual}': the pointee is "
                            "reclaimed after the next publish; return a "
                            "copy or keep the shared_ptr handle alive",
                            (fn.qual,)))
                if fn.returns_ptr_or_ref:
                    for m in re.finditer(
                            rf"return\s+{h}\s*(?:\.|->)\s*(\w+)\s*\(", body):
                        if not callee_returns_ptr(prog, m.group(1)):
                            continue
                        ln = line_of_body(fn, m.start())
                        if not supp.allowed(fn.file, ln, "snapshot-return"):
                            findings.append(Finding(
                                "snapshot-return", fn.file, ln,
                                f"interior pointer of snapshot handle '{h}' "
                                f"returned from '{fn.qual}': it outlives "
                                "the handle's frame and dangles after the "
                                "next publish", (fn.qual,)))
                # (b) Member store of a handle-rooted pointer/reference.
                for m in re.finditer(
                        rf"(?:this\s*->\s*)?[A-Za-z_]\w*_\s*=\s*"
                        rf"(?:&\s*{h}\b|{h}\s*(?:\.|->)\s*(\w+)\s*\()", body):
                    if m.group(1) is not None and not callee_returns_ptr(
                            prog, m.group(1)):
                        continue
                    ln = line_of_body(fn, m.start())
                    if not supp.allowed(fn.file, ln, "snapshot-store"):
                        findings.append(Finding(
                            "snapshot-store", fn.file, ln,
                            f"reference into snapshot handle '{h}' stored "
                            f"into a member in '{fn.qual}': it outlives the "
                            "publish epoch; store the shared_ptr handle or "
                            "copy the value", (fn.qual,)))
                # (c) The handle captured by reference in a callback the
                # event scheduler runs after this frame is gone.
                for m in DEFERRED_CALL_RE.finditer(body):
                    open_paren = body.index("(", m.start())
                    close = match_forward(body, open_paren, "(", ")")
                    args = body[open_paren:close if close > 0 else len(body)]
                    if not (re.search(r"\[\s*&", args)
                            and re.search(rf"\b{h}\b", args)):
                        continue
                    ln = line_of_body(fn, m.start())
                    if not supp.allowed(fn.file, ln, "snapshot-store"):
                        findings.append(Finding(
                            "snapshot-store", fn.file, ln,
                            f"snapshot handle '{h}' captured by reference "
                            f"in a deferred callback in '{fn.qual}': the "
                            "callback outlives the frame holding the "
                            "handle; capture the shared_ptr by value or "
                            "re-acquire inside the callback", (fn.qual,)))
        # (d) Cross-function: handle (or snapshot param) passed to a
        # callee that stores or leaks its snapshot parameter.
        arg_sources = tracked | fn.snap_params
        if not arg_sources:
            continue
        for site in fn.calls:
            target = resolve_call(prog, fn, site)
            if target is None or target.qual == fn.qual:
                continue
            if not (target.stores_param or target.returns_param_interior):
                continue
            hit = next((src for src in sorted(arg_sources)
                        if re.search(rf"\b{src}\b", site.args)), None)
            if hit is None:
                continue
            if target.stores_param:
                pname, sink_line = target.stores_param[0]
                if supp.allowed(target.file, sink_line, "snapshot-store") or \
                        supp.allowed(site.file, site.line, "snapshot-store"):
                    continue
                findings.append(Finding(
                    "snapshot-store", target.file, sink_line,
                    f"'{fn.qual}' passes snapshot-rooted '{hit}' to "
                    f"'{target.qual}', which stores its '{pname}' parameter "
                    "into a member: the stored reference outlives the "
                    "publish epoch", (fn.qual, target.qual)))
            elif target.returns_param_interior and fn.returns_ptr_or_ref:
                # Forwarding a callee's interior pointer out of this frame.
                pname, sink_line = target.returns_param_interior[0]
                for m in re.finditer(
                        rf"return\s+[\w:]*\s*{site.name}\s*\(",
                        fn.body_text):
                    ln = line_of_body(fn, m.start())
                    if supp.allowed(fn.file, ln, "snapshot-return"):
                        continue
                    findings.append(Finding(
                        "snapshot-return", fn.file, ln,
                        f"'{fn.qual}' returns '{target.qual}''s interior "
                        f"pointer into snapshot-rooted '{hit}': the "
                        "reference escapes the frame that pins the epoch",
                        (fn.qual, target.qual)))
    return findings


def callee_returns_ptr(prog: Program, name: str) -> bool:
    candidates = prog.by_name.get(name, [])
    if candidates:
        return any(c.returns_ptr_or_ref for c in candidates)
    # Unknown callee (std:: or out of scope): assume value-returning,
    # except the conventional accessor spellings for interior state.
    return name in ("data", "get", "c_str", "paths_from", "operator->")


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def iter_cxx_files(paths: Sequence[str]) -> List[str]:
    out: List[str] = []
    for p in paths:
        if os.path.isfile(p):
            out.append(p)
        else:
            for root, dirs, files in os.walk(p):
                dirs[:] = sorted(d for d in dirs
                                 if d not in (".git", "build")
                                 and not d.startswith("build-"))
                for name in sorted(files):
                    if name.endswith(CXX_EXTENSIONS):
                        out.append(os.path.join(root, name))
    return sorted(set(norm_path(p) for p in out))


def build_program(files: Sequence[str], engine: str,
                  compile_commands: Optional[str]) -> Program:
    if engine == "clang":
        return build_program_libclang(files, compile_commands)
    return build_program_textual(files)


def analyze(prog: Program) -> Tuple[List[Finding], SuppressionIndex]:
    supp = SuppressionIndex(prog.files)
    findings = [f for path in prog.stripped
                for f in local_findings(prog, path)
                if not supp.allowed(f.file, f.line, f.rule)]
    findings.extend(hot_reachability(prog, supp))
    findings.extend(snapshot_pass(prog, supp))
    # One report per distinct finding (a cross-function escape can be
    # found from several callers, a nested loop from each level).
    findings = sorted(set(findings),
                      key=lambda f: (f.file, f.line, f.rule, f.message,
                                     f.witness))
    return findings, supp


def write_report(path: str, prog: Program, findings: Sequence[Finding],
                 supp: SuppressionIndex, changed: Optional[Set[str]]) -> None:
    roots = sorted(f.qual for f in prog.functions.values() if f.hot)
    cold = sorted(f.qual for f in prog.functions.values() if f.cold)
    edges = sum(len(f.calls) for f in prog.functions.values())
    doc = {
        "engine": prog.engine,
        "files": len(prog.files),
        "functions": len(prog.functions),
        "call_sites": edges,
        "hot_roots": roots,
        "cold_barriers": cold,
        "changed_file_filter": sorted(changed) if changed else None,
        "findings": [
            {
                "rule": f.rule,
                "file": f.file,
                "line": f.line,
                "message": f.message,
                "witness": list(f.witness),
            } for f in findings
        ],
        "suppression_errors": supp.errors,
        "unused_suppressions": supp.unused(),
    }
    with open(path, "w", encoding="utf-8") as out:
        json.dump(doc, out, indent=2, sort_keys=True)
        out.write("\n")


def run_scan(args: argparse.Namespace, engine: str) -> int:
    files = iter_cxx_files(args.paths)
    if not files:
        print("detlint: no C++ files under given paths", file=sys.stderr)
        return 2
    try:
        prog = build_program(files, engine, args.compile_commands)
    except Exception as e:  # noqa: BLE001 — surfaced as a tool error
        print(f"detlint: {engine} engine failed: {e}", file=sys.stderr)
        return 2
    roots = [f for f in prog.functions.values() if f.hot]
    if not roots:
        print("detlint: no INTSCHED_HOTPATH roots found in the scanned "
              "set — the contract would be vacuously clean; annotate the "
              "entry points (core/contracts.hpp) or check the macro "
              "spelling", file=sys.stderr)
        return 2
    findings, supp = analyze(prog)

    changed: Optional[Set[str]] = None
    if args.changed_files:
        changed = {os.path.abspath(p) for p in args.changed_files}
        qual_files = {f.qual: f.file for f in prog.functions.values()}
        kept = []
        for f in findings:
            touches = {f.file} | {qual_files.get(q, "") for q in f.witness}
            if {os.path.abspath(t) for t in touches if t} & changed:
                kept.append(f)
        print(f"detlint: changed-file fast path: full graph "
              f"({len(prog.functions)} functions) built, reporting "
              f"{len(kept)}/{len(findings)} finding(s) touching "
              f"{len(changed)} changed file(s)", file=sys.stderr)
        findings = kept

    hygiene_errors = list(supp.errors)
    unused = supp.unused()
    for e in hygiene_errors:
        print(f"error: {e}", file=sys.stderr)
    for w in unused:
        if args.strict_suppressions:
            print(f"error: {w}", file=sys.stderr)
        else:
            print(f"warning: {w}", file=sys.stderr)
    for f in findings:
        print(f.render())
    if args.report:
        write_report(args.report, prog, findings, supp, changed)
    bad = len(findings) + len(hygiene_errors)
    if args.strict_suppressions:
        bad += len(unused)
    if bad:
        print(f"detlint: {len(findings)} finding(s), "
              f"{len(hygiene_errors)} hygiene error(s), "
              f"{len(unused)} unused suppression(s) across "
              f"{len(prog.files)} file(s) [{prog.engine} engine]",
              file=sys.stderr)
        return 1
    print(f"detlint: clean — {len(roots)} hot root(s), "
          f"{len(prog.functions)} function(s), {len(prog.files)} file(s) "
          f"[{prog.engine} engine]", file=sys.stderr)
    return 0


def run_self_test(corpus_dir: str, engine: str) -> int:
    """Each corpus case (a bad_* or clean_* entry) is one C++ file or a
    directory of them forming a small whole program. bad_* cases must produce exactly their expect()
    annotations (line-level, rule-exact) and every expect-via() witness;
    clean_* cases must produce none. expect-error(substr) /
    expect-warning(substr) assert suppression-hygiene errors / unused
    suppressions the same way, and no hygiene diagnostic may go
    unexpected."""
    cases = sorted(d for d in os.listdir(corpus_dir)
                   if d.startswith(("bad_", "clean_")))
    if not cases:
        print(f"detlint: empty corpus at {corpus_dir}", file=sys.stderr)
        return 2
    failures = 0
    for case in cases:
        files = iter_cxx_files([os.path.join(corpus_dir, case)])
        try:
            prog = build_program(files, engine, None)
        except Exception as e:  # noqa: BLE001
            print(f"SELFTEST ERROR: {case}: {engine} engine failed: {e}")
            failures += 1
            continue
        findings, supp = analyze(prog)
        expected: Set[Tuple[str, int, str]] = set()
        exp_via: List[str] = []
        exp_diags: Dict[str, List[str]] = {"error": [], "warning": []}
        for path in files:
            for i, raw in enumerate(prog.files[path], start=1):
                comment = raw[raw.find("//"):] if "//" in raw else ""
                for rule in EXPECT_RE.findall(comment):
                    expected.add((os.path.basename(path), i, rule))
                for m in EXPECT_VIA_RE.finditer(raw):
                    exp_via.append(re.sub(r"\s+", "", m.group(1)))
                exp_diags["error"] += EXPECT_ERROR_RE.findall(raw)
                exp_diags["warning"] += EXPECT_WARNING_RE.findall(raw)
        actual = {(os.path.basename(f.file), f.line, f.rule)
                  for f in findings}
        if case.startswith("clean_") and expected:
            print(f"SELFTEST BROKEN: {case} is clean_* but has expect()")
            failures += 1
            continue
        for miss in sorted(expected - actual):
            print(f"SELFTEST MISS: {case}/{miss[0]}:{miss[1]} expected "
                  f"[{miss[2]}] not reported")
            failures += 1
        for spur in sorted(actual - expected):
            print(f"SELFTEST SPURIOUS: {case}/{spur[0]}:{spur[1]} reported "
                  f"[{spur[2]}] not expected")
            failures += 1
        witnesses = {"->".join(f.witness) for f in findings}
        for via in exp_via:
            if via not in witnesses:
                print(f"SELFTEST MISS: {case} expected witness path "
                      f"'{via}'; got {sorted(witnesses) or 'none'}")
                failures += 1
        for label, got in (("error", supp.errors),
                           ("warning", supp.unused())):
            unmatched = list(got)
            for sub in exp_diags[label]:
                hit = next((d for d in unmatched if sub in d), None)
                if hit is None:
                    print(f"SELFTEST MISS: {case} expected a hygiene "
                          f"{label} containing '{sub}'")
                    failures += 1
                else:
                    unmatched.remove(hit)
            for d in unmatched:
                print(f"SELFTEST SPURIOUS: {case} hygiene {label}: {d}")
                failures += 1
    if failures:
        print(f"detlint self-test [{engine}]: FAIL "
              f"({failures} mismatch(es) over {len(cases)} case(s))")
        return 1
    print(f"detlint self-test [{engine}]: OK ({len(cases)} case(s))")
    return 0


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="detlint", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("paths", nargs="*", help="files or directories")
    parser.add_argument("--engine", choices=("auto", "text", "clang"),
                        default="auto",
                        help="clang exits 2 when libclang is not importable "
                             "instead of degrading to text (CI)")
    parser.add_argument("--compile-commands", default=None,
                        help="compile_commands.json for the clang engine "
                             "(default: build/compile_commands.json when "
                             "present)")
    parser.add_argument("--self-test", action="store_true",
                        help="run against the bundled corpus")
    parser.add_argument("--strict-suppressions", action="store_true",
                        help="treat unused suppressions as errors")
    parser.add_argument("--changed-files", nargs="*", default=None,
                        help="PR fast path: build the full graph but report "
                             "only findings whose file or witness path "
                             "touches these files")
    parser.add_argument("--report", default=None,
                        help="write a JSON call-graph/finding report")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        for r in RULES:
            print(r)
        return 0

    have_clang = libclang_available()
    engine = args.engine
    if engine == "auto":
        engine = "clang" if have_clang else "text"
        if not have_clang:
            print("detlint: libclang not found; using the textual engine "
                  "(call edges are heuristic — install python3-clang for "
                  "type-accurate resolution)", file=sys.stderr)
    elif engine == "clang" and not have_clang:
        print("detlint: --engine clang but libclang (python3-clang) is not "
              "importable", file=sys.stderr)
        return 2

    if args.compile_commands is None and os.path.isfile(
            "build/compile_commands.json"):
        args.compile_commands = "build/compile_commands.json"

    if args.self_test:
        corpus = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "corpus")
        rc = run_self_test(corpus, "text")
        if have_clang:
            rc = max(rc, run_self_test(corpus, "clang"))
        return rc

    if not args.paths:
        parser.error("paths required unless --self-test/--list-rules")
    return run_scan(args, engine)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
