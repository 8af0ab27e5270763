#pragma once

// Hot-path contract annotations — the vocabulary of the static analyzer's
// whole-program rules (tools/lint/detlint.py, DESIGN.md §14).
//
// The serving path's latency bound ("lock-free, allocation-free from
// published MetroView snapshots", §13) is enforced dynamically by the
// counting operator-new test. These macros also make it a declared,
// build-time-verifiable contract, and they are the only thing that
// decides what is hot:
//
//   INTSCHED_HOTPATH   marks a per-decision entry point (or a helper
//                      that is itself part of the decision path). The
//                      analyzer walks the cross-TU call graph from every
//                      hot root and verifies nothing *transitively
//                      reachable* allocates, acquires a lock, blocks on
//                      I/O, reads the wall clock, or iterates a
//                      hash-ordered container.
//   INTSCHED_COLDPATH  marks a function that is deliberately outside
//                      the budget (registration, publish, growth). The
//                      annotation is a barrier *and* a tripwire: the
//                      analyzer never descends into a cold function, but
//                      a call edge from hot-reachable code into one is
//                      itself a finding (hot-coldcall) unless the call
//                      site carries a named suppression.
//
// Escape hatch, always naming the violated rule (unknown rule names are
// hard errors, unused suppressions are pruned by --strict-suppressions),
// in the analyzer's one suppression grammar:
//
//   intsched-lint colon, then allow(RULE): why this site is sound
//   (spelled out here rather than shown verbatim so the analyzer does
//   not read this documentation line as a real suppression)
//
// on the offending line or the line directly above it.
//
// Compile-time cost: zero. Under Clang the macros expand to annotate
// attributes (so the libclang engine reads them from the AST); under
// every other compiler they expand to nothing and only the analyzer's
// textual engine sees the tokens. Either way no codegen changes — the
// BENCH_qps/BENCH_metro fingerprint gates prove annotating is
// behavior-preserving.

#if defined(__clang__)
#define INTSCHED_HOTPATH __attribute__((annotate("intsched::hotpath")))
#define INTSCHED_COLDPATH __attribute__((annotate("intsched::coldpath")))
#else
#define INTSCHED_HOTPATH
#define INTSCHED_COLDPATH
#endif
