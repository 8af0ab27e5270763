#pragma once

// The arithmetic the benchmark's numbers rest on, kept apart from the
// workloads so tests/test_bench_math.cpp can check it on known inputs:
// exact nearest-rank quantiles, the order-independent decision
// fingerprint, and span self time.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "intsched/sim/hash.hpp"

namespace e2ebench {

/// Every recorded value, kept exactly: values in [0, dense_limit) as
/// per-value counts (fixed memory however many requests a window
/// completes), all others verbatim. Quantiles are nearest-rank over the
/// whole multiset, so they equal what a sorted vector of every sample
/// would give.
class ExactSamples {
 public:
  explicit ExactSamples(std::int64_t dense_limit = std::int64_t{1} << 16)
      : dense_(static_cast<std::size_t>(dense_limit), 0) {}

  void add(std::int64_t v) {
    if (v >= 0 && v < static_cast<std::int64_t>(dense_.size())) {
      ++dense_[static_cast<std::size_t>(v)];
      ++dense_count_;
    } else {
      sparse_.push_back(v);
      sorted_ = false;
    }
  }

  /// Adds every sample of `other`, which must have the same dense limit.
  void merge(const ExactSamples& other) {
    for (std::size_t i = 0; i < dense_.size() && i < other.dense_.size();
         ++i) {
      dense_[i] += other.dense_[i];
    }
    dense_count_ += other.dense_count_;
    sparse_.insert(sparse_.end(), other.sparse_.begin(), other.sparse_.end());
    sorted_ = false;
  }

  [[nodiscard]] std::int64_t count() const {
    return dense_count_ + static_cast<std::int64_t>(sparse_.size());
  }

  /// Nearest-rank quantile num/den (0 < num/den <= 1): the sample at
  /// 1-based rank ceil(n * num / den) in ascending order. Integer rank
  /// arithmetic, so p99 of 100 samples is the 99th, never the 100th.
  /// Returns 0 when there are no samples.
  [[nodiscard]] std::int64_t nearest_rank(std::int64_t num, std::int64_t den) {
    const std::int64_t n = count();
    if (n == 0 || den <= 0) return 0;
    std::int64_t rank = (n * num + den - 1) / den;
    rank = std::clamp<std::int64_t>(rank, 1, n);
    if (!sorted_) {
      std::sort(sparse_.begin(), sparse_.end());
      sorted_ = true;
    }
    // Ascending order is: sparse negatives, the dense range, sparse
    // values at or above the dense limit.
    const auto negatives = static_cast<std::int64_t>(
        std::lower_bound(sparse_.begin(), sparse_.end(), 0) -
        sparse_.begin());
    if (rank <= negatives) {
      return sparse_[static_cast<std::size_t>(rank - 1)];
    }
    rank -= negatives;
    if (rank <= dense_count_) {
      std::int64_t seen = 0;
      for (std::size_t v = 0; v < dense_.size(); ++v) {
        seen += dense_[v];
        if (seen >= rank) return static_cast<std::int64_t>(v);
      }
    }
    return sparse_[static_cast<std::size_t>(negatives + rank - dense_count_ -
                                            1)];
  }

  [[nodiscard]] std::int64_t median() { return nearest_rank(1, 2); }

 private:
  std::vector<std::uint32_t> dense_;
  std::int64_t dense_count_ = 0;
  std::vector<std::int64_t> sparse_;
  bool sorted_ = true;
};

/// Nearest-rank quantile num/den of `v` (by value; empty -> T{}): the
/// same rank rule as ExactSamples, for small sets such as per-slice rates.
template <typename T>
[[nodiscard]] T nearest_rank_of(std::vector<T> v, std::int64_t num,
                                std::int64_t den) {
  if (v.empty() || den <= 0) return T{};
  const auto n = static_cast<std::int64_t>(v.size());
  const std::int64_t rank =
      std::clamp<std::int64_t>((n * num + den - 1) / den, 1, n);
  std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
  return v[static_cast<std::size_t>(rank - 1)];
}

/// Decision fingerprint that does not depend on which thread answered a
/// request or in what order: each request's FNV-1a digest over its id
/// and chosen servers (the metro_sweep hash), summed modulo 2^64.
class DecisionFingerprint {
 public:
  void add(std::uint64_t request_id, const std::int32_t* servers,
           std::size_t count) {
    intsched::sim::Fnv1a64 h;
    h.add(request_id);
    h.add(count);
    for (std::size_t i = 0; i < count; ++i) {
      h.add(static_cast<std::uint64_t>(static_cast<std::uint32_t>(servers[i])));
    }
    sum_ += h.digest();
    ++count_;
  }

  void merge(const DecisionFingerprint& other) {
    sum_ += other.sum_;
    count_ += other.count_;
  }

  [[nodiscard]] std::uint64_t value() const { return sum_; }
  /// Requests folded in.
  [[nodiscard]] std::int64_t count() const { return count_; }

 private:
  std::uint64_t sum_ = 0;
  std::int64_t count_ = 0;
};

/// One timed call. Spans of one request (or one probing interval) share
/// `request`; `parent` indexes the enclosing span in the same group.
struct Span {
  std::uint32_t name = 0;
  std::int32_t parent = -1;
  std::uint64_t request = 0;
  // intsched-lint: allow(raw-unit): wall-clock ns, not sim time
  std::int64_t start_ns = 0;
  // intsched-lint: allow(raw-unit): wall-clock ns, not sim time
  std::int64_t end_ns = 0;
};

/// Self time of every span in one group: its duration minus the part of
/// its interval that its direct children cover (children clipped to the
/// parent, overlaps counted once). `out[i]` belongs to `spans[i]`.
inline void self_times(const std::vector<Span>& spans,
                       std::vector<std::int64_t>& out) {
  out.resize(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[i] = spans[i].end_ns - spans[i].start_ns;
  }
  // Children grouped by parent, in start order, so each parent's
  // covered length is one sweep over its merged child intervals.
  std::vector<std::size_t> kids;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int32_t p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < spans.size()) kids.push_back(i);
  }
  std::sort(kids.begin(), kids.end(), [&](std::size_t a, std::size_t b) {
    if (spans[a].parent != spans[b].parent) {
      return spans[a].parent < spans[b].parent;
    }
    return spans[a].start_ns < spans[b].start_ns;
  });
  for (std::size_t k = 0; k < kids.size();) {
    const auto p = static_cast<std::size_t>(spans[kids[k]].parent);
    const std::int64_t lo = spans[p].start_ns;
    const std::int64_t hi = spans[p].end_ns;
    std::int64_t covered = 0;
    std::int64_t reach = lo;  // end of the merged coverage so far
    for (; k < kids.size() &&
           static_cast<std::size_t>(spans[kids[k]].parent) == p;
         ++k) {
      const std::int64_t s = std::max(spans[kids[k]].start_ns, reach);
      const std::int64_t e = std::min(spans[kids[k]].end_ns, hi);
      if (e > s) {
        covered += e - s;
        reach = e;
      }
    }
    out[p] -= covered;
  }
}

}  // namespace e2ebench
