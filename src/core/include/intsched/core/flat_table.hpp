#pragma once

// Flat open-addressing hash table keyed by a strong id (core::TaggedId),
// for the serving decision path (DESIGN.md §13). The std::unordered_map
// it replaces costs a pointer chase per bucket node and allocates per
// insert; FlatTable keeps every slot in one contiguous power-of-two
// array (the lnic INT-collector's flat state-table idiom), probes
// linearly, and never allocates on lookup — the one operation the
// million-QPS path runs. Inserts may grow the array and belong on the
// cold (registration) path only.
//
// Determinism: the layout depends on insertion order (linear probing),
// so the table deliberately exposes no iteration — callers that need an
// ordered walk keep their own sorted vector (ServeFrontend does). The
// hash is a fixed splitmix64-style mix of the id's raw value: identical
// across runs, platforms, and library versions.
//
// Keys use Id::invalid() (-1) as the empty-slot sentinel, so it cannot
// be stored. There is no erase: scheduler registries only grow.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "intsched/core/contracts.hpp"

namespace intsched::core {

template <typename Id, typename Value>
class FlatTable {
 public:
  /// Capacity is rounded up to a power of two; the table grows (cold
  /// path) when occupancy would exceed kMaxLoadPercent.
  explicit FlatTable(std::size_t initial_capacity = 16) {
    std::size_t cap = 8;
    while (cap < initial_capacity) cap *= 2;
    slots_.resize(cap);
  }

  /// Inserts or overwrites. Cold path: may rehash. The key must be valid;
  /// Id::invalid() is the empty-slot sentinel, so storing it would create
  /// a phantom slot every probe chain stops at — such inserts are
  /// rejected (no-op) rather than corrupting the table.
  INTSCHED_COLDPATH void insert_or_assign(Id key, Value value) {
    if (!key.valid()) return;
    if ((size_ + 1) * 100 > slots_.size() * kMaxLoadPercent) {
      grow();
    }
    Slot& s = slot_for(key);
    if (!s.key.valid()) {
      ++size_;
      s.key = key;
    }
    s.value = std::move(value);
  }

  /// Hot path: nullptr when absent. No allocation, no locks; probes a
  /// contiguous array with wrap-around.
  [[nodiscard]] INTSCHED_HOTPATH const Value* find(Id key) const {
    if (!key.valid()) return nullptr;
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = mix(key) & mask;
    for (std::size_t probes = 0; probes <= mask; ++probes) {
      const Slot& s = slots_[i];
      if (!s.key.valid()) return nullptr;
      if (s.key == key) return &s.value;
      i = (i + 1) & mask;
    }
    return nullptr;
  }

  [[nodiscard]] bool contains(Id key) const { return find(key) != nullptr; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  /// Longest probe sequence any current key needs — observability for
  /// the clustering tests; lookups stay O(max_probe_length).
  [[nodiscard]] std::size_t max_probe_length() const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t worst = 0;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (!slots_[i].key.valid()) continue;
      const std::size_t home = mix(slots_[i].key) & mask;
      const std::size_t dist = (i + slots_.size() - home) & mask;
      worst = std::max(worst, dist + 1);
    }
    return worst;
  }

 private:
  static constexpr std::size_t kMaxLoadPercent = 70;

  struct Slot {
    Id key = Id::invalid();
    Value value{};
  };

  /// splitmix64 finalizer over the raw id value: cheap, fixed, and
  /// avalanche-mixing so dense sequential ids spread across the array.
  [[nodiscard]] static std::size_t mix(Id key) {
    auto h = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(key.value()));
    h ^= h >> 30;
    h *= 0xBF58476D1CE4E5B9ULL;
    h ^= h >> 27;
    h *= 0x94D049BB133111EBULL;
    h ^= h >> 31;
    return static_cast<std::size_t>(h);
  }

  [[nodiscard]] Slot& slot_for(Id key) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = mix(key) & mask;
    while (slots_[i].key.valid() && slots_[i].key != key) {
      i = (i + 1) & mask;
    }
    return slots_[i];
  }

  INTSCHED_COLDPATH void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.clear();
    slots_.resize(old.size() * 2);
    size_ = 0;
    for (Slot& s : old) {
      if (!s.key.valid()) continue;
      Slot& dst = slot_for(s.key);
      dst.key = s.key;
      dst.value = std::move(s.value);
      ++size_;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace intsched::core
