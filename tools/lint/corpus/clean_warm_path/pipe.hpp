#pragma once
#include "../contract_macros.hpp"

#include <vector>

namespace demo {

// The warm-path idiom the contract is careful NOT to flag: appending
// into caller-owned scratch that retains its capacity ("allocation-free
// once warm", the same semantics the counting-operator-new test gates).
struct Pipe {
  INTSCHED_HOTPATH void emit(std::vector<long>& out);
  void fill(std::vector<long>& out);
};

}  // namespace demo
