#pragma once

// Global allocation counter for the serve_tests binary: alloc_counter.cpp
// replaces the global operator new/delete and counts every operator-new
// call and every operator-delete of a non-null pointer. The replacements
// live in their own translation unit, read only through the functions
// below, so the compiler never sees them next to a test body it could
// inline them into (GCC 12 then flags the inlined malloc/free pairs with
// -Wmismatched-new-delete under the sanitizer presets).

#include <cstdint>

namespace intsched::serve {

/// operator-new calls (scalar and array) made by the binary so far. A
/// plain counter: the tests that read it measure a single-threaded warm
/// loop and compare the value before and after it.
[[nodiscard]] std::int64_t counted_allocations();

/// operator-delete calls (scalar and array) on non-null pointers made by
/// the binary so far, read the same way.
[[nodiscard]] std::int64_t counted_frees();

}  // namespace intsched::serve
