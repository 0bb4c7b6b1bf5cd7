// Per-thread heap allocation counter for tests.
//
// tests/support/alloc_counter.cpp replaces the global `operator new`
// set with counting versions that forward to malloc. CMake links it
// into exactly one binary, composite_alloc_test: replacing operator new
// is a whole-binary decision, so libmfa and every other binary keep the
// default allocator. A test reads thread_alloc_count() before and after
// the code under test; the difference is the number of allocations
// that code made on this thread, whatever other threads do.
#pragma once

#include <cstdint>

namespace mfa::test {

/// Global operator-new calls (plain, array, nothrow and aligned forms)
/// this thread has made since it started.
[[nodiscard]] std::uint64_t thread_alloc_count();

}  // namespace mfa::test
