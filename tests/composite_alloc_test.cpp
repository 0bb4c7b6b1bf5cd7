// Heap allocations of CompositeBuilder's numeric deltas.
//
// This binary alone links the counting operator new of
// tests/support/alloc_counter.cpp. A reprioritize stores doubles into
// kernel slots sized when the pipeline was added, and a resize
// move-assigns the incoming platform, so neither may allocate.

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "service/composite.hpp"
#include "support/alloc_counter.hpp"
#include "testutil.hpp"

namespace mfa::service {
namespace {

TEST(CompositeBuilder, NumericDeltasDoNotAllocate) {
  PipelineSpec p0;
  p0.id = "p0";
  p0.app.kernels = {test::make_kernel("a", 8.0, 10.0, 20.0, 5.0),
                    test::make_kernel("b", 12.0, 8.0, 15.0, 4.0)};
  CompositeBuilder builder(core::Platform{"pool", 2}, CompositeConfig{});
  builder.add_pipeline(p0);

  // Everything the deltas take is built before the window opens. The
  // new platform's name is longer than any small-string buffer, so a
  // resize that copied it instead of moving it would allocate.
  PipelineSpec hot = p0;
  hot.weight = 3.0;
  core::Platform grown{"pool-grown-to-four-fpgas", 4};

  const std::uint64_t before = test::thread_alloc_count();
  builder.reprioritize(0, hot);
  builder.resize_platform(std::move(grown));
  const std::uint64_t deltas = test::thread_alloc_count() - before;
  EXPECT_EQ(deltas, 0u);

  // The snapshot copies the composite, so the counter must move: a
  // counter that reads 0 here is not counting.
  const auto snapshot = builder.snapshot();
  EXPECT_GT(test::thread_alloc_count() - before, deltas);
  EXPECT_EQ(snapshot->platform.name, "pool-grown-to-four-fpgas");
  EXPECT_EQ(snapshot->app.kernels[1].wcet_ms, 36.0);
}

}  // namespace
}  // namespace mfa::service
