// Incremental composite super-pipeline builder.
//
// The allocation service solves one composite problem per event: all
// live pipelines concatenated into a single super-pipeline on the shared
// platform, each pipeline's WCETs scaled by its priority weight. PR 4
// rebuilt that composite from scratch on every event — re-deriving every
// kernel name and scaled WCET even when the event changed a single
// number. This builder keeps the composite *live* and applies event
// deltas instead:
//
//   Reprioritize   → coefficient patch: rewrite the affected pipeline's
//                    scaled WCETs in place (structure untouched)
//   ResizePlatform → constraint-RHS patch: swap the platform object
//                    (kernel set untouched)
//   Add/Remove     → structural edit: append the pipeline's kernel
//                    range, or splice it out
//
// The maintained problem is bit-identical to what the wholesale rebuild
// would produce — kernel order is concatenation order of the live
// pipelines, scaled WCETs are computed from the same base numbers with
// the same expression. That identity is what makes a patched composite
// solve to exactly the bytes a rebuilt one would.
//
// The server checks each event before its delta (validate_pipeline,
// Platform::validate), so a delta is never undone: every composite is
// valid by construction, though it may be infeasible.
//
// The builder owns the live problem *by value* — the numeric deltas
// above write doubles (or move-assign the platform) into memory nobody
// else can see, so they are allocation-free by construction
// (tests/composite_alloc_test.cpp counts them). snapshot()
// hands out an immutable shared copy, so a held snapshot never changes
// under later deltas.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "core/problem.hpp"
#include "service/event.hpp"
#include "support/status.hpp"

namespace mfa::service {

/// Composite-problem knobs fixed for the builder's lifetime (the
/// pool-wide objective and the swept resource fractions; individual
/// pipelines only carry weights).
struct CompositeConfig {
  double resource_fraction = 1.0;
  double bw_fraction = 1.0;
  double alpha = 1.0;
  double beta = 0.0;
};

class CompositeBuilder {
 public:
  CompositeBuilder(core::Platform platform, const CompositeConfig& config);

  /// core::validate_kernel over the scaled copy of every kernel `pipe`
  /// would contribute at priority `weight`, so an error names it
  /// "<id>/<kernel>" as the composite would.
  [[nodiscard]] static Status validate_pipeline(const PipelineSpec& pipe,
                                                double weight);

  // ---- Delta operations. Pipeline indices address the server's live
  // list; kernel order in the composite is always the concatenation
  // order of that list. ------------------------------------------------

  /// Appends `pipe`'s kernels (scaled by its weight) at the end.
  void add_pipeline(const PipelineSpec& pipe);

  /// Splices pipeline `index`'s kernel range out.
  void remove_pipeline(std::size_t index);

  /// Rewrites pipeline `index`'s scaled WCETs from `pipe` (which carries
  /// the new weight). Coefficient-only: names, order and every other
  /// kernel field stay untouched — plain double stores, no allocation.
  void reprioritize(std::size_t index, const PipelineSpec& pipe);

  /// Swaps the platform. RHS-only: the kernel set stays untouched; the
  /// incoming platform is move-assigned, so no allocation either.
  void resize_platform(core::Platform platform);

  // ---- Observers. ----------------------------------------------------

  [[nodiscard]] std::size_t num_pipelines() const { return ranges_.size(); }
  [[nodiscard]] bool empty() const { return ranges_.empty(); }
  [[nodiscard]] const core::Platform& platform() const {
    return problem_.platform;
  }

  /// Immutable shared copy of the current composite, byte-identical to
  /// the live problem at the time of the call.
  [[nodiscard]] std::shared_ptr<const core::Problem> snapshot() const;

 private:
  /// Kernel range [begin, begin + count) of one live pipeline.
  struct Range {
    std::size_t begin = 0;
    std::size_t count = 0;
  };

  /// The live composite, owned by value: deltas mutate it freely.
  core::Problem problem_;
  std::vector<Range> ranges_;  ///< parallel to the server's live list
};

}  // namespace mfa::service
