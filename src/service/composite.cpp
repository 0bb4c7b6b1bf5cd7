#include "service/composite.hpp"

#include <utility>

#include "support/assert.hpp"

namespace mfa::service {
namespace {

/// One composite kernel of `pipe` at priority `weight`: name-spaced and
/// weight-scaled exactly like the wholesale compose always did, so the
/// incremental composite is bit-identical to a from-scratch rebuild.
core::Kernel scaled_kernel(const PipelineSpec& pipe, const core::Kernel& k,
                           double weight) {
  core::Kernel scaled = k;
  scaled.name = pipe.id + "/" + k.name;
  // Priority enters through the effective WCET: minimizing
  // max_k weight·WCET_k/N_k pulls CUs toward heavy pipelines.
  scaled.wcet_ms = k.wcet_ms * weight;
  return scaled;
}

}  // namespace

CompositeBuilder::CompositeBuilder(core::Platform platform,
                                   const CompositeConfig& config) {
  problem_.app.name = "composite";
  problem_.platform = std::move(platform);
  problem_.resource_fraction = config.resource_fraction;
  problem_.bw_fraction = config.bw_fraction;
  problem_.alpha = config.alpha;
  problem_.beta = config.beta;
}

Status CompositeBuilder::validate_pipeline(const PipelineSpec& pipe,
                                           double weight) {
  for (const core::Kernel& k : pipe.app.kernels) {
    if (Status valid = core::validate_kernel(scaled_kernel(pipe, k, weight));
        !valid.is_ok()) {
      return valid;
    }
  }
  return Status::ok();
}

void CompositeBuilder::add_pipeline(const PipelineSpec& pipe) {
  const std::size_t begin = problem_.app.kernels.size();
  for (const core::Kernel& k : pipe.app.kernels) {
    problem_.app.kernels.push_back(scaled_kernel(pipe, k, pipe.weight));
  }
  ranges_.push_back(Range{begin, pipe.app.kernels.size()});
}

void CompositeBuilder::remove_pipeline(std::size_t index) {
  MFA_ASSERT(index < ranges_.size());
  const Range r = ranges_[index];
  auto first = problem_.app.kernels.begin() +
               static_cast<std::ptrdiff_t>(r.begin);
  problem_.app.kernels.erase(first,
                             first + static_cast<std::ptrdiff_t>(r.count));
  ranges_.erase(ranges_.begin() + static_cast<std::ptrdiff_t>(index));
  for (std::size_t i = index; i < ranges_.size(); ++i) {
    ranges_[i].begin -= r.count;
  }
}

void CompositeBuilder::reprioritize(std::size_t index,
                                    const PipelineSpec& pipe) {
  MFA_ASSERT(index < ranges_.size());
  MFA_ASSERT_MSG(ranges_[index].count == pipe.app.kernels.size(),
                 "reprioritize spec shape drifted from the composite");
  const Range r = ranges_[index];
  // Always rescale from the pipeline's *base* WCETs — never compound on
  // the previous scale — so the value matches a from-scratch compose
  // bit-for-bit after any number of weight changes. The builder owns
  // problem_ by value, so these are plain double stores: no snapshot
  // aliases the live problem (snapshot() copies it).
  for (std::size_t i = 0; i < r.count; ++i) {
    problem_.app.kernels[r.begin + i].wcet_ms =
        pipe.app.kernels[i].wcet_ms * pipe.weight;
  }
}

void CompositeBuilder::resize_platform(core::Platform platform) {
  problem_.platform = std::move(platform);
}

std::shared_ptr<const core::Problem> CompositeBuilder::snapshot() const {
  return std::make_shared<const core::Problem>(problem_);
}

}  // namespace mfa::service
