#include "calibrate.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <vector>

namespace e2e {
namespace {

/// Keeps the job's result alive, so the compiler cannot drop the work.
volatile double sink = 0.0;

std::uint64_t next(std::uint64_t& state) {
  state = state * 6364136223846793005ULL + 1442695040888963407ULL;
  return state >> 17;
}

/// The solvers' kind of work in three parts: branchy comparisons on a
/// cache-resident array, dependent loads from a table larger than L1, and
/// a floating-point chain with division and square roots. In slow phases
/// of the host the loads slow most (up to 2x), the other parts 6-21%;
/// the mix tracks a sweep pass better than any one part (README.md).
double job() {
  constexpr int kRounds = 20;
  std::uint64_t state = 20190702;
  std::vector<double> keys(1 << 13);
  std::vector<std::uint32_t> table(1 << 18);
  double acc = 0.0;
  for (int round = 0; round < kRounds; ++round) {
    for (double& k : keys) k = static_cast<double>(next(state) & 0xfffff);
    std::sort(keys.begin(), keys.end());
    acc += keys[keys.size() / 2];

    std::uint32_t at = static_cast<std::uint32_t>(round);
    for (int i = 0; i < (1 << 17); ++i) {
      at = (table[at] + at * 2654435761u + 1u) & (table.size() - 1);
      table[at] += static_cast<std::uint32_t>(i);
    }
    acc += at;

    double x = 1.0 + round;
    for (int i = 0; i < (1 << 16); ++i) {
      x = std::sqrt(x * 1.000001 + 0.5) / 0.999999 + 1e-9 * i;
    }
    acc += x;
  }
  return acc;
}

}  // namespace

double calibrate() {
  const auto t0 = std::chrono::steady_clock::now();
  sink = sink + job();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double host_factor(double before_s, double after_s) {
  const double mean_s = 0.5 * (before_s + after_s);
  return mean_s > 0.0 ? kReferenceCalibrationS / mean_s : 1.0;
}

}  // namespace e2e
