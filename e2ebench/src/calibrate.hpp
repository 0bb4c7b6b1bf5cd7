// Host-speed calibration.
//
// On a shared VM the host runs the same code at a speed that drifts over
// minutes (on a 4-vCPU VM a fixed loop took 103-132 ms per 10 s window,
// with its CPU time equal to its wall time, so nothing was preempted: the
// vCPU itself ran slower). That drift moves every timing of a run
// together, and it is most of the spread between runs.
//
// The benchmark therefore times a fixed job of its own, which calls
// nothing of mfalloc, right before and right after each timed stretch,
// and reports the stretch in reference-host time:
//
//   normalized = wall × kReferenceCalibrationS / mean(before, after)
//
// A change to mfalloc moves the wall time and not the calibration, so it
// moves the normalized time by the same share. The job is built in its own
// library with fixed flags (see CMakeLists.txt), so a change to the
// repository's build flags does not move it either.
#pragma once

namespace e2e {

/// Median time of one calibration job on the reference host (4-vCPU VM,
/// Intel Xeon at 2.0 GHz). It only scales the normalized numbers.
constexpr double kReferenceCalibrationS = 0.060;

/// Runs the fixed job once and returns its wall time in seconds.
double calibrate();

/// The factor that turns wall time between calibrations that took
/// `before_s` and `after_s` into reference-host time.
double host_factor(double before_s, double after_s);

}  // namespace e2e
