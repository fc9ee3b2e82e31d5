//===- Metrics.h - Percentile rule, metric names, result JSON ---*- C++ -*-===//
//
// Part of the Charon end-to-end benchmark (perfbench/).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reporting rules every workload shares: which tail percentile a
/// sample count supports, how metric names are spelled, and the one-line
/// result object the benchmark prints last.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_METRICS_H
#define PERFBENCH_METRICS_H

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// The highest percentile that leaves at least MinBeyond samples beyond it,
/// chosen from {99.9, 99, 90, 50}. Valid is false when even the median has
/// fewer than MinBeyond samples above it.
struct PercentileChoice {
  double Percentile = 0.0;
  size_t Samples = 0;
  size_t Beyond = 0; ///< samples strictly above the nearest-rank position
  bool Valid = false;
};

inline constexpr size_t MinBeyond = 10;

/// Applies the percentile rule to \p Samples samples.
PercentileChoice highestPercentile(size_t Samples);

/// Samples beyond the nearest-rank position of percentile \p P.
size_t samplesBeyond(size_t Samples, double P);

/// Nearest-rank percentile of \p Values (0 for an empty set).
double percentile(std::vector<double> Values, double P);

/// Median (mean of the middle two for an even count; 0 for empty).
double median(std::vector<double> Values);

/// True when \p Name is 1-64 characters of letters, digits, '_', '.', '-'
/// and starts with a letter or digit.
bool isMetricName(const std::string &Name);

/// One reported metric. Samples is what the value was computed from (for
/// the human-readable table; the JSON line carries value and unit only).
struct Metric {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
  std::string Samples;
};

/// The result object: {"correct","attempted","failed","metrics"}. Returns
/// an empty string when a name is malformed or a value is not finite.
std::string resultJson(bool Correct, long Attempted, long Failed,
                       const std::vector<Metric> &Metrics);

/// Checks the percentile rule, the name rule and the JSON writer; returns
/// the number of failed checks after printing each failure to stderr.
int runSelfTest();

} // namespace perfbench

#endif // PERFBENCH_METRICS_H
