//===- Metrics.cpp - Percentile rule, metric names, result JSON -----------===//

#include "Metrics.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>

using namespace perfbench;

size_t perfbench::samplesBeyond(size_t Samples, double P) {
  if (Samples == 0)
    return 0;
  // Nearest rank: the value at 1-based rank ceil(P/100 * n). The tiny
  // epsilon keeps exact products (90% of 100) from rounding up a rank.
  double Rank = std::ceil(P / 100.0 * static_cast<double>(Samples) - 1e-9);
  size_t R = static_cast<size_t>(std::max(1.0, Rank));
  return Samples - std::min(R, Samples);
}

PercentileChoice perfbench::highestPercentile(size_t Samples) {
  PercentileChoice C;
  C.Samples = Samples;
  for (double P : {99.9, 99.0, 90.0, 50.0}) {
    size_t Beyond = samplesBeyond(Samples, P);
    if (Beyond >= MinBeyond) {
      C.Percentile = P;
      C.Beyond = Beyond;
      C.Valid = true;
      return C;
    }
  }
  return C;
}

double perfbench::percentile(std::vector<double> Values, double P) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  size_t Beyond = samplesBeyond(Values.size(), P);
  return Values[Values.size() - Beyond - 1];
}

double perfbench::median(std::vector<double> Values) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  size_t N = Values.size();
  return N % 2 ? Values[N / 2] : 0.5 * (Values[N / 2 - 1] + Values[N / 2]);
}

bool perfbench::isMetricName(const std::string &Name) {
  if (Name.empty() || Name.size() > 64 ||
      !std::isalnum(static_cast<unsigned char>(Name[0])))
    return false;
  for (char C : Name)
    if (!std::isalnum(static_cast<unsigned char>(C)) && C != '_' &&
        C != '.' && C != '-')
      return false;
  return true;
}

namespace {

bool isUnit(const std::string &Unit) {
  if (Unit.empty() || Unit.size() > 16)
    return false;
  for (char C : Unit)
    if (!std::isalnum(static_cast<unsigned char>(C)) && C != '_' &&
        C != '/' && C != '%' && C != '.' && C != '-')
      return false;
  return true;
}

} // namespace

std::string perfbench::resultJson(bool Correct, long Attempted, long Failed,
                                  const std::vector<Metric> &Metrics) {
  std::string Out = "{\"correct\": ";
  Out += Correct ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(Attempted);
  Out += ", \"failed\": " + std::to_string(Failed);
  Out += ", \"metrics\": {";
  for (size_t I = 0; I < Metrics.size(); ++I) {
    const Metric &M = Metrics[I];
    if (!isMetricName(M.Name) || !isUnit(M.Unit) || !std::isfinite(M.Value))
      return std::string();
    char Num[64];
    std::snprintf(Num, sizeof(Num), "%.17g", M.Value);
    Out += I ? ", \"" : "\"";
    Out += M.Name + "\": {\"value\": " + Num + ", \"unit\": \"" + M.Unit +
           "\"}";
  }
  Out += "}}";
  return Out;
}

int perfbench::runSelfTest() {
  int Failures = 0;
  auto Expect = [&](bool Ok, const char *What) {
    if (!Ok) {
      std::fprintf(stderr, "selftest: FAILED: %s\n", What);
      ++Failures;
    }
  };

  // Percentile rule: the highest percentile with >= 10 samples beyond it.
  Expect(!highestPercentile(19).Valid, "19 samples support no percentile");
  Expect(highestPercentile(20).Percentile == 50.0, "20 samples -> p50");
  Expect(highestPercentile(99).Percentile == 50.0, "99 samples -> p50");
  Expect(highestPercentile(100).Percentile == 90.0, "100 samples -> p90");
  Expect(highestPercentile(100).Beyond == 10, "p90 of 100 has 10 beyond");
  Expect(highestPercentile(110).Beyond == 11, "p90 of 110 has 11 beyond");
  Expect(highestPercentile(999).Percentile == 90.0, "999 samples -> p90");
  Expect(highestPercentile(1000).Percentile == 99.0, "1000 samples -> p99");
  Expect(highestPercentile(10000).Percentile == 99.9, "10000 -> p99.9");
  Expect(highestPercentile(240).Samples == 240, "sample count reported");

  std::vector<double> Ramp;
  for (int I = 1; I <= 100; ++I)
    Ramp.push_back(I);
  Expect(percentile(Ramp, 90.0) == 90.0, "p90 of 1..100 is 90");
  Expect(percentile(Ramp, 50.0) == 50.0, "p50 of 1..100 is 50");
  Expect(median({3.0, 1.0, 2.0}) == 2.0, "odd median");
  Expect(median({4.0, 1.0, 2.0, 3.0}) == 2.5, "even median");

  // Metric names: letters, digits, '_', '.', '-'; leading alnum.
  Expect(isMetricName("verdict_p90_ms"), "plain name accepted");
  Expect(isMetricName("abstract.affine_s"), "dotted name accepted");
  Expect(isMetricName("9lives-x"), "leading digit accepted");
  Expect(!isMetricName(""), "empty name refused");
  Expect(!isMetricName("_x"), "leading underscore refused");
  Expect(!isMetricName("a b"), "space refused");
  Expect(!isMetricName("a/b"), "slash refused");
  Expect(!isMetricName("a\"b"), "quote refused");
  Expect(!isMetricName(std::string(65, 'a')), "65 characters refused");

  // The writer refuses what the contract cannot carry.
  Expect(resultJson(true, 1, 0, {{"ok", 1.0, "s", ""}}) ==
             "{\"correct\": true, \"attempted\": 1, \"failed\": 0, "
             "\"metrics\": {\"ok\": {\"value\": 1, \"unit\": \"s\"}}}",
         "result JSON layout");
  Expect(resultJson(true, 1, 0, {{"bad name", 1.0, "s", ""}}).empty(),
         "malformed name refused by the writer");
  Expect(resultJson(true, 1, 0, {{"x", NAN, "s", ""}}).empty(),
         "non-finite value refused by the writer");
  return Failures;
}
