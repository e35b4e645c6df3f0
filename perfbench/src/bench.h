// Shared types of the end-to-end benchmark: run configuration, the
// result every workload fills in, and the small statistics and digest
// helpers the workloads share.

#ifndef HDLDP_PERFBENCH_BENCH_H_
#define HDLDP_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Workload sizes. kFull is what the benchmark measures; kTiny runs the
/// same code paths in well under a second for the self-test.
enum class Scale { kFull, kTiny };

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Scale scale = Scale::kFull;
  /// Engine threads of the mean workloads (0 = the workload's default).
  std::size_t threads = 0;
  /// Scratch directory for snapshot files (inside the checkout).
  std::string work_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Observations the value summarizes (1 for a single measurement).
  std::size_t samples = 1;
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Human-readable reasons for every failed check.
  std::vector<std::string> errors;
  std::vector<Metric> metrics;
  /// Digest of the published outputs (estimate bits, window bits); equal
  /// digests mean bit-identical outputs.
  std::string digest;
  /// Spans of the traced run, written out when the run ends.
  std::vector<SpanRecord> spans;

  void Add(std::string name, double value, std::string unit,
           std::size_t samples = 1) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
  /// Records one failed operation or output check.
  void Fail(std::string why) {
    ++failed;
    errors.push_back(std::move(why));
  }
};

/// Whether the next of `total` set-ups spread evenly over a run of
/// `seconds` is due, `done` having run and `elapsed` seconds gone: set-up
/// j (from 0) is due once j/total of the run has passed.
inline bool SetUpDue(std::size_t done, std::size_t total, double elapsed,
                     double seconds) {
  return done < total && elapsed >= seconds * static_cast<double>(done) /
                                         static_cast<double>(total);
}

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);
/// Nearest-rank quantile q in [0, 1] of `values` (0 when empty).
double Quantile(std::vector<double> values, double q);
/// Arithmetic mean (0 when empty).
double Mean(std::span<const double> values);
/// Peak resident set size of this process so far, MiB.
double PeakRssMb();

/// FNV-1a over the exact bits of what is fed in.
class Digest {
 public:
  void AddU64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ = (hash_ ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
    }
  }
  void AddDouble(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    AddU64(bits);
  }
  void AddDoubles(std::span<const double> vs) {
    for (const double v : vs) AddDouble(v);
  }
  void AddBytes(std::span<const std::uint8_t> bytes) {
    for (const std::uint8_t b : bytes) hash_ = (hash_ ^ b) * 0x100000001b3ULL;
  }
  std::string Hex() const;

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

RunResult RunMeanWorkload(const RunConfig& config);
RunResult RunServeWorkload(const RunConfig& config);

}  // namespace perfbench

#endif  // HDLDP_PERFBENCH_BENCH_H_
