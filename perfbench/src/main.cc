// hdldp_perfbench: end-to-end benchmark of the batch mean path and the
// aggregation service. Normally driven by perfbench/run.py, which builds
// it; see perfbench/README.md for the workloads and metrics.
//
//   hdldp_perfbench --workload=<name> --seed=<n> --seconds=<s>
//                   --trace=<0|1> --work-dir=<dir> [--trace-out=<file>]
//                   [--scale=full|tiny] [--threads=<n>]
//
// Prints one line per metric (name, value, unit, sample count), the
// host/build stamp and the output digest, then as its last line one
// JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace=0, the per-layer metrics with
// --trace=1. Refuses full-scale runs from a non-Release or sanitizer
// build.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/rng_lanes.h"
#include "trace.h"

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Mean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

std::string Digest::Hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(hash_));
  return buf;
}

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (the self-test checks both ways).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"reports_per_s", "1/s"},
    {"publish_p50_ms", "ms"},  {"peak_rss_mb", "MB"},
    {"mse_naive", "1"},
};

constexpr MetricSpec kPerLayer[] = {
    {"data.true_mean_s", "s"},
    {"data.chunk_busy_s", "s"},
    {"data.chunk_pulls", "count"},
    {"data.values_per_s", "1/s"},
    {"data.materialize_s", "s"},
    {"protocol.run_mean_s", "s"},
    {"engine.ingest_self_s", "s"},
    {"engine.entries", "count"},
    {"engine.entries_per_s", "1/s"},
    {"mech.lanes_entries_per_s", "1/s"},
    {"framework.model_s", "s"},
    {"framework.model_calls", "count"},
    {"hdr4me.recalibrate_s", "s"},
    {"service.advance_s", "s"},
    {"service.advances", "count"},
    {"service.submit_s", "s"},
    {"service.submit_p99_us", "us"},
    {"service.snapshot_s", "s"},
    {"service.snapshot_bytes", "B"},
    {"service.snapshots", "count"},
    {"service.drain_s", "s"},
    {"service.accepted", "count"},
    {"service.shed", "count"},
    {"service.rejected", "count"},
    {"service.accept_ratio", "ratio"},
    {"protocol.envelope_decode_per_s", "1/s"},
    {"service.payload_decode_per_s", "1/s"},
    {"trace.overhead_frac", "ratio"},
};

bool IsBuildFitForNumbers() {
  return std::string(HDLDP_PERFBENCH_BUILD_TYPE) == "Release" &&
         !HDLDP_PERFBENCH_SANITIZED;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "hdldp_perfbench: %s\nusage: hdldp_perfbench --workload=<w> "
               "--seed=<n> --seconds=<s> --trace=<0|1> --work-dir=<dir> "
               "[--trace-out=<file>] [--scale=full|tiny] [--threads=<n>]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      return Usage(("expected --key=value, got " + arg).c_str());
    }
    args[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
  }
  RunConfig config;
  config.workload = args["workload"];
  config.seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  config.seconds = std::atof(args["seconds"].c_str());
  config.trace = args["trace"] == "1";
  config.scale = args["scale"] == "tiny" ? Scale::kTiny : Scale::kFull;
  config.threads = static_cast<std::size_t>(std::atoi(args["threads"].c_str()));
  config.work_dir = args["work-dir"];
  const std::string trace_out = args["trace-out"];
  for (const auto& [key, value] : args) {
    static const char* kKnown[] = {"workload", "seed",     "seconds",
                                   "trace",    "scale",    "threads",
                                   "work-dir", "trace-out"};
    if (std::none_of(std::begin(kKnown), std::end(kKnown),
                     [&](const char* k) { return key == k; })) {
      return Usage(("unknown flag --" + key).c_str());
    }
  }
  if (config.work_dir.empty()) return Usage("--work-dir is required");
  if (!(config.seconds > 0)) return Usage("--seconds must be positive");
  // Tiny-scale runs only exercise the code paths (the self-test, also
  // under sanitizers); they never produce benchmark numbers.
  if (!IsBuildFitForNumbers() && config.scale != Scale::kTiny) {
    std::fprintf(stderr,
                 "hdldp_perfbench: refusing to report numbers from a %s%s "
                 "build; configure with -DCMAKE_BUILD_TYPE=Release and no "
                 "sanitizer\n",
                 HDLDP_PERFBENCH_BUILD_TYPE,
                 HDLDP_PERFBENCH_SANITIZED ? " sanitizer" : "");
    return 3;
  }

  RunResult result;
  if (config.workload == "mean-highdim" || config.workload == "mean-dense") {
    result = RunMeanWorkload(config);
  } else if (config.workload == "serve-1w" ||
             config.workload == "serve-3w-snap") {
    result = RunServeWorkload(config);
  } else {
    return Usage(("unknown workload '" + config.workload + "'").c_str());
  }

  // Every layer metric is reported on every workload; a layer the
  // workload never calls reads 0.
  if (config.trace) {
    for (const MetricSpec& m : kPerLayer) {
      const bool present = std::any_of(
          result.metrics.begin(), result.metrics.end(),
          [&](const Metric& x) { return x.name == m.name; });
      if (!present) result.Add(m.name, 0.0, m.unit, 0);
    }
  }
  if (result.attempted > 0) {
    result.Add("error_rate",
               static_cast<double>(result.failed) /
                   static_cast<double>(result.attempted),
               "ratio", result.attempted);
  }
  for (const Metric& m : result.metrics) {
    std::printf("metric %-32s %16.9g %-6s n=%zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  for (const std::string& e : result.errors) {
    std::printf("error %s\n", e.c_str());
  }
  std::printf("host nproc=%u cpu=\"%s\" compiler=\"%s\" build=%s simd=%s\n",
              std::thread::hardware_concurrency(), CpuModel().c_str(),
              HDLDP_PERFBENCH_COMPILER, HDLDP_PERFBENCH_BUILD_TYPE,
              hdldp::RngLanes::kSimdEnabled ? "avx2" : "scalar");
  std::printf("digest %s\n", result.digest.c_str());
  if (config.trace && !trace_out.empty()) {
    std::remove(trace_out.c_str());
    if (!AppendSpans(trace_out, result.spans)) {
      result.Fail("could not write the span file " + trace_out);
    } else {
      std::printf("spans %zu written to %s\n", result.spans.size(),
                  trace_out.c_str());
    }
  }

  // The JSON metric set is exactly the mode's list, so a metric a
  // workload failed to produce makes the run incorrect, never absent.
  std::string metrics_json;
  bool complete = true;
  const auto emit = [&](const MetricSpec& spec) {
    const auto it = std::find_if(
        result.metrics.begin(), result.metrics.end(),
        [&](const Metric& x) { return x.name == spec.name; });
    if (it == result.metrics.end() || !std::isfinite(it->value)) {
      complete = false;
      return;
    }
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics_json.empty() ? "" : ", ", spec.name, it->value,
                  spec.unit);
    metrics_json += buf;
  };
  if (config.trace) {
    for (const MetricSpec& m : kPerLayer) emit(m);
  } else {
    for (const MetricSpec& m : kEndToEnd) emit(m);
  }
  if (!complete) result.Fail("a metric is missing or not finite");
  const bool correct = result.failed == 0 && result.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(
                  result.attempted, 1)),
              static_cast<unsigned long long>(result.failed),
              metrics_json.c_str());
  return 0;
}
