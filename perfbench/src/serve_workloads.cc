// The aggregation-service workloads: a pre-encoded numeric report stream
// (d=16, m=4, 4096 tenants, 2000 ticks, width-2 tumbling windows, so
// every other watermark advance publishes) fed by one producer thread in
// a closed loop: per tick, Submit that tick's reports, then
// AdvanceWatermark; Drain at the end.
//
//   serve-1w       one worker, block mode: per-report decode / dedup /
//                  buffer and seal / fold cost without queue contention.
//   serve-3w-snap  three workers plus the producer on four cores and a
//                  SaveSnapshot every 2% of the stream: queue handoff,
//                  group-mutex contention and snapshot writes beside
//                  ingest.
//
// The stream is generated and encoded once per set-up into one
// contiguous byte arena with an offset table, so the timed region
// contains only service calls. Each pass runs the whole stream through
// a fresh service; published windows must be bit-identical across passes
// and across worker counts.
//
// Thread placement is fixed: the producer runs on one CPU and the
// service's workers on the others. Left to the scheduler, a worker
// sometimes lands on the producer's CPU and stays there for the whole
// process; that placement hands reports off without crossing cores and
// ran about twice as fast (1.3-1.8M vs 0.8-0.95M reports/s for one
// worker on a 4-vCPU VM), so unpinned processes fell into one of two
// modes at random.

#include <pthread.h>
#include <sched.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "protocol/wire.h"
#include "service/aggregation_service.h"
#include "service/report_stream.h"
#include "trace.h"

namespace perfbench {
namespace {

using hdldp::Result;
using hdldp::Status;
namespace service = hdldp::service;

struct ServeSpec {
  std::size_t workers = 1;
  // Snapshot every this many reports (0 = no snapshots).
  std::uint64_t snapshot_every = 0;
  std::uint64_t reports = 0;
  std::uint64_t ticks = 0;
  std::uint64_t tenants = 0;
  std::size_t setups = 1;
  // Worker count of the untimed invariance pass.
  std::size_t check_workers = 1;
};

ServeSpec SpecFor(const RunConfig& config) {
  const bool tiny = config.scale == Scale::kTiny;
  ServeSpec spec;
  spec.reports = tiny ? 20'000 : 1'000'000;
  spec.ticks = tiny ? 40 : 2000;
  spec.tenants = tiny ? 256 : 4096;
  spec.setups = tiny ? 2 : 8;
  if (config.workload == "serve-3w-snap") {
    spec.workers = 3;
    spec.snapshot_every = spec.reports / 50;
    spec.check_workers = 1;
  } else {
    spec.workers = 1;
    spec.check_workers = 3;
  }
  return spec;
}

// The whole stream as one byte arena: envelope i is
// arena[offsets[i], offsets[i + 1]).
struct EncodedStream {
  std::vector<std::uint8_t> arena;
  std::vector<std::size_t> offsets;
  service::ServiceOptions service_options;

  std::span<const std::uint8_t> Envelope(std::size_t i) const {
    return {arena.data() + offsets[i], offsets[i + 1] - offsets[i]};
  }
  std::size_t size() const { return offsets.size() - 1; }
};

Result<EncodedStream> EncodeStream(const ServeSpec& spec, std::uint64_t seed) {
  service::ReportStreamOptions options;
  options.workload = service::StreamWorkload::kMean;
  options.num_reports = spec.reports;
  options.num_dims = 16;
  options.report_dims = 4;
  options.num_tenants = spec.tenants;
  options.seed = seed;
  options.reports_per_tick = spec.reports / spec.ticks;
  HDLDP_ASSIGN_OR_RETURN(service::ReportStream stream,
                         service::ReportStream::Create(options));
  EncodedStream out;
  out.arena.reserve(spec.reports * 64);
  out.offsets.reserve(spec.reports + 1);
  out.offsets.push_back(0);
  std::vector<std::uint8_t> envelope;
  for (;;) {
    bool done = false;
    HDLDP_RETURN_NOT_OK(stream.Next(&envelope, &done));
    if (done) break;
    out.arena.insert(out.arena.end(), envelope.begin(), envelope.end());
    out.offsets.push_back(out.arena.size());
  }
  if (out.size() != spec.reports) {
    return Status::Internal("stream emitted an unexpected report count");
  }
  service::ServiceOptions& o = out.service_options;
  o.num_dims = stream.service_dims();
  o.domain_map = stream.domain_map();
  o.expected_entries = stream.expected_entries();
  o.output_lo = stream.output_lo();
  o.output_hi = stream.output_hi();
  o.codec = stream.CodecOptions();
  o.window.width = 2;
  o.overload = service::OverloadPolicy::kBlock;
  o.queue_capacity = 4096;
  o.digest_tag = "perfbench";
  return out;
}

struct Pass {
  double seconds = 0.0;
  std::vector<double> publish_s;
  std::vector<double> submit_s;  // per Submit call, traced passes only
  std::vector<double> snapshot_bytes;
  service::ServiceStats stats;
  std::string digest;
  std::size_t windows = 0;
  double mse = 0.0;
  std::vector<SpanRecord> spans;
};

// Producer/worker CPU split over the CPUs this process may use, for the
// calling thread's lifetime of this object; the destructor restores the
// original mask. With a single CPU nothing is pinned.
class Placement {
 public:
  Placement() {
    CPU_ZERO(&all_);
    CPU_ZERO(&producer_);
    CPU_ZERO(&workers_);
    if (pthread_getaffinity_np(pthread_self(), sizeof all_, &all_) != 0) return;
    int first = -1;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &all_)) continue;
      if (first < 0) {
        first = cpu;
        CPU_SET(cpu, &producer_);
      } else {
        CPU_SET(cpu, &workers_);
        enabled_ = true;
      }
    }
  }
  // Threads inherit their creator's affinity: call before creating the
  // service, then PinProducer() before feeding it.
  void PinWorkers() const { Set(workers_); }
  void PinProducer() const { Set(producer_); }
  ~Placement() { Set(all_); }
  Placement(const Placement&) = delete;
  Placement& operator=(const Placement&) = delete;

 private:
  void Set(const cpu_set_t& set) const {
    if (enabled_) pthread_setaffinity_np(pthread_self(), sizeof set, &set);
  }

  cpu_set_t all_;
  cpu_set_t producer_;
  cpu_set_t workers_;
  bool enabled_ = false;
};

std::uint64_t FileSize(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<std::uint64_t>(st.st_size)
                                        : 0;
}

// One pass of the whole stream through a fresh service.
Status RunPass(const EncodedStream& stream, const ServeSpec& spec,
               std::size_t workers, std::uint64_t snapshot_every,
               const std::string& checkpoint, bool traced, Pass* pass) {
  service::ServiceOptions options = stream.service_options;
  options.num_workers = workers;
  if (snapshot_every > 0) {
    options.checkpoint_path = checkpoint;
    std::remove(checkpoint.c_str());
  }
  const Placement placement;
  placement.PinWorkers();
  auto svc_or = service::AggregationService::Create(options);
  placement.PinProducer();
  HDLDP_ASSIGN_OR_RETURN(std::unique_ptr<service::AggregationService> svc,
                         std::move(svc_or));
  Tracer& tracer = Tracer::Get();
  tracer.SetEnabled(traced);
  const std::uint64_t per_tick = spec.reports / spec.ticks;
  std::uint64_t published = 0;
  std::uint64_t snapshot_size = 0;
  Status failure = Status::OK();
  const Clock::time_point begin = Clock::now();
  for (std::uint64_t tick = 0; tick < spec.ticks && failure.ok(); ++tick) {
    tracer.SetRequest(tick);
    {
      const Span span("service.submit");
      for (std::uint64_t i = tick * per_tick; i < (tick + 1) * per_tick; ++i) {
        Status status;
        if (traced) {
          const Clock::time_point a = Clock::now();
          status = svc->Submit(stream.Envelope(i));
          pass->submit_s.push_back(SecondsBetween(a, Clock::now()));
        } else {
          status = svc->Submit(stream.Envelope(i));
        }
        if (!status.ok()) {
          failure = status;
          break;
        }
        if (snapshot_every > 0 && (i + 1) % snapshot_every == 0) {
          failure = Traced("service.snapshot",
                           [&] { return svc->SaveSnapshot(i + 1); });
          if (!failure.ok()) break;
          const std::uint64_t size = FileSize(checkpoint);
          pass->snapshot_bytes.push_back(
              static_cast<double>(size - snapshot_size));
          snapshot_size = size;
        }
      }
    }
    if (!failure.ok()) break;
    const Clock::time_point a = Clock::now();
    failure = Traced("service.advance",
                     [&] { return svc->AdvanceWatermark(tick + 1); });
    const Clock::time_point b = Clock::now();
    const std::uint64_t now_published = svc->Stats().published_windows;
    if (now_published > published) {
      pass->publish_s.push_back(SecondsBetween(a, b));
    }
    published = now_published;
  }
  if (failure.ok()) {
    failure = Traced("service.drain", [&] { return svc->Drain(); });
  }
  pass->seconds = SecondsBetween(begin, Clock::now());
  tracer.SetEnabled(false);
  pass->spans = tracer.Take();
  HDLDP_RETURN_NOT_OK(failure);

  HDLDP_RETURN_NOT_OK(svc->VerifyReconciliation());
  pass->stats = svc->Stats();
  if (pass->stats.accepted != pass->stats.submitted ||
      pass->stats.submitted != spec.reports) {
    return Status::Internal("accepted " + std::to_string(pass->stats.accepted) +
                            " of " + std::to_string(spec.reports) +
                            " submitted reports in block mode");
  }
  Digest digest;
  double mse_sum = 0.0;
  const std::vector<service::PublishedWindow> windows = svc->PublishedWindows();
  for (const service::PublishedWindow& w : windows) {
    digest.AddU64(w.index);
    digest.AddU64(w.report_count);
    digest.AddDoubles(w.estimate);
    // The stream's tuples are uniform on [-1, 1]: population mean 0.
    double sq = 0.0;
    for (const double v : w.estimate) sq += v * v;
    mse_sum += sq / static_cast<double>(w.estimate.size());
  }
  pass->digest = digest.Hex();
  pass->windows = windows.size();
  pass->mse = windows.empty() ? 0.0
                              : mse_sum / static_cast<double>(windows.size());
  if (snapshot_every > 0) HDLDP_RETURN_NOT_OK(svc->Finish());
  return Status::OK();
}

// Calibration: `decode` over every envelope of the stream, calls/s.
template <typename F>
double DecodeRate(std::size_t count, F&& decode) {
  std::vector<double> rates;
  for (int rep = 0; rep < 3; ++rep) {
    const Clock::time_point a = Clock::now();
    for (std::size_t i = 0; i < count; ++i) decode(i);
    rates.push_back(static_cast<double>(count) /
                    SecondsBetween(a, Clock::now()));
  }
  return Median(rates);
}

}  // namespace

RunResult RunServeWorkload(const RunConfig& config) {
  RunResult result;
  const ServeSpec spec = SpecFor(config);
  const std::string checkpoint =
      config.work_dir + "/serve-" + std::to_string(::getpid()) + ".snap";

  // Set-up: generate and pre-encode the stream. It is repeated at even
  // points of the run, so setup_s (their median) samples the whole run
  // and not only its first seconds; every repeat must encode the same
  // bytes.
  EncodedStream stream;
  std::vector<double> setup_s;
  std::string stream_digest;
  const auto set_up = [&]() -> bool {
    stream = EncodedStream();  // Free the previous copy before the next.
    ++result.attempted;
    const Clock::time_point a = Clock::now();
    auto stream_or = EncodeStream(spec, config.seed);
    if (!stream_or.ok()) {
      result.Fail("set-up: " + stream_or.status().ToString());
      return false;
    }
    stream = std::move(*stream_or);
    setup_s.push_back(SecondsBetween(a, Clock::now()));
    std::printf("setup %zu s=%.6f\n", setup_s.size() - 1, setup_s.back());
    Digest digest;
    digest.AddBytes(stream.arena);
    for (const std::size_t offset : stream.offsets) digest.AddU64(offset);
    if (stream_digest.empty()) stream_digest = digest.Hex();
    if (digest.Hex() != stream_digest) {
      result.Fail("set-up " + std::to_string(setup_s.size() - 1) +
                  " encoded stream digest " + digest.Hex() + ", first " +
                  stream_digest);
    }
    return true;
  };
  if (!set_up()) return result;

  std::vector<Pass> timed, traced;
  std::string reference;
  const Clock::time_point begin = Clock::now();
  for (std::size_t p = 0;; ++p) {
    const double elapsed = SecondsBetween(begin, Clock::now());
    const std::size_t done = setup_s.size();
    if (p >= 3 && done >= spec.setups && elapsed >= config.seconds) break;
    if (SetUpDue(done, spec.setups, elapsed, config.seconds) && !set_up()) {
      return result;
    }
    for (const bool trace : {false, true}) {
      if (trace && !config.trace) continue;
      Pass pass;
      ++result.attempted;
      const Status status = RunPass(stream, spec, spec.workers,
                                    spec.snapshot_every, checkpoint, trace,
                                    &pass);
      if (!status.ok()) {
        result.Fail("pass " + std::to_string(p) + ": " + status.ToString());
        continue;
      }
      if (reference.empty()) reference = pass.digest;
      if (pass.digest != reference) {
        result.Fail("pass " + std::to_string(p) + (trace ? " (traced)" : "") +
                    " published digest " + pass.digest + ", first pass " +
                    reference);
      }
      result.spans.insert(result.spans.end(), pass.spans.begin(),
                          pass.spans.end());
      std::printf("pass %zu%s reports_per_s=%.0f\n", p, trace ? " traced" : "",
                  static_cast<double>(spec.reports) / pass.seconds);
      (trace ? traced : timed).push_back(std::move(pass));
    }
  }
  // Worker-count invariance: an untimed pass at the other worker count
  // (no snapshots) must publish the same bits.
  {
    Pass check;
    ++result.attempted;
    const Status status =
        RunPass(stream, spec, spec.check_workers, 0, checkpoint, false, &check);
    if (!status.ok()) {
      result.Fail("invariance pass: " + status.ToString());
    } else if (check.digest != reference) {
      result.Fail(std::to_string(spec.check_workers) +
                  "-worker pass published digest " + check.digest + ", not " +
                  reference);
    }
  }
  std::remove(checkpoint.c_str());
  result.digest = reference;
  if (timed.empty()) return result;

  std::vector<double> rates, publish;
  for (const Pass& pass : timed) {
    rates.push_back(static_cast<double>(spec.reports) / pass.seconds);
    publish.insert(publish.end(), pass.publish_s.begin(), pass.publish_s.end());
  }
  result.Add("setup_s", Median(setup_s), "s", setup_s.size());
  result.Add("peak_rss_mb", PeakRssMb(), "MB");
  result.Add("mse_naive", timed.front().mse, "1", timed.front().windows);
  result.Add("reports_per_s", Median(rates), "1/s", rates.size());
  result.Add("publish_p50_ms", 1e3 * Median(publish), "ms", publish.size());
  result.Add("publish_p99_ms", 1e3 * Quantile(publish, 0.99), "ms",
             publish.size());
  if (!config.trace || traced.empty()) return result;

  // Per-layer figures: medians over traced passes of per-pass values.
  auto median_over = [&](auto per_pass) {
    std::vector<double> v;
    for (const Pass& pass : traced) v.push_back(per_pass(pass));
    return Median(v);
  };
  const std::size_t n = traced.size();
  auto sum = [](const char* name) {
    return [name](const Pass& p) { return SumSeconds(p.spans, name); };
  };
  auto count = [](const char* name) {
    return [name](const Pass& p) {
      return static_cast<double>(CountSpans(p.spans, name));
    };
  };
  result.Add("service.advance_s", median_over(sum("service.advance")), "s", n);
  result.Add("service.advances", median_over(count("service.advance")),
             "count", n);
  result.Add("service.submit_s", median_over([](const Pass& p) {
               double s = 0.0;
               for (const double v : p.submit_s) s += v;
               return s;
             }), "s", n);
  result.Add("service.submit_p99_us", median_over([](const Pass& p) {
               return 1e6 * Quantile(p.submit_s, 0.99);
             }), "us", n);
  result.Add("service.snapshot_s", median_over(sum("service.snapshot")), "s",
             n);
  result.Add("service.snapshots", median_over(count("service.snapshot")),
             "count", n);
  result.Add("service.snapshot_bytes", median_over([](const Pass& p) {
               return Median(p.snapshot_bytes);
             }), "B", n);
  result.Add("service.drain_s", median_over(sum("service.drain")), "s", n);
  const service::ServiceStats& st = traced.front().stats;
  result.Add("service.accepted", static_cast<double>(st.accepted), "count");
  result.Add("service.shed",
             static_cast<double>(st.shed_queue_full + st.shed_late +
                                 st.shed_quarantined),
             "count");
  result.Add("service.rejected",
             static_cast<double>(st.rejected_malformed + st.rejected_invalid +
                                 st.rejected_budget),
             "count");
  result.Add("service.accept_ratio",
             static_cast<double>(st.accepted) /
                 static_cast<double>(st.submitted),
             "ratio");
  std::vector<double> timed_walls, traced_walls;
  for (const Pass& p : timed) timed_walls.push_back(p.seconds);
  for (const Pass& p : traced) traced_walls.push_back(p.seconds);
  result.Add("trace.overhead_frac",
             Median(traced_walls) / Median(timed_walls) - 1.0, "ratio", n);

  // Calibrations over the same pre-encoded stream: the envelope decode
  // every Submit runs, and the payload decode every worker runs.
  std::vector<std::uint8_t> payloads;
  std::vector<std::size_t> payload_offsets{0};
  for (std::size_t i = 0; i < stream.size(); ++i) {
    auto envelope = hdldp::protocol::DecodeEnvelope(stream.Envelope(i));
    if (!envelope.ok()) {
      result.Fail("envelope " + std::to_string(i) + ": " +
                  envelope.status().ToString());
      return result;
    }
    payloads.insert(payloads.end(), envelope->payload.begin(),
                    envelope->payload.end());
    payload_offsets.push_back(payloads.size());
  }
  std::size_t bad = 0;
  result.Add("protocol.envelope_decode_per_s",
             DecodeRate(stream.size(), [&](std::size_t i) {
               bad += !hdldp::protocol::DecodeEnvelope(stream.Envelope(i)).ok();
             }),
             "1/s", 3);
  result.Add("service.payload_decode_per_s",
             DecodeRate(stream.size(), [&](std::size_t i) {
               bad += !hdldp::protocol::DecodeReport(
                           {payloads.data() + payload_offsets[i],
                            payload_offsets[i + 1] - payload_offsets[i]})
                           .ok();
             }),
             "1/s", 3);
  if (bad != 0) {
    result.Fail(std::to_string(bad) + " decode calibration failures");
  }
  return result;
}

}  // namespace perfbench
