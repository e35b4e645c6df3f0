// The batch mean workloads: the `hdldp_cli mean` call sequence
// (RunMeanEstimation -> MaterializeRows -> FromSamples + ModelDeviation
// per dimension -> PredictedMse -> Recalibrate L1/L2 ->
// ImprovementProbabilityL1), one estimate after another in a closed loop.
//
//   mean-highdim  chunk-keyed Gaussian generator, d >> m: the data layer
//                 (generation plus the serial truth pass) and the d
//                 framework model calls dominate.
//   mean-dense    resident Gaussian dataset several times the LLC, m = d:
//                 lane perturbation and the engine's dense path and
//                 reduce tree dominate; the truth is memoized in set-up.
//
// Estimate i of a run uses perturbation seed SubSeed(seed, i % K) for a
// fixed K, so the utility metrics (averaged over the first K estimates)
// are exact for a fixed --seed however many estimates the time allows,
// and every later estimate must reproduce its twin's digest bit for bit.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "common/rng_lanes.h"
#include "data/chunk_source.h"
#include "data/generator_source.h"
#include "data/generators.h"
#include "framework/deviation_model.h"
#include "framework/value_distribution.h"
#include "hdr4me/recalibrate.h"
#include "mech/plan.h"
#include "mech/registry.h"
#include "protocol/client.h"
#include "protocol/metrics.h"
#include "protocol/pipeline.h"
#include "trace.h"

namespace perfbench {
namespace {

using hdldp::Result;
using hdldp::Status;
namespace data = hdldp::data;

constexpr double kEpsilon = 1.0;
constexpr const char* kMechanism = "piecewise";
// Rows the framework samples per-dimension marginals from (as the CLI).
constexpr std::size_t kMarginalRows = 2000;

struct MeanSpec {
  bool resident = false;
  std::size_t users = 0;
  std::size_t dims = 0;
  std::size_t report_dims = 0;
  std::size_t threads = 4;
  // Distinct perturbation seeds per run; the utility metrics average them.
  std::size_t fixed_estimates = 1;
  // Set-ups per run; setup_s is their median.
  std::size_t setups = 1;
};

MeanSpec SpecFor(const RunConfig& config) {
  const bool tiny = config.scale == Scale::kTiny;
  MeanSpec spec;
  if (config.workload == "mean-highdim") {
    spec = tiny ? MeanSpec{false, 6000, 200, 10, 4, 3, 2}
                : MeanSpec{false, 16384, 1000, 50, 4, 8, 8};
  } else {
    // n * d * 8 B = 1.28 GB: four times a 300 MiB LLC.
    spec = tiny ? MeanSpec{true, 20000, 16, 16, 4, 3, 2}
                : MeanSpec{true, 2'500'000, 64, 64, 4, 40, 3};
  }
  if (config.threads != 0) spec.threads = config.threads;
  return spec;
}

std::uint64_t SubSeed(std::uint64_t seed, std::size_t i) {
  std::uint64_t mix = seed ^ (0x9e3779b97f4a7c15ULL * (i + 1));
  return hdldp::SplitMix64(&mix);
}

// Forwards every ChunkSource call to the wrapped source and records the
// data-layer calls as spans. TrueMean() must forward too: the
// ChunkSource default is a streaming pass over Chunk(), while a resident
// source answers from its memo, so inheriting the default would make
// the traced run compute a different (slower) program.
class TimedChunkSource final : public data::ChunkSource {
 public:
  explicit TimedChunkSource(const data::ChunkSource* base) : base_(base) {}

  std::size_t num_users() const override { return base_->num_users(); }
  std::size_t num_dims() const override { return base_->num_dims(); }
  Result<std::span<const double>> Chunk(
      std::size_t chunk, data::ChunkBuffer* buffer) const override {
    const Span span("data.chunk");
    return base_->Chunk(chunk, buffer);
  }
  Result<std::vector<double>> TrueMean() const override {
    const Span span("data.true_mean");
    return base_->TrueMean();
  }

 private:
  const data::ChunkSource* base_;
};

// Owns the workload's data source. Holds self-referential pointers, so
// it lives behind a unique_ptr and never moves.
struct Population {
  std::optional<data::Dataset> dataset;
  std::optional<data::ResidentChunkSource> resident;
  std::optional<data::GeneratorChunkSource> generated;
  const data::ChunkSource* source = nullptr;
};

Result<std::unique_ptr<Population>> BuildPopulation(const MeanSpec& spec,
                                                    std::uint64_t seed) {
  data::GaussianSpec gaussian;
  gaussian.num_users = spec.users;
  gaussian.num_dims = spec.dims;
  const std::uint64_t data_seed = seed ^ 0xDA7AULL;  // As the CLI tags it.
  auto pop = std::make_unique<Population>();
  if (spec.resident) {
    hdldp::Rng rng(data_seed);
    HDLDP_ASSIGN_OR_RETURN(pop->dataset,
                           data::GenerateGaussian(gaussian, &rng));
    pop->dataset->TrueMean();  // Fill the memo: set-up, not estimation.
    pop->resident.emplace(&*pop->dataset);
    pop->source = &*pop->resident;
  } else {
    HDLDP_ASSIGN_OR_RETURN(
        pop->generated, data::GeneratorChunkSource::Create(
                            data::GeneratorSpec(gaussian), data_seed));
    pop->source = &*pop->generated;
  }
  return pop;
}

struct Estimate {
  std::string digest;
  double mse_naive = 0.0;
  double mse_l1 = 0.0;
  double predicted_mse = 0.0;
  // Perturbed entries the engine aggregated (sum of report counts).
  double entries = 0.0;
  // From the call to the published HDR4ME estimate.
  double wall_s = 0.0;
  // From the naive estimate to the published HDR4ME estimate.
  double enhance_s = 0.0;
};

// One estimate, making the public calls of `hdldp_cli mean` in order.
// The engine reads `source`; the framework's marginal rows come from
// `rows_source` (the same values, unwrapped, as in the CLI).
Result<Estimate> RunEstimate(const data::ChunkSource& source,
                             const data::ChunkSource& rows_source,
                             const hdldp::mech::MechanismPtr& mechanism,
                             const MeanSpec& spec, std::uint64_t seed) {
  namespace framework = hdldp::framework;
  namespace hdr4me = hdldp::hdr4me;
  const Clock::time_point start = Clock::now();
  hdldp::protocol::PipelineOptions opts;
  opts.total_epsilon = kEpsilon;
  opts.report_dims = spec.report_dims == spec.dims ? 0 : spec.report_dims;
  opts.seed = seed;
  opts.seed_scheme = hdldp::SeedScheme::kV3Batched;
  opts.num_threads = spec.threads;
  HDLDP_ASSIGN_OR_RETURN(
      const auto run,
      Traced("protocol.run_mean",
             [&] {
               return hdldp::protocol::RunMeanEstimation(source, mechanism,
                                                         opts);
             },
             /*ambient=*/true));
  const Clock::time_point aggregated = Clock::now();

  const std::size_t d = spec.dims;
  const std::size_t rows = std::min(spec.users, kMarginalRows);
  HDLDP_ASSIGN_OR_RETURN(
      const std::vector<double> marginals,
      Traced("data.materialize",
             [&] { return data::MaterializeRows(rows_source, 0, rows); }));
  const double reports = static_cast<double>(spec.users) *
                         static_cast<double>(spec.report_dims) /
                         static_cast<double>(d);
  std::vector<framework::GaussianDeviation> deviations;
  deviations.reserve(d);
  std::vector<double> column(rows);
  for (std::size_t j = 0; j < d; ++j) {
    for (std::size_t i = 0; i < rows; ++i) column[i] = marginals[i * d + j];
    const Span span("framework.model");
    HDLDP_ASSIGN_OR_RETURN(const auto values,
                           framework::ValueDistribution::FromSamples(column,
                                                                     16));
    HDLDP_ASSIGN_OR_RETURN(
        const auto model,
        framework::ModelDeviation(*mechanism, run.per_dim_epsilon, values,
                                  reports));
    deviations.push_back(model.deviation);
  }
  Estimate out;
  HDLDP_ASSIGN_OR_RETURN(
      out.predicted_mse,
      Traced("framework.predicted_mse",
             [&] { return framework::PredictedMse(deviations); }));
  Digest digest;
  digest.AddDoubles(run.estimated_mean);
  digest.AddDouble(out.predicted_mse);
  for (const auto reg : {hdr4me::Regularizer::kL1, hdr4me::Regularizer::kL2}) {
    hdr4me::Hdr4meOptions h;
    h.regularizer = reg;
    HDLDP_ASSIGN_OR_RETURN(
        const auto result,
        Traced("hdr4me.recalibrate", [&] {
          return hdr4me::Recalibrate(run.estimated_mean, deviations, h);
        }));
    HDLDP_ASSIGN_OR_RETURN(const double mse,
                           hdldp::protocol::MeanSquaredError(
                               result.enhanced_mean, run.true_mean));
    digest.AddDoubles(result.enhanced_mean);
    if (reg == hdr4me::Regularizer::kL1) out.mse_l1 = mse;
  }
  HDLDP_ASSIGN_OR_RETURN(
      const double p_l1,
      Traced("hdr4me.improvement_l1",
             [&] { return hdr4me::ImprovementProbabilityL1(deviations); }));
  digest.AddDouble(p_l1);
  const Clock::time_point end = Clock::now();

  out.digest = digest.Hex();
  out.mse_naive = run.mse;
  for (const std::int64_t count : run.report_counts) {
    out.entries += static_cast<double>(count);
  }
  out.wall_s = SecondsBetween(start, end);
  out.enhance_s = SecondsBetween(aggregated, end);
  return out;
}

// Per-layer figures of one traced estimate, derived from its spans.
struct LayerSample {
  double run_mean_s = 0, ingest_self_s = 0, entries = 0, entries_per_s = 0;
  double true_mean_s = 0, chunk_busy_s = 0, chunk_pulls = 0;
  double values_per_s = 0, materialize_s = 0;
  double model_s = 0, model_calls = 0, recalibrate_s = 0;
};

LayerSample DeriveLayers(const std::vector<SpanRecord>& spans,
                         const MeanSpec& spec, double entries) {
  LayerSample s;
  for (const SpanRecord& span : spans) {
    if (std::string_view(span.name) != "protocol.run_mean") continue;
    s.run_mean_s = span.Seconds();
    s.ingest_self_s = s.run_mean_s - UnionSeconds(spans, "data.",
                                                  span.start_ns, span.end_ns);
  }
  s.entries = entries;
  s.entries_per_s = s.ingest_self_s > 0 ? entries / s.ingest_self_s : 0.0;
  s.true_mean_s = SumSeconds(spans, "data.true_mean");
  s.chunk_busy_s = SumSeconds(spans, "data.chunk");
  s.chunk_pulls = static_cast<double>(CountSpans(spans, "data.chunk"));
  const double chunks = std::ceil(static_cast<double>(spec.users) /
                                  static_cast<double>(data::kUsersPerChunk));
  const double values = static_cast<double>(spec.users) *
                        static_cast<double>(spec.dims) * s.chunk_pulls /
                        chunks;
  s.values_per_s = s.chunk_busy_s > 0 ? values / s.chunk_busy_s : 0.0;
  s.materialize_s = SumSeconds(spans, "data.materialize");
  s.model_s = SumSeconds(spans, "framework.model");
  s.model_calls = static_cast<double>(CountSpans(spans, "framework.model"));
  s.recalibrate_s = SumSeconds(spans, "hdr4me.recalibrate");
  return s;
}

// Calibration: mech::PerturbLanes alone on the workload's sampler plan
// and (native-domain) values, entries per second.
Result<double> LanesEntriesPerSecond(const data::ChunkSource& source,
                                     const hdldp::mech::MechanismPtr& mechanism,
                                     const MeanSpec& spec, std::uint64_t seed) {
  hdldp::protocol::ClientOptions client_options;
  client_options.total_epsilon = kEpsilon;
  client_options.report_dims = spec.report_dims;
  HDLDP_ASSIGN_OR_RETURN(
      const hdldp::protocol::Client client,
      hdldp::protocol::Client::Create(mechanism, spec.dims, client_options));
  HDLDP_ASSIGN_OR_RETURN(
      const std::vector<double> rows,
      data::MaterializeRows(source, 0, std::min(spec.users, kMarginalRows)));
  std::vector<double> natives(std::size_t{1} << 20);
  for (std::size_t k = 0; k < natives.size(); ++k) {
    natives[k] = client.domain_map().Forward(rows[k % rows.size()]);
  }
  std::vector<double> out(natives.size());
  hdldp::RngLanes lanes(seed);
  std::vector<double> rates;
  const Clock::time_point begin = Clock::now();
  while (rates.size() < 5 ||
         (rates.size() < 50 && SecondsBetween(begin, Clock::now()) < 0.3)) {
    const Clock::time_point a = Clock::now();
    hdldp::mech::PerturbLanes(client.plan(), natives, &lanes, out);
    const Clock::time_point b = Clock::now();
    rates.push_back(static_cast<double>(natives.size()) / SecondsBetween(a, b));
  }
  if (!std::isfinite(out[out.size() / 2])) {
    return Status::Internal("PerturbLanes produced a non-finite value");
  }
  return Median(rates);
}

}  // namespace

RunResult RunMeanWorkload(const RunConfig& config) {
  RunResult result;
  const MeanSpec spec = SpecFor(config);
  const bool highdim = config.workload == "mean-highdim";
  Tracer& tracer = Tracer::Get();
  auto mechanism_or = hdldp::mech::MakeMechanism(kMechanism);
  if (!mechanism_or.ok()) {
    result.Fail("MakeMechanism: " + mechanism_or.status().ToString());
    return result;
  }
  const hdldp::mech::MechanismPtr mechanism = *mechanism_or;
  const std::size_t k = spec.fixed_estimates;

  // Set-up: build the population (resident: generate + memoize the
  // truth) and run one warm-up estimate. It is repeated at even points
  // of the run, so setup_s (their median) samples the whole run and not
  // only its first seconds; every repeat must warm up to the same bits.
  std::unique_ptr<Population> pop;
  std::vector<double> setup_s;
  std::string warm_digest;
  const auto set_up = [&]() -> bool {
    pop.reset();  // Free the previous copy before building the next.
    ++result.attempted;
    const Clock::time_point a = Clock::now();
    auto pop_or = BuildPopulation(spec, config.seed);
    if (!pop_or.ok()) {
      result.Fail("set-up: " + pop_or.status().ToString());
      return false;
    }
    pop = std::move(*pop_or);
    auto warm = RunEstimate(*pop->source, *pop->source, mechanism, spec,
                            SubSeed(config.seed, 0));
    if (!warm.ok()) {
      result.Fail("warm-up estimate: " + warm.status().ToString());
      return false;
    }
    setup_s.push_back(SecondsBetween(a, Clock::now()));
    std::printf("setup %zu s=%.6f\n", setup_s.size() - 1, setup_s.back());
    if (warm_digest.empty()) warm_digest = warm->digest;
    if (warm->digest != warm_digest) {
      result.Fail("set-up " + std::to_string(setup_s.size() - 1) +
                  " warmed up to digest " + warm->digest + ", first " +
                  warm_digest);
    }
    return true;
  };
  if (!set_up()) return result;

  std::vector<std::string> twin_digest(k);
  std::vector<double> walls, enhances, traced_walls, mse_naive, mse_l1;
  std::vector<LayerSample> layers;
  double predicted = 0.0;
  const Clock::time_point begin = Clock::now();
  // The untraced run must cover all K seeds (the utility metrics average
  // them); the traced run needs only enough pairs for its medians.
  const std::size_t min_ops = config.trace ? 3 : k;
  for (std::size_t i = 0;; ++i) {
    const double elapsed = SecondsBetween(begin, Clock::now());
    const std::size_t done = setup_s.size();
    if (i >= min_ops && done >= spec.setups && elapsed >= config.seconds) {
      break;
    }
    if (SetUpDue(done, spec.setups, elapsed, config.seconds) && !set_up()) {
      return result;
    }
    const data::ChunkSource& source = *pop->source;
    const TimedChunkSource timed(&source);
    const std::size_t twin = i % k;
    const std::uint64_t seed = SubSeed(config.seed, twin);
    // The traced run alternates untraced and traced estimates of the
    // same seed: the pair must agree bit for bit, and their walls give
    // the tracing overhead.
    for (const bool traced : {false, true}) {
      if (traced && !config.trace) continue;
      ++result.attempted;
      tracer.SetRequest(i);
      tracer.SetEnabled(traced);
      const data::ChunkSource& engine_source =
          traced ? static_cast<const data::ChunkSource&>(timed) : source;
      auto est_or = RunEstimate(engine_source, source, mechanism, spec, seed);
      tracer.SetEnabled(false);
      if (!est_or.ok()) {
        result.Fail("estimate " + std::to_string(i) + ": " +
                    est_or.status().ToString());
        continue;
      }
      const Estimate& est = *est_or;
      if (twin_digest[twin].empty()) {
        twin_digest[twin] = est.digest;
        mse_naive.push_back(est.mse_naive);
        mse_l1.push_back(est.mse_l1);
        predicted = est.predicted_mse;
      } else if (est.digest != twin_digest[twin]) {
        result.Fail("estimate " + std::to_string(i) +
                    (traced ? " (traced)" : "") + " digest " + est.digest +
                    " differs from its seed twin " + twin_digest[twin]);
      }
      if (highdim && !(est.mse_l1 < est.mse_naive)) {
        result.Fail("estimate " + std::to_string(i) +
                    ": HDR4ME-L1 MSE not below the naive MSE");
      }
      std::printf("estimate %zu%s wall_s=%.6f enhance_s=%.6f\n", i,
                  traced ? " traced" : "", est.wall_s, est.enhance_s);
      if (traced) {
        traced_walls.push_back(est.wall_s);
        std::vector<SpanRecord> spans = tracer.Take();
        layers.push_back(DeriveLayers(spans, spec, est.entries));
        // Each chunk is pulled once by the engine; more pulls mean the
        // timing wrapper changed the program (e.g. a streamed TrueMean).
        if (layers.back().chunk_pulls !=
            static_cast<double>(source.num_chunks())) {
          result.Fail("traced estimate " + std::to_string(i) + " pulled " +
                      std::to_string(layers.back().chunk_pulls) +
                      " chunks, the source has " +
                      std::to_string(source.num_chunks()));
        }
        result.spans.insert(result.spans.end(), spans.begin(), spans.end());
      } else {
        walls.push_back(est.wall_s);
        enhances.push_back(est.enhance_s);
      }
    }
  }

  // Theorem 1: the realized naive MSE is a d-term sum around the
  // framework's prediction, relative spread sqrt(2/d).
  const double naive = Mean(mse_naive);
  const double tolerance =
      4.0 * std::sqrt(2.0 / static_cast<double>(spec.dims));
  if (!(std::fabs(naive - predicted) <= tolerance * predicted)) {
    result.Fail("naive MSE " + std::to_string(naive) +
                " outside Theorem 1 band of predicted " +
                std::to_string(predicted));
  }
  Digest run_digest;
  for (const std::string& d : twin_digest) {
    for (const char c : d) run_digest.AddU64(static_cast<unsigned char>(c));
  }
  result.digest = run_digest.Hex();

  std::vector<double> users_per_s;
  for (const double w : walls) {
    users_per_s.push_back(static_cast<double>(spec.users) / w);
  }
  result.Add("setup_s", Median(setup_s), "s", setup_s.size());
  result.Add("peak_rss_mb", PeakRssMb(), "MB");
  result.Add("mse_naive", naive, "1", mse_naive.size());
  result.Add("mse_hdr4me_l1", Mean(mse_l1), "1", mse_l1.size());
  result.Add("predicted_mse", predicted, "1");
  if (!config.trace) {
    result.Add("reports_per_s", Median(users_per_s), "1/s", walls.size());
    // A mean estimate is published when the whole call sequence returns.
    result.Add("publish_p50_ms", 1e3 * Median(walls), "ms", walls.size());
    result.Add("enhance_p50_ms", 1e3 * Median(enhances), "ms",
               enhances.size());
    return result;
  }

  struct LayerMetric {
    const char* name;
    double LayerSample::*field;
    const char* unit;
  };
  static constexpr LayerMetric kLayerMetrics[] = {
      {"data.true_mean_s", &LayerSample::true_mean_s, "s"},
      {"data.chunk_busy_s", &LayerSample::chunk_busy_s, "s"},
      {"data.chunk_pulls", &LayerSample::chunk_pulls, "count"},
      {"data.values_per_s", &LayerSample::values_per_s, "1/s"},
      {"data.materialize_s", &LayerSample::materialize_s, "s"},
      {"protocol.run_mean_s", &LayerSample::run_mean_s, "s"},
      {"engine.ingest_self_s", &LayerSample::ingest_self_s, "s"},
      {"engine.entries", &LayerSample::entries, "count"},
      {"engine.entries_per_s", &LayerSample::entries_per_s, "1/s"},
      {"framework.model_s", &LayerSample::model_s, "s"},
      {"framework.model_calls", &LayerSample::model_calls, "count"},
      {"hdr4me.recalibrate_s", &LayerSample::recalibrate_s, "s"},
  };
  for (const LayerMetric& m : kLayerMetrics) {
    std::vector<double> v;
    for (const LayerSample& s : layers) v.push_back(s.*m.field);
    result.Add(m.name, Median(v), m.unit, layers.size());
  }
  result.Add("trace.overhead_frac", Median(traced_walls) / Median(walls) - 1.0,
             "ratio", traced_walls.size());
  auto lanes =
      LanesEntriesPerSecond(*pop->source, mechanism, spec, config.seed);
  if (lanes.ok()) {
    result.Add("mech.lanes_entries_per_s", *lanes, "1/s");
  } else {
    result.Fail("PerturbLanes calibration: " + lanes.status().ToString());
  }
  return result;
}

}  // namespace perfbench
