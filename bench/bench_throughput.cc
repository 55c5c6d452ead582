// Claim C17 (engineering table): update throughput and query latency of
// every sketch and sampler, so downstream users can size deployments and
// the perf trajectory of the hot path is tracked from PR to PR. Ingestion
// is measured scalar (one Update call per stream element) versus batched
// (kDefaultBatchSize chunks through the UpdateBatch fast paths); a
// parallel_ingest section measures the parallel ingestion runtime
// (ParallelPipeline: t shards on t workers fed through bounded rings,
// then MergeShards) for t in {1, 2, 4, 8}, and the recovery table tracks
// the query-side costs (Sample, Recover, HeavyLeaves).
//
// Between timed passes every sink is Reset() — counters zeroed, seeds and
// allocations kept — so repeated trials measure ingestion, not
// reconstruction.
//
// Emits the human tables to stdout and machine-readable results to
// BENCH_throughput.json. --quick shrinks stream lengths and pass counts
// for CI smoke runs. Exits non-zero if a query path regressed to
// universe-scan scaling, or (on hardware with >= 4 cores) if t = 4
// parallel ingest fails to beat t = 1 — the CI smoke gates on both.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/l0_sampler.h"
#include "src/kernels/kernels.h"
#include "src/core/lp_sampler.h"
#include "src/heavy/heavy_hitters.h"
#include "src/norm/l0_norm.h"
#include "src/norm/lp_norm.h"
#include "src/recovery/sparse_recovery.h"
#include "src/sketch/ams_f2.h"
#include "src/sketch/count_min.h"
#include "src/sketch/count_sketch.h"
#include "src/sketch/dyadic.h"
#include "src/sketch/stable_sketch.h"
#include "src/stream/generators.h"
#include "src/stream/linear_sketch.h"
#include "src/stream/parallel_pipeline.h"
#include "src/util/random.h"

namespace {

using lps::bench::Table;
using lps::stream::UpdateStream;

constexpr uint64_t kN = 1 << 16;

struct ResultRow {
  std::string name;
  size_t updates = 0;
  double scalar_ips = 0;   // items/sec, per-update Update() loop
  double batched_ips = 0;  // items/sec, chunked UpdateBatch
  double speedup() const {
    return scalar_ips > 0 ? batched_ips / scalar_ips : 0;
  }
};

/// Runs `fn` over the stream `passes` times and returns items/sec of the
/// fastest pass (min-time, the standard noise-robust estimator). `reset`
/// runs before every pass, outside the timed region — the Reset() warm-up
/// that keeps repeated trials from paying reconstruction.
template <typename ResetFn, typename Fn>
double ItemsPerSec(const UpdateStream& stream, int passes, ResetFn&& reset,
                   Fn&& fn) {
  double best_seconds = 1e300;
  for (int p = 0; p < passes; ++p) {
    reset();
    const auto start = std::chrono::steady_clock::now();
    fn(stream);
    const auto stop = std::chrono::steady_clock::now();
    const double seconds =
        std::chrono::duration<double>(stop - start).count();
    if (seconds < best_seconds) best_seconds = seconds;
  }
  return static_cast<double>(stream.size()) / best_seconds;
}

/// Feeds `stream` to `sink` in kDefaultBatchSize chunks through its
/// UpdateBatch fast path.
template <typename Sink>
void IngestBatched(Sink* sink, const UpdateStream& stream) {
  for (size_t i = 0; i < stream.size(); i += lps::stream::kDefaultBatchSize) {
    sink->UpdateBatch(stream.data() + i,
                      std::min(lps::stream::kDefaultBatchSize,
                               stream.size() - i));
  }
}

/// Measures one structure: `scalar` ingests the stream with per-update
/// calls, `batched` through the chunked UpdateBatch fast path. Sinks are
/// Reset() between passes.
template <typename Sink>
ResultRow Measure(const std::string& name, const UpdateStream& stream,
                  int passes, Sink* scalar_sink, Sink* batched_sink) {
  ResultRow row;
  row.name = name;
  row.updates = stream.size();
  row.scalar_ips = ItemsPerSec(
      stream, passes, [&] { scalar_sink->Reset(); },
      [&](const UpdateStream& s) {
        for (const auto& u : s) {
          scalar_sink->Update(u.index, static_cast<double>(u.delta));
        }
      });
  row.batched_ips = ItemsPerSec(
      stream, passes, [&] { batched_sink->Reset(); },
      [&](const UpdateStream& s) { IngestBatched(batched_sink, s); });
  return row;
}

// L0 structures take int64 deltas; same shape, different scalar call.
template <typename Sink>
ResultRow MeasureInt(const std::string& name, const UpdateStream& stream,
                     int passes, Sink* scalar_sink, Sink* batched_sink) {
  ResultRow row;
  row.name = name;
  row.updates = stream.size();
  row.scalar_ips = ItemsPerSec(
      stream, passes, [&] { scalar_sink->Reset(); },
      [&](const UpdateStream& s) {
        for (const auto& u : s) scalar_sink->Update(u.index, u.delta);
      });
  row.batched_ips = ItemsPerSec(
      stream, passes, [&] { batched_sink->Reset(); },
      [&](const UpdateStream& s) { IngestBatched(batched_sink, s); });
  return row;
}

/// One structure measured with a specific kernel backend forced — the
/// per-backend sweep that makes SIMD wins (and scalar-fallback costs)
/// visible in the JSON trajectory.
struct BackendRow {
  std::string backend;
  ResultRow row;
};

/// The tentpole perf gate: with the AVX2 backend dispatched, batched
/// ingestion must clear its speedup floor over the per-update path —
/// 3x on count_sketch, 1.5x on stable_sketch (which additionally must
/// never fall below 1.0x: the pre-kernel batch path was a 0.98x
/// *regression* there, and this gate keeps it from coming back).
/// Skips (logged, never silent) when the host has no AVX2 backend or the
/// build is sanitizer-instrumented.
bool CheckKernelSpeedups(const std::vector<ResultRow>& rows,
                         const std::vector<BackendRow>& sweep) {
  bool have_avx2 = false;
  for (auto b : lps::kernels::AvailableBackends()) {
    if (b == lps::kernels::Backend::kAvx2) have_avx2 = true;
  }
  if (!have_avx2) {
    std::printf(
        "kernel speedup check: skipped (no AVX2 kernel backend on this "
        "host — floors are calibrated for AVX2 hardware)\n");
    return true;
  }
  if (!lps::bench::PerfGateEligible("kernel speedup check")) return true;

  struct Target {
    const char* name;
    double floor;
  };
  const Target targets[] = {{"count_sketch[17x96]", 3.0},
                            {"stable_sketch[p=1,96]", 1.5}};
  const bool dispatched_avx2 =
      lps::kernels::ActiveBackend() == lps::kernels::Backend::kAvx2;
  bool ok = true;
  for (const Target& target : targets) {
    // Gate on the best AVX2 measurement of the run — the forced-sweep
    // row, and the headline row when AVX2 was the dispatched backend
    // anyway. Both are min-of-passes already; taking their max guards
    // the floor against a noise window swallowing one whole section on
    // a shared runner.
    double speedup = -1.0;
    for (const BackendRow& br : sweep) {
      if (br.backend == "avx2" && br.row.name == target.name) {
        speedup = std::max(speedup, br.row.speedup());
      }
    }
    if (dispatched_avx2) {
      for (const ResultRow& row : rows) {
        if (row.name == target.name) speedup = std::max(speedup, row.speedup());
      }
    }
    if (speedup < 0) {
      std::fprintf(stderr, "kernel speedup check: missing avx2 row for %s\n",
                   target.name);
      ok = false;
      continue;
    }
    if (speedup <= 1.0) {
      std::fprintf(stderr,
                   "KERNEL SPEEDUP REGRESSION: %s batched path is SLOWER "
                   "than per-update under avx2 (%.2fx) — the batch fast "
                   "path regressed below break-even\n",
                   target.name, speedup);
      ok = false;
    } else if (speedup < target.floor) {
      std::fprintf(stderr,
                   "KERNEL SPEEDUP REGRESSION: %s batched/scalar = %.2fx "
                   "under avx2, floor is %.2fx\n",
                   target.name, speedup, target.floor);
      ok = false;
    } else {
      std::printf("kernel speedup check: %s %.2fx under avx2 (floor %.2fx)\n",
                  target.name, speedup, target.floor);
    }
  }
  return ok;
}

struct ParallelRow {
  std::string name;
  int threads = 0;          // worker threads == shards
  size_t updates = 0;
  double ips = 0;           // items/sec, Drive (partition+ingest) + merge
  double merge_micros = 0;  // MergeShards cost alone, best pass
};

/// The parallel ingestion runtime end-to-end: a ParallelPipeline with t
/// shards on t workers consumes the firehose (producer-side partitioning,
/// bounded rings, UpdateBatch on the workers), then MergeShards collapses
/// the epoch. Reported items/sec covers partition + ingest + merge — the
/// number a deployment actually gets from the library, not a hand-rolled
/// upper bound. The pipeline (and its workers) persist across passes, so
/// thread spawn cost is not measured; replica Reset happens off-clock.
template <typename Sink, typename MakeFn>
ParallelRow MeasureParallel(const std::string& name,
                            const UpdateStream& stream, int passes,
                            int threads, MakeFn make) {
  std::vector<Sink> replicas;
  replicas.reserve(static_cast<size_t>(threads));
  for (int s = 0; s < threads; ++s) replicas.push_back(make());
  std::vector<lps::LinearSketch*> raw;
  for (auto& replica : replicas) raw.push_back(&replica);

  lps::stream::ParallelPipeline::Options options;
  options.shards = threads;
  options.threads = threads;
  lps::stream::ParallelPipeline pipeline(options);
  pipeline.Add(name, raw);

  ParallelRow row;
  row.name = name;
  row.threads = threads;
  row.updates = stream.size();
  double best_seconds = 1e300;
  double best_merge = 1e300;
  for (int p = 0; p < passes; ++p) {
    for (auto& replica : replicas) replica.Reset();
    const auto start = std::chrono::steady_clock::now();
    pipeline.Drive(stream);
    const auto ingested = std::chrono::steady_clock::now();
    pipeline.MergeShards();
    const auto stop = std::chrono::steady_clock::now();
    const double seconds =
        std::chrono::duration<double>(stop - start).count();
    const double merge_seconds =
        std::chrono::duration<double>(stop - ingested).count();
    if (seconds < best_seconds) best_seconds = seconds;
    if (merge_seconds < best_merge) best_merge = merge_seconds;
  }
  row.ips = static_cast<double>(stream.size()) / best_seconds;
  row.merge_micros = best_merge * 1e6;
  return row;
}

double ParallelIpsAt(const std::vector<ParallelRow>& rows,
                     const std::string& name, int threads) {
  for (const auto& row : rows) {
    if (row.name == name && row.threads == threads) return row.ips;
  }
  return -1;
}

/// The parallel-scaling gate: on hardware with >= 4 cores, t = 4 must
/// beat t = 1 (CI runners have 4; near-linear scaling is the headline,
/// but the gate only asserts direction so runner noise cannot flake it).
/// On narrower machines the workers time-slice one core and the check
/// would measure the scheduler, so it is skipped with a note.
bool CheckParallelScaling(const std::vector<ParallelRow>& rows,
                          const std::string& name) {
  const unsigned cores = std::thread::hardware_concurrency();
  const double t1 = ParallelIpsAt(rows, name, 1);
  const double t4 = ParallelIpsAt(rows, name, 4);
  if (t1 <= 0 || t4 <= 0) {
    std::fprintf(stderr, "parallel scaling check: missing rows for %s\n",
                 name.c_str());
    return false;
  }
  if (!lps::bench::PerfGateEligible("parallel scaling check", 4)) {
    return true;
  }
  if (t4 <= t1) {
    std::fprintf(stderr,
                 "PARALLEL SCALING REGRESSION: %s ingests %.2f Mitem/s "
                 "at t=4 vs %.2f Mitem/s at t=1 on %u cores — the "
                 "pipeline no longer parallelizes\n",
                 name.c_str(), t4 / 1e6, t1 / 1e6, cores);
    return false;
  }
  std::printf("parallel scaling check: %s t=4/t=1 = %.2fx on %u cores\n",
              name.c_str(), t4 / t1, cores);
  return true;
}

struct LatencyRow {
  std::string name;
  double micros = 0;  // per query call, best-of-passes
};

// Query latency at n = 2^20 must stay within this factor of n = 2^12.
// Sub-linear queries grow only with log n (< 2x across the sweep); an
// accidental universe scan is ~256x. The slack absorbs timer noise on
// shared CI runners.
constexpr double kMaxQueryScalingRatio = 4.0;

double LatencyOf(const std::vector<LatencyRow>& rows,
                 const std::string& name) {
  for (const auto& row : rows) {
    if (row.name == name) return row.micros;
  }
  return -1;
}

/// Returns false (and complains on stderr) if a query family's latency at
/// n = 2^20 regressed to more than kMaxQueryScalingRatio times n = 2^12.
bool CheckQueryScaling(const std::vector<LatencyRow>& rows,
                       const std::string& family,
                       const std::string& small_suffix,
                       const std::string& large_suffix) {
  const double at_small = LatencyOf(rows, family + small_suffix);
  const double at_large = LatencyOf(rows, family + large_suffix);
  if (at_small <= 0 || at_large <= 0) {
    std::fprintf(stderr, "query scaling check: missing rows for %s\n",
                 family.c_str());
    return false;
  }
  if (at_large > kMaxQueryScalingRatio * at_small) {
    std::fprintf(stderr,
                 "QUERY SCALING REGRESSION: %s costs %.1f us at n=2^20 vs "
                 "%.1f us at n=2^12 (ratio %.2f > %.2f) — an O(n) scan is "
                 "back in the query path\n",
                 family.c_str(), at_large, at_small, at_large / at_small,
                 kMaxQueryScalingRatio);
    return false;
  }
  return true;
}

/// Per-call latency of `fn`, best of `passes` timed runs of `calls` calls.
template <typename Fn>
double MicrosPerCall(int passes, int calls, Fn&& fn) {
  double best_seconds = 1e300;
  for (int p = 0; p < passes; ++p) {
    const auto start = std::chrono::steady_clock::now();
    for (int c = 0; c < calls; ++c) fn();
    const auto stop = std::chrono::steady_clock::now();
    const double seconds =
        std::chrono::duration<double>(stop - start).count();
    if (seconds < best_seconds) best_seconds = seconds;
  }
  return best_seconds / calls * 1e6;
}

void WriteJson(const char* path, const std::vector<ResultRow>& rows,
               const std::vector<BackendRow>& sweep,
               const std::vector<ParallelRow>& parallel,
               const std::vector<LatencyRow>& latencies, bool quick) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"throughput\",\n  \"quick\": %s,\n",
               quick ? "true" : "false");
  std::fprintf(f, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  // The backend the headline "results" section ran under. Absolute
  // numbers are only comparable between files with the same value —
  // compare_bench.py enforces that.
  std::fprintf(f, "  \"kernel_backend\": \"%s\",\n",
               lps::kernels::ActiveBackendName());
  std::fprintf(f, "  \"results\": [\n");
  for (size_t r = 0; r < rows.size(); ++r) {
    const ResultRow& row = rows[r];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"updates\": %zu, "
                 "\"scalar_items_per_sec\": %.0f, "
                 "\"batched_items_per_sec\": %.0f, \"speedup\": %.3f}%s\n",
                 row.name.c_str(), row.updates, row.scalar_ips,
                 row.batched_ips, row.speedup(),
                 r + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"kernel_backend_sweep\": [\n");
  for (size_t r = 0; r < sweep.size(); ++r) {
    const BackendRow& br = sweep[r];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"backend\": \"%s\", "
                 "\"scalar_items_per_sec\": %.0f, "
                 "\"batched_items_per_sec\": %.0f, \"speedup\": %.3f}%s\n",
                 br.row.name.c_str(), br.backend.c_str(), br.row.scalar_ips,
                 br.row.batched_ips, br.row.speedup(),
                 r + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"parallel_ingest\": [\n");
  for (size_t r = 0; r < parallel.size(); ++r) {
    const ParallelRow& row = parallel[r];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"threads\": %d, \"shards\": %d, "
                 "\"updates\": %zu, "
                 "\"items_per_sec\": %.0f, \"merge_micros\": %.1f}%s\n",
                 row.name.c_str(), row.threads, row.threads, row.updates,
                 row.ips, row.merge_micros,
                 r + 1 < parallel.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"query_latency\": [\n");
  for (size_t r = 0; r < latencies.size(); ++r) {
    std::fprintf(f, "    {\"name\": \"%s\", \"micros_per_call\": %.3f}%s\n",
                 latencies[r].name.c_str(), latencies[r].micros,
                 r + 1 < latencies.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = lps::bench::Quick(argc, argv);
  const int passes = lps::bench::Scaled(quick, 7, 3);
  const uint64_t long_len = quick ? (1 << 16) : (1 << 20);
  const uint64_t short_len = quick ? (1 << 13) : (1 << 17);

  const auto long_stream =
      lps::stream::UniformTurnstile(kN, long_len, 100, 7);
  const auto short_stream =
      lps::stream::UniformTurnstile(kN, short_len, 100, 8);

  std::vector<ResultRow> rows;

  {
    lps::sketch::CountSketch a(17, 96, 1), b(17, 96, 1);
    rows.push_back(Measure("count_sketch[17x96]", long_stream, passes, &a, &b));
  }
  {
    lps::sketch::CountMin a(17, 96, 2), b(17, 96, 2);
    rows.push_back(Measure("count_min[17x96]", long_stream, passes, &a, &b));
  }
  {
    lps::sketch::AmsF2 a(9, 16, 3), b(9, 16, 3);
    rows.push_back(Measure("ams_f2[9x16]", short_stream, passes, &a, &b));
  }
  {
    lps::sketch::StableSketch a(1.0, 96, 4), b(1.0, 96, 4);
    rows.push_back(
        Measure("stable_sketch[p=1,96]", short_stream, passes, &a, &b));
  }
  {
    lps::sketch::DyadicCountMin a(16, 9, 64, 14), b(16, 9, 64, 14);
    rows.push_back(
        Measure("dyadic_count_min[16 lvl]", long_stream, passes, &a, &b));
  }
  {
    lps::norm::L0Estimator a(kN, 25, 13), b(kN, 25, 13);
    rows.push_back(
        MeasureInt("l0_estimator[25 reps]", short_stream, passes, &a, &b));
  }
  {
    lps::recovery::SparseRecovery a(kN, 32, 5), b(kN, 32, 5);
    rows.push_back(
        MeasureInt("sparse_recovery[s=32]", short_stream, passes, &a, &b));
  }
  {
    lps::core::LpSamplerParams params;
    params.n = kN;
    params.p = 1.0;
    params.eps = 0.25;
    params.repetitions = 8;
    params.seed = 10;
    lps::core::LpSampler a(params), b(params);
    rows.push_back(
        Measure("lp_sampler[v=8]", short_stream, passes, &a, &b));
  }
  {
    lps::core::L0Sampler a({kN, 0.25, 0, 8, false}),
        b({kN, 0.25, 0, 8, false});
    rows.push_back(
        MeasureInt("l0_sampler[oracle]", short_stream, passes, &a, &b));
  }
  {
    lps::heavy::CsHeavyHitters::Params params;
    params.n = kN;
    params.p = 1.0;
    params.phi = 0.05;
    params.strict_turnstile = true;
    params.seed = 21;
    lps::heavy::CsHeavyHitters a(params), b(params);
    rows.push_back(
        Measure("cs_heavy_hitters[phi=.05]", long_stream, passes, &a, &b));
  }

  // Per-backend forced sweep: the two speedup-gated structures re-measured
  // under every compiled-in kernel backend, so the JSON carries the full
  // scalar/avx2 trajectory (and the scalar rows document what the
  // LPS_KERNELS=scalar escape hatch costs).
  std::vector<BackendRow> backend_sweep;
  {
    const auto dispatched = lps::kernels::ActiveBackend();
    for (const auto backend : lps::kernels::AvailableBackends()) {
      lps::kernels::ForceBackendForTesting(backend);
      const std::string backend_name = lps::kernels::BackendName(backend);
      {
        lps::sketch::CountSketch a(17, 96, 1), b(17, 96, 1);
        backend_sweep.push_back({backend_name, Measure("count_sketch[17x96]",
                                               long_stream, passes, &a, &b)});
      }
      {
        lps::sketch::StableSketch a(1.0, 96, 4), b(1.0, 96, 4);
        backend_sweep.push_back(
            {backend_name, Measure("stable_sketch[p=1,96]", short_stream,
                                   passes, &a, &b)});
      }
    }
    lps::kernels::ForceBackendForTesting(dispatched);
  }

  // Parallel ingest: the runtime the library ships (ParallelPipeline, t
  // shards on t workers through bounded rings, then MergeShards). The
  // t-way scaling curve lands in the JSON so the deployment mode's
  // trajectory is tracked from PR to PR.
  std::vector<ParallelRow> parallel;
  for (int t : {1, 2, 4, 8}) {
    parallel.push_back(MeasureParallel<lps::sketch::CountSketch>(
        "count_sketch[17x96]", long_stream, passes, t,
        [] { return lps::sketch::CountSketch(17, 96, 1); }));
  }
  for (int t : {1, 2, 4, 8}) {
    parallel.push_back(MeasureParallel<lps::core::LpSampler>(
        "lp_sampler[v=8]", short_stream, passes, t, [] {
          lps::core::LpSamplerParams params;
          params.n = kN;
          params.p = 1.0;
          params.eps = 0.25;
          params.repetitions = 8;
          params.seed = 10;
          return lps::core::LpSampler(params);
        }));
  }

  // Query-side latencies. The headline section sweeps the universe size
  // n = 2^12 .. 2^22 for the candidate-driven query engine behind
  // LpSampler::Sample and CsHeavyHitters::Query: sub-linear recovery means
  // micros/call must stay flat in n, and the run FAILS (non-zero exit, so
  // the CI smoke gates on it) if n = 2^20 costs more than
  // kMaxQueryScalingRatio times n = 2^12 — the signature of an O(n) scan
  // sneaking back into a query path. One reference-oracle row per family
  // records the retired full-universe scan at n = 2^20 for comparison.
  std::vector<LatencyRow> latencies;
  {
    lps::recovery::SparseRecovery rec(kN, 32, 6);
    const auto sparse = lps::stream::SparseVector(kN, 32, 1000, 7);
    for (const auto& u : sparse) rec.Update(u.index, u.delta);
    latencies.push_back(
        {"sparse_recovery.Recover[s=32]",
         MicrosPerCall(passes, quick ? 20 : 100,
                       [&] { return rec.Recover().ok(); })});
  }
  const std::vector<int> sweep =
      quick ? std::vector<int>{12, 16, 20} : std::vector<int>{12, 14, 16,
                                                              18, 20, 22};
  for (int log_n : sweep) {
    const uint64_t n = 1ULL << log_n;
    lps::core::LpSamplerParams params;
    params.n = n;
    params.p = 1.0;
    params.eps = 0.25;
    params.repetitions = 1;
    params.seed = 11;
    lps::core::LpSampler sampler(params);
    const auto stream = lps::stream::UniformTurnstile(n, 4096, 100, 12);
    IngestBatched(&sampler, stream);
    // One tiny update per call invalidates the rounds' recovery cache, so
    // this measures the full candidate descent + TopM + residual every
    // time, not cached snapshot reuse.
    latencies.push_back(
        {"lp_sampler.Sample[n=2^" + std::to_string(log_n) + ",v=1]",
         MicrosPerCall(passes, quick ? 10 : 50, [&] {
           sampler.Update(0, 1.0);
           return sampler.Sample().ok();
         })});
    if (log_n == 20) {
      // The retired O(n * rows) scan, one call (it costs milliseconds —
      // exactly the point).
      const double r = sampler.NormEstimate();
      latencies.push_back(
          {"lp_sampler.RecoverReference_oracle[n=2^20]",
           MicrosPerCall(1, 1, [&] {
             return sampler.round(0).RecoverReference(r).ok();
           })});
    }
  }
  for (int log_n : sweep) {
    const uint64_t n = 1ULL << log_n;
    lps::heavy::CsHeavyHitters::Params params;
    params.n = n;
    params.p = 1.0;
    params.phi = 0.05;
    params.strict_turnstile = true;
    params.seed = 21;
    lps::heavy::CsHeavyHitters hh(params);
    const auto stream =
        lps::stream::PlantedHeavyHitters(n, 5, 1000, 500, false, 16);
    IngestBatched(&hh, stream);
    latencies.push_back(
        {"cs_heavy_hitters.Query[n=2^" + std::to_string(log_n) + "]",
         MicrosPerCall(passes, quick ? 10 : 50,
                       [&] { return hh.Query().size(); })});
    if (log_n == 20) {
      latencies.push_back(
          {"cs_heavy_hitters.QueryOracle[n=2^20]",
           MicrosPerCall(1, 1, [&] { return hh.QueryOracle().size(); })});
    }
  }
  {
    lps::sketch::DyadicCountMin tree(16, 9, 64, 15);
    const auto stream =
        lps::stream::PlantedHeavyHitters(kN, 5, 1000, 500, false, 16);
    IngestBatched(&tree, stream);
    latencies.push_back({"dyadic_count_min.HeavyLeaves",
                         MicrosPerCall(passes, quick ? 50 : 200, [&] {
                           return tree.HeavyLeaves(500.0).size();
                         })});
  }

  lps::bench::Section(
      "C17: ingestion throughput, scalar Update() vs UpdateBatch chunks");
  Table table({"structure", "updates", "scalar Mitem/s", "batched Mitem/s",
               "speedup"});
  for (const ResultRow& row : rows) {
    table.AddRow({row.name, Table::Fmt("%zu", row.updates),
                  Table::Fmt("%.2f", row.scalar_ips / 1e6),
                  Table::Fmt("%.2f", row.batched_ips / 1e6),
                  Table::Fmt("%.2fx", row.speedup())});
  }
  table.Print();
  std::printf("kernel backend (dispatched): %s\n\n",
              lps::kernels::ActiveBackendName());

  lps::bench::Section("C17: per-kernel-backend forced sweep");
  Table sweep_table(
      {"structure", "backend", "scalar Mitem/s", "batched Mitem/s",
       "speedup"});
  for (const BackendRow& br : backend_sweep) {
    sweep_table.AddRow({br.row.name, br.backend,
                        Table::Fmt("%.2f", br.row.scalar_ips / 1e6),
                        Table::Fmt("%.2f", br.row.batched_ips / 1e6),
                        Table::Fmt("%.2fx", br.row.speedup())});
  }
  sweep_table.Print();

  lps::bench::Section(
      "C17: parallel ingest (ParallelPipeline, t shards on t workers, "
      "then MergeShards)");
  Table parallel_table({"structure", "threads", "Mitem/s", "merge us"});
  for (const ParallelRow& row : parallel) {
    parallel_table.AddRow({row.name, Table::Fmt("%d", row.threads),
                           Table::Fmt("%.2f", row.ips / 1e6),
                           Table::Fmt("%.1f", row.merge_micros)});
  }
  parallel_table.Print();

  lps::bench::Section("C17: query / recovery latency");
  Table lat_table({"query", "us/call"});
  for (const LatencyRow& row : latencies) {
    lat_table.AddRow({row.name, Table::Fmt("%.1f", row.micros)});
  }
  lat_table.Print();

  WriteJson("BENCH_throughput.json", rows, backend_sweep, parallel, latencies,
            quick);
  std::printf("machine-readable results written to BENCH_throughput.json\n");

  // Gates: fail the run (and the CI smoke) if any query path regressed to
  // universe-scan scaling, or if the parallel runtime stopped scaling.
  bool ok = true;
  ok &= CheckQueryScaling(latencies, "lp_sampler.Sample", "[n=2^12,v=1]",
                          "[n=2^20,v=1]");
  ok &= CheckQueryScaling(latencies, "cs_heavy_hitters.Query", "[n=2^12]",
                          "[n=2^20]");
  if (ok) {
    std::printf("query scaling check: n=2^20 within %.1fx of n=2^12 for "
                "all query paths\n",
                kMaxQueryScalingRatio);
  }
  ok &= CheckParallelScaling(parallel, "count_sketch[17x96]");
  ok &= CheckKernelSpeedups(rows, backend_sweep);
  return ok ? 0 : 1;
}
