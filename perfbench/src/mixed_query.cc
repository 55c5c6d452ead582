// mixed_query: reads beside writes on the same tenants, durability on.
//
// One writer connection streams kFrame-update INGEST_STREAM frames
// closed-loop, one frame per INGEST_SYNC, round-robin over kStreams
// windowed streams of each of three kinds (cs_heavy_hitters with the
// general-turnstile defaults served today, lp_sampler p=1, l0_sampler),
// each behind a shards=2/threads=1 pipeline. The daemon runs with a data
// dir, periodic dirty snapshots and few resident checkpoints. After
// every kFramesPerRead frames the same thread issues the next QUERY or
// WINDOW of a fixed mix, with varying window lengths, on a reader
// connection. Sketch kernels, query recovery, window materialization and
// rehydration, and persistence do the work; per-update transport is
// small.
//
// The run, its daemon included, is pinned to one CPU and its reads take
// turns with its writes. Read from a second thread beside the writer on
// an open-loop schedule, a read's latency was mostly how long it waited
// for a CPU or a stream lock, and with that wait the read metrics moved
// by 20 to 100 % of their median between runs on a shared 4-vCPU VM;
// across vCPUs every hand-off also paid a wake-up whose cost swung with
// host load. A read now measures its own service time, so it no longer
// shows how long a read waits behind a busy ingest path.
//
// Frames are exactly one checkpoint interval long, so every ingest
// closes its pipeline epoch and a query never merges a partial one: the
// served state then depends only on the updates, and the threads = 0
// reference matches bit for bit even for the floating-point kinds. The
// two large-state kinds keep a resident ring shorter than the daemon's
// resident budget and never spill (at this frame rate their megabyte
// checkpoints would make the workload measure disk writeback);
// l0_sampler keeps unbounded history, which spills, so long windows on
// it rehydrate from the store.
#include <filesystem>

#include "perfbench/src/layers.h"
#include "perfbench/src/ladder.h"
#include "perfbench/src/workloads.h"

namespace perfbench {

namespace {

using lps::server::Client;
using lps::server::SketchConfig;
using lps::stream::Update;

constexpr uint64_t kUniverse = uint64_t(1) << 16;
constexpr size_t kFrame = 256;
constexpr uint64_t kCheckpoint = kFrame;
constexpr uint64_t kShortRing = 6;
constexpr const char* kResident = "8";
// Each dirty-snapshot pass ends in an fsync that holds the store's lock,
// which l0_sampler's window spill then waits on; at 2 s the passes still
// land several times per run without making shared-disk latency the
// dominant term.
constexpr const char* kSnapshotMs = "2000";
// Streams per kind. How many recovery rounds a sampler's QUERY tries
// before one answers depends on its hash seed and stream, so one stream's
// query costs a fixed multiple of another's for the whole run (1.4 ms
// against 5 ms for lp_sampler between two seeds); the latency metrics
// average that out over every stream of every kind.
constexpr size_t kStreams = 16;
// One read per this many frames: about a sixth of the run's time.
constexpr size_t kFramesPerRead = 4;
constexpr size_t kLadderFrames = 32;

struct Tenant {
  std::string name;
  std::string key = "s";
  SketchConfig config;
  UpdateGen::Shape shape;
  uint64_t gen_seed = 0;
  std::unique_ptr<UpdateGen> gen;
  uint64_t frames = 0;
  std::vector<uint64_t> failed_frames;
  Samples ingest_us;  ///< frame + sync latency, this run's timed phase
};

/// kStreams streams per kind, kind-major: tenants[k * kStreams + j] is
/// stream j (key "s<j>") of kinds[k].
std::vector<Tenant> MakeTenants(uint64_t seed) {
  const lps::SketchKind kinds[] = {lps::SketchKind::kCsHeavyHitters,
                                   lps::SketchKind::kLpSampler,
                                   lps::SketchKind::kL0Sampler};
  std::vector<Tenant> tenants(3 * kStreams);
  for (size_t i = 0; i < tenants.size(); ++i) {
    const lps::SketchKind kind = kinds[i / kStreams];
    Tenant& t = tenants[i];
    t.name = std::string("mixed-") + lps::SketchKindName(kind);
    t.key = "s" + std::to_string(i % kStreams);
    t.config.spec.kind = kind;
    t.config.spec.n = kUniverse;
    t.config.spec.p = 1.0;
    t.config.spec.seed = Mix64(seed * 137 + i);
    t.config.window_checkpoint = kCheckpoint;
    t.config.max_checkpoints = kind == lps::SketchKind::kL0Sampler ? 0 : kShortRing;
    t.config.shards = 2;
    t.config.threads = 1;
    t.shape.n = kUniverse;
    t.shape.max_abs = 8;
    t.gen_seed = Mix64(seed ^ (0x31ced000 + i));
    t.gen = std::make_unique<UpdateGen>(t.gen_seed, t.shape);
  }
  return tenants;
}

/// The i-th stream in kind-interleaved order (one stream of each kind in
/// turn), so that writes and reads alternate between the kinds' costs.
size_t Interleaved(size_t i) { return (i % 3) * kStreams + (i / 3) % kStreams; }

struct System {
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<Client> writer;
  std::unique_ptr<Client> reader;
};

lps::Result<double> SetUp(const Args& args, const std::vector<Tenant>& tenants,
                          int generation, System* system) {
  const std::string data_dir = args.workdir + "/store-" + std::to_string(generation);
  std::filesystem::remove_all(data_dir);
  const double start = Now();
  std::filesystem::create_directories(data_dir);
  auto daemon = Daemon::Start(args.serve_bin,
                              {"--data-dir", data_dir, "--snapshot-interval-ms",
                               kSnapshotMs, "--resident-checkpoints", kResident});
  if (!daemon.ok()) return daemon.status();
  system->daemon = std::move(daemon.value());
  auto writer = Connect(system->daemon->port());
  auto reader = Connect(system->daemon->port());
  if (!writer.ok()) return writer.status();
  if (!reader.ok()) return reader.status();
  system->writer = std::make_unique<Client>(std::move(writer.value()));
  system->reader = std::make_unique<Client>(std::move(reader.value()));
  for (const Tenant& t : tenants) {
    lps::Status created = system->writer->Create(t.name, t.key, t.config);
    if (!created.ok()) return created;
  }
  return Now() - start;
}

std::vector<ReadOp> ReadMix(const std::vector<Tenant>& tenants) {
  // Short windows stay inside every ring; long ones on l0_sampler reach
  // spilled checkpoints.
  const uint64_t short_lengths[] = {kCheckpoint, 3 * kCheckpoint, kShortRing * kCheckpoint};
  const uint64_t long_lengths[] = {2 * kCheckpoint, uint64_t(1) << 16, uint64_t(1) << 20};
  std::vector<ReadOp> ops;
  for (size_t round = 0; round < 3; ++round) {
    for (size_t i = 0; i < tenants.size(); ++i) {
      const Tenant& t = tenants[Interleaved(i)];
      const bool spilling = t.config.max_checkpoints == 0;
      ops.push_back({false, t.name, t.key, 0});
      ops.push_back({true, t.name, t.key,
                     spilling ? long_lengths[round] : short_lengths[round]});
    }
  }
  return ops;
}

struct Phase {
  double wall = 0;
  uint64_t updates = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  ReadStats reads;
};

Phase Run(System* system, std::vector<Tenant>* tenants, double seconds) {
  Phase phase;
  const std::vector<ReadOp> ops = ReadMix(*tenants);
  const double start = Now();
  const double end = start + seconds;
  std::vector<Update> frame(kFrame);
  for (size_t r = 0; Now() < end; ++r) {
    Tenant& t = (*tenants)[Interleaved(r % tenants->size())];
    t.gen->Fill(frame.data(), kFrame);
    const double sent = Now();
    bool ok = false;
    {
      Span span("server.Client::StreamIngest");
      ok = system->writer->StreamIngest(t.name, t.key, frame).ok();
    }
    if (ok) {
      Span span("server.Client::StreamSync");
      auto ack = system->writer->StreamSync();
      ok = ack.ok() && ack->count == kFrame;
    }
    ++phase.attempted;
    if (ok) {
      t.ingest_us.Add((Now() - sent) * 1e6);
      phase.updates += kFrame;
    } else {
      ++phase.failed;
      t.failed_frames.push_back(t.frames);
    }
    ++t.frames;
    if (r % kFramesPerRead == kFramesPerRead - 1) {
      IssueRead(system->reader.get(), ops, r / kFramesPerRead, Now(), &phase.reads);
    }
  }
  phase.wall = Now() - start;
  return phase;
}

void Gate(System* system, const std::vector<Tenant>& tenants, Report* report) {
  lps::server::TenantRegistry reference;
  for (const Tenant& t : tenants) {
    SketchConfig config = t.config;
    config.threads = 0;
    reference.Create(t.name, t.key, config);
    UpdateGen gen(t.gen_seed, t.shape);
    size_t next_failed = 0;
    std::vector<Update> frame(kFrame);
    for (uint64_t f = 0; f < t.frames; ++f) {
      gen.Fill(frame.data(), kFrame);
      if (next_failed < t.failed_frames.size() && t.failed_frames[next_failed] == f) {
        ++next_failed;
        continue;
      }
      reference.Ingest(t.name, t.key, frame);
    }
    const bool spilling = t.config.max_checkpoints == 0;
    CheckAgainstReference(system->reader.get(), &reference, t.name, t.key,
                          {kCheckpoint, spilling ? uint64_t(1) << 16 : 4 * kCheckpoint,
                           uint64_t(1) << 40},
                          report);
  }
}

}  // namespace

int RunMixedQuery(const Args& args, Report* report) {
  // Both this process and the daemon inherit the mask (see the top).
  Note("cpus %s", PinToFirstCpus(1).c_str());
  std::vector<Tenant> tenants = MakeTenants(args.seed);
  uint64_t inputs = 0;
  for (const Tenant& t : tenants) {
    inputs = FingerprintInputs(inputs, t.config.spec.seed, t.gen_seed, t.shape);
  }
  Note("inputs %016llx", static_cast<unsigned long long>(inputs));
  System system;
  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    tenants = MakeTenants(args.seed);
    system = System();
    auto seconds = SetUp(args, tenants, i, &system);
    if (!seconds.ok()) {
      std::fprintf(stderr, "perfbench: setup: %s\n",
                   seconds.status().ToString().c_str());
      return 1;
    }
    setups.push_back(*seconds);
    if (i + 1 < kSetupRepeats) {
      system.writer.reset();
      system.reader.reset();
      system.daemon->Stop();
    }
  }

  Phase plain = Run(&system, &tenants, args.trace ? args.seconds / 2 : args.seconds);
  Phase traced;
  std::map<std::string, SpanTotals> spans;
  if (args.trace) {
    SetTracing(true);
    traced = Run(&system, &tenants, args.seconds / 2);
    SetTracing(false);
    spans = CollectSpans(args.workdir + "/spans.tsv");
  }
  const double rss_mb = system.daemon->PeakRssMb();
  auto stats = system.reader->Stats();
  report->Attempt(plain.attempted + traced.attempted + plain.reads.attempted +
                  traced.reads.attempted + 1);
  report->Failure(plain.failed + traced.failed + plain.reads.failed +
                  traced.reads.failed + (stats.ok() ? 0 : 1));
  Gate(&system, tenants, report);
  const double ups = double(plain.updates) / plain.wall;
  Note("mixed_query: %llu updates in %.3f s, %llu reads (%llu FAIL answers)",
       static_cast<unsigned long long>(plain.updates), plain.wall,
       static_cast<unsigned long long>(plain.reads.answers),
       static_cast<unsigned long long>(plain.reads.fail_answers));

  if (!args.trace) {
    report->Set("setup_s", Median(setups), "s");
    report->Set("updates_per_s", ups, "1/s");
    // One ingest latency group per stream: the kinds' frames cost
    // several-fold apart.
    std::vector<Samples> ingest;
    for (const Tenant& t : tenants) ingest.push_back(t.ingest_us);
    ReportGroupedP50("ingest", ingest, report);
    ReportReadP50s(ReadMix(tenants), plain.reads, report);
    report->Set("ok_share",
                1.0 - double(report->failed()) / double(report->attempted()),
                "share");
    report->Set("rss_mb", rss_mb, "MiB");
    return 0;
  }

  ZeroPerLayer(report);
  std::vector<KindRungs> kinds;
  double api_query_us = 0;
  double materialize_us = 0;
  for (size_t i = 0; i < tenants.size(); i += kStreams) {
    const Tenant& t = tenants[i];
    UpdateGen gen(Mix64(t.gen_seed + 1), t.shape);
    Batches batches;
    for (size_t f = 0; f < kLadderFrames; ++f) batches.push_back(gen.Batch(kFrame));
    KindRungs kind;
    kind.config = t.config;
    kind.update_share = 1.0 / 3.0;
    if (!MeasureRungs(t.config, batches, system.writer.get(), "ladder-" + t.name,
                      args.workdir, &kind.rungs)) {
      return 1;
    }
    api_query_us += kind.rungs.api_query_us / 3.0;
    materialize_us += kind.rungs.materialize_us / 3.0;
    kinds.push_back(kind);
  }
  ReportRungs(kinds, report);
  if (stats.ok()) report->Set("persist.spilled_bytes", double(stats->spilled_bytes), "bytes");
  const double traced_ups = double(traced.updates) / traced.wall;
  const double wall_us = 1e6 * traced.wall / double(traced.updates);
  const double writer_us = 1e6 *
                           (spans["server.Client::StreamIngest"].total_s +
                            spans["server.Client::StreamSync"].total_s) /
                           double(traced.updates);
  // The reads take turns with the writes, so they are on the path: each
  // answer runs lps::Query, each WINDOW also materializes its window,
  // and the rest of a read's round trip is the server's.
  const double reads_us = 1e6 *
                          (spans["server.Client::Query"].total_s +
                           spans["server.Client::Window"].total_s) /
                          double(traced.updates);
  const double query_us =
      double(traced.reads.answers) * api_query_us / double(traced.updates);
  const double window_us = double(traced.reads.window_us.size()) * materialize_us /
                           double(traced.updates);
  const DaemonLayers daemon = AttributeDaemon(kinds);
  ReportShares({{"sketch", daemon.sketch},
                {"pipeline", daemon.pipeline},
                {"registry", daemon.registry},
                {"window", window_us},
                {"query", query_us},
                {"server", writer_us - daemon.total() + reads_us - query_us - window_us}},
               {}, wall_us, {"sketch", "query"}, report);
  report->Set("trace.overhead_share", 1.0 - traced_ups / ups, "share");
  report->Set("gen.late_p99_us", traced.reads.late_us.Quantile(0.99), "us");
  report->Set("api.query.failed_answer_share",
              double(traced.reads.fail_answers + plain.reads.fail_answers) /
                  double(traced.reads.answers + plain.reads.answers),
              "share");
  report->Set("failed_share",
              double(report->failed()) / double(report->attempted()), "share");
  return 0;
}

}  // namespace perfbench
