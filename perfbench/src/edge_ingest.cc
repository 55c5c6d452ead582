// edge_ingest: many small producers, transport-bound.
//
// Closed loop: kConnections connections, each sending synchronous INGEST
// requests of kBatch updates round-robin over its own tenants; the load
// generator and the daemon share two CPUs (see RunEdgeIngest). Tenants are the cheap query-facing
// kinds (windowed cm_heavy_hitters, l0_estimator) with inline topology
// and no data dir, so transport, registry lookup and locking, and window
// sealing do the work, and kernels, query, persist, io and dist do
// almost none; a light open-loop reader supplies the read latencies.
#include <thread>

#include "perfbench/src/layers.h"
#include "perfbench/src/ladder.h"
#include "perfbench/src/workloads.h"

namespace perfbench {

namespace {

using lps::server::Client;
using lps::server::SketchConfig;
using lps::stream::Update;

constexpr int kConnections = 2;
constexpr int kTenantsPerConnection = 4;
constexpr size_t kBatch = 32;
constexpr uint64_t kUniverse = uint64_t(1) << 20;
constexpr uint64_t kCheckpoint = 4096;
constexpr uint64_t kRing = 16;
// A third connection reads beside the ingest, open loop: QUERY and
// WINDOW alternate every kReadPeriod, about one read per 400 INGEST
// requests. Reading faster takes CPU from the ingest on its two CPUs
// and made both tails several times noisier.
constexpr double kReadPeriod = 8e-3;
constexpr size_t kLadderBatches = 2048;

struct Tenant {
  std::string name;
  std::string key = "s";
  SketchConfig config;
  UpdateGen::Shape shape;
  uint64_t gen_seed = 0;
  std::unique_ptr<UpdateGen> gen;
  uint64_t batches = 0;
  std::vector<uint64_t> failed_batches;
};

std::vector<Tenant> MakeTenants(uint64_t seed) {
  std::vector<Tenant> tenants(kConnections * kTenantsPerConnection);
  for (size_t i = 0; i < tenants.size(); ++i) {
    Tenant& t = tenants[i];
    t.name = "edge-" + std::to_string(i);
    t.config.spec.n = kUniverse;
    t.config.spec.seed = Mix64(seed * 131 + i);
    t.shape.n = kUniverse;
    t.shape.max_abs = 4;
    if (i % kTenantsPerConnection < 2) {
      t.config.spec.kind = lps::SketchKind::kCmHeavyHitters;
      t.config.spec.phi = 0.05;
      t.config.window_checkpoint = kCheckpoint;
      t.config.max_checkpoints = kRing;
      t.shape.positive = true;  // count-min heavy hitters: strict turnstile
      t.shape.hot_share = 0.25;
      t.shape.hot_keys = 16;
    } else {
      t.config.spec.kind = lps::SketchKind::kL0Estimator;
    }
    t.gen_seed = Mix64(seed ^ (0xed6e0000 + i));
    t.gen = std::make_unique<UpdateGen>(t.gen_seed, t.shape);
  }
  return tenants;
}

struct System {
  std::unique_ptr<Daemon> daemon;
  std::vector<Client> clients;
};

/// Boots the daemon, connects, creates every tenant. Returns seconds.
lps::Result<double> SetUp(const Args& args, const std::vector<Tenant>& tenants,
                          System* system) {
  const double start = Now();
  auto daemon = Daemon::Start(args.serve_bin, {});
  if (!daemon.ok()) return daemon.status();
  system->daemon = std::move(daemon.value());
  for (int c = 0; c <= kConnections; ++c) {  // the last one reads
    auto client = Connect(system->daemon->port());
    if (!client.ok()) return client.status();
    system->clients.push_back(std::move(client.value()));
  }
  for (size_t i = 0; i < tenants.size(); ++i) {
    lps::Status created = system->clients[i / kTenantsPerConnection].Create(
        tenants[i].name, tenants[i].key, tenants[i].config);
    if (!created.ok()) return created;
  }
  return Now() - start;
}

struct Phase {
  double wall = 0;
  uint64_t updates = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Samples latency_us;
  ReadStats reads;
};

void Ingest(System* system, std::vector<Tenant>* tenants, double seconds,
            Phase* phase) {
  struct PerThread {
    Samples latency_us;
    uint64_t updates = 0, attempted = 0, failed = 0;
  };
  std::vector<PerThread> per_thread(kConnections);
  const double start = Now();
  const double end = start + seconds;
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      PerThread& mine = per_thread[size_t(c)];
      Client& client = system->clients[size_t(c)];
      std::vector<Update> batch(kBatch);
      for (size_t r = 0; Now() < end; ++r) {
        Tenant& t = (*tenants)[size_t(c) * kTenantsPerConnection +
                               r % kTenantsPerConnection];
        t.gen->Fill(batch.data(), kBatch);
        const double sent = Now();
        bool ok = false;
        {
          Span span("server.Client::Ingest");
          ok = client.Ingest(t.name, t.key, batch).ok();
        }
        const double done = Now();
        ++mine.attempted;
        if (ok) {
          mine.latency_us.Add((done - sent) * 1e6);
          mine.updates += kBatch;
        } else {
          ++mine.failed;
          t.failed_batches.push_back(t.batches);
        }
        ++t.batches;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  phase->wall += Now() - start;
  for (PerThread& mine : per_thread) {
    phase->latency_us.Append(mine.latency_us);
    phase->updates += mine.updates;
    phase->attempted += mine.attempted;
    phase->failed += mine.failed;
  }
}

std::vector<ReadOp> ReadMix(const std::vector<Tenant>& tenants) {
  std::vector<const Tenant*> windowed;
  for (const Tenant& t : tenants) {
    if (t.config.window_checkpoint > 0) windowed.push_back(&t);
  }
  const uint64_t lengths[] = {kCheckpoint, 4 * kCheckpoint, 12 * kCheckpoint};
  std::vector<ReadOp> ops;
  for (size_t i = 0; i < tenants.size(); ++i) {
    ops.push_back({false, tenants[i].name, tenants[i].key, 0});
    const Tenant& w = *windowed[i % windowed.size()];
    ops.push_back({true, w.name, w.key, lengths[i % 3]});
  }
  return ops;
}

/// Replays every tenant's acknowledged batches into an in-process
/// registry of the same topology and compares. Both kinds count in
/// integers and the window seals at exact positions however a stream is
/// chunked, so the reference takes the batches joined into larger ones.
void Gate(System* system, const std::vector<Tenant>& tenants, Report* report) {
  constexpr size_t kJoined = 128 * kBatch;
  lps::server::TenantRegistry reference;
  for (const Tenant& t : tenants) {
    reference.Create(t.name, t.key, t.config);
    UpdateGen gen(t.gen_seed, t.shape);
    size_t next_failed = 0;
    std::vector<Update> batch(kBatch);
    std::vector<Update> joined;
    for (uint64_t b = 0; b < t.batches; ++b) {
      gen.Fill(batch.data(), kBatch);
      if (next_failed < t.failed_batches.size() &&
          t.failed_batches[next_failed] == b) {
        ++next_failed;
        continue;
      }
      joined.insert(joined.end(), batch.begin(), batch.end());
      if (joined.size() >= kJoined || b + 1 == t.batches) {
        reference.Ingest(t.name, t.key, joined);
        joined.clear();
      }
    }
    if (!joined.empty()) reference.Ingest(t.name, t.key, joined);
    std::vector<uint64_t> windows;
    if (t.config.window_checkpoint > 0) {
      windows = {kCheckpoint, 5 * kCheckpoint, uint64_t(1) << 40};
    }
    CheckAgainstReference(&system->clients[0], &reference, t.name, t.key,
                          windows, report);
  }
}

Phase Run(System* system, std::vector<Tenant>* tenants, double seconds) {
  Phase phase;
  const std::vector<ReadOp> ops = ReadMix(*tenants);
  Client* reader = &system->clients[kConnections];
  std::atomic<bool> stop{false};
  std::thread reads([&] {
    ScheduledReads(reader, ops, kReadPeriod, 0, &stop, &phase.reads);
  });
  Ingest(system, tenants, seconds, &phase);
  stop.store(true);
  reads.join();
  TopUpReads(reader, ops, &phase.reads);
  return phase;
}

}  // namespace

int RunEdgeIngest(const Args& args, Report* report) {
  // Synchronous RPC ping-pong on a 4-vCPU VM spends most of its time in
  // cross-vCPU wake-ups, whose cost swings with host load; on two vCPUs
  // the daemon and the load generator hand off locally and the figures
  // are several times steadier. Both inherit this mask.
  Note("cpus %s", PinToFirstCpus(2).c_str());
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
    auto seconds = SetUp(args, tenants, &system);
    if (!seconds.ok()) {
      std::fprintf(stderr, "perfbench: setup: %s\n",
                   seconds.status().ToString().c_str());
      return 1;
    }
    setups.push_back(*seconds);
    if (i + 1 < kSetupRepeats) {
      system.clients.clear();
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
  const ReadStats& reads = args.trace ? traced.reads : plain.reads;

  report->Attempt(plain.attempted + traced.attempted + plain.reads.attempted +
                  traced.reads.attempted);
  report->Failure(plain.failed + traced.failed + plain.reads.failed +
                  traced.reads.failed);
  Gate(&system, tenants, report);
  const double ups = double(plain.updates) / plain.wall;
  Note("edge_ingest: %llu updates in %.3f s over %d connections, %zu tenants",
       static_cast<unsigned long long>(plain.updates), plain.wall,
       kConnections, tenants.size());

  if (!args.trace) {
    report->Set("setup_s", Median(setups), "s");
    report->Set("updates_per_s", ups, "1/s");
    if (!ReportPercentiles("ingest", plain.latency_us, report)) return 1;
    if (!ReportPercentiles("query", reads.query_us, report)) return 1;
    if (!ReportPercentiles("window", reads.window_us, report)) return 1;
    report->Set("ok_share",
                1.0 - double(report->failed()) / double(report->attempted()),
                "share");
    report->Set("rss_mb", rss_mb, "MiB");
    return 0;
  }

  ZeroPerLayer(report);
  std::vector<KindRungs> kinds;
  for (size_t i : {size_t(0), size_t(2)}) {
    const Tenant& t = tenants[i];
    UpdateGen gen(Mix64(t.gen_seed + 1), t.shape);
    Batches batches;
    for (size_t b = 0; b < kLadderBatches; ++b) batches.push_back(gen.Batch(kBatch));
    KindRungs kind;
    kind.config = t.config;
    kind.update_share = 0.5;
    if (!MeasureRungs(t.config, batches, &system.clients[0], "ladder-" + t.name,
                      args.workdir, &kind.rungs)) {
      return 1;
    }
    kinds.push_back(kind);
  }
  ReportRungs(kinds, report);
  const double traced_ups = double(traced.updates) / traced.wall;
  const double wall_us = 1e6 * kConnections * traced.wall / double(traced.updates);
  const double ingest_us =
      1e6 * spans["server.Client::Ingest"].total_s / double(traced.updates);
  const DaemonLayers daemon = AttributeDaemon(kinds);
  ReportShares({{"sketch", daemon.sketch},
                {"window", daemon.window},
                {"registry", daemon.registry},
                {"server", ingest_us - daemon.total()}},
               {}, wall_us, {"server", "registry"}, report);
  report->Set("trace.overhead_share", 1.0 - traced_ups / ups, "share");
  report->Set("gen.late_p99_us", reads.late_us.Quantile(0.99), "us");
  report->Set("api.query.failed_answer_share",
              double(reads.fail_answers) / double(reads.answers), "share");
  report->Set("failed_share",
              double(report->failed()) / double(report->attempted()), "share");
  return 0;
}

}  // namespace perfbench
