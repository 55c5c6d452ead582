// file_replay: a batch job measured from input file to verified result.
//
// Before timing, the benchmark writes a text trace ("n" header, "u"
// records) of kTraceUpdates distinct-count updates from its seed; the
// timed replays then read it back from the page cache. Each replay runs
// io::MakeFileSource -> io::StreamFeeder (async decode) ->
// dist::Worker (local ParallelPipeline, kShards shards, kThreads
// threads) -> epoch deltas to the daemon as root aggregator -> final
// QUERY and SNAPSHOT, checked against the precomputed reference. The
// kind, l0_estimator, costs about what the text decoder does per
// update, so decode, producer-side partitioning, and epoch close, ship
// and fold do the work; per-update transport, query, window
// materialization and persistence are bypassed.
#include <cstdio>
#include <fstream>
#include <iterator>

#include "perfbench/src/layers.h"
#include "perfbench/src/ladder.h"
#include "perfbench/src/workloads.h"
#include "src/api/query_result.h"
#include "src/dist/aggregator.h"
#include "src/dist/worker.h"
#include "src/io/byte_source.h"
#include "src/io/stream_feeder.h"

namespace perfbench {

namespace {

using lps::server::Client;
using lps::server::SketchConfig;
using lps::stream::Update;

constexpr uint64_t kUniverse = uint64_t(1) << 20;
constexpr uint64_t kTraceUpdates = 2000000;
constexpr uint64_t kEpoch = 8192;
constexpr int kShards = 4;
constexpr int kThreads = 2;
constexpr size_t kChunk = 4096;
// A second connection reads the first replay's stream between replays,
// closed loop: one round of ReadMix after each replay. Read beside the
// replays, a read's latency was mostly its wait for a CPU, and its
// median spread by up to 30 % over ten seeds.
constexpr size_t kLadderBatches = 256;
constexpr size_t kLadderEpochs = 32;
constexpr const char* kTenant = "replay";

SketchConfig MakeConfig(uint64_t seed) {
  SketchConfig config;
  config.spec.kind = lps::SketchKind::kL0Estimator;
  config.spec.n = kUniverse;
  config.spec.seed = Mix64(seed * 139);
  config.window_checkpoint = kEpoch;
  config.shards = kShards;
  config.threads = kThreads;
  return config;
}

UpdateGen::Shape TraceShape() {
  UpdateGen::Shape shape;
  shape.n = kUniverse;
  shape.max_abs = 4;
  return shape;
}

uint64_t TraceSeed(uint64_t seed) { return Mix64(seed ^ 0xf11e0000); }

/// Generates the trace, writing it to `out` when given, and feeds the
/// same updates in feeder-sized chunks into `reference` under
/// kTenant/`key`. Generator buffers stay one chunk long, so they barely
/// register in the process's peak RSS.
void GenerateTrace(std::FILE* out, uint64_t seed,
                   lps::server::TenantRegistry* reference, const std::string& key) {
  if (out != nullptr) {
    std::fprintf(out, "n %llu\n", static_cast<unsigned long long>(kUniverse));
  }
  UpdateGen gen(TraceSeed(seed), TraceShape());
  std::vector<Update> chunk(kChunk);
  for (uint64_t done = 0; done < kTraceUpdates; done += kChunk) {
    chunk.resize(std::min<uint64_t>(kChunk, kTraceUpdates - done));
    gen.Fill(chunk.data(), chunk.size());
    for (const Update& u : chunk) {
      if (out == nullptr) break;
      std::fprintf(out, "u %llu %lld\n", static_cast<unsigned long long>(u.index),
                   static_cast<long long>(u.delta));
    }
    reference->Ingest(kTenant, key, chunk);
  }
}

struct Expected {
  lps::server::SnapshotBlob snapshot;
  lps::QueryResult answer;
};

struct Totals {
  double wall = 0;
  uint64_t updates = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t malformed = 0;
  double read_wait = 0;
  double ingest_wait = 0;
  std::vector<double> rates;
  Samples push_us;
  ReadStats reads;
  std::vector<std::string> keys;
};

/// One replay: worker set-up (untimed), then file -> verified answer.
bool Replay(const Args& args, Client* client, int port, const SketchConfig& config,
            const Expected& expected, Totals* totals, Report* report) {
  const std::string key = "r" + std::to_string(totals->keys.size());
  lps::dist::Worker::Options options;
  options.uplink.port = port;
  options.tenant = kTenant;
  options.key = key;
  options.config = config;
  options.epoch_interval = kEpoch;
  options.worker_id = "w0";
  options.session = totals->keys.size() + 1;
  auto worker = lps::dist::Worker::Create(options);
  if (!worker.ok()) {
    std::fprintf(stderr, "perfbench: worker: %s\n", worker.status().ToString().c_str());
    return false;
  }
  totals->keys.push_back(key);

  const double start = Now();
  lps::Result<std::unique_ptr<lps::io::ByteSource>> source = lps::Status::Failed("");
  {
    Span span("io.MakeFileSource");
    source = lps::io::MakeFileSource(args.workdir + "/trace.txt");
  }
  if (!source.ok()) return false;
  lps::io::StreamFeeder feeder(std::move(source.value()));
  {
    Span span("io.StreamFeeder::ReadHeader");
    if (!feeder.ReadHeader().ok()) return false;
  }
  uint64_t pushes = 0, push_failures = 0;
  lps::Result<lps::io::FeedStats> fed = lps::Status::Failed("");
  {
    Span span("io.StreamFeeder::Feed");
    fed = feeder.Feed([&](const Update* updates, size_t count) {
      const double sent = Now();
      bool ok = false;
      {
        Span push("dist.Worker::Push");
        ok = worker.value()->Push(updates, count).ok();
      }
      ++pushes;
      if (ok) {
        totals->push_us.Add((Now() - sent) * 1e6);
      } else {
        ++push_failures;
      }
    });
  }
  bool finished = false;
  {
    Span span("dist.Worker::Finish");
    finished = worker.value()->Finish().ok();
  }
  lps::Result<lps::QueryResult> answer = lps::Status::Failed("");
  {
    Span span("server.Client::Query");
    answer = client->Query(kTenant, key);
  }
  lps::Result<lps::server::SnapshotBlob> snapshot = lps::Status::Failed("");
  {
    Span span("server.Client::Snapshot");
    snapshot = client->Snapshot(kTenant, key);
  }
  const bool same_answer = answer.ok() && *answer == expected.answer;
  const bool same_state = snapshot.ok() &&
                          snapshot->updates_seen == expected.snapshot.updates_seen &&
                          snapshot->state_bits == expected.snapshot.state_bits &&
                          snapshot->state_words == expected.snapshot.state_words;
  const double wall = Now() - start;

  const uint64_t malformed = fed.ok() ? fed->malformed : 0;
  const uint64_t updates = fed.ok() ? fed->updates : 0;
  totals->attempted += updates + malformed + pushes + 3;
  totals->failed += malformed + push_failures + (finished ? 0 : 1) +
                    (answer.ok() ? 0 : 1) + (snapshot.ok() ? 0 : 1);
  totals->malformed += malformed;
  if (!fed.ok()) {
    report->Mismatch(key + ": feed failed: " + fed.status().ToString());
    return true;
  }
  if (!same_answer || !same_state) {
    report->Mismatch(key + ": served answer or state differs from the reference");
  }
  totals->wall += wall;
  totals->updates += updates;
  totals->read_wait += fed->read_wait_seconds;
  totals->ingest_wait += fed->ingest_wait_seconds;
  totals->rates.push_back(double(updates) / wall);
  return true;
}

std::vector<ReadOp> ReadMix(const std::string& key) {
  std::vector<ReadOp> ops;
  for (uint64_t w : {kEpoch, 16 * kEpoch, uint64_t(1) << 40}) {
    ops.push_back({false, kTenant, key, 0});
    ops.push_back({true, kTenant, key, w});
  }
  return ops;
}

bool ReplayFor(const Args& args, Client* client, Client* reader, int port,
               const SketchConfig& config, const Expected& expected,
               double seconds, Totals* totals, Report* report) {
  if (totals->keys.empty() &&
      !Replay(args, client, port, config, expected, totals, report)) {
    return false;
  }
  const std::vector<ReadOp> ops = ReadMix(totals->keys.front());
  const double end = Now() + seconds;
  bool ok = true;
  for (int i = 0; ok && (i < 3 || Now() < end); ++i) {
    if (totals->keys.size() > 1) client->Drop(kTenant, totals->keys.back());
    ok = Replay(args, client, port, config, expected, totals, report);
    for (size_t j = 0; j < ops.size(); ++j) IssueRead(reader, ops, j, Now(), &totals->reads);
  }
  return ok;
}

/// The dist-tier rungs: epoch decode, ship, and registry fold.
void DistRungs(const SketchConfig& config, Client* client, int port, Report* report) {
  UpdateGen gen(TraceSeed(0) + 7, TraceShape());
  auto delta = lps::MakeSketch(config.spec);
  const std::vector<Update> epoch = gen.Batch(kEpoch);
  delta->UpdateBatch(epoch.data(), epoch.size());
  lps::BitWriter state;
  delta->Serialize(&state);

  std::vector<double> decode, ship, fold;
  lps::server::TenantRegistry registry;
  lps::dist::EpochShipper shipper({"127.0.0.1", port, 50, 100});
  client->Drop("ladder-dist", "s");
  for (size_t j = 0; j < kLadderEpochs; ++j) {
    double start = Now();
    auto decoded = lps::dist::DecodeEpochState(config, state.words(), state.bit_count());
    decode.push_back((Now() - start) * 1e6);
    if (!decoded.ok()) continue;
    lps::server::EpochBlob blob;
    blob.tenant = "ladder-dist";
    blob.key = "s";
    blob.worker_id = "ladder";
    blob.session = 1;
    blob.seq = j;
    blob.count = kEpoch;
    blob.final_epoch = j + 1 == kLadderEpochs;
    blob.config = config;
    blob.state_words = state.words();
    blob.state_bits = state.bit_count();
    start = Now();
    shipper.Ship(blob);
    ship.push_back((Now() - start) * 1e6);
    start = Now();
    registry.FoldEpoch("ladder", "s", config, *decoded.value(), kEpoch);
    fold.push_back((Now() - start) * 1e6);
  }
  client->Drop("ladder-dist", "s");
  report->Set("dist.decode_epoch_us", Median(decode), "us");
  report->Set("dist.ship_us_per_epoch", Median(ship), "us");
  report->Set("server.registry.fold_us_per_epoch", Median(fold), "us");
}

/// Decoder cost alone: the trace from memory, decoded inline.
double DecodeMicrosPerUpdate(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  lps::io::StreamFeeder::Options options;
  options.async_decode = false;
  lps::io::StreamFeeder feeder(
      std::make_unique<lps::io::MemorySource>(bytes.data(), bytes.size()), options);
  const double start = Now();
  if (!feeder.ReadHeader().ok()) return 0;
  auto fed = feeder.Feed([](const Update*, size_t) {});
  const double elapsed = Now() - start;
  return fed.ok() && fed->updates > 0 ? elapsed * 1e6 / double(fed->updates) : 0;
}

}  // namespace

int RunFileReplay(const Args& args, Report* report) {
  // One CPU for this process, its pipeline threads and the daemon: across
  // vCPUs of a shared VM every queue hand-off paid a wake-up whose cost
  // swung with host load, and replay rates moved by half from run to run.
  Note("cpus %s", PinToFirstCpus(1).c_str());
  const SketchConfig config = MakeConfig(args.seed);
  const std::string trace_path = args.workdir + "/trace.txt";
  Note("inputs %016llx",
       static_cast<unsigned long long>(FingerprintInputs(
           0, config.spec.seed, TraceSeed(args.seed), TraceShape())));
  Expected expected;
  {
    lps::server::TenantRegistry reference;
    SketchConfig reference_config = config;
    reference_config.threads = 0;
    reference.Create(kTenant, "expected", reference_config);
    std::FILE* out = std::fopen(trace_path.c_str(), "w");
    if (out != nullptr) GenerateTrace(out, args.seed, &reference, "expected");
    if (out == nullptr || std::fclose(out) != 0) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_path.c_str());
      return 1;
    }
    expected.snapshot = reference.Snapshot(kTenant, "expected").value();
    expected.answer = reference.Query(kTenant, "expected").value();
  }
  Note("file_replay: trace of %llu updates written",
       static_cast<unsigned long long>(kTraceUpdates));

  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<Client> client;
  std::unique_ptr<Client> reader;
  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    client.reset();
    reader.reset();
    daemon.reset();
    const double start = Now();
    auto started = Daemon::Start(args.serve_bin, {});
    if (!started.ok()) {
      std::fprintf(stderr, "perfbench: setup: %s\n", started.status().ToString().c_str());
      return 1;
    }
    daemon = std::move(started.value());
    auto connected = Connect(daemon->port());
    auto reading = Connect(daemon->port());
    if (!connected.ok() || !reading.ok()) return 1;
    client = std::make_unique<Client>(std::move(connected.value()));
    reader = std::make_unique<Client>(std::move(reading.value()));
    // The replay worker's replicas and pipeline threads, built and
    // released once, are the rest of this job's set-up.
    lps::dist::Worker::Options options;
    options.uplink.port = daemon->port();
    options.tenant = kTenant;
    options.key = "setup";
    options.config = config;
    if (!lps::dist::Worker::Create(options).ok()) return 1;
    setups.push_back(Now() - start);
  }

  Totals plain, traced;
  if (!ReplayFor(args, client.get(), reader.get(), daemon->port(), config, expected,
                 args.trace ? args.seconds / 2 : args.seconds, &plain, report)) {
    return 1;
  }
  std::map<std::string, SpanTotals> spans;
  if (args.trace) {
    SetTracing(true);
    traced.keys = plain.keys;
    if (!ReplayFor(args, client.get(), reader.get(), daemon->port(), config,
                   expected, args.seconds / 2, &traced, report)) {
      return 1;
    }
    SetTracing(false);
    spans = CollectSpans(args.workdir + "/spans.tsv");
  }
  const std::string last_key = args.trace ? traced.keys.back() : plain.keys.back();
  // The worker side shares this process with the load generator and the
  // reader, and its resident set swung by up to 15 MiB between runs with
  // how malloc's per-thread arenas held the feeder's buffers; rss_mb is
  // the daemon's peak alone, as in the other workloads.
  const double rss_mb = daemon->PeakRssMb();
  auto dist = client->FetchDistStats();
  const uint64_t gaps = dist.ok() ? dist->gaps : 0;

  report->Attempt(plain.attempted + traced.attempted + plain.reads.attempted +
                  traced.reads.attempted + 1);
  report->Failure(plain.failed + traced.failed + plain.reads.failed +
                  traced.reads.failed + gaps +
                  (dist.ok() ? 0 : 1));
  {
    // The gate proper: the last replay's stream against a threads = 0
    // reference of the same topology, including its windows.
    lps::server::TenantRegistry reference;
    SketchConfig reference_config = config;
    reference_config.threads = 0;
    reference.Create(kTenant, last_key, reference_config);
    GenerateTrace(nullptr, args.seed, &reference, last_key);
    CheckAgainstReference(client.get(), &reference, kTenant, last_key,
                          {kEpoch, 16 * kEpoch, uint64_t(1) << 40}, report);
  }
  Note("file_replay: %zu replays, median %.0f updates/s, %llu gaps",
       plain.rates.size(), Median(plain.rates), static_cast<unsigned long long>(gaps));

  if (!args.trace) {
    report->Set("setup_s", Median(setups), "s");
    report->Set("updates_per_s", Median(plain.rates), "1/s");
    if (!ReportPercentiles("ingest", plain.push_us, report)) return 1;
    ReportReadP50s(ReadMix(plain.keys.front()), plain.reads, report);
    report->Set("ok_share",
                1.0 - double(report->failed()) / double(report->attempted()),
                "share");
    report->Set("rss_mb", rss_mb, "MiB");
    return 0;
  }

  ZeroPerLayer(report);
  KindRungs kind;
  kind.config = config;
  kind.update_share = 1.0;
  {
    UpdateGen gen(TraceSeed(args.seed) + 1, TraceShape());
    Batches batches;
    for (size_t b = 0; b < kLadderBatches; ++b) batches.push_back(gen.Batch(kChunk));
    if (!MeasureRungs(config, batches, client.get(), "ladder-file", args.workdir,
                      &kind.rungs)) {
      return 1;
    }
  }
  ReportRungs({kind}, report);
  DistRungs(config, client.get(), daemon->port(), report);
  report->Set("io.decode_us_per_update", DecodeMicrosPerUpdate(trace_path), "us");
  report->Set("io.read_wait_share", traced.read_wait / traced.wall, "share");
  report->Set("io.ingest_wait_share", traced.ingest_wait / traced.wall, "share");
  report->Set("io.malformed", double(plain.malformed + traced.malformed), "count");
  report->Set("dist.gaps", double(gaps), "count");
  const double updates = double(traced.updates);
  const double push_us = 1e6 * spans["dist.Worker::Push"].total_s / updates;
  report->Set("dist.push_us_per_update", push_us, "us");

  const double wall_us = 1e6 * traced.wall / updates;
  const double io_us = 1e6 *
                       (spans["io.MakeFileSource"].total_s +
                        spans["io.StreamFeeder::ReadHeader"].total_s +
                        spans["io.StreamFeeder::Feed"].self_s) /
                       updates;
  // The feeding thread waits in Worker::Push while the pipeline's
  // threads apply the sketch, so the sketch runs beside the path and the
  // pipeline rung (producer side, including those waits) is on it.
  const double sketch_us = 1e6 * kind.rungs.sketch_s / kind.rungs.updates;
  const double pipeline_us =
      std::min(push_us, 1e6 * kind.rungs.pipeline_s / kind.rungs.updates);
  const double finish_us = 1e6 * spans["dist.Worker::Finish"].total_s / updates;
  const double server_us = 1e6 *
                           (spans["server.Client::Query"].total_s +
                            spans["server.Client::Snapshot"].total_s) /
                           updates;
  ReportShares({{"io", io_us},
                {"pipeline", pipeline_us},
                {"dist", push_us + finish_us - pipeline_us},
                {"server", server_us}},
               {{"sketch", sketch_us}}, wall_us, {"io", "pipeline", "dist"}, report);
  report->Set("trace.overhead_share",
              1.0 - (updates / traced.wall) / (double(plain.updates) / plain.wall),
              "share");
  report->Set("gen.late_p99_us", traced.reads.late_us.Quantile(0.99), "us");
  report->Set("api.query.failed_answer_share",
              double(traced.reads.fail_answers) / double(traced.reads.answers),
              "share");
  report->Set("failed_share",
              double(report->failed()) / double(report->attempted()), "share");
  return 0;
}

}  // namespace perfbench
