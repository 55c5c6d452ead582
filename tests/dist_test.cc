// The distributed aggregation tier, over real loopback sockets.
//
// Every test assembles a real topology — workers (in-process or forked)
// shipping epoch deltas over TCP into an lps_serve-shaped aggregator —
// and holds it to the tier's core contract, solo-equivalence:
//
//   * the 21-kind sweep: the same stream partitioned across {1, 2, 4}
//     workers folds to serialized state BIT-IDENTICAL to a solo sketch
//     for every integer-counter kind, and size-identical plus
//     query-equivalent for the floating-point-counter kinds (whose
//     sums the fold reassociates);
//   * the planted-stream topology matrix: workers x local pipeline
//     shards/threads x epoch interval (aligned and unaligned), each
//     cell byte-compared against solo;
//   * a 2-level fan-in tree (workers -> combiners -> root) landing the
//     same bytes as the flat fold, by linearity;
//   * delivery accounting: duplicate sequences ack without re-folding,
//     skipped sequences fold-but-count-gaps, a session restart without
//     a final marker is a gap;
//   * hostile epochs (lying parameters, mismatched kinds, truncated
//     state) are error responses that advance nothing — never aborts;
//   * forked REAL processes: aggregator and workers in separate
//     processes over loopback, including a kill -9 mid-stream whose
//     lane is reported interrupted while completed epochs keep serving
//     (gated off under TSan, which cannot follow fork).
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/dist/aggregator.h"
#include "src/dist/planted.h"
#include "src/dist/worker.h"
#include "src/lps.h"
#include "src/server/client.h"
#include "src/server/server.h"
#include "src/stream/generators.h"

namespace lps::dist {
namespace {

using server::Client;
using server::DistStats;
using server::EpochAck;
using server::EpochBlob;
using server::SketchConfig;
using server::SnapshotBlob;

// ------------------------------------------------------------- fixtures --

/// A root aggregator endpoint: Server transport + Aggregator extension
/// folding into the server's registry, on an ephemeral loopback port.
struct Node {
  // Declared before `server`: the server's reader threads call into the
  // aggregator, so it must be destroyed after the server joins them.
  std::unique_ptr<Aggregator> aggregator;
  std::unique_ptr<server::Server> server;

  int port() const { return server->port(); }
  void Stop() {
    server->Stop();
    aggregator->Stop();
  }
};

Node StartRoot() {
  Node node;
  server::Server::Options options;
  options.port = 0;
  node.server = std::make_unique<server::Server>(options);
  Aggregator::Options dist_options;
  dist_options.registry = &node.server->registry();
  node.aggregator = std::make_unique<Aggregator>(dist_options);
  node.server->set_extension(node.aggregator.get());
  EXPECT_TRUE(node.server->Start().ok());
  EXPECT_TRUE(node.aggregator->Start().ok());
  return node;
}

/// An interior combiner: folds child epochs locally and ships the
/// combined delta to `upstream_port` under its own session lane.
Node StartCombiner(int upstream_port, const std::string& node_id,
                   uint64_t session) {
  Node node;
  server::Server::Options options;
  options.port = 0;
  node.server = std::make_unique<server::Server>(options);
  Aggregator::Options dist_options;
  dist_options.upstream_port = upstream_port;
  dist_options.node_id = node_id;
  dist_options.upstream_session = session;
  dist_options.flush_interval_ms = 5;
  node.aggregator = std::make_unique<Aggregator>(dist_options);
  node.server->set_extension(node.aggregator.get());
  EXPECT_TRUE(node.server->Start().ok());
  EXPECT_TRUE(node.aggregator->Start().ok());
  return node;
}

Client MustConnect(int port) {
  auto client = Client::Connect("127.0.0.1", port);
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return std::move(client.value());
}

/// One worker's life: take every `stride`-th update starting at
/// `offset`, push in odd-sized batches (partial tails exercised), ship
/// every epoch, finish. EXPECTs instead of ASSERTs: runs on non-main
/// threads.
void RunWorker(int port, const SketchConfig& config,
               const std::string& tenant, const std::string& key,
               const std::vector<stream::Update>& updates, size_t offset,
               size_t stride, uint64_t epoch_interval,
               const std::string& worker_id, uint64_t session) {
  Worker::Options options;
  options.uplink.port = port;
  options.tenant = tenant;
  options.key = key;
  options.config = config;
  options.epoch_interval = epoch_interval;
  options.worker_id = worker_id;
  options.session = session;
  auto built = Worker::Create(std::move(options));
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  if (!built.ok()) return;
  Worker& worker = *built.value();
  std::vector<stream::Update> mine;
  for (size_t i = offset; i < updates.size(); i += stride) {
    mine.push_back(updates[i]);
  }
  for (size_t at = 0; at < mine.size(); at += 193) {
    const size_t len = std::min<size_t>(193, mine.size() - at);
    const Status pushed = worker.Push(mine.data() + at, len);
    EXPECT_TRUE(pushed.ok()) << pushed.ToString();
    if (!pushed.ok()) return;
  }
  const Status finished = worker.Finish();
  EXPECT_TRUE(finished.ok()) << finished.ToString();
}

/// W concurrent workers partitioning `updates` round-robin into the
/// aggregator at `port`; returns once every worker finished.
void RunWorkers(int port, const SketchConfig& config,
                const std::string& tenant, const std::string& key,
                const std::vector<stream::Update>& updates, int workers,
                uint64_t epoch_interval) {
  std::vector<std::thread> threads;
  threads.reserve(size_t(workers));
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      RunWorker(port, config, tenant, key, updates, size_t(w),
                size_t(workers), epoch_interval, "w" + std::to_string(w),
                1000 + uint64_t(w));
    });
  }
  for (auto& thread : threads) thread.join();
}

/// The oracle: the whole stream through one local sketch.
std::unique_ptr<LinearSketch> Solo(const SketchSpec& spec,
                                   const std::vector<stream::Update>& updates) {
  auto sketch = MakeSketch(spec);
  sketch->UpdateBatch(updates.data(), updates.size());
  return sketch;
}

struct State {
  std::vector<uint64_t> words;
  size_t bits = 0;
};

State Serialized(const LinearSketch& sketch) {
  BitWriter writer;
  sketch.Serialize(&writer);
  return {writer.words(), writer.bit_count()};
}

/// The kinds whose counters are floating point (the StableSketch family
/// of tests/kernels_test.cc, plus the moment estimator, whose inner
/// Lq samplers are Cauchy sketches). Epoch folding REASSOCIATES their
/// FP sums — (epoch1 + epoch2) + epoch3 instead of one running sum — so
/// even a single epoch-shipping worker lands state that differs from
/// solo in low-order mantissa bits. These are query-equivalent under
/// the fold; every integer-counter kind is bit-identical.
bool FloatingPointFold(SketchKind kind) {
  switch (kind) {
    case SketchKind::kStableSketch:
    case SketchKind::kLpNormEstimator:
    case SketchKind::kLpSampler:
    case SketchKind::kAkoSampler:
    case SketchKind::kCsHeavyHitters:
    case SketchKind::kDuplicateFinder:
    case SketchKind::kSparseDuplicateFinder:
    case SketchKind::kPositiveFinder:
    case SketchKind::kMomentEstimator:
      return true;
    default:
      return false;
  }
}

SketchConfig SweepConfig(SketchKind kind) {
  SketchConfig config;
  config.spec.kind = kind;
  config.spec.n = 1 << 10;
  config.spec.rows = 5;
  config.spec.buckets = 32;
  config.spec.s = 8;
  config.spec.repetitions = 3;
  config.spec.seed = 77;
  return config;
}

/// A PlantedConfig delta sketch over `updates[from, to)` serialized as
/// an epoch blob — the hand-shipping unit of the accounting tests.
EpochBlob PlantedDelta(const std::vector<stream::Update>& updates,
                       size_t from, size_t to, uint64_t session,
                       uint64_t seq, bool final_epoch = false) {
  EpochBlob blob;
  blob.tenant = "dist";
  blob.key = "s";
  blob.worker_id = "w0";
  blob.session = session;
  blob.seq = seq;
  blob.count = to - from;
  blob.final_epoch = final_epoch;
  blob.config = PlantedConfig();
  auto sketch = MakeSketch(blob.config.spec);
  sketch->UpdateBatch(updates.data() + from, to - from);
  const State state = Serialized(*sketch);
  blob.state_words = state.words;
  blob.state_bits = state.bits;
  return blob;
}

std::vector<stream::Update> PlantedStream(size_t total) {
  std::vector<stream::Update> updates;
  updates.reserve(total);
  for (size_t position = 0; position < total; ++position) {
    updates.push_back(PlantedUpdate(position, kPlantedUniverse));
  }
  return updates;
}

// ------------------------------------------------- 21-kind solo sweep --

// The tier's central claim, per kind: partition one stream across W
// epoch-shipping workers, fold the deltas over TCP, and the aggregated
// prefix sketch is THE SAME SKETCH a solo ingest builds — bit-identical
// serialized state for integer-counter kinds at every worker count,
// size-identical for the floating-point family (whose query
// equivalence is pinned separately below).
TEST(DistSweep, AllKindsMatchSoloAtEveryWorkerCount) {
  const auto stream = stream::UniformTurnstile(1 << 10, 6000, 50, 9);
  constexpr uint32_t kLastKind =
      static_cast<uint32_t>(SketchKind::kMomentEstimator);
  for (int workers : {1, 2, 4}) {
    Node root = StartRoot();
    for (uint32_t k = 1; k <= kLastKind; ++k) {
      RunWorkers(root.port(), SweepConfig(static_cast<SketchKind>(k)),
                 "sweep", std::to_string(k), stream, workers, 1024);
    }
    Client client = MustConnect(root.port());
    for (uint32_t k = 1; k <= kLastKind; ++k) {
      const auto kind = static_cast<SketchKind>(k);
      auto snapshot = client.Snapshot("sweep", std::to_string(k));
      ASSERT_TRUE(snapshot.ok())
          << SketchKindName(kind) << ": " << snapshot.status().ToString();
      EXPECT_EQ(snapshot->updates_seen, stream.size())
          << SketchKindName(kind) << " at " << workers << " workers";
      const State solo = Serialized(*Solo(SweepConfig(kind).spec, stream));
      if (FloatingPointFold(kind)) {
        // Query-equivalent family: FP fold order differs across worker
        // partitions, but the layout (and so the size) must not.
        EXPECT_EQ(snapshot->state_bits, solo.bits)
            << SketchKindName(kind) << " at " << workers << " workers";
      } else {
        EXPECT_TRUE(snapshot->state_bits == solo.bits &&
                    snapshot->state_words == solo.words)
            << SketchKindName(kind) << " not bit-identical to solo at "
            << workers << " workers";
      }
    }
    root.Stop();
  }
}

// The FP side of the sweep: the norm estimate a distributed fold
// produces differs from solo only by floating-point reassociation.
TEST(DistSweep, StableFamilyQueryEquivalentToSolo) {
  const auto stream = stream::UniformTurnstile(1 << 10, 8000, 50, 13);
  const SketchConfig config = SweepConfig(SketchKind::kLpNormEstimator);
  Node root = StartRoot();
  RunWorkers(root.port(), config, "fp", "norm", stream, 4, 1024);
  Client client = MustConnect(root.port());
  auto distributed = client.Query("fp", "norm");
  ASSERT_TRUE(distributed.ok()) << distributed.status().ToString();
  const QueryResult solo = lps::Query(*Solo(config.spec, stream));
  ASSERT_EQ(distributed->type, solo.type);
  EXPECT_NEAR(distributed->value, solo.value,
              1e-6 * std::max(1.0, std::abs(solo.value)))
      << distributed->ToText();
  root.Stop();
}

// --------------------------------------------- planted topology matrix --

// Workers x local pipeline topology x epoch interval (aligned with the
// window checkpoint and deliberately not): every cell must land the
// planted stream bit-identically, because epoch deltas are linear no
// matter how they were cut.
TEST(DistTopology, FlatMatrixBitIdenticalToSolo) {
  const size_t total = 16384;
  const auto stream = PlantedStream(total);
  const SketchConfig base = PlantedConfig();
  const State solo = Serialized(*Solo(base.spec, stream));
  const QueryResult solo_answer = lps::Query(*Solo(base.spec, stream));
  struct Topology {
    int32_t shards;
    int32_t threads;
  };
  for (int workers : {1, 2, 4}) {
    for (const Topology& topology : {Topology{1, 0}, Topology{2, 2}}) {
      for (uint64_t epoch : {uint64_t{512}, uint64_t{1000}}) {
        Node root = StartRoot();
        SketchConfig config = base;
        config.shards = topology.shards;
        config.threads = topology.threads;
        RunWorkers(root.port(), config, "dist", "s", stream, workers, epoch);
        Client client = MustConnect(root.port());
        auto snapshot = client.Snapshot("dist", "s");
        ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
        EXPECT_EQ(snapshot->updates_seen, total);
        EXPECT_TRUE(snapshot->state_bits == solo.bits &&
                    snapshot->state_words == solo.words)
            << workers << " workers, " << topology.shards << " shards, "
            << topology.threads << " threads, epoch " << epoch
            << " not bit-identical to solo";
        auto answer = client.Query("dist", "s");
        ASSERT_TRUE(answer.ok());
        EXPECT_EQ(*answer, solo_answer);
        EXPECT_NE(std::find(answer->items.begin(), answer->items.end(),
                            kPlantedHeavy),
                  answer->items.end())
            << answer->ToText();
        root.Stop();
      }
    }
  }
}

// Workers -> combiners -> root: interior nodes fold their children and
// ship ONE combined delta stream upstream, and the root still lands the
// exact solo bytes — fold-of-folds is the same sum.
TEST(DistTopology, TwoLevelTreeBitIdenticalToSolo) {
  const size_t total = 16384;
  const auto stream = PlantedStream(total);
  const SketchConfig config = PlantedConfig();
  const State solo = Serialized(*Solo(config.spec, stream));

  Node root = StartRoot();
  Node left = StartCombiner(root.port(), "c0", 501);
  Node right = StartCombiner(root.port(), "c1", 502);
  // 4 workers, 2 per combiner, together covering the stream: worker w
  // takes positions w, w+4, w+8, ...
  std::vector<std::thread> threads;
  for (int w = 0; w < 4; ++w) {
    const int port = (w < 2 ? left : right).port();
    threads.emplace_back([&, w, port] {
      RunWorker(port, config, "dist", "s", stream, size_t(w), 4, 512,
                "w" + std::to_string(w), 1000 + uint64_t(w));
    });
  }
  for (auto& thread : threads) thread.join();

  // The combiner flush is asynchronous: poll the root until the final
  // markers propagated (every combiner lane finished) and all updates
  // folded, then demand bit-identity.
  Client client = MustConnect(root.port());
  bool settled = false;
  for (int attempt = 0; attempt < 400 && !settled; ++attempt) {
    auto stats = client.FetchDistStats();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    settled = stats->updates_folded == total && !stats->workers.empty() &&
              std::all_of(stats->workers.begin(), stats->workers.end(),
                          [](const server::DistWorkerStats& lane) {
                            return lane.finished;
                          });
    if (!settled) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(settled) << "combiner deltas never settled at the root";

  auto snapshot = client.Snapshot("dist", "s");
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ(snapshot->updates_seen, total);
  EXPECT_TRUE(snapshot->state_bits == solo.bits &&
              snapshot->state_words == solo.words)
      << "tree fold not bit-identical to solo";
  auto stats = client.FetchDistStats();
  ASSERT_TRUE(stats.ok());
  // The root sees the two combiner lanes, not the four workers.
  EXPECT_EQ(stats->workers.size(), 2u);
  EXPECT_EQ(stats->sessions, 2u);
  EXPECT_EQ(stats->gaps, 0u);

  left.Stop();
  right.Stop();
  root.Stop();
}

// ------------------------------------------------ delivery accounting --

TEST(DistDelivery, DuplicateSequencesAckWithoutRefolding) {
  const auto stream = PlantedStream(1024);
  Node root = StartRoot();
  Client client = MustConnect(root.port());

  auto first = client.ShipEpoch(PlantedDelta(stream, 0, 512, 7, 0));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(first->applied);
  EXPECT_EQ(first->next_seq, 1u);

  // The at-least-once retry: same (session, seq) again. Acked so the
  // sender moves on, NOT folded again.
  auto again = client.ShipEpoch(PlantedDelta(stream, 0, 512, 7, 0));
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->applied);
  EXPECT_EQ(again->next_seq, 1u);

  auto snapshot = client.Snapshot("dist", "s");
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->updates_seen, 512u);
  const State solo =
      Serialized(*Solo(PlantedConfig().spec,
                       {stream.begin(), stream.begin() + 512}));
  EXPECT_TRUE(snapshot->state_bits == solo.bits &&
              snapshot->state_words == solo.words)
      << "duplicate epoch was folded twice";
  root.Stop();
}

TEST(DistDelivery, SkippedSequencesFoldButCountGaps) {
  const auto stream = PlantedStream(1024);
  Node root = StartRoot();
  Client client = MustConnect(root.port());

  ASSERT_TRUE(client.ShipEpoch(PlantedDelta(stream, 0, 512, 7, 0)).ok());
  // Sequences 1 and 2 never arrive; 3 does. Late data beats no data:
  // the delta folds, the two lost epochs are accounted.
  auto skipped = client.ShipEpoch(PlantedDelta(stream, 512, 1024, 7, 3));
  ASSERT_TRUE(skipped.ok());
  EXPECT_TRUE(skipped->applied);
  EXPECT_EQ(skipped->next_seq, 4u);

  auto stats = client.FetchDistStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->gaps, 2u);
  EXPECT_EQ(stats->epochs_folded, 2u);
  auto snapshot = client.Snapshot("dist", "s");
  ASSERT_TRUE(snapshot.ok());
  const State solo = Serialized(*Solo(PlantedConfig().spec, stream));
  EXPECT_TRUE(snapshot->state_bits == solo.bits &&
              snapshot->state_words == solo.words);
  root.Stop();
}

TEST(DistDelivery, SessionRestartWithoutFinalMarkerCountsGap) {
  const auto stream = PlantedStream(1024);
  Node root = StartRoot();
  Client client = MustConnect(root.port());

  // Session 7 folds one epoch and never sends a final marker; the
  // restarted worker presents session 8. The old tail is gone for good.
  ASSERT_TRUE(client.ShipEpoch(PlantedDelta(stream, 0, 512, 7, 0)).ok());
  auto restarted = client.ShipEpoch(PlantedDelta(stream, 512, 1024, 8, 0));
  ASSERT_TRUE(restarted.ok());
  EXPECT_TRUE(restarted->applied);

  auto stats = client.FetchDistStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->sessions, 2u);
  EXPECT_EQ(stats->gaps, 1u);
  ASSERT_EQ(stats->workers.size(), 1u);
  EXPECT_EQ(stats->workers[0].session, 8u);
  root.Stop();
}

TEST(DistDelivery, ShipperResendAfterDisconnectIsIdempotent) {
  const auto stream = PlantedStream(512);
  Node root = StartRoot();

  EpochShipper::Options uplink;
  uplink.port = root.port();
  EpochShipper shipper(uplink);
  const EpochBlob blob = PlantedDelta(stream, 0, 512, 7, 0);
  auto first = shipper.Ship(blob);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(first->applied);

  // The connection dies after the fold was acked; the shipper's resend
  // over a fresh connection gets the duplicate ack, not a double fold.
  shipper.Disconnect();
  auto resent = shipper.Ship(blob);
  ASSERT_TRUE(resent.ok()) << resent.status().ToString();
  EXPECT_FALSE(resent->applied);

  Client client = MustConnect(root.port());
  auto snapshot = client.Snapshot("dist", "s");
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->updates_seen, 512u);
  root.Stop();
}

// ------------------------------------------------------ hostile epochs --

// Epoch state arrives from the network; every lie must be an error
// response that advances nothing — Merge's parameter CHECK stays
// unreachable from the wire.
TEST(DistHostile, LyingEpochsAreRejectedNotFatal) {
  const auto stream = PlantedStream(1024);
  Node root = StartRoot();
  Client client = MustConnect(root.port());

  {
    // State serialized under a DIFFERENT seed than the config claims:
    // same size, same kind byte, different interior parameters — the
    // Reset-probe comparison catches it.
    EpochBlob blob = PlantedDelta(stream, 0, 512, 7, 0);
    SketchConfig other = PlantedConfig();
    other.spec.seed = 999;
    auto foreign = MakeSketch(other.spec);
    foreign->UpdateBatch(stream.data(), 512);
    const State state = Serialized(*foreign);
    blob.state_words = state.words;
    blob.state_bits = state.bits;
    EXPECT_FALSE(client.ShipEpoch(blob).ok());
  }
  {
    // State of a different KIND than the config declares.
    EpochBlob blob = PlantedDelta(stream, 0, 512, 7, 0);
    SketchSpec other = PlantedConfig().spec;
    other.kind = SketchKind::kCountMin;
    auto foreign = MakeSketch(other);
    const State state = Serialized(*foreign);
    blob.state_words = state.words;
    blob.state_bits = state.bits;
    EXPECT_FALSE(client.ShipEpoch(blob).ok());
  }
  {
    // State truncated to one word while the config demands a full
    // sketch: the size probe rejects it before any Deserialize.
    EpochBlob blob = PlantedDelta(stream, 0, 512, 7, 0);
    blob.state_bits = 64;
    EXPECT_FALSE(client.ShipEpoch(blob).ok());
  }
  {
    // An out-of-range spec must die in validation, not in MakeSketch.
    EpochBlob blob = PlantedDelta(stream, 0, 512, 7, 0);
    blob.config.spec.phi = -3.0;
    EXPECT_FALSE(client.ShipEpoch(blob).ok());
  }
  {
    // A well-framed EPOCH request whose BODY is garbage (one word of
    // 0xFF: the tenant string claims an absurd length): "malformed
    // request body", and the connection keeps serving.
    std::vector<uint8_t> frame = {17, 0, 0, 0,
                                  uint8_t(server::Opcode::kEpoch),
                                  64, 0,  0, 0, 0, 0, 0, 0};
    for (int i = 0; i < 8; ++i) frame.push_back(0xFF);
    ASSERT_TRUE(client.SendRaw(frame).ok());
    auto reply = client.ReadReply();
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->first, server::kStatusError);
  }

  // None of those advanced the lane: sequence 0 is still open, the
  // connection still serves, and a valid epoch folds normally.
  auto valid = client.ShipEpoch(PlantedDelta(stream, 0, 512, 7, 0));
  ASSERT_TRUE(valid.ok()) << valid.status().ToString();
  EXPECT_TRUE(valid->applied);
  EXPECT_EQ(valid->next_seq, 1u);
  auto stats = client.FetchDistStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->epochs_folded, 1u);
  root.Stop();
}

TEST(DistHostile, EpochOfAnotherSpecThanItsStreamIsRejected) {
  // The epoch's config and state agree with each other (both seed 999),
  // so it decodes; but its stream already folds seed-7 epochs. The spec
  // check rejects it, at the root (registry fold) and at a combiner
  // (pending accumulator), before a Merge could CHECK on the seeds.
  const auto stream = PlantedStream(1024);
  Node root = StartRoot();
  Node combiner = StartCombiner(root.port(), "c0", 501);
  for (Node* node : {&root, &combiner}) {
    Client client = MustConnect(node->port());
    auto first = client.ShipEpoch(PlantedDelta(stream, 0, 512, 7, 0));
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    EpochBlob blob = PlantedDelta(stream, 512, 1024, 7, 1);
    blob.config.spec.seed = 999;
    auto foreign = MakeSketch(blob.config.spec);
    foreign->UpdateBatch(stream.data() + 512, 512);
    const State state = Serialized(*foreign);
    blob.state_words = state.words;
    blob.state_bits = state.bits;
    EXPECT_FALSE(client.ShipEpoch(blob).ok());
    // Only the config names seed 999: a combiner decodes the state
    // against its stream's spec, so the spec check alone rejects this.
    blob = PlantedDelta(stream, 512, 1024, 7, 1);
    blob.config.spec.seed = 999;
    EXPECT_FALSE(client.ShipEpoch(blob).ok());
    // The rejected epochs did not advance the lane: sequence 1 still folds.
    auto valid = client.ShipEpoch(PlantedDelta(stream, 512, 1024, 7, 1));
    ASSERT_TRUE(valid.ok()) << valid.status().ToString();
    EXPECT_TRUE(valid->applied);
  }
  combiner.Stop();
  root.Stop();
}

// -------------------------------------------------- forked processes --

// ThreadSanitizer cannot follow fork() into children that keep running
// threads; the real-process topologies compile out under TSan (the CI
// TSan job still runs every in-process test above).
#if defined(__SANITIZE_THREAD__)
#define LPS_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define LPS_UNDER_TSAN 1
#endif
#endif

#ifndef LPS_UNDER_TSAN

/// Forks an aggregator daemon (Server + root Aggregator) and returns
/// its pid and bound port through the out-params. The child never
/// returns into gtest.
void ForkAggregator(pid_t* pid, int* port) {
  int ports[2];
  ASSERT_EQ(::pipe(ports), 0);
  *pid = ::fork();
  ASSERT_GE(*pid, 0);
  if (*pid == 0) {
    ::close(ports[0]);
    server::Server::Options options;
    options.port = 0;
    server::Server daemon(options);
    Aggregator::Options dist_options;
    dist_options.registry = &daemon.registry();
    Aggregator aggregator(dist_options);
    daemon.set_extension(&aggregator);
    if (!daemon.Start().ok()) ::_exit(3);
    const int bound = daemon.port();
    if (::write(ports[1], &bound, sizeof(bound)) != ssize_t(sizeof(bound))) {
      ::_exit(4);
    }
    for (;;) ::pause();
  }
  ::close(ports[1]);
  ASSERT_EQ(::read(ports[0], port, sizeof(*port)), ssize_t(sizeof(*port)));
  ::close(ports[0]);
}

/// Forks one worker process covering `offset mod stride` of the planted
/// stream; `throttle_us` > 0 slows it down so a kill can catch it
/// mid-stream. The child _exits 0 on success.
pid_t ForkWorker(int port, size_t total, size_t offset, size_t stride,
                 uint64_t epoch_interval, uint64_t throttle_us) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  Worker::Options options;
  options.uplink.port = port;
  options.tenant = "dist";
  options.key = "s";
  options.config = PlantedConfig();
  options.epoch_interval = epoch_interval;
  options.worker_id = "w" + std::to_string(offset);
  options.session = 1000 + uint64_t(offset);
  auto built = Worker::Create(std::move(options));
  if (!built.ok()) ::_exit(5);
  std::vector<stream::Update> updates;
  for (size_t position = offset; position < total; position += stride) {
    updates.push_back(PlantedUpdate(position, kPlantedUniverse));
    if (updates.size() == 256) {
      if (!built.value()->Push(updates).ok()) ::_exit(6);
      updates.clear();
      if (throttle_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(throttle_us));
      }
    }
  }
  if (!updates.empty() && !built.value()->Push(updates).ok()) ::_exit(6);
  if (!built.value()->Finish().ok()) ::_exit(7);
  ::_exit(0);
}

TEST(DistProcesses, ForkedWorkersBitIdenticalToSoloAcrossWorkerCounts) {
  const size_t total = 16384;
  const auto stream = PlantedStream(total);
  const State solo = Serialized(*Solo(PlantedConfig().spec, stream));
  for (size_t workers : {size_t{1}, size_t{2}, size_t{4}}) {
    pid_t aggregator = 0;
    int port = 0;
    ForkAggregator(&aggregator, &port);
    std::vector<pid_t> children;
    for (size_t w = 0; w < workers; ++w) {
      children.push_back(ForkWorker(port, total, w, workers, 2048, 0));
    }
    for (pid_t child : children) {
      int status = 0;
      ASSERT_EQ(::waitpid(child, &status, 0), child);
      EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
          << "worker exited " << status << " at " << workers << " workers";
    }
    Client client = MustConnect(port);
    auto snapshot = client.Snapshot("dist", "s");
    ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    EXPECT_EQ(snapshot->updates_seen, total);
    EXPECT_TRUE(snapshot->state_bits == solo.bits &&
                snapshot->state_words == solo.words)
        << workers << " forked workers not bit-identical to solo";
    ::kill(aggregator, SIGKILL);
    int status = 0;
    ::waitpid(aggregator, &status, 0);
  }
}

TEST(DistProcesses, KilledWorkerReportsGapAndCompletedEpochsKeepServing) {
  pid_t aggregator = 0;
  int port = 0;
  ForkAggregator(&aggregator, &port);

  // A fast worker covers half the stream and finishes; a throttled one
  // is SIGKILLed mid-stream, leaving the aggregator a lane that
  // disconnected without its final marker.
  const pid_t fast = ForkWorker(port, 32768, 0, 2, 4096, 0);
  const pid_t slow = ForkWorker(port, 1 << 22, 1, 2, 4096, 3000);
  int status = 0;
  ASSERT_EQ(::waitpid(fast, &status, 0), fast);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  // Let the slow worker land at least one epoch before the kill.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  ::kill(slow, SIGKILL);
  ::waitpid(slow, &status, 0);

  Client client = MustConnect(port);
  bool interrupted = false;
  DistStats stats;
  for (int attempt = 0; attempt < 200 && !interrupted; ++attempt) {
    auto fetched = client.FetchDistStats();
    ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
    stats = std::move(fetched.value());
    interrupted = stats.interrupted > 0;
    if (!interrupted) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  EXPECT_TRUE(interrupted) << "killed worker never reported as interrupted";

  // Degraded, not down: everything folded before the kill still serves.
  auto answer = client.Query("dist", "s");
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_NE(std::find(answer->items.begin(), answer->items.end(),
                      kPlantedHeavy),
            answer->items.end())
      << answer->ToText();
  EXPECT_GE(stats.epochs_folded, 8u);  // the fast worker's full run

  ::kill(aggregator, SIGKILL);
  ::waitpid(aggregator, &status, 0);
}

#endif  // !LPS_UNDER_TSAN

}  // namespace
}  // namespace lps::dist
