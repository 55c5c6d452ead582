#include "perfbench/src/ladder.h"

#include <cstdio>
#include <memory>

#include "perfbench/src/harness.h"
#include "src/api/query_result.h"
#include "src/api/sketch_spec.h"
#include "src/persist/checkpoint_store.h"
#include "src/server/tenant_registry.h"
#include "src/stream/parallel_pipeline.h"
#include "src/stream/window_manager.h"

namespace perfbench {

namespace {

using lps::LinearSketch;
using lps::server::SketchConfig;
using lps::server::TenantRegistry;
using lps::stream::Update;
using lps::stream::WindowManager;

constexpr int kRepeats = 9;

/// Median time of `call`; `prepare` runs untimed before each call (the
/// query rungs ingest one batch there, so no call is served from a
/// query cache of the previous one).
template <typename P, typename F>
double MedianMicros(int repeats, P prepare, F call) {
  std::vector<double> micros;
  for (int i = 0; i < repeats; ++i) {
    prepare(i);
    const double start = Now();
    call(i);
    micros.push_back((Now() - start) * 1e6);
  }
  return Median(micros);
}

void Nothing(int) {}

bool Fail(const std::string& what, const lps::Status& status) {
  std::fprintf(stderr, "perfbench ladder: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  return false;
}

/// The next `count` updates of `batches`, cycling.
std::vector<Update> Take(const Batches& batches, size_t count, size_t* cursor) {
  std::vector<Update> out;
  while (out.size() < count) {
    const std::vector<Update>& batch = batches[*cursor % batches.size()];
    ++*cursor;
    const size_t take = std::min(batch.size(), count - out.size());
    out.insert(out.end(), batch.begin(), batch.begin() + long(take));
  }
  return out;
}

void WindowRungs(const SketchConfig& config, const Batches& batches,
                 const std::string& scratch_dir, Rungs* rungs) {
  const uint64_t interval = config.window_checkpoint;
  const WindowManager::Options options{interval, size_t(config.max_checkpoints)};
  {
    auto sketch = lps::MakeSketch(config.spec);
    WindowManager window(sketch.get(), options);
    const double start = Now();
    for (const auto& batch : batches) window.PushBatch(batch.data(), batch.size());
    rungs->window_s = Now() - start;
    rungs->checkpoint_bytes = double(window.CheckpointBytes());
    rungs->materialize_us = MedianMicros(kRepeats, Nothing, [&](int) {
      window.WindowSketch(2 * interval);
    });
  }
  size_t cursor = 0;
  {
    auto sketch = lps::MakeSketch(config.spec);
    WindowManager window(sketch.get(), options);
    std::vector<double> seals;
    for (int i = 0; i < kRepeats; ++i) {
      const std::vector<Update> epoch = Take(batches, interval, &cursor);
      sketch->UpdateBatch(epoch.data(), epoch.size());
      const double start = Now();
      window.SealEpoch(interval);
      seals.push_back((Now() - start) * 1e6);
    }
    rungs->seal_us = Median(seals);
  }
  // Rehydration: spill all but two checkpoints, then reach each spilled
  // one newest-first, so no request finds its chain in the decode cache.
  auto store = lps::persist::CheckpointStore::Open(
      scratch_dir + "/spill-" + lps::SketchKindName(config.spec.kind));
  if (!store.ok()) return;
  auto sketch = lps::MakeSketch(config.spec);
  WindowManager window(sketch.get(), WindowManager::Options{interval, 0});
  window.AttachSpill({store->get(), "ladder", 2, 16});
  constexpr uint64_t kSealed = 12;
  for (uint64_t i = 0; i < kSealed; ++i) {
    const std::vector<Update> epoch = Take(batches, interval, &cursor);
    window.PushBatch(epoch.data(), epoch.size());
  }
  const uint64_t seen = window.updates_seen();
  std::vector<double> rehydrates;
  for (uint64_t k = kSealed - 3; k >= 1; --k) {
    const double start = Now();
    window.WindowSketch(seen - k * interval);
    rehydrates.push_back((Now() - start) * 1e6);
  }
  rungs->rehydrate_us = Median(rehydrates);
}

double PipelineJob(const SketchConfig& config, const Batches& batches,
                   int threads, double* merge_us) {
  std::vector<std::unique_ptr<LinearSketch>> replicas;
  std::vector<LinearSketch*> pointers;
  for (int s = 0; s < config.shards; ++s) {
    replicas.push_back(lps::MakeSketch(config.spec));
    pointers.push_back(replicas.back().get());
  }
  lps::stream::ParallelPipeline::Options options;
  options.shards = config.shards;
  options.threads = threads;
  lps::stream::ParallelPipeline pipeline(options);
  pipeline.Add("ladder", pointers);
  const uint64_t interval = config.window_checkpoint;
  std::vector<double> merges;
  auto merge = [&] {
    const double start = Now();
    pipeline.MergeShards();
    merges.push_back((Now() - start) * 1e6);
  };
  uint64_t fill = 0;
  const double start = Now();
  for (const auto& batch : batches) {
    // The epoch chunking TenantRegistry::Ingest and dist::Worker::Push use.
    size_t done = 0;
    while (done < batch.size()) {
      size_t chunk = batch.size() - done;
      if (interval > 0 && chunk > interval - fill) chunk = interval - fill;
      pipeline.Drive(batch.data() + done, chunk);
      done += chunk;
      fill += chunk;
      if (interval > 0 && fill == interval) {
        merge();
        fill = 0;
      }
    }
  }
  merge();
  const double elapsed = Now() - start;
  if (merge_us != nullptr) *merge_us = Median(merges);
  return elapsed;
}

}  // namespace

bool MeasureRungs(const SketchConfig& config, const Batches& batches,
                  lps::server::Client* client, const std::string& tenant,
                  const std::string& scratch_dir, Rungs* rungs) {
  const std::string kind = lps::SketchKindName(config.spec.kind);
  rungs->requests = double(batches.size());
  for (const auto& batch : batches) rungs->updates += double(batch.size());

  {
    auto sketch = lps::MakeSketch(config.spec);
    const double start = Now();
    for (const auto& batch : batches) sketch->UpdateBatch(batch.data(), batch.size());
    rungs->sketch_s = Now() - start;
    lps::BitWriter state;
    sketch->Serialize(&state);
    rungs->state_bytes = double(state.bit_count()) / 8;
    rungs->api_query_us = MedianMicros(
        kRepeats,
        [&](int i) {
          const auto& batch = batches[size_t(i) % batches.size()];
          sketch->UpdateBatch(batch.data(), batch.size());
        },
        [&](int) { lps::Query(*sketch); });
  }
  if (config.window_checkpoint > 0) {
    WindowRungs(config, batches, scratch_dir, rungs);
  }
  if (config.shards > 1) {
    rungs->pipeline_s = PipelineJob(config, batches, config.threads, &rungs->merge_us);
    rungs->pipeline_inline_s = PipelineJob(config, batches, 0, nullptr);
  }
  {
    TenantRegistry registry;
    lps::Status created = registry.Create(tenant, "ladder", config);
    if (!created.ok()) return Fail("registry create " + kind, created);
    const double start = Now();
    for (const auto& batch : batches) {
      auto ingested = registry.Ingest(tenant, "ladder", batch);
      if (!ingested.ok()) return Fail("registry ingest " + kind, ingested.status());
    }
    rungs->registry_s = Now() - start;
    auto ingest_one = [&](int i) {
      registry.Ingest(tenant, "ladder", batches[size_t(i) % batches.size()]);
    };
    rungs->registry_query_us = MedianMicros(kRepeats, ingest_one, [&](int) {
      registry.Query(tenant, "ladder");
    });
    if (config.window_checkpoint > 0) {
      rungs->registry_window_us = MedianMicros(kRepeats, ingest_one, [&](int) {
        registry.Window(tenant, "ladder", 2 * config.window_checkpoint, false);
      });
    }
  }
  {
    // Declared before the registry: its window spill chains reference
    // the store, so the registry must be destroyed first.
    auto store = lps::persist::CheckpointStore::Open(scratch_dir + "/persist-" + kind);
    if (!store.ok()) return Fail("store open " + kind, store.status());
    TenantRegistry registry;
    registry.AttachStore(store->get(), TenantRegistry::PersistOptions{});
    lps::Status created = registry.Create(tenant, "ladder", config);
    if (!created.ok()) return Fail("persist create " + kind, created);
    for (const auto& batch : batches) registry.Ingest(tenant, "ladder", batch);
    rungs->persist_full_ms = MedianMicros(3, Nothing, [&](int) {
      registry.PersistTenants(false);
    }) / 1e3;
    std::vector<double> dirty;
    for (int i = 0; i < 3; ++i) {
      registry.Ingest(tenant, "ladder", batches[size_t(i) % batches.size()]);
      const double start = Now();
      registry.PersistTenants(true);
      dirty.push_back((Now() - start) * 1e3);
    }
    rungs->persist_dirty_ms = Median(dirty);
  }
  {
    client->Drop(tenant, "ladder");
    lps::Status created = client->Create(tenant, "ladder", config);
    if (!created.ok()) return Fail("client create " + kind, created);
    double start = Now();
    for (const auto& batch : batches) {
      auto ingested = client->Ingest(tenant, "ladder", batch);
      if (!ingested.ok()) return Fail("client ingest " + kind, ingested.status());
    }
    rungs->client_s = Now() - start;
    rungs->client_query_us = MedianMicros(
        kRepeats,
        [&](int i) { client->Ingest(tenant, "ladder", batches[size_t(i) % batches.size()]); },
        [&](int) { client->Query(tenant, "ladder"); });
    client->Drop(tenant, "ladder");

    client->Drop(tenant, "ladder-stream");
    created = client->Create(tenant, "ladder-stream", config);
    if (!created.ok()) return Fail("stream create " + kind, created);
    start = Now();
    for (const auto& batch : batches) {
      lps::Status sent = client->StreamIngest(tenant, "ladder-stream", batch);
      if (!sent.ok()) return Fail("stream ingest " + kind, sent);
    }
    auto synced = client->StreamSync();
    if (!synced.ok()) return Fail("stream sync " + kind, synced.status());
    rungs->stream_s = Now() - start;
    client->Drop(tenant, "ladder-stream");
  }
  return true;
}

}  // namespace perfbench
