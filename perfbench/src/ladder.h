// The in-process layer ladder of a traced run.
//
// Registry, window and pipeline work happens inside the daemon, where
// spans from the benchmark cannot reach. The ladder therefore sends the
// same generated batches through each layer's public entry point in
// turn, every rung building its sketch from the one SketchSpec the
// served tenant uses:
//
//   LinearSketch::UpdateBatch -> WindowManager::PushBatch
//     -> ParallelPipeline::Drive (+ MergeShards / SealEpoch at epochs)
//     -> TenantRegistry::Ingest -> Client::Ingest / Client::StreamIngest
//
// and a layer's self time is its rung minus the rung below it.
#pragma once

#include <string>
#include <vector>

#include "src/server/client.h"
#include "src/server/protocol.h"
#include "src/stream/update.h"

namespace perfbench {

using Batches = std::vector<std::vector<lps::stream::Update>>;

/// Wall seconds (or microseconds where named) of each rung for one kind.
struct Rungs {
  double updates = 0;
  double requests = 0;
  double sketch_s = 0;    ///< LinearSketch::UpdateBatch
  double window_s = 0;    ///< WindowManager::PushBatch (windowed kinds)
  double pipeline_s = 0;  ///< replicas behind ParallelPipeline, epoch-aligned
  double pipeline_inline_s = 0;  ///< the same job at threads = 0
  double registry_s = 0;  ///< TenantRegistry::Ingest
  double client_s = 0;    ///< Client::Ingest, one round trip per batch
  double stream_s = 0;    ///< Client::StreamIngest per batch, one StreamSync
  double merge_us = 0;    ///< one ParallelPipeline::MergeShards
  double seal_us = 0;     ///< one WindowManager::SealEpoch
  double materialize_us = 0;  ///< WindowSketch over resident checkpoints
  double rehydrate_us = 0;    ///< WindowSketch reaching a spilled checkpoint
  double checkpoint_bytes = 0;  ///< WindowManager::CheckpointBytes at the end
  double state_bytes = 0;       ///< serialized sketch state
  double api_query_us = 0;      ///< lps::Query on the sketch rung
  double registry_query_us = 0; ///< TenantRegistry::Query
  double registry_window_us = 0;  ///< TenantRegistry::Window
  double client_query_us = 0;   ///< Client::Query on the daemon
  double persist_full_ms = 0;   ///< TenantRegistry::PersistTenants(false)
  double persist_dirty_ms = 0;  ///< PersistTenants(true) after one batch
};

/// Runs every rung for `config` over `batches`. The daemon rungs create
/// `tenant`/"ladder" on the daemon behind `client`; `scratch_dir` holds
/// the rungs' checkpoint stores. Returns false (with a message on
/// stderr) if a call failed.
bool MeasureRungs(const lps::server::SketchConfig& config,
                  const Batches& batches, lps::server::Client* client,
                  const std::string& tenant, const std::string& scratch_dir,
                  Rungs* rungs);

}  // namespace perfbench
