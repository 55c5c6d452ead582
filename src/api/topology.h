// Topology — one stream's ingestion topology, built from a SketchConfig:
// k identically-seeded replicas, an optional ParallelPipeline driving
// them, an optional WindowManager over replica 0, and the epoch loop
// that composes them. The server's tenants, the distributed worker and
// lps_cli all ingest through it.
//
// Epochs. Every structure is a LinearSketch, so replicas merged at an
// epoch boundary (ParallelPipeline::MergeShards) leave replica 0 holding
// exactly the sketch of the whole stream so far. Push splits its input
// at every `epoch_interval`-th update of the stream and closes the epoch
// there: merge the shards, seal a window checkpoint at the boundary
// (WindowManager::SealEpoch), then run the caller's epoch step, if any.
// With epoch_interval == 0 the stream is one open epoch that CloseEpoch
// or Finish closes. A windowed config needs epoch_interval ==
// window_checkpoint, so a sharded stream seals its checkpoints at the
// same positions a solo WindowManager would — which keeps windows
// bit-identical across topologies for the exact-arithmetic kinds.
//
// Determinism. Updates reach the pipeline through PushBatch, so the
// per-shard chunk boundaries depend only on the producer-side fill rule
// and the epoch boundaries, never on how the caller chunked its calls
// (one update at a time, RPC batches, feeder batches). shards == 1 with
// threads == 0 has no pipeline: updates go straight to
// WindowManager::PushBatch, or to replica 0's UpdateBatch when
// unwindowed.
//
// Reads. A pipelined replica 0 lags the stream by the open epoch's
// updates; CloseEpoch() closes that partial epoch early (the quiesce
// every read runs first). In a windowed pipeline that seals one
// checkpoint at an unaligned position; window starts round down to it,
// never past it.
//
// Thread-safety: none of its own. Push/CloseEpoch/Finish/Fold and every
// read of sketch() or window() must be externally serialized, like the
// pipeline's producer side.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/api/sketch_spec.h"
#include "src/stream/linear_sketch.h"
#include "src/stream/parallel_pipeline.h"
#include "src/stream/update.h"
#include "src/stream/window_manager.h"
#include "src/util/status.h"

namespace lps {

class Topology {
 public:
  /// The caller's epoch step: runs after each epoch closed, when replica
  /// 0 holds the stream through the boundary. `count` is the epoch's
  /// length; `final_epoch` is set for the epoch Finish closes. A non-OK
  /// status is returned by the Push/Finish that closed the epoch.
  using EpochFn = std::function<Status(uint64_t count, bool final_epoch)>;

  /// Validates the topology (shards in [1, 1024], threads in [0, 1024]),
  /// the spec (ValidateSpec) and its kind, and builds the replicas,
  /// the pipeline when shards > 1 or threads > 0, and the window when
  /// config.window_checkpoint > 0. InvalidArgument on a bad config.
  static Result<std::unique_ptr<Topology>> Create(const SketchConfig& config,
                                                  uint64_t epoch_interval,
                                                  EpochFn on_epoch = nullptr);

  /// Create, with replica 0 restored from `state_words`/`state_bits` (a
  /// LinearSketch::Serialize stream of config.spec, checked by
  /// DecodeSketchState) before the window attaches, so the restored
  /// prefix is window checkpoint 0.
  static Result<std::unique_ptr<Topology>> Restore(
      const SketchConfig& config, uint64_t epoch_interval,
      const std::vector<uint64_t>& state_words, size_t state_bits);

  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  /// Appends updates to the stream, closing an epoch at every
  /// epoch_interval boundary. InvalidArgument, with nothing ingested,
  /// when an index lies outside EnforcedUniverse(spec); otherwise the
  /// first failed epoch step's status.
  Status Push(const stream::Update* updates, size_t count);

  /// Closes the open epoch early; a no-op when it is empty.
  Status CloseEpoch();

  /// Closes the trailing epoch as the final one: the epoch step runs
  /// even when it is empty.
  Status Finish();

  /// Folds an externally ingested delta covering `count` updates into
  /// replica 0 after closing the open epoch, and seals a window
  /// checkpoint at the new position. `delta` must match the spec.
  Status Fold(const LinearSketch& delta, uint64_t count);

  /// Replica 0: the whole stream through the last closed epoch.
  LinearSketch& sketch() { return *replicas_[0]; }
  /// Null when the config is unwindowed.
  stream::WindowManager* window() { return window_.get(); }
  const SketchConfig& config() const { return config_; }
  /// Updates pushed or folded in since construction.
  uint64_t updates() const { return updates_; }

 private:
  Topology(const SketchConfig& config, uint64_t epoch_interval,
           EpochFn on_epoch);

  /// `restored`, when set, becomes replica 0.
  static Result<std::unique_ptr<Topology>> Build(
      const SketchConfig& config, uint64_t epoch_interval, EpochFn on_epoch,
      std::unique_ptr<LinearSketch> restored);

  Status EndEpoch(bool final_epoch);

  SketchConfig config_;
  uint64_t interval_;
  uint64_t universe_;  // EnforcedUniverse(spec); 0 = unchecked
  EpochFn on_epoch_;
  // Destruction order matters: the pipeline references every replica
  // and the window references replica 0, so both are declared after.
  std::vector<std::unique_ptr<LinearSketch>> replicas_;
  std::unique_ptr<stream::ParallelPipeline> pipeline_;  // null = inline
  std::unique_ptr<stream::WindowManager> window_;       // null = no windows
  uint64_t fill_ = 0;  // updates in the open epoch
  uint64_t updates_ = 0;
};

}  // namespace lps
