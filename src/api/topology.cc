#include "src/api/topology.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/util/check.h"

namespace lps {

Topology::Topology(const SketchConfig& config, uint64_t epoch_interval,
                   EpochFn on_epoch)
    : config_(config),
      interval_(epoch_interval),
      universe_(EnforcedUniverse(config.spec)),
      on_epoch_(std::move(on_epoch)) {}

Result<std::unique_ptr<Topology>> Topology::Create(const SketchConfig& config,
                                                   uint64_t epoch_interval,
                                                   EpochFn on_epoch) {
  return Build(config, epoch_interval, std::move(on_epoch), nullptr);
}

Result<std::unique_ptr<Topology>> Topology::Restore(
    const SketchConfig& config, uint64_t epoch_interval,
    const std::vector<uint64_t>& state_words, size_t state_bits) {
  auto restored = DecodeSketchState(config.spec, state_words, state_bits);
  if (!restored.ok()) return restored.status();
  return Build(config, epoch_interval, nullptr, std::move(restored.value()));
}

Result<std::unique_ptr<Topology>> Topology::Build(
    const SketchConfig& config, uint64_t epoch_interval, EpochFn on_epoch,
    std::unique_ptr<LinearSketch> restored) {
  if (config.shards < 1 || config.shards > 1024) {
    return Status::InvalidArgument("shards must be in [1, 1024]");
  }
  if (config.threads < 0 || config.threads > 1024) {
    return Status::InvalidArgument("threads must be in [0, 1024]");
  }
  // Specs may arrive from the wire: out-of-range values would CHECK-
  // abort inside the sketch constructors, so they are rejected here.
  const Status valid = ValidateSpec(config.spec);
  if (!valid.ok()) return valid;
  // Windowed epochs must close on checkpoint positions.
  LPS_CHECK(config.window_checkpoint == 0 ||
            epoch_interval == config.window_checkpoint);
  std::unique_ptr<Topology> topology(
      new Topology(config, epoch_interval, std::move(on_epoch)));
  for (int32_t s = 0; s < config.shards; ++s) {
    auto replica = s == 0 && restored != nullptr ? std::move(restored)
                                                 : MakeSketch(config.spec);
    if (replica == nullptr) {
      return Status::InvalidArgument("unknown sketch kind");
    }
    topology->replicas_.push_back(std::move(replica));
  }
  if (config.shards > 1 || config.threads > 0) {
    stream::ParallelPipeline::Options options;
    options.shards = config.shards;
    options.threads = config.threads;
    topology->pipeline_ = std::make_unique<stream::ParallelPipeline>(options);
    std::vector<LinearSketch*> raw;
    for (const auto& replica : topology->replicas_) {
      raw.push_back(replica.get());
    }
    topology->pipeline_->Add("sketch", std::move(raw));
  }
  // The window attaches after any restore: the restored prefix becomes
  // checkpoint position 0, the stream's new windowing origin.
  if (config.window_checkpoint > 0) {
    stream::WindowManager::Options options;
    options.checkpoint_interval = config.window_checkpoint;
    options.max_checkpoints = size_t(config.max_checkpoints);
    topology->window_ = std::make_unique<stream::WindowManager>(
        &topology->sketch(), options);
  }
  return topology;
}

Status Topology::Push(const stream::Update* updates, size_t count) {
  // The sampler/recovery kinds CHECK index < n on every update; an
  // out-of-universe index must be an error before any state changes.
  if (universe_ != 0) {
    for (size_t i = 0; i < count; ++i) {
      if (updates[i].index >= universe_) {
        return Status::InvalidArgument(
            "update index " + std::to_string(updates[i].index) +
            " outside universe [0, " + std::to_string(universe_) + ")");
      }
    }
  }
  while (count > 0) {
    const size_t take =
        interval_ == 0
            ? count
            : size_t(std::min<uint64_t>(count, interval_ - fill_));
    if (pipeline_ != nullptr) {
      pipeline_->PushBatch(updates, take);
    } else if (window_ != nullptr) {
      window_->PushBatch(updates, take);
    } else {
      replicas_[0]->UpdateBatch(updates, take);
    }
    updates += take;
    count -= take;
    fill_ += take;
    updates_ += take;
    if (interval_ > 0 && fill_ == interval_) {
      const Status closed = EndEpoch(/*final_epoch=*/false);
      if (!closed.ok()) return closed;
    }
  }
  return Status::OK();
}

Status Topology::CloseEpoch() {
  if (fill_ == 0) return Status::OK();
  return EndEpoch(/*final_epoch=*/false);
}

Status Topology::Finish() { return EndEpoch(/*final_epoch=*/true); }

Status Topology::Fold(const LinearSketch& delta, uint64_t count) {
  const Status closed = CloseEpoch();
  if (!closed.ok()) return closed;
  replicas_[0]->Merge(delta);
  if (window_ != nullptr && count > 0) window_->SealEpoch(count);
  updates_ += count;
  return Status::OK();
}

Status Topology::EndEpoch(bool final_epoch) {
  const uint64_t count = fill_;
  fill_ = 0;
  // Inline ingest needs no merge, and an inline window seals its own
  // checkpoints as updates arrive.
  if (pipeline_ != nullptr && count > 0) {
    pipeline_->MergeShards();
    if (window_ != nullptr) window_->SealEpoch(count);
  }
  return on_epoch_ ? on_epoch_(count, final_epoch) : Status::OK();
}

}  // namespace lps
