#include "src/duplicates/duplicates.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "src/util/bits.h"
#include "src/util/check.h"
#include "src/util/random.h"

namespace lps::duplicates {

namespace {

core::LpSamplerParams L1Params(uint64_t n, double delta, int repetitions,
                               uint64_t seed) {
  core::LpSamplerParams params;
  params.n = n;
  params.p = 1.0;
  // Theorem 3 runs the sampler with relative error 1/2; each round that
  // recovers yields a positive estimate with constant probability, so
  // O(log 1/delta) *productive* rounds suffice.
  params.eps = 0.5;
  params.delta = delta;
  params.repetitions = repetitions;
  params.seed = seed;
  return params;
}

// The reduction's initialization / its cancellation as one batch, so the
// constructor, Reset, and Merge all go through the vectorized fast path.
stream::UpdateStream ConstantStream(uint64_t n, int64_t delta) {
  stream::UpdateStream updates(n);
  for (uint64_t i = 0; i < n; ++i) updates[i] = {i, delta};
  return updates;
}

template <typename Sink>
void FeedInitialMinusOnes(uint64_t n, Sink* sink) {
  const stream::UpdateStream init = ConstantStream(n, -1);
  sink->UpdateBatch(init.data(), init.size());
}

}  // namespace

DuplicateFinder::DuplicateFinder(Params params)
    : params_(params),
      sampler_(L1Params(params.n, params.delta, params.repetitions,
                        params.seed)) {
  FeedInitialMinusOnes(params.n, &sampler_);
}

void DuplicateFinder::MergeSigned(const LinearSketch& other, int sign) {
  const auto* o = dynamic_cast<const DuplicateFinder*>(&other);
  LPS_CHECK(o != nullptr);
  LPS_CHECK(o->params_.n == params_.n && o->params_.delta == params_.delta &&
            o->params_.repetitions == params_.repetitions &&
            o->params_.seed == params_.seed);
  sampler_.MergeSigned(o->sampler_, sign);
  // Both replicas fed the (i, -1) initialization at construction: a merge
  // holds two copies and a subtraction none, so adding `sign` to every
  // coordinate leaves exactly one — init + (lettersA +- lettersB), a
  // well-formed finder over the combined letter multiset (for a window,
  // exactly the letters the window saw).
  const stream::UpdateStream fix = ConstantStream(params_.n, sign);
  sampler_.UpdateBatch(fix.data(), fix.size());
}

void DuplicateFinder::Serialize(BitWriter* writer) const {
  WriteSketchHeader(writer, kind());
  writer->WriteU64(params_.n);
  writer->WriteDouble(params_.delta);
  writer->WriteBits(static_cast<uint64_t>(params_.repetitions), 32);
  writer->WriteU64(params_.seed);
  SerializeCounters(writer);
}

void DuplicateFinder::Deserialize(BitReader* reader) {
  ReadSketchHeader(reader, kind());
  Params params;
  params.n = reader->ReadU64();
  params.delta = reader->ReadDouble();
  params.repetitions = static_cast<int>(reader->ReadBits(32));
  params.seed = reader->ReadU64();
  // Rebuild the sampler directly instead of through the constructor: the
  // (i, -1) initialization it would feed is overwritten by the restored
  // counters anyway, and skipping it keeps load O(state), not O(n).
  params_ = params;
  sampler_ = core::LpSampler(
      L1Params(params.n, params.delta, params.repetitions, params.seed));
  DeserializeCounters(reader);
}

void DuplicateFinder::Reset() {
  sampler_.Reset();
  FeedInitialMinusOnes(params_.n, &sampler_);
}

Result<uint64_t> DuplicateFinder::Find() const {
  // Scan the sampler's rounds: the first recovered sample with a positive
  // estimate is a duplicate (x_i >= 1 there unless the estimate's sign is
  // wrong, a low-probability event). Rounds with negative estimates are
  // treated as this trial's FAIL, exactly as in Theorem 3's proof.
  const double r = sampler_.NormEstimate();
  if (r <= 0) return Status::Failed("zero norm estimate");
  for (int v = 0; v < sampler_.repetitions(); ++v) {
    auto res = sampler_.round(v).Recover(r);
    if (res.ok() && res.value().estimate > 0) return res.value().index;
  }
  return Status::Failed("no positive sample");
}

SparseDuplicateFinder::SparseDuplicateFinder(Params params)
    : params_(params),
      recovery_(params.n, std::max<uint64_t>(2, 5 * params.s),
                Mix64(params.seed ^ 0xdead5ULL)),
      // The DENSE fallback only guarantees a 2/5 positive fraction (vs
      // Theorem 3's > 1/2), so the sampler gets a halved delta budget —
      // i.e. ~50% more rounds — to hold the overall failure at delta.
      sampler_(L1Params(params.n, params.delta / 2, params.repetitions,
                        Mix64(params.seed ^ 0xdead6ULL))) {
  FeedInitialMinusOnes(params.n, &recovery_);
  FeedInitialMinusOnes(params.n, &sampler_);
}

void SparseDuplicateFinder::ProcessItem(uint64_t letter) {
  recovery_.Update(letter, +1);
  sampler_.Update(letter, +1);
}

void SparseDuplicateFinder::UpdateBatch(const stream::Update* updates,
                                        size_t count) {
  recovery_.UpdateBatch(updates, count);
  sampler_.UpdateBatch(updates, count);
}

void SparseDuplicateFinder::MergeSigned(const LinearSketch& other,
                                        int sign) {
  const auto* o = dynamic_cast<const SparseDuplicateFinder*>(&other);
  LPS_CHECK(o != nullptr);
  LPS_CHECK(o->params_.n == params_.n && o->params_.s == params_.s &&
            o->params_.delta == params_.delta &&
            o->params_.repetitions == params_.repetitions &&
            o->params_.seed == params_.seed);
  recovery_.MergeSigned(o->recovery_, sign);
  sampler_.MergeSigned(o->sampler_, sign);
  // Leave exactly one (i, -1) initialization (see DuplicateFinder).
  const stream::UpdateStream fix = ConstantStream(params_.n, sign);
  recovery_.UpdateBatch(fix.data(), fix.size());
  sampler_.UpdateBatch(fix.data(), fix.size());
}

void SparseDuplicateFinder::Serialize(BitWriter* writer) const {
  WriteSketchHeader(writer, kind());
  writer->WriteU64(params_.n);
  writer->WriteU64(params_.s);
  writer->WriteDouble(params_.delta);
  writer->WriteBits(static_cast<uint64_t>(params_.repetitions), 32);
  writer->WriteU64(params_.seed);
  recovery_.SerializeCounters(writer);
  sampler_.SerializeCounters(writer);
}

void SparseDuplicateFinder::Deserialize(BitReader* reader) {
  ReadSketchHeader(reader, kind());
  Params params;
  params.n = reader->ReadU64();
  params.s = reader->ReadU64();
  params.delta = reader->ReadDouble();
  params.repetitions = static_cast<int>(reader->ReadBits(32));
  params.seed = reader->ReadU64();
  // As in DuplicateFinder::Deserialize: skip the constructor's O(n)
  // initialization feed, which the restored counters would overwrite.
  // Member construction mirrors the constructor's seed derivation.
  params_ = params;
  recovery_ = recovery::SparseRecovery(params.n,
                                       std::max<uint64_t>(2, 5 * params.s),
                                       Mix64(params.seed ^ 0xdead5ULL));
  sampler_ = core::LpSampler(L1Params(params.n, params.delta / 2,
                                      params.repetitions,
                                      Mix64(params.seed ^ 0xdead6ULL)));
  recovery_.DeserializeCounters(reader);
  sampler_.DeserializeCounters(reader);
}

void SparseDuplicateFinder::Reset() {
  recovery_.Reset();
  sampler_.Reset();
  FeedInitialMinusOnes(params_.n, &recovery_);
  FeedInitialMinusOnes(params_.n, &sampler_);
}

SparseDuplicateFinder::Outcome SparseDuplicateFinder::Find() const {
  auto recovered = recovery_.Recover();
  if (recovered.ok()) {
    // Exact knowledge of x: any positive coordinate is a duplicate; no
    // positive coordinate certifies NO-DUPLICATE (probability 1 on
    // duplicate-free streams, whose x is exactly s-sparse).
    for (const auto& entry : recovered.value()) {
      if (entry.value > 0) return {Kind::kDuplicate, entry.index, true};
    }
    return {Kind::kNoDuplicate, 0, true};
  }
  // DENSE: ||x||_1^+ + ||x||_1^- > 5s while their difference is -s, so the
  // positive mass is > 2/5 of ||x||_1 and the sampler path fires.
  const double r = sampler_.NormEstimate();
  if (r > 0) {
    for (int v = 0; v < sampler_.repetitions(); ++v) {
      auto res = sampler_.round(v).Recover(r);
      if (res.ok() && res.value().estimate > 0) {
        return {Kind::kDuplicate, res.value().index, false};
      }
    }
  }
  return {Kind::kFail, 0, false};
}

size_t SparseDuplicateFinder::SpaceBits(int bits_per_counter) const {
  return recovery_.SpaceBits() + sampler_.SpaceBits(bits_per_counter);
}

OversampledDuplicateFinder::OversampledDuplicateFinder(Params params)
    : n_(params.n) {
  LPS_CHECK(params.s >= 1);
  const double ratio = static_cast<double>(params.n) /
                       static_cast<double>(params.s);
  const bool sample_positions =
      params.force_strategy == 1 ||
      (params.force_strategy == 0 &&
       ratio < static_cast<double>(CeilLog2(std::max<uint64_t>(params.n, 2))));
  if (sample_positions) {
    strategy_ = Strategy::kPositionSampling;
    const uint64_t length = params.n + params.s;
    const uint64_t k = 4 * static_cast<uint64_t>(std::ceil(ratio));
    Rng rng(params.seed);
    positions_.reserve(k);
    for (uint64_t j = 0; j < k; ++j) positions_.push_back(rng.Below(length));
    std::sort(positions_.begin(), positions_.end());
  } else {
    strategy_ = Strategy::kL1Sampler;
    finder_ = std::make_unique<DuplicateFinder>(DuplicateFinder::Params{
        params.n, params.delta, params.repetitions, params.seed});
  }
}

void OversampledDuplicateFinder::ProcessItem(uint64_t letter) {
  if (strategy_ == Strategy::kL1Sampler) {
    finder_->ProcessItem(letter);
    return;
  }
  // A watched letter re-appearing is a duplicate by construction (it was
  // sampled at a strictly earlier position).
  if (!found_.ok()) {
    auto it = watched_.find(letter);
    if (it != watched_.end()) found_ = letter;
  }
  while (next_position_ < positions_.size() &&
         positions_[next_position_] == clock_) {
    ++watched_[letter];
    ++next_position_;
  }
  ++clock_;
}

Result<uint64_t> OversampledDuplicateFinder::Find() const {
  if (strategy_ == Strategy::kL1Sampler) return finder_->Find();
  return found_;
}

size_t OversampledDuplicateFinder::SpaceBits(int bits_per_counter) const {
  if (strategy_ == Strategy::kL1Sampler) {
    return finder_->SpaceBits(bits_per_counter);
  }
  // Sampled positions plus watched letters, log n bits each.
  const size_t log_n = static_cast<size_t>(BitWidth(std::max<uint64_t>(n_, 2)));
  return (positions_.size() + watched_.size()) * log_n;
}

}  // namespace lps::duplicates
