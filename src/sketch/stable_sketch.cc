#include "src/sketch/stable_sketch.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>

#include "src/kernels/kernels.h"
#include "src/kernels/stable_transform.h"
#include "src/util/check.h"
#include "src/util/random.h"

namespace lps::sketch {

double StableFromUniforms(double p, double u1, double u2) {
  // The transform itself lives in the kernel layer (the batch kernels'
  // p != 1 fallback is this exact function); this wrapper keeps the
  // historical sketch-level API for queries, calibration and tests.
  return kernels::StableFromUniformsImpl(p, u1, u2);
}

double StableMedianAbs(double p) {
  LPS_CHECK(p > 0 && p <= 2);
  if (p == 1.0) return 1.0;  // median |Cauchy| = tan(pi/4)
  if (p == 2.0) return 0.6744897501960817;  // Phi^{-1}(0.75)
  // Sketches are built concurrently (server connections, epoch folds),
  // so the cache is locked; the value is deterministic, so two threads
  // that both miss compute the same median outside the lock.
  static std::mutex mutex;
  static std::map<double, double> cache;
  {
    std::lock_guard<std::mutex> lock(mutex);
    auto it = cache.find(p);
    if (it != cache.end()) return it->second;
  }
  // Deterministic offline calibration with a fixed seed; 200001 samples give
  // the median to ~3 decimal places, ample for a constant-factor estimator.
  Rng rng(0xace1dULL);
  const int kSamples = 200001;
  std::vector<double> values(kSamples);
  for (auto& value : values) {
    value = std::abs(
        StableFromUniforms(p, rng.NextDoublePositive(), rng.NextDoublePositive()));
  }
  auto mid = values.begin() + kSamples / 2;
  std::nth_element(values.begin(), mid, values.end());
  std::lock_guard<std::mutex> lock(mutex);
  cache[p] = *mid;
  return *mid;
}

StableSketch::StableSketch(double p, int rows, uint64_t seed)
    : p_(p), rows_(rows), seed_(seed), normalizer_(StableMedianAbs(p)),
      y_(static_cast<size_t>(rows), 0.0) {
  LPS_CHECK(p > 0 && p <= 2);
  LPS_CHECK(rows >= 1);
}

namespace {
// Key mixing multipliers of the (seed, row, i) hash behind StableAt.
constexpr uint64_t kRowMul = 0x9e3779b97f4a7c15ULL;
constexpr uint64_t kKeyMul = 0xc2b2ae3d27d4eb4fULL;
}  // namespace

double StableSketch::StableAt(int row, uint64_t i) const {
  return StableAtKeyed(row, i * kKeyMul);
}

double StableSketch::StableAtKeyed(int row, uint64_t key) const {
  // Two independent uniforms in (0,1] from a hash of (seed, row, i). The
  // same (row, i) always yields the same stable value, keeping the sketch
  // linear. `key` is i * kKeyMul, precomputed once per batch item.
  const uint64_t base =
      Mix64(seed_ ^ (static_cast<uint64_t>(row) * kRowMul) ^ key);
  uint64_t s = base;
  const uint64_t w1 = SplitMix64(s);
  const uint64_t w2 = SplitMix64(s);
  const double u1 = (static_cast<double>(w1 >> 11) + 1.0) * 0x1.0p-53;
  const double u2 = (static_cast<double>(w2 >> 11) + 1.0) * 0x1.0p-53;
  return StableFromUniforms(p_, u1, u2);
}

void StableSketch::Update(uint64_t i, double delta) {
  const stream::ScaledUpdate u{i, delta};
  UpdateBatch(&u, 1);
}

template <typename U>
void StableSketch::ApplyBatch(const U* updates, size_t count) {
  // Hoist the per-item work shared by all rows — the key product of the
  // (row, i) hash and the delta widening — so the row sweep is purely the
  // per-(row, item) mix + stable transform.
  key_scratch_.resize(count);
  delta_scratch_.resize(count);
  for (size_t t = 0; t < count; ++t) {
    key_scratch_[t] = updates[t].index * kKeyMul;
    delta_scratch_[t] = static_cast<double>(updates[t].delta);
  }
  const kernels::KernelTable& kernel = kernels::Active();
  for (int j = 0; j < rows_; ++j) {
    // The whole row inner product is one CauchyPowBatch call: the kernel
    // regenerates Stable_p(row, i) from row_base ^ key exactly like
    // StableAtKeyed and accumulates against the deltas. The scalar
    // backend is bit-identical to the historical loop; the AVX2 backend
    // vectorizes the p = 1 Cauchy transform (query-equivalent).
    const uint64_t row_base =
        seed_ ^ (static_cast<uint64_t>(j) * kRowMul);
    y_[static_cast<size_t>(j)] = kernel.cauchy_pow_batch(
        p_, row_base, key_scratch_.data(), delta_scratch_.data(), count,
        y_[static_cast<size_t>(j)]);
  }
}

void StableSketch::UpdateBatch(const stream::ScaledUpdate* updates,
                               size_t count) {
  ApplyBatch(updates, count);
}

void StableSketch::UpdateBatch(const stream::Update* updates, size_t count) {
  ApplyBatch(updates, count);
}

double StableSketch::EstimateNorm() const {
  std::vector<double> magnitudes(y_.size());
  for (size_t j = 0; j < y_.size(); ++j) magnitudes[j] = std::abs(y_[j]);
  auto mid = magnitudes.begin() + static_cast<int64_t>(magnitudes.size() / 2);
  std::nth_element(magnitudes.begin(), mid, magnitudes.end());
  return *mid / normalizer_;
}

void StableSketch::SerializeCounters(BitWriter* writer) const {
  for (double counter : y_) writer->WriteDouble(counter);
}

void StableSketch::DeserializeCounters(BitReader* reader) {
  for (double& counter : y_) counter = reader->ReadDouble();
}

void StableSketch::MergeSigned(const LinearSketch& other, int sign) {
  const auto* o = dynamic_cast<const StableSketch*>(&other);
  LPS_CHECK(o != nullptr);
  LPS_CHECK(o->p_ == p_ && o->rows_ == rows_ && o->seed_ == seed_);
  for (size_t j = 0; j < y_.size(); ++j) y_[j] += sign * o->y_[j];
}

void StableSketch::Serialize(BitWriter* writer) const {
  WriteSketchHeader(writer, kind());
  writer->WriteDouble(p_);
  writer->WriteBits(static_cast<uint64_t>(rows_), 32);
  writer->WriteU64(seed_);
  SerializeCounters(writer);
}

void StableSketch::Deserialize(BitReader* reader) {
  ReadSketchHeader(reader, kind());
  const double p = reader->ReadDouble();
  const int rows = static_cast<int>(reader->ReadBits(32));
  const uint64_t seed = reader->ReadU64();
  *this = StableSketch(p, rows, seed);
  DeserializeCounters(reader);
}

void StableSketch::Reset() { std::fill(y_.begin(), y_.end(), 0.0); }

size_t StableSketch::SpaceBits(int bits_per_counter) const {
  // Counters plus the 64-bit seed that generates the stable variables.
  return y_.size() * static_cast<size_t>(bits_per_counter) + 64;
}

}  // namespace lps::sketch
