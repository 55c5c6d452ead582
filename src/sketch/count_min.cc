#include "src/sketch/count_min.h"

#include <algorithm>

#include "src/kernels/kernels.h"
#include "src/util/check.h"
#include "src/util/random.h"

namespace lps::sketch {

CountMin::CountMin(int rows, int buckets, uint64_t seed)
    : rows_(rows), buckets_(buckets), seed_(seed),
      table_(static_cast<size_t>(rows) * static_cast<size_t>(buckets), 0.0) {
  LPS_CHECK(rows >= 1 && buckets >= 1);
  bucket_.reserve(static_cast<size_t>(rows));
  for (int j = 0; j < rows; ++j) {
    bucket_.emplace_back(2, Mix64(seed ^ (0x5150ULL + static_cast<uint64_t>(j))));
  }
}

void CountMin::Update(uint64_t i, double delta) {
  const stream::ScaledUpdate u{i, delta};
  UpdateBatch(&u, 1);
}

template <typename U>
void CountMin::ApplyBatch(const U* updates, size_t count) {
  reduced_keys_.resize(count);
  delta_scratch_.resize(count);
  for (size_t t = 0; t < count; ++t) {
    reduced_keys_[t] = gf61::Reduce(updates[t].index);
    delta_scratch_[t] = static_cast<double>(updates[t].delta);
  }
  const uint64_t range = static_cast<uint64_t>(buckets_);
  const kernels::KernelTable& kernel = kernels::Active();
  for (int j = 0; j < rows_; ++j) {
    const size_t jj = static_cast<size_t>(j);
    const auto& bc = bucket_[jj].coefficients();
    double* row = table_.data() + jj * static_cast<size_t>(buckets_);
    // Unsigned pairwise row (the constructor builds degree-2 hashes) on the
    // dispatched kernel: bit-identical on every backend, the scatter is in
    // stream order.
    kernel.count_rows_apply(reduced_keys_.data(), delta_scratch_.data(),
                            count, bc[0], bc[1], /*s0=*/0, /*s1=*/0,
                            /*use_sign=*/false, range, row);
  }
}

void CountMin::UpdateBatch(const stream::ScaledUpdate* updates, size_t count) {
  ApplyBatch(updates, count);
}

void CountMin::UpdateBatch(const stream::Update* updates, size_t count) {
  ApplyBatch(updates, count);
}

double CountMin::QueryMin(uint64_t i) const {
  double best = 0;
  for (int j = 0; j < rows_; ++j) {
    const size_t jj = static_cast<size_t>(j);
    const uint64_t k = bucket_[jj].Range(i, static_cast<uint64_t>(buckets_));
    const double v = table_[jj * static_cast<size_t>(buckets_) + k];
    best = (j == 0) ? v : std::min(best, v);
  }
  return best;
}

double CountMin::QueryMedian(uint64_t i) const {
  std::vector<double> estimates(static_cast<size_t>(rows_));
  for (int j = 0; j < rows_; ++j) {
    const size_t jj = static_cast<size_t>(j);
    const uint64_t k = bucket_[jj].Range(i, static_cast<uint64_t>(buckets_));
    estimates[jj] = table_[jj * static_cast<size_t>(buckets_) + k];
  }
  const size_t mid = estimates.size() / 2;
  std::nth_element(estimates.begin(),
                   estimates.begin() + static_cast<int64_t>(mid),
                   estimates.end());
  double median = estimates[mid];
  if (estimates.size() % 2 == 0) {
    const double lower = *std::max_element(
        estimates.begin(), estimates.begin() + static_cast<int64_t>(mid));
    median = (median + lower) / 2;
  }
  return median;
}

void CountMin::SerializeCounters(BitWriter* writer) const {
  for (double counter : table_) writer->WriteDouble(counter);
}

void CountMin::DeserializeCounters(BitReader* reader) {
  for (double& counter : table_) counter = reader->ReadDouble();
}

void CountMin::MergeSigned(const LinearSketch& other, int sign) {
  const auto* o = dynamic_cast<const CountMin*>(&other);
  LPS_CHECK(o != nullptr);
  LPS_CHECK(o->rows_ == rows_ && o->buckets_ == buckets_ &&
            o->seed_ == seed_);
  for (size_t c = 0; c < table_.size(); ++c) table_[c] += sign * o->table_[c];
}

void CountMin::Serialize(BitWriter* writer) const {
  WriteSketchHeader(writer, kind());
  writer->WriteBits(static_cast<uint64_t>(rows_), 32);
  writer->WriteBits(static_cast<uint64_t>(buckets_), 32);
  writer->WriteU64(seed_);
  SerializeCounters(writer);
}

void CountMin::Deserialize(BitReader* reader) {
  ReadSketchHeader(reader, kind());
  const int rows = static_cast<int>(reader->ReadBits(32));
  const int buckets = static_cast<int>(reader->ReadBits(32));
  const uint64_t seed = reader->ReadU64();
  *this = CountMin(rows, buckets, seed);
  DeserializeCounters(reader);
}

void CountMin::Reset() {
  std::fill(table_.begin(), table_.end(), 0.0);
}

size_t CountMin::SpaceBits(int bits_per_counter) const {
  size_t bits = table_.size() * static_cast<size_t>(bits_per_counter);
  for (const auto& h : bucket_) bits += h.SeedBits();
  return bits;
}

}  // namespace lps::sketch
