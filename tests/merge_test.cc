// Merge-equivalence property tests for every LinearSketch implementer:
// splitting a stream across k shard replicas and merging them must
// reproduce single-stream ingestion. For structures whose counters live in
// exact arithmetic (GF(2^61-1) fingerprints/syndromes, or integer-valued
// doubles — integer stream deltas keep count-sketch/count-min/AMS counters
// integral, and integer doubles below 2^53 add exactly in any order) the
// serialized state must be BIT-IDENTICAL. Structures with genuinely
// real-valued counters (p-stable rows, the Lp sampler's t_i^{-1/p}-scaled
// count-sketch) are exact up to floating-point reassociation, so those
// assert identical query/sample results and ULP-scale state agreement.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "src/apps/moment_estimation.h"
#include "src/core/ako_sampler.h"
#include "src/core/fis_l0_sampler.h"
#include "src/core/l0_sampler.h"
#include "src/core/lp_sampler.h"
#include "src/duplicates/duplicates.h"
#include "src/duplicates/positive_finder.h"
#include "src/heavy/heavy_hitters.h"
#include "src/norm/l0_norm.h"
#include "src/norm/lp_norm.h"
#include "src/recovery/one_sparse.h"
#include "src/recovery/sparse_recovery.h"
#include "src/sketch/ams_f2.h"
#include "src/sketch/count_min.h"
#include "src/sketch/count_sketch.h"
#include "src/sketch/dyadic.h"
#include "src/sketch/stable_sketch.h"
#include "src/stream/generators.h"
#include "src/stream/linear_sketch.h"
#include "src/stream/parallel_pipeline.h"
#include "src/util/serialize.h"

namespace lps {
namespace {

using stream::ParallelPipeline;
using stream::UpdateStream;

constexpr uint64_t kN = 2048;
constexpr int kLogN = 11;

struct SerializedState {
  std::vector<uint64_t> words;
  size_t bits;
  bool operator==(const SerializedState& other) const {
    return bits == other.bits && words == other.words;
  }
};

SerializedState StateOf(const LinearSketch& sketch) {
  BitWriter writer;
  sketch.Serialize(&writer);
  return {writer.words(), writer.bit_count()};
}

/// Builds k replicas with `make`, ingests `stream` through an inline
/// (threads = 0) ParallelPipeline, merges, and returns replica 0 by value.
template <typename T, typename MakeFn>
T ShardedIngest(MakeFn make, const UpdateStream& stream, int k) {
  std::vector<T> replicas;
  replicas.reserve(static_cast<size_t>(k));
  for (int s = 0; s < k; ++s) replicas.push_back(make());
  std::vector<LinearSketch*> raw;
  for (auto& replica : replicas) raw.push_back(&replica);
  ParallelPipeline::Options options;
  options.shards = k;
  options.threads = 0;
  ParallelPipeline driver(options);
  driver.Add("sink", raw);
  driver.Drive(stream);
  driver.MergeShards();
  return std::move(replicas[0]);
}

/// Ingests the stream's even positions into one replica and its odd
/// positions into another, then merges them. Unlike the pipeline's
/// coordinate-sticky partition, this splits one coordinate's updates
/// across both replicas.
template <typename T, typename MakeFn>
T EvenOddMerge(MakeFn make, const UpdateStream& stream) {
  UpdateStream even, odd;
  for (size_t t = 0; t < stream.size(); ++t) {
    (t % 2 == 0 ? even : odd).push_back(stream[t]);
  }
  T merged = make(), other = make();
  merged.UpdateBatch(even.data(), even.size());
  other.UpdateBatch(odd.data(), odd.size());
  merged.Merge(other);
  return merged;
}

/// The exact-family property: sharded ingest + merge for k in {2, 3, 8},
/// and the even/odd two-replica merge, are bit-identical to solo ingest.
template <typename T, typename MakeFn>
void ExpectShardedBitIdentical(MakeFn make, const UpdateStream& stream) {
  T solo = make();
  solo.UpdateBatch(stream.data(), stream.size());
  const SerializedState want = StateOf(solo);
  for (int k : {2, 3, 8}) {
    T merged = ShardedIngest<T>(make, stream, k);
    EXPECT_TRUE(StateOf(merged) == want) << "k=" << k;
  }
  EXPECT_TRUE(StateOf(EvenOddMerge<T>(make, stream)) == want) << "even/odd";
}

UpdateStream StrictStream() {
  // Strict turnstile: positive deltas only.
  UpdateStream stream = stream::SparseVector(kN, 300, 50, 11);
  for (auto& u : stream) {
    if (u.delta < 0) u.delta = -u.delta;
    if (u.delta == 0) u.delta = 1;
  }
  return stream;
}

UpdateStream GeneralStream() {
  return stream::UniformTurnstile(kN, 5000, 100, 12);
}

TEST(MergeEquivalence, CountSketchBitIdentical) {
  for (const auto& stream : {StrictStream(), GeneralStream()}) {
    ExpectShardedBitIdentical<sketch::CountSketch>(
        [] { return sketch::CountSketch(9, 48, 21); }, stream);
  }
}

TEST(MergeEquivalence, CountMinBitIdentical) {
  for (const auto& stream : {StrictStream(), GeneralStream()}) {
    ExpectShardedBitIdentical<sketch::CountMin>(
        [] { return sketch::CountMin(9, 48, 22); }, stream);
  }
}

TEST(MergeEquivalence, AmsF2BitIdentical) {
  for (const auto& stream : {StrictStream(), GeneralStream()}) {
    ExpectShardedBitIdentical<sketch::AmsF2>(
        [] { return sketch::AmsF2(5, 8, 23); }, stream);
  }
}

TEST(MergeEquivalence, DyadicCountMinBitIdentical) {
  for (const auto& stream : {StrictStream(), GeneralStream()}) {
    ExpectShardedBitIdentical<sketch::DyadicCountMin>(
        [] { return sketch::DyadicCountMin(kLogN, 5, 32, 24); }, stream);
  }
}

TEST(MergeEquivalence, DyadicCountSketchBitIdentical) {
  for (const auto& stream : {StrictStream(), GeneralStream()}) {
    ExpectShardedBitIdentical<sketch::DyadicCountSketch>(
        [] { return sketch::DyadicCountSketch(kLogN, 5, 32, 25); }, stream);
  }
}

TEST(MergeEquivalence, L0EstimatorBitIdentical) {
  for (const auto& stream : {StrictStream(), GeneralStream()}) {
    ExpectShardedBitIdentical<norm::L0Estimator>(
        [] { return norm::L0Estimator(kN, 9, 26); }, stream);
  }
}

TEST(MergeEquivalence, OneSparseBitIdentical) {
  for (const auto& stream : {StrictStream(), GeneralStream()}) {
    ExpectShardedBitIdentical<recovery::OneSparse>(
        [] { return recovery::OneSparse(kN, 27); }, stream);
  }
}

TEST(MergeEquivalence, SparseRecoveryBitIdentical) {
  for (const auto& stream : {StrictStream(), GeneralStream()}) {
    ExpectShardedBitIdentical<recovery::SparseRecovery>(
        [] { return recovery::SparseRecovery(kN, 12, 28); }, stream);
  }
}

TEST(MergeEquivalence, L0SamplerBitIdentical) {
  for (const auto& stream : {StrictStream(), GeneralStream()}) {
    ExpectShardedBitIdentical<core::L0Sampler>(
        [] { return core::L0Sampler({kN, 0.25, 0, 29, false}); }, stream);
  }
}

TEST(MergeEquivalence, FisL0SamplerBitIdentical) {
  for (const auto& stream : {StrictStream(), GeneralStream()}) {
    ExpectShardedBitIdentical<core::FisL0Sampler>(
        [] { return core::FisL0Sampler(kN, 30); }, stream);
  }
}

TEST(MergeEquivalence, CmHeavyHittersBitIdentical) {
  for (const auto& stream : {StrictStream(), GeneralStream()}) {
    ExpectShardedBitIdentical<heavy::CmHeavyHitters>(
        [] {
          heavy::CmHeavyHitters::Params params;
          params.n = kN;
          params.phi = 0.1;
          params.seed = 31;
          return heavy::CmHeavyHitters(params);
        },
        stream);
  }
}

TEST(MergeEquivalence, DyadicHeavyHittersBitIdentical) {
  for (const auto& stream : {StrictStream(), GeneralStream()}) {
    ExpectShardedBitIdentical<heavy::DyadicHeavyHitters>(
        [] { return heavy::DyadicHeavyHitters(kLogN, 0.1, 32); }, stream);
  }
}

TEST(MergeEquivalence, CsHeavyHittersStrictTurnstileBitIdentical) {
  // Strict turnstile at p = 1 uses the exact running sum instead of a
  // stable-norm sketch, so every counter stays integer-valued and the
  // sharded state is bit-identical.
  ExpectShardedBitIdentical<heavy::CsHeavyHitters>(
      [] {
        heavy::CsHeavyHitters::Params params;
        params.n = kN;
        params.p = 1.0;
        params.phi = 0.1;
        params.strict_turnstile = true;
        params.seed = 33;
        return heavy::CsHeavyHitters(params);
      },
      StrictStream());
}

TEST(MergeEquivalence, PositiveFinderSampleAgreement) {
  // The sampler component's counters are t^{-1}-scaled reals, so state is
  // equal only up to reassociation — the query outcomes must still agree.
  const auto stream = GeneralStream();
  auto make = [] {
    return duplicates::PositiveFinder(
        duplicates::PositiveFinder::Params{kN, 4, 0.2, 8, 34});
  };
  auto solo = make();
  solo.UpdateBatch(stream.data(), stream.size());
  for (int k : {2, 8}) {
    auto merged = ShardedIngest<duplicates::PositiveFinder>(make, stream, k);
    EXPECT_EQ(solo.Deficit(), merged.Deficit());
    const auto a = solo.Find();
    const auto b = merged.Find();
    EXPECT_EQ(static_cast<int>(a.kind), static_cast<int>(b.kind));
    if (a.kind == duplicates::PositiveFinder::Kind::kFound) {
      EXPECT_EQ(a.index, b.index);
    }
  }
}

// ------------------------------------------------- floating-point family --

TEST(MergeEquivalence, StableSketchQueryAgreement) {
  const auto stream = GeneralStream();
  auto make = [] { return sketch::StableSketch(1.0, 48, 35); };
  auto solo = make();
  solo.UpdateBatch(stream.data(), stream.size());
  for (int k : {2, 3, 8}) {
    auto merged = ShardedIngest<sketch::StableSketch>(make, stream, k);
    EXPECT_NEAR(merged.EstimateNorm(), solo.EstimateNorm(),
                1e-9 * std::abs(solo.EstimateNorm()));
  }
}

TEST(MergeEquivalence, LpNormEstimatorQueryAgreement) {
  const auto stream = GeneralStream();
  auto make = [] { return norm::LpNormEstimator(1.0, 64, 36); };
  auto solo = make();
  solo.UpdateBatch(stream.data(), stream.size());
  auto merged = EvenOddMerge<norm::LpNormEstimator>(make, stream);
  EXPECT_NEAR(merged.Estimate2Approx(), solo.Estimate2Approx(),
              1e-9 * solo.Estimate2Approx());
}

TEST(MergeEquivalence, LpSamplerSampleAgreement) {
  const auto stream = GeneralStream();
  auto make = [] {
    core::LpSamplerParams params;
    params.n = kN;
    params.p = 1.0;
    params.eps = 0.25;
    params.repetitions = 8;
    params.seed = 37;
    return core::LpSampler(params);
  };
  auto solo = make();
  solo.UpdateBatch(stream.data(), stream.size());
  const auto want = solo.Sample();
  for (int k : {2, 3, 8}) {
    auto merged = ShardedIngest<core::LpSampler>(make, stream, k);
    const auto got = merged.Sample();
    ASSERT_EQ(want.ok(), got.ok());
    if (want.ok()) {
      EXPECT_EQ(want.value().index, got.value().index);
      EXPECT_NEAR(want.value().estimate, got.value().estimate,
                  1e-6 * std::abs(want.value().estimate));
    }
  }
}

TEST(MergeEquivalence, AkoSamplerSampleAgreement) {
  const auto stream = GeneralStream();
  auto make = [] {
    core::LpSamplerParams params;
    params.n = kN;
    params.p = 1.0;
    params.eps = 0.25;
    params.repetitions = 8;
    params.seed = 37;
    return core::AkoSampler(params);
  };
  auto solo = make();
  solo.UpdateBatch(stream.data(), stream.size());
  const auto want = solo.Sample();
  ASSERT_TRUE(want.ok());
  const auto got = EvenOddMerge<core::AkoSampler>(make, stream).Sample();
  ASSERT_EQ(want.ok(), got.ok());
  if (want.ok()) {
    EXPECT_EQ(want.value().index, got.value().index);
    EXPECT_NEAR(want.value().estimate, got.value().estimate,
                1e-6 * std::abs(want.value().estimate));
  }
}

TEST(MergeEquivalence, MomentEstimatorEstimateAgreement) {
  const auto stream = GeneralStream();
  auto make = [] {
    apps::MomentEstimator::Params params;
    params.n = kN;
    params.p = 3.0;
    params.samples = 6;
    params.seed = 51;
    return apps::MomentEstimator(params);
  };
  auto solo = make();
  solo.UpdateBatch(stream.data(), stream.size());
  const auto want = solo.Estimate();
  ASSERT_TRUE(want.ok());
  for (int k : {2, 8}) {
    auto merged = ShardedIngest<apps::MomentEstimator>(make, stream, k);
    const auto got = merged.Estimate();
    ASSERT_EQ(want.ok(), got.ok());
    if (want.ok()) {
      EXPECT_NEAR(want.value(), got.value(), 1e-6 * std::abs(want.value()));
    }
  }
}

TEST(MergeEquivalence, CsHeavyHittersGeneralQueryAgreement) {
  const auto stream = stream::PlantedHeavyHitters(kN, 4, 2000, 40, true, 38);
  auto make = [] {
    heavy::CsHeavyHitters::Params params;
    params.n = kN;
    params.p = 1.5;
    params.phi = 0.2;
    params.norm_rows = 96;
    params.seed = 38;
    return heavy::CsHeavyHitters(params);
  };
  auto solo = make();
  solo.UpdateBatch(stream.data(), stream.size());
  for (int k : {2, 8}) {
    auto merged = ShardedIngest<heavy::CsHeavyHitters>(make, stream, k);
    EXPECT_EQ(solo.Query(), merged.Query());
  }
}

TEST(MergeEquivalence, DuplicateFinderFindAgreement) {
  // Letter stream as (letter, +1) updates; each replica starts from the
  // built-in (i, -1) initialization and Merge cancels the duplicates.
  const uint64_t n = 512;
  const auto letters = stream::DuplicateStream(n, 6, 39);
  UpdateStream stream;
  for (uint64_t l : letters) stream.push_back({l, +1});
  auto make = [n] {
    return duplicates::DuplicateFinder(
        duplicates::DuplicateFinder::Params{n, 0.2, 8, 40});
  };
  auto solo = make();
  solo.UpdateBatch(stream.data(), stream.size());
  const auto want = solo.Find();
  for (int k : {2, 3}) {
    auto merged = ShardedIngest<duplicates::DuplicateFinder>(make, stream, k);
    const auto got = merged.Find();
    ASSERT_EQ(want.ok(), got.ok());
    if (want.ok()) {
      EXPECT_EQ(want.value(), got.value());
    }
  }
}

TEST(MergeEquivalence, SparseDuplicateFinderFindAgreement) {
  // Length n - s letter streams; 3 duplicates decide by exact recovery,
  // 120 overflow its budget and fall back to the sampler. Each replica
  // carries the (i, -1) initialization and Merge cancels the extra copies.
  const uint64_t n = 512, s = 20;
  for (uint64_t dups : {3, 120}) {
    UpdateStream stream;
    for (uint64_t l : stream::ShortStreamWithDuplicates(n, s, dups, 52)) {
      stream.push_back({l, +1});
    }
    auto make = [n, s] {
      return duplicates::SparseDuplicateFinder(
          duplicates::SparseDuplicateFinder::Params{n, s, 0.2, 8, 53});
    };
    auto solo = make();
    solo.UpdateBatch(stream.data(), stream.size());
    const auto want = solo.Find();
    ASSERT_EQ(want.kind, duplicates::SparseDuplicateFinder::Kind::kDuplicate);
    ASSERT_EQ(want.exact, dups == 3);
    for (int k : {2, 3}) {
      auto merged = ShardedIngest<duplicates::SparseDuplicateFinder>(
          make, stream, k);
      const auto got = merged.Find();
      EXPECT_EQ(static_cast<int>(want.kind), static_cast<int>(got.kind))
          << "dups=" << dups << " k=" << k;
      EXPECT_EQ(want.duplicate, got.duplicate);
      EXPECT_EQ(want.exact, got.exact);
    }
  }
}

// ----------------------------------------------------------- edge cases --

TEST(MergeEquivalence, EmptyShardsAreIdentity) {
  // 3 updates over 8 shards: most replicas never see an update, and merging
  // their zero states must not perturb the result.
  UpdateStream tiny = {{5, 7}, {900, -3}, {5, 1}};
  ExpectShardedBitIdentical<sketch::CountSketch>(
      [] { return sketch::CountSketch(7, 24, 41); }, tiny);
  ExpectShardedBitIdentical<recovery::SparseRecovery>(
      [] { return recovery::SparseRecovery(kN, 4, 42); }, tiny);
  ExpectShardedBitIdentical<norm::L0Estimator>(
      [] { return norm::L0Estimator(kN, 5, 43); }, tiny);
}

TEST(MergeEquivalence, WhollyEmptyStream) {
  const UpdateStream empty;
  ExpectShardedBitIdentical<sketch::CountMin>(
      [] { return sketch::CountMin(5, 16, 44); }, empty);
}

TEST(MergeEquivalence, MergeIsCounterAddition) {
  sketch::CountSketch a(7, 24, 45), b(7, 24, 45), both(7, 24, 45);
  a.Update(3, 10.0);
  b.Update(900, -4.0);
  both.Update(3, 10.0);
  both.Update(900, -4.0);
  a.Merge(b);
  EXPECT_TRUE(StateOf(a) == StateOf(both));
  EXPECT_DOUBLE_EQ(a.Query(3), both.Query(3));
}

TEST(MergeEquivalence, ResetRestoresFreshState) {
  auto check = [](auto make) {
    auto used = make();
    const auto stream = GeneralStream();
    used.UpdateBatch(stream.data(), stream.size());
    used.Reset();
    auto fresh = make();
    EXPECT_TRUE(StateOf(used) == StateOf(fresh));
  };
  check([] { return sketch::CountSketch(9, 48, 46); });
  check([] { return norm::L0Estimator(kN, 9, 47); });
  check([] { return core::L0Sampler(core::L0SamplerParams{kN, 0.25, 0, 48,
                                                          false}); });
}

TEST(MergeEquivalence, DuplicateFinderResetRestoresInitialization) {
  const uint64_t n = 256;
  duplicates::DuplicateFinder::Params params{n, 0.2, 6, 49};
  duplicates::DuplicateFinder used(params);
  used.ProcessItem(7);
  used.ProcessItem(7);
  used.Reset();
  duplicates::DuplicateFinder fresh(params);
  EXPECT_TRUE(StateOf(used) == StateOf(fresh));
}

TEST(MergeDeathTest, SeedMismatchChecks) {
  sketch::CountSketch a(7, 24, 1), b(7, 24, 2);
  EXPECT_DEATH(a.Merge(b), "LPS_CHECK");
}

TEST(MergeDeathTest, ShapeMismatchChecks) {
  sketch::CountSketch a(7, 24, 1), b(9, 24, 1);
  EXPECT_DEATH(a.Merge(b), "LPS_CHECK");
}

TEST(MergeDeathTest, CrossTypeMergeChecks) {
  sketch::CountSketch a(7, 24, 1);
  sketch::CountMin b(7, 24, 1);
  EXPECT_DEATH(a.Merge(b), "LPS_CHECK");
}

TEST(MergeDeathTest, SamplerParamMismatchChecks) {
  core::L0Sampler a({kN, 0.25, 0, 1, false});
  core::L0Sampler b({kN, 0.25, 0, 2, false});
  EXPECT_DEATH(a.Merge(b), "LPS_CHECK");
}

}  // namespace
}  // namespace lps
