// The update-stream model of the paper (Section 1, Notation): a stream of
// tuples (i, u) with i in [n] and integer u, implicitly defining x in Z^n
// where each update adds u to x_i. In the strict turnstile model all
// coordinates are non-negative at the end of the stream; in the general
// model they may be arbitrary.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace lps::stream {

struct Update {
  uint64_t index;  ///< coordinate in [0, n)
  int64_t delta;   ///< integer update value u
};

using UpdateStream = std::vector<Update>;

/// Updates per UpdateBatch call on the library's ingest paths
/// (ParallelPipeline, StreamFeeder) and in the examples: 4096 x 16 bytes
/// = 64 KiB, which fits L2 alongside the sinks' tables without thrashing
/// L1. Chunking never changes exact-arithmetic state; the floating-point
/// kinds under SIMD kernels can differ in low-order bits when it moves.
inline constexpr size_t kDefaultBatchSize = 4096;

/// An update with a real-valued delta: what the sketches below the sampler
/// layer actually ingest, because the Lp sampler feeds them the *scaled*
/// vector z_i = x_i / t_i^{1/p}. Batch entry points accept either flavor.
struct ScaledUpdate {
  uint64_t index;
  double delta;
};

}  // namespace lps::stream
