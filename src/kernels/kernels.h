// The kernel layer: one SIMD surface for all 21 sketch kinds.
//
// Every structure in the library reduces its UpdateBatch hot loop to a
// handful of shared primitives — k-wise polynomial hashing over a key
// batch (Horner in GF(2^61 - 1)), signed count-sketch row scatter,
// GF(2^61 - 1) syndrome power chains, and the p-stable variate transform.
// This layer names those primitives once and provides a scalar reference
// backend plus an AVX2 backend behind a one-time runtime CPUID dispatch,
// so vectorizing a kernel here accelerates every sketch at once.
//
// Exactness taxonomy (enforced by tests/kernels_test.cc):
//   - kwise_horner_batch, gf61_mul_batch, count_rows_apply and
//     gf61_syndrome_batch are EXACT on every backend: field arithmetic is
//     integer, results are canonical elements of [0, p), and
//     count_rows_apply scatters in stream order, so whole-sketch state is
//     bit-identical no matter which backend ran.
//   - cauchy_pow_batch is exact-scalar for p != 1 on every backend; the
//     AVX2 p = 1 (Cauchy) path replaces libm's tan with a polynomial
//     sin(pi x) ratio and a vectorized accumulation order, so it is
//     query-equivalent (relative error ~1e-15, ULP-bounded by the tests)
//     but not bit-identical to scalar. The scalar backend is always
//     bit-identical to the pre-kernel-layer code.
//
// Backend selection: the first call to Active() picks AVX2 when it is
// compiled in and the CPU (__builtin_cpu_supports) runs it, else scalar;
// LPS_KERNELS=scalar in the environment forces the scalar reference (any
// other non-empty value logs a one-line stderr note and keeps that
// default). Tests and the bench backend sweep switch backends in-process
// with ForceBackendForTesting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace lps::kernels {

enum class Backend : int {
  kScalar = 0,
  kAvx2 = 2,
};

/// Stable lowercase name ("scalar", "avx2") — the vocabulary of
/// BENCH_throughput.json's "kernel_backend" field, `lps_cli version`, and
/// the lps_serve STATS report.
const char* BackendName(Backend backend);

/// One backend's implementation of every kernel. All function pointers are
/// always non-null; a backend that has no vector win for some kernel
/// installs the scalar reference.
struct KernelTable {
  Backend backend;

  /// out[t] = coeffs[k-1] * xs[t]^(k-1) + ... + coeffs[0] over
  /// GF(2^61 - 1), Horner from the leading coefficient; xs must already be
  /// reduced to [0, p). k >= 1. EXACT.
  void (*kwise_horner_batch)(const uint64_t* coeffs, size_t k,
                             const uint64_t* xs, size_t count, uint64_t* out);

  /// out[t] = a[t] * b[t] over GF(2^61 - 1); inputs in [0, p). EXACT.
  void (*gf61_mul_batch)(const uint64_t* a, const uint64_t* b, size_t count,
                         uint64_t* out);

  /// One pairwise count-sketch/count-min row over a whole batch:
  ///   k_t    = floor(PolyEval2(b0, b1, xs[t]) * range / p)
  ///   sign_t = use_sign ? (PolyEval2(s0, s1, xs[t]) & 1 ? +1 : -1) : +1
  ///   row[k_t] += sign_t * deltas[t]          (in stream order)
  /// The scatter is performed in t order on every backend, so the row is
  /// bit-identical to the scalar loop. EXACT.
  void (*count_rows_apply)(const uint64_t* xs, const double* deltas,
                           size_t count, uint64_t b0, uint64_t b1, uint64_t s0,
                           uint64_t s1, bool use_sign, uint64_t range,
                           double* row);

  /// Four interleaved syndrome power chains (sparse recovery, Lemma 5):
  ///   for r in [0, n): syndromes[r] += power[0] + ... + power[3];
  ///                    power[j] *= a[j]
  /// all over GF(2^61 - 1). Field addition is exact, so any order of the
  /// four-way sum yields identical syndromes. EXACT.
  void (*gf61_syndrome_batch)(uint64_t* syndromes, size_t n, uint64_t power[4],
                              const uint64_t a[4]);

  /// The stable-sketch row inner product: returns
  ///   init + sum_t Stable_p(row_base, keys[t]) * deltas[t]
  /// where Stable_p regenerates the (row, i) p-stable variate from
  /// Mix64(row_base ^ key) exactly like StableSketch::StableAtKeyed.
  /// Scalar backend: bit-identical to the historical loop. AVX2 backend:
  /// p = 1 uses a vectorized Cauchy transform (query-equivalent, see the
  /// taxonomy above); p != 1 falls back to the exact scalar loop.
  double (*cauchy_pow_batch)(double p, uint64_t row_base, const uint64_t* keys,
                             const double* deltas, size_t count, double init);
};

/// The dispatched kernel table. First call performs the one-time CPUID +
/// LPS_KERNELS selection; later calls are a single atomic load.
const KernelTable& Active();

/// Identity of the dispatched backend (for STATS, benches, logs).
Backend ActiveBackend();
const char* ActiveBackendName();

/// Every backend this binary can actually run: compiled in at build time
/// and supported by the current CPU. Always contains kScalar.
std::vector<Backend> AvailableBackends();

/// Re-points the dispatch at a specific backend so one process can compare
/// backends (kernels_test, the bench backend sweep). Returns false — and
/// leaves the dispatch unchanged — if the backend is not available.
bool ForceBackendForTesting(Backend backend);

}  // namespace lps::kernels
