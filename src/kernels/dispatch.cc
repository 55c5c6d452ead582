// One-time runtime backend dispatch.
//
// The first Active() call resolves the backend: AVX2 when it was compiled
// in (its getter returns nullptr without -mavx2, off x86, or with
// LPS_DISABLE_SIMD) and this CPU runs it (__builtin_cpu_supports), else
// the scalar reference. LPS_KERNELS=scalar in the environment forces the
// scalar reference, and the winning table is published through an atomic
// pointer.
// Every later call is a single acquire load, so the dispatch adds nothing
// measurable to an UpdateBatch.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/kernels/backends.h"

namespace lps::kernels {

namespace {

/// The backend's table when it is both compiled in and runnable here.
const KernelTable* UsableTable(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return internal::ScalarTable();
    case Backend::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      if (__builtin_cpu_supports("avx2")) return internal::Avx2Table();
#endif
      return nullptr;
  }
  return nullptr;
}

const KernelTable* Widest() {
  if (const KernelTable* t = UsableTable(Backend::kAvx2)) return t;
  return internal::ScalarTable();
}

const KernelTable* ResolveFromEnvironment() {
  const char* request = std::getenv("LPS_KERNELS");
  if (request == nullptr || *request == '\0') return Widest();
  if (std::strcmp(request, "scalar") == 0) return internal::ScalarTable();
  std::fprintf(stderr,
               "lps kernels: unknown LPS_KERNELS=%s (want scalar); using %s\n",
               request, BackendName(Widest()->backend));
  return Widest();
}

std::atomic<const KernelTable*> g_active{nullptr};

const KernelTable* DispatchOnce() {
  const KernelTable* resolved = ResolveFromEnvironment();
  const KernelTable* expected = nullptr;
  // Racing first calls may each resolve (idempotently, same answer); the
  // first store wins and everyone returns the published table.
  g_active.compare_exchange_strong(expected, resolved,
                                   std::memory_order_acq_rel);
  return g_active.load(std::memory_order_acquire);
}

}  // namespace

const char* BackendName(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kAvx2:
      return "avx2";
  }
  return "unknown";
}

const KernelTable& Active() {
  const KernelTable* table = g_active.load(std::memory_order_acquire);
  if (table != nullptr) return *table;
  return *DispatchOnce();
}

Backend ActiveBackend() { return Active().backend; }

const char* ActiveBackendName() { return BackendName(ActiveBackend()); }

std::vector<Backend> AvailableBackends() {
  std::vector<Backend> available = {Backend::kScalar};
  if (UsableTable(Backend::kAvx2) != nullptr) {
    available.push_back(Backend::kAvx2);
  }
  return available;
}

bool ForceBackendForTesting(Backend backend) {
  const KernelTable* table = UsableTable(backend);
  if (table == nullptr) return false;
  g_active.store(table, std::memory_order_release);
  return true;
}

}  // namespace lps::kernels
