// Shared machinery of the perfbench workloads: clocks, the result
// report, latency samples, the span tracer, the lps_serve child process,
// the deterministic update generator, and the scheduled read loop.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/server/client.h"
#include "src/server/protocol.h"
#include "src/server/tenant_registry.h"
#include "src/stream/update.h"
#include "src/util/status.h"

namespace perfbench {

/// Monotonic seconds.
double Now();
/// Sleeps until the monotonic clock reads `t` (returns at once if past).
void SleepUntil(double t);

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string serve_bin;  ///< path of the lps_serve binary under test
  std::string workdir;    ///< scratch directory inside the checkout
};

/// What one run prints: the metric set plus the failure accounting and
/// the correctness verdict.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// Marks the run incorrect (the correctness gate failed); logged.
  void Mismatch(const std::string& what);
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  void Failure(uint64_t n = 1) { failed_ += n; }
  bool correct() const { return correct_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  /// The final JSON line.
  std::string Json() const;

 private:
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

/// Human-readable progress line on stdout ("# ..."), never the last line.
void Note(const char* format, ...) __attribute__((format(printf, 1, 2)));

/// Latency samples in microseconds, in the order they were taken.
class Samples {
 public:
  void Add(double us) { values_.push_back(us); }
  void Append(const Samples& other);
  size_t size() const { return values_.size(); }
  /// The q-quantile (nearest rank).
  double Quantile(double q) const;
  /// The median of the p99s of up to ten consecutive groups of at least
  /// 1000 samples each, so that every group has ten samples beyond its
  /// p99 and one noisy stretch of a run moves the figure by one group.
  /// 0 with fewer than 1000 samples.
  double StableP99() const;

 private:
  std::vector<double> values_;
};

/// Sets `<prefix>_p50_us` in the report and prints it beside
/// `<prefix>_p99_us` (StableP99) and the sample count on a "#" line.
/// The p99 is not in the result: on a shared VM its run-to-run spread is
/// several times any regression bound. A p99 needs at least 1000 samples,
/// ten beyond it; with fewer the run is refused (returns false).
bool ReportPercentiles(const std::string& prefix, const Samples& samples,
                       Report* report);

/// Sets `<prefix>_p50_us` to the geometric mean of the medians of
/// `groups`, one group per stream or kind of request, and prints the
/// range of the group medians beside the pooled p50 and p99 on a "#"
/// line. Requests whose costs differ several-fold give a pooled median
/// that sits in the sparse gap between two groups' latencies and jumps
/// across it from run to run; each group's own median stays put, and a
/// change to any one group moves the geometric mean by the same share
/// whichever group it is.
void ReportGroupedP50(const std::string& prefix, const std::vector<Samples>& groups,
                      Report* report);

// ---------------------------------------------------------------- tracing --

/// Turns span recording on or off for spans opened afterwards.
void SetTracing(bool on);
bool Tracing();

/// RAII span around one call into a layer. Records (name, start, end,
/// parent) into a per-thread in-memory buffer when tracing is on; costs
/// one relaxed load otherwise. `name` must be a string literal.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int32_t index_ = -1;
};

struct SpanTotals {
  uint64_t count = 0;
  double total_s = 0;  ///< sum of span durations
  double self_s = 0;   ///< sum of durations minus child spans
};

/// Aggregates every recorded span by name, writes the raw spans (up to
/// 200000 of them) to `dump_path` (tab-separated: thread, id, parent,
/// name, start_ns, end_ns), and clears the buffers.
std::map<std::string, SpanTotals> CollectSpans(const std::string& dump_path);

// ----------------------------------------------------------------- daemon --

/// One lps_serve child process on an ephemeral loopback port.
class Daemon {
 public:
  /// Spawns `bin` with `--port 0` plus `extra_args` and waits for its
  /// "listening" line.
  static lps::Result<std::unique_ptr<Daemon>> Start(
      const std::string& bin, const std::vector<std::string>& extra_args);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int port() const { return port_; }
  /// Peak resident set (VmHWM) of the daemon so far, in MiB.
  double PeakRssMb() const;
  /// SIGTERM, drain its output, wait for exit. Idempotent.
  void Stop();

 private:
  Daemon() = default;
  pid_t pid_ = -1;
  int out_fd_ = -1;
  int port_ = 0;
};

/// Restricts the calling thread, and every thread and process it starts
/// afterwards, to the first `count` CPUs it may run on. Returns the CPU
/// list ("0,1").
std::string PinToFirstCpus(int count);

lps::Result<lps::server::Client> Connect(int port);

// -------------------------------------------------------------- generator --

/// SplitMix64: the benchmark's only source of randomness; every input is
/// a pure function of (--seed, stream name, position).
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// A deterministic update stream: index uniform in [0, n) except that a
/// `hot_share` of updates hit one of `hot_keys` fixed coordinates;
/// delta uniform in [-max_abs, max_abs] \ {0}, or [1, max_abs] when
/// `positive`.
class UpdateGen {
 public:
  struct Shape {
    uint64_t n = 1 << 16;
    int64_t max_abs = 8;
    bool positive = false;
    double hot_share = 0;
    uint64_t hot_keys = 0;
  };
  UpdateGen(uint64_t seed, Shape shape) : state_(Mix64(seed)), shape_(shape) {}
  void Fill(lps::stream::Update* out, size_t count);
  std::vector<lps::stream::Update> Batch(size_t count) {
    std::vector<lps::stream::Update> out(count);
    Fill(out.data(), count);
    return out;
  }

 private:
  uint64_t state_;
  Shape shape_;
};

/// Folds the spec seed and the first updates of the stream (seed, shape)
/// into `hash`; workloads print the result as "# inputs <hex>" so the
/// benchmark's self-check can show that inputs follow --seed.
uint64_t FingerprintInputs(uint64_t hash, uint64_t spec_seed, uint64_t gen_seed,
                           const UpdateGen::Shape& shape);

// ------------------------------------------------------------- read loop --

/// One scheduled read: a QUERY, or a WINDOW of length `w`.
struct ReadOp {
  bool window = false;
  std::string tenant;
  std::string key;
  uint64_t w = 0;
};

struct ReadStats {
  Samples query_us;   ///< QUERY latency from the due time (see IssueRead)
  Samples window_us;  ///< WINDOW latency from the due time
  Samples late_us;    ///< how late each request left versus its schedule
  std::vector<Samples> by_op;  ///< latency of ops[i], by i
  uint64_t attempted = 0;
  uint64_t failed = 0;        ///< RPC errors
  uint64_t answers = 0;       ///< answered reads
  uint64_t fail_answers = 0;  ///< answers that were the algorithm's FAIL
};

/// Issues ops[i % ops.size()] on one connection on an open-loop schedule
/// of Poisson arrivals with mean spacing `period_s`, until `min_ops`
/// reads are done and either `stop` is set or no stop flag was given.
/// A request that cannot leave on time leaves as soon as the previous
/// one returns; its latency still counts from its scheduled time, so a
/// stall shows in every request it delays. With period_s == 0 the loop
/// is closed: each read leaves as the previous one returns.
void ScheduledReads(lps::server::Client* client, const std::vector<ReadOp>& ops,
                    double period_s, size_t min_ops,
                    const std::atomic<bool>* stop, ReadStats* stats);

/// Issues ops[i % ops.size()] and records its latency, counted from
/// `due`, in `stats` (by_op[i % ops.size()] among them). A closed loop
/// passes the send time as `due`.
void IssueRead(lps::server::Client* client, const std::vector<ReadOp>& ops, size_t i,
               double due, ReadStats* stats);

/// Tops `stats` up with closed-loop reads of `ops` (which alternate QUERY
/// and WINDOW) until each has the 1000 samples a p99 needs. Only runs
/// shorter than a reader's schedule fills get here.
void TopUpReads(lps::server::Client* client, const std::vector<ReadOp>& ops,
                ReadStats* stats);

/// ReportGroupedP50 for `query` and `window` of a read loop over `ops`,
/// one group per op: each op is one request, repeated.
void ReportReadP50s(const std::vector<ReadOp>& ops, const ReadStats& reads,
                    Report* report);

// ------------------------------------------------------------------ gate --

/// The correctness gate for one served stream: the daemon's SNAPSHOT
/// must be bit-identical to the in-process reference registry's (same
/// config, same update count, same state words), its QUERY answer equal,
/// and for each length in `windows` its WINDOW answer and window state
/// equal. Mismatches mark the report incorrect; RPC errors count as
/// failed operations.
void CheckAgainstReference(lps::server::Client* client,
                           lps::server::TenantRegistry* reference,
                           const std::string& tenant, const std::string& key,
                           const std::vector<uint64_t>& windows,
                           Report* report);

/// Median of a small vector (copied).
double Median(std::vector<double> values);

}  // namespace perfbench
