#include "perfbench/src/harness.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <thread>

namespace perfbench {

using lps::server::Client;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SleepUntil(double t) {
  const double wait = t - Now();
  if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
}

// ----------------------------------------------------------------- report --

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  for (auto& metric : metrics_) {
    if (metric.first == name) {
      metric.second = {value, unit};
      return;
    }
  }
  metrics_.push_back({name, {value, unit}});
}

void Report::Mismatch(const std::string& what) {
  correct_ = false;
  std::printf("# MISMATCH %s\n", what.c_str());
}

std::string Report::Json() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& metric : metrics_) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metric.second.first);
    if (!first) out += ", ";
    first = false;
    out += "\"" + metric.first + "\": {\"value\": " + value + ", \"unit\": \"" +
           metric.second.second + "\"}";
  }
  out += "}}";
  return out;
}

void Note(const char* format, ...) {
  std::fputs("# ", stdout);
  va_list args;
  va_start(args, format);
  std::vprintf(format, args);
  va_end(args);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

// ---------------------------------------------------------------- samples --

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  size_t rank = size_t(std::ceil(q * double(sorted.size())));
  if (rank > 0) --rank;
  rank = std::min(rank, sorted.size() - 1);
  std::nth_element(sorted.begin(), sorted.begin() + long(rank), sorted.end());
  return sorted[rank];
}

double Samples::StableP99() const {
  const size_t groups = std::min<size_t>(10, values_.size() / 1000);
  if (groups == 0) return 0;
  std::vector<double> p99s;
  const size_t size = values_.size() / groups;
  for (size_t g = 0; g < groups; ++g) {
    Samples group;
    const auto first = values_.begin() + long(g * size);
    const auto last = g + 1 == groups ? values_.end() : first + long(size);
    group.values_.assign(first, last);
    p99s.push_back(group.Quantile(0.99));
  }
  return Median(p99s);
}

bool ReportPercentiles(const std::string& prefix, const Samples& samples,
                       Report* report) {
  const size_t n = samples.size();
  if (n < 1000) {
    std::fprintf(stderr,
                 "perfbench: %s has %zu samples; a p99 needs 1000 so that "
                 "ten lie beyond it\n",
                 prefix.c_str(), n);
    return false;
  }
  const double p50 = samples.Quantile(0.50);
  Note("%s_p50_us %.3f us, %s_p99_us %.3f us (%zu samples, p99 over %zu "
       "group(s) of >= 1000)",
       prefix.c_str(), p50, prefix.c_str(), samples.StableP99(), n,
       std::min<size_t>(10, n / 1000));
  report->Set(prefix + "_p50_us", p50, "us");
  return true;
}

void ReportGroupedP50(const std::string& prefix, const std::vector<Samples>& groups,
                      Report* report) {
  Samples pooled;
  std::vector<double> medians;
  double log_sum = 0;
  for (const Samples& group : groups) {
    if (group.size() == 0) continue;
    pooled.Append(group);
    medians.push_back(group.Quantile(0.50));
    log_sum += std::log(std::max(medians.back(), 1e-3));
  }
  if (medians.empty()) medians.push_back(0);
  const double p50 = std::exp(log_sum / double(medians.size()));
  std::sort(medians.begin(), medians.end());
  Note("%s_p50_us %.3f us: geometric mean of %zu group medians (%.3f to %.3f us); "
       "pooled p50 %.3f us, p99 %.3f us (%zu samples)",
       prefix.c_str(), p50, medians.size(), medians.front(), medians.back(),
       pooled.Quantile(0.50), pooled.StableP99(), pooled.size());
  report->Set(prefix + "_p50_us", p50, "us");
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

// ---------------------------------------------------------------- tracing --

namespace {

struct SpanRecord {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;
};

struct ThreadSpans {
  int id = 0;
  std::vector<SpanRecord> records;
  std::vector<int32_t> open;  // indices of the spans still running
};

std::atomic<bool> g_tracing{false};
std::mutex g_threads_mutex;
std::vector<std::unique_ptr<ThreadSpans>> g_threads;  // under the mutex
// Keeps a runaway trace from eating the machine; spans past the cap are
// timed by their parents only.
constexpr size_t kMaxSpansPerThread = size_t(1) << 21;
// Spans written to the dump file; the totals cover every recorded span.
constexpr size_t kMaxDumpedSpans = 200000;

ThreadSpans* LocalSpans() {
  thread_local ThreadSpans* local = nullptr;
  if (local == nullptr) {
    std::lock_guard<std::mutex> lock(g_threads_mutex);
    g_threads.push_back(std::make_unique<ThreadSpans>());
    g_threads.back()->id = int(g_threads.size()) - 1;
    g_threads.back()->records.reserve(1 << 16);
    local = g_threads.back().get();
  }
  return local;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void SetTracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool Tracing() { return g_tracing.load(std::memory_order_relaxed); }

Span::Span(const char* name) {
  if (!Tracing()) return;
  ThreadSpans* spans = LocalSpans();
  if (spans->records.size() >= kMaxSpansPerThread) return;
  const int32_t parent = spans->open.empty() ? -1 : spans->open.back();
  index_ = int32_t(spans->records.size());
  spans->records.push_back({name, NowNs(), 0, parent});
  spans->open.push_back(index_);
}

Span::~Span() {
  if (index_ < 0) return;
  ThreadSpans* spans = LocalSpans();
  spans->records[size_t(index_)].end_ns = NowNs();
  spans->open.pop_back();
}

std::map<std::string, SpanTotals> CollectSpans(const std::string& dump_path) {
  std::map<std::string, SpanTotals> totals;
  std::lock_guard<std::mutex> lock(g_threads_mutex);
  std::FILE* dump = std::fopen(dump_path.c_str(), "w");
  size_t dumped = 0;
  if (dump != nullptr) std::fputs("thread\tid\tparent\tname\tstart_ns\tend_ns\n", dump);
  for (const auto& thread : g_threads) {
    std::vector<int64_t> child_ns(thread->records.size(), 0);
    for (const SpanRecord& record : thread->records) {
      if (record.parent >= 0) {
        child_ns[size_t(record.parent)] += record.end_ns - record.start_ns;
      }
    }
    for (size_t i = 0; i < thread->records.size(); ++i) {
      const SpanRecord& record = thread->records[i];
      const int64_t duration = record.end_ns - record.start_ns;
      SpanTotals& total = totals[record.name];
      ++total.count;
      total.total_s += double(duration) * 1e-9;
      total.self_s += double(duration - child_ns[i]) * 1e-9;
      if (dump != nullptr && dumped++ < kMaxDumpedSpans) {
        std::fprintf(dump, "%d\t%zu\t%d\t%s\t%lld\t%lld\n", thread->id, i,
                     record.parent, record.name,
                     static_cast<long long>(record.start_ns),
                     static_cast<long long>(record.end_ns));
      }
    }
    thread->records.clear();
  }
  if (dump != nullptr) std::fclose(dump);
  return totals;
}

// ----------------------------------------------------------------- daemon --

lps::Result<std::unique_ptr<Daemon>> Daemon::Start(
    const std::string& bin, const std::vector<std::string>& extra_args) {
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    return lps::Status::Failed("pipe: " + std::string(std::strerror(errno)));
  }
  std::vector<std::string> argv_strings = {bin, "--port", "0"};
  argv_strings.insert(argv_strings.end(), extra_args.begin(), extra_args.end());
  std::vector<char*> argv;
  for (std::string& arg : argv_strings) argv.push_back(&arg[0]);
  argv.push_back(nullptr);

  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    return lps::Status::Failed("fork: " + std::string(std::strerror(errno)));
  }
  if (pid == 0) {
    // Never outlive the benchmark, even if it dies without Stop().
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    // Sockets the benchmark holds must not live on in the daemon.
    for (int fd = STDERR_FILENO + 1; fd < 1024; ++fd) ::close(fd);
    ::execv(bin.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  std::unique_ptr<Daemon> daemon(new Daemon());
  daemon->pid_ = pid;
  daemon->out_fd_ = pipe_fds[0];

  std::string line;
  const double deadline = Now() + 20.0;
  while (Now() < deadline) {
    pollfd waiter{daemon->out_fd_, POLLIN, 0};
    if (::poll(&waiter, 1, 100) <= 0) continue;
    char c = 0;
    if (::read(daemon->out_fd_, &c, 1) != 1) break;
    if (c != '\n') {
      line += c;
      continue;
    }
    const char* tag = "listening on 127.0.0.1:";
    const size_t at = line.find(tag);
    if (at != std::string::npos) {
      daemon->port_ = std::atoi(line.c_str() + at + std::strlen(tag));
      return daemon;
    }
    line.clear();
  }
  return lps::Status::Failed("lps_serve did not report a listening port");
}

Daemon::~Daemon() { Stop(); }

namespace {

/// The "VmHWM: <n> kB" line of a /proc status file, in MiB.
double ReadPeakRssMb(const std::string& status_path) {
  std::ifstream in(status_path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

}  // namespace

double Daemon::PeakRssMb() const {
  return ReadPeakRssMb("/proc/" + std::to_string(pid_) + "/status");
}

std::string PinToFirstCpus(int count) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return "all";
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  std::string list;
  for (int cpu = 0; cpu < CPU_SETSIZE && count > 0; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    CPU_SET(cpu, &chosen);
    list += (list.empty() ? "" : ",") + std::to_string(cpu);
    --count;
  }
  if (::sched_setaffinity(0, sizeof(chosen), &chosen) != 0) return "all";
  return list;
}

void Daemon::Stop() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  // Drain its shutdown report so a full pipe can never block its exit;
  // a daemon that has not exited after 60 s is killed.
  const double deadline = Now() + 60.0;
  char buffer[4096];
  for (;;) {
    pollfd waiter{out_fd_, POLLIN, 0};
    if (Now() > deadline) {
      ::kill(pid_, SIGKILL);
      break;
    }
    if (::poll(&waiter, 1, 100) <= 0) continue;
    if (::read(out_fd_, buffer, sizeof(buffer)) <= 0) break;
  }
  int status = 0;
  ::waitpid(pid_, &status, 0);
  ::close(out_fd_);
  pid_ = -1;
  out_fd_ = -1;
}

lps::Result<Client> Connect(int port) {
  return Client::Connect("127.0.0.1", port);
}

// -------------------------------------------------------------- generator --

void UpdateGen::Fill(lps::stream::Update* out, size_t count) {
  for (size_t t = 0; t < count; ++t) {
    const uint64_t a = Mix64(state_++);
    const uint64_t b = Mix64(a);
    uint64_t index = a % shape_.n;
    if (shape_.hot_keys > 0 &&
        double(b >> 11) * 0x1.0p-53 < shape_.hot_share) {
      index = Mix64(index % shape_.hot_keys) % shape_.n;
    }
    const int64_t magnitude = int64_t((b >> 1) % uint64_t(shape_.max_abs)) + 1;
    const bool negative = !shape_.positive && (b & 1);
    out[t] = {index, negative ? -magnitude : magnitude};
  }
}

uint64_t FingerprintInputs(uint64_t hash, uint64_t spec_seed, uint64_t gen_seed,
                           const UpdateGen::Shape& shape) {
  hash = Mix64(hash ^ spec_seed);
  UpdateGen gen(gen_seed, shape);
  for (const lps::stream::Update& u : gen.Batch(64)) {
    hash = Mix64(hash ^ u.index ^ (uint64_t(u.delta) << 40));
  }
  return hash;
}

// ------------------------------------------------------------- read loop --

void ScheduledReads(Client* client, const std::vector<ReadOp>& ops,
                    double period_s, size_t min_ops,
                    const std::atomic<bool>* stop, ReadStats* stats) {
  // Poisson arrivals at the mean period: a fixed period beats against
  // the writers' own cycles, so every read of a run would wait at the
  // same phase. The schedule is fixed, not drawn from the workload seed.
  uint64_t schedule_state = 0x5eedu;
  double next_due = Now();
  for (size_t i = 0;; ++i) {
    if (i >= min_ops && (stop == nullptr || stop->load())) break;
    // period 0 is a closed loop: each read leaves when the previous
    // one returned, and is timed from then.
    const double due = period_s > 0 ? next_due : Now();
    const double uniform =
        (double(Mix64(schedule_state++) >> 11) + 0.5) * 0x1.0p-53;
    next_due += -std::log(uniform) * period_s;
    SleepUntil(due);
    const double sent = Now();
    stats->late_us.Add((sent - due) * 1e6);
    IssueRead(client, ops, i, due, stats);
  }
}

void IssueRead(Client* client, const std::vector<ReadOp>& ops, size_t i, double due,
               ReadStats* stats) {
  const ReadOp& op = ops[i % ops.size()];
  stats->by_op.resize(ops.size());
  ++stats->attempted;
  lps::QueryResult result;
  bool ok = false;
  if (op.window) {
    Span span("server.Client::Window");
    auto reply = client->Window(op.tenant, op.key, op.w, false);
    if (reply.ok()) {
      result = reply->result;
      ok = true;
    }
  } else {
    Span span("server.Client::Query");
    auto reply = client->Query(op.tenant, op.key);
    if (reply.ok()) {
      result = *reply;
      ok = true;
    }
  }
  const double latency_us = (Now() - due) * 1e6;
  if (!ok) {
    ++stats->failed;
    return;
  }
  (op.window ? stats->window_us : stats->query_us).Add(latency_us);
  stats->by_op[i % ops.size()].Add(latency_us);
  ++stats->answers;
  if (result.type == lps::QueryResult::Type::kFailed) ++stats->fail_answers;
}

void ReportReadP50s(const std::vector<ReadOp>& ops, const ReadStats& reads,
                    Report* report) {
  std::vector<Samples> query, window;
  for (size_t i = 0; i < reads.by_op.size(); ++i) {
    (ops[i].window ? window : query).push_back(reads.by_op[i]);
  }
  ReportGroupedP50("query", query, report);
  ReportGroupedP50("window", window, report);
}

void TopUpReads(Client* client, const std::vector<ReadOp>& ops,
                ReadStats* stats) {
  const size_t have = std::min(stats->query_us.size(), stats->window_us.size());
  if (have < 1000) ScheduledReads(client, ops, 0, 2 * (1000 - have), nullptr, stats);
}

// ------------------------------------------------------------------ gate --

void CheckAgainstReference(Client* client,
                           lps::server::TenantRegistry* reference,
                           const std::string& tenant, const std::string& key,
                           const std::vector<uint64_t>& windows,
                           Report* report) {
  const std::string name = tenant + "/" + key;
  report->Attempt(2 + windows.size());
  auto served = client->Snapshot(tenant, key);
  auto expected = reference->Snapshot(tenant, key);
  if (!served.ok() || !expected.ok()) {
    report->Failure();
    report->Mismatch(name + ": SNAPSHOT failed");
  } else if (served->updates_seen != expected->updates_seen ||
             served->state_bits != expected->state_bits ||
             served->state_words != expected->state_words) {
    report->Mismatch(name + ": SNAPSHOT state differs from the reference (" +
                     std::to_string(served->updates_seen) + " vs " +
                     std::to_string(expected->updates_seen) + " updates)");
  }
  auto answer = client->Query(tenant, key);
  auto expected_answer = reference->Query(tenant, key);
  if (!answer.ok() || !expected_answer.ok()) {
    report->Failure();
    report->Mismatch(name + ": QUERY failed");
  } else if (*answer != *expected_answer) {
    report->Mismatch(name + ": QUERY answer differs: " + answer->ToText() +
                     " vs " + expected_answer->ToText());
  }
  for (uint64_t w : windows) {
    auto window = client->Window(tenant, key, w, true);
    auto expected_window = reference->Window(tenant, key, w, true);
    if (!window.ok() || !expected_window.ok()) {
      report->Failure();
      report->Mismatch(name + ": WINDOW " + std::to_string(w) + " failed");
    } else if (window->result != expected_window->result ||
               window->start != expected_window->start ||
               window->length != expected_window->length ||
               window->state_bits != expected_window->state_bits ||
               window->state_words != expected_window->state_words) {
      report->Mismatch(name + ": WINDOW " + std::to_string(w) +
                       " differs from the reference");
    }
  }
}

}  // namespace perfbench
