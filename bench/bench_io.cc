// The async ingest front-end (src/io/): what the overlap buys and what
// the decoder costs. Three tables:
//
//   1. decode throughput — UpdateDecoder MB/s and Mitem/s on the text
//      and binary trace formats, measured inline (no threads) so the
//      number is the parser itself;
//   2. ingest overlap — the same file-to-sketch job three ways: naive
//      (read the whole file, decode it all, then ingest), file-fed
//      async (StreamFeeder: prefetch / decode / ingest overlapped), and
//      in-memory (pre-decoded updates, the no-I/O ceiling). Overlap
//      efficiency = max(produce, consume) / async wall — 1.0 means the
//      stages hid each other completely;
//   3. the determinism spot check — the async file-fed sketch state is
//      byte-compared against in-memory ingest at the same topology.
//      This is an assertion, not a gate: it holds on any hardware.
//
// Emits BENCH_io.json next to the other BENCH_*.json artifacts; CI
// diffs it via ci/compare_bench.py --io. The two perf gates (async
// >= 1.5x naive, async within 1.5x of in-memory) run only on >= 4-core
// un-sanitized hardware — on smaller machines the overlap has no spare
// core to land on and the skip is logged, never silent.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench/bench_common.h"
#include "src/lps.h"

namespace {

using lps::BitWriter;
using lps::SketchKind;
using lps::SketchSpec;
using lps::bench::Table;
using lps::io::MemorySource;
using lps::io::StreamFeeder;
using lps::io::UpdateDecoder;
using lps::stream::Update;
using lps::stream::UpdateStream;

constexpr uint64_t kN = 1 << 18;

// The ingest gates from the ISSUE acceptance list. Both compare wall
// times of the same decoded stream, so they are ratios of like work.
constexpr double kMinSpeedupVsNaive = 1.5;   // overlap must beat serial
constexpr double kMaxSlowdownVsMemory = 1.5; // file feed near the ceiling

struct DecodeRow {
  std::string format;
  uint64_t bytes = 0;
  uint64_t updates = 0;
  double seconds = 0;
  double mb_per_sec() const {
    return seconds > 0 ? double(bytes) / 1e6 / seconds : 0;
  }
  double mitem_per_sec() const {
    return seconds > 0 ? double(updates) / 1e6 / seconds : 0;
  }
};

struct OverlapRow {
  std::string format;
  uint64_t bytes = 0;
  uint64_t updates = 0;
  double naive_seconds = 0;
  double async_seconds = 0;
  double memory_seconds = 0;
  double produce_seconds = 0;  // read + decode alone (null sink)
  double consume_seconds = 0;  // pipeline ingest of pre-decoded updates
  double speedup_vs_naive() const {
    return async_seconds > 0 ? naive_seconds / async_seconds : 0;
  }
  double slowdown_vs_memory() const {
    return memory_seconds > 0 ? async_seconds / memory_seconds : 0;
  }
  double overlap_efficiency() const {
    const double ideal = std::max(produce_seconds, consume_seconds);
    return async_seconds > 0 ? ideal / async_seconds : 0;
  }
};

template <typename Fn>
double BestSeconds(int passes, Fn&& fn) {
  double best = 1e300;
  for (int p = 0; p < passes; ++p) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto stop = std::chrono::steady_clock::now();
    const double seconds = std::chrono::duration<double>(stop - start).count();
    if (seconds < best) best = seconds;
  }
  return best;
}

std::string MakeTempFile(const std::string& contents) {
  char path[] = "/tmp/lps_bench_io_XXXXXX";
  const int fd = ::mkstemp(path);
  if (fd < 0) {
    std::fprintf(stderr, "mkstemp failed\n");
    std::exit(1);
  }
  size_t done = 0;
  while (done < contents.size()) {
    const ssize_t wrote =
        ::write(fd, contents.data() + done, contents.size() - done);
    if (wrote <= 0) break;
    done += size_t(wrote);
  }
  ::close(fd);
  if (done != contents.size()) {
    std::fprintf(stderr, "short write to %s\n", path);
    std::exit(1);
  }
  return path;
}

std::string TextTrace(uint64_t n, const UpdateStream& updates) {
  std::string out = "n " + std::to_string(n) + "\n";
  char line[64];
  for (const Update& u : updates) {
    std::snprintf(line, sizeof(line), "u %llu %lld\n",
                  static_cast<unsigned long long>(u.index),
                  static_cast<long long>(u.delta));
    out += line;
  }
  return out;
}

/// The ingest side of the overlap measurement: a sharded CountSketch
/// pipeline — integer counters, so the determinism check below can
/// demand bit-equality against the in-memory run.
SketchSpec IngestSpec() {
  SketchSpec spec;
  spec.kind = SketchKind::kCountSketch;
  spec.n = kN;
  spec.rows = 7;
  spec.buckets = 512;
  spec.seed = 42;
  return spec;
}

lps::SketchConfig IngestConfig() {
  lps::SketchConfig config;
  config.spec = IngestSpec();
  config.shards = 2;
  const unsigned cores = std::thread::hardware_concurrency();
  config.threads = cores >= 4 ? 2 : 0;
  return config;
}

std::vector<uint64_t> SerializedState(const lps::LinearSketch& sketch) {
  BitWriter writer;
  sketch.Serialize(&writer);
  return writer.words();
}

/// Decode-only cost: MemorySource -> StreamFeeder with inline decode and
/// a counting sink. No disk, no threads — the parser's own speed.
DecodeRow MeasureDecode(const std::string& format, const std::string& bytes,
                        int passes) {
  DecodeRow row;
  row.format = format;
  row.bytes = bytes.size();
  row.seconds = BestSeconds(passes, [&] {
    StreamFeeder::Options options;
    options.async_decode = false;
    StreamFeeder feeder(
        std::make_unique<MemorySource>(bytes.data(), bytes.size()), options);
    if (!feeder.ReadHeader().ok()) std::exit(1);
    uint64_t count = 0;
    auto stats = feeder.Feed([&](const Update*, size_t c) { count += c; });
    if (!stats.ok()) std::exit(1);
    row.updates = count;
  });
  return row;
}

/// One full file-to-sketch job, three ways, same trace bytes on disk.
OverlapRow MeasureOverlap(const std::string& format, const std::string& bytes,
                          const UpdateStream& decoded, int passes,
                          bool* bit_identical) {
  OverlapRow row;
  row.format = format;
  row.bytes = bytes.size();
  row.updates = decoded.size();
  const std::string path = MakeTempFile(bytes);

  std::unique_ptr<lps::Topology> topology;
  auto build_topology = [&topology] {
    auto built = lps::Topology::Create(IngestConfig(), 0);
    if (!built.ok()) std::exit(1);
    topology = std::move(built.value());
  };
  auto ingest = [&topology](const UpdateStream& updates) {
    if (!topology->Push(updates.data(), updates.size()).ok() ||
        !topology->Finish().ok()) {
      std::exit(1);
    }
  };

  // Naive read-then-ingest: the pre-src/io shape of every tool. Each
  // stage completes before the next starts; wall = read + decode +
  // ingest.
  row.naive_seconds = BestSeconds(passes, [&] {
    auto source = lps::io::MakeFileSource(path);
    if (!source.ok()) std::exit(1);
    std::string slurped;
    for (;;) {
      auto chunk = source.value()->Next();
      if (!chunk.ok()) std::exit(1);
      if (chunk.value().size == 0) break;
      slurped.append(chunk.value().data, chunk.value().size);
    }
    UpdateDecoder decoder;
    UpdateStream updates;
    decoder.Consume(slurped.data(), slurped.size(), &updates);
    if (!decoder.Finish(&updates).ok()) std::exit(1);
    build_topology();
    ingest(updates);
  });

  // Async file-fed: StreamFeeder overlaps prefetch, decode, and ingest.
  std::vector<uint64_t> async_state;
  row.async_seconds = BestSeconds(passes, [&] {
    auto source = lps::io::MakeFileSource(path);
    if (!source.ok()) std::exit(1);
    StreamFeeder feeder(std::move(source.value()));
    if (!feeder.ReadHeader().ok()) std::exit(1);
    build_topology();
    lps::Status pushed;
    auto fed = feeder.Feed([&](const Update* updates, size_t count) {
      if (pushed.ok()) pushed = topology->Push(updates, count);
    });
    if (!fed.ok() || !pushed.ok() || !topology->Finish().ok()) std::exit(1);
    async_state = SerializedState(topology->sketch());
  });

  // In-memory ceiling: the updates already decoded, no I/O at all.
  std::vector<uint64_t> memory_state;
  row.memory_seconds = BestSeconds(passes, [&] {
    build_topology();
    ingest(decoded);
    memory_state = SerializedState(topology->sketch());
  });

  // The overlap-efficiency components: each stage alone.
  row.produce_seconds = BestSeconds(passes, [&] {
    auto source = lps::io::MakeFileSource(path);
    if (!source.ok()) std::exit(1);
    StreamFeeder::Options options;
    options.async_decode = false;
    StreamFeeder feeder(std::move(source.value()), options);
    if (!feeder.ReadHeader().ok()) std::exit(1);
    if (!feeder.Feed([](const Update*, size_t) {}).ok()) std::exit(1);
  });
  row.consume_seconds = row.memory_seconds;

  *bit_identical = *bit_identical && (async_state == memory_state);
  std::remove(path.c_str());
  return row;
}

void WriteJson(const char* path, const std::vector<DecodeRow>& decode,
               const std::vector<OverlapRow>& overlap, bool bit_identical,
               bool quick) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"io\",\n  \"quick\": %s,\n",
               quick ? "true" : "false");
  std::fprintf(f, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"bit_identical\": %s,\n",
               bit_identical ? "true" : "false");
  std::fprintf(f, "  \"decode\": [\n");
  for (size_t r = 0; r < decode.size(); ++r) {
    const DecodeRow& row = decode[r];
    std::fprintf(f,
                 "    {\"format\": \"%s\", \"bytes\": %llu, "
                 "\"updates\": %llu, \"mb_per_sec\": %.1f, "
                 "\"mitem_per_sec\": %.2f}%s\n",
                 row.format.c_str(),
                 static_cast<unsigned long long>(row.bytes),
                 static_cast<unsigned long long>(row.updates),
                 row.mb_per_sec(), row.mitem_per_sec(),
                 r + 1 < decode.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"overlap\": [\n");
  for (size_t r = 0; r < overlap.size(); ++r) {
    const OverlapRow& row = overlap[r];
    std::fprintf(f,
                 "    {\"format\": \"%s\", \"bytes\": %llu, "
                 "\"updates\": %llu, \"naive_seconds\": %.6f, "
                 "\"async_seconds\": %.6f, \"memory_seconds\": %.6f, "
                 "\"speedup_vs_naive\": %.2f, "
                 "\"slowdown_vs_memory\": %.2f, "
                 "\"overlap_efficiency\": %.2f}%s\n",
                 row.format.c_str(),
                 static_cast<unsigned long long>(row.bytes),
                 static_cast<unsigned long long>(row.updates),
                 row.naive_seconds, row.async_seconds, row.memory_seconds,
                 row.speedup_vs_naive(), row.slowdown_vs_memory(),
                 row.overlap_efficiency(), r + 1 < overlap.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = lps::bench::Quick(argc, argv);
  const int passes = lps::bench::Scaled(quick, 5, 2);
  const uint64_t num_updates = quick ? (1 << 17) : (1 << 20);

  const UpdateStream updates =
      lps::stream::UniformTurnstile(kN, num_updates, 100, 77);
  const std::string text = TextTrace(kN, updates);
  std::string binary;
  lps::io::WriteBinaryTrace(&binary, kN, updates);

  std::vector<DecodeRow> decode;
  decode.push_back(MeasureDecode("text", text, passes));
  decode.push_back(MeasureDecode("binary", binary, passes));

  bool bit_identical = true;
  std::vector<OverlapRow> overlap;
  overlap.push_back(
      MeasureOverlap("text", text, updates, passes, &bit_identical));
  overlap.push_back(
      MeasureOverlap("binary", binary, updates, passes, &bit_identical));

  lps::bench::Section("decoder: trace parsing throughput (inline, no I/O)");
  Table decode_table({"format", "MB", "MB/s", "Mitem/s"});
  for (const DecodeRow& row : decode) {
    decode_table.AddRow({row.format, Table::Fmt("%.1f", row.bytes / 1e6),
                         Table::Fmt("%.1f", row.mb_per_sec()),
                         Table::Fmt("%.2f", row.mitem_per_sec())});
  }
  decode_table.Print();

  lps::bench::Section(
      "ingest overlap: naive read-then-ingest vs async vs in-memory");
  Table overlap_table({"format", "naive ms", "async ms", "memory ms",
                       "vs naive", "vs memory", "overlap eff"});
  for (const OverlapRow& row : overlap) {
    overlap_table.AddRow({row.format,
                          Table::Fmt("%.1f", row.naive_seconds * 1e3),
                          Table::Fmt("%.1f", row.async_seconds * 1e3),
                          Table::Fmt("%.1f", row.memory_seconds * 1e3),
                          Table::Fmt("%.2fx", row.speedup_vs_naive()),
                          Table::Fmt("%.2fx", row.slowdown_vs_memory()),
                          Table::Fmt("%.2f", row.overlap_efficiency())});
  }
  overlap_table.Print();

  WriteJson("BENCH_io.json", decode, overlap, bit_identical, quick);
  std::printf("machine-readable results written to BENCH_io.json\n");

  // Determinism first: file-fed async state must equal in-memory state
  // byte-for-byte on ANY hardware — this is the contract, not a perf
  // property, so it is never skipped.
  bool ok = bit_identical;
  if (!bit_identical) {
    std::fprintf(stderr,
                 "DETERMINISM REGRESSION: async file-fed sketch state "
                 "differs from in-memory ingest\n");
  } else {
    std::printf("determinism: async file-fed state == in-memory state\n");
  }

  // The perf gates need a spare core for the decode thread and the
  // pipeline workers; on fewer than 4 cores the overlap has nowhere to
  // run and the numbers are reported un-gated.
  for (const OverlapRow& row : overlap) {
    const std::string speedup_gate = "io_overlap_vs_naive[" + row.format + "]";
    if (lps::bench::PerfGateEligible(speedup_gate.c_str(), 4)) {
      if (row.speedup_vs_naive() < kMinSpeedupVsNaive) {
        std::fprintf(stderr,
                     "OVERLAP REGRESSION: %s async ingest is %.2fx naive "
                     "(< %.2fx) — the stages are serializing\n",
                     row.format.c_str(), row.speedup_vs_naive(),
                     kMinSpeedupVsNaive);
        ok = false;
      } else {
        std::printf("%s: %.2fx vs naive (>= %.2fx)\n", speedup_gate.c_str(),
                    row.speedup_vs_naive(), kMinSpeedupVsNaive);
      }
    }
    const std::string ceiling_gate = "io_file_vs_memory[" + row.format + "]";
    if (lps::bench::PerfGateEligible(ceiling_gate.c_str(), 4)) {
      if (row.slowdown_vs_memory() > kMaxSlowdownVsMemory) {
        std::fprintf(stderr,
                     "OVERLAP REGRESSION: %s file-fed ingest is %.2fx "
                     "slower than in-memory (> %.2fx) — the file path "
                     "stopped hiding its I/O\n",
                     row.format.c_str(), row.slowdown_vs_memory(),
                     kMaxSlowdownVsMemory);
        ok = false;
      } else {
        std::printf("%s: %.2fx of in-memory (<= %.2fx)\n",
                    ceiling_gate.c_str(), row.slowdown_vs_memory(),
                    kMaxSlowdownVsMemory);
      }
    }
  }
  return ok ? 0 : 1;
}
