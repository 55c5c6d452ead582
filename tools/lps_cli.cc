// lps_cli — command-line driver for the library: generate workload traces,
// replay them through any sampler or sketch, persist and merge sketch
// state, and print results. The tool a downstream user reaches for before
// writing code.
//
// Usage:
//   lps_cli gen <kind> <n> <arg> <seed> [--binary]   write a trace to stdout
//       kinds: turnstile <#updates> | sparse <#nonzero> |
//              zipf <scale> | duplicates <extras>
//   lps_cli sample <p|L0> <eps> <delta> <seed>
//           [--shards k] [--threads t] [--window w [--checkpoint c]]
//           [--from FILE]
//   lps_cli duplicates <delta> <seed> [--from FILE]  < trace  find a duplicate
//   lps_cli heavy <p> <phi> <seed> [--shards k] [--threads t]
//           [--window w [--checkpoint c]] [--from FILE]        < trace
//   lps_cli norm <p> <seed> [--shards k] [--threads t]
//           [--window w [--checkpoint c]] [--from FILE]        < trace
//   lps_cli stats [--from FILE]                < trace    exact summary
//   lps_cli save sample <p|L0> <eps> <delta> <seed> <file>  < trace
//   lps_cli save heavy <p> <phi> <seed> <file>              < trace
//   lps_cli save norm <p> <seed> <file>                     < trace
//   lps_cli save duplicates <delta> <seed> <file>           < trace
//   lps_cli load <file>                        restore state and query it
//   lps_cli merge <out> <in1> <in2> [in...]    add saved states (linearity)
//   lps_cli version                            dispatched kernel backend
//
// save writes the full LinearSketch state (versioned header, params,
// seeds, counters); load reconstructs without any out-of-band information
// (DeserializeAnySketch dispatches on the kind tag, so any sketch kind
// loads); merge requires all inputs to come from identically-parameterized
// structures (shard replicas) and writes their coordinate-wise sum; any
// other input is an error (exit 2).
// Every positional number is parsed whole: an integer (seed, gen sizes)
// is decimal digits only, a real (p, eps, delta, phi) one finite value,
// and anything else ("1.0x", "42abc", "-5") exits 2 before any input is
// read.
// --shards k ingests through the k-shard parallel runtime and merges the
// replicas before querying — same answers as single-stream ingestion, by
// linearity. --threads t (t in [1, k]; omit the flag for inline
// single-threaded ingestion) runs t worker threads; the final state is
// bit-identical for every thread count, so the flag is purely a
// throughput knob.
// --window w answers the query over (at least) the LAST w updates of the
// trace instead of the whole stream: ingestion flows through a
// WindowManager that checkpoints a serialized prefix every --checkpoint c
// updates (default 4096), and the windowed sketch is materialized by
// subtraction (prefix_now - prefix_expired, O(sketch size)). The window
// start rounds down to a checkpoint boundary; the chosen range is
// printed. With --shards k the checkpoints seal at the topology's epoch
// boundaries (every c updates, after the shards merge), so windows and
// sharding compose.
// Every command that reads a trace streams it through the async front-end
// (src/io/): a prefetch thread reads the input while the decoder and the
// pipeline run, and the update stream is never materialized in memory.
// --from FILE only picks the source; without it (or with '-') the trace
// comes from stdin. Text and binary traces are auto-detected. A malformed
// record is counted, skipped and noted on stderr; a trace without its
// "n <size>" header is the only input error (exit 1).
#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/kernels/kernels.h"
#include "src/lps.h"

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  lps_cli gen {turnstile|sparse|zipf|duplicates} <n> <arg> <seed>"
      " [--binary]\n"
      "  lps_cli sample {<p>|L0} <eps> <delta> <seed>"
      " [--shards k] [--threads t] [--window w [--checkpoint c]]"
      " [--from FILE]\n"
      "  lps_cli duplicates <delta> <seed> [--from FILE]           < trace\n"
      "  lps_cli heavy <p> <phi> <seed> [--shards k] [--threads t]"
      " [--window w [--checkpoint c]] [--from FILE]                < trace\n"
      "  lps_cli norm <p> <seed> [--shards k] [--threads t]"
      " [--window w [--checkpoint c]] [--from FILE]                < trace\n"
      "  lps_cli stats [--from FILE]                               < trace\n"
      "  lps_cli save sample {<p>|L0} <eps> <delta> <seed> <file>  < trace\n"
      "  lps_cli save heavy <p> <phi> <seed> <file>                < trace\n"
      "  lps_cli save norm <p> <seed> <file>                       < trace\n"
      "  lps_cli save duplicates <delta> <seed> <file>             < trace\n"
      "  lps_cli load <file>\n"
      "  lps_cli merge <out> <in1> <in2> [in...]\n"
      "  lps_cli version\n"
      "a trace (text or binary) is read from stdin, or from --from FILE\n");
  return 2;
}

/// Runtime info line: which SIMD kernel backend this process dispatched
/// (and the full set the binary + host could run) — the quick way to see
/// what LPS_KERNELS resolved to.
int CmdVersion() {
  std::printf("lps_cli — Lp sampler library (JST11)\n");
  std::printf("kernel backend: %s (available:",
              lps::kernels::ActiveBackendName());
  for (const auto backend : lps::kernels::AvailableBackends()) {
    std::printf(" %s", lps::kernels::BackendName(backend));
  }
  std::printf(")\n");
  return 0;
}

/// Strips an embedded "<flag> v" from argv, returning the parsed count.
/// Returns `fallback` when the flag is absent, and -1 (after an error
/// message) when the value is missing, non-numeric, trailing-garbage,
/// < 1, or > max — silently clamping a typo like "--shards x4" or
/// "--threads 0" would ingest with a topology the user did not ask for.
/// argc is updated in place; *found (optional) reports whether the flag
/// was present at all.
int TakeCountFlag(int* argc, char** argv, const char* flag, int fallback,
                  long max = 1 << 20, bool* found = nullptr) {
  if (found != nullptr) *found = false;
  for (int a = 2; a < *argc; ++a) {
    if (std::strcmp(argv[a], flag) != 0) continue;
    if (found != nullptr) *found = true;
    if (a + 1 >= *argc) {
      std::fprintf(stderr, "%s needs a value\n", flag);
      return -1;
    }
    char* end = nullptr;
    const long value = std::strtol(argv[a + 1], &end, 10);
    if (end == argv[a + 1] || *end != '\0' || value < 1 || value > max) {
      std::fprintf(stderr, "%s wants a positive integer in [1, %ld], got "
                   "'%s'\n", flag, max, argv[a + 1]);
      return -1;
    }
    for (int b = a + 2; b < *argc; ++b) argv[b - 2] = argv[b];
    *argc -= 2;
    return static_cast<int>(value);
  }
  return fallback;
}

/// Strips "--from PATH" from argv. Returns false (after an error message)
/// when the flag is present without a value; *path is "-" (stdin) when
/// the flag is absent.
bool TakeFromFlag(int* argc, char** argv, std::string* path) {
  *path = "-";
  for (int a = 2; a < *argc; ++a) {
    if (std::strcmp(argv[a], "--from") != 0) continue;
    if (a + 1 >= *argc) {
      std::fprintf(stderr, "--from needs a path ('-' = stdin)\n");
      return false;
    }
    *path = argv[a + 1];
    for (int b = a + 2; b < *argc; ++b) argv[b - 2] = argv[b];
    *argc -= 2;
    return true;
  }
  return true;
}

/// Strips a bare boolean flag from argv; returns whether it was present.
bool TakeBoolFlag(int* argc, char** argv, const char* flag) {
  for (int a = 2; a < *argc; ++a) {
    if (std::strcmp(argv[a], flag) != 0) continue;
    for (int b = a + 1; b < *argc; ++b) argv[b - 1] = argv[b];
    *argc -= 1;
    return true;
  }
  return false;
}

/// Parses both ingestion-topology flags. Returns false (usage error) if
/// either is malformed, or if threads exceeds shards — the runtime runs
/// at most one worker per shard, and silently running fewer workers than
/// asked would misrepresent the topology. shards defaults to 1, threads
/// to 0 (inline ingestion on the caller thread).
bool TakeTopologyFlags(int* argc, char** argv, int* shards, int* threads) {
  // lps::Topology's bounds, so an out-of-range count is a usage error.
  constexpr long kMaxTopology = 1024;
  *shards = TakeCountFlag(argc, argv, "--shards", 1, kMaxTopology);
  if (*shards < 0) return false;
  *threads = TakeCountFlag(argc, argv, "--threads", 0, kMaxTopology);
  if (*threads < 0) return false;
  if (*threads > *shards) {
    std::fprintf(stderr,
                 "--threads %d exceeds --shards %d: the runtime runs one "
                 "worker per shard\n",
                 *threads, *shards);
    return false;
  }
  return true;
}

/// Sliding-window request: window == 0 means "whole stream" (no window
/// machinery at all).
struct WindowSpec {
  uint64_t window = 0;
  uint64_t checkpoint = 4096;
};

/// Parses --window w and --checkpoint c. Returns false (usage error) on a
/// malformed value or a --checkpoint without --window (the flag would
/// silently do nothing).
bool TakeWindowFlags(int* argc, char** argv, WindowSpec* spec) {
  // Windows and checkpoint intervals are update counts, not topology
  // sizes — allow up to 2^30 (counts stay in int range for TakeCountFlag).
  constexpr long kMaxUpdates = 1L << 30;
  const int window =
      TakeCountFlag(argc, argv, "--window", 0, kMaxUpdates);
  if (window < 0) return false;
  bool checkpoint_given = false;
  const int checkpoint = TakeCountFlag(argc, argv, "--checkpoint", 4096,
                                       kMaxUpdates, &checkpoint_given);
  if (checkpoint < 0) return false;
  if (window == 0 && checkpoint_given) {
    std::fprintf(stderr, "--checkpoint only makes sense with --window\n");
    return false;
  }
  spec->window = static_cast<uint64_t>(window);
  spec->checkpoint = static_cast<uint64_t>(checkpoint);
  return true;
}

/// The stream behind a command: an async StreamFeeder over the --from
/// source (stdin by default), primed past the header, so n is known
/// before any structure is sized.
struct StreamInput {
  uint64_t n = 0;
  std::unique_ptr<lps::io::StreamFeeder> feeder;
};

std::unique_ptr<StreamInput> OpenInput(const std::string& from) {
  auto input = std::make_unique<StreamInput>();
  auto source = lps::io::MakeFileSource(from);
  if (!source.ok()) {
    std::fprintf(stderr, "cannot open %s: %s\n", from.c_str(),
                 source.status().ToString().c_str());
    return nullptr;
  }
  input->feeder =
      std::make_unique<lps::io::StreamFeeder>(std::move(source.value()));
  auto n = input->feeder->ReadHeader();
  if (!n.ok()) {
    std::fprintf(stderr, "bad trace in %s: %s\n", from.c_str(),
                 n.status().ToString().c_str());
    return nullptr;
  }
  input->n = n.value();
  return input;
}

/// Reports a feeder run: an I/O error is fatal, skipped malformed records
/// are noted — a replay keeps going when one producer wrote one bad line,
/// but not silently.
bool ReportFeed(const lps::Result<lps::io::FeedStats>& stats) {
  if (!stats.ok()) {
    std::fprintf(stderr, "ingest failed: %s\n",
                 stats.status().ToString().c_str());
    return false;
  }
  if (stats->malformed > 0) {
    std::fprintf(stderr, "note: skipped %llu malformed records\n",
                 static_cast<unsigned long long>(stats->malformed));
  }
  return true;
}

/// Parses one positional number of `command`, the whole of `text`: an
/// integer is decimal digits only in [lo, hi] (no sign, so "-5" cannot
/// wrap to 2^64 - 5, and "0.5" cannot truncate to 0); a real is one
/// finite strtod value. Trailing garbage ("1.0x", "42abc") fails too. On
/// failure prints why and returns false (the caller exits 2), instead of
/// running with a number the user did not type or letting a
/// constructor's CHECK abort.
template <typename T>
bool ParseNumber(const char* command, const char* what, const char* text,
                 T* out, T lo = std::numeric_limits<T>::lowest(),
                 T hi = std::numeric_limits<T>::max()) {
  constexpr bool kInteger = std::is_integral_v<T>;
  const auto lead = static_cast<unsigned char>(text[0]);
  char* end = nullptr;
  errno = 0;
  T value;
  bool lead_ok;
  if constexpr (kInteger) {
    value = std::strtoull(text, &end, 10);
    lead_ok = std::isdigit(lead);
  } else {
    value = std::strtod(text, &end);
    lead_ok = lead != '\0' && !std::isspace(lead);
  }
  if (lead_ok && *end == '\0' && errno != ERANGE && value >= lo &&
      value <= hi) {
    *out = value;
    return true;
  }
  if constexpr (kInteger) {
    std::fprintf(stderr, "%s: %s wants an integer in [%llu, %llu], got '%s'\n",
                 command, what, static_cast<unsigned long long>(lo),
                 static_cast<unsigned long long>(hi), text);
  } else {
    std::fprintf(stderr, "%s: %s wants a finite number, got '%s'\n", command,
                 what, text);
  }
  return false;
}

int CmdGen(int argc, char** argv) {
  const bool binary = TakeBoolFlag(&argc, argv, "--binary");
  if (argc != 6) return Usage();
  const std::string kind = argv[2];
  // Every generator materializes its stream, and all but turnstile an
  // n-entry table too: the caps make a typo a usage error, not an
  // allocation failure. <arg> is bounded by its generator's precondition.
  constexpr uint64_t kMaxItems = uint64_t{1} << 26;
  uint64_t n_max = kMaxItems, arg_min = 0, arg_max = kMaxItems;
  const char* arg_name = nullptr;
  if (kind == "turnstile") {
    n_max = uint64_t{1} << 62;
    arg_name = "<#updates>";
  } else if (kind == "sparse") {
    arg_name = "<#nonzero>";
  } else if (kind == "zipf") {
    arg_min = 1;
    arg_max = uint64_t{1} << 53;  // weights round exactly in a double
    arg_name = "<scale>";
  } else if (kind == "duplicates") {
    arg_name = "<extras>";
  } else {
    return Usage();
  }
  uint64_t n = 0, arg = 0, seed = 0;
  if (!ParseNumber("gen", "<n>", argv[3], &n, uint64_t{1}, n_max)) return 2;
  if (kind == "sparse") arg_max = n;
  if (!ParseNumber("gen", arg_name, argv[4], &arg, arg_min, arg_max) ||
      !ParseNumber("gen", "<seed>", argv[5], &seed)) {
    return 2;
  }
  lps::stream::UpdateStream updates;
  if (kind == "turnstile") {
    updates = lps::stream::UniformTurnstile(n, arg, 100, seed);
  } else if (kind == "sparse") {
    updates = lps::stream::SparseVector(n, arg, 1000, seed);
  } else if (kind == "zipf") {
    updates = lps::stream::ZipfianVector(n, 1.0, static_cast<int64_t>(arg),
                                         true, seed);
  } else {  // duplicates
    if (!binary) {
      lps::io::WriteLetterTrace(
          std::cout, n, lps::stream::DuplicateStream(n, arg, seed));
      return 0;
    }
    // Binary traces carry letters as the equivalent (letter, +1) updates
    // the decoder would produce for "l <letter>" lines.
    for (const uint64_t letter : lps::stream::DuplicateStream(n, arg, seed)) {
      updates.push_back({letter, 1});
    }
  }
  if (binary) {
    std::string out;
    lps::io::WriteBinaryTrace(&out, n, updates);
    std::fwrite(out.data(), 1, out.size(), stdout);
  } else {
    lps::io::WriteTrace(std::cout, n, updates);
  }
  return 0;
}

// ------------------------------------------------------------ structures --
// Shared by the direct commands and `save`: parse a command's positional
// numbers into the spec it builds, construct the structure, ingest
// (optionally sharded, optionally async via --from), and hand the merged
// structure to the caller.

/// How many positional numbers the spec of `what` (sample, heavy, norm,
/// duplicates) takes; -1 for any other word.
int SpecArgCount(const std::string& what) {
  if (what == "sample") return 4;
  if (what == "heavy") return 3;
  if (what == "norm" || what == "duplicates") return 2;
  return -1;
}

/// Parses the SpecArgCount(what) positional numbers at `args` into the
/// spec `what` builds; n comes later, from the trace header. Returns
/// false after a message when a number is malformed.
bool ParseSpecArgs(const std::string& what, char** args,
                   lps::SketchSpec* spec) {
  const char* command = what.c_str();
  if (what == "sample") {
    const bool l0 = std::strcmp(args[0], "L0") == 0;
    spec->kind = l0 ? lps::SketchKind::kL0Sampler : lps::SketchKind::kLpSampler;
    double eps = 0;
    if ((!l0 && !ParseNumber(command, "<p>", args[0], &spec->p)) ||
        !ParseNumber(command, "<eps>", args[1], &eps) ||
        !ParseNumber(command, "<delta>", args[2], &spec->delta) ||
        !ParseNumber(command, "<seed>", args[3], &spec->seed)) {
      return false;
    }
    if (!l0) spec->eps = eps;  // the L0 sampler takes no eps
    return true;
  }
  if (what == "heavy") {
    spec->kind = lps::SketchKind::kCsHeavyHitters;
    return ParseNumber(command, "<p>", args[0], &spec->p) &&
           ParseNumber(command, "<phi>", args[1], &spec->phi) &&
           ParseNumber(command, "<seed>", args[2], &spec->seed);
  }
  if (what == "norm") {
    // rows == 0 resolves to DefaultRows(n) in MakeSketch.
    spec->kind = lps::SketchKind::kLpNormEstimator;
    return ParseNumber(command, "<p>", args[0], &spec->p) &&
           ParseNumber(command, "<seed>", args[1], &spec->seed);
  }
  spec->kind = lps::SketchKind::kDuplicateFinder;
  return ParseNumber(command, "<delta>", args[0], &spec->delta) &&
         ParseNumber(command, "<seed>", args[1], &spec->seed);
}

/// A built answer structure: shared so the whole-stream sketch can stay
/// owned by the topology that ingested it.
using Sketch = std::shared_ptr<const lps::LinearSketch>;

/// Builds the stream's lps::Topology — `shards` identical replicas of
/// `spec` over the trace's universe, from the MakeSketch registry (the
/// same one CREATE requests and DeserializeAnySketch use), pipelined
/// when shards > 1 or threads > 0, windowed with epochs of
/// window.checkpoint updates when a window is asked — streams the input
/// into it, and returns the whole-stream sketch, or the materialized
/// trailing window after printing its range (the start rounds down to a
/// checkpoint boundary).
/// Returns nullptr after a message on a topology or feed error.
Sketch BuildSharded(StreamInput& in, int shards, int threads,
                    const WindowSpec& window, const lps::SketchSpec& spec) {
  lps::SketchConfig config;
  config.spec = spec;
  config.spec.n = in.n;
  config.shards = shards;
  config.threads = threads;
  if (window.window > 0) config.window_checkpoint = window.checkpoint;
  auto built = lps::Topology::Create(config, config.window_checkpoint);
  if (!built.ok()) {
    std::fprintf(stderr, "bad topology: %s\n",
                 built.status().ToString().c_str());
    return nullptr;
  }
  std::shared_ptr<lps::Topology> topology = std::move(built.value());
  lps::Status pushed;
  auto stats = in.feeder->Feed([&](const lps::stream::Update* u, size_t c) {
    if (pushed.ok()) pushed = topology->Push(u, c);
  });
  if (!ReportFeed(stats)) return nullptr;
  if (pushed.ok()) pushed = topology->Finish();
  if (!pushed.ok()) {
    std::fprintf(stderr, "ingest failed: %s\n", pushed.ToString().c_str());
    return nullptr;
  }
  if (window.window == 0) {
    // Aliasing pointer: the answer keeps its topology alive.
    return Sketch(topology, &topology->sketch());
  }
  const lps::stream::WindowManager& wm = *topology->window();
  auto materialized = wm.WindowSketch(window.window);
  const uint64_t end = materialized.start + materialized.length;
  std::printf("window [%llu, %llu) of %llu updates (asked %llu, checkpoint "
              "every %llu)\n",
              static_cast<unsigned long long>(materialized.start),
              static_cast<unsigned long long>(end),
              static_cast<unsigned long long>(wm.updates_seen()),
              static_cast<unsigned long long>(window.window),
              static_cast<unsigned long long>(window.checkpoint));
  return std::move(materialized.sketch);
}

Sketch BuildDuplicates(StreamInput& in, lps::SketchSpec spec) {
  spec.n = in.n;
  // MakeSketch CHECK-fails on an invalid spec (delta outside (0, 1));
  // validate first so a typo is an error message, not an abort.
  const lps::Status valid = lps::ValidateSpec(spec);
  if (!valid.ok()) {
    std::fprintf(stderr, "bad spec: %s\n", valid.ToString().c_str());
    return nullptr;
  }
  auto finder = lps::MakeSketch(spec);
  bool letters_only = true;
  auto stats = in.feeder->Feed([&](const lps::stream::Update* u, size_t c) {
    for (size_t t = 0; t < c; ++t) {
      if (u[t].delta != 1) {
        letters_only = false;
        continue;
      }
      // A letter is a (letter, +1) update on top of the finder's built-in
      // initialization — ProcessItem and the LinearSketch entry point are
      // the same operation.
      finder->Update(u[t].index, +1);
    }
  });
  if (!ReportFeed(stats)) return nullptr;
  if (!letters_only) {
    std::fprintf(stderr, "duplicates mode expects a letter trace\n");
    return nullptr;
  }
  return finder;
}

/// Queries through the unified dispatch and prints the result — the text
/// is byte-identical to the historical per-kind printf chain (the CI
/// smoke diffs it). Unsupported kinds diagnose on stderr. Returns the
/// process exit code.
int ReportQuery(const lps::LinearSketch& sketch) {
  const lps::QueryResult result = lps::Query(sketch);
  const std::string text = result.ToText();
  if (result.type == lps::QueryResult::Type::kUnsupported) {
    std::fputs(text.c_str(), stderr);
  } else {
    std::fputs(text.c_str(), stdout);
  }
  return result.ExitCode();
}

int SaveSketch(const lps::LinearSketch& sketch, const char* path) {
  lps::BitWriter writer;
  sketch.Serialize(&writer);
  auto status = lps::WriteBitsToFile(writer, path);
  if (!status.ok()) {
    std::fprintf(stderr, "save failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("saved %s state to %s (%zu bits)\n",
              lps::SketchKindName(sketch.kind()), path, writer.bit_count());
  return 0;
}

std::unique_ptr<lps::LinearSketch> LoadSketch(const char* path) {
  // Streamed container read (src/io/bits_io.h): the reader validates the
  // header as it goes and never sizes an allocation from the file's
  // claimed length — a corrupt or hostile file fails cleanly instead of
  // slurping first and asking questions later.
  auto reader = lps::io::ReadBitsStreamed(path);
  if (!reader.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 reader.status().ToString().c_str());
    return nullptr;
  }
  // Library-side dispatch on the kind tag: every SketchKind loads.
  auto sketch = lps::DeserializeAnySketch(&reader.value());
  if (sketch == nullptr) {
    std::fprintf(stderr, "%s holds an unknown sketch kind\n", path);
  }
  return sketch;
}

// ------------------------------------------------------------- commands --

/// sample / heavy / norm: the command's sketch over the trace, ingested
/// through the flags' topology and window, then queried.
int CmdQuery(int argc, char** argv) {
  int shards = 0, threads = 0;
  WindowSpec window;
  std::string from;
  if (!TakeTopologyFlags(&argc, argv, &shards, &threads)) return Usage();
  if (!TakeWindowFlags(&argc, argv, &window)) return Usage();
  if (!TakeFromFlag(&argc, argv, &from)) return Usage();
  const std::string what = argv[1];
  if (argc != 2 + SpecArgCount(what)) return Usage();
  lps::SketchSpec spec;
  if (!ParseSpecArgs(what, argv + 2, &spec)) return 2;
  auto in = OpenInput(from);
  if (in == nullptr) return 1;
  auto sketch = BuildSharded(*in, shards, threads, window, spec);
  if (sketch == nullptr) return 1;
  return ReportQuery(*sketch);
}

int CmdDuplicates(int argc, char** argv) {
  std::string from;
  if (!TakeFromFlag(&argc, argv, &from)) return Usage();
  if (argc != 4) return Usage();
  lps::SketchSpec spec;
  if (!ParseSpecArgs("duplicates", argv + 2, &spec)) return 2;
  auto in = OpenInput(from);
  if (in == nullptr) return 1;
  auto finder = BuildDuplicates(*in, spec);
  if (finder == nullptr) return 2;
  return ReportQuery(*finder);
}

int CmdStats(int argc, char** argv) {
  std::string from;
  if (!TakeFromFlag(&argc, argv, &from)) return Usage();
  if (argc != 2) return Usage();
  auto in = OpenInput(from);
  if (in == nullptr) return 1;
  lps::stream::ExactVector x(in->n);
  size_t count = 0;
  auto stats = in->feeder->Feed([&](const lps::stream::Update* u, size_t c) {
    for (size_t t = 0; t < c; ++t) x.Apply(u[t]);
    count += c;
  });
  if (!ReportFeed(stats)) return 1;
  std::printf("n %llu  updates %zu  L0 %llu  ||x||_1 %.6g  ||x||_2 %.6g  "
              "total %lld\n",
              static_cast<unsigned long long>(in->n), count,
              static_cast<unsigned long long>(x.L0()), x.NormP(1.0),
              x.NormP(2.0), static_cast<long long>(x.Total()));
  return 0;
}

int CmdSave(int argc, char** argv) {
  std::string from;
  if (!TakeFromFlag(&argc, argv, &from)) return Usage();
  if (argc < 4) return Usage();
  const std::string what = argv[2];
  const int count = SpecArgCount(what);
  if (count < 0 || argc != 4 + count) return Usage();
  const char* path = argv[argc - 1];
  lps::SketchSpec spec;
  if (!ParseSpecArgs(what, argv + 3, &spec)) return 2;
  auto in = OpenInput(from);
  if (in == nullptr) return 1;
  // save persists the whole-stream sketch, ingested inline.
  const Sketch sketch = what == "duplicates"
                            ? BuildDuplicates(*in, spec)
                            : BuildSharded(*in, 1, 0, WindowSpec(), spec);
  if (sketch == nullptr) return 2;
  return SaveSketch(*sketch, path);
}

int CmdLoad(int argc, char** argv) {
  if (argc != 3) return Usage();
  auto sketch = LoadSketch(argv[2]);
  if (sketch == nullptr) return 1;
  std::printf("loaded %s state from %s\n", lps::SketchKindName(sketch->kind()),
              argv[2]);
  return ReportQuery(*sketch);
}

int CmdMerge(int argc, char** argv) {
  if (argc < 5) return Usage();
  const char* out = argv[2];
  auto merged = LoadSketch(argv[3]);
  if (merged == nullptr) return 1;
  const lps::SketchSpec spec = lps::SpecOf(*merged);
  for (int a = 4; a < argc; ++a) {
    auto next = LoadSketch(argv[a]);
    if (next == nullptr) return 1;
    if (next->kind() != merged->kind()) {
      std::fprintf(stderr, "cannot merge %s into %s\n",
                   lps::SketchKindName(next->kind()),
                   lps::SketchKindName(merged->kind()));
      return 2;
    }
    // Merge CHECK-fails on a parameter or seed mismatch. Decoding the
    // state against the first input's spec (the proof RESTORE and the
    // epoch fold use) turns a mismatch into an error message instead.
    lps::BitWriter writer;
    next->Serialize(&writer);
    auto checked =
        lps::DecodeSketchState(spec, writer.words(), writer.bit_count());
    if (!checked.ok()) {
      std::fprintf(stderr, "cannot merge %s into %s: %s\n", argv[a],
                   argv[3], checked.status().ToString().c_str());
      return 2;
    }
    merged->Merge(*checked.value());
  }
  std::printf("merged %d shards\n", argc - 3);
  return SaveSketch(*merged, out);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "gen") return CmdGen(argc, argv);
  if (command == "sample" || command == "heavy" || command == "norm") {
    return CmdQuery(argc, argv);
  }
  if (command == "duplicates") return CmdDuplicates(argc, argv);
  if (command == "stats") return CmdStats(argc, argv);
  if (command == "save") return CmdSave(argc, argv);
  if (command == "load") return CmdLoad(argc, argv);
  if (command == "merge") return CmdMerge(argc, argv);
  if (command == "version") return CmdVersion();
  return Usage();
}
