// Serving CLI (docs/SERVING.md): restores one or many ForecastPipeline
// checkpoints into frozen serve::InferenceSessions behind a
// serve::ModelRegistry and answers text-protocol requests — one window per
// line, channels separated by ';', values by ','; the reply is the forecast
// in the same layout or "ERROR <code>: <message>". Requests may address a
// model explicitly with a "MODEL <name> " prefix; without it the manifest's
// default model answers. Usage() below lists the flags. Integer flags are
// parsed before anything loads; a value that is not an integer >= the
// flag's minimum prints the usage text and exits 2.
//
// --manifest FILE serves a whole fleet: one `model name=... version=...
// checkpoint=...` line per tenant (serve/registry.h documents the keys).
// The single-checkpoint form is sugar for a one-entry manifest whose model
// is named "default".
//
// By default requests are read from stdin and answered on stdout (shell
// pipelines, smoke tests); lines are read whole, whatever their length. That
// loop answers one line before it reads the next, so a request there never
// finds a batch partner, and --max-delay-us defaults to 0 in stdin mode. With
// --socket PATH the tool listens on an AF_UNIX stream socket through
// serve::SocketServer — an epoll loop that multiplexes up to --max-conns
// concurrent connections and resolves requests through the batchers' async
// path, so slow clients never block each other. Admin commands: STATS
// (per-model counters included), LIST, RELOAD <model> <checkpoint> (atomic
// hot-swap; in-flight requests finish on the old session), TRACE <path>.
//
// Telemetry: a background obs::TelemetryExporter appends a JSONL registry
// snapshot to --telemetry-out every --telemetry-interval-ms and services
// the `TRACE <path>` admin command (chrome://tracing dump of the sampled
// request ring; --trace-sample N keeps 1-in-N requests, 0 disables).
//
// --selftest trains a small pipeline and serves it through the code this
// file owns: a manifest file read by the --manifest path, the stdin loop
// (fed a line over the 1 MiB cap, a window over 64 KiB, then a valid
// window: exactly three replies, the last byte-identical to a direct
// session's), and the --telemetry-out JSONL, every line validated. Exits
// nonzero on any mismatch (the msd_serve_selftest ctest). Routing, RELOAD,
// STATS, TRACE, int8 tenants and the socket have their own gtests.
//
// Transport IO lives here or in serve/netio.cc, so the engine stays free of
// buffered stdio (the no-blocking-io-in-serve-hot-path lint rule). SIGPIPE
// is ignored so a vanished client surfaces as EPIPE, not a process kill.
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "obs/exporter.h"
#include "obs/json.h"
#include "obs/ring.h"
#include "serve/netio.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "tasks/pipeline.h"
#include "tensor/tensor_ops.h"

namespace {

using namespace msd;

// True when `flag` is present as `flag value` or `flag=value`; *value is
// empty when the value is missing.
bool FindFlag(int argc, char** argv, const std::string& flag,
              std::string* value) {
  const std::string prefix = flag + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == flag) {
      *value = i + 1 < argc ? argv[i + 1] : "";
      return true;
    }
    if (arg.rfind(prefix, 0) == 0) {
      *value = arg.substr(prefix.size());
      return true;
    }
  }
  return false;
}

std::string FlagValue(int argc, char** argv, const std::string& flag) {
  std::string value;
  return FindFlag(argc, argv, flag, &value) ? value : "";
}

// Every integer flag and the least value it accepts (the manifest keys'
// minimums where a flag mirrors one).
constexpr struct {
  const char* name;
  int64_t min;
} kIntFlags[] = {{"--lookback", 1},     {"--horizon", 1},
                 {"--model-dim", 1},    {"--hidden-dim", 1},
                 {"--max-batch", 1},    {"--max-delay-us", 0},
                 {"--max-conns", 1},    {"--backlog", 1},
                 {"--trace-sample", 0}, {"--telemetry-interval-ms", 1}};

// Parses every integer flag present into *out. False, after saying which,
// on a missing, non-numeric, overflowing or below-minimum value.
bool ParseIntFlags(int argc, char** argv, std::map<std::string, int64_t>* out) {
  for (const auto& flag : kIntFlags) {
    std::string value;
    if (!FindFlag(argc, argv, flag.name, &value)) continue;
    char* end = nullptr;
    errno = 0;
    const long long parsed = std::strtoll(value.c_str(), &end, 10);
    if (value.empty() || errno != 0 || end != value.c_str() + value.size() ||
        parsed < flag.min) {
      std::fprintf(stderr, "invalid %s value '%s': want an integer >= %lld\n",
                   flag.name, value.c_str(), static_cast<long long>(flag.min));
      return false;
    }
    (*out)[flag.name] = parsed;
  }
  return true;
}

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <checkpoint> [--lookback N] [--horizon N]\n"
               "          [--model-dim N] [--hidden-dim N] [--max-batch N]\n"
               "          [--max-delay-us N] [--socket PATH] [--max-conns N]\n"
               "          [--backlog N] [--telemetry-out FILE]\n"
               "          [--telemetry-interval-ms N] [--trace-sample N]\n"
               "       %s --manifest FILE [serving flags as above]\n"
               "       %s --selftest [--telemetry-out FILE]\n"
               "--max-delay-us defaults to 2000 with --socket and to 0 on "
               "stdin,\nwhere a request never has a batch partner.\n",
               argv0, argv0, argv0);
}

bool ReadFileToString(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return false;
  char chunk[4096];
  size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    out->append(chunk, n);
  }
  std::fclose(f);
  return true;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

// Reads and parses the --manifest file. Returns false after printing why.
bool ReadManifest(const std::string& path, serve::Manifest* manifest) {
  std::string text;
  if (!ReadFileToString(path, &text)) {
    std::fprintf(stderr, "cannot read manifest %s\n", path.c_str());
    return false;
  }
  auto parsed = serve::ParseManifest(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "manifest %s rejected: %s\n", path.c_str(),
                 parsed.status().ToString().c_str());
    return false;
  }
  *manifest = std::move(parsed).value();
  return true;
}

// Checks every line of `path` is a self-contained JSON snapshot with the
// schema the exporter promises ({"ts_ms":..,"seq":..,"metrics":{...}} with
// the serve counters present), and that there are at least the t=0 and
// flush-on-shutdown snapshots. Lines are read whole: a snapshot grows with
// the instruments registered. Returns the number of problems found.
int ValidateTelemetryFile(const std::string& path) {
  std::string text;
  int failures = ReadFileToString(path, &text) ? 0 : 1;
  const std::vector<std::string> lines = SplitLines(text);
  for (size_t i = 0; i < lines.size(); ++i) {
    obs::JsonValue doc;
    const obs::JsonValue* ts = nullptr;
    const obs::JsonValue* seq = nullptr;
    const obs::JsonValue* metrics = nullptr;
    const obs::JsonValue* counters = nullptr;
    if (!obs::JsonParse(lines[i], &doc) || !doc.is_object() ||
        (ts = doc.Find("ts_ms")) == nullptr || !ts->is_number() ||
        (seq = doc.Find("seq")) == nullptr || !seq->is_number() ||
        (metrics = doc.Find("metrics")) == nullptr ||
        (counters = metrics->Find("counters")) == nullptr ||
        counters->Find("serve/requests_total") == nullptr) {
      std::fprintf(stderr,
                   "telemetry: line %zu is not a JSON snapshot with ts_ms, "
                   "seq and serve/requests_total\n",
                   i + 1);
      ++failures;
    }
  }
  if (lines.size() < 2) {
    std::fprintf(stderr, "telemetry: %s has %zu lines, expected >= 2\n",
                 path.c_str(), lines.size());
    ++failures;
  }
  return failures;
}

// Answers `in` line by line on `out` until EOF. Lines are read whole, so a
// long request is still one request and replies stay paired with requests
// by order. A line longer than the socket path's cap
// (SocketServerConfig::max_line_bytes) gets one InvalidArgument error
// instead of a parse.
void ServeLines(serve::ModelService& service, std::istream& in,
                std::ostream& out) {
  std::fprintf(stderr, "ready: one request per line on stdin\n");
  const size_t max_bytes =
      static_cast<size_t>(serve::SocketServerConfig().max_line_bytes);
  std::string line;
  while (std::getline(in, line)) {
    out << (line.size() > max_bytes
                ? "ERROR " + Status::InvalidArgument(
                                 "request line exceeds " +
                                 std::to_string(max_bytes) + " bytes")
                                 .ToString()
                : service.HandleLine(line))
        << '\n'
        << std::flush;
  }
}

// Everything besides the models that main takes from the command line.
struct ServeOptions {
  serve::MicroBatcherConfig batcher;
  serve::SocketServerConfig socket;  // empty path: serve `in` -> `out`
  obs::TelemetryExporterOptions telemetry;
  int64_t trace_sample = 16;
};

// Loads `manifest` and serves it until `in` reaches EOF or the socket shuts
// down. Returns the process exit code.
int Serve(const serve::Manifest& manifest, const ServeOptions& options,
          std::istream& in, std::ostream& out) {
  // Declared before the registry: destroyed after it, so completions from
  // draining batchers can still Post safely (serve/netio.h lifecycle note).
  std::unique_ptr<serve::SocketServer> socket_server;
  serve::ModelRegistry registry(options.batcher);
  Status loaded = registry.Load(manifest);
  if (!loaded.ok()) {
    std::fprintf(stderr, "cannot load models: %s\n",
                 loaded.ToString().c_str());
    return 1;
  }
  for (const auto& model : registry.List()) {
    const serve::ManifestEntry& e = model->entry();
    std::fprintf(stderr,
                 "loaded %s v%lld from %s: %lld channels, lookback %lld -> "
                 "horizon %lld%s\n",
                 e.name.c_str(), (long long)e.version, e.checkpoint.c_str(),
                 (long long)model->session()->model_config().channels,
                 (long long)e.options.lookback, (long long)e.options.horizon,
                 e.name == registry.default_model() ? " (default)" : "");
  }
  serve::ModelService service(&registry);

  obs::TraceRing::Global().SetSampleEvery(options.trace_sample);
  // The exporter always runs (the TRACE admin command needs it); without
  // --telemetry-out it only services dump requests, no snapshot file.
  // Started after the registry's batchers exist, so even its first snapshot
  // carries the serve/* instruments.
  obs::TelemetryExporter exporter(options.telemetry);
  if (!exporter.Start()) {
    std::fprintf(stderr, "cannot open telemetry output %s\n",
                 options.telemetry.path.c_str());
    return 1;
  }
  service.SetExporter(&exporter);

  int rc = 0;
  if (options.socket.path.empty()) {
    ServeLines(service, in, out);
  } else {
    socket_server = std::make_unique<serve::SocketServer>(
        options.socket,
        [&service](std::string line, std::function<void(std::string)> rp) {
          service.HandleLineAsync(line, std::move(rp));
        });
    Status listening = socket_server->Listen();
    if (!listening.ok()) {
      std::fprintf(stderr, "cannot listen on %s: %s\n",
                   options.socket.path.c_str(),
                   listening.ToString().c_str());
      rc = 1;
    } else {
      std::fprintf(stderr, "listening on %s (max %lld connections)\n",
                   options.socket.path.c_str(),
                   (long long)options.socket.max_conns);
      socket_server->Run();
    }
  }
  exporter.Stop();
  return rc;
}

// The --selftest body (see the file comment). Returns the exit code.
int SelfTest(const std::string& telemetry_out) {
  Rng rng(21);
  const Tensor series = Tensor::RandNormal({2, 300}, 0.0f, 1.0f, rng);
  ForecastPipelineConfig pc;
  pc.lookback = 32;
  pc.horizon = 8;
  pc.trainer.epochs = 1;
  pc.trainer.max_batches_per_epoch = 4;
  ForecastPipeline pipe(pc, /*seed=*/5);
  pipe.Fit(series);

  const std::string prefix =
      "msd_serve_selftest_" + std::to_string(static_cast<long>(getpid()));
  const std::string ckpt = prefix + ".msdckpt";
  const std::string manifest_path = prefix + ".manifest";
  const auto cleanup = [&]() {
    std::remove(ckpt.c_str());
    std::remove((ckpt + ".meta").c_str());
    std::remove(manifest_path.c_str());
  };
  serve::Manifest manifest;
  std::FILE* mf = std::fopen(manifest_path.c_str(), "w");
  const bool wrote =
      pipe.Save(ckpt).ok() && mf != nullptr &&
      std::fprintf(mf,
                   "# selftest fleet\n"
                   "model name=alpha version=1 checkpoint=%s lookback=32 "
                   "horizon=8\n",
                   ckpt.c_str()) > 0;
  if (mf != nullptr) std::fclose(mf);
  if (!wrote || !ReadManifest(manifest_path, &manifest)) {
    std::fprintf(stderr, "selftest: cannot write and read back %s\n",
                 manifest_path.c_str());
    cleanup();
    return 1;
  }

  // The oracle parses exactly the text the server parses (replies are
  // %.6g-rounded), so a correct reply is byte-identical.
  serve::ForecastSessionOptions so;
  so.lookback = 32;
  so.horizon = 8;
  so.max_batch = 1;
  auto oracle = serve::CreateForecastSession(ckpt, so);
  const std::string line =
      serve::FormatTensorLine(Slice(series, 1, 0, pc.lookback));
  auto want = oracle.ok() ? oracle.value()->Predict(
                                serve::ParseWindowLine(line, 0, 0).value())
                          : StatusOr<Tensor>(oracle.status());
  if (!want.ok()) {
    std::fprintf(stderr, "selftest: oracle failed: %s\n",
                 want.status().ToString().c_str());
    cleanup();
    return 1;
  }

  // A line over the 1 MiB cap, a 2-channel window over 64 KiB (too long for
  // the model), then the valid window.
  std::istringstream in(
      std::string((1 << 20) + 1, '1') + "\n" +
      serve::FormatTensorLine(Tensor::RandNormal({2, 8192}, 0.0f, 1.0f, rng)) +
      "\n" + line + "\n");
  std::ostringstream out;
  ServeOptions options;
  options.batcher.max_delay_us = 0;  // main's stdin-mode default
  options.telemetry.path = telemetry_out;
  options.telemetry.interval_ms = 50;
  int failures = Serve(manifest, options, in, out) == 0 ? 0 : 1;
  cleanup();
  const std::vector<std::string> replies = SplitLines(out.str());
  const std::string want_line = serve::FormatTensorLine(want.value());
  if (replies.size() != 3 ||
      replies[0].rfind("ERROR InvalidArgument", 0) != 0 ||
      replies[1].rfind("ERROR InvalidArgument", 0) != 0 ||
      replies[2] != want_line) {
    std::fprintf(stderr,
                 "selftest: want 3 replies (two InvalidArgument errors, then "
                 "the oracle's forecast), got %zu:\n",
                 replies.size());
    for (const std::string& reply : replies) {
      std::fprintf(stderr, "  %.120s\n", reply.c_str());
    }
    ++failures;
  }
  if (!telemetry_out.empty()) failures += ValidateTelemetryFile(telemetry_out);
  std::printf("selftest %s\n", failures == 0 ? "passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // A client that disappears mid-reply must surface as EPIPE on the write,
  // not kill the server (serve/netio.h's MSG_NOSIGNAL covers socket sends;
  // this covers stdout and any straggler).
  std::signal(SIGPIPE, SIG_IGN);
  std::map<std::string, int64_t> ints;
  if (!ParseIntFlags(argc, argv, &ints)) {
    Usage(argv[0]);
    return 2;
  }
  const auto int_flag = [&ints](const char* name, int64_t fallback) {
    const auto it = ints.find(name);
    return it == ints.end() ? fallback : it->second;
  };
  ServeOptions options;
  options.telemetry.path = FlagValue(argc, argv, "--telemetry-out");
  std::string unused;
  if (FindFlag(argc, argv, "--selftest", &unused)) {
    return SelfTest(options.telemetry.path);
  }
  const std::string manifest_path = FlagValue(argc, argv, "--manifest");
  if (manifest_path.empty() && (argc < 2 || argv[1][0] == '-')) {
    Usage(argv[0]);
    return 2;
  }

  serve::Manifest manifest;
  if (!manifest_path.empty()) {
    if (!ReadManifest(manifest_path, &manifest)) return 1;
  } else {
    // Single-checkpoint sugar: a one-entry manifest named "default".
    serve::ManifestEntry entry;
    entry.name = "default";
    entry.version = 1;
    entry.checkpoint = argv[1];
    serve::ForecastSessionOptions& o = entry.options;
    o.lookback = int_flag("--lookback", o.lookback);
    o.horizon = int_flag("--horizon", o.horizon);
    o.model_dim = int_flag("--model-dim", o.model_dim);
    o.hidden_dim = int_flag("--hidden-dim", o.hidden_dim);
    o.max_batch = int_flag("--max-batch", o.max_batch);
    manifest.default_model = entry.name;
    manifest.entries.push_back(std::move(entry));
  }

  options.socket.path = FlagValue(argc, argv, "--socket");
  options.batcher.max_batch = int_flag("--max-batch", 8);
  // The stdin loop never has a second request in flight, so waiting for a
  // batch partner there only delays the reply.
  options.batcher.max_delay_us =
      int_flag("--max-delay-us", options.socket.path.empty() ? 0 : 2000);
  options.socket.max_conns =
      int_flag("--max-conns", options.socket.max_conns);
  options.socket.backlog = int_flag("--backlog", options.socket.backlog);
  options.telemetry.interval_ms = int_flag("--telemetry-interval-ms", 1000);
  options.trace_sample = int_flag("--trace-sample", 16);
  return Serve(manifest, options, std::cin, std::cout);
}
