// Serving CLI (docs/SERVING.md): restores one or many ForecastPipeline
// checkpoints into frozen serve::InferenceSessions behind a
// serve::ModelRegistry and answers text-protocol requests — one window per
// line, channels separated by ';', values by ','; the reply is the forecast
// in the same layout or "ERROR <code>: <message>". Requests may address a
// model explicitly with a "MODEL <name> " prefix; without it the manifest's
// default model answers.
//
//   msd_serve <checkpoint> [--lookback N] [--horizon N] [--model-dim N]
//             [--hidden-dim N] [--max-batch N] [--max-inflight N]
//             [--max-delay-us N] [--workers N] [--socket PATH]
//             [--max-conns N] [--backlog N] [--telemetry-out FILE]
//             [--telemetry-interval-ms N] [--trace-sample N]
//   msd_serve --manifest FILE [--max-batch N] [--max-delay-us N] ...
//   msd_serve --selftest [--telemetry-out FILE]
//
// --manifest FILE serves a whole fleet: one `model name=... version=...
// checkpoint=...` line per tenant (serve/registry.h documents the keys).
// The single-checkpoint form is sugar for a one-entry manifest whose model
// is named "default".
//
// By default requests are read from stdin and answered on stdout (shell
// pipelines, smoke tests). With --socket PATH the tool listens on an
// AF_UNIX stream socket through serve::SocketServer — an epoll loop that
// multiplexes up to --max-conns concurrent connections and resolves
// requests through the batchers' async path, so slow clients never block
// each other. Admin commands: STATS (per-model counters included), LIST,
// RELOAD <model> <checkpoint> (atomic hot-swap; in-flight requests finish
// on the old session), TRACE <path>.
//
// --selftest trains small pipelines on synthetic data and drives a
// two-tenant manifest through the full stack: MODEL-prefixed and default
// routing, LIST, a live RELOAD hot-swap, STATS (global and per-model), a
// TRACE dump, a malformed line, and a round trip over a real SocketServer
// connection. Every data reply is memcmp'd against a direct oracle session
// over the same checkpoint and checked against the pipeline's own Predict:
// alpha serves fp32 (to %.6g text precision), beta is the manifest's
// quantize=1 tenant (its plan must have adopted int8 steps, and it answers
// within the 2% quantization accuracy contract). Exits nonzero on any
// mismatch — this is the msd_serve_selftest ctest.
//
// Telemetry: a background obs::TelemetryExporter appends a JSONL registry
// snapshot to --telemetry-out every --telemetry-interval-ms and services
// the `TRACE <path>` admin command (chrome://tracing dump of the sampled
// request ring; --trace-sample N keeps 1-in-N requests, 0 disables).
//
// All transport IO lives here or in serve/netio.cc (raw non-blocking
// syscalls); the no-blocking-io-in-serve-hot-path lint rule keeps the
// engine itself free of buffered stdio. SIGPIPE is ignored process-wide so
// a vanished client surfaces as EPIPE on write, not a process kill.
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "datagen/series_builder.h"
#include "obs/exporter.h"
#include "obs/json.h"
#include "obs/ring.h"
#include "runtime/worker.h"
#include "serve/netio.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "tasks/pipeline.h"
#include "tensor/tensor_ops.h"

namespace {

using namespace msd;

std::string FlagValue(int argc, char** argv, const std::string& flag) {
  const std::string prefix = flag + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == flag && i + 1 < argc) return argv[i + 1];
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
  }
  return "";
}

int64_t IntFlag(int argc, char** argv, const std::string& flag,
                int64_t fallback) {
  const std::string v = FlagValue(argc, argv, flag);
  return v.empty() ? fallback : std::atoll(v.c_str());
}

bool HasFlag(int argc, char** argv, const std::string& flag) {
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <checkpoint> [--lookback N] [--horizon N]\n"
               "          [--model-dim N] [--hidden-dim N] [--max-batch N]\n"
               "          [--max-inflight N] [--max-delay-us N] [--workers N]\n"
               "          [--socket PATH] [--max-conns N] [--backlog N]\n"
               "          [--telemetry-out FILE] [--telemetry-interval-ms N]\n"
               "          [--trace-sample N]\n"
               "       %s --manifest FILE [serving flags as above]\n"
               "       %s --selftest [--telemetry-out FILE]\n",
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

// Reads `path` and checks every line is a self-contained JSON snapshot with
// the schema the exporter promises ({"ts_ms":..,"seq":..,"metrics":{...}}
// with the serve counters present). Returns the number of problems found.
int ValidateTelemetryFile(const std::string& path, int64_t min_lines) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    std::fprintf(stderr, "telemetry: cannot open %s\n", path.c_str());
    return 1;
  }
  int failures = 0;
  int64_t lines = 0;
  char line[1 << 16];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    ++lines;
    obs::JsonValue doc;
    if (!obs::JsonParse(line, &doc) || !doc.is_object()) {
      std::fprintf(stderr, "telemetry: line %lld is not valid JSON\n",
                   (long long)lines);
      ++failures;
      continue;
    }
    const obs::JsonValue* ts = doc.Find("ts_ms");
    const obs::JsonValue* seq = doc.Find("seq");
    const obs::JsonValue* metrics = doc.Find("metrics");
    if (ts == nullptr || !ts->is_number() || seq == nullptr ||
        !seq->is_number() || metrics == nullptr || !metrics->is_object()) {
      std::fprintf(stderr, "telemetry: line %lld misses ts_ms/seq/metrics\n",
                   (long long)lines);
      ++failures;
      continue;
    }
    const obs::JsonValue* counters = metrics->Find("counters");
    if (counters == nullptr ||
        counters->Find("serve/requests_total") == nullptr) {
      std::fprintf(stderr,
                   "telemetry: line %lld misses serve/requests_total\n",
                   (long long)lines);
      ++failures;
    }
  }
  std::fclose(f);
  if (lines < min_lines) {
    std::fprintf(stderr, "telemetry: %s has %lld lines, expected >= %lld\n",
                 path.c_str(), (long long)lines, (long long)min_lines);
    ++failures;
  }
  return failures;
}

// Serves stdin line-by-line; EOF terminates cleanly.
int ServeStdin(serve::ModelService& service) {
  std::fprintf(stderr, "ready: one request per line on stdin\n");
  char line[1 << 16];
  while (std::fgets(line, sizeof(line), stdin) != nullptr) {
    const std::string reply = service.HandleLine(line);
    std::printf("%s\n", reply.c_str());
    std::fflush(stdout);
  }
  return 0;
}

// --- blocking AF_UNIX client helpers (selftest + simple tooling) ---------

int ConnectUnix(const std::string& path) {
  const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  int rc;
  do {
    rc = connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

// Sends one request line and reads exactly one '\n'-framed reply.
std::string RoundTrip(int fd, const std::string& line) {
  const std::string framed = line + "\n";
  size_t sent = 0;
  while (sent < framed.size()) {
    const ssize_t w =
        send(fd, framed.data() + sent, framed.size() - sent, MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return "ERROR Internal: client write failed";
    sent += static_cast<size_t>(w);
  }
  std::string reply;
  char c;
  for (;;) {
    const ssize_t n = read(fd, &c, 1);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return "ERROR Internal: client read failed";
    if (c == '\n') break;
    reply.push_back(c);
  }
  return reply;
}

ForecastPipelineConfig SelfTestPipelineConfig(int64_t horizon) {
  ForecastPipelineConfig pc;
  pc.lookback = 32;
  pc.horizon = horizon;
  pc.trainer.epochs = 2;
  pc.trainer.batch_size = 16;
  pc.trainer.max_batches_per_epoch = 8;
  pc.trainer.early_stop_patience = 0;
  return pc;
}

Tensor SelfTestSeries(uint64_t seed) {
  SeriesConfig series_config;
  series_config.name = "selftest";
  series_config.length = 400;
  series_config.seed = seed;
  for (int c = 0; c < 2; ++c) {
    ChannelSpec channel;
    channel.level = 1.0 + c;
    channel.seasonals.push_back({24.0, 1.0, 0.4 * c, 2});
    channel.noise_sigma = 0.05;
    series_config.channels.push_back(channel);
  }
  return GenerateSeries(series_config);
}

// The --selftest body (see the file comment). Every data reply is memcmp'd
// against a direct oracle session over the same checkpoint — the
// determinism contract makes matching replies byte-identical, so a
// misrouted or version-crossed reply cannot pass. Returns the process exit
// code.
int SelfTest(int argc, char** argv) {
  int failures = 0;
  const Tensor series_a = SelfTestSeries(21);
  const Tensor series_b = SelfTestSeries(33);

  // Different horizons: a reply from the wrong tenant has the wrong shape.
  const ForecastPipelineConfig pa = SelfTestPipelineConfig(/*horizon=*/8);
  const ForecastPipelineConfig pb = SelfTestPipelineConfig(/*horizon=*/4);
  ForecastPipeline pipe_a(pa, /*seed=*/5);
  ForecastPipeline pipe_a2(pa, /*seed=*/13);  // the hot-swap replacement
  ForecastPipeline pipe_b(pb, /*seed=*/9);
  pipe_a.Fit(series_a);
  pipe_a2.Fit(series_a);
  pipe_b.Fit(series_b);

  char prefix[96];
  std::snprintf(prefix, sizeof(prefix), "msd_selftest_mm_%d", (int)getpid());
  const std::string ckpt_a = std::string(prefix) + "_a.msdckpt";
  const std::string ckpt_a2 = std::string(prefix) + "_a2.msdckpt";
  const std::string ckpt_b = std::string(prefix) + "_b.msdckpt";
  if (!pipe_a.Save(ckpt_a).ok() || !pipe_a2.Save(ckpt_a2).ok() ||
      !pipe_b.Save(ckpt_b).ok()) {
    std::fprintf(stderr, "selftest: multi-model save failed\n");
    return 1;
  }

  // The manifest goes through the real file path the --manifest flag uses.
  const std::string manifest_path = std::string(prefix) + ".manifest";
  {
    std::FILE* mf = std::fopen(manifest_path.c_str(), "w");
    if (mf == nullptr) {
      std::fprintf(stderr, "selftest: cannot write %s\n",
                   manifest_path.c_str());
      return 1;
    }
    std::fprintf(mf,
                 "# two-tenant selftest fleet\n"
                 "model name=alpha version=1 checkpoint=%s lookback=32 "
                 "horizon=8 default=1\n"
                 "model name=beta version=1 checkpoint=%s lookback=32 "
                 "horizon=4 max_inflight=64 quantize=1\n",
                 ckpt_a.c_str(), ckpt_b.c_str());
    std::fclose(mf);
  }
  std::string manifest_text;
  if (!ReadFileToString(manifest_path, &manifest_text)) {
    std::fprintf(stderr, "selftest: cannot read back %s\n",
                 manifest_path.c_str());
    return 1;
  }
  auto manifest = serve::ParseManifest(manifest_text);
  if (!manifest.ok()) {
    std::fprintf(stderr, "selftest: manifest rejected: %s\n",
                 manifest.status().ToString().c_str());
    return 1;
  }

  // Oracles: direct sessions over the same checkpoints with the tenants'
  // quantize settings, so replies match bytes.
  serve::ForecastSessionOptions oa;
  oa.lookback = 32;
  oa.horizon = 8;
  serve::ForecastSessionOptions ob;
  ob.lookback = 32;
  ob.horizon = 4;
  ob.quantize = true;
  auto oracle_a = serve::CreateForecastSession(ckpt_a, oa);
  auto oracle_a2 = serve::CreateForecastSession(ckpt_a2, oa);
  auto oracle_b = serve::CreateForecastSession(ckpt_b, ob);
  if (!oracle_a.ok() || !oracle_a2.ok() || !oracle_b.ok()) {
    std::fprintf(stderr, "selftest: oracle session failed\n");
    return 1;
  }
  // The oracle must see exactly the bytes the server parses: the request
  // line is %.6g-rounded, so the expected reply is computed from the
  // round-tripped window, making matching replies byte-identical.
  auto expect = [](serve::InferenceSession* session, const std::string& line) {
    auto window = serve::ParseWindowLine(line, /*channels=*/0, /*length=*/0);
    if (!window.ok()) return "ERROR " + window.status().ToString();
    auto out = session->Predict(window.value());
    return out.ok() ? serve::FormatTensorLine(out.value())
                    : "ERROR " + out.status().ToString();
  };

  obs::TelemetryExporterOptions exporter_options;
  exporter_options.path = FlagValue(argc, argv, "--telemetry-out");
  exporter_options.interval_ms = 50;
  obs::TelemetryExporter exporter(exporter_options);
  {
    // The SocketServer outlives the registry (completions Post through it
    // while batchers drain), hence the declaration order.
    serve::SocketServerConfig sc;
    sc.path = std::string("/tmp/") + prefix + ".sock";
    sc.max_conns = 8;
    serve::MicroBatcherConfig bc;
    bc.max_delay_us = 500;
    std::unique_ptr<serve::SocketServer> socket_server;
    runtime::WorkerGroup loop_thread;
    serve::ModelRegistry registry(bc);
    Status loaded = registry.Load(manifest.value());
    if (!loaded.ok()) {
      std::fprintf(stderr, "selftest: registry load failed: %s\n",
                   loaded.ToString().c_str());
      return 1;
    }
    serve::ModelService service(&registry);

    // Started after the registry's batchers exist, so even the exporter's
    // first snapshot carries the serve/* instruments. Every request is
    // sampled so the TRACE dump below is never empty.
    obs::TraceRing::Global().SetSampleEvery(1);
    if (!exporter.Start()) {
      std::fprintf(stderr, "selftest: cannot open %s\n",
                   exporter_options.path.c_str());
      return 1;
    }
    service.SetExporter(&exporter);

    // beta is the int8 tenant: its plan must have adopted int8 steps, and
    // its replies agree with the fp32 pipeline to quantization accuracy
    // only.
    const serve::InferenceSession* beta_session =
        registry.Get("beta").value()->session();
    if (!beta_session->quantized() ||
        beta_session->plan().stats().num_quantized == 0) {
      std::fprintf(stderr,
                   "selftest: beta is quantize=1 but its plan adopted no "
                   "int8 steps\n");
      ++failures;
    }
    // The served reply tracks the pipeline's own Predict, to the %.6g text
    // precision for fp32 alpha and the int8 accuracy budget for beta.
    auto tracks_pipeline = [](const std::string& reply, const Tensor& window,
                              int64_t horizon, ForecastPipeline& pipe,
                              float tol) {
      auto parsed = serve::ParseWindowLine(reply, window.dim(0), horizon);
      return parsed.ok() && AllClose(parsed.value(), pipe.Predict(window),
                                     /*atol=*/tol, /*rtol=*/tol);
    };

    for (int64_t offset = 0; offset < 64; offset += 16) {
      const Tensor window_a = Slice(series_a, 1, offset, pa.lookback);
      const Tensor window_b = Slice(series_b, 1, offset, pb.lookback);
      const std::string line_a = serve::FormatTensorLine(window_a);
      const std::string line_b = serve::FormatTensorLine(window_b);
      const std::string want_a = expect(oracle_a.value().get(), line_a);
      const std::string want_b = expect(oracle_b.value().get(), line_b);
      const std::string got_a = service.HandleLine("MODEL alpha " + line_a);
      const std::string got_b = service.HandleLine("MODEL beta " + line_b);
      const std::string got_default = service.HandleLine(line_a);
      if (got_a != want_a) {
        std::fprintf(stderr, "selftest: MODEL alpha reply mismatch:\n"
                             "  got:  %s\n  want: %s\n",
                     got_a.c_str(), want_a.c_str());
        ++failures;
      }
      if (!tracks_pipeline(got_a, window_a, pa.horizon, pipe_a, 1e-3f)) {
        std::fprintf(stderr,
                     "selftest: alpha reply diverges from pipeline Predict: "
                     "%s\n",
                     got_a.c_str());
        ++failures;
      }
      if (got_b != want_b) {
        std::fprintf(stderr, "selftest: MODEL beta reply mismatch\n");
        ++failures;
      }
      if (!tracks_pipeline(got_b, window_b, pb.horizon, pipe_b, 2e-2f)) {
        std::fprintf(stderr,
                     "selftest: int8 beta reply diverges from pipeline "
                     "Predict: %s\n",
                     got_b.c_str());
        ++failures;
      }
      if (got_default != want_a) {
        std::fprintf(stderr,
                     "selftest: default route did not hit the default "
                     "model\n");
        ++failures;
      }
    }

    const std::string unknown = service.HandleLine("MODEL ghost 1,2");
    if (unknown.rfind("ERROR NotFound", 0) != 0) {
      std::fprintf(stderr, "selftest: unknown model not NotFound: %s\n",
                   unknown.c_str());
      ++failures;
    }
    const std::string malformed = service.HandleLine("1,2,spam");
    if (malformed.rfind("ERROR", 0) != 0) {
      std::fprintf(stderr, "selftest: malformed request not rejected: %s\n",
                   malformed.c_str());
      ++failures;
    }

    // LIST: both tenants at v1, alpha the default.
    const std::string list = service.HandleLine("LIST");
    obs::JsonValue list_doc;
    if (!obs::JsonParse(list, &list_doc) || !list_doc.is_object() ||
        list_doc.Find("default") == nullptr ||
        list_doc.Find("default")->str != "alpha" ||
        list_doc.Find("models") == nullptr ||
        list_doc.Find("models")->array.size() != 2) {
      std::fprintf(stderr, "selftest: bad LIST reply: %s\n", list.c_str());
      ++failures;
    }

    // Live hot-swap: alpha moves to the retrained checkpoint; beta is
    // untouched; replies flip to the new oracle.
    const std::string reload =
        service.HandleLine("RELOAD alpha " + ckpt_a2);
    if (reload != "OK alpha v2") {
      std::fprintf(stderr, "selftest: RELOAD failed: %s\n", reload.c_str());
      ++failures;
    }
    const std::string line =
        serve::FormatTensorLine(Slice(series_a, 1, 0, pa.lookback));
    if (service.HandleLine("MODEL alpha " + line) !=
        expect(oracle_a2.value().get(), line)) {
      std::fprintf(stderr,
                   "selftest: post-RELOAD alpha reply is not v2's\n");
      ++failures;
    }
    const std::string line_b =
        serve::FormatTensorLine(Slice(series_b, 1, 0, pb.lookback));
    if (service.HandleLine("MODEL beta " + line_b) !=
        expect(oracle_b.value().get(), line_b)) {
      std::fprintf(stderr, "selftest: RELOAD of alpha disturbed beta\n");
      ++failures;
    }
    const std::string bad_reload =
        service.HandleLine("RELOAD alpha does_not_exist.msdckpt");
    if (bad_reload.rfind("ERROR", 0) != 0) {
      std::fprintf(stderr, "selftest: RELOAD of a bad checkpoint passed\n");
      ++failures;
    }

    // STATS: the global counters and latency quantiles, plus a per-model
    // object reflecting the traffic and the new version.
    const std::string stats = service.HandleLine("STATS\n");
    obs::JsonValue stats_doc;
    const obs::JsonValue* models = nullptr;
    const obs::JsonValue* alpha = nullptr;
    if (!obs::JsonParse(stats, &stats_doc) ||
        stats_doc.Find("requests_total") == nullptr ||
        stats_doc.Find("e2e_us") == nullptr ||
        (models = stats_doc.Find("models")) == nullptr ||
        (alpha = models->Find("alpha")) == nullptr ||
        models->Find("beta") == nullptr) {
      std::fprintf(stderr, "selftest: bad STATS reply: %s\n", stats.c_str());
      ++failures;
    } else if (alpha->Find("version") == nullptr ||
               alpha->Find("version")->number != 2.0 ||
               alpha->Find("requests_total") == nullptr ||
               alpha->Find("requests_total")->number < 4.0) {
      std::fprintf(stderr, "selftest: STATS alpha counters wrong: %s\n",
                   stats.c_str());
      ++failures;
    }

    // TRACE: the dump must parse and contain the three per-request phases.
    char trace_path[128];
    std::snprintf(trace_path, sizeof(trace_path),
                  "msd_serve_selftest_trace_%d.json", (int)getpid());
    const std::string trace_reply =
        service.HandleLine(std::string("TRACE ") + trace_path + "\n");
    if (trace_reply.rfind("OK", 0) != 0) {
      std::fprintf(stderr, "selftest: TRACE failed: %s\n", trace_reply.c_str());
      ++failures;
    } else {
      std::string trace_json;
      if (!ReadFileToString(trace_path, &trace_json)) {
        std::fprintf(stderr, "selftest: cannot read TRACE dump\n");
        ++failures;
      }
      obs::JsonValue trace_doc;
      const obs::JsonValue* events = nullptr;
      if (!obs::JsonParse(trace_json, &trace_doc) ||
          (events = trace_doc.Find("traceEvents")) == nullptr ||
          !events->is_array() || events->array.empty()) {
        std::fprintf(stderr, "selftest: TRACE dump unparseable or empty\n");
        ++failures;
      } else {
        bool saw_queue = false, saw_assembly = false, saw_compute = false;
        for (const obs::JsonValue& event : events->array) {
          const obs::JsonValue* name = event.Find("name");
          if (name == nullptr || !name->is_string()) continue;
          saw_queue = saw_queue || name->str == "queue";
          saw_assembly = saw_assembly || name->str == "batch_assembly";
          saw_compute = saw_compute || name->str == "compute";
        }
        if (!saw_queue || !saw_assembly || !saw_compute) {
          std::fprintf(stderr,
                       "selftest: TRACE dump misses a request phase span\n");
          ++failures;
        }
      }
    }
    std::remove(trace_path);

    // One round trip over the real epoll transport.
    socket_server = std::make_unique<serve::SocketServer>(
        sc, [&service](std::string req, std::function<void(std::string)> rp) {
          service.HandleLineAsync(req, std::move(rp));
        });
    Status listening = socket_server->Listen();
    if (!listening.ok()) {
      std::fprintf(stderr, "selftest: socket listen failed: %s\n",
                   listening.ToString().c_str());
      ++failures;
    } else {
      loop_thread.Start(1, [&socket_server](int64_t) { socket_server->Run(); });
      const int fd = ConnectUnix(sc.path);
      if (fd < 0) {
        std::fprintf(stderr, "selftest: socket connect failed\n");
        ++failures;
      } else {
        if (RoundTrip(fd, "MODEL beta " + line_b) !=
            expect(oracle_b.value().get(), line_b)) {
          std::fprintf(stderr, "selftest: socket beta reply mismatch\n");
          ++failures;
        }
        const std::string socket_list = RoundTrip(fd, "LIST");
        if (socket_list.find("\"default\":\"alpha\"") == std::string::npos) {
          std::fprintf(stderr, "selftest: socket LIST mismatch: %s\n",
                       socket_list.c_str());
          ++failures;
        }
        close(fd);
      }
      socket_server->Shutdown();
      loop_thread.Join();
    }
  }

  std::remove(ckpt_a.c_str());
  std::remove((ckpt_a + ".meta").c_str());
  std::remove(ckpt_a2.c_str());
  std::remove((ckpt_a2 + ".meta").c_str());
  std::remove(ckpt_b.c_str());
  std::remove((ckpt_b + ".meta").c_str());
  std::remove(manifest_path.c_str());

  exporter.Stop();
  if (!exporter_options.path.empty()) {
    // At least the t=0 and flush-on-shutdown snapshots must be present.
    failures += ValidateTelemetryFile(exporter_options.path, /*min_lines=*/2);
  }
  std::printf("selftest %s\n", failures == 0 ? "passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // A client that disappears mid-reply must surface as EPIPE on the write,
  // not kill the server (serve/netio.h's MSG_NOSIGNAL covers socket sends;
  // this covers stdout and any straggler).
  std::signal(SIGPIPE, SIG_IGN);
  if (HasFlag(argc, argv, "--selftest")) return SelfTest(argc, argv);
  const std::string manifest_path = FlagValue(argc, argv, "--manifest");
  if (manifest_path.empty() && (argc < 2 || argv[1][0] == '-')) {
    Usage(argv[0]);
    return 2;
  }

  serve::Manifest manifest;
  if (!manifest_path.empty()) {
    std::string text;
    if (!ReadFileToString(manifest_path, &text)) {
      std::fprintf(stderr, "cannot read manifest %s\n", manifest_path.c_str());
      return 1;
    }
    auto parsed = serve::ParseManifest(text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "manifest %s rejected: %s\n", manifest_path.c_str(),
                   parsed.status().ToString().c_str());
      return 1;
    }
    manifest = std::move(parsed).value();
  } else {
    // Single-checkpoint sugar: a one-entry manifest named "default".
    serve::ManifestEntry entry;
    entry.name = "default";
    entry.version = 1;
    entry.checkpoint = argv[1];
    entry.lookback = IntFlag(argc, argv, "--lookback", entry.lookback);
    entry.horizon = IntFlag(argc, argv, "--horizon", entry.horizon);
    entry.model_dim = IntFlag(argc, argv, "--model-dim", entry.model_dim);
    entry.hidden_dim = IntFlag(argc, argv, "--hidden-dim", entry.hidden_dim);
    entry.max_batch = IntFlag(argc, argv, "--max-batch", entry.max_batch);
    entry.max_inflight =
        IntFlag(argc, argv, "--max-inflight", entry.max_inflight);
    manifest.default_model = entry.name;
    manifest.entries.push_back(std::move(entry));
  }

  serve::MicroBatcherConfig bc;
  bc.max_batch = IntFlag(argc, argv, "--max-batch", 8);
  bc.max_delay_us = IntFlag(argc, argv, "--max-delay-us", 2000);
  bc.num_workers = IntFlag(argc, argv, "--workers", 1);

  // Declared before the registry: destroyed after it, so completions from
  // draining batchers can still Post safely (serve/netio.h lifecycle note).
  std::unique_ptr<serve::SocketServer> socket_server;
  serve::ModelRegistry registry(bc);
  Status loaded = registry.Load(manifest);
  if (!loaded.ok()) {
    std::fprintf(stderr, "cannot load models: %s\n",
                 loaded.ToString().c_str());
    return 1;
  }
  for (const auto& model : registry.List()) {
    std::fprintf(stderr,
                 "loaded %s v%lld from %s: %lld channels, lookback %lld -> "
                 "horizon %lld%s\n",
                 model->name().c_str(), (long long)model->version(),
                 model->entry().checkpoint.c_str(),
                 (long long)model->session()->model_config().channels,
                 (long long)model->entry().lookback,
                 (long long)model->entry().horizon,
                 model->name() == registry.default_model() ? " (default)"
                                                           : "");
  }
  serve::ModelService service(&registry);

  const int64_t sample = IntFlag(argc, argv, "--trace-sample", 16);
  obs::TraceRing::Global().SetSampleEvery(sample);
  // The exporter always runs (the TRACE admin command needs it); without
  // --telemetry-out it only services dump requests, no snapshot file.
  obs::TelemetryExporterOptions exporter_options;
  exporter_options.path = FlagValue(argc, argv, "--telemetry-out");
  exporter_options.interval_ms =
      IntFlag(argc, argv, "--telemetry-interval-ms", 1000);
  obs::TelemetryExporter exporter(exporter_options);
  if (!exporter.Start()) {
    std::fprintf(stderr, "cannot open telemetry output %s\n",
                 exporter_options.path.c_str());
    return 1;
  }
  service.SetExporter(&exporter);

  int rc = 0;
  const std::string socket_path = FlagValue(argc, argv, "--socket");
  if (socket_path.empty()) {
    rc = ServeStdin(service);
  } else {
    serve::SocketServerConfig sc;
    sc.path = socket_path;
    sc.max_conns = IntFlag(argc, argv, "--max-conns", sc.max_conns);
    sc.backlog = IntFlag(argc, argv, "--backlog", sc.backlog);
    socket_server = std::make_unique<serve::SocketServer>(
        sc, [&service](std::string line, std::function<void(std::string)> rp) {
          service.HandleLineAsync(line, std::move(rp));
        });
    Status listening = socket_server->Listen();
    if (!listening.ok()) {
      std::fprintf(stderr, "cannot listen on %s: %s\n", socket_path.c_str(),
                   listening.ToString().c_str());
      rc = 1;
    } else {
      std::fprintf(stderr, "listening on %s (max %lld connections)\n",
                   socket_path.c_str(), (long long)sc.max_conns);
      socket_server->Run();
    }
  }
  exporter.Stop();
  return rc;
}
