// Multi-tenant model registry and hot-swap (docs/SERVING.md).
//
// Three layers turn frozen sessions and micro-batchers into a multi-model
// server (a single checkpoint is served as a one-entry manifest):
//
//  * ManifestEntry / ParseManifest — the text manifest describing the fleet.
//    One model per line:
//
//      model name=<id> version=<n> checkpoint=<path> [key=value ...]
//
//    Optional keys: the architecture keys lookback, horizon, model_dim,
//    hidden_dim, instance_norm (0/1), max_batch and quantize (0/1), which
//    fill the entry's ForecastSessionOptions, and default (0/1). '#' starts
//    a comment. Names are [a-z0-9_]+ so per-model metric names stay inside
//    the metric-name-taxonomy lint grammar. The parser rejects duplicate
//    model names and version regressions outright instead of silently
//    taking the last line.
//
//  * ServedModel — one live (session, micro-batcher) pair plus its
//    metrics. The batcher's bounded queue is the model's only admission
//    rule: a submission to a full queue fails fast with kResourceExhausted,
//    and since every model has its own queue, one tenant cannot queue out
//    the others. Counters/gauges: serve/<name>/requests_total,
//    serve/<name>/rejected_total, serve/<name>/inflight,
//    serve/<name>/version.
//
//  * ModelRegistry — the name -> ServedModel map with atomic hot-swap.
//    Get() hands out a shared_ptr snapshot; Swap()/Reload() flip the map
//    entry under the registry mutex so requests admitted before the flip
//    finish on the old session (their completions hold the snapshot) while
//    every later Get() sees the new one — no request is dropped or crosses
//    versions. A swap requires a strictly newer version; regressions are
//    rejected. Swapped-out models are retired, not destroyed inline: the
//    last in-flight completion may run on a batcher worker thread, and
//    destroying the ServedModel there would self-join. The retired list is
//    reaped on later admin calls and in the destructor.
//
// ModelService is the protocol front-end over a registry: the text protocol
// (serve/server.h) extended with an optional "MODEL <name> " request prefix
// and the admin commands LIST, RELOAD <name> <checkpoint>, STATS,
// TRACE <path>. HandleLineAsync is the epoll path (serve/netio.h):
// data lines resolve through MicroBatcher::SubmitAsync so no thread is
// parked per in-flight request. The blocking HandleLine and
// ServedModel::Handle wait on a promise their async twin fulfils, so every
// request completes one way.
#ifndef MSDMIXER_SERVE_REGISTRY_H_
#define MSDMIXER_SERVE_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "serve/batcher.h"
#include "serve/session.h"

namespace msd {
namespace obs {
class TelemetryExporter;
}  // namespace obs

namespace serve {

// One manifest line.
struct ManifestEntry {
  std::string name;        // [a-z0-9_]+, required
  int64_t version = 0;     // >= 1, required
  std::string checkpoint;  // required
  // The architecture keys, with the session's defaults.
  ForecastSessionOptions options;
  bool is_default = false;
};

struct Manifest {
  std::vector<ManifestEntry> entries;
  // The entry requests route to when no MODEL prefix is given: the one
  // marked default=1, else the first entry.
  std::string default_model;
};

// Parses manifest TEXT (not a path — file IO stays in the tools; see the
// no-blocking-io-in-serve-hot-path lint rule). Errors carry 1-based line
// numbers. Rejects duplicate names, version regressions between lines of
// the same name, bad keys/values, and multiple default=1 entries.
StatusOr<Manifest> ParseManifest(const std::string& text);

// A live model: frozen session + its own micro-batcher. Construction
// starts the batcher's worker; destruction stops it (pending requests
// resolve kCancelled). Create ServedModels via CreateServedModel
// (builds the session from the entry's checkpoint) or directly from a
// session you already own (tests inject synthetic-compute sessions this way).
class ServedModel {
 public:
  ServedModel(const ManifestEntry& entry,
              std::unique_ptr<InferenceSession> session,
              const MicroBatcherConfig& batcher_config);
  ~ServedModel();

  ServedModel(const ServedModel&) = delete;
  ServedModel& operator=(const ServedModel&) = delete;

  // Synchronous submit-and-wait (bench clients, tests): SubmitAsync, then a
  // blocking wait on the promise its completion fulfils.
  StatusOr<Tensor> Handle(const Tensor& window);

  // MicroBatcher::SubmitAsync, counted per model. Same admission contract:
  // on OK `done` fires exactly once (it must not block); a non-OK return
  // means `done` will never fire. The request counts in inflight() from
  // admission until `done` runs; a full queue's refusal counts in
  // rejected_total().
  Status SubmitAsync(Tensor window, ResultCallback done);

  const ManifestEntry& entry() const { return entry_; }
  const std::string& name() const { return entry_.name; }
  int64_t version() const { return entry_.version; }
  InferenceSession* session() { return session_.get(); }
  MicroBatcher& batcher() { return batcher_; }
  int64_t inflight() const {
    return inflight_.load(std::memory_order_relaxed);
  }
  // Per-model counter snapshots (the STATS per-model object).
  int64_t requests_total() const { return requests_.value(); }
  int64_t rejected_total() const { return rejected_.value(); }

 private:
  // Takes one request out of inflight() and the serve/<name>/inflight gauge.
  void EndInflight();

  ManifestEntry entry_;
  std::unique_ptr<InferenceSession> session_;
  std::atomic<int64_t> inflight_{0};
  // Per-model metric handles (serve/<name>/...). Resolved once here: the
  // names are dynamic, and registry lookups by string do not belong on the
  // request path.
  obs::Counter& requests_;
  obs::Counter& rejected_;
  obs::Gauge& inflight_gauge_;
  obs::Gauge& version_gauge_;
  MicroBatcher batcher_;
};

// Builds the InferenceSession described by `entry` (checkpoint + .meta
// sidecar, CreateForecastSession) and wraps it in a started ServedModel.
// The plan is compiled at the smaller of the entry's and the batcher's
// max_batch: no batch can use rows beyond the batcher's cap.
StatusOr<std::shared_ptr<ServedModel>> CreateServedModel(
    const ManifestEntry& entry, const MicroBatcherConfig& batcher_config);

class ModelRegistry {
 public:
  explicit ModelRegistry(const MicroBatcherConfig& batcher_config);
  // Reaps every retired model and drops the live ones. Safe: this runs on
  // an owner thread, never on a batcher worker.
  ~ModelRegistry();

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  // Loads every manifest entry (CreateServedModel per entry) and records
  // the default model. Fails without side effects being rolled back —
  // callers treat a non-OK Load as fatal at startup.
  Status Load(const Manifest& manifest);

  // Registers a new model under entry.name. kInvalidArgument if the name
  // exists (use Swap/Reload to replace).
  Status Add(std::shared_ptr<ServedModel> model);

  // Snapshot lookup; empty name resolves the default model. The returned
  // shared_ptr stays valid across swaps — completions finish on the
  // session they were admitted to.
  StatusOr<std::shared_ptr<ServedModel>> Get(const std::string& name) const;

  // Atomically replaces the model named `replacement->name()`. Requires the
  // name to exist and replacement->version() to be strictly newer; rejects
  // version regressions with kInvalidArgument. Bumps serve/registry_swaps.
  Status Swap(std::shared_ptr<ServedModel> replacement);

  // Builds version current+1 of `name` from `checkpoint` (same architecture
  // keys as the original manifest entry) and Swap()s it in.
  Status Reload(const std::string& name, const std::string& checkpoint);

  // Names in deterministic (sorted) order, with their current snapshots.
  std::vector<std::shared_ptr<ServedModel>> List() const;

  const std::string& default_model() const { return default_model_; }
  void set_default_model(std::string name) {
    default_model_ = std::move(name);
  }

  // Destroys retired models with no remaining in-flight holders. Called
  // from admin paths and the destructor; exposed for tests.
  void ReapRetired();

 private:
  MicroBatcherConfig batcher_config_;
  std::string default_model_;
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<ServedModel>> models_;
  // Swapped-out models that may still have in-flight completions holding
  // snapshots. Destroying one inline could run ~ServedModel on its own
  // batcher worker (self-join); instead they wait here for a safe thread.
  std::vector<std::shared_ptr<ServedModel>> retired_;
};

// Text-protocol front-end over a registry. Thread-compatible: HandleLine /
// HandleLineAsync may be called from many threads; admin mutations (RELOAD)
// serialize on the registry mutex.
class ModelService {
 public:
  explicit ModelService(ModelRegistry* registry) : registry_(registry) {}

  // Attaches the exporter TRACE dumps route through (may be null).
  void SetExporter(obs::TelemetryExporter* exporter) { exporter_ = exporter; }

  // Answers one protocol line synchronously (stdin front-end, selftest):
  // HandleLineAsync, then a blocking wait on the promise its `done`
  // fulfils.
  std::string HandleLine(const std::string& line);

  // The epoll path: admin lines and admission failures answer `done`
  // inline on the calling thread; admitted data lines answer later on a
  // batcher worker thread. `done` fires exactly once and must not block.
  // RELOAD builds the new session synchronously on the calling thread —
  // the event loop stalls for the load, which is the documented cost of
  // in-band admin (docs/SERVING.md).
  void HandleLineAsync(const std::string& line,
                       std::function<void(std::string)> done);

  // One JSON line: default model plus name/version/inflight/quantized for
  // every model. The LIST admin reply.
  std::string ListLine() const;

  // Global serve/* stats (ServeStatsJson) extended with a per-model object
  // and `inflight`, the sum of the models' in-flight counts.
  std::string StatsLine() const;

 private:
  // Answers admin commands (STATS, LIST, TRACE, RELOAD) in *reply and
  // returns true; data lines return false untouched.
  bool MaybeAdmin(const std::string& trimmed, std::string* reply);
  // Resolves the optional "MODEL <name> " prefix. On OK, *payload holds the
  // remaining window text and the snapshot is returned.
  StatusOr<std::shared_ptr<ServedModel>> Route(const std::string& line,
                                               std::string* payload) const;

  ModelRegistry* registry_;
  obs::TelemetryExporter* exporter_ = nullptr;
};

}  // namespace serve
}  // namespace msd

#endif  // MSDMIXER_SERVE_REGISTRY_H_
