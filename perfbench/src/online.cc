// online_socket: two small fp32 tenants, alpha and beta, behind an
// in-process ModelRegistry + ModelService + SocketServer over AF_UNIX. One
// generator thread drives at most four connections (even ones carry alpha,
// odd ones beta):
//
//  1. open loop at a fixed offered rate, each request timed from its
//     scheduled send, with in-band RELOAD alpha commands at fixed offsets
//     in its later part. latency_p50_ms is over the requests scheduled
//     before the first RELOAD: the loop thread builds a reloaded session
//     inline, and under host steal the backlog one RELOAD leaves can take
//     most of the phase to drain;
//  2. closed loop with a fixed number of requests in flight per tenant, at
//     least twice max_batch, so every batch closes full. It runs in slices;
//     before the first and after each one, with nothing in flight, the
//     generator runs a reference probe over every vCPU (reference.h). A
//     slice's figure is its replies per CPU second of the server's threads
//     (everything but the generator's), which host steal does not move.
//     The median slice is scaled by the mean unit time of all the probes.
//
// Every reply is byte-compared against a direct Predict of
// ParseWindowLine(line) on an oracle session for the right tenant, computed
// for every request line before the clock starts.
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <unordered_map>

#include "common/rng.h"
#include "datagen/series_builder.h"
#include "obs/profiler.h"
#include "serve/netio.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "tasks/pipeline.h"
#include "tensor/tensor_ops.h"
#include "reference.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace serve = msd::serve;

constexpr int kTenants = 2;
const char* const kTenantNames[kTenants] = {"alpha", "beta"};

std::string CheckpointPath(const Args& args, int tenant) {
  return args.work_dir + "/" + kTenantNames[tenant] + ".ckpt";
}

int64_t Horizon(const WorkloadConfig& c, int tenant) {
  return static_cast<int64_t>(c.NumList("horizons")[static_cast<size_t>(tenant)]);
}

// The churn shape: two channels with a 24-step season.
msd::Tensor ChurnSeries(uint64_t seed, int64_t length) {
  msd::SeriesConfig config;
  config.name = "churn";
  config.length = length;
  config.seed = seed;
  for (int c = 0; c < 2; ++c) {
    msd::ChannelSpec channel;
    channel.level = 1.0 + c;
    channel.seasonals.push_back({24.0, 1.0, 0.4 * c, 2});
    channel.noise_sigma = 0.05;
    config.channels.push_back(channel);
  }
  return msd::GenerateSeries(config);
}

// A tenant's request pool: distinct windows of a seeded series, each with
// its request line and true continuation. Requests cycle through the pool.
struct Tenant {
  std::string name;
  std::vector<std::string> lines;  // "MODEL <name> <window>\n"
  std::vector<Tensor> truths;      // [C, H]
  std::vector<double> inv_var;     // per channel, over the pool's series
  std::vector<std::string> expected;  // oracle replies, filled before the run
  std::unique_ptr<serve::InferenceSession> oracle;
  size_t cursor = 0;
};

void MakePool(const Args& args, int index, Tenant* tenant) {
  const WorkloadConfig& c = args.config;
  const int64_t lookback = c.Int("lookback");
  const int64_t horizon = Horizon(c, index);
  const int64_t pool = c.Int("pool_windows");
  const Tensor series = ChurnSeries(args.seed * 7919 + 101 * (index + 1),
                                    pool + lookback + horizon);
  msd::Rng rng(args.seed * 0x9e3779b97f4a7c15ull + 31 + index);
  std::vector<int64_t> offsets(static_cast<size_t>(pool));
  for (int64_t i = 0; i < pool; ++i) offsets[static_cast<size_t>(i)] = i;
  for (int64_t i = pool - 1; i > 0; --i) {
    std::swap(offsets[static_cast<size_t>(i)],
              offsets[static_cast<size_t>(rng.UniformInt(i + 1))]);
  }
  tenant->name = kTenantNames[index];
  tenant->inv_var = InverseChannelVariance(series);
  const std::string prefix = "MODEL " + tenant->name + " ";
  for (int64_t offset : offsets) {
    tenant->lines.push_back(
        prefix + serve::FormatTensorLine(msd::Slice(series, 1, offset, lookback)) + "\n");
    tenant->truths.push_back(msd::Slice(series, 1, offset + lookback, horizon));
  }
  tenant->expected.resize(tenant->lines.size());
}

// Computes every pool line's oracle reply, FormatTensorLine(Predict(
// ParseWindowLine(line))) on the tenant's batch-of-1 oracle session, before
// the clock starts. Lines already filled (the corrupted-oracle test hook)
// are kept.
void FillExpected(Tenant* tenant) {
  for (size_t i = 0; i < tenant->lines.size(); ++i) {
    std::string& expected = tenant->expected[i];
    if (!expected.empty()) continue;
    const std::string& line = tenant->lines[i];
    const size_t payload = line.find(' ', line.find(' ') + 1) + 1;
    auto window =
        serve::ParseWindowLine(line.substr(payload, line.size() - payload - 1), 0, 0);
    if (!window.ok()) {
      expected = "ERROR " + window.status().ToString();
      continue;
    }
    auto out = tenant->oracle->Predict(window.value());
    expected = out.ok() ? serve::FormatTensorLine(out.value())
                        : "ERROR " + out.status().ToString();
  }
}

// ---- the server under test ---------------------------------------------------

// Handler-side timestamps of one request line, written by the event loop
// (entry) and by whichever thread answers (reply).
struct HandlerSlot {
  uint64_t hash = 0;
  bool reload = false;
  int64_t entry_ns = 0;
  std::atomic<int64_t> reply_ns{0};
};

struct HandlerLog {
  explicit HandlerLog(size_t capacity)
      : slots(new HandlerSlot[capacity]), capacity(capacity) {}
  std::unique_ptr<HandlerSlot[]> slots;
  size_t capacity;
  size_t used = 0;  // event-loop thread only
};

class Server {
 public:
  Server(const Args& args, const serve::Manifest& manifest, Phase& setup,
         Report* report);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  bool ok() const { return ok_; }
  const std::vector<int>& fds() const { return fds_; }
  // Wall time of registry Load: one session build per tenant.
  double load_s() const { return load_s_; }
  // Non-null while a traced pass records handler timestamps.
  std::atomic<HandlerLog*> log{nullptr};

 private:
  // Declared first so it is destroyed last: draining batchers still post
  // replies through it (serve/netio.h).
  std::unique_ptr<serve::SocketServer> socket_;
  std::unique_ptr<serve::ModelRegistry> registry_;
  std::unique_ptr<serve::ModelService> service_;
  std::thread loop_;
  std::vector<int> fds_;
  double load_s_ = 0.0;
  bool ok_ = false;
};

int ConnectUnix(const std::string& path) {
  for (int attempt = 0; attempt < 500; ++attempt) {
    const int fd = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      return fd;
    }
    close(fd);
    usleep(1000);
  }
  return -1;
}

Server::Server(const Args& args, const serve::Manifest& manifest, Phase& setup,
               Report* report) {
  const WorkloadConfig& c = args.config;
  serve::MicroBatcherConfig batcher;
  batcher.max_batch = c.Int("max_batch");
  batcher.max_delay_us = c.Int("max_delay_us");
  batcher.queue_capacity = c.Int("queue_capacity");
  serve::SocketServerConfig sc;
  // Relative to the checkout root: AF_UNIX paths are short.
  sc.path = args.work_dir + "/s.sock";
  socket_ = std::make_unique<serve::SocketServer>(
      sc, [this](std::string line, std::function<void(std::string)> reply) {
        HandlerLog* trace = log.load(std::memory_order_relaxed);
        if (trace == nullptr || trace->used >= trace->capacity) {
          service_->HandleLineAsync(line, std::move(reply));
          return;
        }
        HandlerSlot& slot = trace->slots[trace->used++];
        slot.entry_ns = NowNs();
        service_->HandleLineAsync(
            line, [&slot, reply = std::move(reply)](std::string text) {
              slot.reply_ns.store(NowNs(), std::memory_order_relaxed);
              reply(std::move(text));
            });
        slot.hash = std::hash<std::string>{}(line);
        slot.reload = line.rfind("RELOAD", 0) == 0;
      });
  registry_ = std::make_unique<serve::ModelRegistry>(batcher);
  const int64_t t0 = NowNs();
  const msd::Status loaded = registry_->Load(manifest);
  load_s_ = static_cast<double>(NowNs() - t0) / 1e9;
  if (!loaded.ok()) {
    report->Fail(setup, "registry Load: " + loaded.ToString());
    return;
  }
  service_ = std::make_unique<serve::ModelService>(registry_.get());
  const msd::Status listening = socket_->Listen();
  if (!listening.ok()) {
    report->Fail(setup, "Listen: " + listening.ToString());
    return;
  }
  loop_ = std::thread([this] { socket_->Run(); });
  for (int64_t i = 0; i < c.Int("connections"); ++i) {
    const int fd = ConnectUnix(sc.path);
    if (fd < 0) {
      report->Fail(setup, "connect failed");
      return;
    }
    fds_.push_back(fd);
  }
  ok_ = true;
}

Server::~Server() {
  for (int fd : fds_) close(fd);
  if (socket_ != nullptr) socket_->Shutdown();
  if (loop_.joinable()) loop_.join();
  service_.reset();
  registry_.reset();  // batchers stop; cancelled replies still post
  socket_.reset();
}

// ---- the generator -------------------------------------------------------------

enum class Kind : uint8_t { kOpen, kClosed, kReload };

struct Request {
  Kind kind;
  int tenant;
  int conn;
  size_t pool_index;
  int64_t sched_ns;
  int64_t send_ns;
  int64_t recv_ns = 0;
  std::string reply;
  std::string expected;  // reload requests only
  // Closed-loop replies are compared on arrival and kept only on a
  // mismatch, so the client's memory does not grow with the server's speed.
  bool matched = false;
};

struct Conn {
  int fd;
  int tenant;
  std::string in;
  std::deque<size_t> data;     // data requests awaiting a reply, in order
  std::deque<size_t> reloads;  // RELOADs awaiting a reply
};

struct PassResult {
  std::deque<Request> requests;  // stable references while the pass runs
  int64_t open_start = 0, open_end = 0;
  // Closed-loop replies, and the server's CPU time and the wall time, over
  // all slices.
  int64_t closed_replies = 0;
  int64_t closed_server_cpu_ns = 0;
  int64_t closed_wall_ns = 0;
  // Replies per server CPU second of each slice, as read.
  std::vector<double> slice_cpu_throughput;
  std::vector<double> unit_us;  // mean unit of each probe
  // The median slice scaled to the nominal machine.
  double throughput = 0.0;
  int64_t unmatched = 0;  // replies that arrived with nothing outstanding
  Snapshot before_open, after_open, after_closed;
};

class Generator {
 public:
  Generator(const Args& args, Server& server, std::vector<Tenant>& tenants,
            Reference& ref, int64_t* reload_version)
      : args_(args), tenants_(tenants), ref_(ref), reload_version_(reload_version) {
    for (size_t i = 0; i < server.fds().size(); ++i) {
      conns_.push_back({server.fds()[i], static_cast<int>(i % kTenants), "", {}, {}});
    }
  }

  PassResult Run();

 private:
  void Send(Conn& conn, const std::string& bytes);
  void SendData(int conn, Kind kind, int64_t sched_ns);
  // Waits up to `until` for replies and files them; returns when something
  // arrived or the deadline passed.
  void Receive(int64_t until);

  const Args& args_;
  std::vector<Tenant>& tenants_;
  Reference& ref_;
  int64_t* reload_version_;
  std::vector<Conn> conns_;
  PassResult result_;
  bool closed_issuing_ = false;
  int64_t outstanding_ = 0;
};

void Generator::Send(Conn& conn, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = send(conn.fd, bytes.data() + sent, bytes.size() - sent,
                           MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      std::fprintf(stderr, "perfbench: client send failed\n");
      std::exit(1);
    }
  }
}

void Generator::SendData(int conn_index, Kind kind, int64_t sched_ns) {
  Conn& conn = conns_[static_cast<size_t>(conn_index)];
  Tenant& tenant = tenants_[static_cast<size_t>(conn.tenant)];
  const size_t pool_index = tenant.cursor;
  tenant.cursor = (tenant.cursor + 1) % tenant.lines.size();
  const size_t id = result_.requests.size();
  result_.requests.push_back(
      {kind, conn.tenant, conn_index, pool_index, sched_ns, NowNs(), 0, "", ""});
  Send(conn, tenant.lines[pool_index]);
  conn.data.push_back(id);
  ++outstanding_;
}

void Generator::Receive(int64_t until) {
  std::vector<pollfd> pfds;
  for (const Conn& c : conns_) pfds.push_back({c.fd, POLLIN, 0});
  const int64_t wait = std::max<int64_t>(0, until - NowNs());
  timespec ts{static_cast<time_t>(wait / 1000000000), static_cast<long>(wait % 1000000000)};
  const int ready = ppoll(pfds.data(), pfds.size(), &ts, nullptr);
  if (ready <= 0) return;
  char buf[65536];
  for (size_t i = 0; i < conns_.size(); ++i) {
    if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    Conn& conn = conns_[i];
    const ssize_t n = recv(conn.fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n <= 0) continue;
    const int64_t now = NowNs();
    conn.in.append(buf, static_cast<size_t>(n));
    size_t start = 0;
    for (size_t nl; (nl = conn.in.find('\n', start)) != std::string::npos; start = nl + 1) {
      std::string line = conn.in.substr(start, nl - start);
      // RELOAD answers inline on the loop thread and may overtake data
      // replies still in the batcher; it is the only reply starting "OK ".
      std::deque<size_t>& queue =
          line.rfind("OK ", 0) == 0 && !conn.reloads.empty() ? conn.reloads : conn.data;
      if (queue.empty()) {
        ++result_.unmatched;
        continue;
      }
      // A tenant's replies can also pass each other: requests admitted
      // before a swap finish on the old batcher, later ones on the new. A
      // data reply goes to the oldest outstanding request it answers, and
      // to the oldest one when it answers none (a mismatch).
      auto it = queue.begin();
      if (&queue == &conn.data) {
        auto answered = std::find_if(queue.begin(), queue.end(), [&](size_t id) {
          const Request& q = result_.requests[id];
          return tenants_[static_cast<size_t>(q.tenant)].expected[q.pool_index] == line;
        });
        if (answered != queue.end()) it = answered;
      }
      Request& r = result_.requests[*it];
      queue.erase(it);
      --outstanding_;
      r.recv_ns = now;
      if (r.kind != Kind::kClosed) {
        r.reply = std::move(line);
      } else {
        r.matched = line == tenants_[static_cast<size_t>(r.tenant)].expected[r.pool_index];
        if (!r.matched) r.reply = std::move(line);
        ++result_.closed_replies;
        if (closed_issuing_) SendData(r.conn, Kind::kClosed, NowNs());
      }
    }
    conn.in.erase(0, start);
  }
}

PassResult Generator::Run() {
  const WorkloadConfig& c = args_.config;
  const double open_s = args_.seconds * c.Num("open_share");
  const double closed_s = args_.seconds - open_s;
  const int64_t open_ns = static_cast<int64_t>(open_s * 1e9);
  const int64_t n_open = std::llround(open_s * c.Num("open_rate_per_s"));
  const double period_ns = open_s * 1e9 / static_cast<double>(std::max<int64_t>(1, n_open));
  std::vector<int64_t> reload_at;
  for (double f : c.NumList("reload_at")) {
    reload_at.push_back(static_cast<int64_t>(f * static_cast<double>(open_ns)));
  }
  const std::string reload_cmd =
      "RELOAD alpha " + CheckpointPath(args_, 0) + "\n";

  // Phase 1: open loop.
  result_.before_open = Snapshot::Take();
  const int64_t t0 = NowNs() + 1000000;
  result_.open_start = t0;
  result_.open_end = t0 + open_ns;
  int64_t k = 0;
  size_t r = 0;
  while (k < n_open || r < reload_at.size()) {
    const int64_t data_due = k < n_open ? t0 + static_cast<int64_t>(period_ns * k)
                                        : INT64_MAX;
    const int64_t reload_due = r < reload_at.size() ? t0 + reload_at[r] : INT64_MAX;
    const int64_t due = std::min(data_due, reload_due);
    if (NowNs() < due) {
      Receive(due);
      continue;
    }
    if (reload_due <= data_due) {
      // Alpha rides on connection 0.
      Conn& conn = conns_[0];
      const size_t id = result_.requests.size();
      ++*reload_version_;
      result_.requests.push_back({Kind::kReload, 0, 0, 0, reload_due, NowNs(), 0, "",
                                  "OK alpha v" + std::to_string(*reload_version_)});
      Send(conn, reload_cmd);
      conn.reloads.push_back(id);
      ++outstanding_;
      ++r;
    } else {
      SendData(static_cast<int>(k % static_cast<int64_t>(conns_.size())), Kind::kOpen,
               data_due);
      ++k;
    }
  }
  while (NowNs() < result_.open_end) Receive(result_.open_end);
  // Whatever the open loop left in flight drains before the closed loop.
  const int64_t drain_ns = static_cast<int64_t>(c.Num("drain_seconds") * 1e9);
  int64_t drain_end = NowNs() + drain_ns;
  while (outstanding_ > 0 && NowNs() < drain_end) Receive(drain_end);
  result_.after_open = Snapshot::Take();

  // Phase 2: closed loop in slices; each reply is replaced on its
  // connection until the slice ends, then the slice drains. A slice runs
  // from its first send to its last reply.
  const int64_t depth = c.Int("inflight_per_tenant") * kTenants /
                        static_cast<int64_t>(conns_.size());
  const int64_t slices = c.Int("closed_slices");
  const int64_t probe_units = c.Int("probe_units");
  const int64_t slice_ns = static_cast<int64_t>(closed_s * 1e9 / static_cast<double>(slices));
  int64_t probe_ns = ref_.Probe(probe_units);
  result_.unit_us.push_back(static_cast<double>(probe_ns) / 1e3 / static_cast<double>(probe_units));
  for (int64_t slice = 0; slice < slices; ++slice) {
    const int64_t replies0 = result_.closed_replies;
    const int64_t process_cpu0 = ProcessCpuNs();
    const int64_t generator_cpu0 = ThreadCpuNs();
    const int64_t start = NowNs();
    const int64_t end = start + slice_ns;
    closed_issuing_ = true;
    for (int64_t d = 0; d < depth; ++d) {
      for (size_t i = 0; i < conns_.size(); ++i) {
        SendData(static_cast<int>(i), Kind::kClosed, NowNs());
      }
    }
    while (NowNs() < end) Receive(end);
    closed_issuing_ = false;
    drain_end = NowNs() + drain_ns;
    while (outstanding_ > 0 && NowNs() < drain_end) Receive(drain_end);
    const int64_t server_cpu_ns =
        (ProcessCpuNs() - process_cpu0) - (ThreadCpuNs() - generator_cpu0);
    result_.closed_server_cpu_ns += server_cpu_ns;
    result_.closed_wall_ns += NowNs() - start;
    const int64_t after = ref_.Probe(probe_units);
    probe_ns += after;
    result_.unit_us.push_back(static_cast<double>(after) / 1e3 / static_cast<double>(probe_units));
    const double replies = static_cast<double>(result_.closed_replies - replies0);
    const double cpu_s = static_cast<double>(std::max<int64_t>(1, server_cpu_ns)) / 1e9;
    result_.slice_cpu_throughput.push_back(replies / cpu_s);
  }
  result_.throughput = Median(result_.slice_cpu_throughput) /
                       ref_.Scale(probe_ns, (slices + 1) * probe_units);
  result_.after_closed = Snapshot::Take();
  return std::move(result_);
}

// Closed-loop replies per server CPU second as read; 0 when the loop saw
// none.
double CpuCapacity(const PassResult& pass) {
  if (pass.closed_server_cpu_ns <= 0) return 0.0;
  return static_cast<double>(pass.closed_replies) /
         (static_cast<double>(pass.closed_server_cpu_ns) / 1e9);
}

struct Checked {
  std::vector<double> open_latency_ms;
  std::vector<double> before_reload_ms;  // scheduled before the first RELOAD
  std::vector<double> reload_ms;
  std::vector<double> during_reload_ms;
  std::vector<double> late_ms;
  double squared_error = 0.0;
  int64_t values = 0;
  uint64_t digest = 0;
};

// Byte-compares every reply against the oracle and files the latencies.
Checked Check(PassResult& pass, std::vector<Tenant>& tenants, Phase& open,
              Phase& closed, Phase& reload, Report* report) {
  Checked out;
  std::vector<std::pair<int64_t, int64_t>> reload_windows;
  if (pass.unmatched > 0) {
    report->Fail(open, std::to_string(pass.unmatched) +
                           " replies arrived with no request outstanding");
  }
  for (Request& r : pass.requests) {
    Phase& phase = r.kind == Kind::kOpen ? open : r.kind == Kind::kClosed ? closed : reload;
    ++phase.attempted;
    if (r.recv_ns == 0) {
      report->Fail(phase, "no reply");
      continue;
    }
    if (r.kind == Kind::kReload) {
      if (r.reply != r.expected) {
        report->Fail(phase, "RELOAD replied '" + r.reply + "', want '" + r.expected + "'");
      }
      out.reload_ms.push_back(static_cast<double>(r.recv_ns - r.send_ns) / 1e6);
      reload_windows.emplace_back(r.send_ns, r.recv_ns);
      continue;
    }
    Tenant& tenant = tenants[static_cast<size_t>(r.tenant)];
    if (r.kind == Kind::kClosed ? !r.matched : r.reply != tenant.expected[r.pool_index]) {
      report->Fail(phase, tenant.name + " reply differs from its oracle: got '" +
                              r.reply.substr(0, 80) + "' want '" +
                              tenant.expected[r.pool_index].substr(0, 80) + "'");
      continue;
    }
    if (r.kind != Kind::kOpen) continue;
    out.open_latency_ms.push_back(static_cast<double>(r.recv_ns - r.sched_ns) / 1e6);
    out.late_ms.push_back(static_cast<double>(r.send_ns - r.sched_ns) / 1e6);
    auto parsed = serve::ParseWindowLine(r.reply, 0, 0);
    const Tensor& truth = tenant.truths[r.pool_index];
    if (!parsed.ok() || parsed.value().numel() != truth.numel()) {
      report->Fail(phase, "reply does not parse as a forecast: " + r.reply);
      continue;
    }
    out.squared_error += SquaredErrorSum(parsed.value().Reshape(truth.shape()), truth,
                                        tenant.inv_var);
    out.values += truth.numel();
    out.digest = Fnv1a(r.reply.data(), r.reply.size(), out.digest ^ r.pool_index);
  }
  int64_t first_reload = INT64_MAX;
  for (const Request& r : pass.requests) {
    if (r.kind == Kind::kReload) first_reload = std::min(first_reload, r.sched_ns);
  }
  for (const Request& r : pass.requests) {
    if (r.kind != Kind::kOpen || r.recv_ns == 0) continue;
    if (r.sched_ns < first_reload) {
      out.before_reload_ms.push_back(static_cast<double>(r.recv_ns - r.sched_ns) / 1e6);
    }
    for (const auto& [begin, end] : reload_windows) {
      if (r.sched_ns >= begin && r.sched_ns <= end) {
        out.during_reload_ms.push_back(static_cast<double>(r.recv_ns - r.sched_ns) / 1e6);
        break;
      }
    }
  }
  return out;
}

}  // namespace

bool MakeOnlineFixture(const Args& args) {
  const WorkloadConfig& c = args.config;
  for (int t = 0; t < kTenants; ++t) {
    msd::ForecastPipelineConfig pc;
    pc.lookback = c.Int("lookback");
    pc.horizon = Horizon(c, t);
    pc.trainer.epochs = 2;
    pc.trainer.batch_size = 16;
    pc.trainer.max_batches_per_epoch = c.Int("fixture_steps");
    msd::ForecastPipeline pipe(pc, static_cast<uint64_t>(c.Int("fixture_seed") + t));
    pipe.Fit(ChurnSeries(static_cast<uint64_t>(c.Int("fixture_seed") + 10 * t), 400));
    const msd::Status saved = pipe.Save(CheckpointPath(args, t));
    if (!saved.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", saved.ToString().c_str());
      return false;
    }
  }
  return true;
}

void RunOnline(const Args& args, Report* report) {
  const WorkloadConfig& c = args.config;
  // Replies race with client closes at teardown; writes must fail, not
  // kill the process.
  std::signal(SIGPIPE, SIG_IGN);
  std::string manifest_text;
  for (int t = 0; t < kTenants; ++t) {
    manifest_text += "model name=" + std::string(kTenantNames[t]) +
                     " version=1 checkpoint=" + CheckpointPath(args, t) +
                     " lookback=" + std::to_string(c.Int("lookback")) +
                     " horizon=" + std::to_string(Horizon(c, t)) +
                     " max_batch=" + std::to_string(c.Int("max_batch")) + "\n";
  }
  auto manifest = serve::ParseManifest(manifest_text);
  if (!manifest.ok()) {
    std::fprintf(stderr, "perfbench: manifest: %s\n", manifest.status().ToString().c_str());
    std::exit(1);
  }

  // setup_s: registry Load of both tenants, Listen, connects, in CPU seconds
  // of the whole process scaled by reference probes over every vCPU just
  // before and just after. The median of several set-ups; the last one
  // serves.
  Reference ref;
  const int64_t probe_units = c.Int("probe_units");
  Phase& setup = report->AddPhase("setup");
  std::vector<double> setup_s;
  std::vector<double> setup_cpu_s;
  std::vector<double> setup_wall_s;
  std::vector<double> create_s;
  std::unique_ptr<Server> server;
  const Snapshot before_setup = Snapshot::Take();
  for (int64_t r = 0; r < c.Int("setup_reps"); ++r) {
    server.reset();
    ++setup.attempted;
    int64_t unit_ns = ref.Probe(probe_units);
    const int64_t c0 = ProcessCpuNs();
    const int64_t t0 = NowNs();
    server = std::make_unique<Server>(args, manifest.value(), setup, report);
    const int64_t t1 = NowNs();
    const int64_t c1 = ProcessCpuNs();
    if (!server->ok()) std::exit(1);
    unit_ns += ref.Probe(probe_units);
    setup_cpu_s.push_back(static_cast<double>(c1 - c0) / 1e9);
    setup_s.push_back(setup_cpu_s.back() * ref.Scale(unit_ns, 2 * probe_units));
    setup_wall_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    create_s.push_back(server->load_s() / kTenants);
  }
  const Snapshot after_setup = Snapshot::Take();

  // Request pools and oracle sessions, outside the clock.
  std::vector<Tenant> tenants(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    MakePool(args, t, &tenants[static_cast<size_t>(t)]);
    serve::ForecastSessionOptions o;
    o.lookback = c.Int("lookback");
    o.horizon = Horizon(c, t);
    o.max_batch = 1;
    auto oracle = serve::CreateForecastSession(CheckpointPath(args, t), o);
    if (!oracle.ok()) {
      std::fprintf(stderr, "perfbench: oracle: %s\n", oracle.status().ToString().c_str());
      std::exit(1);
    }
    tenants[static_cast<size_t>(t)].oracle = std::move(oracle).value();
  }
  if (args.corrupt_oracle) tenants[0].expected[0] = "corrupted oracle reply";
  for (Tenant& tenant : tenants) FillExpected(&tenant);

  Phase& open = report->AddPhase("open");
  Phase& reload = report->AddPhase("reload");
  Phase& closed = report->AddPhase("closed");
  int64_t version = 1;
  const HostTicks host_before = HostTicks::Read();
  PassResult untraced = Generator(args, *server, tenants, ref, &version).Run();
  const HostTicks host_after = HostTicks::Read();
  const Checked u = Check(untraced, tenants, open, closed, reload, report);
  const int64_t swaps = Delta(untraced.before_open, untraced.after_closed, "serve/registry_swaps");
  if (swaps != static_cast<int64_t>(u.reload_ms.size())) {
    report->Fail(reload, "registry_swaps moved by " + std::to_string(swaps) + " for " +
                             std::to_string(u.reload_ms.size()) + " RELOADs");
  }
  const double capacity = untraced.throughput;
  const double mse = u.squared_error / static_cast<double>(std::max<int64_t>(1, u.values));
  char line[200];
  std::snprintf(line, sizeof(line),
                "digest open_replies=%s forecast_mse=%.17g open_requests=%zu "
                "before_reload=%zu during_reload=%zu",
                Hex(u.digest).c_str(), mse, u.open_latency_ms.size(),
                u.before_reload_ms.size(), u.during_reload_ms.size());
  report->Note(line);

  LogSamples("cpu.throughput_per_s", untraced.slice_cpu_throughput);
  LogSamples("ref.unit_us", untraced.unit_us);
  if (!args.trace) {
    LogSamples("setup_s", setup_s);
    LogSamples("cpu.setup_s", setup_cpu_s);
    report->Set("setup_s", Median(setup_s));
    report->Set("throughput_per_s", capacity);
    report->Set("forecast_mse", mse);
    report->Set("peak_rss_mb", PeakRssMb());
    return;
  }

  // Traced pass: the same two phases with handler timestamps, spans and the
  // profiler on.
  HandlerLog log(static_cast<size_t>(c.Int("trace_capacity")));
  msd::obs::Profiler::Global().Reset();
  msd::obs::Profiler::Global().SetEnabled(true);
  server->log.store(&log, std::memory_order_relaxed);
  PassResult traced = Generator(args, *server, tenants, ref, &version).Run();
  server->log.store(nullptr, std::memory_order_relaxed);
  msd::obs::Profiler::Global().SetEnabled(false);
  server.reset();  // joins the loop and batcher threads: slots are final
  const Checked t = Check(traced, tenants, open, closed, reload, report);

  // Match handler slots to requests: reloads in order, data lines by the
  // hash of their text in send order (pool lines repeat only a pool apart).
  std::unordered_map<uint64_t, std::deque<size_t>> by_hash;
  std::deque<size_t> reloads;
  for (size_t i = 0; i < traced.requests.size(); ++i) {
    const Request& r = traced.requests[i];
    if (r.kind == Kind::kReload) {
      reloads.push_back(i);
    } else {
      const std::string& text = tenants[static_cast<size_t>(r.tenant)].lines[r.pool_index];
      by_hash[std::hash<std::string>{}(text.substr(0, text.size() - 1))].push_back(i);
    }
  }
  std::vector<const HandlerSlot*> slot_of(traced.requests.size(), nullptr);
  for (size_t s = 0; s < std::min(log.used, log.capacity); ++s) {
    const HandlerSlot& slot = log.slots[s];
    std::deque<size_t>* queue = slot.reload ? &reloads : &by_hash[slot.hash];
    if (queue->empty()) continue;
    slot_of[queue->front()] = &slot;
    queue->pop_front();
  }

  Trace trace;
  trace.AddPhaseCounters("setup", before_setup, after_setup);
  trace.AddPhaseCounters("open", traced.before_open, traced.after_open);
  trace.AddPhaseCounters("closed", traced.after_open, traced.after_closed);
  std::vector<double> in_us, out_us, service_us, blocked_ms;
  double chain_error_ns = 0.0;
  int64_t attributed = 0;
  for (size_t i = 0; i < traced.requests.size(); ++i) {
    const Request& r = traced.requests[i];
    const HandlerSlot* slot = slot_of[i];
    if (r.recv_ns == 0) continue;
    const char* name = r.kind == Kind::kReload ? "client.reload" : "client.request";
    const int64_t root = trace.Add(name, r.sched_ns, r.recv_ns, -1, static_cast<int64_t>(i));
    // Closed-loop requests keep only their root span: tens of thousands of
    // them would swamp the trace file, and their layers are not reported.
    if (slot == nullptr || r.kind == Kind::kClosed) continue;
    const int64_t reply_ns = slot->reply_ns.load(std::memory_order_relaxed);
    trace.Add("loadgen.late", r.sched_ns, r.send_ns, root, static_cast<int64_t>(i));
    trace.Add("netio.in", r.send_ns, slot->entry_ns, root, static_cast<int64_t>(i));
    trace.Add("registry.service", slot->entry_ns, reply_ns, root, static_cast<int64_t>(i));
    trace.Add("netio.out", reply_ns, r.recv_ns, root, static_cast<int64_t>(i));
    if (r.kind == Kind::kReload) {
      blocked_ms.push_back(static_cast<double>(reply_ns - slot->entry_ns) / 1e6);
      continue;
    }
    if (r.kind != Kind::kOpen) continue;
    in_us.push_back(static_cast<double>(slot->entry_ns - r.send_ns) / 1e3);
    service_us.push_back(static_cast<double>(reply_ns - slot->entry_ns) / 1e3);
    out_us.push_back(static_cast<double>(r.recv_ns - reply_ns) / 1e3);
    chain_error_ns += static_cast<double>((r.send_ns - r.sched_ns) + (slot->entry_ns - r.send_ns) +
                                          (reply_ns - slot->entry_ns) + (r.recv_ns - reply_ns) -
                                          (r.recv_ns - r.sched_ns));
    ++attributed;
  }

  const Snapshot& s0 = traced.before_open;
  const Snapshot& s1 = traced.after_open;
  const Snapshot& s2 = traced.after_closed;
  const double queue_mean = HistMean(s0, s1, "serve/queue_us");
  const double assembly_mean = HistMean(s0, s1, "serve/batch_assembly_us");
  const double compute_mean = HistMean(s0, s1, "serve/compute_us");
  const double service_mean = Mean(service_us);
  report->Set("netio.in_us_p50", Median(in_us));
  report->Set("netio.out_us_p50", Median(out_us));
  report->Set("netio.loop_blocked_ms", Median(blocked_ms));
  report->Set("netio.dropped_replies",
              static_cast<double>(Delta(s0, s2, "serve/net_dropped_replies")));
  report->Set("netio.latency_during_reload_ms", Median(t.during_reload_ms));
  report->Set("registry.service_us_p50", Median(service_us));
  report->Set("registry.unattributed_us_mean",
              service_mean - queue_mean - assembly_mean - compute_mean);
  report->Set("registry.swaps", static_cast<double>(Delta(s0, s2, "serve/registry_swaps")));
  report->Set("registry.reload_ms", Median(t.reload_ms));
  report->Set("batcher.queue_us_p50.open", HistQuantile(s0, s1, "serve/queue_us", 0.5));
  report->Set("batcher.queue_us_p50.closed", HistQuantile(s1, s2, "serve/queue_us", 0.5));
  report->Set("batcher.assembly_us_p50", HistQuantile(s0, s1, "serve/batch_assembly_us", 0.5));
  const int64_t rows = Delta(s1, s2, "serve/predicted_items");
  const int64_t batches = Delta(s1, s2, "serve/batches_total");
  const double rows_per_batch =
      batches > 0 ? static_cast<double>(rows) / static_cast<double>(batches) : 0.0;
  report->Set("batcher.rows_per_batch", rows_per_batch);
  report->Set("batcher.fill_ratio", rows_per_batch / static_cast<double>(c.Int("max_batch")));
  report->Set("batcher.rejected",
              static_cast<double>(Delta(s0, s2, "serve/rejected_total") +
                                  Delta(s0, s2, "serve/timeouts_total")));
  report->Set("session.compute_us_p50", HistQuantile(s0, s1, "serve/compute_us", 0.5));
  report->Set("session.compute_us_per_row",
              rows_per_batch > 0 ? HistMean(s1, s2, "serve/compute_us") / rows_per_batch : 0.0);
  report->Set("session.create_s", Median(create_s));
  // Requests split evenly over the tenants: their mean model.
  double flops = 0.0;
  double bytes = 0.0;
  for (int i = 0; i < kTenants; ++i) {
    msd::serve::ForecastSessionOptions defaults;
    const ModelFootprint m = ForecastFootprint(
        CheckpointPath(args, i), 2, c.Int("lookback"), Horizon(c, i),
        defaults.model_dim, defaults.hidden_dim);
    flops += m.flops_per_window / kTenants;
    bytes += (m.parameter_bytes / std::max(1.0, rows_per_batch) +
              4.0 * static_cast<double>(2 * (c.Int("lookback") + Horizon(c, i)))) /
             kTenants;
  }
  report->Set("gemm.flops_per_window", flops);
  report->Set("gemm.matmul_flops_per_window",
              rows > 0 ? static_cast<double>(Delta(s1, s2, "tensor/matmul_flops")) /
                             static_cast<double>(rows)
                       : 0.0);
  report->Set("gemm.gflops", flops * CpuCapacity(traced) / 1e9);
  report->Set("gemm.bytes_per_window", bytes);
  report->Set("plan.fallbacks",
              static_cast<double>(Delta(before_setup, s2, "serve/plan_build_refused") +
                                  Delta(s0, s2, "serve/plan_fallbacks")));
  const int64_t calls = Delta(s1, s2, "runtime/parallel_calls");
  report->Set("runtime.parallel_calls_per_window",
              rows > 0 ? static_cast<double>(calls) / static_cast<double>(rows) : 0.0);
  report->Set("runtime.chunks_per_call",
              calls > 0 ? static_cast<double>(Delta(s1, s2, "runtime/chunks_executed")) /
                              static_cast<double>(calls)
                        : 0.0);
  const int64_t hits = Delta(s0, s2, "tensor/pool_hits");
  const int64_t misses = Delta(s0, s2, "tensor/pool_misses");
  report->Set("pool.hit_ratio", PoolHitRatio(hits, misses));
  report->Set("pool.misses_steady", static_cast<double>(misses));
  double late_max = 0.0;
  for (double v : t.late_ms) late_max = std::max(late_max, v);
  report->Set("loadgen.late_ms_max", late_max);
  const Tail tail = HighestSupportedPercentile(t.open_latency_ms);
  report->Set("loadgen.latency_tail_ms", tail.value);
  report->Set("loadgen.latency_tail_pct", tail.pct);
  report->Set("loadgen.latency_samples", static_cast<double>(tail.samples));
  const double traced_capacity = traced.throughput;
  report->Set("trace.overhead_pct",
              traced_capacity > 0.0 ? 100.0 * (capacity / traced_capacity - 1.0) : 0.0);
  report->Set("wall.setup_s", Median(setup_wall_s));
  report->Set("cpu.setup_s", Median(setup_cpu_s));
  report->Set("cpu.throughput_per_s", Median(untraced.slice_cpu_throughput));
  report->Set("ref.unit_us", Median(untraced.unit_us));
  report->Set("wall.throughput_per_s",
              static_cast<double>(untraced.closed_replies) /
                  (static_cast<double>(untraced.closed_wall_ns) / 1e9));
  report->Set("latency_p50_ms", Median(u.before_reload_ms));
  report->Set("wall.latency_p50_ms", Median(u.before_reload_ms));
  report->Set("host.steal_pct", StealPct(host_before, host_after));

  // Adjacent layers. Exact by construction: late + netio.in +
  // registry.service + netio.out = client latency, per request. As means:
  // the batcher's queue + assembly + compute fit inside registry.service.
  char check[240];
  const double chain_error_us = attributed > 0 ? chain_error_ns / 1e3 / attributed : 0.0;
  const bool chain_ok = std::abs(chain_error_us) < 1e-3 && attributed > 0;
  std::snprintf(check, sizeof(check),
                "check netio_chain: late+in+service+out - latency = %.3g us mean over %lld "
                "requests (tolerance 0.001 us) -> %s",
                chain_error_us, static_cast<long long>(attributed), chain_ok ? "ok" : "VIOLATED");
  report->Note(check);
  if (!chain_ok) report->Fail(open, "netio chain does not add up");
  const double inner = queue_mean + assembly_mean + compute_mean;
  const bool service_ok = inner <= service_mean * 1.02 + 1.0;
  std::snprintf(check, sizeof(check),
                "check registry_service: queue+assembly+compute=%.2f us <= service=%.2f us "
                "(+2%% +1 us) -> %s",
                inner, service_mean, service_ok ? "ok" : "VIOLATED");
  report->Note(check);
  if (!service_ok) report->Fail(open, "batcher layers exceed the service time");
  if (!trace.Write(args.trace_out, ProvenanceJson(args))) {
    report->Fail(open, "cannot write " + args.trace_out);
  }
}

}  // namespace perfbench
