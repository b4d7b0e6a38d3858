// SocketServer tests (serve/netio.h): many concurrent AF_UNIX connections
// multiplexed on one epoll thread, pipelined lines, replies posted from
// foreign threads through the eventfd wake path, the connection cap, and
// the oversized-line guard. Those handlers are a trivial echo, to isolate
// the transport (registry_test.cc covers the protocol semantics). The last
// test serves two trained tenants through ModelService over the socket
// while a connection hot-swaps one of them with an in-band RELOAD.
#include "serve/netio.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/series_builder.h"
#include "obs/json.h"
#include "runtime/worker.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "tasks/pipeline.h"
#include "tensor/tensor_ops.h"

namespace msd {
namespace {

const bool kSigpipeIgnored = [] {
  std::signal(SIGPIPE, SIG_IGN);
  return true;
}();

std::string TestSocketPath(const std::string& tag) {
  return ::testing::TempDir() + "netio_test_" + std::to_string(::getpid()) +
         "_" + tag + ".sock";
}

int ConnectUnixRetry(const std::string& path) {
  for (int attempt = 0; attempt < 500; ++attempt) {
    const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    int rc;
    do {
      rc = connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    } while (rc != 0 && errno == EINTR);
    if (rc == 0) return fd;
    close(fd);
    if (errno != EAGAIN && errno != ECONNREFUSED && errno != ENOENT) {
      return -1;
    }
    usleep(1000);
  }
  return -1;
}

bool SendAll(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t w =
        send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    sent += static_cast<size_t>(w);
  }
  return true;
}

// Reads one '\n'-framed reply; empty string on EOF/error.
std::string ReadLine(int fd) {
  std::string reply;
  char c;
  for (;;) {
    const ssize_t n = read(fd, &c, 1);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return std::string();
    if (c == '\n') return reply;
    reply.push_back(c);
  }
}

std::string RoundTrip(int fd, const std::string& line) {
  if (!SendAll(fd, line + "\n")) return std::string();
  return ReadLine(fd);
}

// Server + loop thread, torn down in reverse order automatically.
struct ServerHarness {
  explicit ServerHarness(const serve::SocketServerConfig& config,
                         serve::LineHandler handler)
      : server(config, std::move(handler)) {
    listen_status = server.Listen();
    if (listen_status.ok()) {
      loop.Start(1, [this](int64_t) { server.Run(); });
    }
  }
  ~ServerHarness() {
    server.Shutdown();
    loop.Join();
  }
  serve::SocketServer server;
  runtime::WorkerGroup loop;
  Status listen_status = Status::OK();
};

TEST(SocketServerTest, ServesManyConcurrentConnections) {
  serve::SocketServerConfig config;
  config.path = TestSocketPath("many");
  config.max_conns = 64;
  ServerHarness harness(config, [](std::string line,
                                   std::function<void(std::string)> reply) {
    reply("ACK " + line);
  });
  ASSERT_TRUE(harness.listen_status.ok())
      << harness.listen_status.ToString();

  constexpr int64_t kConns = 48;
  std::atomic<int64_t> bad{0};
  {
    runtime::WorkerGroup clients;
    clients.Start(kConns, [&](int64_t c) {
      const int fd = ConnectUnixRetry(config.path);
      if (fd < 0) {
        bad.fetch_add(1);
        return;
      }
      for (int i = 0; i < 4; ++i) {
        const std::string line =
            "hello_" + std::to_string(c) + "_" + std::to_string(i);
        if (RoundTrip(fd, line) != "ACK " + line) bad.fetch_add(1);
      }
      close(fd);
    });
    clients.Join();
  }
  EXPECT_EQ(bad.load(), 0);
  // All clients closed; the loop reaps them as the EOFs arrive.
  for (int i = 0; i < 200 && harness.server.open_connections() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(harness.server.open_connections(), 0);
}

TEST(SocketServerTest, PipelinedLinesAnswerInOrder) {
  serve::SocketServerConfig config;
  config.path = TestSocketPath("pipeline");
  ServerHarness harness(config, [](std::string line,
                                   std::function<void(std::string)> reply) {
    reply("R:" + line);
  });
  ASSERT_TRUE(harness.listen_status.ok());

  const int fd = ConnectUnixRetry(config.path);
  ASSERT_GE(fd, 0);
  // One write carrying three frames; the loop extracts and answers all of
  // them (inline handler => replies enqueue in arrival order).
  ASSERT_TRUE(SendAll(fd, "a\nb\nc\n"));
  EXPECT_EQ(ReadLine(fd), "R:a");
  EXPECT_EQ(ReadLine(fd), "R:b");
  EXPECT_EQ(ReadLine(fd), "R:c");
  close(fd);
}

TEST(SocketServerTest, RepliesCanBePostedFromAnotherThread) {
  // The handler parks every reply closure; a separate thread resolves them
  // later — exercising the eventfd Post path the batcher completions use.
  struct Parked {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::pair<std::string, std::function<void(std::string)>>> q;
    bool stop = false;
  };
  auto parked = std::make_shared<Parked>();

  serve::SocketServerConfig config;
  config.path = TestSocketPath("async");
  ServerHarness harness(
      config, [parked](std::string line,
                       std::function<void(std::string)> reply) {
        std::lock_guard<std::mutex> lock(parked->mu);
        parked->q.emplace_back(std::move(line), std::move(reply));
        parked->cv.notify_one();
      });
  ASSERT_TRUE(harness.listen_status.ok());

  runtime::WorkerGroup replier;
  replier.Start(1, [parked](int64_t) {
    std::unique_lock<std::mutex> lock(parked->mu);
    for (;;) {
      parked->cv.wait(lock,
                      [&parked] { return parked->stop || !parked->q.empty(); });
      if (parked->q.empty()) return;
      auto item = std::move(parked->q.front());
      parked->q.pop_front();
      lock.unlock();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      item.second("DELAYED " + item.first);
      lock.lock();
    }
  });

  const int fd = ConnectUnixRetry(config.path);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(RoundTrip(fd, "one"), "DELAYED one");
  EXPECT_EQ(RoundTrip(fd, "two"), "DELAYED two");
  close(fd);

  {
    std::lock_guard<std::mutex> lock(parked->mu);
    parked->stop = true;
  }
  parked->cv.notify_all();
  replier.Join();
}

TEST(SocketServerTest, RejectsConnectionsPastTheCap) {
  serve::SocketServerConfig config;
  config.path = TestSocketPath("cap");
  config.max_conns = 2;
  ServerHarness harness(config, [](std::string line,
                                   std::function<void(std::string)> reply) {
    reply("ACK " + line);
  });
  ASSERT_TRUE(harness.listen_status.ok());

  const int fd1 = ConnectUnixRetry(config.path);
  const int fd2 = ConnectUnixRetry(config.path);
  ASSERT_GE(fd1, 0);
  ASSERT_GE(fd2, 0);
  // Round trips prove both connections are registered with the loop before
  // the third tries (connect alone can race the accept).
  EXPECT_EQ(RoundTrip(fd1, "a"), "ACK a");
  EXPECT_EQ(RoundTrip(fd2, "b"), "ACK b");

  const int fd3 = ConnectUnixRetry(config.path);
  ASSERT_GE(fd3, 0);
  const std::string refused = ReadLine(fd3);
  EXPECT_EQ(refused.rfind("ERROR ResourceExhausted", 0), 0u) << refused;
  EXPECT_EQ(ReadLine(fd3), "");  // then the server closes it
  close(fd3);

  // Closing one admitted connection frees a slot.
  close(fd1);
  for (int i = 0; i < 200 && harness.server.open_connections() > 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const int fd4 = ConnectUnixRetry(config.path);
  ASSERT_GE(fd4, 0);
  EXPECT_EQ(RoundTrip(fd4, "c"), "ACK c");
  close(fd4);
  close(fd2);
}

TEST(SocketServerTest, ClosesConnectionOnOversizedLine) {
  serve::SocketServerConfig config;
  config.path = TestSocketPath("oversize");
  config.max_line_bytes = 64;
  std::atomic<int64_t> handled{0};
  ServerHarness harness(
      config, [&handled](std::string line,
                         std::function<void(std::string)> reply) {
        handled.fetch_add(1);
        reply("ACK " + line);
      });
  ASSERT_TRUE(harness.listen_status.ok());

  const int fd = ConnectUnixRetry(config.path);
  ASSERT_GE(fd, 0);
  // 200 unframed bytes blow the 64-byte line cap: the server closes the
  // connection without ever invoking the handler.
  ASSERT_TRUE(SendAll(fd, std::string(200, 'x')));
  EXPECT_EQ(ReadLine(fd), "");
  close(fd);
  EXPECT_EQ(handled.load(), 0);

  // The server stays healthy for well-behaved clients.
  const int fd2 = ConnectUnixRetry(config.path);
  ASSERT_GE(fd2, 0);
  EXPECT_EQ(RoundTrip(fd2, "small"), "ACK small");
  close(fd2);
}

TEST(SocketServerTest, ShutdownWithOpenConnectionsIsClean) {
  serve::SocketServerConfig config;
  config.path = TestSocketPath("shutdown");
  auto harness = std::make_unique<ServerHarness>(
      config, [](std::string line, std::function<void(std::string)> reply) {
        reply("ACK " + line);
      });
  ASSERT_TRUE(harness->listen_status.ok());
  const int fd = ConnectUnixRetry(config.path);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(RoundTrip(fd, "x"), "ACK x");
  // Destroy the server while the client is still connected: Run() must
  // return promptly and the client observes EOF rather than a hang.
  harness.reset();
  EXPECT_EQ(ReadLine(fd), "");
  close(fd);
}

// ---- The serving stack over the socket ------------------------------------

Tensor ChurnSeries(uint64_t seed) {
  SeriesConfig config;
  config.name = "netio_test";
  config.length = 300;
  config.seed = seed;
  for (int c = 0; c < 2; ++c) {
    ChannelSpec channel;
    channel.level = 1.0 + c;
    channel.seasonals.push_back({24.0, 1.0, 0.3 * c, 2});
    channel.noise_sigma = 0.05;
    config.channels.push_back(channel);
  }
  return GenerateSeries(config);
}

// Fits a tiny forecast pipeline on `series` and saves it to a pid-unique
// checkpoint; returns the path.
std::string TrainCheckpoint(const Tensor& series, int64_t horizon,
                            uint64_t seed, const std::string& tag) {
  ForecastPipelineConfig pc;
  pc.lookback = 32;
  pc.horizon = horizon;
  pc.trainer.epochs = 1;
  pc.trainer.batch_size = 16;
  pc.trainer.max_batches_per_epoch = 4;
  pc.trainer.early_stop_patience = 0;
  ForecastPipeline pipe(pc, seed);
  pipe.Fit(series);
  const std::string path = ::testing::TempDir() + "netio_test_" +
                           std::to_string(::getpid()) + "_" + tag +
                           ".msdckpt";
  EXPECT_TRUE(pipe.Save(path).ok());
  return path;
}

// A direct session over `checkpoint`: the oracle for the service's replies.
std::unique_ptr<serve::InferenceSession> Oracle(const std::string& checkpoint,
                                                int64_t horizon) {
  serve::ForecastSessionOptions options;
  options.lookback = 32;
  options.horizon = horizon;
  options.max_batch = 1;
  auto session = serve::CreateForecastSession(checkpoint, options);
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  return std::move(session).value();
}

// The reply `oracle` gives for the window the service parses out of `line`
// (replies are %.6g text, so the oracle must see the same rounding).
std::string OracleReply(serve::InferenceSession* oracle,
                        const std::string& line) {
  auto window = serve::ParseWindowLine(line, /*channels=*/0, /*length=*/0);
  EXPECT_TRUE(window.ok());
  return serve::FormatTensorLine(oracle->Predict(window.value()).value());
}

// Closed-loop clients on two tenants with different horizons (a misrouted
// reply has the wrong shape) while connection 0 swaps alpha to a retrained
// checkpoint halfway through its own requests. Requests admitted before the
// swap finish on v1 and later ones answer from v2, so every alpha reply is
// byte-identical to one of the two oracles; connection 0 sees v1 before
// its RELOAD and v2 after it, so both versions appear.
TEST(SocketServerTest, TwoTenantsSurviveAnInBandReload) {
  const Tensor series_a = ChurnSeries(21);
  const Tensor series_b = ChurnSeries(33);
  const std::string ckpt_a1 = TrainCheckpoint(series_a, 8, 5, "alpha_v1");
  const std::string ckpt_a2 = TrainCheckpoint(series_a, 8, 13, "alpha_v2");
  const std::string ckpt_b = TrainCheckpoint(series_b, 4, 9, "beta");
  auto manifest = serve::ParseManifest(
      "model name=alpha version=1 checkpoint=" + ckpt_a1 +
      " lookback=32 horizon=8 max_batch=4 default=1\n"
      "model name=beta version=1 checkpoint=" +
      ckpt_b + " lookback=32 horizon=4 max_batch=4\n");
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();

  constexpr size_t kLines = 8;
  const auto oracle_a1 = Oracle(ckpt_a1, 8);
  const auto oracle_a2 = Oracle(ckpt_a2, 8);
  const auto oracle_b = Oracle(ckpt_b, 4);
  std::vector<std::string> lines_a, lines_b, want_a1, want_a2, want_b;
  for (size_t k = 0; k < kLines; ++k) {
    const int64_t offset = 4 * static_cast<int64_t>(k);
    lines_a.push_back(serve::FormatTensorLine(Slice(series_a, 1, offset, 32)));
    lines_b.push_back(serve::FormatTensorLine(Slice(series_b, 1, offset, 32)));
    want_a1.push_back(OracleReply(oracle_a1.get(), lines_a.back()));
    want_a2.push_back(OracleReply(oracle_a2.get(), lines_a.back()));
    want_b.push_back(OracleReply(oracle_b.get(), lines_b.back()));
    ASSERT_NE(want_a1.back(), want_a2.back()) << "line " << k;
  }

  constexpr int64_t kConns = 16;
  constexpr int64_t kRequestsPerConn = 24;
  std::atomic<int64_t> failed{0};
  std::atomic<int64_t> unmatched{0};
  std::atomic<int64_t> v1_replies{0};
  std::atomic<int64_t> v2_replies{0};
  std::string reload_reply;
  std::string stats_reply;
  {
    serve::SocketServerConfig config;
    config.path = TestSocketPath("reload");
    serve::MicroBatcherConfig batcher;
    batcher.max_delay_us = 200;
    // Declared before the registry, so the server outlives the batchers
    // that post replies through it (serve/netio.h lifecycle note).
    std::unique_ptr<ServerHarness> harness;
    serve::ModelRegistry registry(batcher);
    ASSERT_TRUE(registry.Load(manifest.value()).ok());
    serve::ModelService service(&registry);
    harness = std::make_unique<ServerHarness>(
        config,
        [&service](std::string line, std::function<void(std::string)> reply) {
          service.HandleLineAsync(std::move(line), std::move(reply));
        });
    ASSERT_TRUE(harness->listen_status.ok())
        << harness->listen_status.ToString();

    runtime::WorkerGroup clients;
    clients.Start(kConns, [&](int64_t c) {
      const int fd = ConnectUnixRetry(config.path);
      if (fd < 0) {
        failed.fetch_add(kRequestsPerConn);
        return;
      }
      const bool is_alpha = c % 2 == 0;
      for (int64_t i = 0; i < kRequestsPerConn; ++i) {
        if (c == 0 && i == kRequestsPerConn / 2) {
          reload_reply = RoundTrip(fd, "RELOAD alpha " + ckpt_a2);
        }
        const size_t k = static_cast<size_t>(c + i) % kLines;
        const std::string reply =
            is_alpha ? RoundTrip(fd, "MODEL alpha " + lines_a[k])
                     : RoundTrip(fd, "MODEL beta " + lines_b[k]);
        if (reply.empty() || reply.rfind("ERROR", 0) == 0) {
          failed.fetch_add(1);
        } else if (!is_alpha) {
          if (reply != want_b[k]) unmatched.fetch_add(1);
        } else if (reply == want_a1[k]) {
          v1_replies.fetch_add(1);
        } else if (reply == want_a2[k]) {
          v2_replies.fetch_add(1);
        } else {
          unmatched.fetch_add(1);
        }
      }
      close(fd);
    });
    clients.Join();

    const int fd = ConnectUnixRetry(config.path);
    ASSERT_GE(fd, 0);
    stats_reply = RoundTrip(fd, "STATS");
    close(fd);
  }

  EXPECT_EQ(reload_reply, "OK alpha v2");
  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(unmatched.load(), 0);
  EXPECT_GT(v1_replies.load(), 0);
  EXPECT_GT(v2_replies.load(), 0);
  EXPECT_EQ(v1_replies.load() + v2_replies.load(),
            kConns / 2 * kRequestsPerConn);
  obs::JsonValue stats;
  ASSERT_TRUE(obs::JsonParse(stats_reply, &stats)) << stats_reply;
  const obs::JsonValue* models = stats.Find("models");
  ASSERT_NE(models, nullptr);
  ASSERT_NE(models->Find("alpha"), nullptr);
  EXPECT_EQ(models->Find("alpha")->Find("version")->number, 2.0);
  EXPECT_EQ(models->Find("beta")->Find("version")->number, 1.0);

  for (const std::string& path : {ckpt_a1, ckpt_a2, ckpt_b}) {
    std::remove(path.c_str());
    std::remove((path + ".meta").c_str());
  }
}

}  // namespace
}  // namespace msd
