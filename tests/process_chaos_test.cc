// Process-level chaos harness (ctest label: process_chaos): the REAL
// sknn_server_a / sknn_server_b binaries under process-level faults —
// SIGKILL and restart of Party B, stalls and partitions injected by the
// chaos_proxy TCP relay, and SIGTERM graceful drain. The invariant under
// every fault is the robustness contract of DESIGN.md §8/§9: a query
// ends in the exact brute-force k-NN answer or in a clean typed error —
// never a hang, never a wrong or partial answer.
//
// The server binaries' paths are injected by CMake as compile
// definitions, so the harness always tests the binaries built alongside
// it.

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/server.h"
#include "data/generators.h"
#include "knn/knn.h"
#include "obs/telemetry_http.h"

namespace sknn {
namespace core {
namespace {

using Clock = std::chrono::steady_clock;

// The deployment both server binaries derive from these flags; the
// in-test client must derive the identical one or the handshake
// fingerprint rejects it (which is itself the first thing this suite
// would catch after a flag drift).
constexpr int kN = 16;
constexpr int kD = 2;
constexpr int kK = 2;
constexpr int kCoordBits = 4;
constexpr uint64_t kSeed = 7;

ProtocolConfig HarnessConfig() {
  ProtocolConfig cfg;
  cfg.k = kK;
  cfg.dims = kD;
  cfg.coord_bits = kCoordBits;
  cfg.poly_degree = 2;
  cfg.layout = Layout::kPacked;
  cfg.preset = bgv::SecurityPreset::kToy;
  cfg.threads = 1;
  cfg.levels = cfg.MinimumLevels();
  return cfg;
}

std::vector<std::string> CommonServerFlags() {
  return {
      "--n=" + std::to_string(kN),
      "--d=" + std::to_string(kD),
      "--k=" + std::to_string(kK),
      "--coord-bits=" + std::to_string(kCoordBits),
      "--degree=2",
      "--seed=" + std::to_string(kSeed),
      "--preset=toy",
      "--threads=1",
  };
}

// A child process with a captured stdout and a writable stdin. stderr is
// inherited so server diagnostics land in the ctest log.
class Subprocess {
 public:
  Subprocess() = default;
  ~Subprocess() { KillHard(); }
  Subprocess(const Subprocess&) = delete;
  Subprocess& operator=(const Subprocess&) = delete;

  bool Start(const std::vector<std::string>& argv) {
    int out_pipe[2] = {-1, -1};
    int in_pipe[2] = {-1, -1};
    if (::pipe(out_pipe) != 0 || ::pipe(in_pipe) != 0) return false;
    pid_ = ::fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      ::dup2(out_pipe[1], STDOUT_FILENO);
      ::dup2(in_pipe[0], STDIN_FILENO);
      ::close(out_pipe[0]);
      ::close(out_pipe[1]);
      ::close(in_pipe[0]);
      ::close(in_pipe[1]);
      std::vector<char*> args;
      args.reserve(argv.size() + 1);
      for (const std::string& a : argv) {
        args.push_back(const_cast<char*>(a.c_str()));
      }
      args.push_back(nullptr);
      ::execv(args[0], args.data());
      std::perror("execv");
      ::_exit(127);
    }
    ::close(out_pipe[1]);
    ::close(in_pipe[0]);
    out_fd_ = out_pipe[0];
    in_fd_ = in_pipe[1];
    ::fcntl(out_fd_, F_SETFL, O_NONBLOCK);
    return true;
  }

  // Reads child stdout until `pattern` appears in the accumulated
  // capture or `timeout_ms` passes.
  bool ReadUntil(const std::string& pattern, int timeout_ms) {
    const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
    while (captured_.find(pattern) == std::string::npos) {
      if (Clock::now() >= deadline) return false;
      pollfd pfd{out_fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 50) <= 0) continue;
      char buf[4096];
      const ssize_t n = ::read(out_fd_, buf, sizeof(buf));
      if (n > 0) {
        captured_.append(buf, static_cast<size_t>(n));
      } else if (n == 0) {
        return captured_.find(pattern) != std::string::npos;
      }
    }
    return true;
  }

  const std::string& captured() const { return captured_; }

  void WriteLine(const std::string& line) {
    const std::string s = line + "\n";
    ssize_t ignored = ::write(in_fd_, s.data(), s.size());
    (void)ignored;
  }

  void Signal(int sig) {
    if (pid_ > 0 && !exited_) ::kill(pid_, sig);
  }

  // Waits up to `timeout_ms` for exit; returns the exit code, or -1 on
  // timeout (128+signal for a signalled child).
  int Wait(int timeout_ms) {
    if (exited_) return exit_code_;
    const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
    while (Clock::now() < deadline) {
      // Drain stdout so a child blocked on a full pipe can exit.
      (void)ReadUntil("\x01never-matches\x01", 1);
      int status = 0;
      const pid_t r = ::waitpid(pid_, &status, WNOHANG);
      if (r == pid_) {
        exited_ = true;
        exit_code_ = WIFEXITED(status) ? WEXITSTATUS(status)
                                       : 128 + WTERMSIG(status);
        return exit_code_;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return -1;
  }

  void KillHard() {
    if (pid_ > 0 && !exited_) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
      exited_ = true;
      exit_code_ = 128 + SIGKILL;
    }
    if (out_fd_ >= 0) ::close(out_fd_);
    if (in_fd_ >= 0) ::close(in_fd_);
    out_fd_ = in_fd_ = -1;
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  int in_fd_ = -1;
  std::string captured_;
  bool exited_ = false;
  int exit_code_ = -1;
};

// The port printed after `marker` (trailing digits of the token, with
// any " (fingerprint ...)" suffix stripped): handles both
// "listening on 127.0.0.1:7101 (fingerprint x)" and "listening on 7101".
int ParsePortAfter(const std::string& text, const std::string& marker) {
  const size_t pos = text.find(marker);
  if (pos == std::string::npos) return -1;
  const size_t eol = text.find('\n', pos);
  std::string line = text.substr(
      pos, eol == std::string::npos ? std::string::npos : eol - pos);
  const size_t paren = line.find(" (");
  if (paren != std::string::npos) line = line.substr(0, paren);
  size_t i = line.size();
  while (i > 0 && std::isdigit(static_cast<unsigned char>(line[i - 1]))) --i;
  if (i == line.size()) return -1;
  return std::atoi(line.c_str() + i);
}

// Reserves an ephemeral port and releases it (SO_REUSEADDR on the server
// side makes the immediate re-bind reliable). Needed where a killed
// Party B must restart on the address Party A keeps re-dialling.
uint16_t PickFreePort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  ::close(fd);
  return ntohs(addr.sin_port);
}

class ProcessChaosTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new data::Dataset(
        data::UniformDataset(kN, kD, (uint64_t{1} << kCoordBits) - 1, kSeed));
    auto d = Deployment::Derive(HarnessConfig(), *dataset_, kSeed,
                                /*role_a=*/false);
    ASSERT_TRUE(d.ok()) << d.status();
    deployment_ = new Deployment(std::move(d).value());
  }
  static void TearDownTestSuite() {
    delete deployment_;
    delete dataset_;
    deployment_ = nullptr;
    dataset_ = nullptr;
  }

  static bool StartServerB(Subprocess* proc, uint16_t port,
                           const std::vector<std::string>& extra = {}) {
    std::vector<std::string> argv = {SKNN_SERVER_B_BIN};
    for (const auto& f : CommonServerFlags()) argv.push_back(f);
    argv.push_back("--port=" + std::to_string(port));
    for (const auto& f : extra) argv.push_back(f);
    if (!proc->Start(argv)) return false;
    return proc->ReadUntil("listening on", 120000);
  }

  // Starts A against `peer_port` and returns A's client port, or -1.
  static int StartServerA(Subprocess* proc, uint16_t peer_port,
                          const std::vector<std::string>& extra = {}) {
    std::vector<std::string> argv = {SKNN_SERVER_A_BIN};
    for (const auto& f : CommonServerFlags()) argv.push_back(f);
    argv.push_back("--port=0");
    argv.push_back("--peer-port=" + std::to_string(peer_port));
    argv.push_back("--workers=1");
    argv.push_back("--queue=4");
    for (const auto& f : extra) argv.push_back(f);
    if (!proc->Start(argv)) return -1;
    if (!proc->ReadUntil("listening on", 120000)) return -1;
    return ParsePortAfter(proc->captured(), "listening on");
  }

  static std::vector<uint64_t> ReferenceDistances(
      const std::vector<uint64_t>& query) {
    auto ref = knn::PlaintextKnn(*dataset_, query, kK);
    EXPECT_TRUE(ref.ok());
    std::vector<uint64_t> out;
    for (const auto& nb : ref.value()) out.push_back(nb.squared_distance);
    std::sort(out.begin(), out.end());
    return out;
  }

  static std::vector<uint64_t> AnswerDistances(
      const std::vector<std::vector<uint64_t>>& points,
      const std::vector<uint64_t>& query) {
    std::vector<uint64_t> out;
    for (const auto& p : points) {
      uint64_t sum = 0;
      for (size_t j = 0; j < query.size(); ++j) {
        const uint64_t d =
            p[j] > query[j] ? p[j] - query[j] : query[j] - p[j];
        sum += d * d;
      }
      out.push_back(sum);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  // The acceptance invariant, applied to one query result: exact answer
  // or clean typed (transient) error.
  static void ExpectExactOrTypedTransient(
      const StatusOr<std::vector<std::vector<uint64_t>>>& answer,
      const std::vector<uint64_t>& query, const char* when) {
    if (answer.ok()) {
      EXPECT_EQ(AnswerDistances(answer.value(), query),
                ReferenceDistances(query))
          << when << ": wrong answer";
    } else {
      EXPECT_TRUE(answer.status().IsTransient())
          << when << ": untyped/fatal error " << answer.status();
    }
  }

  // Retries `query` until the service recovers (exact answer) or the
  // budget runs out; every interim failure must be typed transient.
  static bool QueryUntilRecovered(RemoteClient* client,
                                  const std::vector<uint64_t>& query,
                                  int budget_ms, const char* when) {
    const auto deadline = Clock::now() + std::chrono::milliseconds(budget_ms);
    while (Clock::now() < deadline) {
      auto answer = client->Query(query);
      if (answer.ok()) {
        EXPECT_EQ(AnswerDistances(answer.value(), query),
                  ReferenceDistances(query))
            << when << ": wrong answer after recovery";
        return true;
      }
      EXPECT_TRUE(answer.status().IsTransient())
          << when << ": " << answer.status();
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
    return false;
  }

  static data::Dataset* dataset_;
  static Deployment* deployment_;
};

data::Dataset* ProcessChaosTest::dataset_ = nullptr;
Deployment* ProcessChaosTest::deployment_ = nullptr;

// SIGKILL Party B mid-service (no FIN, no cleanup — the crash case),
// restart it on the same address, and require Party A to recover without
// any operator action, serving exact answers again.
TEST_F(ProcessChaosTest, SigkillAndRestartPartyBRecovers) {
  const uint16_t b_port = PickFreePort();
  auto server_b = std::make_unique<Subprocess>();
  ASSERT_TRUE(StartServerB(server_b.get(), b_port));
  Subprocess server_a;
  const int a_port = StartServerA(&server_a, b_port);
  ASSERT_GT(a_port, 0) << server_a.captured();

  ServerOptions options;
  auto client = RemoteClient::Connect(
      *deployment_, "127.0.0.1", static_cast<uint16_t>(a_port), options);
  ASSERT_TRUE(client.ok()) << client.status();
  const std::vector<uint64_t> query = data::UniformQuery(kD, 15, 1001);
  auto healthy = (*client)->Query(query);
  ASSERT_TRUE(healthy.ok()) << healthy.status();
  EXPECT_EQ(AnswerDistances(healthy.value(), query),
            ReferenceDistances(query));

  // Fire a query and SIGKILL B while it may be mid-exchange. Either
  // outcome is legal; a hang or a wrong answer is not.
  StatusOr<std::vector<std::vector<uint64_t>>> racing =
      UnavailableError("never ran");
  std::thread racer(
      [&] { racing = (*client)->Query(query, /*deadline_ms=*/10000); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  server_b->Signal(SIGKILL);
  racer.join();
  ExpectExactOrTypedTransient(racing, query, "query racing SIGKILL");
  server_b->KillHard();  // reap

  // With B dead, queries must keep failing cleanly (typed, bounded).
  auto while_down = (*client)->Query(query, /*deadline_ms=*/5000);
  ASSERT_FALSE(while_down.ok()) << "B is dead; the query cannot succeed";
  EXPECT_TRUE(while_down.status().IsTransient()) << while_down.status();

  // Restart B on the same port; A's supervised reconnect must find it.
  server_b = std::make_unique<Subprocess>();
  ASSERT_TRUE(StartServerB(server_b.get(), b_port));
  EXPECT_TRUE(QueryUntilRecovered(client->get(), query, 60000,
                                  "after B restart"))
      << "Party A never recovered from the B restart";

  // Clean shutdown: both servers drain and exit 0 on SIGTERM.
  server_a.Signal(SIGTERM);
  EXPECT_EQ(server_a.Wait(30000), 0) << server_a.captured();
  server_b->Signal(SIGTERM);
  EXPECT_EQ(server_b->Wait(30000), 0) << server_b->captured();
}

// Stall (bytes accepted, none delivered — the silent-network case) and
// partition (connections die, new ones refused) injected between A and B
// by chaos_proxy. Queries during the fault must fail typed and bounded;
// after heal the service must recover to exact answers.
TEST_F(ProcessChaosTest, StallAndPartitionBetweenAAndBHealCleanly) {
  Subprocess server_b;
  ASSERT_TRUE(StartServerB(&server_b, 0));
  const int b_port = ParsePortAfter(server_b.captured(), "listening on");
  ASSERT_GT(b_port, 0) << server_b.captured();

  Subprocess proxy;
  ASSERT_TRUE(proxy.Start(
      {SKNN_CHAOS_PROXY_BIN, "--upstream-port", std::to_string(b_port)}));
  ASSERT_TRUE(proxy.ReadUntil("listening on", 10000));
  const int proxy_port = ParsePortAfter(proxy.captured(), "listening on");
  ASSERT_GT(proxy_port, 0) << proxy.captured();

  Subprocess server_a;
  const int a_port =
      StartServerA(&server_a, static_cast<uint16_t>(proxy_port));
  ASSERT_GT(a_port, 0) << server_a.captured();

  ServerOptions options;
  auto client = RemoteClient::Connect(
      *deployment_, "127.0.0.1", static_cast<uint16_t>(a_port), options);
  ASSERT_TRUE(client.ok()) << client.status();
  const std::vector<uint64_t> query = data::UniformQuery(kD, 15, 2002);
  auto healthy = (*client)->Query(query);
  ASSERT_TRUE(healthy.ok()) << healthy.status();
  EXPECT_EQ(AnswerDistances(healthy.value(), query),
            ReferenceDistances(query));

  // --- Stall ---
  proxy.WriteLine("stall");
  ASSERT_TRUE(proxy.ReadUntil("mode stall", 5000));
  constexpr int64_t kBudgetMs = 1500;
  const auto t0 = Clock::now();
  auto stalled = (*client)->Query(query, kBudgetMs);
  const auto stalled_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() - t0)
          .count();
  ExpectExactOrTypedTransient(stalled, query, "query under stall");
  // The budget, the client's grace window (budget/4 + 250 ms) and 1 s of
  // slack: the query's deadline is the only clock on its receives.
  EXPECT_LT(stalled_ms, kBudgetMs + (kBudgetMs / 4 + 250) + 1000)
      << "a deadlined query under a stalled network must fail at its "
         "deadline";
  proxy.WriteLine("heal");
  ASSERT_TRUE(proxy.ReadUntil("mode forward", 5000));
  EXPECT_TRUE(QueryUntilRecovered(client->get(), query, 60000, "after stall"))
      << "service never recovered from the stall";

  // --- Partition ---
  proxy.WriteLine("partition");
  ASSERT_TRUE(proxy.ReadUntil("mode partition", 5000));
  auto partitioned = (*client)->Query(query, /*deadline_ms=*/1500);
  ExpectExactOrTypedTransient(partitioned, query, "query under partition");
  proxy.WriteLine("heal");
  // "mode forward" appears once per heal; match the second occurrence by
  // searching the capture AFTER this point via a unique needle: issue a
  // no-op unknown command whose echo is deterministic? Simpler: wait for
  // recovery itself — heal took effect iff queries succeed again.
  EXPECT_TRUE(QueryUntilRecovered(client->get(), query, 60000,
                                  "after partition"))
      << "service never recovered from the partition";

  server_a.Signal(SIGTERM);
  EXPECT_EQ(server_a.Wait(30000), 0) << server_a.captured();
  server_b.Signal(SIGTERM);
  EXPECT_EQ(server_b.Wait(30000), 0) << server_b.captured();
  proxy.WriteLine("quit");
  EXPECT_EQ(proxy.Wait(10000), 0);
}

// SIGTERM drain: in-flight queries finish, the process exits 0, and the
// observability state (Prometheus metrics, flight records) is flushed to
// disk on the way out.
TEST_F(ProcessChaosTest, SigtermDrainsAndFlushesObservability) {
  const std::string tag = std::to_string(::getpid());
  const std::string metrics_path = "/tmp/sknn_chaos_metrics_" + tag + ".prom";
  const std::string flight_path = "/tmp/sknn_chaos_flight_" + tag + ".json";
  std::remove(metrics_path.c_str());
  std::remove(flight_path.c_str());

  Subprocess server_b;
  ASSERT_TRUE(StartServerB(&server_b, 0));
  const int b_port = ParsePortAfter(server_b.captured(), "listening on");
  ASSERT_GT(b_port, 0) << server_b.captured();
  Subprocess server_a;
  const int a_port = StartServerA(
      &server_a, static_cast<uint16_t>(b_port),
      {"--metrics-out=" + metrics_path, "--flight-record=" + flight_path,
       "--drain-ms=5000"});
  ASSERT_GT(a_port, 0) << server_a.captured();

  ServerOptions options;
  auto client = RemoteClient::Connect(
      *deployment_, "127.0.0.1", static_cast<uint16_t>(a_port), options);
  ASSERT_TRUE(client.ok()) << client.status();
  const std::vector<uint64_t> query = data::UniformQuery(kD, 15, 3003);
  for (int q = 0; q < 2; ++q) {
    auto answer = (*client)->Query(query);
    ASSERT_TRUE(answer.ok()) << answer.status();
    EXPECT_EQ(AnswerDistances(answer.value(), query),
              ReferenceDistances(query));
  }

  // SIGTERM while a query is in flight: the drain lets it finish (or
  // sheds it typed), then the process exits 0 with flushed files.
  StatusOr<std::vector<std::vector<uint64_t>>> racing =
      UnavailableError("never ran");
  std::thread racer([&] { racing = (*client)->Query(query); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  server_a.Signal(SIGTERM);
  racer.join();
  if (racing.ok()) {
    EXPECT_EQ(AnswerDistances(racing.value(), query),
              ReferenceDistances(query));
  } else {
    EXPECT_TRUE(racing.status().IsTransient()) << racing.status();
  }
  ASSERT_EQ(server_a.Wait(30000), 0) << server_a.captured();
  EXPECT_NE(server_a.captured().find("drained; exiting"), std::string::npos)
      << server_a.captured();

  // Flushed observability: non-empty metrics in Prometheus text form and
  // a flight-record JSON mentioning the per-query phase.
  std::ifstream metrics(metrics_path);
  std::stringstream metrics_text;
  metrics_text << metrics.rdbuf();
  EXPECT_NE(metrics_text.str().find("server"), std::string::npos)
      << "metrics not flushed to " << metrics_path;
  std::ifstream flight(flight_path);
  std::stringstream flight_text;
  flight_text << flight.rdbuf();
  EXPECT_NE(flight_text.str().find("server.query"), std::string::npos)
      << "flight records not flushed to " << flight_path;

  server_b.Signal(SIGTERM);
  EXPECT_EQ(server_b.Wait(30000), 0) << server_b.captured();
  std::remove(metrics_path.c_str());
  std::remove(flight_path.c_str());
}

// The admin plane's readiness contract under real process faults:
// Party A's /readyz must flip to 503 while its B-link is down (B
// SIGKILLed) and while A itself is draining on SIGTERM, and /healthz
// must stay 200 throughout — liveness and readiness are different
// questions. Recovery (B restarted) must flip /readyz back to 200
// with no operator action.
TEST_F(ProcessChaosTest, AdminReadyzTracksDrainAndBOutage) {
  const uint16_t b_port = PickFreePort();
  auto server_b = std::make_unique<Subprocess>();
  ASSERT_TRUE(StartServerB(server_b.get(), b_port, {"--admin-port=0"}));
  ASSERT_TRUE(server_b->ReadUntil("admin listening on", 10000));
  const int b_admin =
      ParsePortAfter(server_b->captured(), "admin listening on");
  ASSERT_GT(b_admin, 0) << server_b->captured();

  Subprocess server_a;
  const int a_port = StartServerA(
      &server_a, b_port,
      {"--admin-port=0", "--drain-ms=10000", "--test-worker-delay-ms=300"});
  ASSERT_GT(a_port, 0) << server_a.captured();
  ASSERT_TRUE(server_a.ReadUntil("admin listening on", 10000));
  const int a_admin = ParsePortAfter(server_a.captured(), "admin listening on");
  ASSERT_GT(a_admin, 0) << server_a.captured();

  auto get = [](int port, const char* path) {
    return obs::HttpGet("127.0.0.1", static_cast<uint16_t>(port), path,
                        /*timeout_ms=*/3000);
  };
  // Polls `path` until it returns `want` or the budget runs out.
  auto await_status = [&get](int port, const char* path, int want,
                             int budget_ms) {
    const auto deadline = Clock::now() + std::chrono::milliseconds(budget_ms);
    int last = -1;
    while (Clock::now() < deadline) {
      auto res = obs::HttpGet("127.0.0.1", static_cast<uint16_t>(port), path,
                              /*timeout_ms=*/3000);
      if (res.ok()) {
        last = res->status;
        if (last == want) return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    ADD_FAILURE() << path << " on :" << port << " never reached " << want
                  << " (last " << last << ")";
    return false;
  };

  // Healthy steady state: both parties live and ready.
  auto res = get(a_admin, "/readyz");
  ASSERT_TRUE(res.ok()) << res.status();
  EXPECT_EQ(res->status, 200) << res->body;
  res = get(b_admin, "/readyz");
  ASSERT_TRUE(res.ok()) << res.status();
  EXPECT_EQ(res->status, 200) << res->body;

  // --- B outage: A must report not-ready, but stay alive. ---
  server_b->Signal(SIGKILL);
  server_b->KillHard();  // reap
  EXPECT_TRUE(await_status(a_admin, "/readyz", 503, 30000))
      << "A never reported its dead B-link on /readyz";
  res = get(a_admin, "/readyz");
  ASSERT_TRUE(res.ok());
  EXPECT_NE(res->body.find("B workers"), std::string::npos) << res->body;
  res = get(a_admin, "/healthz");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->status, 200) << "/healthz is liveness; A is still alive";

  // --- Recovery: restart B on the same port; /readyz flips back. ---
  server_b = std::make_unique<Subprocess>();
  ASSERT_TRUE(StartServerB(server_b.get(), b_port));
  EXPECT_TRUE(await_status(a_admin, "/readyz", 200, 60000))
      << "A never regained readiness after the B restart";

  // --- Drain: SIGTERM with a query in flight (the injected worker
  // delay holds it open); /readyz must flip to 503 while the admin
  // plane itself stays up, then the process exits 0. ---
  ServerOptions options;
  auto client = RemoteClient::Connect(
      *deployment_, "127.0.0.1", static_cast<uint16_t>(a_port), options);
  ASSERT_TRUE(client.ok()) << client.status();
  const std::vector<uint64_t> query = data::UniformQuery(kD, 15, 4004);
  auto warm = (*client)->Query(query);
  ASSERT_TRUE(warm.ok()) << warm.status();

  StatusOr<std::vector<std::vector<uint64_t>>> racing =
      UnavailableError("never ran");
  std::thread racer([&] { racing = (*client)->Query(query); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server_a.Signal(SIGTERM);
  EXPECT_TRUE(await_status(a_admin, "/readyz", 503, 5000))
      << "draining A never reported 503 on /readyz";
  racer.join();
  ExpectExactOrTypedTransient(racing, query, "query racing SIGTERM drain");
  EXPECT_EQ(server_a.Wait(30000), 0) << server_a.captured();

  server_b->Signal(SIGTERM);
  EXPECT_EQ(server_b->Wait(30000), 0) << server_b->captured();
}

// The value of the unlabelled sample `name` in a Prometheus text body, or
// 0 when the series is absent.
uint64_t PrometheusValue(const std::string& body, const std::string& name) {
  std::istringstream lines(body);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.size() > name.size() && line.compare(0, name.size(), name) == 0 &&
        line[name.size()] == ' ') {
      return std::strtoull(line.c_str() + name.size() + 1, nullptr, 10);
    }
  }
  return 0;
}

// The metrics OPERATIONS.md's alert rules watch: every identifier on an
// `expr:` line that is not a PromQL word, a number, a label matcher or a
// range, with histogram series suffixes stripped (Prometheus form).
std::vector<std::string> AlertedMetrics() {
  static const std::set<std::string> kPromql = {
      "rate", "irate",   "increase", "delta", "sum",       "avg",
      "min",  "max",     "count",    "by",    "without",   "on",
      "and",  "or",      "unless",   "offset", "ignoring",
      "histogram_quantile"};
  const std::regex selectors(R"(\{[^}]*\}|\[[^\]]*\])");
  const std::regex identifier(R"([A-Za-z_:][A-Za-z0-9_:]*)");
  const std::regex series_suffix(R"(_(bucket|sum|count)$)");
  std::ifstream doc(SKNN_OPERATIONS_MD);
  std::set<std::string> names;
  std::string line;
  while (std::getline(doc, line)) {
    const size_t at = line.find("expr:");
    if (at == std::string::npos || line.find_first_not_of(" \t") != at) {
      continue;
    }
    const std::string expr =
        std::regex_replace(line.substr(at + 5), selectors, " ");
    for (std::sregex_iterator it(expr.begin(), expr.end(), identifier), end;
         it != end; ++it) {
      if (kPromql.count(it->str()) == 0) {
        names.insert(std::regex_replace(it->str(), series_suffix, ""));
      }
    }
  }
  return {names.begin(), names.end()};
}

// Scrape under load against the binaries' real admin wiring: while
// several clients query concurrently, a side thread scrapes A's /metrics
// the way a Prometheus scraper races live traffic. A scrape taken
// mid-run must already show completed queries; afterwards A's /varz and
// B's /metrics must answer, and every answer must be exact. Every metric
// an OPERATIONS.md alert watches must already be exported by the idle,
// healthy A: an alert on a series that is missing can never fire.
TEST_F(ProcessChaosTest, AdminScrapeUnderLoadSeesLiveCounters) {
  Subprocess server_b;
  ASSERT_TRUE(StartServerB(&server_b, 0, {"--admin-port=0"}));
  ASSERT_TRUE(server_b.ReadUntil("admin listening on", 10000));
  const int b_port = ParsePortAfter(server_b.captured(), "listening on");
  ASSERT_GT(b_port, 0) << server_b.captured();
  const int b_admin = ParsePortAfter(server_b.captured(), "admin listening on");
  ASSERT_GT(b_admin, 0) << server_b.captured();

  Subprocess server_a;
  const int a_port = StartServerA(&server_a, static_cast<uint16_t>(b_port),
                                  {"--admin-port=0"});
  ASSERT_GT(a_port, 0) << server_a.captured();
  ASSERT_TRUE(server_a.ReadUntil("admin listening on", 10000));
  const int a_admin = ParsePortAfter(server_a.captured(), "admin listening on");
  ASSERT_GT(a_admin, 0) << server_a.captured();

  auto get = [](int port, const char* path) {
    return obs::HttpGet("127.0.0.1", static_cast<uint16_t>(port), path,
                        /*timeout_ms=*/3000);
  };
  auto before = get(a_admin, "/metrics");
  ASSERT_TRUE(before.ok()) << before.status();
  ASSERT_EQ(before->status, 200) << before->body;
  const uint64_t completed0 =
      PrometheusValue(before->body, "server_queries_completed");
  const std::vector<std::string> alerted = AlertedMetrics();
  ASSERT_FALSE(alerted.empty()) << "no alert rules read from OPERATIONS.md";
  for (const std::string& metric : alerted) {
    EXPECT_NE(before->body.find("# TYPE " + metric + " "), std::string::npos)
        << "OPERATIONS.md alerts on " << metric
        << ", which Party A's /metrics does not export";
  }

  constexpr int kClients = 3;
  constexpr int kQueriesPerClient = 3;
  constexpr int kTotal = kClients * kQueriesPerClient;
  std::vector<std::vector<uint64_t>> queries(kTotal);
  std::vector<StatusOr<std::vector<std::vector<uint64_t>>>> answers(
      kTotal, UnavailableError("never ran"));
  std::atomic<int> answered{0};

  // Polls A's /metrics until a scrape that both started and finished
  // while queries were still outstanding sees the completed counter move.
  bool mid_run_scrape = false;
  uint64_t completed_seen = 0;
  std::thread scraper([&] {
    while (answered.load() < kTotal) {
      auto res = get(a_admin, "/metrics");
      if (res.ok() && res->status == 200 && answered.load() < kTotal) {
        completed_seen =
            PrometheusValue(res->body, "server_queries_completed");
        if (completed_seen > completed0) {
          mid_run_scrape = true;
          return;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ServerOptions options;
      auto client = RemoteClient::Connect(
          *deployment_, "127.0.0.1", static_cast<uint16_t>(a_port), options);
      for (int q = 0; q < kQueriesPerClient; ++q) {
        const int i = c * kQueriesPerClient + q;
        queries[i] =
            data::UniformQuery(kD, 15, 5005 + static_cast<uint64_t>(i));
        if (client.ok()) {
          answers[i] = (*client)->Query(queries[i]);
        } else {
          answers[i] = client.status();
        }
        answered.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  scraper.join();

  for (int i = 0; i < kTotal; ++i) {
    ASSERT_TRUE(answers[i].ok())
        << "query " << i << ": " << answers[i].status();
    EXPECT_EQ(AnswerDistances(answers[i].value(), queries[i]),
              ReferenceDistances(queries[i]))
        << "query " << i << ": wrong answer";
  }
  EXPECT_TRUE(mid_run_scrape)
      << "no /metrics scrape taken during the load showed "
         "server_queries_completed above its starting value "
      << completed0 << " (last seen " << completed_seen << ")";

  auto varz = get(a_admin, "/varz");
  ASSERT_TRUE(varz.ok()) << varz.status();
  EXPECT_EQ(varz->status, 200) << varz->body;
  auto b_metrics = get(b_admin, "/metrics");
  ASSERT_TRUE(b_metrics.ok()) << b_metrics.status();
  ASSERT_EQ(b_metrics->status, 200) << b_metrics->body;
  EXPECT_GT(PrometheusValue(b_metrics->body, "server_b_queries_served"), 0u)
      << b_metrics->body;

  server_a.Signal(SIGTERM);
  EXPECT_EQ(server_a.Wait(30000), 0) << server_a.captured();
  server_b.Signal(SIGTERM);
  EXPECT_EQ(server_b.Wait(30000), 0) << server_b.captured();
}

}  // namespace
}  // namespace core
}  // namespace sknn
