// Regression tests for the shared socket layer (support/net), driven
// through the two servers that sit on it — service::SocketServer (fgpard)
// and dist::CoordinatorServer (fgpar-coord) — and the shared client,
// service::ConnectOnce.  Each test pins one property both sides of the
// transport must agree on: connection teardown never touches a recycled
// fd, finished connection threads are reclaimed while the server runs,
// the address grammar (name length, port digits) is one grammar, and a
// compile_run that races fgpard's drain is answered, never stranded.
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dist/coordinator.hpp"
#include "dist/server.hpp"
#include "service/client.hpp"
#include "service/core.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "support/error.hpp"
#include "support/json.hpp"

namespace fgpar {
namespace {

using Clock = std::chrono::steady_clock;

/// A per-process abstract name, so parallel ctest runs never collide.
std::string AbstractName(const std::string& tag) {
  return "@fgpar-net-test-" + std::to_string(::getpid()) + "-" + tag;
}

/// Polls `done` every 10 ms until it holds or `seconds` elapse.
bool WaitFor(const std::function<bool()>& done, double seconds = 5.0) {
  const auto deadline = Clock::now() + std::chrono::duration<double>(seconds);
  while (!done()) {
    if (Clock::now() >= deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return true;
}

std::size_t OpenFdCount() {
  std::size_t count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++count;
  }
  return count - 1;  // the iterator's own directory fd
}

long VmSizeKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) {
      return std::stol(line.substr(7));
    }
  }
  return -1;
}

long DefaultThreadStackKb() {
  pthread_attr_t attr;
  std::size_t bytes = 0;
  if (pthread_getattr_default_np(&attr) == 0) {
    pthread_attr_getstacksize(&attr, &bytes);
    pthread_attr_destroy(&attr);
  }
  return static_cast<long>(bytes / 1024);
}

service::ServiceConfig OneWorker() {
  service::ServiceConfig config;
  config.workers = 1;
  return config;
}

dist::Coordinator::Config GridOfFour() {
  dist::Coordinator::Config config;
  config.name = "net";
  config.labels = {"p0", "p1", "p2", "p3"};
  config.lease_ms = 100;  // the lease ticker wakes (and stops) every 25 ms
  return config;
}

/// Connects and disconnects `cycles` times, then waits (without any
/// drain) until the process's address space is back within half the
/// connections' stacks of where it started.  A server that keeps a
/// finished connection's thread unjoined keeps its whole stack mapped, so
/// the growth stays near `cycles` stacks and this returns false.
bool ConnectionThreadsAreReclaimed(const std::string& address) {
  constexpr int kCycles = 128;
  const long stack_kb = DefaultThreadStackKb();
  EXPECT_GT(stack_kb, 0);
  const long before = VmSizeKb();
  for (int i = 0; i < kCycles; ++i) {
    const int fd = service::ConnectWithBackoff(address, 5.0);
    EXPECT_GE(fd, 0) << std::strerror(errno);
    ::close(fd);
  }
  return WaitFor([&] {
    return VmSizeKb() - before < kCycles * stack_kb / 2;
  });
}

TEST(Net, DrainNeverShutsDownARecycledFd) {
  service::ServiceCore core(OneWorker());
  const std::string address = AbstractName("recycled");
  service::SocketServer server(core, address);
  server.Start();
  const std::size_t baseline = OpenFdCount();

  const int client = service::ConnectWithBackoff(address, 5.0);
  ASSERT_GE(client, 0) << std::strerror(errno);
  ASSERT_TRUE(WaitFor([&] { return OpenFdCount() == baseline + 2; }))
      << "server never accepted";
  ::close(client);
  ASSERT_TRUE(WaitFor([&] { return OpenFdCount() == baseline; }))
      << "server never closed its side";

  // The lowest free numbers — the two just released — go to unrelated
  // sockets that the drain below must leave alone.
  std::vector<std::array<int, 2>> pairs(4);
  for (auto& pair : pairs) {
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0,
                           pair.data()),
              0);
  }
  server.RequestStop();
  EXPECT_EQ(server.ServeUntilShutdown(), 0);

  for (const auto& pair : pairs) {
    char byte = 'x';
    EXPECT_EQ(::send(pair[0], &byte, 1, MSG_NOSIGNAL), 1)
        << "fd " << pair[0] << ": " << std::strerror(errno);
    EXPECT_EQ(::recv(pair[1], &byte, 1, MSG_DONTWAIT), 1)
        << "fd " << pair[1] << ": " << std::strerror(errno);
    ::close(pair[0]);
    ::close(pair[1]);
  }
}

TEST(Net, FinishedConnectionThreadsAreJoinedWithoutADrain) {
  {
    service::ServiceCore core(OneWorker());
    const std::string address = AbstractName("churn-fgpard");
    service::SocketServer server(core, address);
    server.Start();
    EXPECT_TRUE(ConnectionThreadsAreReclaimed(address)) << "fgpard";
  }
  {
    dist::Coordinator coordinator(GridOfFour());
    const std::string address = AbstractName("churn-coord");
    dist::CoordinatorServer server(coordinator, address);
    server.Start();
    EXPECT_TRUE(ConnectionThreadsAreReclaimed(address)) << "fgpar-coord";
  }
}

TEST(Net, EveryNameTheListenerTakesAlsoConnects) {
  // sun_path holds 108 bytes: an abstract name's leading NUL plus 107, or
  // a path's 107 plus its terminating NUL.
  std::string longest = AbstractName("max-");
  longest.resize(1 + 107, 'n');
  {
    service::ServiceCore core(OneWorker());
    service::SocketServer server(core, longest);
    server.Start();
    const int fd = service::ConnectOnce(longest);
    EXPECT_GE(fd, 0) << std::strerror(errno);
    if (fd >= 0) {
      ::close(fd);
    }
  }

  const std::string too_long_path = "/tmp/" + std::string(103, 'p');
  ASSERT_EQ(too_long_path.size(), 108u);
  for (const std::string& address : {longest + "n", too_long_path}) {
    service::ServiceCore core(OneWorker());
    service::SocketServer server(core, address);
    try {
      server.Start();
      ADD_FAILURE() << "listener accepted " << address.size()
                    << "-byte address";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(std::strerror(ENAMETOOLONG)),
                std::string::npos)
          << e.what();
    }
    errno = 0;
    EXPECT_EQ(service::ConnectOnce(address), -1);
    EXPECT_EQ(errno, ENAMETOOLONG) << std::strerror(errno);
  }
}

TEST(Net, TcpPortMustBeDecimalDigitsInRange) {
  for (const std::string port : {"abc", "80x", "", "-1", "65536", " 80",
                                 "+80", "0x50"}) {
    const std::string address = "tcp:127.0.0.1:" + port;
    dist::Coordinator coordinator(GridOfFour());
    dist::CoordinatorServer server(coordinator, address);
    EXPECT_THROW(server.Start(), Error) << address;
    errno = 0;
    EXPECT_EQ(service::ConnectOnce(address), -1) << address;
    EXPECT_EQ(errno, EINVAL) << address;
  }
  // Port 0 means "any free port" when listening, and nothing to dial.
  errno = 0;
  EXPECT_EQ(service::ConnectOnce("tcp:127.0.0.1:0"), -1);
  EXPECT_EQ(errno, EINVAL);

  dist::Coordinator coordinator(GridOfFour());
  dist::CoordinatorServer server(coordinator, "tcp:127.0.0.1:0");
  server.Start();
  ASSERT_GT(server.bound_port(), 0);
  const int fd = service::ConnectOnce("tcp:localhost:" +
                                      std::to_string(server.bound_port()));
  EXPECT_GE(fd, 0) << std::strerror(errno);
  if (fd >= 0) {
    ::close(fd);
  }
}

TEST(Net, FgpardServesOverTcp) {
  service::ServiceCore core(OneWorker());
  service::SocketServer server(core, "tcp:127.0.0.1:0");
  server.Start();
  ASSERT_GT(server.bound_port(), 0);
  const int fd = service::ConnectWithBackoff(
      "tcp:127.0.0.1:" + std::to_string(server.bound_port()), 5.0);
  ASSERT_GE(fd, 0) << std::strerror(errno);
  service::Request health;
  health.op = service::Op::kHealth;
  health.id = 7;
  ASSERT_TRUE(service::WriteFrame(fd, service::EncodeRequest(health)));
  std::string payload;
  ASSERT_EQ(service::ReadFrame(fd, payload), service::ReadStatus::kFrame);
  ::close(fd);
  const JsonValue doc = ParseJson(payload);
  EXPECT_EQ(doc.Get("code").AsU64(), 200u) << payload;
  EXPECT_EQ(doc.Get("id").AsU64(), 7u) << payload;
}

TEST(Net, CompileRunRacingTheDrainIsNeverStranded) {
  // Clients keep compile_runs in flight while the daemon drains.  Each one
  // must be answered — by a worker, or with the structured "draining" 503
  // — before the workers exit: a job queued after them would leave its
  // connection thread waiting forever, and the drain (which joins that
  // thread) would never return.
  constexpr int kRounds = 20;
  constexpr int kClients = 3;
  for (int round = 0; round < kRounds; ++round) {
    service::ServiceCore core(OneWorker());
    const std::string address = AbstractName("drain-" + std::to_string(round));
    service::SocketServer server(core, address);
    server.Start();
    std::atomic<int> answered{0};
    std::atomic<int> bad_codes{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&] {
        const int fd = service::ConnectWithBackoff(address, 5.0);
        if (fd < 0) {
          ++bad_codes;
          return;
        }
        service::Request request;
        request.op = service::Op::kCompileRun;
        request.id = 1;
        request.kernel = "not a kernel";  // a quick 400 from the worker
        std::string payload;
        // Runs until the drain closes the connection.
        while (service::WriteFrame(fd, service::EncodeRequest(request)) &&
               service::ReadFrame(fd, payload) == service::ReadStatus::kFrame) {
          const std::int64_t code = ParseJson(payload).Get("code").AsI64();
          if (code != service::kBadRequest && code != service::kRejected) {
            ++bad_codes;
          }
          ++answered;
        }
        ::close(fd);
      });
    }
    ASSERT_TRUE(WaitFor([&] { return answered.load() >= 4 * kClients; }))
        << "round " << round << ": clients were never answered";
    std::future<int> drained = std::async(std::launch::async, [&] {
      server.RequestStop();
      return server.ServeUntilShutdown();
    });
    if (drained.wait_for(std::chrono::seconds(20)) !=
        std::future_status::ready) {
      // The stranded connection thread can never be joined: fail the
      // whole process rather than hang it.
      ADD_FAILURE() << "round " << round
                    << ": the drain never finished (a compile_run was "
                       "queued after the workers exited)";
      std::fflush(nullptr);
      std::_Exit(1);
    }
    EXPECT_EQ(drained.get(), 0);
    for (std::thread& client : clients) {
      client.join();
    }
    EXPECT_EQ(bad_codes.load(), 0) << "round " << round;
  }
}

}  // namespace
}  // namespace fgpar
