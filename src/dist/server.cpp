#include "dist/server.hpp"

#include <algorithm>
#include <csignal>
#include <cstddef>
#include <cstdlib>
#include <vector>

#include "service/protocol.hpp"
#include "support/error.hpp"

namespace fgpar::dist {

namespace {

std::size_t CountFromEnv(const char* name) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') {
    return 0;
  }
  char* end = nullptr;
  const unsigned long long value = std::strtoull(env, &end, 10);
  return end != env && *end == '\0' ? static_cast<std::size_t>(value) : 0;
}

}  // namespace

CoordinatorServer::CoordinatorServer(Coordinator& coordinator,
                                     std::string address)
    : coordinator_(coordinator),
      epoch_(std::chrono::steady_clock::now()),
      exit_after_(CountFromEnv("FGPAR_COORD_EXIT_AFTER")),
      listener_(std::move(address)) {}

CoordinatorServer::~CoordinatorServer() { Stop(); }

std::uint64_t CoordinatorServer::NowMs() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void CoordinatorServer::Start() {
  // A worker that dies mid-reply must cost us an EPIPE, not the process.
  std::signal(SIGPIPE, SIG_IGN);
  listener_.Start([this](int fd) { ServeConnection(fd); });
  ticker_thread_ = std::thread([this] { TickerLoop(); });
}

void CoordinatorServer::WaitUntilDone() {
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [this] {
    return coordinator_.Done() || stop_.load(std::memory_order_relaxed);
  });
}

void CoordinatorServer::Stop() {
  if (stop_.exchange(true, std::memory_order_relaxed)) {
    // Second caller: the first is (or was) tearing down; just make sure
    // the waiter wakes.
    done_cv_.notify_all();
    return;
  }
  done_cv_.notify_all();
  listener_.StopAccepting();
  if (ticker_thread_.joinable()) {
    ticker_thread_.join();
  }
  listener_.Close();
}

void CoordinatorServer::TickerLoop() {
  const std::uint64_t lease_ms = coordinator_.config().lease_ms;
  const auto period =
      std::chrono::milliseconds(std::max<std::uint64_t>(lease_ms / 4, 25));
  while (!stop_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(period);
    std::lock_guard<std::mutex> lock(mutex_);
    coordinator_.RevokeExpired(NowMs());
  }
}

void CoordinatorServer::ServeConnection(int fd) {
  // Leases granted over this connection: revoked the instant the
  // connection EOFs (the worker is gone; no need to wait out the
  // heartbeat deadline).
  std::vector<std::uint64_t> granted;
  std::string payload;
  for (;;) {
    const service::ReadStatus status = service::ReadFrame(fd, payload);
    if (status != service::ReadStatus::kFrame) {
      if (status == service::ReadStatus::kOversized) {
        CoordinatorReply reply;
        reply.code = 400;
        reply.error = "frame exceeds the 8 MiB cap";
        service::WriteFrame(fd, EncodeReply(reply));
      }
      break;
    }
    CoordinatorReply reply;
    try {
      const WorkerReport report = ParseReport(payload);
      std::lock_guard<std::mutex> lock(mutex_);
      const std::size_t before = coordinator_.points().size();
      reply = coordinator_.Apply(report, NowMs());
      commits_this_run_ += coordinator_.points().size() - before;
      if (reply.grant == Grant::kLease) {
        granted.push_back(reply.lease_id);
      }
      if (coordinator_.Done()) {
        done_cv_.notify_all();
      }
      if (exit_after_ > 0 && commits_this_run_ >= exit_after_) {
        // The coordinator crash drill: die exactly like an external
        // kill -9, with the journal durably holding every commit so far.
        std::raise(SIGKILL);
      }
    } catch (const Error& e) {
      reply = CoordinatorReply{};
      reply.code = 400;
      reply.error = e.what();
    }
    if (!service::WriteFrame(fd, EncodeReply(reply))) {
      break;
    }
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const std::uint64_t lease_id : granted) {
      coordinator_.RevokeLease(lease_id);
    }
  }
}

}  // namespace fgpar::dist
