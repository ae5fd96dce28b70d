#include "service/server.hpp"

#include <csignal>

#include "harness/sweep.hpp"

namespace fgpar::service {

namespace {

volatile std::sig_atomic_t g_stop_signal = 0;

}  // namespace

extern "C" void FgpardOnStopSignal(int) { g_stop_signal = 1; }

SocketServer::SocketServer(ServiceCore& core, std::string socket_path)
    : core_(core), listener_(std::move(socket_path)) {
  core_.set_queue_depth_probe([this] { return QueueDepth(); });
}

SocketServer::~SocketServer() {
  RequestStop();
  if (!workers_.empty()) {
    // ServeUntilShutdown was never run (or aborted); drain here so no
    // thread outlives the object.
    ServeUntilShutdown();
  }
}

void SocketServer::InstallSignalHandlers() {
  std::signal(SIGTERM, FgpardOnStopSignal);
  std::signal(SIGINT, FgpardOnStopSignal);
  // A client that disconnects mid-response must cost us an EPIPE errno,
  // not the process.
  std::signal(SIGPIPE, SIG_IGN);
}

void SocketServer::Start() {
  listener_.Start([this](int fd) { ServeConnection(fd); });
  const int workers = core_.config().workers > 0
                          ? core_.config().workers
                          : harness::ResolveSweepThreads(0);
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void SocketServer::RequestStop() { stop_.store(true, std::memory_order_relaxed); }

bool SocketServer::StopRequested() const {
  return stop_.load(std::memory_order_relaxed) || g_stop_signal != 0 ||
         core_.shutdown_requested();
}

std::size_t SocketServer::QueueDepth() const {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  return queue_.size();
}

void SocketServer::WorkerLoop() {
  for (;;) {
    std::unique_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock,
                     [this] { return !queue_.empty() || workers_stop_; });
      if (queue_.empty()) {
        return;  // workers_stop_ with a drained queue: done
      }
      job = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    // Never throws — every outcome is a structured response.
    std::string response = core_.Handle(job->request, job->admitted);
    job->response.set_value(std::move(response));
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      --in_flight_;
    }
    queue_cv_.notify_all();  // wake the drain waiter and idle workers
  }
}

void SocketServer::ServeConnection(int fd) {
  std::string payload;
  for (;;) {
    const ReadStatus status = ReadFrame(fd, payload);
    if (status == ReadStatus::kClosed || status == ReadStatus::kDisconnect) {
      break;  // mid-stream disconnects are the client's prerogative
    }
    if (status == ReadStatus::kOversized) {
      // The declared length was refused before reading the body, so the
      // stream position is unknowable: answer and close.
      WriteFrame(fd, core_.RejectBadFrame(
                         "declared frame length exceeds the 8 MiB cap"));
      break;
    }
    Request request;
    try {
      request = ParseRequest(payload);
    } catch (const Error&) {
      // Malformed payload: HandleFrame re-parses and produces the
      // structured 400 (double parse only on the error path).
      if (!WriteFrame(fd, core_.HandleFrame(payload))) {
        break;
      }
      continue;
    }
    std::string response;
    if (request.op != Op::kCompileRun) {
      // health/stats/shutdown bypass the bounded queue: they must answer
      // even when every worker is busy and the queue is full.
      response = core_.Handle(request);
    } else {
      std::future<std::string> pending;
      std::size_t depth = 0;
      bool draining = StopRequested();
      if (!draining) {
        std::lock_guard<std::mutex> lock(queue_mutex_);
        // Checked under the lock: a drain that began after the check above
        // may already have let the workers exit, and a job queued now
        // would never be answered.
        draining = workers_stop_;
        depth = queue_.size();
        if (!draining && depth < core_.config().queue_depth) {
          auto job = std::make_unique<Job>();
          job->request = request;
          job->admitted = std::chrono::steady_clock::now();
          pending = job->response.get_future();
          queue_.push_back(std::move(job));
        }
      }
      if (draining) {
        response = core_.RejectDraining(request);
      } else if (pending.valid()) {
        queue_cv_.notify_one();
        response = pending.get();
      } else {
        response = core_.RejectOverloaded(request, depth,
                                          core_.config().queue_depth);
      }
    }
    if (!WriteFrame(fd, response)) {
      break;
    }
  }
}

int SocketServer::ServeUntilShutdown() {
  while (!StopRequested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  RequestStop();  // make the drain sticky whatever triggered it

  // 1. No new connections.
  listener_.StopAccepting();

  // 2. Queued and in-flight jobs finish; their responses are delivered by
  //    the connection threads still blocked on the futures.
  {
    std::unique_lock<std::mutex> lock(queue_mutex_);
    queue_cv_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
    workers_stop_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
  workers_.clear();

  // 3. Unblock connection threads parked in ReadFrame, join them, and
  //    release the socket.
  listener_.Close();
  return 0;
}

}  // namespace fgpar::service
