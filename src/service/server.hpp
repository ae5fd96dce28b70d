// The fgpard socket server: admission control, the worker pool and the
// drain order.
//
// Transport is support/net: the listen address follows its grammar —
// "@name" (Linux abstract namespace), "tcp:host:port" (port 0 picks a
// free one, see bound_port()), or a filesystem socket path unlinked on
// clean shutdown — and net::Listener owns the accept loop and the
// per-connection threads.  This class keeps only the service's policy.
//
// Threading model, smallest thing that meets the guarantees:
//
//   net::Listener   — accept thread plus one thread per connection
//                     (clients are few); finished ones are joined as the
//                     server runs, not only at shutdown;
//   conn threads    — read frames sequentially; health/stats/shutdown are
//                     answered inline (they must work under overload),
//                     compile_run goes through TryEnqueue;
//   worker pool     — sized like the sweep engine's thread fan-out
//                     (FGPAR_SWEEP_THREADS / hardware concurrency when
//                     ServiceConfig::workers <= 0); workers pop jobs and
//                     run ServiceCore::Handle with the admission
//                     timestamp, so queue wait counts against the
//                     request's deadline.
//
// Admission control: the job queue is bounded by
// ServiceConfig::queue_depth.  A compile_run that would overflow it gets
// ServiceCore::RejectOverloaded — a structured 503 with the observed
// depth — immediately, on the connection thread.  The daemon never
// queues unboundedly and never silently drops a well-framed request.
//
// Lifecycle: SIGTERM (or a shutdown request) begins a drain — new
// connections stop being accepted, new compile_runs get a structured 503
// "draining", queued and in-flight jobs finish and their responses are
// delivered, then ServeUntilShutdown returns 0.  SIGKILL needs no
// cooperation: every cached response was persisted before it was
// acknowledged, so a restarted daemon serves byte-identical responses
// from the replayed cache.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/core.hpp"
#include "service/protocol.hpp"
#include "support/net.hpp"

namespace fgpar::service {

class SocketServer {
 public:
  /// `core` must outlive the server.
  SocketServer(ServiceCore& core, std::string socket_path);
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Binds and listens; throws fgpar::Error on failure.  After Start the
  /// socket accepts connections even before ServeUntilShutdown runs.
  void Start();

  /// Installs the process-wide SIGTERM/SIGINT drain handler and ignores
  /// SIGPIPE.  Call once from the daemon main; tests that stop the server
  /// programmatically (RequestStop) can skip it.
  static void InstallSignalHandlers();

  /// Serves until a drain is requested (signal, shutdown op, or
  /// RequestStop), then drains — in-flight and queued jobs complete and
  /// their responses are delivered — and returns 0.
  int ServeUntilShutdown();

  /// Programmatic SIGTERM equivalent (thread-safe).
  void RequestStop();

  std::size_t QueueDepth() const;

  /// The actual TCP port after Start() with "tcp:host:0" (0 otherwise).
  int bound_port() const { return listener_.bound_port(); }

 private:
  struct Job {
    Request request;
    std::chrono::steady_clock::time_point admitted;
    std::promise<std::string> response;
  };

  void WorkerLoop();
  void ServeConnection(int fd);
  bool StopRequested() const;

  ServiceCore& core_;
  std::atomic<bool> stop_{false};  // drain requested

  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<std::unique_ptr<Job>> queue_;
  std::size_t in_flight_ = 0;  // jobs popped but not yet answered
  bool workers_stop_ = false;

  std::vector<std::thread> workers_;  // non-empty from Start to drained

  net::Listener listener_;  // last: its threads use the members above
};

}  // namespace fgpar::service
