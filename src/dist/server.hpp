// The coordinator's plumbing: lease ticker, real time, and frames moved
// over a support/net listener (which owns the accept loop and the
// per-connection threads).  All policy lives in Coordinator
// (coordinator.hpp); this class only moves frames and enforces the two
// liveness rules the pure core cannot see:
//
//  * connection EOF revokes every lease granted over that connection
//    immediately — a worker that died (or was SIGKILLed) should not tie
//    up its points for a full heartbeat timeout;
//  * a background ticker sweeps expired leases every lease_ms/4, so a
//    worker that is alive-but-wedged (holding its socket open, sending
//    nothing) is revoked by the heartbeat deadline.
//
// Addresses follow the support/net grammar: "@name" (abstract AF_UNIX),
// "tcp:host:port" (the multi-host transport; port 0 picks a free port,
// see bound_port()), anything else a filesystem AF_UNIX path.
//
// Crash drill: FGPAR_COORD_EXIT_AFTER=<n> makes the server raise SIGKILL
// immediately after the n-th point committed this run — with the
// coordinator journal durably holding that point, exactly like an
// external kill -9.  The restart path (merge journals, AdoptPoints,
// serve again) is what the chaos test exercises.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "dist/coordinator.hpp"
#include "support/net.hpp"

namespace fgpar::dist {

class CoordinatorServer {
 public:
  /// Does not take ownership of `coordinator`; the caller keeps it alive
  /// across Start/Stop (and reads points()/failures() after the sweep).
  CoordinatorServer(Coordinator& coordinator, std::string address);
  ~CoordinatorServer();

  CoordinatorServer(const CoordinatorServer&) = delete;
  CoordinatorServer& operator=(const CoordinatorServer&) = delete;

  /// Binds, listens, and spawns the accept loop and the lease ticker.
  /// Throws fgpar::Error on bind/listen failure.
  void Start();

  /// Blocks until every grid point is committed or quarantined (or Stop
  /// was called from elsewhere).  Workers polling after this point get
  /// Grant::kDone and exit on their own.
  void WaitUntilDone();

  /// Stops accepting, closes live connections, joins every thread.
  /// Idempotent.
  void Stop();

  /// Non-blocking done check (locked) for supervising loops that also
  /// need to reap and re-spawn worker processes between polls.
  bool DoneNow() {
    std::lock_guard<std::mutex> lock(mutex_);
    return coordinator_.Done();
  }

  /// The actual TCP port after Start() with "tcp:host:0" (0 otherwise).
  int bound_port() const { return listener_.bound_port(); }

  /// Milliseconds on the server's monotonic clock (0 at construction).
  std::uint64_t NowMs() const;

 private:
  void TickerLoop();
  void ServeConnection(int fd);

  Coordinator& coordinator_;
  std::atomic<bool> stop_{false};
  std::chrono::steady_clock::time_point epoch_;

  std::mutex mutex_;  // guards coordinator_, commits_this_run_, done_cv_
  std::condition_variable done_cv_;
  std::thread ticker_thread_;
  std::size_t commits_this_run_ = 0;
  std::size_t exit_after_ = 0;  // FGPAR_COORD_EXIT_AFTER drill

  net::Listener listener_;  // last: its threads use the members above
};

}  // namespace fgpar::dist
