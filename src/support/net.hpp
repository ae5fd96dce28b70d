// The one socket layer under every fgpar-rpc-v1 endpoint: fgpard
// (service::SocketServer), fgpar-coord (dist::CoordinatorServer) and their
// clients (service::ConnectOnce / ConnectWithBackoff).
//
// Address grammar, shared by both sides:
//
//   @name          — Linux abstract-namespace stream socket; the name is at
//                    most kMaxUnixName bytes;
//   tcp:host:port  — TCP; host is an IPv4 dotted quad, "localhost" or
//                    empty (both meaning 127.0.0.1); port is decimal with
//                    nothing trailing, 0-65535 to listen (0 picks a free
//                    port, see Listener::bound_port) and 1-65535 to connect;
//   anything else  — filesystem AF_UNIX socket path, at most kMaxUnixName
//                    bytes; the listener unlinks a stale one before binding
//                    and its own on Close.
//
// A malformed address is EINVAL and an over-long name ENAMETOOLONG on
// both sides: Connect sets errno, Listener::Start throws an Error whose
// message carries the same strerror text.
//
// Connection lifecycle (Listener): Start binds, listens and spawns an
// accept thread that poll()s with kPollMs timeouts, so a stop is noticed
// promptly.  Each accepted connection runs the handler on its own thread;
// when the handler returns, the listener drops the fd from its live set,
// closes it, and the accept loop joins the finished thread on its next
// turn — a long-running server holds threads only for live connections.
// Teardown is two steps so a server can put its own work in between:
// StopAccepting joins the accept thread; Close shuts down every live
// connection (unblocking handlers parked in a read), joins their threads,
// closes the listening socket and unlinks a filesystem path.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <list>
#include <mutex>
#include <string>
#include <thread>

namespace fgpar::net {

/// Longest abstract name or filesystem path (sun_path minus the NUL).
inline constexpr std::size_t kMaxUnixName = 107;
/// Accept-loop poll timeout: the worst-case latency of a stop request.
inline constexpr int kPollMs = 100;
inline constexpr int kListenBacklog = 64;

/// One connect attempt to `address`; returns the connected fd, or -1 with
/// errno set (EINVAL / ENAMETOOLONG for a bad address, else from the
/// failing call).
int Connect(const std::string& address);

class Listener {
 public:
  /// Runs on a connection's own thread; the listener closes `fd` after
  /// the handler returns.
  using Handler = std::function<void(int fd)>;

  explicit Listener(std::string address) : address_(std::move(address)) {}
  ~Listener() { Close(); }

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Binds, listens and spawns the accept thread.  Throws fgpar::Error on
  /// a bad address or a failing socket/bind/listen.
  void Start(Handler handler);

  /// Stops accepting and joins the accept thread; live connections keep
  /// running.  Idempotent.
  void StopAccepting();

  /// StopAccepting, then shut down and join every live connection, close
  /// the listening socket and unlink a filesystem path.  Idempotent.
  void Close();

  /// The actual TCP port after Start() with "tcp:host:0" (0 for unix).
  int bound_port() const { return bound_port_; }

 private:
  struct Connection {
    int fd = -1;
    bool done = false;  // handler returned; fd no longer ours
    std::thread thread;
  };

  void AcceptLoop();
  void JoinFinished();

  const std::string address_;
  std::string unlink_path_;
  int listen_fd_ = -1;
  int bound_port_ = 0;
  Handler handler_;
  std::atomic<bool> stop_{false};

  std::mutex mutex_;  // guards connections_
  std::list<Connection> connections_;

  std::thread accept_thread_;
};

}  // namespace fgpar::net
