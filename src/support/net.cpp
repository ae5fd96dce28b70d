#include "support/net.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <string_view>

#include "support/error.hpp"

namespace fgpar::net {

namespace {

static_assert(sizeof(sockaddr_un::sun_path) == kMaxUnixName + 1);

struct Endpoint {
  sockaddr_storage storage{};
  socklen_t length = 0;
  std::string path;  // filesystem socket path; empty for abstract and tcp

  sockaddr* addr() { return reinterpret_cast<sockaddr*>(&storage); }
  int family() const { return storage.ss_family; }
};

/// Resolves `address` per the grammar in net.hpp.  Returns 0, or the errno
/// value that names what is wrong with it.
int Resolve(const std::string& address, bool listening, Endpoint& out) {
  if (address.rfind("tcp:", 0) == 0) {
    const std::string_view spec = std::string_view(address).substr(4);
    const std::size_t colon = spec.rfind(':');
    if (colon == std::string_view::npos) {
      return EINVAL;
    }
    std::string host(spec.substr(0, colon));
    if (host.empty() || host == "localhost") {
      host = "127.0.0.1";
    }
    const std::string_view digits = spec.substr(colon + 1);
    const char* const end = digits.data() + digits.size();
    int port = -1;
    const auto [ptr, ec] = std::from_chars(digits.data(), end, port);
    if (ec != std::errc() || ptr != end || port < (listening ? 0 : 1) ||
        port > 65535) {
      return EINVAL;
    }
    auto& in = *reinterpret_cast<sockaddr_in*>(&out.storage);
    in.sin_family = AF_INET;
    in.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &in.sin_addr) != 1) {
      return EINVAL;
    }
    out.length = sizeof(sockaddr_in);
    return 0;
  }
  if (address.empty()) {
    return EINVAL;
  }
  const bool abstract = address[0] == '@';
  if (address.size() - (abstract ? 1 : 0) > kMaxUnixName) {
    return ENAMETOOLONG;
  }
  auto& un = *reinterpret_cast<sockaddr_un*>(&out.storage);
  un.sun_family = AF_UNIX;
  std::memcpy(un.sun_path, address.data(), address.size());
  if (abstract) {
    un.sun_path[0] = '\0';  // the abstract namespace: NUL instead of '@'
  } else {
    out.path = address;
  }
  // Abstract names are length-delimited; paths carry their NUL.
  out.length = static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) +
                                      address.size() + (abstract ? 0 : 1));
  return 0;
}

}  // namespace

int Connect(const std::string& address) {
  Endpoint endpoint;
  if (const int error = Resolve(address, /*listening=*/false, endpoint)) {
    errno = error;
    return -1;
  }
  const int fd = ::socket(endpoint.family(), SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return -1;
  }
  if (::connect(fd, endpoint.addr(), endpoint.length) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    return -1;
  }
  return fd;
}

void Listener::Start(Handler handler) {
  Endpoint endpoint;
  if (const int error = Resolve(address_, /*listening=*/true, endpoint)) {
    throw Error("listen address '" + address_ + "': " + std::strerror(error));
  }
  const int fd = ::socket(endpoint.family(), SOCK_STREAM | SOCK_CLOEXEC, 0);
  FGPAR_CHECK_MSG(fd >= 0, std::string("socket(): ") + std::strerror(errno));
  const auto fail = [&](const char* call) {
    const std::string message =
        std::string(call) + "(" + address_ + "): " + std::strerror(errno);
    ::close(fd);
    throw Error(message);
  };
  if (endpoint.family() == AF_INET) {
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  }
  if (!endpoint.path.empty()) {
    ::unlink(endpoint.path.c_str());  // a stale socket from a crashed run
  }
  if (::bind(fd, endpoint.addr(), endpoint.length) != 0) {
    fail("bind");
  }
  if (::listen(fd, kListenBacklog) != 0) {
    fail("listen");
  }
  if (endpoint.family() == AF_INET) {
    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) ==
        0) {
      bound_port_ = static_cast<int>(ntohs(bound.sin_port));
    }
  }
  listen_fd_ = fd;
  unlink_path_ = endpoint.path;
  handler_ = std::move(handler);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
}

void Listener::StopAccepting() {
  stop_.store(true, std::memory_order_relaxed);
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
}

void Listener::Close() {
  StopAccepting();
  std::list<Connection> live;
  {
    // Unblock handlers parked in a read.  A finished connection's fd may
    // already be another file's number, so only live ones are shut down.
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Connection& connection : connections_) {
      if (!connection.done) {
        ::shutdown(connection.fd, SHUT_RDWR);
      }
    }
    live.splice(live.end(), connections_);
  }
  for (Connection& connection : live) {
    connection.thread.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (!unlink_path_.empty()) {
    ::unlink(unlink_path_.c_str());
    unlink_path_.clear();
  }
}

void Listener::AcceptLoop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    JoinFinished();
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    if (::poll(&pfd, 1, kPollMs) <= 0) {
      continue;  // timeout or EINTR: re-check the stop flag
    }
    // SOCK_CLOEXEC is load-bearing: the coordinator forks worker
    // processes while connections are live.  A leaked accepted fd in a
    // sibling keeps a dead coordinator's side of another worker's
    // connection open, so that worker's recv() never sees EOF and it
    // hangs forever instead of exiting when the coordinator is killed.
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      continue;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = connections_.emplace(connections_.end());
    it->fd = fd;
    it->thread = std::thread([this, it, fd] {
      handler_(fd);
      {
        std::lock_guard<std::mutex> done_lock(mutex_);
        it->done = true;  // before close: Close must not see a reused fd
      }
      ::close(fd);
    });
  }
}

void Listener::JoinFinished() {
  std::list<Connection> finished;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = connections_.begin(); it != connections_.end();) {
      const auto next = std::next(it);
      if (it->done) {
        finished.splice(finished.end(), connections_, it);
      }
      it = next;
    }
  }
  for (Connection& connection : finished) {
    connection.thread.join();
  }
}

}  // namespace fgpar::net
