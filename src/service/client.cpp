#include "service/client.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "support/net.hpp"

namespace fgpar::service {

int ConnectOnce(const std::string& address) { return net::Connect(address); }

int ConnectWithBackoff(const std::string& address, double budget_seconds,
                       unsigned cap_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(budget_seconds);
  unsigned backoff_ms = 5;
  for (;;) {
    const int fd = ConnectOnce(address);
    if (fd >= 0) {
      return fd;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    backoff_ms = std::min(cap_ms, backoff_ms * 2);
  }
}

}  // namespace fgpar::service
