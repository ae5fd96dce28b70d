// Client-side socket plumbing shared by every fgpar-rpc-v1 consumer
// (fgpar-load, the distributed sweep worker, tests).
//
// Addresses follow the support/net grammar the listeners use: "@name"
// (abstract namespace), "tcp:host:port", or a filesystem socket path,
// with the same name-length limit on both sides.
//
// A daemon restart (crash-and-recover soaks, coordinator failover) shows
// up client-side as ECONNREFUSED / ENOENT for however long the process
// takes to come back.  ConnectWithBackoff absorbs exactly that: it retries
// transient connect failures on a deterministic capped-exponential
// schedule (5, 10, 20, ... ms, capped) until the budget elapses, so probes
// measure the service, not the scheduler's restart latency.  The schedule
// is fixed — no randomized jitter — because reproducible soak timings
// matter more here than thundering-herd etiquette on a local socket.
#pragma once

#include <string>

namespace fgpar::service {

/// One connect attempt to `address` (net::Connect); returns the connected
/// fd, or -1 with errno set (EINVAL / ENAMETOOLONG for a bad address).
int ConnectOnce(const std::string& address);

/// Deterministic capped-backoff connect: retries ConnectOnce until it
/// succeeds or `budget_seconds` of wall clock has elapsed.  Sleeps
/// 5, 10, 20, 40, ... ms between attempts, capped at `cap_ms`.
/// Returns the connected fd or -1 once the budget is exhausted.
int ConnectWithBackoff(const std::string& address, double budget_seconds,
                       unsigned cap_ms = 160);

}  // namespace fgpar::service
