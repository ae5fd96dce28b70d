// Lock-free single-producer/single-consumer ring buffer — the native
// backend's stand-in for the paper's dedicated hardware queue
// (sim/hw_queue.hpp).  Semantics match the hardware contract:
//
//  * fixed capacity (20 slots by default, the paper's queue size);
//  * Push blocks while all slots are occupied, Pop blocks until a value is
//    available (the core "stalls and retries");
//  * strict FIFO order;
//  * raw 64-bit payloads — the int/fp distinction lives in the ring
//    *identity*, one ring per (sender, receiver, register class) triple.
//
// Memory ordering: head_ and tail_ are monotonic position counters, each
// written by exactly one thread.  The producer publishes a slot with a
// release store to tail_ after writing the slot; the consumer's acquire
// load of tail_ therefore observes the slot contents (and, transitively,
// everything the producer did before the Push — this is the happens-before
// edge the executor relies on for queue-carried values).  Symmetrically the
// consumer frees a slot with a release store to head_, and the producer's
// acquire load of head_ guarantees the consumer is done reading before the
// slot is overwritten.  Counters sit on separate cache lines so the two
// sides don't false-share.
//
// Each side also keeps a private cache of its last read of the other
// side's counter (the producer of head_, the consumer of tail_), stored on
// its own cache line.  A cached counter can only lag the shared one, so it
// under-reports free slots (producer) or ready values (consumer) and is
// always safe to act on; a side re-reads the shared counter, with the same
// acquire load as above, only when its cache says the ring is full or
// empty.  A producer running ahead of its consumer thus reads head_ about
// once per ring's worth of pushes, and a consumer trailing its producer
// reads tail_ once per batch of ready values, instead of once per op.
//
// Blocking waits spin briefly, then yield: the harness must stay live on a
// single-CPU host, where a pure spin would starve the peer thread.
//
// Two independent escape hatches keep a blocking wait from becoming a
// permanent hang:
//
//  * SetAbort installs a cooperative flag the executor flips when any peer
//    worker throws — the wait aborts on the next poll;
//  * SetWaitTimeout arms a deadline — a wait that exceeds it throws
//    RingStallError, which carries the stalled operation and the time
//    waited, so the executor can surface "which side wedged" structurally
//    instead of hanging the whole process behind one dead peer.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "support/error.hpp"

namespace fgpar::native {

/// Polls a blocking wait makes before it backs off (the ring yields, a
/// parked pool worker sleeps on its futex).
inline constexpr unsigned kSpinBudget = 64;

/// One busy-wait step: a pause hint where the ISA has one.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// A blocking Push/Pop exceeded the armed wait deadline: the peer side is
/// wedged or dead without having tripped the abort flag.  Structured so the
/// executor (and tests) can distinguish a watchdog abort from a worker
/// failure.
class RingStallError : public Error {
 public:
  RingStallError(const char* op, std::uint64_t waited_ms)
      : Error(std::string("SPSC ") + op + " stalled for " +
              std::to_string(waited_ms) +
              " ms: peer worker is wedged or dead"),
        op_(op),
        waited_ms_(waited_ms) {}

  /// "push" (ring stayed full) or "pop" (ring stayed empty).
  const char* op() const { return op_; }
  /// Milliseconds the operation waited before giving up.
  std::uint64_t waited_ms() const { return waited_ms_; }

 private:
  const char* op_;
  std::uint64_t waited_ms_;
};

class SpscRing {
 public:
  static constexpr std::size_t kDefaultCapacity = 20;

  explicit SpscRing(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity), slots_(capacity) {
    FGPAR_CHECK_MSG(capacity > 0, "SPSC ring needs at least one slot");
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Installs a cooperative abort flag consulted while a blocking Push/Pop
  /// waits; once it reads true the wait throws instead of spinning forever
  /// (a peer worker died and will never drain/fill the ring).
  void SetAbort(const std::atomic<bool>* abort) { abort_ = abort; }

  /// Arms a per-operation wait deadline: a blocking Push/Pop that waits
  /// longer than `timeout_ms` throws RingStallError.  0 (the default)
  /// waits forever.  The clock starts only once an operation actually
  /// blocks past its spin budget, so the deadline never taxes the fast
  /// path.
  void SetWaitTimeout(std::uint64_t timeout_ms) { timeout_ms_ = timeout_ms; }

  /// Blocking enqueue: waits while the ring is full.
  void Push(std::uint64_t value) {
    const std::uint64_t t = tail_.load(std::memory_order_relaxed);
    if (t - head_cache_ >= capacity_) {
      WaitState wait;
      while (t - (head_cache_ = head_.load(std::memory_order_acquire)) >=
             capacity_) {
        Wait(wait, "push");
      }
    }
    slots_[t % capacity_] = value;
    tail_.store(t + 1, std::memory_order_release);
  }

  /// Blocking dequeue: waits until a value is available.
  std::uint64_t Pop() {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    if (tail_cache_ == h) {
      WaitState wait;
      while ((tail_cache_ = tail_.load(std::memory_order_acquire)) == h) {
        Wait(wait, "pop");
      }
    }
    const std::uint64_t value = slots_[h % capacity_];
    head_.store(h + 1, std::memory_order_release);
    return value;
  }

  /// Non-blocking enqueue; false if the ring is full.
  bool TryPush(std::uint64_t value) {
    const std::uint64_t t = tail_.load(std::memory_order_relaxed);
    if (t - head_cache_ >= capacity_ &&
        t - (head_cache_ = head_.load(std::memory_order_acquire)) >=
            capacity_) {
      return false;
    }
    slots_[t % capacity_] = value;
    tail_.store(t + 1, std::memory_order_release);
    return true;
  }

  /// Non-blocking dequeue; false if the ring is empty.
  bool TryPop(std::uint64_t& value) {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    if (tail_cache_ == h &&
        (tail_cache_ = tail_.load(std::memory_order_acquire)) == h) {
      return false;
    }
    value = slots_[h % capacity_];
    head_.store(h + 1, std::memory_order_release);
    return true;
  }

  std::size_t capacity() const { return capacity_; }

  /// Approximate occupancy (exact only when both sides are quiescent).
  std::size_t size() const {
    const std::uint64_t h = head_.load(std::memory_order_acquire);
    const std::uint64_t t = tail_.load(std::memory_order_acquire);
    return static_cast<std::size_t>(t - h);
  }

  /// Values fully transferred (dequeued) over the ring's lifetime.
  std::uint64_t total_transfers() const {
    return head_.load(std::memory_order_acquire);
  }

 private:
  /// Per-operation wait bookkeeping: the spin count and the lazily-armed
  /// deadline clock (started when the op first yields, not when it starts).
  struct WaitState {
    unsigned spins = 0;
    std::chrono::steady_clock::time_point blocked_since{};
  };

  void Wait(WaitState& wait, const char* what) const {
    if (abort_ != nullptr && abort_->load(std::memory_order_relaxed)) {
      throw Error(std::string("SPSC ") + what +
                  " aborted: peer worker failed");
    }
    if (++wait.spins < kSpinBudget) {
      CpuRelax();
      return;
    }
    if (wait.spins == kSpinBudget) {
      wait.blocked_since = std::chrono::steady_clock::now();
    } else if (timeout_ms_ > 0) {
      const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - wait.blocked_since);
      if (static_cast<std::uint64_t>(waited.count()) >= timeout_ms_) {
        throw RingStallError(what,
                             static_cast<std::uint64_t>(waited.count()));
      }
    }
    // Past the spin budget the peer is likely descheduled (or this is a
    // one-CPU host); hand the processor over instead of burning it.
    std::this_thread::yield();
  }

  const std::size_t capacity_;
  std::vector<std::uint64_t> slots_;
  const std::atomic<bool>* abort_ = nullptr;
  std::uint64_t timeout_ms_ = 0;  // 0 = wait forever

  /// Consumer position (values popped); written only by the consumer.
  alignas(64) std::atomic<std::uint64_t> head_{0};
  /// The consumer's last read of tail_; touched only by the consumer.
  std::uint64_t tail_cache_ = 0;
  /// Producer position (values pushed); written only by the producer.
  alignas(64) std::atomic<std::uint64_t> tail_{0};
  /// The producer's last read of head_; touched only by the producer.
  std::uint64_t head_cache_ = 0;
};

}  // namespace fgpar::native
