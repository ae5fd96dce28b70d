// Stress and property tests for the native backend's SPSC ring buffer —
// the lock-free stand-in for the paper's capacity-20 hardware queue.
//
// The two-thread hammer defaults to 10M ops; FGPAR_RING_HAMMER_OPS
// overrides it (the TSan CI job runs a reduced count, since every atomic
// op is instrumented there).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>

#include "native/ring.hpp"
#include "support/error.hpp"

namespace fgpar::native {
namespace {

TEST(SpscRing, FifoOrderSingleThreaded) {
  SpscRing ring(4);
  for (std::uint64_t round = 0; round < 8; ++round) {
    EXPECT_TRUE(ring.TryPush(round * 2));
    EXPECT_TRUE(ring.TryPush(round * 2 + 1));
    std::uint64_t value = 0;
    EXPECT_TRUE(ring.TryPop(value));
    EXPECT_EQ(value, round * 2);
    EXPECT_TRUE(ring.TryPop(value));
    EXPECT_EQ(value, round * 2 + 1);
  }
  std::uint64_t value = 0;
  EXPECT_FALSE(ring.TryPop(value));
  EXPECT_EQ(ring.total_transfers(), 16u);
}

TEST(SpscRing, CapacityTwentyBlocksTheProducer) {
  // The paper's queue holds exactly 20 entries; the 21st enq must wait for
  // a deq, mirroring sim/hw_queue's blocking semantics.
  SpscRing ring;  // kDefaultCapacity = 20
  for (std::uint64_t i = 0; i < 20; ++i) {
    EXPECT_TRUE(ring.TryPush(i));
  }
  EXPECT_FALSE(ring.TryPush(20));
  EXPECT_EQ(ring.size(), 20u);

  // A blocking Push parks until the consumer makes room.
  std::thread producer([&ring] { ring.Push(20); });
  std::uint64_t value = 0;
  EXPECT_TRUE(ring.TryPop(value));
  EXPECT_EQ(value, 0u);
  producer.join();
  // Drain: 1..20 in order.
  for (std::uint64_t expected = 1; expected <= 20; ++expected) {
    EXPECT_EQ(ring.Pop(), expected);
  }
  EXPECT_FALSE(ring.TryPop(value));
}

TEST(SpscRing, WrapAroundKeepsFifoOrder) {
  // Capacity 3 with a drift between push and pop counts forces the
  // head/tail counters through many wrap-arounds (and, being monotonic,
  // through index arithmetic that must stay correct modulo capacity).
  SpscRing ring(3);
  std::uint64_t pushed = 0, popped = 0;
  for (int round = 0; round < 1000; ++round) {
    while (ring.size() < 3) {
      ASSERT_TRUE(ring.TryPush(pushed));
      ++pushed;
    }
    const int pops = 1 + round % 3;
    for (int p = 0; p < pops && popped < pushed; ++p) {
      ASSERT_EQ(ring.Pop(), popped);
      ++popped;
    }
  }
  while (popped < pushed) {
    ASSERT_EQ(ring.Pop(), popped);
    ++popped;
  }
  EXPECT_EQ(ring.total_transfers(), popped);
}

TEST(SpscRing, TwoThreadHammerPreservesEveryValueInOrder) {
  // One producer, one consumer, default 10M blocking ops through a
  // capacity-20 ring.  The consumer asserts strict FIFO (values are the
  // sequence 0..N-1) and both sides checksum, so a lost, duplicated, or
  // reordered slot cannot cancel out.
  std::uint64_t ops = 10'000'000;
  if (const char* env = std::getenv("FGPAR_RING_HAMMER_OPS")) {
    ops = static_cast<std::uint64_t>(std::atoll(env));
    ASSERT_GT(ops, 0u);
  }
  SpscRing ring;
  std::uint64_t produced_sum = 0, consumed_sum = 0;
  std::uint64_t order_violations = 0;
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < ops; ++i) {
      // A value pattern that exercises all 64 bits, not just low counters.
      const std::uint64_t value = i * 0x9e3779b97f4a7c15ull + i;
      produced_sum += value;
      ring.Push(value);
    }
  });
  std::thread consumer([&] {
    for (std::uint64_t i = 0; i < ops; ++i) {
      const std::uint64_t value = ring.Pop();
      if (value != i * 0x9e3779b97f4a7c15ull + i) {
        ++order_violations;
      }
      consumed_sum += value;
    }
  });
  producer.join();
  consumer.join();
  EXPECT_EQ(order_violations, 0u);
  EXPECT_EQ(consumed_sum, produced_sum);
  EXPECT_EQ(ring.total_transfers(), ops);
  std::uint64_t leftover = 0;
  EXPECT_FALSE(ring.TryPop(leftover));
}

TEST(SpscRing, MixedTryAndBlockingOpsKeepCachedIndicesExact) {
  // Each side caches its last read of the other side's counter and
  // re-reads it only when the cache says full (producer) or empty
  // (consumer).  Alternating the Try and blocking forms, single-threaded
  // and then across two threads, at capacities where the caches go stale
  // on nearly every op, must keep strict FIFO and an exact transfer count.
  for (const std::size_t capacity : {1u, 2u, 20u}) {
    SCOPED_TRACE("capacity " + std::to_string(capacity));
    // Single-threaded: fill with TryPush/Push, check full, drain with
    // TryPop/Pop, check empty — 500 wraparounds of the counters.
    SpscRing ring(capacity);
    std::uint64_t next_push = 0, next_pop = 0, value = 0;
    for (int round = 0; round < 500; ++round) {
      for (std::size_t i = 0; i < capacity; ++i) {
        if (i % 2 == 0) {
          ASSERT_TRUE(ring.TryPush(next_push++));
        } else {
          ring.Push(next_push++);
        }
      }
      ASSERT_FALSE(ring.TryPush(next_push));
      for (std::size_t i = 0; i < capacity; ++i) {
        if (i % 2 == 0) {
          ASSERT_EQ(ring.Pop(), next_pop++);
        } else {
          ASSERT_TRUE(ring.TryPop(value));
          ASSERT_EQ(value, next_pop++);
        }
      }
      ASSERT_FALSE(ring.TryPop(value));
      ASSERT_EQ(ring.total_transfers(), next_pop);
    }

    // Two threads: every other op of each side is a Try op that spins on
    // failure, so the caches are refreshed by both op forms.
    constexpr std::uint64_t kOps = 20'000;
    SpscRing shared(capacity);
    std::uint64_t order_violations = 0;
    std::thread producer([&shared] {
      for (std::uint64_t i = 0; i < kOps; ++i) {
        if (i % 2 == 0) {
          shared.Push(i);
        } else {
          while (!shared.TryPush(i)) {
            std::this_thread::yield();
          }
        }
      }
    });
    for (std::uint64_t i = 0; i < kOps; ++i) {
      std::uint64_t got = 0;
      if (i % 2 == 0) {
        while (!shared.TryPop(got)) {
          std::this_thread::yield();
        }
      } else {
        got = shared.Pop();
      }
      order_violations += got != i ? 1 : 0;
    }
    producer.join();
    EXPECT_EQ(order_violations, 0u);
    EXPECT_EQ(shared.total_transfers(), kOps);
    EXPECT_EQ(shared.size(), 0u);
    EXPECT_FALSE(shared.TryPop(value));
  }
}

TEST(SpscRing, WaitDeadlinePopThrowsStructuredStallError) {
  // A consumer whose producer is wedged (alive, holding its thread, never
  // pushing) cannot rely on the abort flag — nobody throws, so nobody
  // flips it.  The armed deadline turns the hang into a structured error
  // naming the stalled operation and the time waited.
  SpscRing ring(2);
  ring.SetWaitTimeout(50);
  const auto start = std::chrono::steady_clock::now();
  try {
    (void)ring.Pop();
    FAIL() << "Pop on an empty ring must hit the wait deadline";
  } catch (const RingStallError& e) {
    EXPECT_STREQ(e.op(), "pop");
    EXPECT_GE(e.waited_ms(), 50u);
  }
  const auto waited = std::chrono::steady_clock::now() - start;
  // The deadline is 50ms; anything near seconds means the watchdog is not
  // actually bounding the wait.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(waited)
                .count(),
            5000);
}

TEST(SpscRing, WaitDeadlinePushThrowsAndRingStaysIntact) {
  SpscRing ring(2);
  ring.SetWaitTimeout(50);
  EXPECT_TRUE(ring.TryPush(1));
  EXPECT_TRUE(ring.TryPush(2));
  try {
    ring.Push(3);  // full ring, no consumer: must stall out
    FAIL() << "Push on a full ring must hit the wait deadline";
  } catch (const RingStallError& e) {
    EXPECT_STREQ(e.op(), "push");
  }
  // The failed push left the ring contents untouched.
  EXPECT_EQ(ring.Pop(), 1u);
  EXPECT_EQ(ring.Pop(), 2u);
  std::uint64_t leftover = 0;
  EXPECT_FALSE(ring.TryPop(leftover));
}

TEST(SpscRing, DeadlineDoesNotFireWhileTheRingMakesProgress) {
  // A slow-but-live peer must never trip the watchdog: the deadline is per
  // blocking wait, not per ring lifetime.
  SpscRing ring(2);
  ring.SetWaitTimeout(200);
  std::thread producer([&ring] {
    for (std::uint64_t i = 0; i < 20; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      ring.Push(i);
    }
  });
  for (std::uint64_t i = 0; i < 20; ++i) {
    EXPECT_EQ(ring.Pop(), i);
  }
  producer.join();
}

TEST(SpscRing, AbortFlagUnblocksAWaitingSide) {
  // When a peer worker dies, the executor sets the shared abort flag; a
  // blocked Push/Pop must throw instead of spinning forever.
  std::atomic<bool> abort{false};
  SpscRing ring(2);
  ring.SetAbort(&abort);
  std::thread setter([&abort] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    abort.store(true, std::memory_order_relaxed);
  });
  EXPECT_THROW(ring.Pop(), Error);  // empty ring: Pop blocks, then aborts
  setter.join();
}

}  // namespace
}  // namespace fgpar::native
