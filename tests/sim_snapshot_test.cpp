// Machine snapshot/restore tests.
//
// The contract under test: pausing a machine at cycle k, serializing it,
// restoring the bytes into a freshly constructed machine, and continuing
// produces *bit-identical* results to an uninterrupted run — same final
// cycle count, same per-core statistics, same memory image, same fault
// schedule — for all three run loops (fast multi-core, fast single-core,
// and the instrumented slow path with fault injection and the watchdog),
// on hand-built ping-pong machines and on compiled 4-core Sequoia
// machines paused while a core is blocked on a queue.
// Equality is asserted in the strongest possible form: the final snapshots
// of the two machines must be byte-for-byte identical.
//
// The negative half locks the failure modes: wrong version, wrong machine
// identity (different program or config), truncation, and trailing bytes
// must all throw structured errors instead of loading garbage state.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "isa/assembler.hpp"
#include "kernels/experiments.hpp"
#include "sim/machine.hpp"
#include "support/error.hpp"

namespace {

using namespace fgpar;

/// Two cores bouncing values through their queues; exercises the fast
/// path's issue-skip, fast-forward jumps, and stall accounting.
isa::Program PingPongProgram(std::int64_t rounds) {
  isa::Assembler a;
  isa::Label core0 = a.NewNamedLabel("core0");
  isa::Label core1 = a.NewNamedLabel("core1");

  a.Bind(core0);
  a.LiI(isa::Gpr{1}, rounds);
  a.LiI(isa::Gpr{2}, 1);
  isa::Label top0 = a.NewLabel();
  a.Bind(top0);
  a.EnqI(1, isa::Gpr{1});
  a.DeqI(1, isa::Gpr{3});
  a.SubI(isa::Gpr{1}, isa::Gpr{1}, isa::Gpr{2});
  a.Bnz(isa::Gpr{1}, top0);
  a.Halt();

  a.Bind(core1);
  a.LiI(isa::Gpr{1}, rounds);
  a.LiI(isa::Gpr{2}, 1);
  isa::Label top1 = a.NewLabel();
  a.Bind(top1);
  a.DeqI(0, isa::Gpr{3});
  a.EnqI(0, isa::Gpr{3});
  a.SubI(isa::Gpr{1}, isa::Gpr{1}, isa::Gpr{2});
  a.Bnz(isa::Gpr{1}, top1);
  a.Halt();
  return a.Finish();
}

/// Single-core loop with loads, stores, and multi-cycle fp ops; exercises
/// the single-core fast loop's jump-to-next-issue and the cache model.
isa::Program SingleCoreProgram(std::int64_t iterations) {
  isa::Assembler a;
  isa::Label entry = a.NewNamedLabel("main");
  a.Bind(entry);
  a.LiI(isa::Gpr{1}, iterations);
  a.LiI(isa::Gpr{2}, 1);
  a.LiI(isa::Gpr{4}, 64);  // base address
  a.LiF(isa::Fpr{1}, 1.5);
  isa::Label top = a.NewLabel();
  a.Bind(top);
  a.StI(isa::Gpr{1}, isa::Gpr{4}, 0);
  a.LdI(isa::Gpr{5}, isa::Gpr{4}, 0);
  a.LdF(isa::Fpr{2}, isa::Gpr{4}, 0);
  a.MulF(isa::Fpr{2}, isa::Fpr{2}, isa::Fpr{1});
  a.StF(isa::Fpr{2}, isa::Gpr{4}, 1);
  a.AddI(isa::Gpr{4}, isa::Gpr{4}, isa::Gpr{2});
  a.SubI(isa::Gpr{1}, isa::Gpr{1}, isa::Gpr{2});
  a.Bnz(isa::Gpr{1}, top);
  a.Halt();
  return a.Finish();
}

sim::Machine MakePingPong(const sim::MachineConfig& config,
                          const isa::Program& program) {
  sim::Machine m(config, program);
  m.StartCoreAt(0, "core0");
  m.StartCoreAt(1, "core1");
  return m;
}

/// Runs `reference` to completion, then replays the same machine build via
/// `make` with a pause at `stop`, a snapshot, a restore into a third
/// machine, and a continuation — and requires the final snapshots to be
/// byte-identical.
template <typename MakeMachine>
void CheckPauseResumeIdentical(MakeMachine make, std::uint64_t stop) {
  sim::Machine uninterrupted = make();
  const sim::RunResult golden = uninterrupted.Run();
  const std::vector<std::uint8_t> golden_bytes = uninterrupted.Snapshot();

  sim::Machine paused = make();
  const sim::PauseResult pause = paused.RunUntil(stop);
  ASSERT_FALSE(pause.finished) << "stop cycle " << stop
                               << " did not pause (program too short?)";
  EXPECT_GE(paused.now(), stop);

  const std::vector<std::uint8_t> snapshot = paused.Snapshot();
  sim::Machine resumed = make();
  resumed.Restore(snapshot);
  EXPECT_EQ(resumed.now(), paused.now());

  const sim::RunResult result = resumed.Run();
  EXPECT_EQ(result.cycles, golden.cycles);
  EXPECT_EQ(result.core0_halt_cycle, golden.core0_halt_cycle);
  EXPECT_EQ(result.instructions, golden.instructions);
  EXPECT_EQ(resumed.Snapshot(), golden_bytes)
      << "final machine state diverged after pause/resume at cycle " << stop;

  // The paused machine itself must also be able to just keep running.
  const sim::RunResult direct = paused.Run();
  EXPECT_EQ(direct.cycles, golden.cycles);
  EXPECT_EQ(paused.Snapshot(), golden_bytes);
}

TEST(Snapshot, PauseResumeBitIdenticalFastPath) {
  const isa::Program program = PingPongProgram(400);
  sim::MachineConfig config;
  config.num_cores = 2;
  config.memory_words = 1 << 12;
  auto make = [&] { return MakePingPong(config, program); };

  sim::Machine probe = make();
  const std::uint64_t total = probe.Run().cycles;
  for (const std::uint64_t stop :
       {std::uint64_t{1}, total / 7, total / 2, total - 2}) {
    CheckPauseResumeIdentical(make, stop);
  }
}

/// Pauses a machine from `make` at every loop boundary from `from` on and
/// returns the first boundary at which some core is blocked on a dequeue
/// (or, with `on_enqueue`, on an enqueue); 0 if the run ends first.
template <typename MakeMachine>
std::uint64_t FirstBlockedStop(MakeMachine make, bool on_enqueue,
                               std::uint64_t from) {
  sim::Machine probe = make();
  if (probe.RunUntil(from).finished) {
    return 0;
  }
  do {
    for (int c = 0; c < probe.num_cores(); ++c) {
      int remote = -1;
      bool is_fp = false;
      const sim::Core& core = probe.core(c);
      if (on_enqueue ? core.stalled_on_enq(remote, is_fp)
                     : core.stalled_on_deq(remote, is_fp)) {
        return probe.now();
      }
    }
  } while (!probe.RunUntil(probe.now() + 1).finished);
  return 0;
}

TEST(Snapshot, PauseResumeBitIdenticalFourCoreSequoia) {
  // Compiled 4-core Sequoia machines, paused where a core is blocked on a
  // queue: the run loop rebuilds its wake state from the restored cores
  // and queues, and must resume exactly as if it had never stopped.  Both
  // kernels fill queues (producers block) at capacity 1 and at 20.
  for (const char* id : {"lammps-1", "umt2k-5"}) {
    const kernels::SequoiaKernel& spec = kernels::SequoiaKernelById(id);
    const harness::KernelRunner runner(kernels::ParseSequoia(spec),
                                       kernels::SequoiaInit(spec));
    for (const int capacity : {1, 20}) {
      kernels::ExperimentConfig experiment;
      experiment.cores = 4;
      experiment.queue_capacity = capacity;
      const harness::RunConfig config = kernels::ToRunConfig(experiment);
      auto make = [&] { return runner.BuildParallelMachine(config); };
      SCOPED_TRACE(std::string(id) + " capacity " + std::to_string(capacity));

      sim::Machine probe = make();
      ASSERT_EQ(probe.num_cores(), 4);
      const std::uint64_t total = probe.Run().cycles;
      std::vector<std::uint64_t> stops;
      for (const std::uint64_t from : {std::uint64_t{0}, total / 2}) {
        stops.push_back(FirstBlockedStop(make, /*on_enqueue=*/false, from));
        ASSERT_NE(stops.back(), 0u) << "no dequeue-blocked core after " << from;
      }
      stops.push_back(FirstBlockedStop(make, /*on_enqueue=*/true, 0));
      ASSERT_NE(stops.back(), 0u) << "no enqueue-blocked core";
      for (const std::uint64_t stop : stops) {
        CheckPauseResumeIdentical(make, stop);
      }
    }
  }
}

TEST(Snapshot, PauseResumeBitIdenticalSingleCore) {
  const isa::Program program = SingleCoreProgram(300);
  sim::MachineConfig config;
  config.num_cores = 1;
  config.memory_words = 1 << 12;
  auto make = [&] {
    sim::Machine m(config, program);
    m.StartCoreAt(0, "main");
    return m;
  };

  sim::Machine probe = make();
  const std::uint64_t total = probe.Run().cycles;
  for (const std::uint64_t stop : {std::uint64_t{3}, total / 3, total - 1}) {
    CheckPauseResumeIdentical(make, stop);
  }
}

TEST(Snapshot, PauseResumeBitIdenticalSlowPathWithFaults) {
  // Every fault kind fires and the watchdog is armed: the snapshot must
  // carry the injector's RNG position so the post-resume fault schedule
  // continues exactly where the uninterrupted run's schedule was.
  const isa::Program program = PingPongProgram(300);
  sim::MachineConfig config;
  config.num_cores = 2;
  config.memory_words = 1 << 12;
  config.stall_watchdog_cycles = 10000;
  config.faults.seed = 1234;
  config.faults.queue_jitter_prob = 0.05;
  config.faults.queue_reject_prob = 0.02;
  config.faults.payload_flip_prob = 0.01;
  config.faults.mem_fault_prob = 0.05;
  config.faults.core_freeze_prob = 0.001;
  auto make = [&] { return MakePingPong(config, program); };

  sim::Machine probe = make();
  const std::uint64_t total = probe.Run().cycles;
  for (const std::uint64_t stop : {total / 5, total / 2, total - 3}) {
    CheckPauseResumeIdentical(make, stop);
  }
}

TEST(Snapshot, RepeatedPausesMatchUninterruptedRun) {
  const isa::Program program = PingPongProgram(200);
  sim::MachineConfig config;
  config.num_cores = 2;
  config.memory_words = 1 << 12;

  sim::Machine uninterrupted = MakePingPong(config, program);
  const sim::RunResult golden = uninterrupted.Run();

  // March a second machine forward 97 cycles at a time, round-tripping
  // through snapshot bytes at every pause.
  sim::Machine stepped = MakePingPong(config, program);
  sim::PauseResult pause;
  int pauses = 0;
  while (true) {
    pause = stepped.RunUntil(stepped.now() + 97);
    if (pause.finished) {
      break;
    }
    ++pauses;
    const std::vector<std::uint8_t> bytes = stepped.Snapshot();
    sim::Machine reloaded = MakePingPong(config, program);
    reloaded.Restore(bytes);
    stepped = std::move(reloaded);
  }
  EXPECT_GT(pauses, 5) << "test expected to pause many times";
  EXPECT_EQ(pause.result.cycles, golden.cycles);
  EXPECT_EQ(pause.result.core0_halt_cycle, golden.core0_halt_cycle);
  EXPECT_EQ(pause.result.instructions, golden.instructions);
  EXPECT_EQ(stepped.Snapshot(), uninterrupted.Snapshot());
}

TEST(Snapshot, RoundTripIsByteStable) {
  const isa::Program program = PingPongProgram(100);
  sim::MachineConfig config;
  config.num_cores = 2;
  config.memory_words = 1 << 12;

  sim::Machine m = MakePingPong(config, program);
  ASSERT_FALSE(m.RunUntil(50).finished);
  const std::vector<std::uint8_t> bytes = m.Snapshot();

  sim::Machine copy = MakePingPong(config, program);
  copy.Restore(bytes);
  EXPECT_EQ(copy.Snapshot(), bytes);
}

std::string RestoreErrorOf(sim::Machine& m,
                           const std::vector<std::uint8_t>& bytes) {
  try {
    m.Restore(bytes);
  } catch (const Error& e) {
    return e.what();
  }
  return {};
}

TEST(Snapshot, RejectsVersionMismatch) {
  const isa::Program program = PingPongProgram(50);
  sim::MachineConfig config;
  config.num_cores = 2;
  config.memory_words = 1 << 12;
  sim::Machine m = MakePingPong(config, program);
  std::vector<std::uint8_t> bytes = m.Snapshot();

  // Layout: u64 magic length + 10 magic bytes, then the u32 version.
  bytes[18] = 99;
  sim::Machine target = MakePingPong(config, program);
  const std::string error = RestoreErrorOf(target, bytes);
  EXPECT_NE(error.find("unsupported snapshot version 99"), std::string::npos)
      << error;
}

TEST(Snapshot, RejectsIdentityMismatch) {
  const isa::Program program = PingPongProgram(50);
  sim::MachineConfig config;
  config.num_cores = 2;
  config.memory_words = 1 << 12;
  sim::Machine m = MakePingPong(config, program);
  const std::vector<std::uint8_t> bytes = m.Snapshot();

  sim::MachineConfig other = config;
  other.queue.capacity = 4;  // a different machine, same core count
  sim::Machine target = MakePingPong(other, program);
  const std::string error = RestoreErrorOf(target, bytes);
  EXPECT_NE(error.find("snapshot identity mismatch"), std::string::npos)
      << error;

  const isa::Program other_program = PingPongProgram(51);
  sim::Machine target2 = MakePingPong(config, other_program);
  const std::string error2 = RestoreErrorOf(target2, bytes);
  EXPECT_NE(error2.find("snapshot identity mismatch"), std::string::npos)
      << error2;
}

TEST(Snapshot, RejectsCorruptStreams) {
  const isa::Program program = PingPongProgram(50);
  sim::MachineConfig config;
  config.num_cores = 2;
  config.memory_words = 1 << 12;
  sim::Machine m = MakePingPong(config, program);
  const std::vector<std::uint8_t> bytes = m.Snapshot();

  sim::Machine target = MakePingPong(config, program);

  // Not a snapshot at all.
  EXPECT_NE(RestoreErrorOf(target, {1, 2, 3}).find("truncated byte stream"),
            std::string::npos);

  // Truncated mid-state.
  std::vector<std::uint8_t> truncated(bytes.begin(),
                                      bytes.begin() + bytes.size() / 2);
  EXPECT_NE(RestoreErrorOf(target, truncated).find("truncated byte stream"),
            std::string::npos);

  // Trailing garbage.
  std::vector<std::uint8_t> padded = bytes;
  padded.push_back(0);
  EXPECT_NE(RestoreErrorOf(target, padded).find("trailing bytes"),
            std::string::npos);
}

TEST(Snapshot, IdentityHashIsStableAndDiscriminating) {
  const isa::Program program = PingPongProgram(50);
  sim::MachineConfig config;
  config.num_cores = 2;
  config.memory_words = 1 << 12;
  sim::Machine a = MakePingPong(config, program);
  sim::Machine b = MakePingPong(config, program);
  EXPECT_EQ(a.IdentityHash(), b.IdentityHash());

  sim::MachineConfig other = config;
  other.timing.fp_mul = 7;
  sim::Machine c = MakePingPong(other, program);
  EXPECT_NE(a.IdentityHash(), c.IdentityHash());
}

}  // namespace
