// Microbenchmarks (google-benchmark) of the simulator substrate itself:
// raw simulation throughput of the core model, the hardware queues, and
// the cache hierarchy.  These measure the *host* cost of simulation, not
// simulated time — useful for sizing experiment sweeps.
//
// Coverage of the three run tiers (see docs/INTERNALS.md):
//  * BM_CoreIssueThroughputThreaded  — direct-threaded trace tier, the
//    default for hot single-core simulation;
//  * BM_CoreIssueThroughput          — fast path, predecoded dispatch
//    (pinned with force_tier so it keeps measuring the fast loop now
//    that auto resolves to the threaded tier);
//  * BM_CoreIssueThroughputSlowPath  — same program on the instrumented
//    reference loop, i.e. the decoded-cache off configuration; the
//    ratios between the three are the per-tier speedups;
//  * BM_MachineFastForward           — a machine that is mostly idle
//    (long unpipelined latencies on one core, the rest blocked on
//    queues), exercising the event fast-forward and blocked-core skip;
//  * BM_QueuePingPong                — queue-bound two-core traffic.
//  * BM_SequoiaParallelRun           — one compiled Sequoia kernel
//    (lammps-1) on its 2- and 4-core parallel machine, the multi-core run
//    loop as the Fig. 12 grid drives it; compiling and loading the
//    machine stay outside the timed region.
//  * BM_CoreIssueThroughputTraced    — the reference loop with a telemetry
//    sink installed (AggregatingSink), i.e. the cost of emitting one
//    issue event per instruction on top of the slow loop.
//
// A custom main additionally writes BENCH_sim_throughput.json with
// wall-clock simulation rates for the threaded, fast, and slow tiers plus
// the slow loop under each telemetry sink (aggregating, Chrome trace), so
// CI archives machine-readable simulator-performance numbers — including
// the threaded-over-fast ratio its perf-smoke step asserts on — alongside
// the figures.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "harness/bench_artifact.hpp"
#include "isa/assembler.hpp"
#include "kernels/experiments.hpp"
#include "sim/machine.hpp"
#include "support/telemetry/sinks.hpp"

namespace {

using namespace fgpar;

isa::Program IssueLoopProgram(std::int64_t iterations) {
  // A tight arithmetic loop; measures simulated instructions per host second.
  isa::Assembler a;
  isa::Label main = a.NewNamedLabel("main");
  a.Bind(main);
  a.LiI(isa::Gpr{1}, iterations);
  a.LiI(isa::Gpr{2}, 1);
  a.LiI(isa::Gpr{3}, 0);
  isa::Label top = a.NewLabel();
  a.Bind(top);
  a.AddI(isa::Gpr{3}, isa::Gpr{3}, isa::Gpr{2});
  a.AddI(isa::Gpr{4}, isa::Gpr{3}, isa::Gpr{2});
  a.AddI(isa::Gpr{5}, isa::Gpr{4}, isa::Gpr{2});
  a.SubI(isa::Gpr{1}, isa::Gpr{1}, isa::Gpr{2});
  a.Bnz(isa::Gpr{1}, top);
  a.Halt();
  return a.Finish();
}

sim::RunResult RunIssueLoop(const isa::Program& program, sim::RunTier tier,
                            telemetry::TelemetrySink* sink = nullptr) {
  sim::MachineConfig config;
  config.num_cores = 1;
  config.memory_words = 1 << 12;
  config.force_tier = tier;
  sim::Machine machine(config, program);
  machine.SetTelemetry(sink);
  machine.StartCoreAt(0, "main");
  return machine.Run();
}

void BM_CoreIssueThroughputThreaded(benchmark::State& state) {
  // The direct-threaded trace tier: the hot loop body runs as one
  // pre-resolved handler chain per iteration (sim/threaded.hpp).
  const isa::Program program = IssueLoopProgram(state.range(0));
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    instructions +=
        RunIssueLoop(program, sim::RunTier::kThreaded).instructions;
  }
  state.counters["sim_instr/s"] = benchmark::Counter(
      static_cast<double>(instructions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CoreIssueThroughputThreaded)->Arg(1000)->Arg(10000);

void BM_CoreIssueThroughput(benchmark::State& state) {
  const isa::Program program = IssueLoopProgram(state.range(0));
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    instructions += RunIssueLoop(program, sim::RunTier::kFast).instructions;
  }
  state.counters["sim_instr/s"] = benchmark::Counter(
      static_cast<double>(instructions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CoreIssueThroughput)->Arg(1000)->Arg(10000);

void BM_CoreIssueThroughputSlowPath(benchmark::State& state) {
  // The instrumented reference loop on the same program: decoded-cache and
  // issue-skip off.  Compare against BM_CoreIssueThroughput for the
  // fast-path speedup.
  const isa::Program program = IssueLoopProgram(state.range(0));
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    instructions += RunIssueLoop(program, sim::RunTier::kSlow).instructions;
  }
  state.counters["sim_instr/s"] = benchmark::Counter(
      static_cast<double>(instructions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CoreIssueThroughputSlowPath)->Arg(1000)->Arg(10000);

void BM_CoreIssueThroughputTraced(benchmark::State& state) {
  // The reference loop with an AggregatingSink installed: one issue event
  // per instruction on top of BM_CoreIssueThroughputSlowPath.  The delta
  // against the slow path is the telemetry emission cost; the delta
  // against the fast path is the full price of turning tracing on.
  const isa::Program program = IssueLoopProgram(state.range(0));
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    telemetry::AggregatingSink sink;
    instructions +=
        RunIssueLoop(program, sim::RunTier::kAuto, &sink).instructions;
  }
  state.counters["sim_instr/s"] = benchmark::Counter(
      static_cast<double>(instructions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CoreIssueThroughputTraced)->Arg(1000)->Arg(10000);

isa::Program FastForwardProgram(std::int64_t rounds, int consumers) {
  // Core 0 grinds through unpipelined divides (32-cycle issue occupancy),
  // then feeds one value to each consumer core; consumers spend almost the
  // whole run blocked on their empty queue.  Most simulated cycles have no
  // issue anywhere — the run loop must fast-forward cheaply.
  isa::Assembler a;
  isa::Label main = a.NewNamedLabel("main");
  a.Bind(main);
  a.LiI(isa::Gpr{1}, rounds);
  a.LiI(isa::Gpr{2}, 1);
  a.LiI(isa::Gpr{3}, 1000000);
  isa::Label top = a.NewLabel();
  a.Bind(top);
  a.DivI(isa::Gpr{4}, isa::Gpr{3}, isa::Gpr{2});
  a.SubI(isa::Gpr{1}, isa::Gpr{1}, isa::Gpr{2});
  a.Bnz(isa::Gpr{1}, top);
  for (int c = 1; c <= consumers; ++c) {
    a.EnqI(c, isa::Gpr{4});
  }
  a.Halt();
  for (int c = 1; c <= consumers; ++c) {
    isa::Label consumer = a.NewNamedLabel("consumer" + std::to_string(c));
    a.Bind(consumer);
    a.DeqI(0, isa::Gpr{1});
    a.Halt();
  }
  return a.Finish();
}

void BM_MachineFastForward(benchmark::State& state) {
  constexpr int kConsumers = 3;
  const isa::Program program = FastForwardProgram(state.range(0), kConsumers);
  sim::MachineConfig config;
  config.num_cores = 1 + kConsumers;
  config.memory_words = 1 << 12;
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    sim::Machine machine(config, program);
    machine.StartCoreAt(0, "main");
    for (int c = 1; c <= kConsumers; ++c) {
      machine.StartCoreAt(c, "consumer" + std::to_string(c));
    }
    cycles += machine.Run().cycles;
  }
  state.counters["sim_cycles/s"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MachineFastForward)->Arg(256)->Arg(1024);

void BM_QueuePingPong(benchmark::State& state) {
  // Two cores bouncing a value; measures queue-op simulation cost.
  isa::Assembler a;
  isa::Label core0 = a.NewNamedLabel("core0");
  isa::Label core1 = a.NewNamedLabel("core1");
  const std::int64_t rounds = state.range(0);

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

  const isa::Program program = a.Finish();
  std::uint64_t transfers = 0;
  for (auto _ : state) {
    sim::MachineConfig config;
    config.num_cores = 2;
    config.memory_words = 1 << 12;
    sim::Machine machine(config, program);
    machine.StartCoreAt(0, "core0");
    machine.StartCoreAt(1, "core1");
    machine.Run();
    transfers += machine.queues().TotalTransfers();
  }
  state.counters["transfers/s"] = benchmark::Counter(
      static_cast<double>(transfers), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_QueuePingPong)->Arg(256)->Arg(1024);

void BM_SequoiaParallelRun(benchmark::State& state) {
  kernels::ExperimentConfig experiment;
  experiment.cores = static_cast<int>(state.range(0));
  const kernels::SequoiaKernel& spec = kernels::SequoiaKernelById("lammps-1");
  const harness::KernelRunner runner(kernels::ParseSequoia(spec),
                                     kernels::SequoiaInit(spec));
  const harness::RunConfig config = kernels::ToRunConfig(experiment);
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    state.PauseTiming();
    sim::Machine machine = runner.BuildParallelMachine(config);
    state.ResumeTiming();
    instructions += machine.Run().instructions;
  }
  state.counters["sim_instr/s"] = benchmark::Counter(
      static_cast<double>(instructions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SequoiaParallelRun)->Arg(2)->Arg(4)->Unit(benchmark::kMicrosecond);

void BM_CacheAccess(benchmark::State& state) {
  sim::CacheConfig config;
  sim::MemorySystem memory(config, 1, 1 << 20);
  std::uint64_t addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(memory.AccessTimed(0, addr & ((1 << 20) - 1), false));
    addr += 17;
  }
}
BENCHMARK(BM_CacheAccess);

/// Wall-clock measurement of one run-loop flavour, repeated until
/// min_seconds of host time accumulate.  Returns simulated instructions
/// per host second plus the deterministic per-run counts.
struct ThroughputSample {
  std::uint64_t instructions_per_run = 0;
  std::uint64_t cycles_per_run = 0;
  double sim_instr_per_s = 0.0;
};

/// Which telemetry sink (if any) the measured machine carries.  A fresh
/// sink is built per run, so accumulating sinks (Chrome trace) pay their
/// real allocation cost instead of amortizing one giant buffer.
enum class SinkMode { kNone, kAggregating, kChromeTrace };

ThroughputSample MeasureIssueLoop(const isa::Program& program,
                                  sim::RunTier tier, SinkMode mode,
                                  double min_seconds) {
  ThroughputSample sample;
  std::uint64_t instructions = 0;
  double elapsed = 0.0;
  const auto start = std::chrono::steady_clock::now();
  do {
    sim::RunResult result;
    switch (mode) {
      case SinkMode::kNone:
        result = RunIssueLoop(program, tier);
        break;
      case SinkMode::kAggregating: {
        telemetry::AggregatingSink sink;
        result = RunIssueLoop(program, tier, &sink);
        break;
      }
      case SinkMode::kChromeTrace: {
        telemetry::ChromeTraceSink sink;
        result = RunIssueLoop(program, tier, &sink);
        break;
      }
    }
    sample.instructions_per_run = result.instructions;
    sample.cycles_per_run = result.cycles;
    instructions += result.instructions;
    elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start)
                  .count();
  } while (elapsed < min_seconds);
  sample.sim_instr_per_s = static_cast<double>(instructions) / elapsed;
  return sample;
}

void WriteThroughputArtifact() {
  const isa::Program program = IssueLoopProgram(10000);
  constexpr double kMinSeconds = 0.2;
  const ThroughputSample threaded = MeasureIssueLoop(
      program, sim::RunTier::kThreaded, SinkMode::kNone, kMinSeconds);
  const ThroughputSample fast = MeasureIssueLoop(
      program, sim::RunTier::kFast, SinkMode::kNone, kMinSeconds);
  const ThroughputSample slow = MeasureIssueLoop(
      program, sim::RunTier::kSlow, SinkMode::kNone, kMinSeconds);
  // Telemetry implies the reference loop, so the tier is redundant for
  // the traced flavours — passed kAuto to measure exactly what a user's
  // "attach a sink" configuration costs.
  const ThroughputSample aggregating = MeasureIssueLoop(
      program, sim::RunTier::kAuto, SinkMode::kAggregating, kMinSeconds);
  const ThroughputSample chrome = MeasureIssueLoop(
      program, sim::RunTier::kAuto, SinkMode::kChromeTrace, kMinSeconds);

  harness::BenchArtifact artifact;
  artifact.name = "sim_throughput";
  const auto add = [&](const char* label, const ThroughputSample& sample,
                       const char* path, const char* sink) {
    harness::BenchArtifact::Point point;
    point.label = label;
    point.params["run_loop"] = path;
    point.params["sink"] = sink;
    point.counters["instructions_per_run"] = sample.instructions_per_run;
    point.counters["cycles_per_run"] = sample.cycles_per_run;
    point.host["sim_instr_per_s"] = sample.sim_instr_per_s;
    artifact.points.push_back(std::move(point));
  };
  add("issue_loop threaded", threaded, "threaded", "none");
  add("issue_loop fast", fast, "fast", "none");
  add("issue_loop slow", slow, "slow", "none");
  add("issue_loop aggregating", aggregating, "slow", "aggregating");
  add("issue_loop chrome_trace", chrome, "slow", "chrome_trace");
  const auto ratio = [](const ThroughputSample& a, const ThroughputSample& b) {
    return b.sim_instr_per_s > 0.0 ? a.sim_instr_per_s / b.sim_instr_per_s
                                   : 0.0;
  };
  artifact.host["threaded_over_fast"] = ratio(threaded, fast);
  artifact.host["threaded_over_slow"] = ratio(threaded, slow);
  artifact.host["fast_over_slow"] = ratio(fast, slow);
  artifact.host["fast_over_aggregating"] = ratio(fast, aggregating);
  artifact.host["fast_over_chrome_trace"] = ratio(fast, chrome);
  const std::string path = artifact.WriteFile();
  std::fprintf(stderr,
               "wrote %s (threaded %.1fM sim-instr/s, fast %.1fM, slow "
               "%.1fM, aggregating %.1fM, chrome %.1fM; threaded/fast "
               "%.2fx, fast/slow %.2fx)\n",
               path.c_str(), threaded.sim_instr_per_s / 1e6,
               fast.sim_instr_per_s / 1e6, slow.sim_instr_per_s / 1e6,
               aggregating.sim_instr_per_s / 1e6,
               chrome.sim_instr_per_s / 1e6,
               artifact.host["threaded_over_fast"],
               artifact.host["fast_over_slow"]);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  WriteThroughputArtifact();
  return 0;
}
