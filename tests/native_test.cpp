// End-to-end tests for the native execution backend: every Sequoia kernel
// must run for real on host threads and leave memory bit-identical to the
// reference interpreter, with the sim results (and their artifact schema)
// untouched.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "compiler/backend.hpp"
#include "compiler/compile.hpp"
#include "frontend/parser.hpp"
#include "harness/runner.hpp"
#include "ir/interp.hpp"
#include "kernels/experiments.hpp"
#include "kernels/sequoia.hpp"
#include "native/codegen.hpp"
#include "native/executor.hpp"
#include "support/error.hpp"
#include "support/telemetry/telemetry.hpp"

namespace fgpar {
namespace {

TEST(BackendKind, NamesRoundTripAndUnknownNamesThrow) {
  EXPECT_EQ(compiler::BackendKindName(compiler::BackendKind::kSim), "sim");
  EXPECT_EQ(compiler::BackendKindName(compiler::BackendKind::kNative),
            "native");
  EXPECT_EQ(compiler::ParseBackendKind("sim"), compiler::BackendKind::kSim);
  EXPECT_EQ(compiler::ParseBackendKind("native"),
            compiler::BackendKind::kNative);
  EXPECT_THROW((void)compiler::ParseBackendKind("gpu"), Error);
  EXPECT_THROW((void)compiler::ParseBackendKind(""), Error);
}

TEST(NativeBackend, AllSequoiaKernelsVerifyBitExact) {
  // The acceptance bar for the backend: all 18 Table-I kernels execute on
  // real threads — sequential closures and the partitioned plan over SPSC
  // rings — and both memories match the golden interpreter bit-for-bit.
  kernels::ExperimentConfig config;
  config.cores = 4;
  config.backend = compiler::BackendKind::kNative;
  const std::vector<harness::KernelRun> runs = kernels::RunAllKernels(config);
  ASSERT_EQ(runs.size(), kernels::SequoiaKernels().size());
  for (const harness::KernelRun& run : runs) {
    EXPECT_TRUE(run.native_run) << run.kernel_name;
    EXPECT_TRUE(run.native_verified) << run.kernel_name;
    EXPECT_GT(run.native_seq_seconds, 0.0) << run.kernel_name;
    EXPECT_GT(run.native_par_seconds, 0.0) << run.kernel_name;
    EXPECT_GT(run.native_speedup, 0.0) << run.kernel_name;
    EXPECT_GT(run.native_cores, 1) << run.kernel_name;
    // Every partition communicates at least its completion token, so a
    // zero here means the rings were bypassed, not that the kernel was
    // communication-free.
    EXPECT_GT(run.native_queue_transfers, 0u) << run.kernel_name;
    EXPECT_GT(run.native_rings_used, 0) << run.kernel_name;
    // The simulated measurement must be exactly what a sim-backend run
    // produces — the native pass rides alongside, it never replaces.
    EXPECT_GT(run.speedup, 0.0) << run.kernel_name;
    EXPECT_FALSE(run.fallback_used) << run.kernel_name;
  }
}

TEST(NativeBackend, TinyRingCapacityStillVerifies) {
  // Capacity 2 forces constant producer/consumer blocking in the real
  // run — the strongest in-situ exercise of the ring's blocking
  // semantics.  Correctness must not depend on queue sizing.
  kernels::ExperimentConfig config;
  config.cores = 4;
  config.queue_capacity = 2;
  config.backend = compiler::BackendKind::kNative;
  const harness::KernelRun run =
      kernels::RunKernel(kernels::SequoiaKernelById("irs-1"), config);
  EXPECT_TRUE(run.native_run);
  EXPECT_TRUE(run.native_verified);
}

TEST(NativeBackend, SimRunsCarryNoNativeArtifactEntries) {
  // Historical BENCH_*.json bytes are golden-guarded: a sim-backend run's
  // artifact-visible registry must not grow native.* keys.
  kernels::ExperimentConfig config;
  config.cores = 2;
  const harness::KernelRun run =
      kernels::RunKernel(kernels::SequoiaKernels()[0], config);
  EXPECT_FALSE(run.native_run);
  const telemetry::CounterRegistry registry = harness::KernelRunTelemetry(run);
  registry.ForEachArtifactCount([](const std::string& name, std::uint64_t) {
    EXPECT_EQ(name.find("native."), std::string::npos) << name;
  });
  registry.ForEachArtifactMetric([](const std::string& name, double) {
    EXPECT_EQ(name.find("native."), std::string::npos) << name;
  });
}

TEST(NativeBackend, NativeRunsRegisterDeterministicCounters) {
  // Native runs add deterministic counts (verification flag, ring traffic,
  // topology) to the artifact schema; the wall-clock seconds stay
  // host-only (artifact-invisible metrics), so BENCH_native.json's
  // deterministic portion is still a pure function of the inputs.
  kernels::ExperimentConfig config;
  config.cores = 4;
  config.backend = compiler::BackendKind::kNative;
  const harness::KernelRun run =
      kernels::RunKernel(kernels::SequoiaKernels()[0], config);
  ASSERT_TRUE(run.native_run);
  const telemetry::CounterRegistry registry = harness::KernelRunTelemetry(run);
  std::vector<std::string> counts;
  registry.ForEachArtifactCount(
      [&counts](const std::string& name, std::uint64_t) {
        if (name.rfind("native.", 0) == 0) {
          counts.push_back(name);
        }
      });
  EXPECT_EQ(counts, (std::vector<std::string>{
                        "native.cores", "native.queue_transfers",
                        "native.rings_used", "native.verified"}));
  registry.ForEachArtifactMetric([](const std::string& name, double) {
    EXPECT_EQ(name.find("native."), std::string::npos) << name;
  });
}

TEST(NativeExecutor, WatchdogAbortsCleanlyWhenOneWorkerWedges) {
  // The hang-hardening drill: one worker wedges (alive, never touching its
  // rings), so the cooperative abort flag alone would never fire and the
  // historical behaviour was an infinite hang behind a blocking ring wait.
  // With a wait deadline armed the run must (a) surface a structured
  // RingStallError, (b) release the wedged worker via the abort flag, and
  // (c) join every thread and return well within the test's own deadline.
  ir::Kernel kernel = frontend::ParseKernel(R"(
kernel wedge {
  param i64 n;
  param f64 c;
  array f64 a[32];
  array f64 o1[32];
  array f64 o2[32];
  loop i = 0 .. n {
    o1[i] = a[i] * c + 1.0;
    o2[i] = sqrt(abs(a[i])) - c;
  }
}
)");
  const ir::DataLayout layout(kernel);
  compiler::CompileOptions options;
  options.num_cores = 2;
  const compiler::CompiledParallel compiled =
      compiler::CompileParallel(kernel, layout, options);
  ASSERT_GE(compiled.cores_used, 2);

  ir::ParamEnv params(kernel);
  for (const ir::Symbol& sym : kernel.symbols()) {
    if (sym.name == "n") {
      params.SetI64(sym.id, 16);
    } else if (sym.name == "c") {
      params.SetF64(sym.id, 1.5);
    }
  }
  const std::vector<std::uint64_t> params_raw =
      native::RawParams(kernel, params);
  std::vector<std::uint64_t> memory(layout.end(), 0);

  std::atomic<bool> wedge_saw_abort{false};
  native::NativeExecOptions exec;
  exec.ring_wait_timeout_ms = 200;
  exec.wedge_hook = [&wedge_saw_abort](int core,
                                       const std::atomic<bool>& aborted) {
    if (core != 1) {
      return;  // every other worker runs normally
    }
    // Wedged-but-alive: consume the thread until the watchdog aborts the
    // run.  A real wedge would never return; this one must, to prove the
    // abort flag actually reaches it.
    while (!aborted.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    wedge_saw_abort.store(true, std::memory_order_relaxed);
  };

  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(native::ExecuteNative(compiled.lowered(), params_raw, memory,
                                     exec),
               native::RingStallError);
  const auto elapsed = std::chrono::duration_cast<std::chrono::seconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_TRUE(wedge_saw_abort.load(std::memory_order_relaxed));
  // ExecuteNative joins all threads before rethrowing; if the watchdog or
  // the abort propagation regressed, this blows past the bound (or the
  // EXPECT_THROW above hangs the suite, which CI's timeout catches).
  EXPECT_LT(elapsed.count(), 30);
}

TEST(NativeExecutor, WatchdogStaysQuietOnAHealthyRun) {
  // The same deadline must be invisible when everyone is live: a normal
  // 2-core run with a tight (but sane) watchdog completes and verifies.
  kernels::ExperimentConfig config;
  config.cores = 2;
  config.backend = compiler::BackendKind::kNative;
  const harness::KernelRun run =
      kernels::RunKernel(kernels::SequoiaKernels()[0], config);
  EXPECT_TRUE(run.native_run);
  EXPECT_TRUE(run.native_verified);
}

/// One Sequoia kernel compiled for up to `cores` cores, with its input
/// image and the reference interpreter's output image.  Heap-held by the
/// tests: the compiled plan points at `layout`.
struct NativeCase {
  NativeCase(const kernels::SequoiaKernel& sequoia, int cores)
      : label(sequoia.id + " cores=" + std::to_string(cores)),
        kernel(kernels::ParseSequoia(sequoia)),
        layout(kernel),
        compiled(compiler::CompileParallel(kernel, layout, [cores] {
          compiler::CompileOptions options;
          options.num_cores = cores;
          return options;
        }())) {
    ir::ParamEnv params(kernel);
    image.assign(layout.end(), 0);
    kernels::SequoiaInit(sequoia)(/*seed=*/1, kernel, layout, params, image);
    for (const ir::Symbol& sym : kernel.symbols()) {
      if (sym.kind == ir::SymbolKind::kParam) {
        image[layout.ParamAddressOf(sym.id)] = params.GetRaw(sym.id);
      }
    }
    golden = image;
    ir::Interpreter(kernel, layout, params, golden).Run();
    params_raw = native::RawParams(kernel, params);
  }

  /// One parallel run over a fresh copy of the input image; true when the
  /// result equals the interpreter's image bit for bit.
  bool RunVerified(const native::NativeExecOptions& options = {}) const {
    std::vector<std::uint64_t> memory = image;
    native::ExecuteNative(compiled.lowered(), params_raw, memory, options);
    return memory == golden;
  }

  std::string label;
  ir::Kernel kernel;
  ir::DataLayout layout;
  compiler::CompiledParallel compiled;
  std::vector<std::uint64_t> image, golden, params_raw;
};

TEST(NativeExecutor, ConcurrentCallersShareThePoolAndVerify) {
  // fig12 --backend native runs several sweep threads, each calling
  // ExecuteNative: the pool must lease each concurrent run its own
  // workers.  Four callers walk the 18 kernels x {2, 4} cores, each from a
  // different starting point so the same kernel overlaps with itself too.
  std::vector<std::unique_ptr<NativeCase>> cases;
  for (const int cores : {2, 4}) {
    for (const kernels::SequoiaKernel& sequoia : kernels::SequoiaKernels()) {
      cases.push_back(std::make_unique<NativeCase>(sequoia, cores));
    }
  }
  constexpr int kCallers = 4;
  std::vector<std::vector<std::string>> mismatches(kCallers);
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      for (std::size_t i = 0; i < cases.size(); ++i) {
        const NativeCase& c =
            *cases[(i + static_cast<std::size_t>(t) * 9) % cases.size()];
        if (!c.RunVerified()) {
          mismatches[static_cast<std::size_t>(t)].push_back(c.label);
        }
      }
    });
  }
  for (std::thread& caller : callers) {
    caller.join();
  }
  for (int t = 0; t < kCallers; ++t) {
    EXPECT_TRUE(mismatches[static_cast<std::size_t>(t)].empty())
        << "caller " << t << " first mismatch: "
        << mismatches[static_cast<std::size_t>(t)].front();
  }
}

TEST(NativeExecutor, PoolStaysHealthyAfterAWedgedRun) {
  // A run whose worker wedged and was aborted by the watchdog hands every
  // worker back only after it left the job, so the next run in the same
  // process reuses those workers and still verifies, promptly.
  const NativeCase c(kernels::SequoiaKernelById("irs-1"), 2);
  ASSERT_GE(c.compiled.cores_used, 2);
  ASSERT_TRUE(c.RunVerified());
  const std::size_t workers = native::NativeWorkerCount();

  native::NativeExecOptions wedged;
  wedged.ring_wait_timeout_ms = 200;
  wedged.wedge_hook = [](int core, const std::atomic<bool>& aborted) {
    while (core == 1 && !aborted.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  EXPECT_THROW((void)c.RunVerified(wedged), native::RingStallError);

  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(c.RunVerified());
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
  EXPECT_EQ(native::NativeWorkerCount(), workers);
}

TEST(NativeExecutor, SequentialRunsDoNotGrowThePool) {
  // One caller needs one worker per core slot, however many runs it makes.
  const NativeCase c(kernels::SequoiaKernelById("lammps-1"), 4);
  ASSERT_TRUE(c.RunVerified());
  const std::size_t workers = native::NativeWorkerCount();
  EXPECT_GE(workers, static_cast<std::size_t>(c.compiled.cores_used));
  for (int run = 0; run < 100; ++run) {
    ASSERT_TRUE(c.RunVerified()) << "run " << run;
  }
  EXPECT_EQ(native::NativeWorkerCount(), workers);
}

}  // namespace
}  // namespace fgpar
