#include "native/executor.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <tuple>
#include <utility>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "native/codegen.hpp"
#include "support/error.hpp"

namespace fgpar::native {
namespace {

std::int64_t AsI(std::uint64_t raw) { return static_cast<std::int64_t>(raw); }

/// One ring per (sender, receiver, register class) directed channel — the
/// sim's queue identity, and SPSC by construction: each channel has exactly
/// one sending and one receiving core.
struct RingKey {
  int src;
  int dst;
  bool fp;
  bool operator<(const RingKey& o) const {
    return std::tie(src, dst, fp) < std::tie(o.src, o.dst, o.fp);
  }
};

class RingMap {
 public:
  RingMap(std::size_t capacity, std::uint64_t wait_timeout_ms,
          const std::atomic<bool>* abort)
      : capacity_(capacity), wait_timeout_ms_(wait_timeout_ms),
        abort_(abort) {}

  /// Creates on first use; must only be called during single-threaded
  /// setup (workers capture resolved pointers, never the map).
  SpscRing* Get(int src, int dst, bool fp) {
    std::unique_ptr<SpscRing>& slot = rings_[RingKey{src, dst, fp}];
    if (slot == nullptr) {
      slot = std::make_unique<SpscRing>(capacity_);
      slot->SetAbort(abort_);
      slot->SetWaitTimeout(wait_timeout_ms_);
    }
    return slot.get();
  }

  std::uint64_t TotalTransfers() const {
    std::uint64_t total = 0;
    for (const auto& [key, ring] : rings_) {
      total += ring->total_transfers();
    }
    return total;
  }

  int RingsUsed() const {
    int used = 0;
    for (const auto& [key, ring] : rings_) {
      used += ring->total_transfers() > 0 ? 1 : 0;
    }
    return used;
  }

 private:
  std::map<RingKey, std::unique_ptr<SpscRing>> rings_;
  const std::size_t capacity_;
  const std::uint64_t wait_timeout_ms_;
  const std::atomic<bool>* abort_;
};

/// Compiles one core's per-iteration plan items, resolving enq/deq against
/// the ring map (mirrors lower.cpp EmitPlanItems).
StmtFn CompileItems(const Codegen& cg,
                    const std::vector<compiler::PlanItem>& items,
                    const compiler::CommPlan& comm, RingMap& rings) {
  std::vector<StmtFn> fns;
  fns.reserve(items.size());
  for (const compiler::PlanItem& item : items) {
    switch (item.kind) {
      case compiler::PlanItem::Kind::kStmt:
        fns.push_back(cg.CompileStmt(*item.stmt));
        break;
      case compiler::PlanItem::Kind::kIf: {
        const ExprFn cond = cg.CompileExpr(item.stmt->value);
        const StmtFn then_fn = CompileItems(cg, item.then_items, comm, rings);
        const StmtFn else_fn = CompileItems(cg, item.else_items, comm, rings);
        fns.push_back([cond, then_fn, else_fn](Frame& f) {
          if (AsI(cond(f)) != 0) {
            then_fn(f);
          } else {
            else_fn(f);
          }
        });
        break;
      }
      case compiler::PlanItem::Kind::kEnq: {
        const compiler::Transfer& t =
            comm.transfers[static_cast<std::size_t>(item.transfer)];
        SpscRing* ring =
            rings.Get(t.src_core, t.dst_core, t.type == ir::ScalarType::kF64);
        const std::size_t temp = static_cast<std::size_t>(t.temp);
        fns.push_back([ring, temp](Frame& f) { ring->Push(f.temps[temp]); });
        break;
      }
      case compiler::PlanItem::Kind::kDeq: {
        const compiler::Transfer& t =
            comm.transfers[static_cast<std::size_t>(item.transfer)];
        SpscRing* ring =
            rings.Get(t.src_core, t.dst_core, t.type == ir::ScalarType::kF64);
        const std::size_t temp = static_cast<std::size_t>(t.temp);
        fns.push_back([ring, temp](Frame& f) { f.temps[temp] = ring->Pop(); });
        break;
      }
    }
  }
  return [fns](Frame& f) {
    for (const StmtFn& fn : fns) {
      fn(f);
    }
  };
}

void PinThread(std::thread& thread, int core) {
#if defined(__linux__)
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(core) % cpus, &set);
  // Best-effort: affinity can be restricted (containers); a failure just
  // leaves the worker floating.
  (void)pthread_setaffinity_np(thread.native_handle(), sizeof(set), &set);
#else
  (void)thread;
  (void)core;
#endif
}

/// Waits until `epoch` reads `want`: a short spin (the ring's budget), then
/// a park on the word's futex.  The short spin matters: a worker that kept
/// spinning between runs would steal its CPU from the caller's own
/// sequential work.
void AwaitEpoch(const std::atomic<std::uint32_t>& epoch, std::uint32_t want) {
  for (unsigned spin = 0; spin < kSpinBudget; ++spin) {
    if (epoch.load(std::memory_order_acquire) == want) {
      return;
    }
    CpuRelax();
  }
  for (std::uint32_t seen = epoch.load(std::memory_order_acquire);
       seen != want; seen = epoch.load(std::memory_order_acquire)) {
    epoch.wait(seen, std::memory_order_acquire);
  }
}

/// One parked thread bound to a core slot, pinned once at creation and
/// reused by every run that leases it.  A run hands it a job by bumping
/// `dispatched_`; the worker runs the job and publishes the same epoch in
/// `finished_`.  Both words live as long as the worker, which outlives
/// every run, so the notify that follows a store never touches freed
/// memory, which a counter on the caller's stack could not promise.
class Worker {
 public:
  explicit Worker(int core) : core_(core), thread_([this] { Loop(); }) {
    PinThread(thread_, core);
  }

  /// Only an idle worker is destroyed (the pool's, at process exit).
  ~Worker() {
    Start(nullptr);  // a null job ends Loop
    thread_.join();
  }

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  /// Runs `job(core)` on this worker.  The caller must hold the lease.
  void Start(const std::function<void(int)>* job) {
    job_ = job;
    dispatched_.fetch_add(1, std::memory_order_release);
    dispatched_.notify_one();
  }

  /// Returns once the worker has left the job Start handed it; everything
  /// the job wrote happens-before the return.
  void Finish() const {
    AwaitEpoch(finished_, dispatched_.load(std::memory_order_relaxed));
  }

 private:
  void Loop() {
    for (std::uint32_t epoch = 1;; ++epoch) {
      AwaitEpoch(dispatched_, epoch);
      if (job_ == nullptr) {
        return;
      }
      (*job_)(core_);  // jobs catch their own failures
      finished_.store(epoch, std::memory_order_release);
      finished_.notify_one();
    }
  }

  const int core_;
  const std::function<void(int)>* job_ = nullptr;
  std::atomic<std::uint32_t> dispatched_{0};
  std::atomic<std::uint32_t> finished_{0};
  std::thread thread_;  // last: Loop may run before the constructor returns
};

/// The process-wide pool: one stack of idle workers per core slot.  A run
/// leases one worker per slot and creates one only when that slot's stack
/// is empty, so the pool grows to the peak number of concurrent runs and
/// never shrinks.
class WorkerPool {
 public:
  static WorkerPool& Instance() {
    static WorkerPool pool;
    return pool;
  }

  std::vector<Worker*> Lease(int cores) {
    std::vector<Worker*> leased(static_cast<std::size_t>(cores));
    const std::lock_guard<std::mutex> lock(mutex_);
    if (idle_.size() < leased.size()) {
      idle_.resize(leased.size());
    }
    // Grow first, lease second: if creating a thread throws, every worker
    // is still on an idle stack.
    for (int c = 0; c < cores; ++c) {
      std::vector<Worker*>& idle = idle_[static_cast<std::size_t>(c)];
      if (idle.empty()) {
        workers_.push_back(std::make_unique<Worker>(c));
        idle.push_back(workers_.back().get());
      }
    }
    for (std::size_t c = 0; c < leased.size(); ++c) {
      leased[c] = idle_[c].back();
      idle_[c].pop_back();
    }
    return leased;
  }

  /// Returns workers that have all left their job (Worker::Finish).
  void Release(const std::vector<Worker*>& leased) {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t c = 0; c < leased.size(); ++c) {
      idle_[c].push_back(leased[c]);
    }
  }

  std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return workers_.size();
  }

 private:
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::vector<Worker*>> idle_;  // per core slot
};

NativeRunStats RunSequential(const compiler::LoweredProgram& lowered,
                             const std::vector<std::uint64_t>& params_raw,
                             std::vector<std::uint64_t>& memory) {
  const ir::Kernel& kernel = *lowered.kernel;
  const ir::Loop& loop = kernel.loop();
  FGPAR_CHECK_MSG(loop.lower != ir::kNoExpr && loop.upper != ir::kNoExpr,
                  "kernel has no loop bounds");
  const Codegen cg(kernel, *lowered.layout);
  const ExprFn lower_fn = cg.CompileExpr(loop.lower);
  const ExprFn upper_fn = cg.CompileExpr(loop.upper);
  const StmtFn body = cg.CompileStmtList(loop.body);
  const StmtFn epilogue = cg.CompileStmtList(kernel.epilogue());

  Frame f;
  f.memory = memory.data();
  f.memory_size = memory.size();
  f.params = params_raw.data();
  f.temps = InitialTemps(kernel);

  NativeRunStats stats;
  const auto start = std::chrono::steady_clock::now();
  const std::int64_t lower = AsI(lower_fn(f));
  const std::int64_t upper = AsI(upper_fn(f));
  for (f.iv = lower; f.iv < upper; ++f.iv) {
    body(f);
    ++stats.iterations;
  }
  epilogue(f);
  const auto end = std::chrono::steady_clock::now();
  stats.wall_seconds = std::chrono::duration<double>(end - start).count();
  return stats;
}

NativeRunStats RunParallel(const compiler::LoweredProgram& lowered,
                           const std::vector<std::uint64_t>& params_raw,
                           std::vector<std::uint64_t>& memory,
                           const NativeExecOptions& options) {
  const ir::Kernel& kernel = *lowered.kernel;
  const compiler::ProgramPlan& plan = *lowered.plan;
  const compiler::CommPlan& comm = plan.comm;
  const int cores = static_cast<int>(plan.cores.size());
  const ir::Loop& loop = kernel.loop();
  FGPAR_CHECK_MSG(loop.lower != ir::kNoExpr && loop.upper != ir::kNoExpr,
                  "kernel has no loop bounds");

  std::atomic<bool> aborted{false};
  RingMap rings(options.ring_capacity, options.ring_wait_timeout_ms,
                &aborted);
  const Codegen cg(kernel, *lowered.layout);
  const ExprFn lower_fn = cg.CompileExpr(loop.lower);
  const ExprFn upper_fn = cg.CompileExpr(loop.upper);
  const StmtFn epilogue = cg.CompileStmtList(kernel.epilogue());
  const std::vector<std::uint64_t> initial_temps = InitialTemps(kernel);

  // ---- single-threaded setup: resolve every ring and closure ----
  struct ArgOp {
    SpscRing* ring;
    ir::SymbolId sym;
  };
  struct TempOp {
    SpscRing* ring;
    std::size_t temp;
  };
  struct CoreProgram {
    StmtFn body;
    std::vector<ArgOp> arg_pops;        // secondaries, comm.args order
    std::vector<TempOp> liveout_pushes; // secondaries, comm.live_outs order
    SpscRing* token_push = nullptr;     // secondaries: (c, 0, int)
  };

  std::vector<CoreProgram> programs(static_cast<std::size_t>(cores));
  std::vector<ArgOp> arg_pushes;   // primary, dispatch order
  std::vector<TempOp> liveout_pops;  // primary, comm.live_outs order
  std::vector<SpscRing*> token_pops;

  for (int c = 1; c < cores; ++c) {
    const auto it = comm.args.find(c);
    if (it != comm.args.end()) {
      for (const ir::SymbolId sym : it->second) {
        const bool fp = kernel.symbol(sym).type == ir::ScalarType::kF64;
        SpscRing* ring = rings.Get(0, c, fp);
        arg_pushes.push_back({ring, sym});
        programs[static_cast<std::size_t>(c)].arg_pops.push_back({ring, sym});
      }
    }
  }
  for (int c = 0; c < cores; ++c) {
    programs[static_cast<std::size_t>(c)].body = CompileItems(
        cg, plan.cores[static_cast<std::size_t>(c)].body, comm, rings);
  }
  for (const compiler::LiveOut& lo : comm.live_outs) {
    const bool fp = lo.type == ir::ScalarType::kF64;
    SpscRing* ring = rings.Get(lo.src_core, 0, fp);
    const std::size_t temp = static_cast<std::size_t>(lo.temp);
    liveout_pops.push_back({ring, temp});
    programs[static_cast<std::size_t>(lo.src_core)].liveout_pushes.push_back(
        {ring, temp});
  }
  for (int c = 1; c < cores; ++c) {
    SpscRing* ring = rings.Get(c, 0, /*fp=*/false);
    programs[static_cast<std::size_t>(c)].token_push = ring;
    token_pops.push_back(ring);
  }

  std::exception_ptr first_error;
  std::mutex error_mutex;
  const std::function<void(int)> job = [&](int c) {
    try {
      if (options.wedge_hook) {
        options.wedge_hook(c, aborted);
      }
      Frame f;
      f.memory = memory.data();
      f.memory_size = memory.size();
      f.temps = initial_temps;
      // Each worker owns its parameter image; secondaries overwrite their
      // slots with the values received over the rings (same values — the
      // protocol is exercised for fidelity, not necessity).
      std::vector<std::uint64_t> local_params = params_raw;
      f.params = local_params.data();
      const CoreProgram& prog = programs[static_cast<std::size_t>(c)];
      if (c == 0) {
        for (const ArgOp& op : arg_pushes) {
          op.ring->Push(params_raw[static_cast<std::size_t>(op.sym)]);
        }
      } else {
        for (const ArgOp& op : prog.arg_pops) {
          local_params[static_cast<std::size_t>(op.sym)] = op.ring->Pop();
        }
      }
      const std::int64_t lower = AsI(lower_fn(f));
      const std::int64_t upper = AsI(upper_fn(f));
      for (f.iv = lower; f.iv < upper; ++f.iv) {
        prog.body(f);
      }
      if (c == 0) {
        for (const TempOp& op : liveout_pops) {
          f.temps[op.temp] = op.ring->Pop();
        }
        for (SpscRing* ring : token_pops) {
          (void)ring->Pop();
        }
        epilogue(f);
      } else {
        for (const TempOp& op : prog.liveout_pushes) {
          op.ring->Push(f.temps[op.temp]);
        }
        prog.token_push->Push(1);
      }
    } catch (...) {
      aborted.store(true, std::memory_order_relaxed);
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (first_error == nullptr) {
        first_error = std::current_exception();
      }
    }
  };

  NativeRunStats stats;
  stats.cores = cores;
  const auto start = std::chrono::steady_clock::now();
  WorkerPool& pool = WorkerPool::Instance();
  const std::vector<Worker*> workers = pool.Lease(cores);
  for (Worker* worker : workers) {
    worker->Start(&job);
  }
  // Every worker leaves the job before the run returns, rethrows or hands
  // the workers back, so a failed or aborted run leaves no worker behind.
  for (Worker* worker : workers) {
    worker->Finish();
  }
  pool.Release(workers);
  const auto end = std::chrono::steady_clock::now();
  stats.wall_seconds = std::chrono::duration<double>(end - start).count();
  if (first_error != nullptr) {
    std::rethrow_exception(first_error);
  }

  // Iteration count for the record (bounds are pure param expressions).
  {
    Frame f;
    f.memory = memory.data();
    f.memory_size = memory.size();
    f.params = params_raw.data();
    f.temps = initial_temps;
    const std::int64_t lower = AsI(lower_fn(f));
    const std::int64_t upper = AsI(upper_fn(f));
    stats.iterations =
        upper > lower ? static_cast<std::uint64_t>(upper - lower) : 0;
  }
  stats.queue_transfers = rings.TotalTransfers();
  stats.rings_used = rings.RingsUsed();
  return stats;
}

}  // namespace

std::size_t NativeWorkerCount() { return WorkerPool::Instance().size(); }

NativeRunStats ExecuteNative(const compiler::LoweredProgram& lowered,
                             const std::vector<std::uint64_t>& params_raw,
                             std::vector<std::uint64_t>& memory,
                             const NativeExecOptions& options) {
  FGPAR_CHECK_MSG(lowered.kernel != nullptr && lowered.layout != nullptr,
                  "native executor needs a kernel and layout");
  if (lowered.sequential()) {
    return RunSequential(lowered, params_raw, memory);
  }
  return RunParallel(lowered, params_raw, memory, options);
}

NativeRunStats ExecuteNative(const compiler::LoweredProgram& lowered,
                             const std::vector<std::uint64_t>& params_raw,
                             std::vector<std::uint64_t>& memory,
                             std::size_t ring_capacity) {
  NativeExecOptions options;
  options.ring_capacity = ring_capacity;
  return ExecuteNative(lowered, params_raw, memory, options);
}

}  // namespace fgpar::native
