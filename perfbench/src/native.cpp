// `native`: the 18 Sequoia kernels x {2,4} cores, compiled once in set-up;
// the timed loop runs sequential and parallel native::ExecuteNative and
// checks every memory image against the ir::Interpreter image.  An op is
// one verified parallel native run.  Only the native layer does timed work
// here.
#include "analysis/profile.hpp"
#include "bench.hpp"
#include "compiler/compile.hpp"
#include "ir/interp.hpp"
#include "kernels/experiments.hpp"
#include "native/codegen.hpp"
#include "native/executor.hpp"

namespace perfbench {

using namespace fgpar;

namespace {

constexpr int kRingCapacity = 20;  // the paper's queue length

/// One kernel's inputs at one trip count: image, params, reference image.
struct NativeInput {
  std::vector<std::uint64_t> image;
  std::vector<std::uint64_t> params_raw;
  std::vector<std::uint64_t> golden;
};

struct NativePoint {
  std::string label;
  std::unique_ptr<harness::KernelRunner> runner;
  std::unique_ptr<compiler::CompiledParallel> compiled;
  NativeInput input;
  NativeInput trip1;  // traced runs only: the fixed cost of a parallel run
  double sim_speedup = 0.0;
};

NativeInput MakeInput(const harness::KernelRunner& runner,
                      const harness::WorkloadInit& init, std::uint64_t seed) {
  PreparedInput prepared = Prepare(runner, init, seed);
  NativeInput input;
  input.golden = prepared.image;
  ir::Interpreter(runner.kernel(), runner.layout(), prepared.params,
                  input.golden)
      .Run();
  input.params_raw = native::RawParams(runner.kernel(), prepared.params);
  input.image = std::move(prepared.image);
  return input;
}

class Native final : public Workload {
 public:
  Native(const Options& options, Tracer& tracer)
      : options_(options), tracer_(tracer) {}

  void Setup() override {
    for (const int cores : {2, 4}) {
      for (const kernels::SequoiaKernel& sk : kernels::SequoiaKernels()) {
        auto point = std::make_unique<NativePoint>();
        point->label = sk.id + " cores=" + std::to_string(cores);
        const harness::WorkloadInit init = kernels::SequoiaInit(sk);
        point->runner = std::make_unique<harness::KernelRunner>(
            kernels::ParseSequoia(sk), init);
        const harness::KernelRunner& runner = *point->runner;
        kernels::ExperimentConfig experiment;
        experiment.cores = cores;
        harness::RunConfig config = kernels::ToRunConfig(experiment);
        config.seed = options_.seed;
        // The program KernelRunner::Run would execute: static select over
        // the profile of the same prepared workload.
        const PreparedInput prepared = Prepare(runner, init, config.seed);
        const analysis::ProfileData profile = analysis::ProfileData::Collect(
            runner.kernel(), runner.layout(), prepared.params, prepared.image,
            config.cache);
        compiler::CompileOptions compile = config.compile;
        compile.assumed_queue_capacity = config.queue.capacity;
        point->compiled = std::make_unique<compiler::CompiledParallel>(
            compiler::CompileParallel(runner.kernel(), runner.layout(),
                                      compile, &profile));
        point->input = MakeInput(runner, init, config.seed);
        point->sim_speedup = runner.Run(config).speedup;
        if (options_.trace) {
          kernels::SequoiaKernel one = sk;
          one.trip = 1;
          point->trip1 =
              MakeInput(runner, kernels::SequoiaInit(one), config.seed);
        }
        points_.push_back(std::move(point));
      }
    }
  }

  Report Measure() override {
    Report report;
    const std::size_t n = points_.size();
    std::vector<std::vector<double>> seq_us(n), par_us(n);
    std::vector<double> all_seq_us, all_par_us, fixed_us, pass_walls;
    // An op is a parallel run; its latency is the parallel run's, and the
    // rate counts the sequential run it is compared with as well.
    OpStats par_ms(n), op_ms(n);
    std::vector<std::uint64_t> transfers(n, 0);
    double untraced_wall = 0.0;
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t pass = 0; KeepGoing(options_, pass, 2, start); ++pass) {
      Tracer* tracer = TracedPass(options_, pass, 2) ? &tracer_ : nullptr;
      const auto pass_start = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < n; ++i) {
        NativePoint& p = *points_[i];
        const std::uint64_t op = pass * n + i + 1;
        Span op_span(tracer, "op", op);
        const compiler::LoweredProgram sequential{
            &p.runner->kernel(), &p.runner->layout(), nullptr};
        const Timed seq =
            Execute(sequential, p.input, tracer, "native.seq", op, p.label);
        const Timed par = Execute(p.compiled->lowered(), p.input, tracer,
                                  "native.par", op, p.label);
        seq_us[i].push_back(seq.wall * 1e6);
        par_us[i].push_back(par.wall * 1e6);
        transfers[i] = par.stats.queue_transfers;
        ++report.attempted;
        if (tracer != nullptr) {
          fixed_us.push_back(Execute(p.compiled->lowered(), p.trip1, tracer,
                                     "native.fixed", op, p.label)
                                 .wall *
                             1e6);
        }
      }
      if (options_.trace && tracer == nullptr) {
        untraced_wall = Since(pass_start);
        for (std::size_t i = 0; i < n; ++i) {
          seq_us[i].clear();
          par_us[i].clear();
        }
        report.attempted = 0;
        continue;
      }
      pass_walls.push_back(Since(pass_start));
      for (std::size_t i = 0; i < n; ++i) {
        par_ms.Add(i, par_us[i].back() / 1e3);
        op_ms.Add(i, (seq_us[i].back() + par_us[i].back()) / 1e3);
      }
    }

    std::vector<double> ratios;
    for (std::size_t i = 0; i < n; ++i) {
      ratios.push_back(Median(seq_us[i]) / Median(par_us[i]));
      all_seq_us.insert(all_seq_us.end(), seq_us[i].begin(), seq_us[i].end());
      all_par_us.insert(all_par_us.end(), par_us[i].begin(), par_us[i].end());
    }
    std::map<std::string, double>& m = report.metrics;
    if (!options_.trace) {
      std::vector<double> sim;
      for (const auto& p : points_) {
        sim.push_back(p->sim_speedup);
      }
      par_ms.Fill(m, &op_ms);
      m["ok_share"] = 1.0;
      m["sim_speedup_geomean"] = GeoMean(sim);
      return report;
    }
    const double fixed = Median(fixed_us);
    double above_fixed_us = 0, total_transfers = 0;
    for (std::size_t i = 0; i < n; ++i) {
      above_fixed_us += Median(par_us[i]) - fixed;
      total_transfers += static_cast<double>(transfers[i]);
    }
    m["native.seq_us_p50"] = Median(all_seq_us);
    m["native.par_us_p50"] = Median(all_par_us);
    m["native.fixed_us"] = fixed;
    m["native.transfers"] = total_transfers;
    m["native.us_per_transfer"] = above_fixed_us / total_transfers;
    m["native.speedup_geomean"] = GeoMean(ratios);
    m["trace.overhead_ms"] = (Median(pass_walls) - untraced_wall) * 1e3;
    return report;
  }

 private:
  struct Timed {
    native::NativeRunStats stats;
    double wall = 0.0;  // around the ExecuteNative call
  };

  /// Runs `program` on a fresh copy of the input image under a span and
  /// checks the result against the interpreter's image.
  Timed Execute(const compiler::LoweredProgram& program,
                const NativeInput& input, Tracer* tracer, const char* name,
                std::uint64_t op, const std::string& label) {
    std::vector<std::uint64_t> memory = input.image;
    Timed timed;
    {
      Span span(tracer, name, op);
      const auto t0 = std::chrono::steady_clock::now();
      timed.stats = native::ExecuteNative(program, input.params_raw, memory,
                                          kRingCapacity);
      timed.wall = Since(t0);
    }
    if (memory != input.golden) {
      throw Mismatch(std::string(name) + " memory of " + label +
                     " differs from the interpreter's image");
    }
    return timed;
  }

  const Options& options_;
  Tracer& tracer_;
  std::vector<std::unique_ptr<NativePoint>> points_;
};

}  // namespace

std::unique_ptr<Workload> MakeNative(const Options& options, Ledger&,
                                     Tracer& tracer) {
  // A native run either verifies or fails the whole run: no ledger entries.
  return std::make_unique<Native>(options, tracer);
}

}  // namespace perfbench
