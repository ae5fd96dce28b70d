// `tune`: AutotuneKernel over the 18 Sequoia kernels with the default
// TuneSpace (54 points, 25% frontier) — fig12_speedup --tuned.  An op is
// one tuned kernel.  The traced run replays each tune from outside:
// KernelRunner::Predict on every enumerated point, the same frontier
// ranking, and the decomposed run of every frontier point, checked
// against the untraced AutotuneKernel result.
#include <algorithm>

#include "bench.hpp"
#include "harness/autotune.hpp"
#include "kernels/sequoia.hpp"

namespace perfbench {

using namespace fgpar;

namespace {

struct TuneKernel {
  std::string id;
  harness::WorkloadInit init;
  std::unique_ptr<ir::Kernel> kernel;
  std::unique_ptr<harness::KernelRunner> runner;
};

class Tune final : public Workload {
 public:
  Tune(const Options& options, Ledger& ledger, Tracer& tracer)
      : options_(options), ledger_(ledger), tracer_(tracer) {}

  void Setup() override {
    for (const kernels::SequoiaKernel& sk : kernels::SequoiaKernels()) {
      TuneKernel k;
      k.id = sk.id;
      k.init = kernels::SequoiaInit(sk);
      k.kernel = std::make_unique<ir::Kernel>(kernels::ParseSequoia(sk));
      k.runner = std::make_unique<harness::KernelRunner>(*k.kernel, k.init);
      sources_.push_back(sk.source);
      kernels_.push_back(std::move(k));
    }
  }

  Report Measure() override {
    Report report;
    std::vector<double> pass_walls, predict_ms;
    OpStats timing(kernels_.size());  // each kernel's tune time
    std::vector<double> frontier_predict_ms, frontier_run_ms;
    std::vector<LayerRun> layer_runs;
    std::vector<harness::TuneResult> reference;
    double untraced_wall = 0.0;
    double bad_points = 0, enumerated = 0, predict_s = 0, op_s = 0;
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t pass = 0; KeepGoing(options_, pass, 2, start); ++pass) {
      const bool traced = TracedPass(options_, pass, 2);
      const auto pass_start = std::chrono::steady_clock::now();
      for (std::size_t k = 0; k < kernels_.size(); ++k) {
        if (options_.threads == 1) {
          PinToCpu(pass + k);  // a kernel meets another CPU every pass
        }
        const std::uint64_t op = pass * kernels_.size() + k + 1;
        const auto t0 = std::chrono::steady_clock::now();
        if (!traced) {
          harness::TuneResult result = TuneOnce(kernels_[k]);
          if (pass == 0) {
            reference.push_back(std::move(result));
          }
        } else {
          Span span(&tracer_, "op", op);
          Replay(kernels_[k], reference[k], op, layer_runs, predict_ms,
                 frontier_predict_ms, frontier_run_ms, predict_s);
        }
        const double seconds = Since(t0);
        if (options_.trace && !traced) {
          continue;
        }
        op_s += seconds;
        timing.Add(k, seconds * 1e3);
        ++report.attempted;
      }
      if (options_.trace && !traced) {
        untraced_wall = Since(pass_start);
        continue;
      }
      pass_walls.push_back(Since(pass_start));
      for (const harness::TuneResult& result : reference) {
        enumerated += static_cast<double>(result.enumerated);
        for (const harness::TuneCandidate& c : result.candidates) {
          if (!c.feasible || !c.note.empty()) {
            ++bad_points;
          }
        }
      }
    }

    std::map<std::string, double>& m = report.metrics;
    if (!options_.trace) {
      std::vector<double> chosen;
      for (const harness::TuneResult& result : reference) {
        chosen.push_back(result.best_speedup);
      }
      timing.Fill(m);
      m["ok_share"] = 1.0 - bad_points / enumerated;
      m["sim_speedup_geomean"] = GeoMean(chosen);
      return report;
    }
    AddKernelLayerMetrics(layer_runs, pass_walls.size(), m);
    AddParseMetric(sources_, tracer_, m);
    double simulated = 0, infeasible = 0, total = 0;
    for (const harness::TuneResult& result : reference) {
      total += static_cast<double>(result.enumerated);
      simulated += static_cast<double>(result.simulated);
      for (const harness::TuneCandidate& c : result.candidates) {
        infeasible += c.feasible ? 0 : 1;
      }
    }
    m["harness.tune.enumerated"] = total;
    m["harness.tune.simulated"] = simulated;
    m["harness.tune.infeasible"] = infeasible;
    m["harness.tune.predict_share"] = predict_s / op_s;
    m["model.predict_ms"] = Median(predict_ms);
    m["model.predict_calls"] =
        static_cast<double>(predict_ms.size()) /
        static_cast<double>(pass_walls.size());
    m["model.run_to_predict"] =
        Median(frontier_run_ms) / Median(frontier_predict_ms);
    m["trace.overhead_ms"] = (Median(pass_walls) - untraced_wall) * 1e3;
    return report;
  }

 private:
  harness::TuneOptions TuneOptionsFor() const {
    harness::TuneOptions tune;
    tune.seed = options_.seed;
    tune.sweep_threads = options_.threads;
    return tune;
  }

  /// One AutotuneKernel call, with its never-worse contract checked and
  /// its infeasible and failed points entered in the ledger.
  harness::TuneResult TuneOnce(const TuneKernel& k) {
    harness::TuneResult result = harness::AutotuneKernel(
        *k.kernel, k.init, harness::TuneSpace{}, TuneOptionsFor());
    const harness::TuneCandidate& baseline =
        result.candidates[result.default_index];
    if (!baseline.simulated) {
      throw Mismatch(k.id + ": the default config was not simulated: " +
                     baseline.note);
    }
    if (result.best_speedup < result.default_speedup) {
      throw Mismatch(k.id + ": tuned config simulates slower than the default");
    }
    for (const harness::TuneCandidate& c : result.candidates) {
      if (!c.note.empty()) {
        ledger_.Fail("tune", k.id, harness::TunePointLabel(c.point) +
                                       " data seed " +
                                       std::to_string(options_.seed),
                     (c.feasible ? "" : "infeasible: ") + c.note);
      }
    }
    return result;
  }

  /// Re-derives one tune from public calls: Predict on every point, the
  /// autotuner's ranking, and a decomposed run per frontier point.  The
  /// frontier, the simulated speedups and the chosen point must match the
  /// untraced AutotuneKernel result.
  void Replay(const TuneKernel& k, const harness::TuneResult& expected,
              std::uint64_t op, std::vector<LayerRun>& layer_runs,
              std::vector<double>& predict_ms,
              std::vector<double>& frontier_predict_ms,
              std::vector<double>& frontier_run_ms, double& predict_s) {
    harness::RunConfig base;
    base.seed = options_.seed;
    base.collect_profile = true;
    base.tune_by_simulation = false;
    const std::size_t n = expected.candidates.size();
    std::vector<double> predicted(n, 0.0), predict_wall(n, 0.0);
    std::vector<char> feasible(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const harness::TunePoint& point = expected.candidates[i].point;
      const double t0 = Now();
      try {
        Span span(&tracer_, "model.predict", op);
        predicted[i] =
            k.runner->Predict(harness::ApplyTunePoint(base, point)).speedup;
        feasible[i] = 1;
      } catch (const Error&) {
      }
      predict_wall[i] = Now() - t0;
      predict_s += predict_wall[i];
      predict_ms.push_back(predict_wall[i] * 1e3);
    }
    // The autotuner's ranking: feasible first, then predicted speedup,
    // then enumeration order; the default replaces the last member.
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) {
      order[i] = i;
    }
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                     std::size_t b) {
      if (feasible[a] != feasible[b]) {
        return feasible[a] > feasible[b];
      }
      return predicted[a] > predicted[b];
    });
    std::vector<std::size_t> frontier(
        order.begin(), order.begin() + static_cast<std::ptrdiff_t>(
                                           expected.frontier_size));
    if (std::find(frontier.begin(), frontier.end(), expected.default_index) ==
        frontier.end()) {
      frontier.back() = expected.default_index;
    }
    std::sort(frontier.begin(), frontier.end());

    for (const std::size_t index : frontier) {
      const harness::TuneCandidate& c = expected.candidates[index];
      if (!c.simulated) {
        throw Mismatch(k.id + ": replayed frontier differs from AutotuneKernel");
      }
      const harness::RunConfig config =
          harness::ApplyTunePoint(base, c.point);
      const LayerRun run = [&] {
        Span span(&tracer_, "harness.run", op);
        return TracedKernelRun(*k.runner, k.init, config, tracer_, op);
      }();
      const double speedup = static_cast<double>(run.seq_cycles) /
                             static_cast<double>(std::max<std::uint64_t>(
                                 1, run.par_cycles));
      if (speedup != c.simulated_speedup) {
        throw Mismatch(k.id + ": decomposed run of " +
                       harness::TunePointLabel(c.point) +
                       " disagrees with AutotuneKernel");
      }
      layer_runs.push_back(run);
      frontier_run_ms.push_back(run.total_s() * 1e3);
      frontier_predict_ms.push_back(predict_wall[index] * 1e3);
    }
    std::size_t best = expected.default_index;
    double best_speedup = expected.candidates[best].simulated_speedup;
    for (const std::size_t index : frontier) {
      const double s = expected.candidates[index].simulated_speedup;
      if (s > best_speedup) {
        best = index;
        best_speedup = s;
      }
    }
    if (best != expected.best_index) {
      throw Mismatch(k.id + ": replayed choice differs from AutotuneKernel");
    }
  }

  const Options& options_;
  Ledger& ledger_;
  Tracer& tracer_;
  std::vector<TuneKernel> kernels_;
  std::vector<std::string> sources_;
};

}  // namespace

std::unique_ptr<Workload> MakeTune(const Options& options, Ledger& ledger,
                                   Tracer& tracer) {
  return std::make_unique<Tune>(options, ledger, tracer);
}

}  // namespace perfbench
