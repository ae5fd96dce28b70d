// `sweep`: the Figure 12 grid (18 Sequoia kernels x {2,4} cores on fig12's
// own config, seed and order), run through SweepSupervisor with a
// checkpoint journal — what fig12_speedup and the distributed sweep run.
// An op is one verified point; a point that fails (or silently falls back
// to sequential) is a failed op in the ledger.
//
// The grid is the same for every --seed.  Seeded generated kernels stay
// out: on the fig12 config (static select) some generator seeds hit the
// static-path comm-pairing defect and fail to compile, and a timed
// workload must be one on which no op fails.
#include <cstdio>
#include <filesystem>
#include <optional>

#include "bench.hpp"
#include "harness/checkpoint.hpp"
#include "harness/supervisor.hpp"
#include "kernels/experiments.hpp"
#include "kernels/fig12_grid.hpp"

namespace perfbench {

using namespace fgpar;

namespace {

/// fig12_speedup's supervisor seed: every point runs with it, so
/// sim_speedup_geomean equals the geomean over BENCH_fig12.json.
constexpr std::uint64_t kFig12Seed = 0x5EED;

struct Point {
  std::string label;
  std::string input;  // kernel id
  int cores = 0;
  std::unique_ptr<harness::KernelRunner> runner;
  harness::WorkloadInit init;
};

class Sweep final : public Workload {
 public:
  Sweep(const Options& options, Ledger& ledger, Tracer& tracer)
      : options_(options), ledger_(ledger), tracer_(tracer) {}

  void Setup() override {
    const kernels::Fig12Grid grid = kernels::MakeFig12Grid(false);
    std::vector<ir::Kernel> parsed;
    for (std::size_t k = 0; k < grid.kernel_count; ++k) {
      sources_.push_back(grid.KernelAt(k).source);
      parsed.push_back(kernels::ParseSequoia(grid.KernelAt(k)));
    }
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const std::size_t k = i % grid.kernel_count;
      Point point;
      point.label = grid.labels[i];
      point.input = grid.KernelAt(k).id;
      point.cores = grid.CoresAt(i);
      point.init = kernels::SequoiaInit(grid.KernelAt(k));
      point.runner =
          std::make_unique<harness::KernelRunner>(parsed[k], point.init);
      points_.push_back(std::move(point));
    }
  }

  Report Measure() override {
    Report report;
    OpStats timing(points_.size(), options_.threads);
    double verified = 0;
    std::vector<double> pass_walls;
    std::vector<LayerRun> layer_runs;
    std::vector<double> idle_shares;
    double untraced_wall = 0.0;
    std::vector<std::string> reference;  // pass 0's payloads, by point
    std::vector<double> speedups;
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t pass = 0; KeepGoing(options_, pass, 2, start); ++pass) {
      const bool traced = TracedPass(options_, pass, 2);
      if (options_.threads == 1) {
        PinToCpu(pass);
      }
      PassResult result = RunPass(traced, pass, reference);
      if (pass == 0) {
        reference = result.payloads;
        for (const std::string& payload : reference) {
          if (!payload.empty()) {
            speedups.push_back(harness::DecodeKernelRun(payload).speedup);
          }
        }
      }
      if (options_.trace && !traced) {
        untraced_wall = result.wall;
        continue;
      }
      pass_walls.push_back(result.wall);
      for (std::size_t i = 0; i < points_.size(); ++i) {
        ++report.attempted;
        if (result.ok[i]) {
          ++verified;
          timing.Add(i, result.point_wall[i] * 1e3);
        } else {
          ++report.failed;
        }
      }
      idle_shares.push_back(
          1.0 - Sum(result.point_wall) /
                    (static_cast<double>(options_.threads) * result.wall));
      layer_runs.insert(layer_runs.end(), result.layer_runs.begin(),
                        result.layer_runs.end());
    }
    std::map<std::string, double>& m = report.metrics;
    if (!options_.trace) {
      timing.Fill(m);
      m["ok_share"] = verified / static_cast<double>(report.attempted);
      m["sim_speedup_geomean"] = GeoMean(speedups);
      return report;
    }
    AddKernelLayerMetrics(layer_runs, pass_walls.size(), m);
    AddParseMetric(sources_, tracer_, m);
    m["harness.sweep.idle_share"] = Median(idle_shares);
    AddJournalMetrics(reference, m);
    m["trace.overhead_ms"] = (Median(pass_walls) - untraced_wall) * 1e3;
    return report;
  }

 private:
  struct PassResult {
    std::vector<std::string> payloads;  // "" for failed points
    std::vector<char> ok;
    std::vector<double> point_wall;
    std::vector<LayerRun> layer_runs;
    double wall = 0.0;
  };

  harness::RunConfig ConfigFor(const Point& point) const {
    kernels::ExperimentConfig experiment;
    experiment.cores = point.cores;
    harness::RunConfig config = kernels::ToRunConfig(experiment);
    config.seed = kFig12Seed;
    return config;
  }

  PassResult RunPass(bool traced, std::size_t pass,
                     const std::vector<std::string>& reference) {
    const std::size_t n = points_.size();
    PassResult result;
    result.payloads.assign(n, "");
    result.ok.assign(n, 0);
    result.point_wall.assign(n, 0.0);
    std::vector<std::optional<LayerRun>> layer_runs(n);

    harness::SupervisorConfig supervision;
    supervision.name = "perfbench-sweep";
    for (const Point& point : points_) {
      supervision.labels.push_back(point.label);
    }
    supervision.sweep_threads = options_.threads;
    supervision.base_seed = kFig12Seed;
    supervision.failure_budget = n;
    supervision.checkpoint_path = options_.work_dir + "/sweep.ckpt";
    std::filesystem::remove(supervision.checkpoint_path);
    harness::SweepSupervisor supervisor(supervision);

    const auto body = [&](const harness::PointContext& ctx) -> std::string {
      const Point& point = points_[ctx.index];
      const harness::RunConfig config = ConfigFor(point);
      const std::uint64_t op = pass * n + ctx.index + 1;
      const auto t0 = std::chrono::steady_clock::now();
      std::string payload;
      if (!traced) {
        const harness::KernelRun run = point.runner->Run(config);
        if (run.fallback_used) {
          throw Error("parallel execution fell back to sequential: " +
                      run.failure_reason);
        }
        payload = harness::EncodeKernelRun(run);
      } else {
        Span span(&tracer_, "op", op);
        const LayerRun run =
            TracedKernelRun(*point.runner, point.init, config, tracer_, op);
        if (reference[ctx.index].empty()) {
          throw Error("decomposed run passed where KernelRunner::Run failed");
        }
        const harness::KernelRun expected =
            harness::DecodeKernelRun(reference[ctx.index]);
        if (run.seq_cycles != expected.seq_cycles ||
            run.par_cycles != expected.par_cycles) {
          throw Mismatch("decomposed run of " + point.label +
                         " disagrees with KernelRunner::Run");
        }
        layer_runs[ctx.index] = run;
        payload = reference[ctx.index];
      }
      result.point_wall[ctx.index] = Since(t0);
      return payload;
    };
    const auto pass_start = std::chrono::steady_clock::now();
    const harness::SweepOutcome outcome = supervisor.Run(body);
    result.wall = Since(pass_start);

    for (std::size_t i = 0; i < n; ++i) {
      if (outcome.completed[i]) {
        result.ok[i] = 1;
        result.payloads[i] = outcome.payloads[i];
      }
      if (layer_runs[i].has_value()) {
        result.layer_runs.push_back(*layer_runs[i]);
      }
    }
    for (const harness::PointFailure& failure : outcome.failures) {
      try {
        std::rethrow_exception(failure.exception);
      } catch (const harness::VerifyError& e) {
        throw Mismatch(failure.label + ": " + e.what());
      } catch (const Mismatch&) {
        throw;
      } catch (...) {
      }
      const Point& point = points_[failure.index];
      ledger_.Fail("sweep", point.input,
                   "cores=" + std::to_string(point.cores) +
                       " fig12 config (static select, verify on)",
                   failure.message);
    }
    return result;
  }

  /// Replays the pass's journal writes through SweepCheckpoint::RecordPoint
  /// (the call the supervisor makes per completed point), timing each call
  /// and summing the bytes each rewrite leaves on disk.
  void AddJournalMetrics(const std::vector<std::string>& payloads,
                         std::map<std::string, double>& m) {
    std::vector<std::string> labels;
    for (const Point& point : points_) {
      labels.push_back(point.label);
    }
    const std::string path = options_.work_dir + "/journal-replay.ckpt";
    std::vector<double> record_us;
    double bytes = 0;
    constexpr int kReplays = 3;
    for (int replay = 0; replay < kReplays; ++replay) {
      std::filesystem::remove(path);
      harness::SweepCheckpoint journal(
          path, "perfbench-sweep",
          harness::GridFingerprint("perfbench-sweep", labels));
      for (std::size_t i = 0; i < payloads.size(); ++i) {
        if (payloads[i].empty()) {
          continue;
        }
        const double t0 = Now();
        {
          Span span(&tracer_, "harness.journal.record", 0);
          journal.RecordPoint(i, payloads[i]);
        }
        record_us.push_back((Now() - t0) * 1e6);
        if (replay == 0) {
          bytes += static_cast<double>(std::filesystem::file_size(path));
        }
      }
    }
    m["harness.journal.record_us"] = Median(record_us);
    m["harness.journal.bytes"] = bytes;
  }

  const Options& options_;
  Ledger& ledger_;
  Tracer& tracer_;
  std::vector<Point> points_;
  std::vector<std::string> sources_;
};

}  // namespace

std::unique_ptr<Workload> MakeSweep(const Options& options, Ledger& ledger,
                                    Tracer& tracer) {
  return std::make_unique<Sweep>(options, ledger, tracer);
}

}  // namespace perfbench
