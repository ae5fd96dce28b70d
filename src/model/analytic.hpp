// The analytical latency-hiding speedup predictor (ROADMAP item 5).
//
// The paper evaluates every candidate partitioning by full simulation
// (Section III-I.1).  This model predicts per-iteration execution time
// from static features alone — the Table III catalog the compiler already
// computes (analysis::ExtractPartitionFeatures): per-partition compute
// cost, queue-op occupancy, cross-partition transfer counts, and cyclic
// inter-partition dependences.  In the spirit of the MLIR latency-hiding
// analysis (PAPERS.md), steady-state time is the max of two bounds:
//
//   * the throughput bound — the bottleneck partition's compute plus its
//     enqueue/dequeue pipeline occupancy (one-way transfers overlap with
//     compute: the consumer dequeues values the producer enqueued several
//     iterations ago, bounded by queue capacity);
//   * the serialization bound — partitions on a dependence cycle cannot
//     pipeline past each other: each iteration pays the cycle members'
//     compute plus a full transfer round trip per intra-cycle channel.
//
// Predicted speedup is the sequential per-iteration cost over that time;
// both sides carry the same per-iteration loop overhead so the ratio
// stays honest for small kernels.  The same math backs two consumers:
//
//   * AnalyticModel — a compiler::CostModel for the select stage
//     (`fgparc --cost-model analytic`), scoring candidates with zero
//     simulation;
//   * PredictKernel — the whole-kernel entry the autotuner and the
//     predictor-vs-simulated cross-validation bench use: run the rewrite
//     front half, merge statically, predict the chosen candidate.
#pragma once

#include <cstdint>
#include <exception>
#include <optional>
#include <vector>

#include "analysis/cost.hpp"
#include "analysis/profile.hpp"
#include "compiler/compile.hpp"
#include "compiler/cost_model.hpp"
#include "compiler/graph.hpp"
#include "compiler/merge.hpp"
#include "compiler/options.hpp"
#include "ir/kernel.hpp"
#include "ir/layout.hpp"

namespace fgpar::model {

/// Calibration constants.  Defaults mirror the simulator's hardware model
/// (sim/config.hpp): queue ops occupy one issue slot, transfers pay the
/// configured latency, and every iteration pays the loop bookkeeping
/// (induction bump + backedge).
struct AnalyticParams {
  double queue_op_cost = 1.0;
  double transfer_latency = 5.0;
  double loop_overhead = 2.0;

  /// Derives the parameters a compile's options imply.
  static AnalyticParams FromOptions(const compiler::CompileOptions& options);

  /// Parameters for execution-granularity costing (StmtOccupancy): the
  /// loop overhead grows to the full bookkeeping an iteration issues —
  /// induction bump, bound compare, taken backedge.
  static AnalyticParams ExecFromOptions(const compiler::CompileOptions& options);
};

struct Prediction {
  double sequential_cost = 0.0;  // per-iteration cycles on one core
  double parallel_cost = 0.0;    // predicted per-iteration cycles, partitioned
  double speedup = 1.0;          // sequential_cost / parallel_cost (overheads in)
  analysis::PartitionFeatures features;
};

/// The shared math: predicts from a feature vector.
Prediction PredictFromFeatures(const analysis::PartitionFeatures& features,
                               const AnalyticParams& params);

/// Builds the analysis-layer node/partition view of one candidate.
analysis::PartitionGraph BuildPartitionGraph(
    const compiler::CodeGraph& graph,
    const std::vector<compiler::MergedPartition>& partitions);

/// Predicts one candidate partitioning of an already-built code graph.
Prediction PredictCandidate(const compiler::CodeGraph& graph,
                            const std::vector<compiler::MergedPartition>& parts,
                            const AnalyticParams& params);

/// Whole-kernel prediction: applies the rewrite front half (split,
/// optional speculation, forwarding, fiberize), builds the code graph with
/// `profile` feedback (null = static L1 latencies), merges statically —
/// exactly the candidate a default (non-tuning) compile selects — and
/// predicts its speedup.  No lowering, no simulation.
Prediction PredictKernel(const ir::Kernel& kernel,
                         const compiler::CompileOptions& options,
                         const analysis::ProfileData* profile);

/// Workload-grounded whole-kernel prediction — the accurate variant the
/// autotuner and the cross-validation bench use (through
/// harness::KernelRunner).  Picks the identical candidate PredictKernel
/// picks (same rewrite + static merge trained on `merge_profile`, the
/// original-kernel per-symbol profile a compile feeds its heuristics), but
/// costs it at execution granularity:
///
///   * node costs come from analysis::CostModel::StmtOccupancy — issue
///     cycles included — with loads resolved against a per-statement
///     profile of the REWRITTEN kernel, so dead code the pipeline removed
///     does not inflate (or warm the cache for) the parallel side;
///   * the sequential baseline is the speculation-free rewrite's
///     per-iteration occupancy under its own per-statement profile — dead
///     statements still execute sequentially and must be paid for there.
///
/// Everything but the merge is a function of the kernel, the workload and
/// the speculation value, so the constructor computes it once: per
/// requested speculation value the rewritten kernel's code graph and
/// per-node occupancy, plus the sequential baseline.  Predict then merges
/// and costs one point.  `layout`/`params`/`image` describe the prepared
/// workload (the same inputs KernelRunner interprets); layout and params
/// are keyed by symbol id, which every rewrite pass preserves.  The object
/// is read-only after construction, so threads may share it.
class WorkloadPredictor {
 public:
  WorkloadPredictor(const ir::Kernel& kernel,
                    const compiler::CompileOptions& options,
                    const analysis::ProfileData* merge_profile,
                    const ir::DataLayout& layout, const ir::ParamEnv& params,
                    const std::vector<std::uint64_t>& image,
                    const sim::CacheConfig& cache,
                    const std::vector<bool>& speculation);

  /// Predicts the candidate a compile under `options` selects.  `options`
  /// must agree with the construction options on everything the rewrite
  /// and the code graph read (max_expr_depth, use_profile), and its
  /// speculation value must be one the constructor prepared.  An error the
  /// shared work raised is rethrown here, where a one-shot prediction
  /// would have raised it.
  Prediction Predict(const compiler::CompileOptions& options) const;

 private:
  struct Rewrite {
    std::exception_ptr error;  // set when rewriting or profiling threw
    compiler::CodeGraph graph;
    std::vector<double> node_occupancy;  // execution-granularity node costs
  };

  int max_expr_depth_;
  bool use_profile_;
  std::exception_ptr sequential_error_;
  double sequential_occupancy_ = 0.0;  // per iteration, loop overhead out
  std::optional<Rewrite> rewrites_[2];  // by speculation value
};

/// The select-stage cost model: scores each built candidate at its
/// predicted per-iteration parallel cost (lower wins), so multi-version
/// selection runs with zero training simulations.
class AnalyticModel final : public compiler::CostModel {
 public:
  std::string_view name() const override { return "analytic"; }
  compiler::ScoredCandidate Score(
      const compiler::CompileState& state, const isa::Program& program,
      const compiler::ProgramPlan& plan,
      const compiler::CoreAssignment& assignment) const override;
};

}  // namespace fgpar::model
