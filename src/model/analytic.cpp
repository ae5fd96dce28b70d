#include "model/analytic.hpp"

#include <algorithm>
#include <cstdio>
#include <functional>

#include "analysis/index.hpp"
#include "compiler/partition.hpp"
#include "support/error.hpp"

namespace fgpar::model {

namespace {

/// Deterministic two-decimal rendering for explanation lines.
std::string Fixed2(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.2f", value);
  return buffer;
}

}  // namespace

AnalyticParams AnalyticParams::FromOptions(
    const compiler::CompileOptions& options) {
  AnalyticParams params;
  params.transfer_latency =
      static_cast<double>(options.assumed_transfer_latency);
  const sim::CoreTiming timing{};
  params.queue_op_cost = static_cast<double>(timing.queue_op);
  params.loop_overhead =
      static_cast<double>(timing.int_alu + timing.branch);
  return params;
}

AnalyticParams AnalyticParams::ExecFromOptions(
    const compiler::CompileOptions& options) {
  AnalyticParams params = FromOptions(options);
  const sim::CoreTiming timing{};
  // Induction bump + bound compare + taken backedge, every iteration.
  params.loop_overhead = static_cast<double>(
      2 * timing.int_alu + timing.branch + timing.taken_branch_penalty);
  return params;
}

Prediction PredictFromFeatures(const analysis::PartitionFeatures& features,
                               const AnalyticParams& params) {
  Prediction prediction;
  prediction.features = features;
  prediction.sequential_cost = features.total_cost + params.loop_overhead;
  if (features.partitions <= 1 || features.total_cost <= 0.0) {
    prediction.parallel_cost = prediction.sequential_cost;
    prediction.speedup = 1.0;
    return prediction;
  }
  // Steady-state per-iteration time: the throughput bound (bottleneck
  // partition's compute + queue-op occupancy; one-way transfers overlap
  // across pipelined iterations) or the serialization bound (partitions on
  // a dependence cycle pay their compute plus a round trip every
  // iteration), whichever binds.
  const double steady =
      std::max(features.bottleneck_cost, features.cycle_penalty);
  prediction.parallel_cost = steady + params.loop_overhead;
  prediction.speedup = prediction.sequential_cost / prediction.parallel_cost;
  return prediction;
}

analysis::PartitionGraph BuildPartitionGraph(
    const compiler::CodeGraph& graph,
    const std::vector<compiler::MergedPartition>& partitions) {
  std::vector<int> part_of;  // by statement id; -1 = in no partition
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    for (ir::StmtId stmt : partitions[p].stmts) {
      if (static_cast<std::size_t>(stmt) >= part_of.size()) {
        part_of.resize(static_cast<std::size_t>(stmt) + 1, -1);
      }
      part_of[static_cast<std::size_t>(stmt)] = static_cast<int>(p);
    }
  }
  analysis::PartitionGraph out;
  out.node_cost.reserve(graph.nodes.size());
  out.node_part.reserve(graph.nodes.size());
  for (const compiler::GraphNode& node : graph.nodes) {
    out.node_cost.push_back(node.cost);
    FGPAR_CHECK_MSG(!node.stmts.empty(), "code-graph node with no statements");
    const std::size_t front = static_cast<std::size_t>(node.stmts.front());
    FGPAR_CHECK_MSG(front < part_of.size() && part_of[front] >= 0,
                    "code-graph node not covered by the candidate partitioning");
    out.node_part.push_back(part_of[front]);
  }
  for (const compiler::DepEdge& edge : graph.edges) {
    const int u = graph.NodeOf(edge.producer);
    const int v = graph.NodeOf(edge.consumer);
    if (u != v) {
      out.edges.push_back({u, v});
    }
  }
  return out;
}

Prediction PredictCandidate(const compiler::CodeGraph& graph,
                            const std::vector<compiler::MergedPartition>& parts,
                            const AnalyticParams& params) {
  const analysis::PartitionGraph view = BuildPartitionGraph(graph, parts);
  const analysis::PartitionFeatures features = analysis::ExtractPartitionFeatures(
      view, params.transfer_latency, params.queue_op_cost);
  return PredictFromFeatures(features, params);
}

Prediction PredictKernel(const ir::Kernel& kernel,
                         const compiler::CompileOptions& options,
                         const analysis::ProfileData* profile) {
  compiler::PartitionResult rewritten(kernel);
  compiler::ApplyRewritePasses(rewritten, options);
  const analysis::KernelIndex index(rewritten.kernel);
  const analysis::CostModel cost(sim::CoreTiming{}, sim::CacheConfig{},
                                 options.use_profile ? profile : nullptr);
  const compiler::CodeGraph graph = compiler::BuildCodeGraph(index, cost);
  const std::vector<compiler::MergedPartition> chosen =
      compiler::MergeGraph(graph, options);
  return PredictCandidate(graph, chosen, AnalyticParams::FromOptions(options));
}

WorkloadPredictor::WorkloadPredictor(
    const ir::Kernel& kernel, const compiler::CompileOptions& options,
    const analysis::ProfileData* merge_profile, const ir::DataLayout& layout,
    const ir::ParamEnv& params, const std::vector<std::uint64_t>& image,
    const sim::CacheConfig& cache, const std::vector<bool>& speculation)
    : max_expr_depth_(options.max_expr_depth),
      use_profile_(options.use_profile) {
  for (const bool spec : speculation) {
    rewrites_[spec ? 1 : 0].emplace();
  }
  const sim::CoreTiming timing{};
  for (const bool spec : {false, true}) {
    std::optional<Rewrite>& rewrite = rewrites_[spec ? 1 : 0];
    if (spec && !rewrite.has_value()) {
      continue;  // the speculation-free rewrite always serves the baseline
    }
    try {
      // The rewrite front half reads only speculation and max_expr_depth,
      // so one rewrite serves every point with this speculation value.
      compiler::CompileOptions rewrite_options = options;
      rewrite_options.speculation = spec;
      compiler::PartitionResult rewritten(kernel);
      compiler::ApplyRewritePasses(rewritten, rewrite_options);
      const analysis::KernelIndex index(rewritten.kernel);
      // Execution profile at per-statement granularity of the code that
      // actually runs (the rewritten kernel: dead statements are gone on
      // both sides — the sequential pipeline applies the same scalar
      // rewrites).
      const analysis::ProfileData profile = analysis::ProfileData::Collect(
          rewritten.kernel, layout, params, image, cache);
      const analysis::CostModel exec_cost(timing, cache, &profile);
      if (rewrite.has_value()) {
        // The candidate the compile will pick is merged over this graph,
        // trained on the same profile the compiler trains on.
        const analysis::CostModel merge_cost(
            timing, cache, options.use_profile ? merge_profile : nullptr);
        rewrite->graph = compiler::BuildCodeGraph(index, merge_cost);
        // Execution-granularity node costs — frequency-weighted, so
        // rarely-taken conditional arms charge their taken fraction.
        for (const compiler::GraphNode& node : rewrite->graph.nodes) {
          double occupancy = 0.0;
          for (ir::StmtId id : node.stmts) {
            occupancy += profile.StmtFrequency(id) *
                         exec_cost.StmtOccupancy(rewritten.kernel,
                                                 *index.ByStmtId(id).stmt);
          }
          rewrite->node_occupancy.push_back(occupancy);
        }
      }
      if (!spec) {
        // Sequential baseline: the same live statements on one core, with
        // one cache serving every access.
        const std::function<double(const std::vector<ir::Stmt>&)>
            body_occupancy = [&](const std::vector<ir::Stmt>& body) {
              double total = 0.0;
              for (const ir::Stmt& stmt : body) {
                total += profile.StmtFrequency(stmt.id) *
                         exec_cost.StmtOccupancy(rewritten.kernel, stmt);
                if (stmt.kind == ir::StmtKind::kIf) {
                  total += body_occupancy(stmt.then_body);
                  total += body_occupancy(stmt.else_body);
                }
              }
              return total;
            };
        sequential_occupancy_ = body_occupancy(rewritten.kernel.loop().body);
      }
    } catch (const Error&) {
      if (rewrite.has_value()) {
        rewrite->error = std::current_exception();
      }
      if (!spec) {
        sequential_error_ = std::current_exception();
      }
    }
  }
}

Prediction WorkloadPredictor::Predict(
    const compiler::CompileOptions& options) const {
  FGPAR_CHECK_MSG(options.max_expr_depth == max_expr_depth_ &&
                      options.use_profile == use_profile_,
                  "prediction options disagree with the predictor's rewrite");
  const std::optional<Rewrite>& rewrite =
      rewrites_[options.speculation ? 1 : 0];
  FGPAR_CHECK_MSG(rewrite.has_value(),
                  "predictor was not prepared for this speculation value");
  if (rewrite->error) {
    std::rethrow_exception(rewrite->error);
  }
  const std::vector<compiler::MergedPartition> chosen =
      compiler::MergeGraph(rewrite->graph, options);
  if (sequential_error_) {
    std::rethrow_exception(sequential_error_);
  }
  // Cost the chosen candidate at execution granularity before extracting
  // the feature vector the steady-state bounds come from.
  analysis::PartitionGraph view = BuildPartitionGraph(rewrite->graph, chosen);
  view.node_cost = rewrite->node_occupancy;

  const AnalyticParams exec = AnalyticParams::ExecFromOptions(options);
  const analysis::PartitionFeatures features =
      analysis::ExtractPartitionFeatures(view, exec.transfer_latency,
                                         exec.queue_op_cost);
  Prediction prediction = PredictFromFeatures(features, exec);
  prediction.sequential_cost = sequential_occupancy_ + exec.loop_overhead;
  if (features.partitions > 1 && prediction.parallel_cost > 0.0) {
    prediction.speedup =
        prediction.sequential_cost / prediction.parallel_cost;
  }
  return prediction;
}

compiler::ScoredCandidate AnalyticModel::Score(
    const compiler::CompileState& state, const isa::Program& program,
    const compiler::ProgramPlan& plan,
    const compiler::CoreAssignment& assignment) const {
  (void)program;
  (void)plan;
  FGPAR_CHECK_MSG(state.graph.has_value(),
                  "analytic cost model requires the graph stage");
  // Rebuild the candidate's partition view from the core assignment (the
  // select stage hands us the assignment, not the MergedPartition list;
  // the mapping is the same statement -> partition function).
  std::vector<compiler::MergedPartition> parts(assignment.partitions.size());
  for (std::size_t p = 0; p < assignment.partitions.size(); ++p) {
    parts[p].stmts = assignment.partitions[p];
  }
  const AnalyticParams params = AnalyticParams::FromOptions(state.options);
  const Prediction prediction =
      PredictCandidate(*state.graph, parts, params);
  compiler::ScoredCandidate scored;
  scored.cost = prediction.parallel_cost;
  scored.detail = "predicted " + Fixed2(prediction.parallel_cost) +
                  " cycles/iter (seq " + Fixed2(prediction.sequential_cost) +
                  ", speedup " + Fixed2(prediction.speedup) + ")";
  const analysis::PartitionFeatures& f = prediction.features;
  scored.features = {
      {"partitions", static_cast<double>(f.partitions)},
      {"total_cost", f.total_cost},
      {"max_part_cost", f.max_part_cost},
      {"balance_ratio", f.balance_ratio},
      {"transfers", static_cast<double>(f.transfers)},
      {"queue_cost_max", f.queue_cost_max},
      {"bottleneck_cost", f.bottleneck_cost},
      {"critical_path", f.critical_path},
      {"scc_partitions", static_cast<double>(f.scc_partitions)},
      {"cycle_penalty", f.cycle_penalty},
      {"predicted_speedup", prediction.speedup},
  };
  return scored;
}

}  // namespace fgpar::model
