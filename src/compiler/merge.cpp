#include "compiler/merge.hpp"

#include <algorithm>
#include <set>
#include <tuple>

#include "support/error.hpp"

namespace fgpar::compiler {
namespace {

/// Working state: live nodes with merged attributes and dense node x node
/// edge-count matrices (row-major, indexed by original node number).
class Merger {
 public:
  Merger(const CodeGraph& graph, const CompileOptions& options)
      : options_(options),
        n_(graph.nodes.size()),
        edge_count_(n_ * n_, 0),
        directed_(n_ * n_, 0) {
    nodes_.reserve(n_);
    for (const GraphNode& node : graph.nodes) {
      nodes_.push_back(Live{node.stmts, node.cost, node.min_line,
                            node.compute_ops, /*alive=*/true});
    }
    for (const DepEdge& edge : graph.edges) {
      const int u = graph.NodeOf(edge.producer);
      const int v = graph.NodeOf(edge.consumer);
      if (u != v) {
        ++edge_count_[At(u, v)];
        ++edge_count_[At(v, u)];
        ++directed_[At(u, v)];
      }
    }
  }

  std::vector<MergedPartition> Run() {
    if (options_.throughput_heuristic) {
      CollapseCycles();
    }
    while (AliveCount() > options_.num_cores) {
      const int merges_this_step =
          options_.multi_pair_merge ? std::max(1, AliveCount() / 8) : 1;
      if (!MergeStep(merges_this_step)) {
        break;  // no candidate pair (degenerate); stop
      }
      if (options_.throughput_heuristic) {
        CollapseCycles();
      }
    }
    return Finish();
  }

 private:
  struct Live {
    std::vector<ir::StmtId> stmts;
    double cost;
    int min_line;
    int compute_ops;
    bool alive;
  };

  std::size_t At(int row, int col) const {
    return static_cast<std::size_t>(row) * n_ + static_cast<std::size_t>(col);
  }

  int AliveCount() const {
    int count = 0;
    for (const Live& node : nodes_) {
      count += node.alive ? 1 : 0;
    }
    return count;
  }

  double Affinity(int u, int v) const {
    const double edges = edge_count_[At(u, v)];
    const double combined_cost = nodes_[static_cast<std::size_t>(u)].cost +
                                 nodes_[static_cast<std::size_t>(v)].cost;
    const double line_dist =
        std::abs(nodes_[static_cast<std::size_t>(u)].min_line -
                 nodes_[static_cast<std::size_t>(v)].min_line);
    return options_.w_deps * edges +
           options_.w_cost * options_.cost_scale /
               (options_.cost_scale + combined_cost) +
           options_.w_prox * options_.line_scale /
               (options_.line_scale + line_dist);
  }

  /// Merges `v` into `u`.
  void Merge(int u, int v) {
    FGPAR_CHECK(u != v);
    Live& dst = nodes_[static_cast<std::size_t>(u)];
    Live& src = nodes_[static_cast<std::size_t>(v)];
    FGPAR_CHECK(dst.alive && src.alive);
    dst.stmts.insert(dst.stmts.end(), src.stmts.begin(), src.stmts.end());
    dst.cost += src.cost;
    dst.min_line = std::min(dst.min_line, src.min_line);
    dst.compute_ops += src.compute_ops;
    src.alive = false;

    // Re-point edges from v to u; edges between u and v vanish ("Any
    // dependence edges that may have existed between the two nodes being
    // merged no longer exist after the merge").
    for (int k = 0; k < static_cast<int>(n_); ++k) {
      if (k != u && k != v) {
        edge_count_[At(u, k)] += edge_count_[At(v, k)];
        edge_count_[At(k, u)] = edge_count_[At(u, k)];
        directed_[At(u, k)] += directed_[At(v, k)];
        directed_[At(k, u)] += directed_[At(k, v)];
      }
      edge_count_[At(v, k)] = edge_count_[At(k, v)] = 0;
      directed_[At(v, k)] = directed_[At(k, v)] = 0;
    }
    edge_count_[At(u, v)] = edge_count_[At(v, u)] = 0;
  }

  /// One merge step: merges up to `max_merges` disjoint best-affinity pairs.
  bool MergeStep(int max_merges) {
    struct Candidate {
      double affinity;
      int u, v;
    };
    std::vector<Candidate> candidates;
    std::vector<int> alive;
    double total_cost = 0.0;
    for (int i = 0; i < static_cast<int>(nodes_.size()); ++i) {
      if (nodes_[static_cast<std::size_t>(i)].alive) {
        alive.push_back(i);
        total_cost += nodes_[static_cast<std::size_t>(i)].cost;
      }
    }
    // Balance cap: a merged node should not exceed its fair share of the
    // total cost by more than the configured factor.
    const double cost_cap =
        options_.balance_cap * total_cost / std::max(1, options_.num_cores);
    auto gather = [&](bool capped) {
      for (std::size_t i = 0; i < alive.size(); ++i) {
        for (std::size_t j = i + 1; j < alive.size(); ++j) {
          const double combined = nodes_[static_cast<std::size_t>(alive[i])].cost +
                                  nodes_[static_cast<std::size_t>(alive[j])].cost;
          if (capped && combined > cost_cap) {
            continue;
          }
          candidates.push_back(
              Candidate{Affinity(alive[i], alive[j]), alive[i], alive[j]});
        }
      }
    };
    gather(/*capped=*/true);
    if (candidates.empty()) {
      gather(/*capped=*/false);  // must still converge to num_cores nodes
    }
    if (candidates.empty()) {
      return false;
    }
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const Candidate& a, const Candidate& b) {
                       if (a.affinity != b.affinity) {
                         return a.affinity > b.affinity;
                       }
                       return std::tie(a.u, a.v) < std::tie(b.u, b.v);
                     });
    std::vector<char> used(n_, 0);
    int merges = 0;
    const int allowed = std::min(max_merges, AliveCount() - options_.num_cores);
    for (const Candidate& c : candidates) {
      if (merges >= allowed) {
        break;
      }
      if (used[static_cast<std::size_t>(c.u)] ||
          used[static_cast<std::size_t>(c.v)]) {
        continue;
      }
      Merge(c.u, c.v);
      used[static_cast<std::size_t>(c.u)] = 1;
      used[static_cast<std::size_t>(c.v)] = 1;
      ++merges;
    }
    return merges > 0;
  }

  /// Collapses every dependence cycle among live nodes (Tarjan SCC over the
  /// directed dependence graph).
  void CollapseCycles() {
    for (;;) {
      const std::vector<std::vector<int>> sccs = FindSccs();
      bool merged_any = false;
      for (const std::vector<int>& scc : sccs) {
        if (scc.size() > 1) {
          for (std::size_t i = 1; i < scc.size(); ++i) {
            Merge(scc[0], scc[i]);
          }
          merged_any = true;
          break;  // edge counts changed; recompute SCCs
        }
      }
      if (!merged_any) {
        return;
      }
    }
  }

  std::vector<std::vector<int>> FindSccs() const {
    // Iterative Tarjan over alive nodes.
    const int n = static_cast<int>(n_);
    std::vector<std::vector<int>> adj(n_);
    for (int a = 0; a < n; ++a) {
      for (int b = 0; b < n; ++b) {
        if (directed_[At(a, b)] > 0 && nodes_[static_cast<std::size_t>(a)].alive &&
            nodes_[static_cast<std::size_t>(b)].alive) {
          adj[static_cast<std::size_t>(a)].push_back(b);
        }
      }
    }
    std::vector<int> index_of(n_, -1), lowlink(n_, 0);
    std::vector<char> on_stack(n_, 0);
    std::vector<int> stack;
    std::vector<std::vector<int>> sccs;
    int counter = 0;

    struct Frame {
      int node;
      std::size_t child = 0;
    };
    const auto visit = [&](int node) {
      index_of[static_cast<std::size_t>(node)] =
          lowlink[static_cast<std::size_t>(node)] = counter++;
      stack.push_back(node);
      on_stack[static_cast<std::size_t>(node)] = 1;
    };
    for (int start = 0; start < n; ++start) {
      if (!nodes_[static_cast<std::size_t>(start)].alive ||
          index_of[static_cast<std::size_t>(start)] >= 0) {
        continue;
      }
      std::vector<Frame> frames{{start}};
      visit(start);
      while (!frames.empty()) {
        Frame& frame = frames.back();
        const std::size_t node = static_cast<std::size_t>(frame.node);
        const std::vector<int>& edges = adj[node];
        if (frame.child < edges.size()) {
          const int next = edges[frame.child++];
          const std::size_t nx = static_cast<std::size_t>(next);
          if (index_of[nx] < 0) {
            visit(next);
            frames.push_back(Frame{next});
          } else if (on_stack[nx]) {
            lowlink[node] = std::min(lowlink[node], index_of[nx]);
          }
        } else {
          if (lowlink[node] == index_of[node]) {
            std::vector<int> scc;
            for (;;) {
              const int w = stack.back();
              stack.pop_back();
              on_stack[static_cast<std::size_t>(w)] = 0;
              scc.push_back(w);
              if (w == frame.node) {
                break;
              }
            }
            sccs.push_back(std::move(scc));
          }
          frames.pop_back();
          if (!frames.empty()) {
            const std::size_t parent =
                static_cast<std::size_t>(frames.back().node);
            lowlink[parent] = std::min(lowlink[parent], lowlink[node]);
          }
        }
      }
    }
    return sccs;
  }

  std::vector<MergedPartition> Finish() const {
    std::vector<MergedPartition> out;
    for (const Live& node : nodes_) {
      if (node.alive && !node.stmts.empty()) {
        out.push_back(MergedPartition{node.stmts, node.cost, node.compute_ops});
      }
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const MergedPartition& a, const MergedPartition& b) {
                       return a.cost > b.cost;
                     });
    return out;
  }

  const CompileOptions& options_;
  std::size_t n_;  // original node count: the matrices' dimension
  std::vector<Live> nodes_;
  std::vector<int> edge_count_;  // undirected (symmetric), for affinity
  std::vector<int> directed_;    // producer row -> consumer column, for SCCs
};

/// The node -> partition map of a partitioning built from whole code-graph
/// nodes (every candidate is: merges, cuts and refinement move nodes).
/// Nodes no partition covers map to -1.
std::vector<int> NodePartition(const CodeGraph& graph,
                               const std::vector<MergedPartition>& parts) {
  std::vector<int> node_part(graph.nodes.size(), -1);
  for (std::size_t p = 0; p < parts.size(); ++p) {
    for (ir::StmtId stmt : parts[p].stmts) {
      int& part = node_part[static_cast<std::size_t>(graph.NodeOf(stmt))];
      FGPAR_CHECK_MSG(part < 0 || part == static_cast<int>(p),
                      "partitioning splits a code-graph node");
      part = static_cast<int>(p);
    }
  }
  return node_part;
}

/// PartitionObjective over a node -> partition map, with each partition's
/// cost supplied by the caller.
std::tuple<double, int, double> NodeObjective(
    const CodeGraph& graph, const std::vector<int>& node_part,
    const std::vector<double>& part_cost, const CompileOptions& options) {
  const std::size_t num_parts = part_cost.size();
  // Cross-partition transfers at (producer node, consumer partition)
  // granularity — one queue transfer per iteration each.  Each one costs
  // its producer's partition an enqueue and its consumer's a dequeue.
  std::vector<char> cross(graph.nodes.size() * num_parts, 0);
  std::vector<char> reach(num_parts * num_parts, 0);
  std::vector<int> queue_ops(num_parts, 0);
  int transfers = 0;
  for (const DepEdge& edge : graph.edges) {
    const std::size_t producer =
        static_cast<std::size_t>(graph.NodeOf(edge.producer));
    const int pu = node_part[producer];
    const int pv = node_part[static_cast<std::size_t>(graph.NodeOf(edge.consumer))];
    FGPAR_CHECK_MSG(pu >= 0 && pv >= 0,
                    "dependence edge leaves the partitioned statements");
    if (pu != pv) {
      const std::size_t from = static_cast<std::size_t>(pu);
      const std::size_t to = static_cast<std::size_t>(pv);
      char& seen = cross[producer * num_parts + to];
      if (!seen) {
        seen = 1;
        ++transfers;
        ++queue_ops[from];
        ++queue_ops[to];
      }
      reach[from * num_parts + to] = 1;
    }
  }
  // Transitive closure -> SCCs of the partition digraph.  Every partition
  // on a dependence cycle pays one full round trip per iteration, because
  // the in-order core blocks in the dequeue that closes the cycle.
  for (std::size_t k = 0; k < num_parts; ++k) {
    for (std::size_t i = 0; i < num_parts; ++i) {
      if (!reach[i * num_parts + k]) {
        continue;
      }
      for (std::size_t j = 0; j < num_parts; ++j) {
        reach[i * num_parts + j] |= reach[k * num_parts + j];
      }
    }
  }
  const double hop = static_cast<double>(options.assumed_transfer_latency) + 1.0;

  double makespan = 0.0;
  double max_cost = 0.0;
  for (std::size_t p = 0; p < num_parts; ++p) {
    int scc_size = 1;
    for (std::size_t j = 0; j < num_parts; ++j) {
      if (j != p && reach[p * num_parts + j] && reach[j * num_parts + p]) {
        ++scc_size;
      }
    }
    const double cycle_penalty =
        scc_size > 1 ? static_cast<double>(scc_size) * hop : 0.0;
    makespan = std::max(makespan, part_cost[p] + cycle_penalty +
                                      static_cast<double>(queue_ops[p]));
    max_cost = std::max(max_cost, part_cost[p]);
  }
  return {makespan, transfers, max_cost};
}

}  // namespace

/// Partition-quality objective used for refinement and candidate selection:
/// an estimated per-iteration makespan.  A bidirectional dependence between
/// two partitions forces a round trip through the queues each iteration
/// that an in-order core cannot pipeline past, so it charges both sides
/// 2 * (assumed transfer latency + 1) cycles; one-way transfers pipeline
/// across iterations and are charged only a small per-transfer queue-op
/// cost.  Ties break on transfer count, then on raw max cost.
std::tuple<double, int, double> PartitionObjective(
    const CodeGraph& graph, const std::vector<MergedPartition>& parts,
    const CompileOptions& options) {
  std::vector<double> part_cost;
  part_cost.reserve(parts.size());
  for (const MergedPartition& part : parts) {
    part_cost.push_back(part.cost);
  }
  return NodeObjective(graph, NodePartition(graph, parts), part_cost, options);
}

namespace {

/// Alternative candidate: contiguous segments of a cost-balanced
/// topological order.  Edges between segments only ever point forward, so
/// the resulting pipeline is acyclic by construction (the DSWP-like shape).
std::vector<MergedPartition> TopoSegments(const CodeGraph& graph,
                                          const CompileOptions& options) {
  const int n = static_cast<int>(graph.nodes.size());
  std::vector<std::set<int>> succs(graph.nodes.size());
  std::vector<int> indegree(graph.nodes.size(), 0);
  for (const DepEdge& edge : graph.edges) {
    const int u = graph.NodeOf(edge.producer);
    const int v = graph.NodeOf(edge.consumer);
    if (u != v && succs[static_cast<std::size_t>(u)].insert(v).second) {
      ++indegree[static_cast<std::size_t>(v)];
    }
  }
  // Kahn's algorithm; ties broken by source order (min_line, index).
  std::vector<int> order;
  std::set<std::pair<int, int>> ready;  // (min_line, node)
  for (int i = 0; i < n; ++i) {
    if (indegree[static_cast<std::size_t>(i)] == 0) {
      ready.insert({graph.nodes[static_cast<std::size_t>(i)].min_line, i});
    }
  }
  while (!ready.empty()) {
    const int node = ready.begin()->second;
    ready.erase(ready.begin());
    order.push_back(node);
    for (int next : succs[static_cast<std::size_t>(node)]) {
      if (--indegree[static_cast<std::size_t>(next)] == 0) {
        ready.insert({graph.nodes[static_cast<std::size_t>(next)].min_line, next});
      }
    }
  }
  if (static_cast<int>(order.size()) != n) {
    return {};  // unexpected cycle at node level; no topo candidate
  }
  double total = 0.0;
  for (const GraphNode& node : graph.nodes) {
    total += node.cost;
  }
  std::vector<MergedPartition> parts;
  MergedPartition current;
  double remaining = total;
  int segments_left = options.num_cores;
  for (int node : order) {
    const GraphNode& gn = graph.nodes[static_cast<std::size_t>(node)];
    const double target = remaining / segments_left;
    if (segments_left > 1 && !current.stmts.empty() &&
        current.cost + gn.cost / 2.0 > target) {
      remaining -= current.cost;
      parts.push_back(std::move(current));
      current = MergedPartition{};
      --segments_left;
    }
    current.stmts.insert(current.stmts.end(), gn.stmts.begin(), gn.stmts.end());
    current.cost += gn.cost;
    current.compute_ops += gn.compute_ops;
  }
  if (!current.stmts.empty()) {
    parts.push_back(std::move(current));
  }
  return parts;
}

}  // namespace

/// Directed sender->receiver channels a partitioning needs: loop transfers
/// (one per cross-partition dependence direction) plus, for every partition
/// other than the primary (the most expensive one after sorting), the
/// dispatch/argument channel from the primary and the live-out/completion
/// channel back — the Section III-G protocol traffic.
int ChannelsUsed(const CodeGraph& graph, const std::vector<MergedPartition>& parts) {
  const std::vector<int> node_part = NodePartition(graph, parts);
  const std::size_t num_parts = parts.size();
  std::vector<char> channel(num_parts * num_parts, 0);
  for (std::size_t p = 1; p < num_parts; ++p) {
    channel[p] = 1;              // dispatch + args: primary -> p
    channel[p * num_parts] = 1;  // completion + live-outs: p -> primary
  }
  for (const DepEdge& edge : graph.edges) {
    const int pu = node_part[static_cast<std::size_t>(graph.NodeOf(edge.producer))];
    const int pv = node_part[static_cast<std::size_t>(graph.NodeOf(edge.consumer))];
    FGPAR_CHECK_MSG(pu >= 0 && pv >= 0,
                    "dependence edge leaves the partitioned statements");
    if (pu != pv) {
      channel[static_cast<std::size_t>(pu) * num_parts +
              static_cast<std::size_t>(pv)] = 1;
    }
  }
  return static_cast<int>(std::count(channel.begin(), channel.end(), 1));
}

std::vector<std::vector<MergedPartition>> EnumerateCandidates(
    const CodeGraph& graph, const CompileOptions& options) {
  FGPAR_CHECK_MSG(options.num_cores >= 1, "num_cores must be >= 1");
  std::vector<std::vector<MergedPartition>> candidates;
  std::set<std::vector<std::vector<ir::StmtId>>> seen;
  auto add = [&](std::vector<MergedPartition> parts) {
    if (parts.empty()) {
      return;
    }
    if (options.max_channels > 0 &&
        ChannelsUsed(graph, parts) > options.max_channels) {
      return;  // exceeds the hardware queue budget
    }
    std::stable_sort(parts.begin(), parts.end(),
                     [](const MergedPartition& a, const MergedPartition& b) {
                       return a.cost > b.cost;
                     });
    std::vector<std::vector<ir::StmtId>> key;
    for (MergedPartition& p : parts) {
      std::sort(p.stmts.begin(), p.stmts.end());
      key.push_back(p.stmts);
    }
    std::sort(key.begin(), key.end());
    if (seen.insert(std::move(key)).second) {
      candidates.push_back(std::move(parts));
    }
  };

  if (options.throughput_heuristic) {
    // The ablation keeps the paper's exact variant: affinity merge with
    // cycle collapsing, at the requested core count.
    add(RefinePartitions(graph, Merger(graph, options).Run(), options));
  } else {
    for (int target = std::min(2, options.num_cores);
         target <= options.num_cores; ++target) {
      CompileOptions sub = options;
      sub.num_cores = target;
      add(RefinePartitions(graph, Merger(graph, sub).Run(), sub));
      std::vector<MergedPartition> topo = TopoSegments(graph, sub);
      if (!topo.empty()) {
        add(RefinePartitions(graph, std::move(topo), sub));
      }
    }
  }
  if (candidates.empty()) {
    // The queue budget rejected every multi-partition shape: fall back to a
    // single partition (sequential on the primary core, zero queues).
    MergedPartition all;
    for (const GraphNode& node : graph.nodes) {
      all.stmts.insert(all.stmts.end(), node.stmts.begin(), node.stmts.end());
      all.cost += node.cost;
      all.compute_ops += node.compute_ops;
    }
    candidates.push_back({std::move(all)});
  }
  FGPAR_CHECK_MSG(!candidates.empty(), "no partitioning candidate produced");
  return candidates;
}

std::vector<MergedPartition> MergeGraph(const CodeGraph& graph,
                                        const CompileOptions& options) {
  std::vector<std::vector<MergedPartition>> candidates =
      EnumerateCandidates(graph, options);
  std::size_t best = 0;
  auto best_score = PartitionObjective(graph, candidates[0], options);
  for (std::size_t i = 1; i < candidates.size(); ++i) {
    const auto score = PartitionObjective(graph, candidates[i], options);
    if (score < best_score) {
      best = i;
      best_score = score;
    }
  }
  return std::move(candidates[best]);
}

std::vector<MergedPartition> RefinePartitions(const CodeGraph& graph,
                                              std::vector<MergedPartition> parts,
                                              const CompileOptions& options) {
  if (parts.size() < 2) {
    return parts;
  }
  const int num_parts = static_cast<int>(parts.size());
  const std::size_t n = graph.nodes.size();

  // Recover the original (pre-merge) node granularity: fused statements
  // must move together, so moves operate on graph nodes (-1 = uncovered).
  std::vector<int> part_of_node(n, -1);
  for (int p = 0; p < num_parts; ++p) {
    for (ir::StmtId stmt : parts[static_cast<std::size_t>(p)].stmts) {
      part_of_node[static_cast<std::size_t>(graph.NodeOf(stmt))] = p;
    }
  }
  // Node-level dependence neighbours, either direction.
  std::vector<std::vector<int>> neighbours(n);
  for (const DepEdge& edge : graph.edges) {
    const int u = graph.NodeOf(edge.producer);
    const int v = graph.NodeOf(edge.consumer);
    if (u != v) {
      neighbours[static_cast<std::size_t>(u)].push_back(v);
      neighbours[static_cast<std::size_t>(v)].push_back(u);
    }
  }

  // Per-partition cost, summed in ascending node order.
  const auto costs_of = [&](const std::vector<int>& assignment) {
    std::vector<double> cost(static_cast<std::size_t>(num_parts), 0.0);
    for (std::size_t node = 0; node < n; ++node) {
      if (assignment[node] >= 0) {
        cost[static_cast<std::size_t>(assignment[node])] += graph.nodes[node].cost;
      }
    }
    return cost;
  };
  std::vector<double> part_cost = costs_of(part_of_node);
  double total_cost = 0.0;
  for (std::size_t node = 0; node < n; ++node) {
    if (part_of_node[node] >= 0) {
      total_cost += graph.nodes[node].cost;
    }
  }
  const double cost_cap =
      options.balance_cap * total_cost / std::max(1, options.num_cores);

  // Objective: estimated per-iteration makespan (see PartitionObjective);
  // evaluated here on the working node assignment.  Costs are re-summed
  // from scratch (not taken from the running part_cost) so every
  // evaluation adds in the same order a rebuilt partitioning would.
  auto evaluate = [&]() {
    return NodeObjective(graph, part_of_node, costs_of(part_of_node), options);
  };

  for (int round = 0; round < 40; ++round) {
    const auto baseline = evaluate();
    bool improved = false;
    // Candidate moves: any node with a cross-partition edge.
    for (std::size_t node = 0; node < n && !improved; ++node) {
      const int from = part_of_node[node];
      if (from < 0) {
        continue;
      }
      const bool boundary = std::any_of(
          neighbours[node].begin(), neighbours[node].end(), [&](int other) {
            return part_of_node[static_cast<std::size_t>(other)] != from;
          });
      if (!boundary || std::count(part_of_node.begin(), part_of_node.end(),
                                  from) <= 1) {
        continue;
      }
      const double node_cost = graph.nodes[node].cost;
      for (int to = 0; to < num_parts; ++to) {
        if (to == from ||
            part_cost[static_cast<std::size_t>(to)] + node_cost > cost_cap) {
          continue;
        }
        part_of_node[node] = to;
        part_cost[static_cast<std::size_t>(from)] -= node_cost;
        part_cost[static_cast<std::size_t>(to)] += node_cost;
        if (evaluate() < baseline) {
          improved = true;
          break;  // keep the move
        }
        part_of_node[node] = from;  // revert
        part_cost[static_cast<std::size_t>(from)] += node_cost;
        part_cost[static_cast<std::size_t>(to)] -= node_cost;
      }
    }
    if (!improved) {
      break;
    }
  }

  // Rebuild partitions from the refined assignment.
  std::vector<MergedPartition> out(static_cast<std::size_t>(num_parts));
  for (std::size_t node = 0; node < n; ++node) {
    if (part_of_node[node] < 0) {
      continue;
    }
    MergedPartition& part = out[static_cast<std::size_t>(part_of_node[node])];
    const GraphNode& gn = graph.nodes[node];
    part.stmts.insert(part.stmts.end(), gn.stmts.begin(), gn.stmts.end());
    part.cost += gn.cost;
    part.compute_ops += gn.compute_ops;
  }
  std::erase_if(out, [](const MergedPartition& p) { return p.stmts.empty(); });
  std::stable_sort(out.begin(), out.end(),
                   [](const MergedPartition& a, const MergedPartition& b) {
                     return a.cost > b.cost;
                   });
  return out;
}

}  // namespace fgpar::compiler
