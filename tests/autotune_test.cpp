// Tests for the deterministic per-kernel autotuner (harness/autotune.*):
// space enumeration, knob application, the predict-rank-simulate-choose
// loop's frontier discipline and never-worse guarantee, agreement with an
// exhaustive simulation on a golden space, the fgpar-tune-v1 codec, and
// the tune session (harness::KernelSession) the loop runs on: its
// predictions equal one-shot ones, capacity never reaches them, thread
// count never changes the artifact, and a config that disagrees with the
// session is refused.
#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "harness/autotune.hpp"
#include "kernels/sequoia.hpp"
#include "support/error.hpp"

namespace {

using namespace fgpar;

const kernels::SequoiaKernel& KernelById(const std::string& id) {
  for (const kernels::SequoiaKernel& spec : kernels::SequoiaKernels()) {
    if (spec.id == id) {
      return spec;
    }
  }
  throw Error("no such sequoia kernel: " + id);
}

TEST(TuneSpace, EnumerateIsFixedOrderCompleteAndDuplicateFree) {
  const harness::TuneSpace space;
  const std::vector<harness::TunePoint> points = space.Enumerate();
  // 3 core counts x 3 capacities x 3 merges x 2 speculation = 54.
  ASSERT_EQ(points.size(), 54u);
  // Nested order: cores, then capacities, then merges, then speculation.
  EXPECT_EQ(points.front(), (harness::TunePoint{2, 4, false, 0}));
  EXPECT_EQ(points[1], (harness::TunePoint{2, 4, true, 0}));
  EXPECT_EQ(points[2], (harness::TunePoint{2, 4, false, 1}));
  EXPECT_EQ(points.back(), (harness::TunePoint{4, 20, true, 2}));
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::size_t j = i + 1; j < points.size(); ++j) {
      EXPECT_FALSE(points[i] == points[j]) << i << " duplicates " << j;
    }
  }
}

TEST(TuneSpace, MergeShapeNamesRoundTripAndRejectUnknown) {
  EXPECT_EQ(harness::MergeShapeName(0), "affinity");
  EXPECT_EQ(harness::MergeShapeName(1), "multi_pair");
  EXPECT_EQ(harness::MergeShapeName(2), "throughput");
  for (int merge = 0; merge < 3; ++merge) {
    EXPECT_EQ(harness::MergeShapeFromName(harness::MergeShapeName(merge)),
              merge);
  }
  EXPECT_THROW(harness::MergeShapeName(3), Error);
  EXPECT_THROW(harness::MergeShapeFromName("fastest"), Error);
  harness::TunePoint point;
  point.cores = 4;
  point.queue_capacity = 20;
  point.speculation = true;
  point.merge = 2;
  EXPECT_EQ(harness::TunePointLabel(point), "c4 q20 spec=1 merge=throughput");
}

TEST(TuneSpace, ApplyTunePointMapsEveryKnob) {
  harness::TunePoint point;
  point.cores = 3;
  point.queue_capacity = 8;
  point.speculation = true;
  point.merge = 2;
  const harness::RunConfig config =
      harness::ApplyTunePoint(harness::RunConfig{}, point);
  EXPECT_EQ(config.compile.num_cores, 3);
  EXPECT_TRUE(config.compile.speculation);
  EXPECT_FALSE(config.compile.multi_pair_merge);
  EXPECT_TRUE(config.compile.throughput_heuristic);
  EXPECT_EQ(config.queue.capacity, 8);
  EXPECT_EQ(config.compile.assumed_queue_capacity, 8);

  point.merge = 1;
  const harness::RunConfig multi =
      harness::ApplyTunePoint(harness::RunConfig{}, point);
  EXPECT_TRUE(multi.compile.multi_pair_merge);
  EXPECT_FALSE(multi.compile.throughput_heuristic);
}

TEST(Autotune, SimulatesOnlyTheFrontierAndNeverLosesToDefault) {
  const kernels::SequoiaKernel& spec = KernelById("umt2k-2");
  const harness::TuneSpace space;  // 54 points
  harness::TuneOptions options;
  options.sweep_threads = 1;
  const harness::TuneResult result = harness::AutotuneKernel(
      kernels::ParseSequoia(spec), kernels::SequoiaInit(spec), space, options);

  EXPECT_EQ(result.enumerated, 54u);
  // Frontier bound: max(1, floor(0.25 * 54)) = 13, default included.
  EXPECT_EQ(result.frontier_size, 13u);
  EXPECT_LE(result.simulated, result.frontier_size);
  std::size_t simulated = 0;
  for (const harness::TuneCandidate& candidate : result.candidates) {
    simulated += candidate.simulated ? 1 : 0;
    if (!candidate.simulated) {
      EXPECT_EQ(candidate.simulated_speedup, 0.0);
    }
  }
  EXPECT_EQ(simulated, result.simulated);
  EXPECT_LE(4 * simulated, result.enumerated + 4);  // the <= 25% contract

  // The default anchors the never-worse guarantee: always simulated, only
  // beaten by a strictly faster simulated point.
  EXPECT_TRUE(result.candidates[result.default_index].simulated);
  EXPECT_TRUE(result.candidates[result.best_index].simulated);
  EXPECT_GE(result.best_speedup, result.default_speedup);
  EXPECT_EQ(harness::BestPoint(result),
            result.candidates[result.best_index].point);
}

TEST(Autotune, FrontierFindsTheExhaustiveBestOnAGoldenSpace) {
  // A reduced golden space (16 points) small enough to simulate
  // exhaustively: the 25%-frontier run must land on the same best point
  // with the same simulated speedup as the simulate-everything run, and
  // repeated frontier runs must be byte-identical.
  harness::TuneSpace space;
  space.core_counts = {2, 4};
  space.queue_capacities = {4, 20};
  space.merges = {0, 2};
  space.speculation = {false, true};

  const kernels::SequoiaKernel& spec = KernelById("umt2k-2");
  const ir::Kernel kernel = kernels::ParseSequoia(spec);
  const harness::WorkloadInit init = kernels::SequoiaInit(spec);

  harness::TuneOptions exhaustive_options;
  exhaustive_options.sweep_threads = 1;
  exhaustive_options.frontier_fraction = 1.0;
  const harness::TuneResult exhaustive =
      harness::AutotuneKernel(kernel, init, space, exhaustive_options);
  EXPECT_EQ(exhaustive.enumerated, 16u);
  EXPECT_EQ(exhaustive.frontier_size, 16u);
  EXPECT_EQ(exhaustive.simulated, 16u);

  harness::TuneOptions frontier_options;
  frontier_options.sweep_threads = 1;  // default frontier_fraction = 0.25
  const harness::TuneResult frontier =
      harness::AutotuneKernel(kernel, init, space, frontier_options);
  EXPECT_EQ(frontier.frontier_size, 4u);
  EXPECT_LE(frontier.simulated, 4u);

  EXPECT_EQ(harness::BestPoint(frontier), harness::BestPoint(exhaustive));
  EXPECT_DOUBLE_EQ(frontier.best_speedup, exhaustive.best_speedup);
  EXPECT_GE(frontier.best_speedup, frontier.default_speedup);

  const harness::TuneResult again =
      harness::AutotuneKernel(kernel, init, space, frontier_options);
  EXPECT_EQ(harness::EncodeTuneArtifact(again),
            harness::EncodeTuneArtifact(frontier));
}

TEST(Autotune, TuneArtifactRoundTripsAndRejectsWrongSchema) {
  harness::TuneSpace space;
  space.core_counts = {2};
  space.queue_capacities = {4};
  space.merges = {0, 1};
  space.speculation = {false};

  const kernels::SequoiaKernel& spec = KernelById("lammps-1");
  harness::TuneOptions options;
  options.sweep_threads = 1;
  options.frontier_fraction = 1.0;
  const harness::TuneResult result = harness::AutotuneKernel(
      kernels::ParseSequoia(spec), kernels::SequoiaInit(spec), space, options);

  const std::string json = harness::EncodeTuneArtifact(result);
  EXPECT_NE(json.find(harness::kTuneSchema), std::string::npos);
  const harness::TuneResult parsed = harness::ParseTuneArtifact(json);
  EXPECT_EQ(parsed.kernel, result.kernel);
  EXPECT_EQ(parsed.enumerated, result.enumerated);
  EXPECT_EQ(parsed.frontier_size, result.frontier_size);
  EXPECT_EQ(parsed.simulated, result.simulated);
  EXPECT_EQ(parsed.best_index, result.best_index);
  EXPECT_EQ(parsed.default_index, result.default_index);
  EXPECT_EQ(parsed.best_speedup, result.best_speedup);      // bitwise
  EXPECT_EQ(parsed.default_speedup, result.default_speedup);
  ASSERT_EQ(parsed.candidates.size(), result.candidates.size());
  for (std::size_t i = 0; i < parsed.candidates.size(); ++i) {
    EXPECT_EQ(parsed.candidates[i].point, result.candidates[i].point);
    EXPECT_EQ(parsed.candidates[i].feasible, result.candidates[i].feasible);
    EXPECT_EQ(parsed.candidates[i].simulated, result.candidates[i].simulated);
    EXPECT_EQ(parsed.candidates[i].predicted_speedup,
              result.candidates[i].predicted_speedup);
    EXPECT_EQ(parsed.candidates[i].simulated_speedup,
              result.candidates[i].simulated_speedup);
  }
  // Round-trip stability: parse(encode(x)) re-encodes byte-identically.
  EXPECT_EQ(harness::EncodeTuneArtifact(parsed), json);

  EXPECT_THROW(harness::ParseTuneArtifact("{\"schema\":\"fgpar-tune-v0\"}"),
               Error);
  EXPECT_THROW(harness::ParseTuneArtifact("not json"), Error);
}

TEST(KernelSession, PredictionsEqualOneShotPredictOnEveryPoint) {
  const harness::TuneSpace space;
  for (const kernels::SequoiaKernel& spec : kernels::SequoiaKernels()) {
    const harness::KernelRunner runner(kernels::ParseSequoia(spec),
                                       kernels::SequoiaInit(spec));
    harness::RunConfig base;
    base.tune_by_simulation = false;
    harness::KernelSession::Uses uses;
    uses.predict_speculation = {false, true};
    const harness::KernelSession session(runner, base, uses);
    for (const harness::TunePoint& point : space.Enumerate()) {
      const harness::RunConfig config = harness::ApplyTunePoint(base, point);
      const model::Prediction shared = session.Predict(config);
      const model::Prediction fresh = runner.Predict(config);
      const std::string where = spec.id + " " + harness::TunePointLabel(point);
      EXPECT_EQ(shared.speedup, fresh.speedup) << where;  // bitwise
      EXPECT_EQ(shared.parallel_cost, fresh.parallel_cost) << where;
      EXPECT_EQ(shared.sequential_cost, fresh.sequential_cost) << where;
    }
  }
}

TEST(KernelSession, QueueCapacityNeverReachesThePrediction) {
  // The autotuner predicts each (cores, merge, speculation) once and
  // shares it across capacities.  A capacity-aware predictor must fail
  // here first, not silently reuse a stale prediction.
  for (const char* id : {"lammps-1", "umt2k-2", "irs-1"}) {
    const kernels::SequoiaKernel& spec = KernelById(id);
    const harness::KernelRunner runner(kernels::ParseSequoia(spec),
                                       kernels::SequoiaInit(spec));
    for (int cores : {2, 3, 4}) {
      for (int merge : {0, 1, 2}) {
        for (bool speculation : {false, true}) {
          double first = 0.0;
          for (int capacity : {4, 8, 20}) {
            const harness::RunConfig config = harness::ApplyTunePoint(
                harness::RunConfig{},
                harness::TunePoint{cores, capacity, speculation, merge});
            const double speedup = runner.Predict(config).speedup;
            if (capacity == 4) {
              first = speedup;
            }
            EXPECT_EQ(speedup, first)
                << id << " c" << cores << " merge=" << merge
                << " spec=" << speculation << " q" << capacity;
          }
        }
      }
    }
  }
}

TEST(KernelSession, RefusesAConfigThatDisagreesOnASharedField) {
  const kernels::SequoiaKernel& spec = KernelById("lammps-1");
  const harness::KernelRunner runner(kernels::ParseSequoia(spec),
                                     kernels::SequoiaInit(spec));
  harness::RunConfig base;
  base.tune_by_simulation = false;
  harness::KernelSession::Uses uses;
  uses.run = true;
  uses.predict_speculation = {false};
  const harness::KernelSession session(runner, base, uses);

  // Knobs the shared results never read are free.
  harness::RunConfig free = harness::ApplyTunePoint(
      base, harness::TunePoint{2, 4, false, 1});
  EXPECT_EQ(session.Run(free).speedup, runner.Run(free).speedup);
  EXPECT_EQ(session.Predict(free).speedup, runner.Predict(free).speedup);

  const std::vector<std::pair<std::string,
                              std::function<void(harness::RunConfig&)>>>
      disagreements = {
          {"seed", [](harness::RunConfig& c) { c.seed += 1; }},
          {"cache", [](harness::RunConfig& c) { c.cache.l1_latency += 1; }},
          {"timing", [](harness::RunConfig& c) { c.timing.fp_mul += 1; }},
          {"max_expr_depth",
           [](harness::RunConfig& c) { c.compile.max_expr_depth += 1; }},
          {"verify", [](harness::RunConfig& c) { c.verify = !c.verify; }},
          {"max_cycles", [](harness::RunConfig& c) { c.max_cycles = 1 << 30; }},
          {"force_tier",
           [](harness::RunConfig& c) { c.force_tier = sim::RunTier::kSlow; }},
      };
  for (const auto& [field, change] : disagreements) {
    harness::RunConfig config = base;
    change(config);
    try {
      session.Run(config);
      ADD_FAILURE() << "Run accepted a config with a different " << field;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
    EXPECT_THROW(session.Predict(config), Error) << field;
  }
  // A session prepared for one speculation value serves only that one.
  harness::RunConfig speculative = base;
  speculative.compile.speculation = true;
  EXPECT_THROW(session.Predict(speculative), Error);
}

TEST(Autotune, AWorkloadThatFailsMarksEveryPointWithItsError) {
  // The tune session prepares the workload once; its error must reach
  // every point as that point's own note, as a per-point Predict/Run
  // would raise it, and never abort the whole tune.
  const kernels::SequoiaKernel& spec = KernelById("lammps-1");
  const harness::WorkloadInit broken =
      [](std::uint64_t, const ir::Kernel&, const ir::DataLayout&,
         ir::ParamEnv&, std::vector<std::uint64_t>&) {
        throw Error("workload refused");
      };
  harness::TuneOptions options;
  options.sweep_threads = 2;
  const harness::TuneResult result = harness::AutotuneKernel(
      kernels::ParseSequoia(spec), broken, harness::TuneSpace{}, options);
  EXPECT_EQ(result.simulated, 0u);
  for (const harness::TuneCandidate& candidate : result.candidates) {
    EXPECT_FALSE(candidate.feasible);
    EXPECT_FALSE(candidate.simulated);
    EXPECT_NE(candidate.note.find("workload refused"), std::string::npos)
        << candidate.note;
  }
}

TEST(Autotune, SweepThreadsNeverChangeTheTuneArtifact) {
  // Frontier runs fan out across supervisor threads that share one tune
  // session; the artifact must not depend on how many there are.
  for (const char* id : {"umt2k-2", "sphot-1"}) {
    const kernels::SequoiaKernel& spec = KernelById(id);
    const ir::Kernel kernel = kernels::ParseSequoia(spec);
    harness::TuneOptions options;
    options.sweep_threads = 1;
    const std::string serial = harness::EncodeTuneArtifact(
        harness::AutotuneKernel(kernel, kernels::SequoiaInit(spec),
                                harness::TuneSpace{}, options));
    options.sweep_threads = 4;
    const std::string threaded = harness::EncodeTuneArtifact(
        harness::AutotuneKernel(kernel, kernels::SequoiaInit(spec),
                                harness::TuneSpace{}, options));
    EXPECT_EQ(threaded, serial) << id;
  }
}

}  // namespace
