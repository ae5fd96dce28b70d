// Shared pieces of the perfbench binary: options, the result a workload
// reports, the in-memory span tracer, the failure ledger, and the one
// decomposed kernel run that times every layer from outside.
//
// Every layer is measured by timing calls into its public functions from
// this directory; nothing inside the program is instrumented beyond the
// compiler's existing PipelineInstrumentation pass spans.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/runner.hpp"

namespace perfbench {

namespace harness = fgpar::harness;
namespace ir = fgpar::ir;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Sweep and tune load threads.  One by default: on a host whose CPUs are
  // shared with other machines, single-threaded sweeps and tunes repeat far
  // more steadily than ones that need every CPU at once.
  int threads = 1;
  std::string work_dir;      // journals, cache file, spans, ledger
};

/// A workload's outcome.  `metrics` holds the end-to-end set (untraced
/// run) or the per-layer set (traced run); names not filled stay 0.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
};

/// A mismatch between a timed op's output and its reference.  Fails the
/// whole run (non-zero exit); never counted as a slow success.
struct Mismatch : std::runtime_error {
  using std::runtime_error::runtime_error;
};

double Now();  // seconds on the telemetry host timeline

// ---- tracing ---------------------------------------------------------------

/// Keeps spans (name, start, end, parent, op id) in memory; WriteJsonl
/// dumps them when the run ends.  Parent links follow a per-thread stack
/// of open spans.
class Tracer {
 public:
  struct Record {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;  // index into the span list, -1 for a root
    std::uint64_t op = 0;
  };

  int Open(const std::string& name, std::uint64_t op);
  void Close(int index);
  /// Adds a finished span (e.g. a compiler pass span) under `parent`.
  void Add(const std::string& name, double start, double end, int parent,
           std::uint64_t op);
  void WriteJsonl(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Record> spans_;
};

/// RAII span; a null tracer makes it a no-op.
class Span {
 public:
  Span(Tracer* tracer, const std::string& name, std::uint64_t op);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  int index() const { return index_; }

 private:
  Tracer* tracer_;
  int index_ = -1;
};

// ---- failure ledger --------------------------------------------------------

/// Every failed op with its workload, input and reason.  Repeats of the
/// same (input, reason) across passes are folded into one entry's count.
class Ledger {
 public:
  void Fail(const std::string& workload, const std::string& input,
            const std::string& config, const std::string& reason);
  void WriteJsonl(const std::string& path) const;
  void PrintSummary() const;  // stderr

 private:
  struct Entry {
    std::string workload, input, config, reason;
    std::uint64_t count = 0;
  };
  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
};

// ---- statistics ------------------------------------------------------------

double Quantile(std::vector<double> values, double q);  // linear interpolation
double Median(std::vector<double> values);
double GeoMean(const std::vector<double>& values);
double Sum(const std::vector<double>& values);

/// The share of an op's repeats that the end-to-end timings are read from:
/// the fastest decile.  Every pass repeats the same ops, and the host's
/// neighbours only ever add time, so the fast repeats measure the program
/// and the slow ones measure the host.
constexpr double kFastShare = 0.1;

/// End-to-end timing over ops that every pass repeats: each op's time is
/// reduced to the fastest kFastShare of its repeats, ops_per_s is the rate
/// `load_threads` closed loops reach at those times (load_threads x ops /
/// their sum), and op_ms_p50 and op_ms_p90 are their quantiles.  Taken per
/// op rather than per pass, a slow phase costs a run only the repeats it
/// covers.
class OpStats {
 public:
  explicit OpStats(std::size_t ops, int load_threads = 1)
      : ms_(ops), load_threads_(load_threads) {}
  void Add(std::size_t op, double ms) { ms_[op].push_back(ms); }
  /// `rate_ms`, when given, is each op's time for ops_per_s instead of its
  /// latency (e.g. a run plus the baseline it is checked against).
  void Fill(std::map<std::string, double>& metrics,
            const OpStats* rate_ms = nullptr) const;

 private:
  std::vector<double> FastMs() const;
  std::vector<std::vector<double>> ms_;
  int load_threads_;
};

/// Pins every thread of the process, and the threads they start later, to
/// one CPU of the set the process started with: the `index`-th, round
/// robin.  A load moves to the next CPU every pass.  On a host whose CPUs
/// are shared with other machines each CPU has slow phases of its own that
/// last seconds; a run that visits every CPU finds the fast ones, so its
/// fast passes measure the program rather than where it was scheduled.
void PinToCpu(std::size_t index);
/// Gives every thread back the whole set the process started with.
void UnpinCpu();

// ---- the decomposed kernel run ---------------------------------------------

/// Inputs of one kernel run, prepared the way KernelRunner prepares them.
struct PreparedInput {
  ir::ParamEnv params;
  std::vector<std::uint64_t> image;
};
PreparedInput Prepare(const harness::KernelRunner& runner,
                      const harness::WorkloadInit& init, std::uint64_t seed);

/// What the decomposed run measured; times in seconds.
struct LayerRun {
  std::uint64_t seq_cycles = 0;
  std::uint64_t par_cycles = 0;
  std::uint64_t instructions = 0;           // seq + par, simulated
  std::uint64_t threaded_instructions = 0;  // issued inside threaded traces
  std::uint64_t deopt_multi_core = 0;
  int fibers = 0;
  int candidates = 0;
  double interp_s = 0, profile_s = 0, seq_compile_s = 0, sim_seq_s = 0,
         par_compile_s = 0, sim_par_s = 0;
  // CompileParallel's pass spans, grouped: split/fold/speculate/forward/dce
  // are the scalar rewrites.
  double rewrite_s = 0, fiberize_s = 0, graph_s = 0, merge_s = 0,
         select_s = 0;
  double total_s() const {
    return interp_s + profile_s + seq_compile_s + sim_seq_s + par_compile_s +
           sim_par_s;
  }
};

/// KernelRunner::Run's static-select path, one public layer call at a
/// time, each under its own span: ir::Interpreter::Run (golden image),
/// ProfileData::Collect, CompileSequential, sim::Machine::Run (seq),
/// CompileParallel with pass spans, sim::Machine::Run (par).  Both
/// machines run without a telemetry sink, so tracing never moves them off
/// their run tier.  Throws Mismatch when a simulated memory differs from
/// the interpreter's image, fgpar::Error when a layer fails.
LayerRun TracedKernelRun(const harness::KernelRunner& runner,
                         const harness::WorkloadInit& init,
                         const harness::RunConfig& config, Tracer& tracer,
                         std::uint64_t op);

/// Folds decomposed runs into the ir/analysis/compiler/sim per-layer
/// metrics.  Times are medians per call; counts are per pass (`passes`
/// repetitions of the same run set), so they repeat exactly.
void AddKernelLayerMetrics(const std::vector<LayerRun>& runs,
                           std::size_t passes,
                           std::map<std::string, double>& metrics);

/// Times frontend::ParseKernel over `sources` (kReps passes) into
/// frontend.parse_ms.
void AddParseMetric(const std::vector<std::string>& sources, Tracer& tracer,
                    std::map<std::string, double>& metrics);

// ---- workloads -------------------------------------------------------------

/// A workload: Setup() builds its inputs (timed for setup_s), Measure()
/// runs the timed loop for Options::seconds and checks every output.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void Setup() = 0;
  virtual Report Measure() = 0;
};

std::unique_ptr<Workload> MakeSweep(const Options& options, Ledger& ledger,
                                    Tracer& tracer);
std::unique_ptr<Workload> MakeTune(const Options& options, Ledger& ledger,
                                   Tracer& tracer);
std::unique_ptr<Workload> MakeNative(const Options& options, Ledger& ledger,
                                     Tracer& tracer);
std::unique_ptr<Workload> MakeServe(const Options& options, Ledger& ledger,
                                    Tracer& tracer);

/// Seconds elapsed since `start` on the steady clock.
inline double Since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// A workload repeats passes over its inputs until Options::seconds have
/// passed.  A traced run first makes `untraced` untraced passes: they give
/// the reference results the traced passes are checked against, and the
/// wall the tracing overhead is measured from.
inline bool TracedPass(const Options& options, std::size_t pass,
                       std::size_t untraced) {
  return options.trace && pass >= untraced;
}
inline bool KeepGoing(const Options& options, std::size_t pass,
                      std::size_t untraced,
                      std::chrono::steady_clock::time_point start) {
  return pass < (options.trace ? untraced + 1 : 1) ||
         Since(start) < options.seconds;
}

}  // namespace perfbench
