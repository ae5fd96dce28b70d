#include "bench.hpp"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <optional>

#include "analysis/profile.hpp"
#include "compiler/compile.hpp"
#include "frontend/parser.hpp"
#include "ir/interp.hpp"
#include "sim/machine.hpp"
#include "support/telemetry/sinks.hpp"

namespace perfbench {

using namespace fgpar;

double Now() { return telemetry::HostSecondsSinceEpoch(); }

// ---- tracing ---------------------------------------------------------------

namespace {
thread_local std::vector<int> open_spans;

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}
}  // namespace

int Tracer::Open(const std::string& name, std::uint64_t op) {
  const int parent = open_spans.empty() ? -1 : open_spans.back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, Now(), 0.0, parent, op});
  const int index = static_cast<int>(spans_.size()) - 1;
  open_spans.push_back(index);
  return index;
}

void Tracer::Close(int index) {
  const double end = Now();
  open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].end = end;
}

void Tracer::Add(const std::string& name, double start, double end, int parent,
                 std::uint64_t op) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, start, end, parent, op});
}

void Tracer::WriteJsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  std::lock_guard<std::mutex> lock(mu_);
  char buf[160];
  for (const Record& r : spans_) {
    std::snprintf(buf, sizeof(buf),
                  ",\"start\":%.9f,\"end\":%.9f,\"parent\":%d,\"op\":%llu}\n",
                  r.start, r.end, r.parent,
                  static_cast<unsigned long long>(r.op));
    out << "{\"name\":" << JsonString(r.name) << buf;
  }
}

Span::Span(Tracer* tracer, const std::string& name, std::uint64_t op)
    : tracer_(tracer) {
  if (tracer_ != nullptr) {
    index_ = tracer_->Open(name, op);
  }
}

Span::~Span() {
  if (tracer_ != nullptr) {
    tracer_->Close(index_);
  }
}

// ---- failure ledger --------------------------------------------------------

void Ledger::Fail(const std::string& workload, const std::string& input,
                  const std::string& config, const std::string& reason) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = entries_[workload + '\n' + input + '\n' + config + '\n' + reason];
  entry = {workload, input, config, reason, entry.count + 1};
}

void Ledger::WriteJsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [key, e] : entries_) {
    out << "{\"workload\":" << JsonString(e.workload)
        << ",\"input\":" << JsonString(e.input)
        << ",\"config\":" << JsonString(e.config)
        << ",\"reason\":" << JsonString(e.reason) << ",\"count\":" << e.count
        << "}\n";
  }
}

void Ledger::PrintSummary() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [key, e] : entries_) {
    const std::string first_line = e.reason.substr(0, e.reason.find('\n'));
    std::fprintf(stderr, "failed x%llu: %s %s [%s]: %s\n",
                 static_cast<unsigned long long>(e.count), e.workload.c_str(),
                 e.input.c_str(), e.config.c_str(), first_line.c_str());
  }
}

// ---- statistics ------------------------------------------------------------

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  double log_sum = 0.0;
  for (const double v : values) {
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double Sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

std::vector<double> OpStats::FastMs() const {
  std::vector<double> fast;
  for (const std::vector<double>& ms : ms_) {
    if (!ms.empty()) {
      fast.push_back(Quantile(ms, kFastShare));
    }
  }
  return fast;
}

void OpStats::Fill(std::map<std::string, double>& metrics,
                   const OpStats* rate_ms) const {
  const std::vector<double> fast = FastMs();
  const std::vector<double> rate = rate_ms != nullptr ? rate_ms->FastMs() : fast;
  metrics["ops_per_s"] =
      load_threads_ * static_cast<double>(rate.size()) / Sum(rate) * 1e3;
  metrics["op_ms_p50"] = Quantile(fast, 0.5);
  metrics["op_ms_p90"] = Quantile(fast, 0.9);
}

namespace {

/// The CPUs the process may run on, read before the first pin.
const std::vector<int>& StartCpus() {
  static const std::vector<int> cpus = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> allowed;
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set)) {
          allowed.push_back(cpu);
        }
      }
    }
    return allowed;
  }();
  return cpus;
}

/// Sets the affinity of every thread of the process (best effort: a thread
/// that ends meanwhile is skipped).
void SetCpus(const std::vector<int>& cpus) {
  if (cpus.empty()) {
    return;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) {
    CPU_SET(cpu, &set);
  }
  sched_setaffinity(0, sizeof(set), &set);
  std::error_code error;
  for (std::filesystem::directory_iterator task("/proc/self/task", error), end;
       !error && task != end; task.increment(error)) {
    const pid_t tid = static_cast<pid_t>(
        std::strtol(task->path().filename().c_str(), nullptr, 10));
    sched_setaffinity(tid, sizeof(set), &set);
  }
}

}  // namespace

void PinToCpu(std::size_t index) {
  const std::vector<int>& cpus = StartCpus();
  if (!cpus.empty()) {
    SetCpus({cpus[index % cpus.size()]});
  }
}

void UnpinCpu() { SetCpus(StartCpus()); }

// ---- the decomposed kernel run ---------------------------------------------

PreparedInput Prepare(const harness::KernelRunner& runner,
                      const harness::WorkloadInit& init, std::uint64_t seed) {
  const ir::Kernel& kernel = runner.kernel();
  const ir::DataLayout& layout = runner.layout();
  PreparedInput input{ir::ParamEnv(kernel),
                      std::vector<std::uint64_t>(layout.end(), 0)};
  init(seed, kernel, layout, input.params, input.image);
  input.params.CheckComplete(kernel);
  for (const ir::Symbol& sym : kernel.symbols()) {
    if (sym.kind == ir::SymbolKind::kParam) {
      input.image[layout.ParamAddressOf(sym.id)] = input.params.GetRaw(sym.id);
    }
  }
  return input;
}

namespace {

sim::MachineConfig MachineFor(const harness::RunConfig& config,
                              const ir::DataLayout& layout, int cores) {
  sim::MachineConfig machine;
  machine.num_cores = cores;
  machine.threads_per_core = std::min(config.threads_per_core, cores);
  machine.timing = config.timing;
  machine.cache = config.cache;
  machine.queue = config.queue;
  machine.force_tier = config.force_tier;
  std::uint64_t words = 1024;
  while (words < layout.end() + 64) {
    words *= 2;
  }
  machine.memory_words = words;
  return machine;
}

void CheckMemory(const sim::Machine& machine,
                 const std::vector<std::uint64_t>& golden,
                 const std::string& kernel, const char* what) {
  for (std::uint64_t addr = 0; addr < golden.size(); ++addr) {
    if (machine.memory().ReadRaw(addr) != golden[addr]) {
      throw Mismatch(std::string(what) + " memory of kernel '" + kernel +
                     "' differs from the interpreter at address " +
                     std::to_string(addr));
    }
  }
}

/// Runs a loaded machine to completion under a span; returns its result.
sim::RunResult TimedMachineRun(sim::Machine& machine, Tracer& tracer,
                               const char* name, std::uint64_t op,
                               double& seconds) {
  const double start = Now();
  Span span(&tracer, name, op);
  const sim::RunResult result = machine.Run();
  seconds = Now() - start;
  return result;
}

}  // namespace

LayerRun TracedKernelRun(const harness::KernelRunner& runner,
                         const harness::WorkloadInit& init,
                         const harness::RunConfig& config, Tracer& tracer,
                         std::uint64_t op) {
  FGPAR_CHECK_MSG(!config.tune_by_simulation && config.cost_model == nullptr,
                  "the decomposed run covers the static-select path only");
  const ir::Kernel& kernel = runner.kernel();
  const ir::DataLayout& layout = runner.layout();
  const PreparedInput input = Prepare(runner, init, config.seed);
  LayerRun run;

  std::vector<std::uint64_t> golden = input.image;
  {
    const double start = Now();
    Span span(&tracer, "ir.interp", op);
    ir::Interpreter(kernel, layout, input.params, golden).Run();
    run.interp_s = Now() - start;
  }
  analysis::ProfileData profile;
  if (config.collect_profile) {
    const double start = Now();
    Span span(&tracer, "analysis.profile", op);
    profile = analysis::ProfileData::Collect(kernel, layout, input.params,
                                             input.image, config.cache);
    run.profile_s = Now() - start;
  }
  compiler::CompileOptions options = config.compile;
  options.assumed_queue_capacity = config.queue.capacity;

  const auto load = [&](sim::Machine& machine) {
    for (std::uint64_t addr = 0; addr < input.image.size(); ++addr) {
      machine.memory().WriteRaw(addr, input.image[addr]);
    }
  };
  const auto note_threaded = [&](const sim::Machine& machine,
                                 const sim::RunResult& result) {
    run.instructions += result.instructions;
    run.threaded_instructions += machine.threaded_stats().threaded_instructions;
    run.deopt_multi_core += machine.threaded_stats().deopt_multi_core;
  };

  {
    isa::Program program;
    {
      const double start = Now();
      Span span(&tracer, "compiler.seq_compile", op);
      program = compiler::CompileSequential(kernel, layout, options);
      run.seq_compile_s = Now() - start;
    }
    sim::Machine machine(MachineFor(config, layout, 1), program);
    load(machine);
    machine.StartCoreAt(0, "main");
    const sim::RunResult result =
        TimedMachineRun(machine, tracer, "sim.seq", op, run.sim_seq_s);
    if (config.verify) {
      CheckMemory(machine, golden, kernel.name(), "sequential");
    }
    run.seq_cycles = result.core0_halt_cycle;
    note_threaded(machine, result);
  }

  telemetry::AggregatingSink pass_sink;
  compiler::PipelineInstrumentation instrumentation;
  instrumentation.telemetry = &pass_sink;
  std::optional<compiler::CompiledParallel> compiled;
  {
    const double start = Now();
    Span span(&tracer, "compiler.par_compile", op);
    compiled.emplace(compiler::CompileParallel(
        kernel, layout, options, config.collect_profile ? &profile : nullptr,
        nullptr, &instrumentation));
    run.par_compile_s = Now() - start;
    for (const telemetry::SpanRecord& pass :
         pass_sink.SpansInCategory("pass")) {
      tracer.Add("compiler." + pass.name, pass.start_seconds,
                 pass.start_seconds + pass.wall_seconds, span.index(), op);
      const std::string& n = pass.name;
      double* slot = n == "fiberize" ? &run.fiberize_s
                     : n == "graph"  ? &run.graph_s
                     : n == "merge"  ? &run.merge_s
                     : n == "select" ? &run.select_s
                                     : &run.rewrite_s;
      *slot += pass.wall_seconds;
      if (n == "merge" && pass.counters.contains("candidates")) {
        run.candidates = static_cast<int>(pass.counters.at("candidates"));
      }
    }
  }
  run.fibers = compiled->partition.initial_fibers;
  sim::Machine machine(MachineFor(config, layout, compiled->cores_used),
                       compiled->program);
  load(machine);
  machine.StartCoreAt(0, compiler::CompiledParallel::kPrimaryEntry);
  for (int c = 1; c < compiled->cores_used; ++c) {
    machine.StartCoreAt(c, compiler::CompiledParallel::kDriverEntry);
  }
  const sim::RunResult result =
      TimedMachineRun(machine, tracer, "sim.par", op, run.sim_par_s);
  if (config.verify) {
    CheckMemory(machine, golden, kernel.name(), "parallel");
  }
  run.par_cycles = result.core0_halt_cycle;
  note_threaded(machine, result);
  return run;
}

void AddKernelLayerMetrics(const std::vector<LayerRun>& runs,
                           std::size_t passes,
                           std::map<std::string, double>& metrics) {
  const auto median_ms = [&](double LayerRun::*field) {
    std::vector<double> values;
    for (const LayerRun& run : runs) {
      values.push_back(run.*field * 1e3);
    }
    return Median(std::move(values));
  };
  metrics["ir.interp_ms"] = median_ms(&LayerRun::interp_s);
  metrics["analysis.profile_ms"] = median_ms(&LayerRun::profile_s);
  metrics["compiler.rewrite_ms"] = median_ms(&LayerRun::rewrite_s);
  metrics["compiler.fiberize_ms"] = median_ms(&LayerRun::fiberize_s);
  metrics["compiler.graph_ms"] = median_ms(&LayerRun::graph_s);
  metrics["compiler.merge_ms"] = median_ms(&LayerRun::merge_s);
  metrics["compiler.select_ms"] = median_ms(&LayerRun::select_s);
  metrics["compiler.seq_compile_ms"] = median_ms(&LayerRun::seq_compile_s);
  metrics["sim.seq_ms"] = median_ms(&LayerRun::sim_seq_s);
  metrics["sim.par_ms"] = median_ms(&LayerRun::sim_par_s);

  double fibers = 0, candidates = 0, instructions = 0, threaded = 0,
         deopt = 0, sim_s = 0;
  for (const LayerRun& run : runs) {
    fibers += run.fibers;
    candidates += run.candidates;
    instructions += static_cast<double>(run.instructions);
    threaded += static_cast<double>(run.threaded_instructions);
    deopt += static_cast<double>(run.deopt_multi_core);
    sim_s += run.sim_seq_s + run.sim_par_s;
  }
  const double per_pass = passes == 0 ? 0.0 : 1.0 / static_cast<double>(passes);
  metrics["compiler.fibers"] = fibers * per_pass;
  metrics["compiler.candidates"] = candidates * per_pass;
  metrics["sim.deopt_multi_core"] = deopt * per_pass;
  metrics["sim.minstr_per_s"] = sim_s > 0 ? instructions / sim_s / 1e6 : 0.0;
  metrics["sim.threaded_share"] =
      instructions > 0 ? threaded / instructions : 0.0;
}

void AddParseMetric(const std::vector<std::string>& sources, Tracer& tracer,
                    std::map<std::string, double>& metrics) {
  constexpr int kReps = 5;
  std::vector<double> per_call_ms;
  for (int rep = 0; rep < kReps; ++rep) {
    for (const std::string& source : sources) {
      const double start = Now();
      Span span(&tracer, "frontend.parse", 0);
      (void)frontend::ParseKernel(source);
      per_call_ms.push_back((Now() - start) * 1e3);
    }
  }
  metrics["frontend.parse_ms"] = Median(std::move(per_call_ms));
}

}  // namespace perfbench
