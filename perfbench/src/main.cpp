// perfbench: the repository benchmark's measuring binary.
//
//   perfbench --workload sweep|tune|native|serve --seed N --seconds S
//             --trace 0|1 [--threads T] [--work-dir DIR]
//
// Sets the workload up several times (setup_s is the median), measures it
// for S seconds, and prints one JSON line: {"correct", "attempted",
// "failed", "metrics"}.  --trace 0 reports the end-to-end metrics;
// --trace 1 reports the per-layer metrics, writes the spans to
// DIR/spans-<workload>.jsonl, and the failure ledger always goes to
// DIR/failures-<workload>.jsonl.  Exit 0 on a checked run, 2 on bad
// arguments or an unoptimised build, 3 when an output mismatched its
// reference.
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench.hpp"

namespace {

using perfbench::Options;
using perfbench::Report;

// Set-up runs before the timed loop (the last one is measured) and again
// after it, each time at least kSetupReps times and for kSetupSeconds,
// each repeat on the next CPU (perfbench::PinToCpu); setup_s is the
// median.  Each sample is the process CPU time the set-up took, so CPU
// time the host takes away from this VM does not enter it.
constexpr int kSetupReps = 3;
constexpr double kSetupSeconds = 0.2;
constexpr int kSetupMaxReps = 400;

struct Metric {
  const char* name;
  const char* unit;
};

// Every metric appears in every workload's output; a layer a workload
// never calls reports 0 on it.
constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},           {"ops_per_s", "1/s"},
    {"op_ms_p50", "ms"},        {"op_ms_p90", "ms"},
    {"ok_share", "share"},      {"sim_speedup_geomean", "x"},
    {"peak_rss_mb", "MB"},
};

constexpr Metric kPerLayer[] = {
    {"frontend.parse_ms", "ms"},
    {"ir.interp_ms", "ms"},
    {"analysis.profile_ms", "ms"},
    {"compiler.rewrite_ms", "ms"},
    {"compiler.fiberize_ms", "ms"},
    {"compiler.graph_ms", "ms"},
    {"compiler.merge_ms", "ms"},
    {"compiler.select_ms", "ms"},
    {"compiler.seq_compile_ms", "ms"},
    {"compiler.fibers", "count"},
    {"compiler.candidates", "count"},
    {"sim.seq_ms", "ms"},
    {"sim.par_ms", "ms"},
    {"sim.minstr_per_s", "Minstr/s"},
    {"sim.threaded_share", "share"},
    {"sim.deopt_multi_core", "count"},
    {"model.predict_ms", "ms"},
    {"model.predict_calls", "count"},
    {"model.run_to_predict", "x"},
    {"harness.tune.enumerated", "count"},
    {"harness.tune.simulated", "count"},
    {"harness.tune.infeasible", "count"},
    {"harness.tune.predict_share", "share"},
    {"harness.sweep.idle_share", "share"},
    {"harness.journal.record_us", "us"},
    {"harness.journal.bytes", "bytes"},
    {"native.seq_us_p50", "us"},
    {"native.par_us_p50", "us"},
    {"native.fixed_us", "us"},
    {"native.transfers", "count"},
    {"native.us_per_transfer", "us"},
    {"native.speedup_geomean", "x"},
    {"service.handle_hit_us", "us"},
    {"service.handle_miss_ms", "ms"},
    {"service.transport_us", "us"},
    {"service.cache.insert_us", "us"},
    {"service.cache.file_kb", "KiB"},
    {"service.hit_share", "share"},
    {"service.rejected", "count"},
    {"trace.overhead_ms", "ms"},
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "sweep|tune|native|serve --seed N --seconds S --trace 0|1 "
               "[--threads T] [--work-dir DIR]\n",
               why);
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options options;
  options.work_dir = ".bench_build/work";
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && options.seconds > 0.0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        Usage("--trace takes 0 or 1");
      }
      options.trace = value == "1";
    } else if (flag == "--threads") {
      options.threads = std::atoi(value.c_str());
      if (options.threads < 1 || options.threads > 64) {
        Usage("--threads takes 1..64");
      }
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds) {
    Usage("--workload, --seed and --seconds are required");
  }
  return options;
}

/// The process's resident-set high-water mark.  Read from /proc rather than
/// getrusage, whose ru_maxrss keeps the parent's peak across exec.
double ProcessCpuSeconds() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + 1e-9 * static_cast<double>(now.tv_nsec);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

void PrintResult(const Report& report, bool trace) {
  std::string out = std::string("{\"correct\": ") +
                    (report.correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(report.attempted) +
                    ", \"failed\": " + std::to_string(report.failed) +
                    ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const Metric& metric) {
    const auto it = report.metrics.find(metric.name);
    double value = it == report.metrics.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) {
      value = 0.0;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out += std::string(first ? "" : ", ") + "\"" + metric.name +
           "\": {\"value\": " + buf + ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  };
  if (trace) {
    for (const Metric& metric : kPerLayer) emit(metric);
  } else {
    for (const Metric& metric : kEndToEnd) emit(metric);
  }
  std::printf("%s}}\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "perfbench: refusing to measure an unoptimised build\n");
  return 2;
#endif
  std::signal(SIGPIPE, SIG_IGN);
  const Options options = ParseArgs(argc, argv);
  using Factory = std::unique_ptr<perfbench::Workload> (*)(
      const Options&, perfbench::Ledger&, perfbench::Tracer&);
  Factory factory = nullptr;
  if (options.workload == "sweep") {
    factory = perfbench::MakeSweep;
  } else if (options.workload == "tune") {
    factory = perfbench::MakeTune;
  } else if (options.workload == "native") {
    factory = perfbench::MakeNative;
  } else if (options.workload == "serve") {
    factory = perfbench::MakeServe;
  } else {
    Usage(("unknown workload " + options.workload).c_str());
  }
  std::filesystem::create_directories(options.work_dir);

  perfbench::Ledger ledger;
  perfbench::Tracer tracer;
  Report report;
  try {
    std::vector<double> setup_s;
    std::unique_ptr<perfbench::Workload> workload;
    const auto set_up = [&] {
      workload.reset();
      workload = factory(options, ledger, tracer);
      const double cpu0 = ProcessCpuSeconds();
      workload->Setup();
      setup_s.push_back(ProcessCpuSeconds() - cpu0);
    };
    const auto set_up_repeatedly = [&] {
      const auto start = std::chrono::steady_clock::now();
      for (int rep = 0; rep < kSetupMaxReps && (rep < kSetupReps ||
                                                 perfbench::Since(start) <
                                                     kSetupSeconds);
           ++rep) {
        perfbench::PinToCpu(static_cast<std::size_t>(rep));
        set_up();
      }
      perfbench::UnpinCpu();
    };
    set_up_repeatedly();
    report = workload->Measure();
    if (!options.trace) {
      set_up_repeatedly();
    }
    workload.reset();
    if (!options.trace) {
      report.metrics["setup_s"] = perfbench::Median(setup_s);
      report.metrics["peak_rss_mb"] = PeakRssMb();
    }
  } catch (const perfbench::Mismatch& e) {
    std::fprintf(stderr, "perfbench: output mismatch: %s\n", e.what());
    report.correct = false;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  ledger.WriteJsonl(options.work_dir + "/failures-" + options.workload +
                    ".jsonl");
  ledger.PrintSummary();
  if (options.trace) {
    tracer.WriteJsonl(options.work_dir + "/spans-" + options.workload +
                      ".jsonl");
  }
  PrintResult(report, options.trace);
  return report.correct ? 0 : 3;
}
