// fgpard — the crash-safe, overload-tolerant compile-and-simulate daemon.
//
// Usage:
//   fgpard --socket PATH [options]
//
// Options:
//   --socket PATH        address to serve on (support/net grammar): a
//                        leading '@' binds the Linux abstract namespace
//                        (no filesystem entry), "tcp:host:port" a TCP
//                        port, anything else a filesystem socket
//                        unlinked on clean shutdown
//   --cache FILE         persist the compile cache here ("fgpar-cache-v1",
//                        one appended line per insert, compacted through
//                        temp+rename at twice the live entries; default:
//                        none).  A daemon restarted after kill -9 replays
//                        the file and serves cached responses
//                        byte-identically.
//   --cache-entries N    cache capacity before FIFO eviction (default 4096)
//   --workers N          compile worker threads (default: FGPAR_SWEEP_THREADS
//                        or the host's hardware concurrency)
//   --queue-depth N      bounded request queue; overflow gets a structured
//                        503 (default 16)
//   --deadline S         per-request wall-clock deadline in seconds,
//                        measured from admission (default: none)
//   --cycle-budget N     simulated-cycle budget per measured execution;
//                        overruns degrade to a sequential-only result and
//                        then to a structured 408 (default: none)
//   --quarantine-dir DIR emit a repro bundle per quarantined request
//   --drill-crash-every N fault drill: every Nth executed (non-cached)
//                        compile_run fails with an injected error and is
//                        quarantined — exercises the structured-500 path
//   --trace FILE         write a Chrome trace_event capture of request
//                        spans on exit (open at ui.perfetto.dev)
//   --version            print version + build-config hash and exit
//
// Lifecycle: SIGTERM/SIGINT (or a shutdown request) drains — in-flight
// and queued requests finish, their responses are delivered, and the
// process exits 0.  kill -9 is recovered by the cache: every 200 was
// persisted before it was acknowledged, so the restarted daemon serves
// the same bytes.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "service/core.hpp"
#include "service/server.hpp"
#include "support/buildinfo.hpp"
#include "support/error.hpp"
#include "support/telemetry/sinks.hpp"

namespace {

using namespace fgpar;

[[noreturn]] void Usage() {
  std::fprintf(
      stderr,
      "usage: fgpard --socket PATH [--cache FILE] [--cache-entries N]\n"
      "              [--workers N] [--queue-depth N] [--deadline S]\n"
      "              [--cycle-budget N] [--quarantine-dir DIR]\n"
      "              [--drill-crash-every N] [--trace FILE] [--version]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  std::string trace_path;
  service::ServiceConfig config;

  auto next_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      Usage();
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--version") == 0) {
      std::printf("fgpard %s config %s\n", BuildVersionString().c_str(),
                  BuildConfigHashHex().c_str());
      return 0;
    } else if (std::strcmp(arg, "--socket") == 0) {
      socket_path = next_value(i);
    } else if (std::strcmp(arg, "--cache") == 0) {
      config.cache_path = next_value(i);
    } else if (std::strcmp(arg, "--cache-entries") == 0) {
      config.cache_max_entries =
          static_cast<std::size_t>(std::atoll(next_value(i)));
    } else if (std::strcmp(arg, "--workers") == 0) {
      config.workers = std::atoi(next_value(i));
    } else if (std::strcmp(arg, "--queue-depth") == 0) {
      config.queue_depth = static_cast<std::size_t>(std::atoll(next_value(i)));
    } else if (std::strcmp(arg, "--deadline") == 0) {
      config.request_deadline_seconds = std::atof(next_value(i));
    } else if (std::strcmp(arg, "--cycle-budget") == 0) {
      config.cycle_budget =
          static_cast<std::uint64_t>(std::atoll(next_value(i)));
    } else if (std::strcmp(arg, "--quarantine-dir") == 0) {
      config.quarantine_dir = next_value(i);
    } else if (std::strcmp(arg, "--drill-crash-every") == 0) {
      config.drill_crash_every =
          static_cast<std::size_t>(std::atoll(next_value(i)));
    } else if (std::strcmp(arg, "--trace") == 0) {
      trace_path = next_value(i);
    } else {
      std::fprintf(stderr, "fgpard: unknown option %s\n", arg);
      Usage();
    }
  }
  if (socket_path.empty()) {
    Usage();
  }

  try {
    telemetry::ChromeTraceSink trace_sink;
    if (!trace_path.empty()) {
      config.telemetry = &trace_sink;
    }
    service::ServiceCore core(config);
    const service::CompileCache::Stats loaded = core.cache().stats();
    service::SocketServer server(core, socket_path);
    service::SocketServer::InstallSignalHandlers();
    server.Start();
    // The "listening" line is the readiness handshake load clients wait
    // for before connecting.
    std::printf("fgpard: listening on %s (%s; cache: %s, %llu entries"
                " replayed, %llu corrupt evicted)\n",
                socket_path.c_str(), BuildVersionString().c_str(),
                config.cache_path.empty() ? "memory-only"
                                          : config.cache_path.c_str(),
                static_cast<unsigned long long>(loaded.loaded),
                static_cast<unsigned long long>(loaded.corrupt_evicted));
    std::fflush(stdout);

    const int rc = server.ServeUntilShutdown();

    const auto counters = core.Counters();
    const auto get = [&counters](const char* name) -> unsigned long long {
      const auto it = counters.find(name);
      return it == counters.end() ? 0ull
                                  : static_cast<unsigned long long>(it->second);
    };
    std::printf("fgpard: drained; %llu requests (%llu ok, %llu rejected, "
                "%llu quarantined), cache %llu hits / %llu misses\n",
                get("requests_total"), get("responses_200"),
                get("responses_503"), get("quarantined"), get("cache_hits"),
                get("cache_misses"));
    if (!trace_path.empty()) {
      trace_sink.WriteFile(trace_path);
      std::printf("fgpard: trace written: %s\n", trace_path.c_str());
    }
    return rc;
  } catch (const fgpar::Error& e) {
    std::fprintf(stderr, "fgpard: %s\n", e.what());
    return 1;
  }
}
