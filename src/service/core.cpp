#include "service/core.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>
#include <vector>

#include "analysis/affine.hpp"
#include "frontend/parser.hpp"
#include "harness/repro.hpp"
#include "harness/runner.hpp"
#include "support/buildinfo.hpp"
#include "support/error.hpp"
#include "support/serial.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/telemetry/sinks.hpp"

namespace fgpar::service {

namespace {

/// The same deterministic workload fgparc builds: i64 params get the
/// request's trip count, f64 params and arrays derive from the run seed.
harness::WorkloadInit MakeInit(std::int64_t trip) {
  return [trip](std::uint64_t seed, const ir::Kernel& kernel,
                const ir::DataLayout& layout, ir::ParamEnv& params,
                std::vector<std::uint64_t>& memory) {
    Rng rng(seed);
    for (const ir::Symbol& sym : kernel.symbols()) {
      switch (sym.kind) {
        case ir::SymbolKind::kParam:
          if (sym.type == ir::ScalarType::kI64) {
            params.SetI64(sym.id, trip);
          } else {
            params.SetF64(sym.id, rng.NextDouble(0.5, 2.0));
          }
          break;
        case ir::SymbolKind::kArray: {
          const std::uint64_t base = layout.AddressOf(sym.id);
          for (std::int64_t i = 0; i < sym.array_size; ++i) {
            memory[base + static_cast<std::uint64_t>(i)] =
                sym.type == ir::ScalarType::kF64
                    ? std::bit_cast<std::uint64_t>(rng.NextDouble(0.5, 2.0))
                    : static_cast<std::uint64_t>(
                          rng.NextInt(0, sym.array_size - 1));
          }
          break;
        }
        case ir::SymbolKind::kScalar:
          break;
      }
    }
  };
}

harness::RunConfig ToRunConfig(const RunRequestConfig& config,
                               std::uint64_t cycle_budget) {
  harness::RunConfig run;
  run.compile.num_cores = config.cores;
  run.compile.speculation = config.speculate;
  run.compile.throughput_heuristic = config.throughput || config.merge == 2;
  run.compile.multi_pair_merge = config.merge == 1;
  run.queue.transfer_latency = config.latency;
  run.queue.capacity = config.capacity;
  run.threads_per_core = config.smt;
  run.tune_by_simulation = config.tune;
  run.seed = config.seed;
  run.max_cycles = cycle_budget;
  run.force_tier = config.tier;
  run.backend = config.backend;
  return run;
}

/// Renders the deterministic result object — exactly the bytes the cache
/// stores, so a cache hit is byte-identical to the cold response by
/// construction.
std::string BuildResultBody(const harness::KernelRun& run, bool degraded,
                            std::string_view degraded_reason) {
  JsonWriter w;
  w.BeginObject();
  w.Key("kernel");
  w.String(run.kernel_name);
  w.Key("degraded");
  w.Bool(degraded);
  if (degraded) {
    w.Key("degraded_reason");
    w.String(degraded_reason);
  }
  const telemetry::CounterRegistry registry = harness::KernelRunTelemetry(run);
  w.Key("counters");
  w.BeginObject();
  registry.ForEachArtifactCount(
      [&w](const std::string& name, std::uint64_t value) {
        w.Key(name);
        w.UInt(value);
      });
  w.EndObject();
  w.Key("metrics");
  w.BeginObject();
  registry.ForEachArtifactMetric([&w](const std::string& name, double value) {
    w.Key(name);
    w.Double(value);
  });
  w.EndObject();
  w.EndObject();
  std::string body = w.Take();
  while (!body.empty() && body.back() == '\n') {
    body.pop_back();
  }
  return body;
}

/// Wraps a result body in the response envelope.  Rendered by hand so the
/// cached body can be spliced in verbatim: the envelope is a pure function
/// of (id, body), which is what makes cached and cold responses to the
/// same request byte-identical.
std::string OkEnvelope(std::uint64_t id, std::string_view body) {
  std::string out;
  out.reserve(body.size() + 96);
  out += "{\"schema\":\"";
  out += kRpcSchema;
  out += "\",\"id\":";
  out += std::to_string(id);
  out += ",\"op\":\"compile_run\",\"status\":\"ok\",\"code\":200,\"result\":";
  out += body;
  out += "}";
  return out;
}

}  // namespace

ServiceCore::ServiceCore(const ServiceConfig& config)
    : config_(config), cache_(config.cache_path, config.cache_max_entries) {}

void ServiceCore::CountResponse(int code) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++counters_["requests_total"];
  ++counters_["responses_" + std::to_string(code)];
}

std::string ServiceCore::HandleFrame(std::string_view payload) {
  Request request;
  try {
    request = ParseRequest(payload);
  } catch (const Error& e) {
    CountResponse(kBadRequest);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++counters_["bad_requests"];
    }
    return BuildErrorResponse(0, Op::kHealth, kBadRequest, "bad_request",
                              e.what());
  }
  return Handle(request);
}

std::string ServiceCore::Handle(const Request& request) {
  return Handle(request, std::chrono::steady_clock::now());
}

std::string ServiceCore::Handle(
    const Request& request,
    std::chrono::steady_clock::time_point admitted) {
  switch (request.op) {
    case Op::kHealth:
      return HandleHealth(request);
    case Op::kStats:
      return HandleStats(request);
    case Op::kShutdown:
      return HandleShutdown(request);
    case Op::kCompileRun:
      break;
  }
  telemetry::ScopedSpan span(config_.telemetry, "request", "compile_run",
                             static_cast<int>(request.id & 0x7fffffff));
  bool cache_hit = false;
  const std::string response = HandleCompileRun(request, admitted, cache_hit);
  span.Note("cache_hit", cache_hit ? 1 : 0);
  RecordLatency(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              admitted)
                    .count());
  return response;
}

void ServiceCore::RecordLatency(double seconds) {
  const auto us = static_cast<std::uint64_t>(seconds * 1e6);
  std::lock_guard<std::mutex> lock(mutex_);
  if (latency_us_.size() < kLatencyWindow) {
    latency_us_.push_back(us);
  } else {
    latency_us_[latency_next_] = us;
  }
  latency_next_ = (latency_next_ + 1) % kLatencyWindow;
}

std::string ServiceCore::HandleCompileRun(
    const Request& request,
    std::chrono::steady_clock::time_point admitted, bool& cache_hit) {
  const std::string canonical = request.config.CanonicalString();
  const CacheKey key = CompileCache::KeyFor(request.kernel, canonical);

  // Rung 1 of the degradation ladder: a cached result is free, so it is
  // served even when the deadline has already expired.
  if (std::optional<std::string> body = cache_.Lookup(key)) {
    cache_hit = true;
    CountResponse(kOk);
    return OkEnvelope(request.id, *body);
  }

  // Quarantined (kernel, config) pairs are refused without re-running:
  // one poison job must not grind the worker pool down repeatedly.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = quarantine_.find(key);
    if (it != quarantine_.end()) {
      ++counters_["requests_total"];
      ++counters_["responses_" + std::to_string(kInternal)];
      return BuildErrorResponse(
          request.id, Op::kCompileRun, kInternal, "quarantined",
          "quarantined after earlier failure: " + it->second.message +
              (it->second.repro_bundle.empty()
                   ? ""
                   : " (repro bundle " + it->second.repro_bundle + ")"));
    }
  }

  const auto deadline_expired = [&] {
    if (config_.request_deadline_seconds <= 0.0) {
      return false;
    }
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      admitted)
            .count();
    return elapsed > config_.request_deadline_seconds;
  };
  if (deadline_expired()) {
    CountResponse(kDeadline);
    return BuildErrorResponse(request.id, Op::kCompileRun, kDeadline,
                              "deadline",
                              "deadline expired while the request was queued");
  }

  // Frontend errors are the client's problem: structured 400 with the
  // parser's message, no quarantine, no repro bundle.
  std::optional<ir::Kernel> kernel;
  try {
    kernel.emplace(frontend::ParseKernel(request.kernel));
  } catch (const Error& e) {
    CountResponse(kBadRequest);
    return BuildErrorResponse(request.id, Op::kCompileRun, kBadRequest,
                              "bad_kernel", e.what());
  }
  // So is a trip that drives a subscript past its array: the same check
  // and message as fgparc --trip, before any compile.
  try {
    analysis::CheckTripInBounds(*kernel, request.config.trip);
  } catch (const Error& e) {
    CountResponse(kBadRequest);
    return BuildErrorResponse(request.id, Op::kCompileRun, kBadRequest,
                              "bad_request", e.what());
  }

  const harness::RunConfig run_config =
      ToRunConfig(request.config, config_.cycle_budget);
  try {
    const std::uint64_t executed =
        executed_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (config_.drill_crash_every > 0 &&
        executed % config_.drill_crash_every == 0) {
      throw Error("injected drill failure (--drill-crash-every " +
                  std::to_string(config_.drill_crash_every) + ")");
    }
    harness::KernelRunner runner(*kernel, MakeInit(request.config.trip));
    const harness::KernelRun run = runner.Run(run_config);
    const std::string body = BuildResultBody(run, /*degraded=*/false, "");
    // Insert persists atomically before the response leaves the daemon,
    // so any 200 a client ever sees is already crash-durable.
    cache_.Insert(key, body);
    CountResponse(kOk);
    return OkEnvelope(request.id, body);
  } catch (const harness::CycleBudgetError& e) {
    // Rung 2: the full pipeline blew its simulated-cycle budget.  Retry as
    // a sequential-only measurement — no parallel compile, no tuning, one
    // single-core simulation — which is the cheapest result still worth
    // returning.  Never cached: it reflects this daemon's budget, not the
    // request's content.
    if (!deadline_expired()) {
      try {
        harness::KernelRunner runner(*kernel, MakeInit(request.config.trip));
        const std::uint64_t seq_cycles = runner.MeasureSequential(run_config);
        harness::KernelRun degraded;
        degraded.kernel_name = kernel->name();
        degraded.seq_cycles = seq_cycles;
        degraded.par_cycles = seq_cycles;
        degraded.speedup = 1.0;
        degraded.cores_used = 1;
        degraded.fallback_used = true;
        degraded.failure_reason = e.what();
        {
          std::lock_guard<std::mutex> lock(mutex_);
          ++counters_["degraded"];
        }
        CountResponse(kOk);
        return OkEnvelope(request.id,
                          BuildResultBody(degraded, /*degraded=*/true,
                                          e.what()));
      } catch (const Error&) {
        // Sequential overran too; fall through to the structured 408.
      }
    }
    CountResponse(kDeadline);
    return BuildErrorResponse(request.id, Op::kCompileRun, kDeadline,
                              "deadline", e.what());
  } catch (const Error& e) {
    return Quarantine(request, key, kernel->name(), e.what());
  } catch (const std::exception& e) {
    return Quarantine(request, key, kernel->name(), e.what());
  }
}

std::string ServiceCore::Quarantine(const Request& request,
                                    const CacheKey& key,
                                    std::string_view kernel_name,
                                    std::string_view message) {
  QuarantineRecord record;
  record.message = std::string(message);
  if (!config_.quarantine_dir.empty()) {
    harness::ReproBundle bundle;
    bundle.experiment = "fgpard";
    bundle.label = std::string(kernel_name) + " " +
                   request.config.CanonicalString();
    bundle.point_index = request.id;
    bundle.kernel_id = std::string(kernel_name);
    bundle.kernel_source = request.kernel;
    bundle.trip = request.config.trip;
    bundle.config = ToRunConfig(request.config, config_.cycle_budget);
    bundle.failure_message = record.message;
    bundle.failure_attempts = 1;
    const std::string name = "repro_fgpard_" + Hex64(key.kernel_hash) + "_" +
                             Hex64(key.config_hash);
    try {
      harness::WriteReproBundle(config_.quarantine_dir, name, bundle);
      record.repro_bundle = name;
    } catch (const Error& e) {
      // A full disk must not turn a structured 500 into a crash; the
      // emit failure travels in the response instead.
      record.message += " (repro bundle emission failed: ";
      record.message += e.what();
      record.message += ")";
    }
  }
  std::map<std::string, std::uint64_t> extra;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    quarantine_.emplace(key, record);
    ++counters_["requests_total"];
    ++counters_["responses_" + std::to_string(kInternal)];
    ++counters_["quarantined"];
  }
  std::string text = "execution failed: " + record.message;
  if (!record.repro_bundle.empty()) {
    text += " (repro bundle " + record.repro_bundle + ")";
  }
  return BuildErrorResponse(request.id, Op::kCompileRun, kInternal,
                            "quarantined", text, extra);
}

std::string ServiceCore::HandleHealth(const Request& request) {
  CountResponse(kOk);
  JsonWriter w;
  w.BeginObject();
  w.Key("schema");
  w.String(kRpcSchema);
  w.Key("id");
  w.UInt(request.id);
  w.Key("op");
  w.String("health");
  w.Key("status");
  w.String("ok");
  w.Key("code");
  w.Int(kOk);
  w.Key("health");
  w.BeginObject();
  w.Key("version");
  w.String(BuildVersionString());
  w.Key("config_hash");
  w.String(BuildConfigHashHex());
  w.Key("workers");
  w.Int(config_.workers);
  w.Key("queue_capacity");
  w.UInt(config_.queue_depth);
  w.Key("queue_depth");
  w.UInt(queue_depth_probe_ ? queue_depth_probe_() : 0);
  w.Key("cache_entries");
  w.UInt(cache_.stats().entries);
  w.Key("draining");
  w.Bool(shutdown_requested());
  w.EndObject();
  w.EndObject();
  return w.Take();
}

std::string ServiceCore::HandleStats(const Request& request) {
  CountResponse(kOk);
  JsonWriter w;
  w.BeginObject();
  w.Key("schema");
  w.String(kRpcSchema);
  w.Key("id");
  w.UInt(request.id);
  w.Key("op");
  w.String("stats");
  w.Key("status");
  w.String("ok");
  w.Key("code");
  w.Int(kOk);
  w.Key("stats");
  w.BeginObject();
  for (const auto& [name, value] : Counters()) {
    w.Key(name);
    w.UInt(value);
  }
  w.EndObject();
  w.EndObject();
  return w.Take();
}

std::string ServiceCore::HandleShutdown(const Request& request) {
  shutdown_requested_.store(true, std::memory_order_relaxed);
  CountResponse(kOk);
  JsonWriter w;
  w.BeginObject();
  w.Key("schema");
  w.String(kRpcSchema);
  w.Key("id");
  w.UInt(request.id);
  w.Key("op");
  w.String("shutdown");
  w.Key("status");
  w.String("ok");
  w.Key("code");
  w.Int(kOk);
  w.Key("message");
  w.String("draining; the daemon exits when in-flight work completes");
  w.EndObject();
  return w.Take();
}

std::string ServiceCore::RejectOverloaded(const Request& request,
                                          std::size_t depth,
                                          std::size_t capacity) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_["requests_total"];
    ++counters_["responses_" + std::to_string(kRejected)];
    ++counters_["rejected_overloaded"];
  }
  return BuildErrorResponse(
      request.id, request.op, kRejected, "overloaded",
      "request queue is full; retry with backoff",
      {{"queue_depth", depth}, {"queue_capacity", capacity}});
}

std::string ServiceCore::RejectDraining(const Request& request) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_["requests_total"];
    ++counters_["responses_" + std::to_string(kRejected)];
    ++counters_["rejected_draining"];
  }
  return BuildErrorResponse(request.id, request.op, kRejected, "draining",
                            "daemon is draining for shutdown");
}

std::string ServiceCore::RejectBadFrame(std::string_view message) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_["requests_total"];
    ++counters_["responses_" + std::to_string(kBadRequest)];
    ++counters_["bad_frames"];
  }
  return BuildErrorResponse(0, Op::kHealth, kBadRequest, "bad_frame", message);
}

std::map<std::string, std::uint64_t> ServiceCore::Counters() const {
  std::map<std::string, std::uint64_t> snapshot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snapshot = counters_;
    snapshot["quarantine_entries"] = quarantine_.size();
    // Service-latency percentiles over the bounded sample window
    // (nearest-rank on a sorted copy; 4096 u64s, cheap enough for a
    // stats op).  Reported even when 0 samples so dashboards see the
    // keys from the first scrape.
    std::vector<std::uint64_t> sorted = latency_us_;
    std::sort(sorted.begin(), sorted.end());
    const auto percentile = [&sorted](double q) -> std::uint64_t {
      if (sorted.empty()) {
        return 0;
      }
      const auto rank = static_cast<std::size_t>(
          std::ceil(q * static_cast<double>(sorted.size())));
      return sorted[(rank == 0 ? 1 : rank) - 1];
    };
    snapshot["latency_samples"] = sorted.size();
    snapshot["latency_p50_us"] = percentile(0.50);
    snapshot["latency_p99_us"] = percentile(0.99);
  }
  const CompileCache::Stats cache = cache_.stats();
  snapshot["cache_hits"] = cache.hits;
  snapshot["cache_misses"] = cache.misses;
  snapshot["cache_insertions"] = cache.insertions;
  snapshot["cache_corrupt_evicted"] = cache.corrupt_evicted;
  snapshot["cache_capacity_evicted"] = cache.capacity_evicted;
  snapshot["cache_loaded"] = cache.loaded;
  snapshot["cache_entries"] = cache.entries;
  snapshot["executed"] = executed_.load(std::memory_order_relaxed);
  return snapshot;
}

}  // namespace fgpar::service
