// Unit tests for the fgpard service layer: wire protocol round-trips, the
// content-addressed compile cache (key separation, crash-safe persistence,
// corrupt-entry eviction), and ServiceCore's request semantics — cache-hit
// byte-identity, the graceful-degradation ladder, and quarantine.
//
// Everything here drives ServiceCore in-process with plain strings; the
// socket transport is covered end-to-end by the `service_slo` ctest
// (fgpar-load against a real daemon, including kill -9 + restart).
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "service/cache.hpp"
#include "service/core.hpp"
#include "service/protocol.hpp"
#include "support/buildinfo.hpp"
#include "support/error.hpp"
#include "support/json.hpp"

namespace fgpar::service {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

/// A small reduction kernel: the carried sum forces cross-core queue
/// traffic every iteration, so queue latency dominates the parallel
/// schedule — which is what the degradation-ladder test exploits.
constexpr char kSumKernel[] = R"(
kernel svcsum {
  param i64 n;
  array f64 a[64];
  scalar f64 out;
  carried f64 sum = 0.0;
  loop i = 0 .. n {
    sum = sum + a[i] * 2.0;
  }
  after {
    out = sum;
  }
}
)";

Request MakeCompileRun(std::uint64_t id, int cores = 2,
                       std::int64_t trip = 48) {
  Request request;
  request.op = Op::kCompileRun;
  request.id = id;
  request.kernel = kSumKernel;
  request.config.cores = cores;
  request.config.trip = trip;
  return request;
}

std::uint64_t Counter(const ServiceCore& core, const std::string& name) {
  const auto counters = core.Counters();
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

// ---------------------------------------------------------------------------
// Protocol

TEST(ServiceProtocol, RequestRoundTrip) {
  Request request = MakeCompileRun(42, /*cores=*/8, /*trip=*/100);
  request.config.latency = 9;
  request.config.capacity = 33;
  request.config.smt = 2;
  request.config.speculate = true;
  request.config.throughput = true;
  request.config.tune = true;
  request.config.seed = 0xDEADBEEF;

  const Request parsed = ParseRequest(EncodeRequest(request));
  EXPECT_EQ(parsed.op, Op::kCompileRun);
  EXPECT_EQ(parsed.id, 42u);
  EXPECT_EQ(parsed.kernel, request.kernel);
  EXPECT_EQ(parsed.config.CanonicalString(),
            request.config.CanonicalString());
}

TEST(ServiceProtocol, TierRoundTripsAndRejectsUnknownNames) {
  Request request = MakeCompileRun(1);
  request.config.tier = sim::RunTier::kThreaded;
  EXPECT_EQ(ParseRequest(EncodeRequest(request)).config.tier,
            sim::RunTier::kThreaded);
  request.config.tier = sim::RunTier::kSlow;
  EXPECT_EQ(ParseRequest(EncodeRequest(request)).config.tier,
            sim::RunTier::kSlow);
  // An unknown tier name is a validation error (a structured 400 at the
  // daemon), never a silent fallback to auto.
  EXPECT_THROW(
      (void)ParseRequest(
          "{\"schema\":\"fgpar-rpc-v1\",\"op\":\"compile_run\",\"id\":1,"
          "\"kernel\":\"kernel k {}\",\"config\":{\"tier\":\"warp\"}}"),
      Error);
}

TEST(ServiceProtocol, ParseRequestRejectsHostileInput) {
  const auto reject = [](const std::string& payload) {
    EXPECT_THROW((void)ParseRequest(payload), Error) << payload;
  };
  reject("not json at all");
  reject("{\"schema\":\"wrong-schema\",\"op\":\"health\",\"id\":1}");
  reject("{\"schema\":\"fgpar-rpc-v1\",\"op\":\"explode\",\"id\":1}");
  reject("{\"schema\":\"fgpar-rpc-v1\",\"op\":\"compile_run\",\"id\":1}");
  reject(
      "{\"schema\":\"fgpar-rpc-v1\",\"op\":\"compile_run\",\"id\":1,"
      "\"kernel\":\"\"}");
  // Every config bound, one violation each.
  for (const char* config :
       {"{\"cores\": 0}", "{\"cores\": 65}", "{\"latency\": -1}",
        "{\"latency\": 10001}", "{\"capacity\": 0}", "{\"smt\": 9}",
        "{\"trip\": 0}", "{\"trip\": 10000001}"}) {
    reject(std::string("{\"schema\":\"fgpar-rpc-v1\",\"op\":\"compile_run\","
                       "\"id\":1,\"kernel\":\"kernel k {}\",\"config\":") +
           config + "}");
  }
}

TEST(ServiceProtocol, FrameRoundTrip) {
  const std::string buffer =
      EncodeFrame("first payload") + EncodeFrame("{\"second\":2}");
  std::size_t pos = 0;
  EXPECT_EQ(DecodeFrame(buffer, pos).value(), "first payload");
  EXPECT_EQ(DecodeFrame(buffer, pos).value(), "{\"second\":2}");
  EXPECT_EQ(pos, buffer.size());
  EXPECT_FALSE(DecodeFrame(buffer, pos).has_value());  // nothing left
}

TEST(ServiceProtocol, IncompleteFrameIsNotConsumed) {
  const std::string frame = EncodeFrame("payload");
  for (std::size_t len = 0; len < frame.size(); ++len) {
    std::size_t pos = 0;
    EXPECT_FALSE(DecodeFrame(frame.substr(0, len), pos).has_value());
    EXPECT_EQ(pos, 0u);  // a partial frame must not advance the cursor
  }
}

TEST(ServiceProtocol, OversizedFrameThrowsInsteadOfAllocating) {
  std::string header(4, '\0');
  const std::uint32_t huge = kMaxFrameBytes + 1;
  for (int i = 0; i < 4; ++i) {
    header[i] = static_cast<char>((huge >> (8 * i)) & 0xff);
  }
  std::size_t pos = 0;
  EXPECT_THROW((void)DecodeFrame(header, pos), Error);
}

TEST(ServiceProtocol, ErrorResponsesAreStructured) {
  const std::string payload = BuildErrorResponse(
      7, Op::kCompileRun, kRejected, "overloaded", "queue full",
      {{"queue_depth", 16}, {"queue_capacity", 16}});
  const JsonValue doc = ParseJson(payload);
  EXPECT_EQ(doc.Get("schema").AsString(), kRpcSchema);
  EXPECT_EQ(doc.Get("id").AsU64(), 7u);
  EXPECT_EQ(doc.Get("op").AsString(), "compile_run");
  EXPECT_EQ(doc.Get("status").AsString(), "error");
  EXPECT_EQ(doc.Get("code").AsI64(), kRejected);
  EXPECT_EQ(doc.Get("error").Get("kind").AsString(), "overloaded");
  EXPECT_EQ(doc.Get("error").Get("queue_depth").AsU64(), 16u);
}

// ---------------------------------------------------------------------------
// Cache keying: distinct jobs must never share a key.

TEST(ServiceCache, EveryConfigFieldSeparatesTheKey) {
  // One variant per field; all canonical strings (and hence keys) must be
  // pairwise distinct — a collision would serve one job's result for
  // another.
  std::vector<RunRequestConfig> variants(10);
  variants.reserve(12);
  variants[1].cores = 8;
  variants[2].latency = 6;
  variants[3].capacity = 21;
  variants[4].smt = 2;
  variants[5].speculate = true;
  variants[6].throughput = true;
  variants[7].tune = true;
  variants[8].trip = 401;
  variants[9].seed = 0x5EED + 1;
  variants.emplace_back().merge = 1;
  variants.emplace_back().merge = 2;
  for (std::size_t i = 0; i < variants.size(); ++i) {
    for (std::size_t j = i + 1; j < variants.size(); ++j) {
      EXPECT_NE(variants[i].CanonicalString(), variants[j].CanonicalString())
          << "variants " << i << " and " << j;
      EXPECT_FALSE(CompileCache::KeyFor("kernel k {}",
                                        variants[i].CanonicalString()) ==
                   CompileCache::KeyFor("kernel k {}",
                                        variants[j].CanonicalString()))
          << "variants " << i << " and " << j;
    }
  }
}

TEST(ServiceProtocol, MergeShapeRoundTripsAndRejectsUnknownNames) {
  // The JSON field carries the shape name, the struct the TunePoint code.
  Request request = MakeCompileRun(1);
  request.config.merge = 1;
  EXPECT_EQ(ParseRequest(EncodeRequest(request)).config.merge, 1);
  request.config.merge = 2;
  EXPECT_EQ(ParseRequest(EncodeRequest(request)).config.merge, 2);
  // Omitting the field keeps the affinity default — old clients stay valid.
  EXPECT_EQ(ParseRequest("{\"schema\":\"fgpar-rpc-v1\",\"op\":\"compile_run\","
                         "\"id\":1,\"kernel\":\"kernel k {}\","
                         "\"config\":{}}")
                .config.merge,
            0);
  // An unknown shape name is a structured 400, never a silent default.
  EXPECT_THROW(
      (void)ParseRequest(
          "{\"schema\":\"fgpar-rpc-v1\",\"op\":\"compile_run\",\"id\":1,"
          "\"kernel\":\"kernel k {}\",\"config\":{\"merge\":\"fastest\"}}"),
      Error);
  // throughput:true is the back-compat spelling of merge=throughput;
  // combining it with multi_pair asks for two different merge drivers.
  EXPECT_THROW(
      (void)ParseRequest(
          "{\"schema\":\"fgpar-rpc-v1\",\"op\":\"compile_run\",\"id\":1,"
          "\"kernel\":\"kernel k {}\","
          "\"config\":{\"throughput\":true,\"merge\":\"multi_pair\"}}"),
      Error);
}

TEST(ServiceProtocol, BackendRoundTripsAndRejectsUnknownNames) {
  Request request = MakeCompileRun(2);
  request.config.backend = compiler::BackendKind::kNative;
  EXPECT_EQ(ParseRequest(EncodeRequest(request)).config.backend,
            compiler::BackendKind::kNative);
  request.config.backend = compiler::BackendKind::kSim;
  EXPECT_EQ(ParseRequest(EncodeRequest(request)).config.backend,
            compiler::BackendKind::kSim);
  // An unknown backend name is a validation error (structured 400), never
  // a silent fallback to sim.
  EXPECT_THROW(
      (void)ParseRequest(
          "{\"schema\":\"fgpar-rpc-v1\",\"op\":\"compile_run\",\"id\":1,"
          "\"kernel\":\"kernel k {}\",\"config\":{\"backend\":\"gpu\"}}"),
      Error);
}

TEST(ServiceCache, BackendIsPartOfTheKey) {
  // The opposite contract from `tier`: a native run carries measured
  // wall-clock result fields a sim entry lacks, so backend variants must
  // never share a cache entry.
  RunRequestConfig sim_config;
  RunRequestConfig native_config;
  native_config.backend = compiler::BackendKind::kNative;
  EXPECT_NE(sim_config.CanonicalString(), native_config.CanonicalString());
  EXPECT_FALSE(
      CompileCache::KeyFor(kSumKernel, sim_config.CanonicalString()) ==
      CompileCache::KeyFor(kSumKernel, native_config.CanonicalString()));
}

TEST(ServiceCache, TierNeverChangesTheKey) {
  // Run tiers are bit-identical by contract, so the tier is the one config
  // field deliberately excluded from the cache key: a tier-only variant
  // of a request must be served from the same entry.
  RunRequestConfig base;
  for (const sim::RunTier tier :
       {sim::RunTier::kSlow, sim::RunTier::kFast, sim::RunTier::kThreaded}) {
    RunRequestConfig variant;
    variant.tier = tier;
    EXPECT_EQ(base.CanonicalString(), variant.CanonicalString());
    EXPECT_TRUE(CompileCache::KeyFor(kSumKernel, base.CanonicalString()) ==
                CompileCache::KeyFor(kSumKernel, variant.CanonicalString()));
  }
}

TEST(ServiceCache, WhitespaceDistinctSourcesAreDistinctKeys) {
  // The service hashes raw source bytes — it never argues that a
  // normalization is semantics-preserving.
  const std::string config = RunRequestConfig{}.CanonicalString();
  const CacheKey a = CompileCache::KeyFor("kernel k { }", config);
  const CacheKey b = CompileCache::KeyFor("kernel k {  }", config);
  const CacheKey c = CompileCache::KeyFor("kernel k { }\n", config);
  EXPECT_FALSE(a == b);
  EXPECT_FALSE(a == c);
  EXPECT_FALSE(b == c);
}

// ---------------------------------------------------------------------------
// Cache persistence and corruption recovery.

TEST(ServiceCache, PersistedEntriesSurviveRestartByteIdentical) {
  const std::string path = TempPath("svc_cache_replay.fgc");
  std::filesystem::remove(path);
  const CacheKey k1 = CompileCache::KeyFor("kernel a {}", "cfg-a");
  const CacheKey k2 = CompileCache::KeyFor("kernel b {}", "cfg-b");
  {
    CompileCache cache(path);
    cache.Insert(k1, "{\"result\":\"alpha\"}");
    cache.Insert(k2, "{\"result\":\"beta\",\n  \"n\": 2}");
  }
  // A new instance (the kill -9 + restart path) replays the file.
  CompileCache revived(path);
  EXPECT_EQ(revived.stats().loaded, 2u);
  EXPECT_EQ(revived.stats().corrupt_evicted, 0u);
  EXPECT_EQ(revived.Lookup(k1).value(), "{\"result\":\"alpha\"}");
  EXPECT_EQ(revived.Lookup(k2).value(), "{\"result\":\"beta\",\n  \"n\": 2}");
}

TEST(ServiceCache, CorruptedEntryIsEvictedAndRecomputed) {
  const std::string path = TempPath("svc_cache_corrupt.fgc");
  std::filesystem::remove(path);
  const CacheKey intact = CompileCache::KeyFor("kernel a {}", "cfg-a");
  const CacheKey torn = CompileCache::KeyFor("kernel b {}", "cfg-b");
  {
    CompileCache cache(path);
    cache.Insert(intact, "payload kept");
    cache.Insert(torn, "payload torn");
  }
  // Flip one hex digit in the last entry's payload: the per-entry
  // checksum must catch it.
  std::vector<std::string> lines;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      lines.push_back(line);
    }
  }
  ASSERT_GE(lines.size(), 3u);  // header + two entries
  std::string& last = lines.back();
  ASSERT_EQ(last.rfind("entry ", 0), 0u);
  last.back() = last.back() == '0' ? '1' : '0';
  {
    std::ofstream out(path, std::ios::trunc);
    for (const std::string& line : lines) {
      out << line << '\n';
    }
  }

  CompileCache revived(path);
  EXPECT_EQ(revived.stats().loaded, 1u);
  EXPECT_EQ(revived.stats().corrupt_evicted, 1u);
  EXPECT_EQ(revived.Lookup(intact).value(), "payload kept");
  // The torn entry is gone — the daemon recomputes instead of serving
  // garbage — and the recomputed result persists again.
  EXPECT_FALSE(revived.Lookup(torn).has_value());
  revived.Insert(torn, "payload recomputed");
  CompileCache third(path);
  EXPECT_EQ(third.Lookup(torn).value(), "payload recomputed");
}

TEST(ServiceCache, GarbageFileLoadsAsEmptyWithoutThrowing) {
  const std::string path = TempPath("svc_cache_garbage.fgc");
  {
    std::ofstream out(path, std::ios::trunc);
    out << "this is not a cache file\nentry nope\n";
  }
  CompileCache cache(path);
  EXPECT_EQ(cache.stats().loaded, 0u);
  EXPECT_GE(cache.stats().corrupt_evicted, 1u);
}

TEST(ServiceCache, FirstInsertWinsAndCapacityEvictsFifo) {
  CompileCache cache("", /*max_entries=*/2);
  const CacheKey a = CompileCache::KeyFor("a", "c");
  const CacheKey b = CompileCache::KeyFor("b", "c");
  const CacheKey c = CompileCache::KeyFor("c", "c");
  cache.Insert(a, "first");
  cache.Insert(a, "second");  // no-op: first result wins
  EXPECT_EQ(cache.Lookup(a).value(), "first");
  cache.Insert(b, "b");
  cache.Insert(c, "c");  // capacity 2: evicts a (oldest)
  EXPECT_FALSE(cache.Lookup(a).has_value());
  EXPECT_EQ(cache.Lookup(b).value(), "b");
  EXPECT_EQ(cache.Lookup(c).value(), "c");
  EXPECT_EQ(cache.stats().capacity_evicted, 1u);
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  return lines;
}

TEST(ServiceCache, AppendsCompactAtTwiceTheCapAndReplayTheFifo) {
  const std::string path = TempPath("svc_cache_append.fgc");
  std::filesystem::remove(path);
  constexpr std::size_t kCap = 2;
  const auto key = [](int i) {
    return CompileCache::KeyFor("kernel " + std::to_string(i) + " {}", "cfg");
  };
  CompileCache file_backed(path, kCap);
  CompileCache in_memory("", kCap);
  // 20 inserts; key 0 comes back at insert 10, long after its eviction.
  std::vector<int> order;
  for (int i = 0; i < 20; ++i) {
    order.push_back(i == 10 ? 0 : i);
  }
  for (const int i : order) {
    const std::string body = "body " + std::to_string(i);
    file_backed.Insert(key(i), body);
    in_memory.Insert(key(i), body);
    const std::vector<std::string> lines = ReadLines(path);
    ASSERT_FALSE(lines.empty());
    EXPECT_EQ(lines[0], "fgpar-cache-v1");
    EXPECT_LE(lines.size(), 1 + 2 * kCap) << "after inserting key " << i;
  }

  // The restarted cache holds what the live one holds, and evicts the
  // same key next; the re-insert after eviction is not corruption.
  CompileCache revived(path, kCap);
  EXPECT_EQ(revived.stats().corrupt_evicted, 0u);
  EXPECT_EQ(revived.stats().entries, in_memory.stats().entries);
  const auto resident = [&](CompileCache& cache) {
    std::vector<int> keys;
    for (int i = 0; i < 21; ++i) {
      if (cache.Lookup(key(i)).has_value()) {
        keys.push_back(i);
      }
    }
    return keys;
  };
  EXPECT_EQ(resident(revived), resident(in_memory));
  revived.Insert(key(20), "body 20");
  in_memory.Insert(key(20), "body 20");
  EXPECT_EQ(resident(revived), resident(in_memory));
  EXPECT_EQ(revived.Lookup(key(19)).value(), "body 19");
}

TEST(ServiceCache, ConcurrentInsertsReplayEveryKeyExactlyOnce) {
  const std::string path = TempPath("svc_cache_threads.fgc");
  std::filesystem::remove(path);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 40;
  const auto key = [](int i) {
    return CompileCache::KeyFor("kernel " + std::to_string(i) + " {}", "cfg");
  };
  {
    CompileCache cache(path);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int n = 0; n < kPerThread; ++n) {
          const int i = t * kPerThread + n;
          cache.Insert(key(i), "body " + std::to_string(i));
        }
      });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
  }
  CompileCache revived(path);
  EXPECT_EQ(revived.stats().loaded, std::uint64_t{kThreads * kPerThread});
  EXPECT_EQ(revived.stats().corrupt_evicted, 0u);
  for (int i = 0; i < kThreads * kPerThread; ++i) {
    EXPECT_EQ(revived.Lookup(key(i)).value(), "body " + std::to_string(i));
  }
  // Exactly once on disk too: one record per key, no torn interleaving.
  std::set<std::string> keys_on_disk;
  const std::vector<std::string> lines = ReadLines(path);
  for (std::size_t n = 1; n < lines.size(); ++n) {
    keys_on_disk.insert(lines[n].substr(0, lines[n].find(' ', 23)));
  }
  EXPECT_EQ(lines.size(), 1u + kThreads * kPerThread);
  EXPECT_EQ(keys_on_disk.size(), std::size_t{kThreads * kPerThread});
}

TEST(ServiceCache, FileFromTheRewriteWriterLoadsWithTheSameEntriesAndStats) {
  // tests/golden/fgpar_cache_v1.golden was written by the cache as it was
  // before the append-only log: cap 3, keys 0..4 inserted, one file
  // rewrite per insert.  Loading it must give that writer's own reload.
  const std::string path = TempPath("svc_cache_golden.fgc");
  std::filesystem::copy_file(
      std::string(FGPAR_GOLDEN_DIR) + "/fgpar_cache_v1.golden", path,
      std::filesystem::copy_options::overwrite_existing);
  const auto key = [](int i) {
    return CompileCache::KeyFor("kernel k" + std::to_string(i) + " {}", "cfg");
  };
  const auto body = [](int i) {
    return "{\"result\":" + std::to_string(i) + ",\n \"bytes\":\"" +
           std::string("\x00\x1f\xff", 3) + "\"}";
  };
  CompileCache cache(path, 3);
  EXPECT_EQ(cache.stats().loaded, 3u);
  EXPECT_EQ(cache.stats().corrupt_evicted, 0u);
  EXPECT_EQ(cache.stats().entries, 3u);
  EXPECT_FALSE(cache.Lookup(key(0)).has_value());
  EXPECT_FALSE(cache.Lookup(key(1)).has_value());
  for (int i = 2; i < 5; ++i) {
    EXPECT_EQ(cache.Lookup(key(i)).value(), body(i));
  }
  cache.Insert(key(5), "five");  // evicts key 2, the oldest
  EXPECT_FALSE(cache.Lookup(key(2)).has_value());
  EXPECT_EQ(cache.Lookup(key(5)).value(), "five");
  CompileCache revived(path, 3);
  EXPECT_EQ(revived.stats().corrupt_evicted, 0u);
  EXPECT_FALSE(revived.Lookup(key(2)).has_value());
  EXPECT_EQ(revived.Lookup(key(3)).value(), body(3));
  EXPECT_EQ(revived.Lookup(key(5)).value(), "five");
}

// ---------------------------------------------------------------------------
// ServiceCore request semantics.

TEST(ServiceCore, CacheHitIsByteIdenticalAcrossRestart) {
  const std::string path = TempPath("svc_core_cache.fgc");
  std::filesystem::remove(path);
  ServiceConfig config;
  config.cache_path = path;
  const std::string payload = EncodeRequest(MakeCompileRun(7));

  std::string cold;
  {
    ServiceCore core(config);
    cold = core.HandleFrame(payload);
    EXPECT_EQ(core.HandleFrame(payload), cold);  // warm hit, same process
    EXPECT_EQ(Counter(core, "cache_hits"), 1u);
    EXPECT_EQ(Counter(core, "executed"), 1u);
  }
  // Fresh core on the same cache file = the post-kill -9 daemon.  The
  // replayed response must be byte-identical without executing anything.
  ServiceCore revived(config);
  EXPECT_EQ(revived.HandleFrame(payload), cold);
  EXPECT_EQ(Counter(revived, "cache_hits"), 1u);
  EXPECT_EQ(Counter(revived, "executed"), 0u);

  const JsonValue doc = ParseJson(cold);
  EXPECT_EQ(doc.Get("code").AsI64(), kOk);
  EXPECT_EQ(doc.Get("id").AsU64(), 7u);
  EXPECT_EQ(doc.Get("result").Get("kernel").AsString(), "svcsum");
  EXPECT_FALSE(doc.Get("result").Get("degraded").AsBool());
}

TEST(ServiceCore, CachedBodyIsReenvelopedPerRequestId) {
  ServiceConfig config;  // memory-only cache
  ServiceCore core(config);
  const std::string first = core.Handle(MakeCompileRun(1));
  const std::string second = core.Handle(MakeCompileRun(2));
  EXPECT_NE(first, second);  // ids differ…
  const JsonValue a = ParseJson(first);
  const JsonValue b = ParseJson(second);
  EXPECT_EQ(a.Get("id").AsU64(), 1u);
  EXPECT_EQ(b.Get("id").AsU64(), 2u);
  // …but the deterministic result payload is the same cached bytes.
  EXPECT_EQ(a.Get("result").Get("counters").Get("seq_cycles").AsU64(),
            b.Get("result").Get("counters").Get("seq_cycles").AsU64());
  EXPECT_EQ(Counter(core, "cache_hits"), 1u);
  EXPECT_EQ(Counter(core, "executed"), 1u);
}

TEST(ServiceCore, TierNeverChangesTheResponseBytes) {
  // Cold responses computed under different tiers must be byte-identical
  // (the simulator's cross-tier bit-identity surfacing at the wire), and a
  // tier-only variant of an already-served request must be a cache hit.
  const auto with_tier = [](std::uint64_t id, sim::RunTier tier) {
    Request request = MakeCompileRun(id);
    request.config.tier = tier;
    return request;
  };

  ServiceCore threaded_core{ServiceConfig{}};  // memory-only caches
  ServiceCore slow_core{ServiceConfig{}};
  const std::string cold_threaded =
      threaded_core.Handle(with_tier(9, sim::RunTier::kThreaded));
  const std::string cold_slow =
      slow_core.Handle(with_tier(9, sim::RunTier::kSlow));
  EXPECT_EQ(cold_threaded, cold_slow)
      << "pinning a tier may change how fast a cold request simulates, "
         "never what it returns";

  // Same core, same request, different tier: served from cache.
  EXPECT_EQ(threaded_core.Handle(with_tier(9, sim::RunTier::kFast)),
            cold_threaded);
  EXPECT_EQ(Counter(threaded_core, "cache_hits"), 1u);
  EXPECT_EQ(Counter(threaded_core, "executed"), 1u);
}

TEST(ServiceCore, BadKernelIs400NeverQuarantined) {
  ServiceCore core(ServiceConfig{});
  Request request = MakeCompileRun(3);
  request.kernel = "this is not a kernel";
  const JsonValue doc = ParseJson(core.Handle(request));
  EXPECT_EQ(doc.Get("code").AsI64(), kBadRequest);
  EXPECT_EQ(doc.Get("error").Get("kind").AsString(), "bad_kernel");
  EXPECT_EQ(Counter(core, "quarantine_entries"), 0u);
  // Same broken kernel again: still 400, still re-parsed (parse errors
  // are cheap and the client may fix the source).
  EXPECT_EQ(ParseJson(core.Handle(request)).Get("code").AsI64(), kBadRequest);
}

TEST(ServiceCore, OutOfRangeTripIs400NeverQuarantined) {
  // A trip that drives x[i] past x's 1024 elements is the client's error:
  // fgparc --trip's check and message, a 400, no quarantine, no bundle,
  // and nothing executed.  The array size itself still runs.
  const std::string quarantine_dir = TempPath("svc_trip_quarantine");
  std::filesystem::remove_all(quarantine_dir);
  ServiceConfig config;
  config.quarantine_dir = quarantine_dir;
  ServiceCore core(config);
  Request request = MakeCompileRun(4, /*cores=*/2, /*trip=*/5000);
  request.kernel = R"(
kernel saxpy {
  param i64 n;
  param f64 alpha;
  array f64 x[1024];
  array f64 y[1024];
  loop i = 0 .. n {
    f64 v = alpha * x[i] + y[i];
    y[i] = v;
  }
}
)";
  const JsonValue doc = ParseJson(core.Handle(request));
  EXPECT_EQ(doc.Get("code").AsI64(), kBadRequest);
  EXPECT_EQ(doc.Get("error").Get("kind").AsString(), "bad_request");
  EXPECT_EQ(doc.Get("error").Get("message").AsString(),
            "--trip 5000 is out of range for kernel saxpy: loop i = 0 .. "
            "5000 reaches x[4999], but x has 1024 elements");
  EXPECT_EQ(Counter(core, "quarantine_entries"), 0u);
  EXPECT_EQ(Counter(core, "executed"), 0u);
  EXPECT_FALSE(std::filesystem::exists(quarantine_dir) &&
               !std::filesystem::is_empty(quarantine_dir));

  request.config.trip = 1024;
  EXPECT_EQ(ParseJson(core.Handle(request)).Get("code").AsI64(), kOk);
  EXPECT_EQ(Counter(core, "executed"), 1u);
}

TEST(ServiceCore, MalformedFrameIs400WithIdZero) {
  ServiceCore core(ServiceConfig{});
  const JsonValue doc = ParseJson(core.HandleFrame("{\"half\": "));
  EXPECT_EQ(doc.Get("code").AsI64(), kBadRequest);
  EXPECT_EQ(doc.Get("id").AsU64(), 0u);
  EXPECT_EQ(doc.Get("error").Get("kind").AsString(), "bad_request");
  EXPECT_EQ(Counter(core, "bad_requests"), 1u);
}

TEST(ServiceCore, DrillFailureQuarantinesWithReproBundle) {
  const std::string quarantine_dir = TempPath("svc_quarantine");
  std::filesystem::remove_all(quarantine_dir);
  ServiceConfig config;
  config.drill_crash_every = 1;  // every executed run fails
  config.quarantine_dir = quarantine_dir;
  ServiceCore core(config);

  const Request request = MakeCompileRun(9);
  const JsonValue doc = ParseJson(core.Handle(request));
  EXPECT_EQ(doc.Get("code").AsI64(), kInternal);
  EXPECT_EQ(doc.Get("error").Get("kind").AsString(), "quarantined");
  const std::string message = doc.Get("error").Get("message").AsString();
  EXPECT_NE(message.find("injected drill failure"), std::string::npos);
  EXPECT_NE(message.find("repro_fgpard_"), std::string::npos);
  EXPECT_EQ(Counter(core, "quarantined"), 1u);
  EXPECT_EQ(Counter(core, "executed"), 1u);
  EXPECT_FALSE(std::filesystem::is_empty(quarantine_dir));

  // A repeat offender is refused without re-running: executed stays 1 and
  // the quarantine count does not grow.
  const JsonValue again = ParseJson(core.Handle(request));
  EXPECT_EQ(again.Get("code").AsI64(), kInternal);
  EXPECT_EQ(Counter(core, "executed"), 1u);
  EXPECT_EQ(Counter(core, "quarantined"), 1u);
}

TEST(ServiceCore, DegradationLadderSequentialThen408) {
  // An elementwise kernel partitions across cores, so values cross the
  // inter-core queues; with a pathological 2000-cycle transfer latency
  // and a single-slot queue the parallel schedule is far slower than
  // sequential.  A budget between the two exercises the ladder: the full
  // run overruns, the sequential-only retry fits, and the response is a
  // 200 with degraded=true.
  Request request = MakeCompileRun(11, /*cores=*/4, /*trip=*/48);
  request.kernel = R"(
kernel svcsaxpy {
  param i64 n;
  param f64 a;
  array f64 x[64];
  array f64 y[64];
  array f64 o[64];
  loop i = 0 .. n {
    o[i] = a * x[i] + y[i];
  }
}
)";
  request.config.latency = 2000;
  request.config.capacity = 1;

  std::uint64_t seq_cycles = 0;
  std::uint64_t par_cycles = 0;
  {
    ServiceCore probe(ServiceConfig{});
    const JsonValue doc = ParseJson(probe.Handle(request));
    ASSERT_EQ(doc.Get("code").AsI64(), kOk);
    const JsonValue& counters = doc.Get("result").Get("counters");
    ASSERT_GT(counters.Get("cores_used").AsU64(), 1u)
        << "kernel must actually parallelize for the ladder drill";
    seq_cycles = counters.Get("seq_cycles").AsU64();
    par_cycles = counters.Get("par_cycles").AsU64();
  }
  ASSERT_GT(par_cycles, 2 * seq_cycles)
      << "queue latency should dominate the parallel schedule";

  ServiceConfig config;
  config.cycle_budget = seq_cycles + (par_cycles - seq_cycles) / 2;
  ServiceCore core(config);
  const JsonValue degraded = ParseJson(core.Handle(request));
  EXPECT_EQ(degraded.Get("code").AsI64(), kOk);
  EXPECT_TRUE(degraded.Get("result").Get("degraded").AsBool());
  EXPECT_EQ(degraded.Get("result").Get("counters").Get("cores_used").AsU64(),
            1u);
  EXPECT_EQ(Counter(core, "degraded"), 1u);
  // Degraded results reflect this daemon's budget, not the request's
  // content — they are never cached.
  (void)core.Handle(request);
  EXPECT_EQ(Counter(core, "cache_hits"), 0u);
  EXPECT_EQ(Counter(core, "cache_misses"), 2u);

  // Bottom rung: a budget even sequential execution cannot meet is a
  // structured 408, not a hang and not a crash.
  ServiceConfig strangled;
  strangled.cycle_budget = 1;
  ServiceCore tight(strangled);
  const JsonValue timeout = ParseJson(tight.Handle(request));
  EXPECT_EQ(timeout.Get("code").AsI64(), kDeadline);
  EXPECT_EQ(timeout.Get("error").Get("kind").AsString(), "deadline");
}

TEST(ServiceCore, ExpiredDeadlineWhileQueuedIs408) {
  ServiceConfig config;
  config.request_deadline_seconds = 0.05;
  ServiceCore core(config);
  const auto admitted =
      std::chrono::steady_clock::now() - std::chrono::seconds(1);
  const JsonValue doc = ParseJson(core.Handle(MakeCompileRun(5), admitted));
  EXPECT_EQ(doc.Get("code").AsI64(), kDeadline);
  EXPECT_EQ(Counter(core, "executed"), 0u);  // never burned a worker
}

TEST(ServiceCore, RejectionsAreStructured) {
  ServiceCore core(ServiceConfig{});
  const Request request = MakeCompileRun(13);
  const JsonValue overloaded =
      ParseJson(core.RejectOverloaded(request, 16, 16));
  EXPECT_EQ(overloaded.Get("code").AsI64(), kRejected);
  EXPECT_EQ(overloaded.Get("error").Get("kind").AsString(), "overloaded");
  EXPECT_EQ(overloaded.Get("error").Get("queue_capacity").AsU64(), 16u);
  const JsonValue draining = ParseJson(core.RejectDraining(request));
  EXPECT_EQ(draining.Get("error").Get("kind").AsString(), "draining");
  const JsonValue bad_frame = ParseJson(core.RejectBadFrame("too big"));
  EXPECT_EQ(bad_frame.Get("code").AsI64(), kBadRequest);
  EXPECT_EQ(Counter(core, "rejected_overloaded"), 1u);
  EXPECT_EQ(Counter(core, "rejected_draining"), 1u);
  EXPECT_EQ(Counter(core, "bad_frames"), 1u);
}

TEST(ServiceCore, HealthAndStatsWorkWhileSaturated) {
  ServiceConfig config;
  config.queue_depth = 4;
  ServiceCore core(config);
  core.set_queue_depth_probe([] { return std::size_t{3}; });

  Request health;
  health.op = Op::kHealth;
  health.id = 21;
  const JsonValue h = ParseJson(core.Handle(health));
  EXPECT_EQ(h.Get("code").AsI64(), kOk);
  EXPECT_EQ(h.Get("health").Get("queue_depth").AsU64(), 3u);
  EXPECT_EQ(h.Get("health").Get("queue_capacity").AsU64(), 4u);
  EXPECT_EQ(h.Get("health").Get("version").AsString(), BuildVersionString());
  EXPECT_FALSE(h.Get("health").Get("draining").AsBool());

  Request stats;
  stats.op = Op::kStats;
  stats.id = 22;
  const JsonValue s = ParseJson(core.Handle(stats));
  EXPECT_EQ(s.Get("code").AsI64(), kOk);
  // The health request above already counted.
  EXPECT_GE(s.Get("stats").Get("requests_total").AsU64(), 1u);

  Request shutdown;
  shutdown.op = Op::kShutdown;
  shutdown.id = 23;
  EXPECT_FALSE(core.shutdown_requested());
  EXPECT_EQ(ParseJson(core.Handle(shutdown)).Get("code").AsI64(), kOk);
  EXPECT_TRUE(core.shutdown_requested());
  const JsonValue after = ParseJson(core.Handle(health));
  EXPECT_TRUE(after.Get("health").Get("draining").AsBool());
}

}  // namespace
}  // namespace fgpar::service
