// `serve`: fgpard in-process — ServiceCore plus SocketServer on an abstract
// socket, with the cache persisted to a file in the work dir — driven by
// two closed-loop client connections sending compile_run requests for the
// Sequoia sources under partly seeded configs.  Each pass sends every key
// of one of two key sets cold once and then kRepeats more times, so most
// requests are hits; the cache holds exactly one set, so each pass starts
// cold.
// An op is one 200 response.
#include <unistd.h>

#include <filesystem>
#include <thread>

#include "bench.hpp"
#include "kernels/sequoia.hpp"
#include "service/cache.hpp"
#include "service/client.hpp"
#include "service/core.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"

namespace perfbench {

using namespace fgpar;

namespace {

constexpr int kClients = 2;
constexpr int kRepeats = 4;  // hits per key per pass, after its cold miss
constexpr int kSets = 2;

struct Key {
  std::string label;
  std::string payload;  // the encoded request frame body
  std::string source;
  std::string expected;  // the response every request for the key must get
};

bool IsOk(const std::string& response) {
  return response.find("\"code\":200,") != std::string::npos;
}

class Serve final : public Workload {
 public:
  Serve(const Options& options, Ledger& ledger, Tracer& tracer)
      : options_(options), ledger_(ledger), tracer_(tracer) {}

  ~Serve() override { Stop(); }

  void Setup() override {
    const auto& sequoia = kernels::SequoiaKernels();
    for (int set = 0; set < kSets; ++set) {
      for (std::size_t k = 0; k < sequoia.size(); ++k) {
        const std::size_t index = set * sequoia.size() + k;
        Rng rng(MixSeed(options_.seed, index));
        service::Request request;
        request.op = service::Op::kCompileRun;
        request.id = index + 1;
        request.kernel = sequoia[k].source;
        service::RunRequestConfig& c = request.config;
        // The knobs a miss's host time depends on (cores, merge shape,
        // speculation) run through their 18 combinations once per set, in
        // the same way for every seed; seeded, they moved ops_per_s by
        // ~20% from seed to seed.  The seed draws the rest.
        const std::size_t combo = (k + 9 * set) % 18;
        c.cores = 2 + static_cast<int>(combo % 3);
        c.merge = static_cast<int>(combo / 3 % 3);
        c.speculate = combo / 9 == 1;
        c.latency = static_cast<int>(rng.NextInt(1, 10));
        c.capacity = static_cast<int>(rng.NextInt(16, 32));
        c.trip = sequoia[k].trip;
        c.seed = rng.NextU64();
        Key key{sequoia[k].id + " " + c.CanonicalString(),
                service::EncodeRequest(request), sequoia[k].source, ""};
        // The expected response: HandleFrame of the same request on a
        // fresh memory-only cache.
        key.expected = service::ServiceCore(service::ServiceConfig{})
                           .HandleFrame(key.payload);
        keys_.push_back(std::move(key));
      }
    }

    cache_path_ = options_.work_dir + "/serve.cache";
    std::filesystem::remove(cache_path_);
    service::ServiceConfig config;
    config.workers = kClients;
    config.cache_path = cache_path_;
    config.cache_max_entries = keys_.size() / kSets;
    core_ = std::make_unique<service::ServiceCore>(config);
    static int instance = 0;
    const std::string address = "@perfbench-serve-" +
                                std::to_string(::getpid()) + "-" +
                                std::to_string(++instance);
    server_ = std::make_unique<service::SocketServer>(*core_, address);
    server_->Start();
    for (int c = 0; c < kClients; ++c) {
      const int fd = service::ConnectWithBackoff(address, 5.0);
      if (fd < 0) {
        throw Error("cannot connect to " + address);
      }
      fds_.push_back(fd);
    }
  }

  Report Measure() override {
    Report report;
    const std::size_t per_set = keys_.size() / kSets;
    // An op is one request slot: a key's cold send or one of its repeats.
    OpStats timing(keys_.size() * (kRepeats + 1), kClients);
    std::vector<double> hit_ms, windows, in_process_hit_us;
    std::uint64_t ok = 0, rejected = 0, hits = 0, lookups = 0;
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t pass = 0; KeepGoing(options_, pass, kSets, start);
         ++pass) {
      const bool traced = TracedPass(options_, pass, kSets);
      const std::size_t first = (pass % kSets) * per_set;
      const service::CompileCache::Stats before = core_->cache().stats();
      std::vector<std::vector<Sample>> samples(kClients);
      const auto window_start = std::chrono::steady_clock::now();
      {
        std::vector<std::thread> clients;
        for (int c = 0; c < kClients; ++c) {
          clients.emplace_back([&, c] {
            samples[c] = Client(c, first, per_set, pass, traced);
          });
        }
        for (std::thread& t : clients) {
          t.join();
        }
      }
      windows.push_back(Since(window_start));
      const service::CompileCache::Stats after = core_->cache().stats();
      hits += after.hits - before.hits;
      lookups += (after.hits + after.misses) - (before.hits + before.misses);

      for (const std::vector<Sample>& client : samples) {
        for (const Sample& s : client) {
          ++report.attempted;
          if (!IsOk(s.response)) {
            ++report.failed;
            rejected += s.response.find("\"code\":503") != std::string::npos;
            ledger_.Fail("serve", keys_[s.key].label, "",
                         s.response.substr(0, 400));
            continue;
          }
          if (s.response != keys_[s.key].expected) {
            throw Mismatch("response for " + keys_[s.key].label +
                           " differs from a fresh ServiceCore's");
          }
          ++ok;
          timing.Add(s.key * (kRepeats + 1) + static_cast<std::size_t>(s.round),
                     s.seconds * 1e3);
          if (s.round > 0) {
            hit_ms.push_back(s.seconds * 1e3);
          }
        }
      }
      if (traced) {
        // In-process hits on the warm cache: the same frames through
        // ServiceCore::HandleFrame without the socket.
        for (std::size_t k = first; k < first + per_set; ++k) {
          const double t0 = Now();
          std::string response;
          {
            Span span(&tracer_, "service.handle_hit", 0);
            response = core_->HandleFrame(keys_[k].payload);
          }
          in_process_hit_us.push_back((Now() - t0) * 1e6);
          if (response != keys_[k].expected) {
            throw Mismatch("in-process hit for " + keys_[k].label +
                           " differs from a fresh ServiceCore's");
          }
        }
      }
    }

    std::map<std::string, double>& m = report.metrics;
    if (!options_.trace) {
      std::vector<double> speedups;
      for (const Key& key : keys_) {
        speedups.push_back(ParseJson(key.expected)
                               .Get("result")
                               .Get("metrics")
                               .Get("speedup")
                               .AsDouble());
      }
      timing.Fill(m);
      m["ok_share"] =
          static_cast<double>(ok) / static_cast<double>(report.attempted);
      m["sim_speedup_geomean"] = GeoMean(speedups);
      return report;
    }
    std::vector<std::string> sources;
    for (std::size_t k = 0; k < per_set; ++k) {
      sources.push_back(keys_[k].source);
    }
    AddParseMetric(sources, tracer_, m);
    m["service.handle_hit_us"] = Median(in_process_hit_us);
    m["service.handle_miss_ms"] = MissMillis();
    m["service.transport_us"] = Median(hit_ms) * 1e3 - Median(in_process_hit_us);
    m["service.cache.insert_us"] = InsertMicros();
    m["service.cache.file_kb"] =
        static_cast<double>(std::filesystem::file_size(cache_path_)) / 1024.0;
    m["service.hit_share"] =
        static_cast<double>(hits) / static_cast<double>(lookups);
    m["service.rejected"] = static_cast<double>(rejected);
    // Traced windows of each key set against that set's untraced window.
    std::vector<double> overhead_ms;
    for (std::size_t pass = kSets; pass < windows.size(); ++pass) {
      overhead_ms.push_back((windows[pass] - windows[pass % kSets]) * 1e3);
    }
    m["trace.overhead_ms"] = Median(overhead_ms);
    return report;
  }

 private:
  struct Sample {
    std::size_t key = 0;
    int round = 0;  // 0: the cold send
    double seconds = 0.0;
    std::string response;
  };

  /// One closed-loop client: its share of the pass's keys, each sent cold
  /// once, then kRepeats rounds of the same requests.
  std::vector<Sample> Client(int client, std::size_t first,
                             std::size_t per_set, std::size_t pass,
                             bool traced) {
    std::vector<Sample> samples;
    for (int round = 0; round <= kRepeats; ++round) {
      for (std::size_t k = first + static_cast<std::size_t>(client);
           k < first + per_set; k += kClients) {
        Sample s;
        s.key = k;
        s.round = round;
        Span span(traced ? &tracer_ : nullptr, "serve.request",
                  pass * keys_.size() + k + 1);
        const auto t0 = std::chrono::steady_clock::now();
        if (!service::WriteFrame(fds_[static_cast<std::size_t>(client)],
                                 keys_[k].payload) ||
            service::ReadFrame(fds_[static_cast<std::size_t>(client)],
                               s.response) != service::ReadStatus::kFrame) {
          s.response = "connection lost";
        }
        s.seconds = Since(t0);
        samples.push_back(std::move(s));
      }
    }
    return samples;
  }

  /// ServiceCore::HandleFrame of each key on a fresh memory-only cache: the
  /// full miss path (parse, compile, simulate, verify) without the socket.
  double MissMillis() {
    std::vector<double> ms;
    for (const Key& key : keys_) {
      service::ServiceCore fresh(service::ServiceConfig{});
      const double t0 = Now();
      {
        Span span(&tracer_, "service.handle_miss", 0);
        (void)fresh.HandleFrame(key.payload);
      }
      ms.push_back((Now() - t0) * 1e3);
    }
    return Median(ms);
  }

  /// CompileCache::Insert at the run's final entry count: a copy of the
  /// cache file is loaded and one new entry inserted, kReps times.
  double InsertMicros() {
    constexpr int kReps = 5;
    const std::string copy = options_.work_dir + "/serve-insert.cache";
    const std::string& body = keys_.front().expected;
    std::vector<double> us;
    for (int rep = 0; rep < kReps; ++rep) {
      std::filesystem::copy_file(
          cache_path_, copy, std::filesystem::copy_options::overwrite_existing);
      service::CompileCache cache(copy, keys_.size());
      const service::CacheKey key{0xbe5c4ull + static_cast<std::uint64_t>(rep),
                                  0x1ull};
      const double t0 = Now();
      {
        Span span(&tracer_, "service.cache.insert", 0);
        cache.Insert(key, body);
      }
      us.push_back((Now() - t0) * 1e6);
    }
    return Median(us);
  }

  void Stop() {
    for (const int fd : fds_) {
      ::close(fd);
    }
    fds_.clear();
    if (server_ != nullptr) {
      server_->RequestStop();
      server_->ServeUntilShutdown();
      server_.reset();
    }
    core_.reset();
  }

  const Options& options_;
  Ledger& ledger_;
  Tracer& tracer_;
  std::vector<Key> keys_;
  std::string cache_path_;
  std::unique_ptr<service::ServiceCore> core_;
  std::unique_ptr<service::SocketServer> server_;
  std::vector<int> fds_;
};

}  // namespace

std::unique_ptr<Workload> MakeServe(const Options& options, Ledger& ledger,
                                    Tracer& tracer) {
  return std::make_unique<Serve>(options, ledger, tracer);
}

}  // namespace perfbench
