// Content-addressed compile cache ("fgpar-cache-v1").
//
// A cache entry maps (kernel-source hash, canonical-config hash) to the
// daemon's final deterministic response bytes, so a repeat request —
// including one arriving after a crash and restart — is served
// byte-identical to the cold run without recompiling or resimulating.
//
// Keying.  The kernel half is FNV-1a over the raw source bytes: two
// sources differing only in whitespace are, deliberately, distinct keys
// (the service does not canonicalize kernel text, so it never has to
// argue that a normalization is semantics-preserving).  The config half
// is FNV-1a over RunRequestConfig::CanonicalString(), whose fixed field
// order makes two different configurations collide only by hash accident
// on 128 combined bits.
//
// Persistence.  The file is a record log (support/record_log.hpp): one
// "entry <kernel> <config> <checksum> <hex payload>" line per insert,
// appended before the insert returns.  A load replays the lines in file
// order under the same FIFO cap, so a restarted cache holds the same
// entries and evicts the same key next.  The insert that would bring the
// lines to twice the live entries compacts the file to the live entries
// instead.  Each entry carries its own FNV-1a checksum: a damaged line
// or a torn tail is detected on load, counted, and evicted — the daemon
// recompiles that job instead of serving garbage.
//
// Entries hold only fully-successful (status 200, non-degraded)
// responses: those are deterministic in the key alone.  Degraded and
// error responses depend on transient conditions (deadline pressure,
// cycle budget) and are never cached.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "support/record_log.hpp"

namespace fgpar::service {

struct CacheKey {
  std::uint64_t kernel_hash = 0;
  std::uint64_t config_hash = 0;

  bool operator<(const CacheKey& other) const {
    return std::tie(kernel_hash, config_hash) <
           std::tie(other.kernel_hash, other.config_hash);
  }
  bool operator==(const CacheKey& other) const {
    return kernel_hash == other.kernel_hash &&
           config_hash == other.config_hash;
  }
};

class CompileCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t corrupt_evicted = 0;   // load-time checksum/format failures
    std::uint64_t capacity_evicted = 0;  // FIFO evictions past max_entries
    std::uint64_t loaded = 0;            // records replayed from disk
    std::size_t entries = 0;
  };

  /// `path` == "" keeps the cache memory-only (tests, --no-cache).
  /// Loading never throws: a missing file is a fresh cache and a corrupt
  /// file contributes only its intact entries.
  explicit CompileCache(std::string path, std::size_t max_entries = 4096);

  static CacheKey KeyFor(std::string_view kernel_source,
                         std::string_view canonical_config);

  /// Thread-safe; counts a hit or a miss.
  std::optional<std::string> Lookup(const CacheKey& key);

  /// Thread-safe; persists before returning (an entry is never
  /// acknowledged in stats before it would survive a crash).  Re-inserting
  /// an existing key is a no-op — first result wins, which is also the
  /// determinism cross-check: a second compute of the same key must
  /// produce the same bytes.
  void Insert(const CacheKey& key, std::string response);

  Stats stats() const;
  const std::string& path() const { return path_; }

 private:
  void LoadLocked();
  /// Adds an entry and evicts past max_entries_; returns the evictions.
  std::size_t AdmitLocked(const CacheKey& key, std::string response);
  void CompactLocked();

  const std::string path_;
  const std::size_t max_entries_;
  mutable std::mutex mutex_;
  std::map<CacheKey, std::string> entries_;
  std::deque<CacheKey> insertion_order_;  // FIFO eviction order
  Stats stats_;
  RecordLog log_;
  std::size_t records_on_disk_ = 0;
  bool appendable_ = false;  // the file has our header and no damaged line
};

}  // namespace fgpar::service
