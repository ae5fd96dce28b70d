#include "service/cache.hpp"

#include "support/serial.hpp"

namespace fgpar::service {

namespace {

constexpr const char kCacheVersion[] = "fgpar-cache-v1";
/// An insert compacts the file when the records on disk would reach this
/// many times the live entries.
constexpr std::size_t kCompactFactor = 2;

/// An entry's record fields: kernel hash, config hash, payload checksum.
std::vector<std::string> FieldsFor(const CacheKey& key,
                                   const std::string& payload) {
  return {Hex64(key.kernel_hash), Hex64(key.config_hash),
          Hex64(Fnv1a64(payload))};
}

}  // namespace

CompileCache::CompileCache(std::string path, std::size_t max_entries)
    : path_(std::move(path)),
      max_entries_(max_entries),
      log_(path_, "entry", 3) {
  std::lock_guard<std::mutex> lock(mutex_);
  LoadLocked();
}

CacheKey CompileCache::KeyFor(std::string_view kernel_source,
                              std::string_view canonical_config) {
  CacheKey key;
  key.kernel_hash = Fnv1a64(kernel_source);
  key.config_hash = Fnv1a64(canonical_config);
  return key;
}

std::optional<std::string> CompileCache::Lookup(const CacheKey& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  return it->second;
}

void CompileCache::Insert(const CacheKey& key, std::string response) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (entries_.count(key) != 0) {
    return;  // first result wins; concurrent workers may race benignly
  }
  stats_.capacity_evicted += AdmitLocked(key, std::move(response));
  ++stats_.insertions;
  stats_.entries = entries_.size();
  if (path_.empty()) {
    return;
  }
  try {
    const std::string& payload = entries_.at(key);
    if (appendable_ &&
        records_on_disk_ + 1 < kCompactFactor * entries_.size()) {
      log_.Append(FieldsFor(key, payload), payload);
      ++records_on_disk_;
    } else {
      CompactLocked();
    }
  } catch (...) {
    appendable_ = false;  // the next insert rewrites every live entry
    throw;
  }
}

std::size_t CompileCache::AdmitLocked(const CacheKey& key,
                                      std::string response) {
  entries_[key] = std::move(response);
  insertion_order_.push_back(key);
  std::size_t evicted = 0;
  while (max_entries_ > 0 && entries_.size() > max_entries_) {
    entries_.erase(insertion_order_.front());
    insertion_order_.pop_front();
    ++evicted;
  }
  return evicted;
}

CompileCache::Stats CompileCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats snapshot = stats_;
  snapshot.entries = entries_.size();
  return snapshot;
}

void CompileCache::LoadLocked() {
  if (path_.empty()) {
    return;
  }
  LogContents log = log_.Read();
  if (!log.opened) {
    return;  // fresh cache
  }
  if (log.header != kCacheVersion) {
    // Empty, torn or unknown header (a future version): serve nothing
    // from it rather than guess.  The next insert rewrites the file.
    ++stats_.corrupt_evicted;
    return;
  }
  // Replay in file order under the FIFO cap: a key re-inserted after its
  // eviction is evicted here too before its second record arrives.  A
  // resident duplicate needs a larger cap than the writer's; the same
  // bytes are harmless there, different bytes are damage.
  std::size_t damaged = log.rejected.size() + (log.torn_tail ? 1 : 0);
  for (LogRecord& record : log.records) {
    CacheKey key;
    std::uint64_t checksum = 0;
    const bool intact = ParseHex64(record.fields[0], key.kernel_hash) &&
                        ParseHex64(record.fields[1], key.config_hash) &&
                        ParseHex64(record.fields[2], checksum) &&
                        Fnv1a64(record.payload) == checksum;
    const auto it = entries_.find(key);
    if (!intact || (it != entries_.end() && it->second != record.payload)) {
      ++damaged;
    } else if (it == entries_.end()) {
      AdmitLocked(key, std::move(record.payload));
      ++stats_.loaded;
    }
  }
  stats_.corrupt_evicted += damaged;
  stats_.entries = entries_.size();
  appendable_ = damaged == 0;
  records_on_disk_ = log.records.size() + log.rejected.size();
}

void CompileCache::CompactLocked() {
  // Insertion order, so a reloaded cache keeps the same FIFO eviction
  // sequence as the process that wrote it.
  std::vector<LogRecord> records;
  for (const CacheKey& key : insertion_order_) {
    const std::string& payload = entries_.at(key);
    records.push_back({0, FieldsFor(key, payload), payload});
  }
  log_.Rewrite(kCacheVersion, records);
  records_on_disk_ = records.size();
  appendable_ = true;
}

}  // namespace fgpar::service
