#include "service/cache.hpp"

#include <fstream>
#include <sstream>

#include "support/error.hpp"
#include "support/serial.hpp"

namespace fgpar::service {

namespace {

constexpr const char kCacheVersion[] = "fgpar-cache-v1";

}  // namespace

CompileCache::CompileCache(std::string path, std::size_t max_entries)
    : path_(std::move(path)), max_entries_(max_entries) {
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
  entries_[key] = std::move(response);
  insertion_order_.push_back(key);
  ++stats_.insertions;
  while (max_entries_ > 0 && entries_.size() > max_entries_) {
    entries_.erase(insertion_order_.front());
    insertion_order_.pop_front();
    ++stats_.capacity_evicted;
  }
  stats_.entries = entries_.size();
  if (!path_.empty()) {
    PersistLocked();
  }
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
  std::ifstream in(path_, std::ios::binary);
  if (!in.good()) {
    return;  // fresh cache
  }
  std::string header;
  if (!std::getline(in, header)) {
    ++stats_.corrupt_evicted;  // empty file: count and start fresh
    return;
  }
  std::istringstream header_stream(header);
  std::string version;
  header_stream >> version;
  if (version != kCacheVersion) {
    // Unknown format (torn header or future version): serve nothing from
    // it rather than guess.  The file is rewritten on the next insert.
    ++stats_.corrupt_evicted;
    return;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    std::istringstream line_stream(line);
    std::string tag, khash_text, chash_text, checksum_text, hex;
    line_stream >> tag >> khash_text >> chash_text >> checksum_text >> hex;
    CacheKey key;
    std::uint64_t checksum = 0;
    if (tag != "entry" || !ParseHex64(khash_text, key.kernel_hash) ||
        !ParseHex64(chash_text, key.config_hash) ||
        !ParseHex64(checksum_text, checksum)) {
      ++stats_.corrupt_evicted;
      continue;
    }
    std::string payload;
    try {
      payload = HexDecodeToString(hex);
    } catch (const Error&) {
      ++stats_.corrupt_evicted;  // torn hex (e.g. odd length)
      continue;
    }
    if (Fnv1a64(payload) != checksum || entries_.count(key) != 0) {
      ++stats_.corrupt_evicted;
      continue;
    }
    entries_[key] = std::move(payload);
    insertion_order_.push_back(key);
    ++stats_.loaded;
  }
  stats_.entries = entries_.size();
}

void CompileCache::PersistLocked() const {
  const std::string tmp = path_ + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    FGPAR_CHECK_MSG(out.good(), "cannot open " + tmp + " for writing");
    out << kCacheVersion << '\n';
    // Written in insertion order so a reloaded cache keeps the same FIFO
    // eviction sequence as the process that wrote it.
    for (const CacheKey& key : insertion_order_) {
      const std::string& payload = entries_.at(key);
      out << "entry " << Hex64(key.kernel_hash) << ' '
          << Hex64(key.config_hash) << ' ' << Hex64(Fnv1a64(payload)) << ' '
          << HexEncode(payload) << '\n';
    }
    out.flush();
    FGPAR_CHECK_MSG(out.good(), "failed writing " + tmp);
  }
  FGPAR_CHECK_MSG(std::rename(tmp.c_str(), path_.c_str()) == 0,
                  "failed renaming " + tmp + " to " + path_);
}

}  // namespace fgpar::service
