#include "harness/checkpoint.hpp"

#include <algorithm>
#include <charconv>
#include <iterator>
#include <sstream>

#include "support/error.hpp"
#include "support/serial.hpp"

namespace fgpar::harness {

namespace {
constexpr char kCheckpointVersion[] = "fgpar-ckpt-v1";
}  // namespace

RecordLog CheckpointLog(std::string path) {
  return RecordLog(std::move(path), "point", 1);
}

std::string CheckpointHeaderError(std::string_view header,
                                  std::string_view name,
                                  std::uint64_t fingerprint,
                                  std::optional<std::uint64_t> slice) {
  std::istringstream stream{std::string(header)};
  std::vector<std::string> tokens{std::istream_iterator<std::string>(stream),
                                  {}};
  tokens.resize(std::max<std::size_t>(tokens.size(), 5));
  const std::string& file_slice = tokens[3];
  std::uint64_t file_slice_value = 0;
  const std::string expected = "slice=" + Hex64(slice.value_or(0));
  if (tokens[0].empty()) {
    return "has no complete header line (an empty file)";
  } else if (tokens[0] != kCheckpointVersion) {
    return "has unsupported checkpoint version '" + tokens[0] +
           "' (this build reads " + kCheckpointVersion + ")";
  } else if (tokens[1] != name) {
    return "belongs to sweep '" + tokens[1] + "', not '" + std::string(name) +
           "'";
  } else if (tokens[2] != Hex64(fingerprint)) {
    return "was written for a different grid (fingerprint " + tokens[2] +
           ", expected " + Hex64(fingerprint) +
           "); the sweep's points changed — delete the checkpoint to start "
           "over";
  } else if (!file_slice.empty() &&
             (file_slice.rfind("slice=", 0) != 0 ||
              !ParseHex64(file_slice.substr(6), file_slice_value))) {
    return "has a malformed slice token '" + file_slice + "'";
  } else if (!tokens[4].empty()) {
    return "has a trailing header token '" + tokens[4] + "'";
  } else if (!slice || *slice == file_slice_value) {
    return "";
  } else if (*slice == 0) {
    return "belongs to a grid slice (" + file_slice +
           "), not the whole grid; a worker journal cannot seed a whole-grid "
           "resume — merge it instead (fgpar-coord --merge-dir)";
  } else if (file_slice.empty()) {
    return "is a whole-grid journal but this run expects slice " + expected;
  }
  return "was written for a different slice of this grid (" + file_slice +
         ", expected " + expected +
         "); a worker must never resume against the wrong slice";
}

bool ParsePointIndex(std::string_view text, std::size_t& index) {
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), index);
  return ec == std::errc() && end == text.data() + text.size();
}

std::uint64_t GridFingerprint(std::string_view name,
                              const std::vector<std::string>& labels) {
  std::uint64_t hash = Fnv1a64(name);
  hash = Fnv1a64(std::to_string(labels.size()), hash);
  for (const std::string& label : labels) {
    hash = Fnv1a64(label, hash);
    // Separator so labels can't be reassociated.  Note the explicit
    // string_view: a bare char* literal would overload-resolve to
    // Fnv1a64(const void*, size_t) with the seed as the byte count.
    hash = Fnv1a64(std::string_view("\x1f", 1), hash);
  }
  return hash;
}

std::uint64_t SliceFingerprint(std::uint64_t grid_fingerprint,
                               const std::vector<std::size_t>& indices) {
  std::uint64_t hash =
      Fnv1a64(std::string_view("slice"), grid_fingerprint);
  hash = Fnv1a64(std::to_string(indices.size()), hash);
  for (const std::size_t index : indices) {
    hash = Fnv1a64(std::to_string(index), hash);
    hash = Fnv1a64(std::string_view("\x1f", 1), hash);
  }
  // 0 means "whole grid" everywhere a slice fingerprint travels; dodge
  // the astronomically unlikely collision deterministically.
  return hash == 0 ? 1 : hash;
}

SweepCheckpoint::SweepCheckpoint(std::string path, std::string name,
                                 std::uint64_t fingerprint,
                                 std::uint64_t slice_fingerprint)
    : log_(CheckpointLog(std::move(path))),
      name_(std::move(name)),
      fingerprint_(fingerprint),
      slice_fingerprint_(slice_fingerprint) {}

SweepCheckpoint SweepCheckpoint::LoadOrCreate(std::string path,
                                              std::string name,
                                              std::uint64_t fingerprint,
                                              std::uint64_t slice_fingerprint) {
  SweepCheckpoint checkpoint(std::move(path), std::move(name), fingerprint,
                             slice_fingerprint);
  LogContents log = checkpoint.log_.Read();
  if (!log.opened) {
    return checkpoint;  // no journal yet: fresh sweep
  }
  const std::string& file = checkpoint.path();
  const std::string header_error = CheckpointHeaderError(
      log.header, checkpoint.name_, fingerprint, slice_fingerprint);
  FGPAR_CHECK_MSG(header_error.empty(),
                  "checkpoint " + file + " " + header_error);
  // Strict: a damaged complete line is fatal.  The torn tail is not — it
  // is the point an interrupted append was writing, and it reruns.
  FGPAR_CHECK_MSG(log.rejected.empty(),
                  "corrupt checkpoint " + file + ": " +
                      log.rejected.front().reason + " '" +
                      log.rejected.front().text + "'");
  for (LogRecord& record : log.records) {
    std::size_t index = 0;
    FGPAR_CHECK_MSG(ParsePointIndex(record.fields[0], index),
                    "corrupt checkpoint " + file + ": bad point index '" +
                        record.fields[0] + "'");
    FGPAR_CHECK_MSG(
        checkpoint.points_.emplace(index, std::move(record.payload)).second,
        "corrupt checkpoint " + file + ": duplicate point " +
            std::to_string(index));
  }
  checkpoint.log_.DropTornTail(log);
  checkpoint.on_disk_ = true;
  return checkpoint;
}

void SweepCheckpoint::RestorePoints(std::map<std::size_t, std::string> points) {
  points_ = std::move(points);
  on_disk_ = false;
}

bool SweepCheckpoint::HasPoint(std::size_t index) const {
  return points_.count(index) != 0;
}

const std::string* SweepCheckpoint::PointPayload(std::size_t index) const {
  const auto it = points_.find(index);
  return it == points_.end() ? nullptr : &it->second;
}

void SweepCheckpoint::RecordPoint(std::size_t index,
                                  const std::string& payload) {
  const auto it = points_.find(index);
  if (it != points_.end()) {
    FGPAR_CHECK_MSG(it->second == payload,
                    "checkpoint " + path() + ": point " + std::to_string(index) +
                        " re-recorded with a different result — the sweep is "
                        "not deterministic");
    return;
  }
  points_[index] = payload;
  try {
    if (on_disk_) {
      log_.Append({std::to_string(index)}, payload);
    } else {
      std::string header = std::string(kCheckpointVersion) + ' ' + name_ +
                           ' ' + Hex64(fingerprint_);
      if (slice_fingerprint_ != 0) {
        header += " slice=" + Hex64(slice_fingerprint_);
      }
      std::vector<LogRecord> records;
      for (const auto& [point, bytes] : points_) {
        records.push_back({0, {std::to_string(point)}, bytes});
      }
      log_.Rewrite(header, records);
      on_disk_ = true;
    }
  } catch (...) {
    // Forget the point and rewrite next time: a failed append may have
    // left a torn tail, and a retry must persist the point again.
    points_.erase(index);
    on_disk_ = false;
    throw;
  }
}

}  // namespace fgpar::harness
