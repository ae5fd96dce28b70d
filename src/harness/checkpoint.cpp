#include "harness/checkpoint.hpp"

#include <charconv>
#include <fstream>
#include <sstream>

#include "support/error.hpp"
#include "support/serial.hpp"

namespace fgpar::harness {

namespace {
constexpr const char kCheckpointVersion[] = "fgpar-ckpt-v1";

std::size_t ParseIndex(std::string_view text, const std::string& path) {
  std::size_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  FGPAR_CHECK_MSG(ec == std::errc() && ptr == text.data() + text.size(),
                  "corrupt checkpoint " + path + ": bad point index '" +
                      std::string(text) + "'");
  return value;
}
}  // namespace

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
    : path_(std::move(path)),
      name_(std::move(name)),
      fingerprint_(fingerprint),
      slice_fingerprint_(slice_fingerprint) {}

SweepCheckpoint SweepCheckpoint::LoadOrCreate(std::string path,
                                              std::string name,
                                              std::uint64_t fingerprint,
                                              std::uint64_t slice_fingerprint) {
  SweepCheckpoint checkpoint(std::move(path), std::move(name), fingerprint,
                             slice_fingerprint);
  std::ifstream in(checkpoint.path_, std::ios::binary);
  if (!in.good()) {
    return checkpoint;  // no journal yet: fresh sweep
  }

  std::string header;
  FGPAR_CHECK_MSG(static_cast<bool>(std::getline(in, header)),
                  "corrupt checkpoint " + checkpoint.path_ + ": empty file");
  std::istringstream header_stream(header);
  std::string version, file_name, file_fingerprint, file_slice;
  header_stream >> version >> file_name >> file_fingerprint >> file_slice;
  FGPAR_CHECK_MSG(
      version == kCheckpointVersion,
      "unsupported checkpoint version '" + version + "' in " +
          checkpoint.path_ + " (this build reads " + kCheckpointVersion + ")");
  FGPAR_CHECK_MSG(file_name == checkpoint.name_,
                  "checkpoint " + checkpoint.path_ + " belongs to sweep '" +
                      file_name + "', not '" + checkpoint.name_ + "'");
  FGPAR_CHECK_MSG(
      file_fingerprint == Hex64(fingerprint),
      "checkpoint " + checkpoint.path_ +
          " was written for a different grid (fingerprint " + file_fingerprint +
          ", expected " + Hex64(fingerprint) +
          "); the sweep's points changed — delete the checkpoint to start over");
  if (slice_fingerprint == 0) {
    FGPAR_CHECK_MSG(
        file_slice.empty(),
        "checkpoint " + checkpoint.path_ + " belongs to a grid slice (" +
            file_slice +
            "), not the whole grid; a worker journal cannot seed a "
            "whole-grid resume — merge it instead (fgpar-coord --merge-dir)");
  } else {
    const std::string expected = "slice=" + Hex64(slice_fingerprint);
    FGPAR_CHECK_MSG(
        !file_slice.empty(),
        "checkpoint " + checkpoint.path_ +
            " is a whole-grid journal but this run expects slice " + expected);
    FGPAR_CHECK_MSG(
        file_slice == expected,
        "checkpoint " + checkpoint.path_ +
            " was written for a different slice of this grid (" + file_slice +
            ", expected " + expected +
            "); a worker must never resume against the wrong slice");
  }

  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    std::istringstream line_stream(line);
    std::string tag, index_text, hex;
    line_stream >> tag >> index_text >> hex;
    FGPAR_CHECK_MSG(tag == "point",
                    "corrupt checkpoint " + checkpoint.path_ +
                        ": unexpected line '" + line + "'");
    const std::size_t index = ParseIndex(index_text, checkpoint.path_);
    FGPAR_CHECK_MSG(!checkpoint.points_.count(index),
                    "corrupt checkpoint " + checkpoint.path_ +
                        ": duplicate point " + std::to_string(index));
    checkpoint.points_[index] = HexDecodeToString(hex);
  }
  return checkpoint;
}

void SweepCheckpoint::RestorePoints(std::map<std::size_t, std::string> points) {
  points_ = std::move(points);
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
                    "checkpoint " + path_ + ": point " + std::to_string(index) +
                        " re-recorded with a different result — the sweep is "
                        "not deterministic");
    return;
  }
  points_[index] = payload;
  WriteFileAtomic();
}

void SweepCheckpoint::WriteFileAtomic() const {
  const std::string tmp = path_ + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    FGPAR_CHECK_MSG(out.good(), "cannot open " + tmp + " for writing");
    out << kCheckpointVersion << ' ' << name_ << ' '
        << Hex64(fingerprint_);
    if (slice_fingerprint_ != 0) {
      out << " slice=" << Hex64(slice_fingerprint_);
    }
    out << '\n';
    for (const auto& [index, payload] : points_) {
      out << "point " << index << ' ' << HexEncode(payload) << '\n';
    }
    out.flush();
    FGPAR_CHECK_MSG(out.good(), "failed writing " + tmp);
  }
  FGPAR_CHECK_MSG(std::rename(tmp.c_str(), path_.c_str()) == 0,
                  "failed renaming " + tmp + " to " + path_);
}

}  // namespace fgpar::harness
