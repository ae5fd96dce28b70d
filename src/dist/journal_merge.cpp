#include "dist/journal_merge.hpp"

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "support/serial.hpp"

namespace fgpar::dist {

namespace {

constexpr const char kCheckpointVersion[] = "fgpar-ckpt-v1";
constexpr std::size_t kQuarantineTextCap = 96;

std::string Truncate(const std::string& text) {
  if (text.size() <= kQuarantineTextCap) {
    return text;
  }
  return text.substr(0, kQuarantineTextCap) + "...";
}

void QuarantineLine(MergeResult& result, const std::string& path,
                    std::size_t line, std::string reason,
                    const std::string& text) {
  QuarantinedRecord record;
  record.file = path;
  record.line = line;
  record.reason = std::move(reason);
  record.text = Truncate(text);
  result.quarantined.push_back(std::move(record));
}

/// Strict hex decode that reports instead of throwing: returns false on
/// odd length or a non-hex digit.
bool TryHexDecode(const std::string& hex, std::string& out) {
  if (hex.size() % 2 != 0) {
    return false;
  }
  out.clear();
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    unsigned value = 0;
    for (int k = 0; k < 2; ++k) {
      const char c = hex[i + k];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        return false;
      }
    }
    out.push_back(static_cast<char>(value));
  }
  return true;
}

bool LooksLikeSliceToken(const std::string& token) {
  if (token.rfind("slice=", 0) != 0 || token.size() != 6 + 16) {
    return false;
  }
  return std::all_of(token.begin() + 6, token.end(), [](char c) {
    return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
  });
}

}  // namespace

void MergeJournalFile(const std::string& path, std::string_view name,
                      std::uint64_t fingerprint, std::size_t total_points,
                      MergeResult& result, const PayloadValidator& validator) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    QuarantineLine(result, path, 0, "unreadable journal file", "");
    return;
  }
  result.files_read += 1;

  std::string header;
  if (!std::getline(in, header)) {
    QuarantineLine(result, path, 0, "empty journal file", "");
    return;
  }
  {
    std::istringstream header_stream(header);
    std::string version, file_name, file_fingerprint, file_slice, excess;
    header_stream >> version >> file_name >> file_fingerprint >> file_slice >>
        excess;
    if (version != kCheckpointVersion) {
      QuarantineLine(result, path, 1,
                     "unsupported journal version '" + version + "'", header);
      return;
    }
    if (file_name != name) {
      QuarantineLine(result, path, 1,
                     "journal belongs to sweep '" + file_name + "', not '" +
                         std::string(name) + "'",
                     header);
      return;
    }
    if (file_fingerprint != Hex64(fingerprint)) {
      QuarantineLine(result, path, 1,
                     "grid fingerprint mismatch (journal " + file_fingerprint +
                         ", sweep " + Hex64(fingerprint) + ")",
                     header);
      return;
    }
    // The slice token binds a journal to one lease's point set; any
    // well-formed slice of *this* grid merges fine (that is the whole
    // point of merging), but a mangled token means a mangled header.
    if (!file_slice.empty() && !LooksLikeSliceToken(file_slice)) {
      QuarantineLine(result, path, 1,
                     "malformed slice token '" + file_slice + "'", header);
      return;
    }
    if (!excess.empty()) {
      QuarantineLine(result, path, 1, "trailing header token '" + excess + "'",
                     header);
      return;
    }
  }

  std::string line;
  std::size_t line_number = 1;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) {
      continue;
    }
    std::istringstream line_stream(line);
    std::string tag, index_text, hex, excess;
    line_stream >> tag >> index_text >> hex >> excess;
    if (tag != "point" || index_text.empty() || hex.empty() ||
        !excess.empty()) {
      QuarantineLine(result, path, line_number, "malformed point line", line);
      continue;
    }
    std::size_t index = 0;
    const auto [ptr, ec] = std::from_chars(
        index_text.data(), index_text.data() + index_text.size(), index);
    if (ec != std::errc() || ptr != index_text.data() + index_text.size()) {
      QuarantineLine(result, path, line_number,
                     "bad point index '" + index_text + "'", line);
      continue;
    }
    if (index >= total_points) {
      QuarantineLine(result, path, line_number,
                     "point index " + std::to_string(index) +
                         " outside the grid (" + std::to_string(total_points) +
                         " points)",
                     line);
      continue;
    }
    std::string payload;
    if (!TryHexDecode(hex, payload)) {
      QuarantineLine(result, path, line_number, "malformed payload hex", line);
      continue;
    }
    if (validator) {
      const std::string reason = validator(index, payload);
      if (!reason.empty()) {
        QuarantineLine(result, path, line_number,
                       "payload rejected: " + reason, line);
        continue;
      }
    }
    const auto it = result.points.find(index);
    if (it != result.points.end()) {
      if (it->second == payload) {
        result.duplicate_points += 1;  // benign re-commit, discard
      } else {
        // First-committed-wins: the earlier record (earlier file in the
        // sorted order, or earlier line) stays authoritative.
        QuarantineLine(result, path, line_number,
                       "conflicting duplicate of point " +
                           std::to_string(index) +
                           " (differs from an earlier record)",
                       line);
      }
      continue;
    }
    result.points.emplace(index, std::move(payload));
  }
}

MergeResult MergeJournalFiles(const std::vector<std::string>& paths,
                              std::string_view name, std::uint64_t fingerprint,
                              std::size_t total_points,
                              const PayloadValidator& validator) {
  MergeResult result;
  for (const std::string& path : paths) {
    MergeJournalFile(path, name, fingerprint, total_points, result, validator);
  }
  return result;
}

std::vector<std::string> ListJournalFiles(const std::string& dir,
                                          std::string_view suffix) {
  std::vector<std::string> paths;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) {
      continue;
    }
    const std::string path = entry.path().string();
    if (path.size() >= suffix.size() &&
        path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0) {
      paths.push_back(path);
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

}  // namespace fgpar::dist
