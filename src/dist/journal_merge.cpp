#include "dist/journal_merge.hpp"

#include <algorithm>
#include <filesystem>

#include "harness/checkpoint.hpp"
#include "support/serial.hpp"

namespace fgpar::dist {

namespace {

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

}  // namespace

void MergeJournalFile(const std::string& path, std::string_view name,
                      std::uint64_t fingerprint, std::size_t total_points,
                      MergeResult& result, const PayloadValidator& validator) {
  LogContents log = harness::CheckpointLog(path).Read();
  if (!log.opened) {
    QuarantineLine(result, path, 0, "unreadable journal file", "");
    return;
  }
  result.files_read += 1;
  const std::string header_error = harness::CheckpointHeaderError(
      log.header, name, fingerprint, std::nullopt);
  if (!header_error.empty()) {
    QuarantineLine(result, path, 1, "journal " + header_error, log.header);
    return;
  }

  if (log.torn_tail) {
    log.rejected.push_back(*log.torn_tail);
  }
  for (const LogRejection& bad : log.rejected) {
    QuarantineLine(result, path, bad.line, bad.reason, bad.text);
  }
  for (LogRecord& record : log.records) {
    const std::string& index_text = record.fields[0];
    std::size_t index = 0;
    std::string reason;
    if (!harness::ParsePointIndex(index_text, index)) {
      reason = "bad point index '" + index_text + "'";
    } else if (index >= total_points) {
      reason = "point index " + index_text + " outside the grid (" +
               std::to_string(total_points) + " points)";
    } else if (validator &&
               !(reason = validator(index, record.payload)).empty()) {
      reason = "payload rejected: " + reason;
    } else if (const auto it = result.points.find(index);
               it == result.points.end()) {
      result.points.emplace(index, std::move(record.payload));
    } else if (it->second == record.payload) {
      result.duplicate_points += 1;  // benign re-commit, discard
    } else {
      // First-committed-wins: the earlier record (earlier file in the
      // sorted order, or earlier line) stays authoritative.
      reason = "conflicting duplicate of point " + index_text +
               " (differs from an earlier record)";
    }
    if (!reason.empty()) {
      QuarantineLine(result, path, record.line, reason,
                     "point " + index_text + " " + HexEncode(record.payload));
    }
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
