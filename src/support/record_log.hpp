// The record log: the one line format under fgpar's crash-safe files, the
// sweep journal (harness/checkpoint.hpp) and the compile cache
// (service/cache.hpp).  A header line, then one record per line:
//
//   <tag> <field> ... <hex payload>
//
// Each file kind has one tag and a fixed field count.  Append writes one
// record with a single write() on an O_APPEND descriptor, so a kill -9
// leaves every record whole except, at worst, an unterminated last line:
// the torn tail of an interrupted append.  Read drops it and DropTornTail
// cuts it off before the next Append.  Rewrite replaces the whole file
// through temp + rename.  Nothing calls fsync: a record survives the death
// of the process, not of the host.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace fgpar {

struct LogRecord {
  std::size_t line = 0;             // 1-based; ignored by Rewrite
  std::vector<std::string> fields;  // the tokens between tag and payload
  std::string payload;              // hex-decoded
};

struct LogRejection {
  std::size_t line = 0;  // 1-based
  std::string reason;
  std::string text;  // the line, without its newline
};

struct LogContents {
  bool opened = false;  // false: missing or unreadable
  std::string header;   // "" when the file holds no complete line
  std::vector<LogRecord> records;
  std::vector<LogRejection> rejected;     // complete lines that do not parse
  std::optional<LogRejection> torn_tail;  // unterminated last line, dropped
  std::size_t intact_bytes = 0;           // file size without the torn tail
};

class RecordLog {
 public:
  RecordLog(std::string path, std::string tag, std::size_t fields)
      : path_(std::move(path)), tag_(std::move(tag)), fields_(fields) {}

  /// Never throws.
  LogContents Read() const;
  /// Needs a file with a complete header.  Throws fgpar::Error on failure,
  /// which may leave a torn tail.
  void Append(const std::vector<std::string>& fields,
              std::string_view payload) const;
  /// Truncates the torn tail `log`, a Read of this file, found (if any).
  void DropTornTail(const LogContents& log) const;
  /// Replaces the file with `header` and `records` via temp + rename.
  void Rewrite(std::string_view header,
               const std::vector<LogRecord>& records) const;

  const std::string& path() const { return path_; }

 private:
  std::string Format(const std::vector<std::string>& fields,
                     std::string_view payload) const;

  std::string path_;
  std::string tag_;
  std::size_t fields_ = 0;
};

}  // namespace fgpar
