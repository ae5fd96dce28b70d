#include "support/record_log.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

#include "support/error.hpp"
#include "support/serial.hpp"

namespace fgpar {

LogContents RecordLog::Read() const {
  LogContents log;
  std::ifstream in(path_, std::ios::binary);
  log.opened = in.good();
  std::string content;
  for (std::size_t line = 1; std::getline(in, content); ++line) {
    if (in.eof()) {  // no newline: the torn tail of an interrupted append
      log.torn_tail = {line, "torn tail (unterminated last line)", content};
      break;
    }
    log.intact_bytes += content.size() + 1;
    if (line == 1) {
      log.header = content;
      continue;
    }
    if (content.empty()) {
      continue;
    }
    std::istringstream stream(content);
    const std::vector<std::string> tokens{
        std::istream_iterator<std::string>(stream), {}};
    LogRecord record{line, {}, {}};
    if (tokens.size() != fields_ + 2 || tokens.front() != tag_) {
      log.rejected.push_back({line, "unexpected line", content});
    } else if (!ParseHex(tokens.back(), record.payload)) {
      log.rejected.push_back({line, "malformed payload hex", content});
    } else {
      record.fields.assign(tokens.begin() + 1, tokens.end() - 1);
      log.records.push_back(std::move(record));
    }
  }
  return log;
}

std::string RecordLog::Format(const std::vector<std::string>& fields,
                              std::string_view payload) const {
  std::string line = tag_;
  for (const std::string& field : fields) {
    line += ' ' + field;
  }
  return line + ' ' + HexEncode(payload) + '\n';
}

void RecordLog::Append(const std::vector<std::string>& fields,
                       std::string_view payload) const {
  const std::string line = Format(fields, payload);
  const int fd = ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  const ssize_t written = fd < 0 ? -1 : ::write(fd, line.data(), line.size());
  const int error = errno;
  if (fd >= 0) {
    ::close(fd);
  }
  FGPAR_CHECK_MSG(written == static_cast<ssize_t>(line.size()),
                  "failed appending to " + path_ + ": " +
                      (written < 0 ? std::strerror(error) : "short write"));
}

void RecordLog::DropTornTail(const LogContents& log) const {
  std::error_code ec;
  if (log.torn_tail) {
    std::filesystem::resize_file(path_, log.intact_bytes, ec);
  }
  FGPAR_CHECK_MSG(!ec, "cannot truncate " + path_ + ": " + ec.message());
}

void RecordLog::Rewrite(std::string_view header,
                        const std::vector<LogRecord>& records) const {
  const std::string tmp = path_ + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out << header << '\n';
    for (const LogRecord& record : records) {
      out << Format(record.fields, record.payload);
    }
    out.flush();
    FGPAR_CHECK_MSG(out.good(), "failed writing " + tmp);
  }
  FGPAR_CHECK_MSG(std::rename(tmp.c_str(), path_.c_str()) == 0,
                  "failed renaming " + tmp + " to " + path_);
}

}  // namespace fgpar
