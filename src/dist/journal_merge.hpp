// Deterministic, damage-tolerant merge of fgpar-ckpt-v1 worker journals.
//
// Workers journal their completed points locally (global grid indices,
// whole-grid fingerprint in the header — see harness/checkpoint.hpp), so
// after any mixture of crashes the coordinator is left with a pile of
// journal files of unknown integrity: some complete, some from killed
// workers, possibly truncated mid-write by a dying filesystem, possibly
// overlapping (stolen points computed twice).  The merge turns that pile
// into one authoritative point map with three guarantees:
//
//  * deterministic — files are processed in the caller-given order
//    (fgpar-coord sorts paths lexicographically), points land sorted by
//    global index, and duplicate conflicts resolve first-committed-wins,
//    so the same pile of bytes always merges to the same map;
//  * fingerprint-checked — a journal whose header names a different
//    sweep or grid is rejected whole; a record whose index is outside
//    the grid, whose hex is malformed, or whose payload fails the
//    caller's validator is rejected individually;
//  * never fatal, never silent — every rejected file or record becomes a
//    structured QuarantinedRecord (file, line, reason, offending text)
//    in the result instead of an exception or a silent drop.  Corrupt
//    input costs re-computing those points, nothing more.
//
// It reads each file through the same record-log reader as
// SweepCheckpoint::LoadOrCreate, with the opposite policy: a worker
// resuming its own journal wants corruption loud and fatal; a coordinator
// merging a dead worker's journal wants every good record it can get.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace fgpar::dist {

struct QuarantinedRecord {
  std::string file;
  std::size_t line = 0;  // 1-based; 0 = file-level problem (unreadable, header)
  std::string reason;
  std::string text;      // the offending line, truncated for readability
};

struct MergeResult {
  /// Global index -> payload, first-committed-wins across files.
  std::map<std::size_t, std::string> points;
  std::vector<QuarantinedRecord> quarantined;
  std::size_t files_read = 0;
  std::size_t duplicate_points = 0;  // byte-identical re-commits, discarded
};

/// Returns "" when (index, payload) is acceptable, else a reason string;
/// lets the caller reject records whose payload doesn't decode (e.g. via
/// DecodeKernelRun) without this layer knowing the codec.
using PayloadValidator =
    std::function<std::string(std::size_t index, const std::string& payload)>;

/// Merges one journal into `result` under the rules above.  `name` and
/// `fingerprint` are the sweep's; `total_points` bounds valid indices.
void MergeJournalFile(const std::string& path, std::string_view name,
                      std::uint64_t fingerprint, std::size_t total_points,
                      MergeResult& result,
                      const PayloadValidator& validator = nullptr);

/// Merges `paths` in the given order (sort first for determinism).
MergeResult MergeJournalFiles(const std::vector<std::string>& paths,
                              std::string_view name, std::uint64_t fingerprint,
                              std::size_t total_points,
                              const PayloadValidator& validator = nullptr);

/// Every regular file directly in `dir` whose name ends in `suffix`,
/// sorted lexicographically.  The deterministic input order for
/// fgpar-coord --merge-dir.
std::vector<std::string> ListJournalFiles(const std::string& dir,
                                          std::string_view suffix = ".ckpt");

}  // namespace fgpar::dist
