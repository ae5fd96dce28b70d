// Sweep checkpoint journal ("fgpar-ckpt-v1").
//
// A resilient sweep survives being killed — including kill -9 — between
// points: every completed point is journaled to a small text file, and a
// resumed run skips the points the journal already holds, reproducing the
// exact artifact an uninterrupted run would have written (the payloads are
// the deterministic per-point results, so replay-from-journal and
// recompute are byte-identical by construction).
//
// Format, line-oriented text so a human can inspect progress mid-sweep:
//
//   fgpar-ckpt-v1 <name> <fingerprint-hex16> [slice=<hex16>]
//   point <index> <hex payload>
//   ...
//
// The fingerprint is an FNV-1a hash over the sweep's name, point count,
// and per-point labels: a journal written for one grid can never be
// (mis)applied to another — edits to the kernel set, the core counts, or
// the point order all change the fingerprint and are rejected with a
// clear error instead of silently mixing results.
//
// Distributed sweeps add the optional `slice=` header token: a worker
// journaling one slice of a larger grid stamps SliceFingerprint(grid
// fingerprint, its global point indices) next to the grid fingerprint, so
// a worker can never resume against the wrong slice — and a whole-grid
// load can never accidentally adopt a slice journal (or vice versa).
// Journals written before the token existed parse exactly as before: a
// header with no `slice=` token is a whole-grid journal.
//
// The file is a record log (support/record_log.hpp): the first
// RecordPoint creates it and every later one appends one line, so a
// kill -9 costs at most the torn tail of the append it interrupted, which
// --resume drops (that point reruns).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "support/record_log.hpp"

namespace fgpar::harness {

/// The journal at `path`: "point <index> <hex payload>" records.
RecordLog CheckpointLog(std::string path);

/// "" when `header` opens a journal of sweep `name` over grid
/// `fingerprint`, else why not, phrased to follow the file's name.
/// `slice` is the slice a resume expects (0: the whole grid); nullopt
/// accepts the whole grid or any well-formed slice, as a merge does.
std::string CheckpointHeaderError(std::string_view header,
                                  std::string_view name,
                                  std::uint64_t fingerprint,
                                  std::optional<std::uint64_t> slice);

/// Parses a point index; false unless `text` is all decimal digits.
bool ParsePointIndex(std::string_view text, std::size_t& index);

/// Fingerprint of a sweep grid: name, point count, and point labels in
/// order.  Stable across hosts and runs (FNV-1a over the text).
std::uint64_t GridFingerprint(std::string_view name,
                              const std::vector<std::string>& labels);

/// Fingerprint of a slice of a grid: the whole-grid fingerprint mixed
/// with the slice's size and global point indices in lease order.  Two
/// leases over the same grid with different point sets — or the same
/// points in a different order — have different slice fingerprints.
/// Never zero (zero is the "whole grid, no slice" sentinel).
std::uint64_t SliceFingerprint(std::uint64_t grid_fingerprint,
                               const std::vector<std::size_t>& indices);

class SweepCheckpoint {
 public:
  /// A fresh, empty journal bound to (path, name, fingerprint).  Nothing
  /// is written until the first RecordPoint.  `slice_fingerprint` != 0
  /// binds the journal to one slice of the grid (see SliceFingerprint).
  SweepCheckpoint(std::string path, std::string name,
                  std::uint64_t fingerprint,
                  std::uint64_t slice_fingerprint = 0);

  /// Loads the journal at `path` if it exists (for --resume); a missing
  /// file yields an empty journal.  Throws fgpar::Error when the file
  /// exists but has the wrong version, belongs to a different sweep name,
  /// grid fingerprint, or slice (a slice journal under a whole-grid
  /// expectation and vice versa both reject), or is corrupt (bad header,
  /// malformed point line, bad hex, duplicate or out-of-order garbage),
  /// but not for a torn tail, which it drops and truncates.
  static SweepCheckpoint LoadOrCreate(std::string path, std::string name,
                                      std::uint64_t fingerprint,
                                      std::uint64_t slice_fingerprint = 0);

  bool HasPoint(std::size_t index) const;
  /// The journaled payload for `index`, or nullptr if not completed.
  const std::string* PointPayload(std::size_t index) const;
  std::size_t CompletedCount() const { return points_.size(); }

  /// Journals a completed point (its opaque encoded result) by appending
  /// one record; the first record, and the first after RestorePoints,
  /// rewrites the whole journal instead.  Re-recording an index with a
  /// different payload throws: a deterministic sweep can never
  /// legitimately produce two results for one point.
  void RecordPoint(std::size_t index, const std::string& payload);

  /// Replaces the in-memory point set without touching the file (used by
  /// the distributed coordinator to adopt a tolerantly-merged load; see
  /// dist/journal_merge.hpp).  The next RecordPoint persists everything.
  void RestorePoints(std::map<std::size_t, std::string> points);

  const std::string& path() const { return log_.path(); }
  const std::string& name() const { return name_; }
  std::uint64_t fingerprint() const { return fingerprint_; }
  std::uint64_t slice_fingerprint() const { return slice_fingerprint_; }

 private:
  RecordLog log_;
  std::string name_;
  std::uint64_t fingerprint_ = 0;
  std::uint64_t slice_fingerprint_ = 0;  // 0 = whole grid
  std::map<std::size_t, std::string> points_;  // index -> opaque payload
  bool on_disk_ = false;  // the file holds the header and every point
};

}  // namespace fgpar::harness
