// Fuzz tests for the tolerant fgpar-ckpt-v1 journal merge
// (dist/journal_merge.hpp) — the coordinator's crash-recovery reader.
//
// The threat model: after arbitrary worker/coordinator SIGKILLs the merge
// is fed journals that may be truncated mid-byte, bit-flipped by a lying
// disk, duplicated (stolen points computed twice), or interleaved across
// many workers.  The invariant under ALL of that, exercised exhaustively
// here:
//
//   * the merge NEVER throws and NEVER crashes;
//   * every adopted payload is validator-approved and byte-identical to
//     what some intact record held (no silent corruption);
//   * every record that is not adopted appears as a structured
//     QuarantinedRecord — damage is never silently dropped;
//   * the same bytes always merge to the same result (determinism), no
//     matter how damaged.
//
// Mutations are driven by a fixed-seed SplitMix64, so a failure
// reproduces exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "dist/journal_merge.hpp"
#include "harness/checkpoint.hpp"
#include "service/cache.hpp"

namespace {

using namespace fgpar;
using dist::MergeResult;
using dist::QuarantinedRecord;

constexpr const char* kSweep = "fuzz";
constexpr std::size_t kPoints = 6;

std::uint64_t SplitMix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::vector<std::string> GridLabels() {
  std::vector<std::string> labels;
  for (std::size_t i = 0; i < kPoints; ++i) {
    labels.push_back("label-" + std::to_string(i));
  }
  return labels;
}

std::uint64_t GridFp() {
  return harness::GridFingerprint(kSweep, GridLabels());
}

/// The "codec": payloads are "result-<index>:<binary>"; the validator
/// refuses anything else, exactly as DecodeKernelRun refuses payloads
/// that don't round-trip.
std::string PayloadFor(std::size_t index) {
  return "result-" + std::to_string(index) + ":" +
         std::string("\x01\x02\xfe", 3);
}

/// A second well-formed payload for the same point — what a buggy or
/// nondeterministic worker would commit.  It decodes fine; it just
/// disagrees with the first-committed record.
std::string AltPayloadFor(std::size_t index) {
  return "result-" + std::to_string(index) + ":" +
         std::string("\x03\x04\xfd", 3);
}

std::string Validate(std::size_t index, const std::string& payload) {
  if (payload == PayloadFor(index) || payload == AltPayloadFor(index)) {
    return "";
  }
  return "payload does not decode";
}

std::string TempPath(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
  ASSERT_TRUE(out.good()) << path;
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// A pristine whole-grid journal holding every point, built through the
/// real writer so the fuzz corpus matches production bytes exactly.
std::string PristineJournal(const std::string& path) {
  std::remove(path.c_str());
  harness::SweepCheckpoint journal(path, kSweep, GridFp());
  for (std::size_t i = 0; i < kPoints; ++i) {
    journal.RecordPoint(i, PayloadFor(i));
  }
  return ReadBytes(path);
}

/// The core invariant bundle, asserted after every merge of damaged
/// input.
void AssertMergeInvariants(const MergeResult& merged) {
  // Every adopted payload is bit-exact (the validator enforced decode;
  // this enforces no silent corruption slipped past it).
  for (const auto& [index, payload] : merged.points) {
    ASSERT_LT(index, kPoints);
    EXPECT_EQ(payload, PayloadFor(index)) << "corrupt payload adopted";
  }
  // Every quarantined record is structured: a file, a reason, and a line
  // number that is either a real 1-based line or the 0 file-level marker.
  for (const QuarantinedRecord& record : merged.quarantined) {
    EXPECT_FALSE(record.file.empty());
    EXPECT_FALSE(record.reason.empty());
  }
}

// One more input through the same damage: a compile-cache file, which
// shares the journal's record-log reader.  Its invariant is the cache's
// own policy — the load never throws, never serves bytes that differ from
// what was inserted, and never loses an entry silently.

service::CacheKey CacheKeyFor(std::size_t index) {
  return service::CompileCache::KeyFor("kernel-" + std::to_string(index),
                                       "cfg");
}

std::string PristineCache(const std::string& path) {
  std::remove(path.c_str());
  service::CompileCache cache(path);
  for (std::size_t i = 0; i < kPoints; ++i) {
    cache.Insert(CacheKeyFor(i), PayloadFor(i));
  }
  return ReadBytes(path);
}

/// Loads the damaged cache file at `path`; returns how many of the
/// pristine entries it serves, each checked byte-exact.
std::size_t AssertCacheInvariants(const std::string& path) {
  std::optional<service::CompileCache> cache;
  EXPECT_NO_THROW(cache.emplace(path));
  if (!cache) {
    return 0;
  }
  std::size_t served = 0;
  for (std::size_t i = 0; i < kPoints; ++i) {
    if (const auto payload = cache->Lookup(CacheKeyFor(i))) {
      EXPECT_EQ(*payload, PayloadFor(i)) << "corrupt cache entry served";
      ++served;
    }
  }
  const service::CompileCache::Stats stats = cache->stats();
  EXPECT_LE(stats.loaded, kPoints);
  return served;
}

MergeResult MergeOne(const std::string& path) {
  return dist::MergeJournalFiles({path}, kSweep, GridFp(), kPoints, Validate);
}

TEST(DistMergeFuzz, TruncationAtEveryByteNeverThrowsOrCorrupts) {
  const std::string source = TempPath("fuzz_truncate_src");
  const std::string pristine = PristineJournal(source);
  const std::string victim = TempPath("fuzz_truncate");
  // Every prefix of the journal, including the empty file: the merge must
  // adopt exactly the complete records of the intact prefix and quarantine
  // the torn tail (if any) — never throw, never adopt garbage.
  for (std::size_t cut = 0; cut <= pristine.size(); ++cut) {
    WriteBytes(victim, pristine.substr(0, cut));
    MergeResult merged;
    ASSERT_NO_THROW(merged = MergeOne(victim)) << "cut at byte " << cut;
    AssertMergeInvariants(merged);
    // A full file yields the full grid; shorter prefixes never more.
    EXPECT_LE(merged.points.size(), kPoints);
    if (cut == pristine.size()) {
      EXPECT_EQ(merged.points.size(), kPoints);
      EXPECT_TRUE(merged.quarantined.empty());
    }
  }
  // The cache file: a prefix serves exactly its complete entries, and a
  // torn last entry is counted, never served.
  const std::string cache = PristineCache(source);
  for (std::size_t cut = 0; cut <= cache.size(); ++cut) {
    WriteBytes(victim, cache.substr(0, cut));
    const std::size_t served = AssertCacheInvariants(victim);
    const std::string prefix = cache.substr(0, cut);
    const std::size_t lines = static_cast<std::size_t>(
        std::count(prefix.begin(), prefix.end(), '\n'));
    EXPECT_EQ(served, lines > 0 ? lines - 1 : 0) << "cut at byte " << cut;
  }
  std::remove(source.c_str());
  std::remove(victim.c_str());
}

TEST(DistMergeFuzz, SingleByteMutationsEitherAdoptOrQuarantineEveryRecord) {
  const std::string source = TempPath("fuzz_mutate_src");
  const std::string pristine = PristineJournal(source);
  const std::string victim = TempPath("fuzz_mutate");
  std::uint64_t rng = 0xF00DF00Dull;
  // Flip every byte position to a pseudo-random other value.  Whatever
  // the damage hits — header, index, hex, separators, newlines — the
  // merge must stay total: no exception, no corrupt adoption, and every
  // non-adopted record accounted for in the quarantine list.
  for (std::size_t pos = 0; pos < pristine.size(); ++pos) {
    std::string mutated = pristine;
    char replacement = static_cast<char>(SplitMix64(rng) & 0xff);
    if (replacement == mutated[pos]) {
      replacement = static_cast<char>(replacement + 1);
    }
    mutated[pos] = replacement;
    WriteBytes(victim, mutated);
    MergeResult merged;
    ASSERT_NO_THROW(merged = MergeOne(victim)) << "mutation at byte " << pos;
    AssertMergeInvariants(merged);
    // Never silent: a mutation that cost us records must have left a
    // quarantine trail (header damage quarantines the whole file).
    if (merged.points.size() < kPoints) {
      EXPECT_FALSE(merged.quarantined.empty())
          << "silently dropped records; mutation at byte " << pos;
    }
    // Determinism: the same damaged bytes merge identically twice.
    const MergeResult again = MergeOne(victim);
    EXPECT_EQ(again.points, merged.points);
    EXPECT_EQ(again.quarantined.size(), merged.quarantined.size());
  }
  // The cache file: an entry the damage costs is counted as corrupt, or
  // its record still loaded — under a key the mutation rewrote, since the
  // per-entry checksum covers the payload, not the key.
  const std::string cache = PristineCache(source);
  for (std::size_t pos = 0; pos < cache.size(); ++pos) {
    std::string mutated = cache;
    char replacement = static_cast<char>(SplitMix64(rng) & 0xff);
    if (replacement == mutated[pos]) {
      replacement = static_cast<char>(replacement + 1);
    }
    mutated[pos] = replacement;
    WriteBytes(victim, mutated);
    const std::size_t served = AssertCacheInvariants(victim);
    const service::CompileCache::Stats stats =
        service::CompileCache(victim).stats();
    if (served < kPoints) {
      EXPECT_TRUE(stats.corrupt_evicted > 0 || stats.loaded == kPoints)
          << "silently dropped entries; mutation at byte " << pos;
    }
  }
  std::remove(source.c_str());
  std::remove(victim.c_str());
}

TEST(DistMergeFuzz, RandomGarbageFilesAreQuarantinedWholesale) {
  const std::string victim = TempPath("fuzz_garbage");
  std::uint64_t rng = 0xBADC0FFEull;
  for (int round = 0; round < 64; ++round) {
    const std::size_t size = SplitMix64(rng) % 512;
    std::string garbage;
    garbage.reserve(size);
    for (std::size_t i = 0; i < size; ++i) {
      garbage.push_back(static_cast<char>(SplitMix64(rng) & 0xff));
    }
    WriteBytes(victim, garbage);
    MergeResult merged;
    ASSERT_NO_THROW(merged = MergeOne(victim)) << "round " << round;
    EXPECT_TRUE(merged.points.empty());
    EXPECT_FALSE(merged.quarantined.empty());
    AssertMergeInvariants(merged);
  }
  std::remove(victim.c_str());
}

TEST(DistMergeFuzz, DuplicatesAndConflictsResolveFirstCommittedWins) {
  const std::string a = TempPath("fuzz_dup_a");
  const std::string b = TempPath("fuzz_dup_b");
  // File A: points 0,1.  File B: point 1 again (identical — a benign
  // stolen-point re-commit), point 2 conflicting garbage hex that still
  // decodes but fails validation, and point 0 with a DIFFERENT payload
  // (the conflict case — the earlier record must stay authoritative).
  {
    std::remove(a.c_str());
    harness::SweepCheckpoint journal(a, kSweep, GridFp());
    journal.RecordPoint(0, PayloadFor(0));
    journal.RecordPoint(1, PayloadFor(1));
  }
  {
    std::remove(b.c_str());
    harness::SweepCheckpoint journal(b, kSweep, GridFp());
    journal.RecordPoint(1, PayloadFor(1));        // identical duplicate
    journal.RecordPoint(0, AltPayloadFor(0));     // conflicting duplicate
    journal.RecordPoint(3, "not-a-real-result");  // fails the validator
  }
  const MergeResult merged =
      dist::MergeJournalFiles({a, b}, kSweep, GridFp(), kPoints, Validate);
  EXPECT_EQ(merged.files_read, 2u);
  EXPECT_EQ(merged.duplicate_points, 1u);
  ASSERT_EQ(merged.points.count(0), 1u);
  EXPECT_EQ(merged.points.at(0), PayloadFor(0));  // first committed won
  EXPECT_EQ(merged.points.count(3), 0u);          // validator rejection
  // Two structured quarantines: the conflict and the bad payload.
  ASSERT_EQ(merged.quarantined.size(), 2u);
  EXPECT_NE(merged.quarantined[0].reason.find("conflicting duplicate"),
            std::string::npos);
  EXPECT_NE(merged.quarantined[1].reason.find("payload rejected"),
            std::string::npos);
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(DistMergeFuzz, InterleavedWorkerJournalsMergeDeterministically) {
  // Three workers each journal an arbitrary subset (with overlaps), one of
  // them truncated mid-record: merging the sorted file list twice gives
  // identical results, equal to the union of intact records.
  const std::vector<std::string> paths = {
      TempPath("fuzz_ileave_w0"), TempPath("fuzz_ileave_w1"),
      TempPath("fuzz_ileave_w2")};
  const std::vector<std::vector<std::size_t>> slices = {
      {0, 1, 2}, {2, 3}, {3, 4, 5}};
  for (std::size_t w = 0; w < paths.size(); ++w) {
    std::remove(paths[w].c_str());
    harness::SweepCheckpoint journal(paths[w], kSweep, GridFp());
    for (const std::size_t index : slices[w]) {
      journal.RecordPoint(index, PayloadFor(index));
    }
  }
  // Tear the last worker's journal mid-way through its final record.
  const std::string last = ReadBytes(paths[2]);
  WriteBytes(paths[2], last.substr(0, last.size() - 7));

  const MergeResult first =
      dist::MergeJournalFiles(paths, kSweep, GridFp(), kPoints, Validate);
  const MergeResult second =
      dist::MergeJournalFiles(paths, kSweep, GridFp(), kPoints, Validate);
  EXPECT_EQ(first.points, second.points);
  EXPECT_EQ(first.duplicate_points, second.duplicate_points);
  EXPECT_EQ(first.quarantined.size(), second.quarantined.size());
  AssertMergeInvariants(first);
  // Overlap on 2 and 3 is the benign duplicate path; the torn record
  // (point 5) is quarantined, everything else survives.
  EXPECT_EQ(first.duplicate_points, 2u);
  EXPECT_EQ(first.points.count(5), 0u);
  for (const std::size_t index : {0u, 1u, 2u, 3u, 4u}) {
    EXPECT_EQ(first.points.count(index), 1u) << index;
  }
  ASSERT_EQ(first.quarantined.size(), 1u);
  EXPECT_EQ(first.quarantined[0].file, paths[2]);
  std::remove(paths[0].c_str());
  std::remove(paths[1].c_str());
  std::remove(paths[2].c_str());
}

TEST(DistMergeFuzz, UnreadableAndForeignFilesAreFileLevelQuarantines) {
  const std::string missing = TempPath("fuzz_missing_file");
  std::remove(missing.c_str());
  const std::string foreign = TempPath("fuzz_foreign");
  {
    std::remove(foreign.c_str());
    // A journal from a different grid: whole-file rejection.
    harness::SweepCheckpoint journal(foreign, "othersweep",
                                     harness::GridFingerprint("othersweep",
                                                              {"x"}));
    journal.RecordPoint(0, "whatever");
  }
  const MergeResult merged = dist::MergeJournalFiles(
      {missing, foreign}, kSweep, GridFp(), kPoints, Validate);
  EXPECT_TRUE(merged.points.empty());
  ASSERT_EQ(merged.quarantined.size(), 2u);
  EXPECT_EQ(merged.quarantined[0].line, 0u);  // unreadable: file-level
  EXPECT_EQ(merged.quarantined[0].file, missing);
  EXPECT_NE(merged.quarantined[1].reason.find("belongs to sweep"),
            std::string::npos);
  // Only the readable file counts as read.
  EXPECT_EQ(merged.files_read, 1u);
  std::remove(foreign.c_str());
}

TEST(DistMergeFuzz, SliceJournalsFromThisGridMergeWholeGrid) {
  // Worker journals carry the whole-grid fingerprint plus a slice= token;
  // the offline merge must accept any well-formed slice of this grid.
  const std::string path = TempPath("fuzz_slice");
  std::remove(path.c_str());
  const std::vector<std::size_t> slice = {1, 4};
  {
    harness::SweepCheckpoint journal(
        path, kSweep, GridFp(), harness::SliceFingerprint(GridFp(), slice));
    for (const std::size_t index : slice) {
      journal.RecordPoint(index, PayloadFor(index));
    }
  }
  const MergeResult merged = MergeOne(path);
  EXPECT_TRUE(merged.quarantined.empty());
  EXPECT_EQ(merged.points.size(), 2u);
  EXPECT_EQ(merged.points.count(1), 1u);
  EXPECT_EQ(merged.points.count(4), 1u);
  std::remove(path.c_str());
}

}  // namespace
