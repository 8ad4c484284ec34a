// The one persisted accumulator format (`SLMSNAP1`, docs/OBSERVABILITY.md
// and docs/DISTRIBUTED.md): a campaign identity, the trace ranges it
// covers, the exact int64 CPA accumulator over those traces and an
// optional progress section. Under RNG contract v2 that is the whole
// state of a campaign, so one file serves both uses:
//
//   - a campaign checkpoint (`<dir>/campaign.ckpt`): the accumulator
//     after the shard-order merge, the range [0, traces_done) and the
//     progress section (the byte campaign's curve, or the 16 full-key
//     byte states). Resume loads it into one shard, so any thread count
//     continues it bit-exactly;
//   - a fabric worker snapshot: any covered range, no progress section.
//
// Snapshots of one campaign merge in any order (integer sums); a
// checkpoint is a mergeable snapshot too.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "sca/cpa.hpp"
#include "store/trace_store.hpp"

namespace slm::core {

/// `SLMSNAP1` wire version. Version 2 took over campaign checkpoints: the
/// identity became store::StoreIdentity and the progress section was
/// added. Readers refuse every other version, including the retired
/// `SLMCKPT1` checkpoint files (a different magic).
inline constexpr std::uint32_t kSnapshotVersion = 2;

/// Thrown when a campaign with `halt_after_traces` set reaches that
/// trace count at a checkpoint: the snapshot is on disk, the process
/// "dies". The kill-at-checkpoint integration tests and the
/// `slm attack --halt-after` flag use this to simulate a crash
/// deterministically; a real kill -9 is equivalent because snapshots
/// are atomic.
class CampaignHalted : public Error {
 public:
  CampaignHalted(std::size_t traces, std::string snapshot_path)
      : Error("campaign halted after " + std::to_string(traces) +
              " traces; snapshot at '" + snapshot_path + "'"),
        traces_(traces),
        snapshot_path_(std::move(snapshot_path)) {}

  std::size_t traces() const { return traces_; }
  const std::string& snapshot_path() const { return snapshot_path_; }

 private:
  std::size_t traces_;
  std::string snapshot_path_;
};

/// A snapshot file is structurally unusable: missing, truncated, wrong
/// magic/version, CRC failure, or a malformed payload. CLI exit code 7.
class SnapshotFormatError : public Error {
 public:
  using Error::Error;
};

/// Snapshots describe different campaigns (identity mismatch) and must
/// never be merged. CLI exit code 8.
class SnapshotMismatch : public Error {
 public:
  using Error::Error;
};

/// Trace-range bookkeeping violation: overlapping ranges (a silent
/// double-count), out-of-bounds or empty ranges, or a merge --report on
/// incomplete coverage. CLI exit code 9.
class SnapshotRangeError : public Error {
 public:
  using Error::Error;
};

/// Half-open range of global zero-based trace indices [begin, end).
struct TraceRange {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;

  std::uint64_t count() const { return end - begin; }
  bool operator==(const TraceRange& o) const {
    return begin == o.begin && end == o.end;
  }
};

/// Coverage ledger over [0, total): which global traces are accounted
/// for by at least one snapshot. cover() refuses any overlap with an
/// SnapshotRangeError — a double-counted range would silently bias every
/// correlation, so it can never be "mostly fine".
class RangeLedger {
 public:
  explicit RangeLedger(std::uint64_t total);

  /// Add a covered range; throws SnapshotRangeError on empty/
  /// out-of-bounds/overlapping input. Adjacent ranges coalesce.
  void cover(TraceRange r);

  bool complete() const { return covered() == total_; }
  std::uint64_t covered() const;
  std::uint64_t total() const { return total_; }

  /// Coalesced covered ranges, sorted ascending.
  const std::vector<TraceRange>& ranges() const { return ranges_; }

  /// The gaps: exactly the ranges a coordinator must (re)issue.
  std::vector<TraceRange> missing() const;

 private:
  std::uint64_t total_;
  std::vector<TraceRange> ranges_;
};

/// A campaign's persisted state. `id` is the campaign identity
/// (CpaCampaign::store_identity with the full budget as trace count;
/// kind kByteCampaign or kFullKey): every field that shapes a reading,
/// and nothing that does not — thread count, block size and shard split
/// are absent. `accumulator` is an XorClassCpa or MultiByteCpa blob.
struct AccumulatorSnapshot {
  store::StoreIdentity id;
  std::vector<TraceRange> ranges;         ///< sorted, disjoint
  std::vector<std::uint8_t> accumulator;
  std::vector<std::uint8_t> progress;     ///< checkpoints only; else empty
  std::string source;                     ///< load path, for diagnostics only
};

/// Write `snap` as an SLMSNAP1 file (atomic tmp+rename, CRC'd framed
/// envelope), creating the parent directory. Returns bytes written.
std::size_t save_snapshot(const std::string& path,
                          const AccumulatorSnapshot& snap);

/// Load and fully validate an SLMSNAP1 file. Throws SnapshotFormatError
/// (missing/corrupt/foreign file) or SnapshotRangeError (unsorted/
/// overlapping/out-of-bounds ranges); both name the file.
AccumulatorSnapshot load_snapshot(const std::string& path);

/// Merge snapshots in the given order (any order: bit-identical, the
/// accumulators are integer-valued sums). Throws SnapshotMismatch when
/// identities differ, SnapshotRangeError when covered ranges overlap.
/// Gaps are allowed — a coordinator merges partial snapshots and fills
/// the holes later; `merge --report` is what insists on completeness.
/// The merged snapshot carries no progress section.
AccumulatorSnapshot merge_snapshots(
    const std::vector<AccumulatorSnapshot>& parts);

/// Fold a snapshot's accumulator into per-guess CPA sums for one key
/// byte (any byte for full-key snapshots; the snapshot's own target byte
/// otherwise). Bit-identical to the serial engine's checkpoint fold.
sca::CpaEngine fold_snapshot_byte(const AccumulatorSnapshot& snap,
                                  std::size_t key_byte);

/// `<dir>/campaign.ckpt` — the one live checkpoint of a campaign.
std::string checkpoint_file(const std::string& dir);

/// The checkpoint a resume of campaign `expected` continues from:
/// nullopt when `<dir>/campaign.ckpt` does not exist (fresh start).
/// Otherwise the file must be readable, carry the same identity, cover
/// exactly [0, n) with n below the budget and hold a progress section;
/// each refusal is a plain slm::Error that names the file (and, for an
/// identity mismatch, every differing field).
std::optional<AccumulatorSnapshot> load_checkpoint(
    const std::string& dir, const store::StoreIdentity& expected);

}  // namespace slm::core
