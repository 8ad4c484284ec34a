// Distributed campaign fabric (docs/DISTRIBUTED.md): shard workers that
// capture any contiguous trace range of a contract-v2 campaign and emit
// CRC'd `SLMSNAP1` accumulator snapshots (core/snapshot.hpp: the format,
// its range ledger and order-invariant merging), plus a local
// multi-process coordinator that reissues dead or incomplete shards'
// exact trace ranges. Because contract v2 derives every trace from
// (seed, trace_index) and the CPA accumulators are integer-valued sums,
// a merged fabric run is byte-identical to the serial engine for every
// split (tests/core/fabric_test.cpp, tools/fabric_smoke.cmake).
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/setup.hpp"
#include "core/snapshot.hpp"

namespace slm::obs {
class CampaignObserver;
}

namespace slm::core {

/// Split [0, total) into `shards` contiguous ranges — the same
/// `i*total/N` arithmetic the sharded engine uses per segment, so a
/// worker's range is always computable from (total, N, i) alone. Shard
/// ranges may be empty when shards > total.
std::vector<TraceRange> plan_shards(std::uint64_t total, unsigned shards);

/// One worker assignment: capture [range.begin, range.end) of the
/// campaign and write snapshots to `snapshot_out`.
struct FabricJob {
  TraceRange range;
  std::string snapshot_out;
  /// Also snapshot every N traces within the range (0 = final only).
  /// Each intermediate snapshot covers [range.begin, boundary) — the
  /// file is always a complete, mergeable prefix of the assignment.
  std::uint64_t snapshot_every = 0;
  /// Halt (throw CampaignHalted) after this many traces INTO the range,
  /// right after the covering snapshot lands — the deterministic stand-
  /// in for a worker dying mid-range (0 = off).
  std::uint64_t halt_after = 0;
};

/// Captures any contiguous trace range of a campaign through the capture
/// engine (core/capture.hpp), bit-identically to the traces every other
/// engine path assigns those indices. Runs the selection pre-pass once,
/// on the first run() (deterministic from the config seed, so every
/// worker of a campaign resolves the same bits).
class FabricWorker {
 public:
  /// `cfg` must be the exact campaign config of the serial run being
  /// distributed (StealthyAttack::byte_campaign_config /
  /// fullkey_campaign_config build it).
  FabricWorker(AttackSetup& setup, const CampaignConfig& cfg, bool fullkey);

  /// The campaign identity every snapshot of this worker carries.
  const store::StoreIdentity& identity() const { return id_; }

  /// Capture the job's range and write the snapshot(s). Returns the
  /// final snapshot; throws CampaignHalted after a halt_after boundary.
  AccumulatorSnapshot run(const FabricJob& job);

 private:
  CpaCampaign campaign_;
  bool fullkey_;
  store::StoreIdentity id_;
  bool resolved_ = false;
  std::vector<std::size_t> bits_;
};

/// Shared coordinator-side view of worker progress, written by the
/// per-worker JSONL monitor threads and read concurrently by the
/// coordinator loop (raced under TSan by the fabric_tsan ctest entry).
class FabricProgress {
 public:
  void reset(std::size_t workers);
  void update(std::size_t worker, std::uint64_t covered_end);
  std::uint64_t covered(std::size_t worker) const;
  std::uint64_t total_covered() const;

 private:
  mutable std::mutex m_;
  std::vector<std::uint64_t> covered_;
};

struct CoordinateOptions {
  std::string slm_binary;               ///< worker executable (slm)
  std::vector<std::string> worker_args; ///< attack config args, verbatim
  std::string work_dir;                 ///< snapshots + worker JSONL live here
  std::uint64_t total_traces = 0;
  unsigned shards = 4;
  std::uint64_t snapshot_every = 0;
  unsigned max_reissue_rounds = 4;
  /// Fault injection: pass --halt-after to this first-round shard so it
  /// dies mid-range (-1 = off); kill_after is range-relative traces.
  int kill_shard = -1;
  std::uint64_t kill_after = 0;
  obs::CampaignObserver* observer = nullptr;
};

struct CoordinateResult {
  std::string merged_path;
  unsigned workers_spawned = 0;
  unsigned worker_failures = 0;
  unsigned ranges_reissued = 0;
  std::size_t snapshots_merged = 0;
};

/// Drive `opt.shards` local `slm attack --range --snapshot-out` worker
/// subprocesses to full coverage of [0, total_traces): spawn a round,
/// track per-shard progress from each worker's JSONL event stream,
/// reap, salvage whatever complete snapshot prefix a dead worker left
/// behind, and reissue exactly the missing ranges until the ledger is
/// complete; then merge everything into `work_dir`/merged.snap.
CoordinateResult coordinate_local(const CoordinateOptions& opt);

}  // namespace slm::core
