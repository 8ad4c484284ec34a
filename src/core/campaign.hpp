// CPA capture campaign: the workstation loop of the paper (send random
// plaintext, record ciphertext + sensor trace, repeat), fused with the
// analysis so half-million-trace runs stream in seconds.
//
// Per trace: the AES datapath model produces per-cycle switching currents;
// the linear PDN response matrix turns them into supply voltages at the
// sensor sampling instants; the selected sensor (TDC or benign circuit,
// full word or single bit) turns voltages into readings; the CPA engine
// accumulates correlations against the last-round single-bit model.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/setup.hpp"
#include "defense/active_fence.hpp"
#include "pdn/cycle_response.hpp"
#include "sca/cpa.hpp"
#include "sca/selection.hpp"
#include "sca/tvla.hpp"
#include "sca/model.hpp"
#include "sca/mtd.hpp"

namespace slm::obs {
class CampaignObserver;
}

namespace slm::store {
enum class StoreKind : std::uint8_t;
struct StoreIdentity;
class TraceStoreWriter;
}

namespace slm::core {

class ThreadPool;

enum class SensorMode {
  kTdcFull,         ///< TDC reading (all stages)          - Fig. 9
  kTdcSingleBit,    ///< one TDC thermometer bit           - Fig. 11
  kBenignHw,        ///< HW over benign bits of interest   - Figs. 10, 17
  kBenignSingleBit, ///< one benign path endpoint          - Figs. 12, 13, 18
  kRoCounter,       ///< RO counter sensor (related work [3]) - ablations
};

const char* sensor_mode_name(SensorMode m);

/// RNG determinism contract of every campaign (DESIGN.md §7/§12): v2,
/// counter-keyed per-trace streams. Every trace's draws derive
/// statelessly from (seed, domain, trace_index) via
/// Xoshiro256::trace_stream, so results depend on the seed ALONE —
/// bit-identical across any thread count, block size, shard split and
/// SIMD level — and generation parallelizes/pipelines freely. v2 is the
/// only contract the engine runs; files stamped with the retired v1 are
/// refused.
enum class RngContract {
  kDefault = 0,  ///< resolve via SLM_RNG_CONTRACT, else v2
  kV2 = 2,
};

const char* rng_contract_name(RngContract c);

/// kV2 for any request. SLM_RNG_CONTRACT, when set, must name v2 ("v2"
/// or "2"); anything else — the retired "v1" included — is a loud error.
RngContract resolve_contract(RngContract requested);

struct CampaignConfig {
  std::size_t traces = 500000;
  SensorMode mode = SensorMode::kBenignHw;

  /// Bit index for the single-bit modes (TDC stage or global endpoint).
  /// kAutoBit picks the highest-variance endpoint from a selection
  /// pre-pass (how the paper picks bit 21 / bit 28).
  static constexpr std::size_t kAutoBit = static_cast<std::size_t>(-1);
  std::size_t single_bit = 0;

  /// CPA target: last-round key byte (paper: 3, "the 4th byte") and
  /// predicted state bit (paper: 0, "the 1st bit").
  std::size_t target_key_byte = 3;
  std::size_t target_bit = 0;

  /// Sensor sampling window (absolute ns from encryption start). The
  /// default brackets the last-round leakage cycles plus PDN settling.
  double window_start_ns = 400.0;
  double window_end_ns = 465.0;

  /// Progress snapshot trace counts (clipped to `traces`); empty =
  /// default log-spaced schedule.
  std::vector<std::size_t> checkpoints;

  /// Traces for the bits-of-interest pre-pass (benign modes).
  std::size_t selection_traces = 4000;
  double selection_min_variance = 0.15;

  /// Keep only the K highest-variance bits of interest (0 = no cap).
  /// The glitchier the circuit (C6288), the more the Hamming weight
  /// profits from discarding endpoints with variance but no slope.
  std::size_t selection_top_k = 0;

  /// Optional active-fence countermeasure around the victim (hiding
  /// defence; random_current_a = 0 disables it).
  defense::ActiveFenceConfig fence{};

  /// Trace-block size of the capture engine (see DESIGN.md §11): each
  /// block's traces are generated first, then the RNG-free kernels
  /// (CycleResponseMatrix::voltages_block, toggle_hw_block, the class-sum
  /// fold) run over the whole block. 0 = auto (SLM_BLOCK env var, else
  /// kDefaultBlockTraces); 1 runs the same kernels with one lane. Blocks
  /// clamp at range and checkpoint edges, so any value yields
  /// bit-identical results and snapshots.
  std::size_t block = 0;

  /// Lane-parallel dispatch for the block kernels. false — or
  /// SLM_SIMD=0/scalar in the environment — forces the per-lane scalar
  /// reference loops; SLM_SIMD also selects the fold dispatch level
  /// (sca/fold_kernels.hpp: scalar, sse2, avx2, unset = auto). Results
  /// are bit-identical at every level — the fold accumulators are exact
  /// int64 sums, so lane width never matters; the knob exists to
  /// isolate vectorizer miscompiles and to measure the SIMD win.
  bool simd = true;

  std::uint64_t seed = 0xc0ffee;

  /// Optional observability hook (metrics, spans, JSONL events). Null is
  /// the documented zero-overhead path: the capture loops only ever test
  /// this pointer, so the no-observer serial run stays byte-identical to
  /// the pre-observability code (golden_trace_test enforces it). The
  /// pointer is borrowed — the caller keeps the observer alive for the
  /// duration of run().
  obs::CampaignObserver* observer = nullptr;

  /// Directory for crash-safe snapshots (`<dir>/campaign.ckpt`, written
  /// atomically at every checkpoint). Empty disables checkpointing.
  std::string checkpoint_dir;

  /// Resume from `<checkpoint_dir>/campaign.ckpt` when it exists: the
  /// campaign restores the merged accumulator and the progress, re-derives
  /// every stream from (seed, trace index), and continues bit-exactly as
  /// if never interrupted, on any thread count. Missing file = fresh
  /// start; unreadable file or another campaign's checkpoint = loud error.
  bool resume = false;

  /// Ops/testing knob: after the snapshot at the first checkpoint whose
  /// trace count is >= this value, throw CampaignHalted — a
  /// deterministic stand-in for kill -9 (snapshots are atomic, so a real
  /// kill at any instant leaves the same on-disk state). 0 disables.
  std::size_t halt_after_traces = 0;

  /// Capture-once trace store (docs/STORE.md): when set, the campaign
  /// records every trace's readings, plaintext and ciphertext and writes
  /// a fingerprinted `SLMTRC1` file here on completion (atomic rename),
  /// for `slm attack --from-store` replay at fold speed. Incompatible
  /// with `resume` (a resumed run never regenerates the earlier traces);
  /// a halted run destroys the writer and leaves no store file.
  std::string store_out;

  /// Externally-owned worker pool (borrowed, may be null). When set,
  /// ParallelCampaign shards over THIS pool instead of constructing a
  /// private one — the `slm serve` daemon multiplexes every tenant's
  /// campaigns over one shared core::ThreadPool this way. The pool's
  /// size overrides the `threads` knob; the results are bit-identical
  /// either way (thread count is repro-irrelevant).
  ThreadPool* pool = nullptr;
};

/// Run metadata shared by byte and full-key campaign results.
struct CampaignRun {
  SensorMode mode = SensorMode::kBenignHw;
  std::size_t traces_run = 0;  ///< shared capture traces (full key: not x16)
  std::vector<std::size_t> bits_of_interest;  ///< kBenignHw only
  std::vector<double> sample_times_ns;

  /// Single-bit index actually used after kAutoBit resolution (single-
  /// bit modes only; 0 otherwise).
  std::size_t single_bit = 0;

  /// Workers used and campaign wall time (selection pre-pass included),
  /// for traces/sec reporting in the benches and the CLI.
  unsigned threads_used = 0;
  double capture_seconds = 0.0;

  /// Effective trace-block size after --block / SLM_BLOCK resolution —
  /// run metadata in the same spirit as threads_used, so bench JSON
  /// reports the block the campaign actually ran with.
  std::size_t block_size = 0;

  /// Phase-time split, filled only when cfg.observer != nullptr (the
  /// per-block timers are observer-gated to keep the disabled path
  /// untouched). kernel = generation + PDN + sensor; cpa = fold / merge;
  /// checkpoint_io = snapshot writes. With several shards kernel/cpa sum
  /// worker-thread time (CPU seconds, not wall clock).
  /// selection_seconds (the bits-of-interest pre-pass) is coarse-grained
  /// and always filled.
  double kernel_seconds = 0.0;
  double cpa_seconds = 0.0;
  double checkpoint_io_seconds = 0.0;
  double selection_seconds = 0.0;

  /// Traces restored from a snapshot (0 = fresh run) and the snapshot
  /// file last written (empty when checkpointing is off).
  std::size_t resumed_from = 0;
  std::string snapshot_path;
};

struct CampaignResult : CampaignRun {
  std::uint8_t correct_guess = 0;   ///< true last-round key byte
  std::uint8_t recovered_guess = 0; ///< CPA winner at the end
  bool key_recovered = false;
  sca::MtdResult mtd;
  std::vector<sca::CpaProgressPoint> progress;
  std::vector<double> final_max_abs_corr;    ///< per key candidate
};

/// Knobs of the fused full-key campaign (docs/FULLKEY.md). Early exit is
/// attacker-observable: a byte "converges" when its CPA winner has been
/// stable with a sufficient correlation margin over `stable` consecutive
/// checkpoints. Converged bytes freeze their reported result and stop
/// paying the per-checkpoint 256 x 512 x S fold; the shared capture keeps
/// feeding their accumulator slice, so turning early exit off only adds
/// fold work — the accumulators (and therefore any later fold) are
/// unchanged.
struct FullKeyConfig {
  bool early_exit = true;

  /// Margin |r_best| - |r_second| a byte's winner must hold.
  double early_exit_margin = 0.08;

  /// Consecutive qualifying checkpoints (same winner as the previous
  /// checkpoint, margin met) before the byte freezes.
  std::size_t early_exit_stable = 2;

  /// Never freeze before this many traces (the margin estimate is noise
  /// at the head of the log-spaced schedule).
  std::size_t early_exit_min_traces = 1000;
};

/// Per-byte outcome of a fused full-key campaign. `traces` is the trace
/// count this byte's reported result was folded at: the shared budget,
/// or the freeze point when early exit fired.
struct FullKeyByteResult {
  std::uint8_t correct = 0;     ///< true last-round key byte
  std::uint8_t recovered = 0;   ///< CPA winner
  bool success = false;
  bool early_exited = false;
  std::size_t traces = 0;
  sca::MtdResult mtd;
  std::vector<sca::CpaProgressPoint> progress;
  std::vector<double> final_max_abs_corr;  ///< per key candidate
};

/// Outcome of a fused full-key campaign: one shared capture stream, 16
/// per-byte CPA results.
struct FullKeyRunResult : CampaignRun {
  std::array<FullKeyByteResult, 16> bytes;

  bool all_recovered() const {
    for (const auto& b : bytes) {
      if (!b.success) return false;
    }
    return true;
  }
};

class CpaCampaign {
 public:
  CpaCampaign(AttackSetup& setup, const CampaignConfig& cfg);

  /// Run the full campaign on the calling thread (ParallelCampaign with
  /// one thread; same engine, same results).
  CampaignResult run();

  /// Run the fused full-key campaign: ONE capture stream (identical
  /// trace readings to run() under the same config, because generation
  /// is model-independent), sixteen per-byte class accumulators
  /// (sca::MultiByteCpa), per-byte folds at checkpoints with optional
  /// early exit. cfg.target_key_byte is ignored; the sampling window
  /// must bracket every byte's leakage cycle (StealthyAttack::
  /// fullkey_campaign_config builds such a config).
  FullKeyRunResult run_fullkey(const FullKeyConfig& fk = {});

  /// The sampling instants the campaign will use.
  const std::vector<double>& sample_times_ns() const { return sample_times_; }

  /// Bits-of-interest pre-pass only (exposed for the Fig. 7/8 benches).
  std::vector<std::size_t> select_bits_of_interest();

  /// Full per-bit statistics from the selection pre-pass.
  sca::BitSelector run_selection_pass();

  /// The single-bit index actually used (after kAutoBit resolution).
  std::size_t resolved_single_bit() const { return cfg_.single_bit; }

  /// Non-specific leakage assessment with the configured sensor: fixed-
  /// vs-random plaintexts, Welch's t-test per sample point. Uses the
  /// same physics as run() but needs no key hypothesis at all.
  sca::WelchTTest run_tvla(std::size_t traces_per_population);

  /// The `SLMTRC1` fingerprint this campaign's capture would stamp into
  /// a store of `traces` traces: (seed, rng contract v2, trace count, CRC-32 of the attack/sensor config). Replay builds the same
  /// identity from its own flags and refuses a store that differs.
  store::StoreIdentity store_identity(store::StoreKind kind,
                                      std::size_t traces) const;

 private:
  friend class CaptureKernel;   // the capture engine's kernel
  friend class CampaignEngine;  // and its driver
  friend class FabricWorker;    // same engine over a trace range

  /// Victim currents -> PDN voltages at the sample instants + env noise.
  /// Capture passes `fence_rng`, the trace's counter-keyed fence stream;
  /// null draws the fence's own sequential stream (selection, TVLA and
  /// auto-bit pre-passes, which only ever run on one thread).
  void make_voltages(const crypto::AesDatapathModel::Encryption& enc,
                     Xoshiro256& rng, std::vector<double>& v_out,
                     Xoshiro256* fence_rng = nullptr) const;

  /// Read the configured sensor at every sample voltage into `y`
  /// (per-call sampling).
  void read_sensor(const std::vector<double>& v,
                   const std::vector<std::size_t>& bits, Xoshiro256& rng,
                   std::vector<double>& y) const;

  /// Resolve kAutoBit / bits-of-interest before a capture loop; returns
  /// the bits of interest (benign-HW only, else empty).
  std::vector<std::size_t> resolve_sensor_bits();

  AttackSetup& setup_;
  CampaignConfig cfg_;
  std::vector<double> sample_times_;
  pdn::CycleResponseMatrix response_;
  /// Mutable: the pre-passes advance its sequential stream; capture only
  /// reads it (counter-keyed per-trace fence streams).
  mutable std::optional<defense::ActiveFence> fence_;
};

/// Default log-spaced checkpoint schedule up to `traces`.
std::vector<std::size_t> default_checkpoints(std::size_t traces);

/// The sorted checkpoint schedule the engine folds at for this config: `requested` when non-empty, else default_checkpoints(traces).
/// Store replay folds at the same counts to stay bit-identical.
std::vector<std::size_t> checkpoint_schedule(
    const std::vector<std::size_t>& requested, std::size_t traces);

/// Finalize a capture's trace-store writer and emit the slm.store.*
/// write metrics and the store_write event.
void finalize_trace_store(store::TraceStoreWriter& writer,
                          obs::CampaignObserver* observer);

/// Default trace-block size of the block-batched pipeline: big enough to
/// amortize kernel dispatch and fill the SIMD lanes, small enough that a
/// block of (readings + draws) stays in L2.
inline constexpr std::size_t kDefaultBlockTraces = 64;

/// CampaignConfig::block resolution: an explicit request wins, else the
/// SLM_BLOCK environment variable, else kDefaultBlockTraces.
std::size_t resolve_block(std::size_t requested);

/// CampaignConfig::simd resolution: an explicit `false` wins, else the
/// SLM_SIMD dispatch level decides (the scalar level — SLM_SIMD=0 or
/// SLM_SIMD=scalar — forces the scalar block kernels).
bool resolve_simd(bool requested);

}  // namespace slm::core
