// The one capture engine behind every campaign loop (DESIGN.md §11/§12).
//
// CaptureKernel is built once per campaign from the resolved sensor plan
// and turns any contiguous range of global trace indices into readings
// and class labels. Every trace's randomness derives statelessly from
// (seed, domain, trace index), so a range can start anywhere and any
// split of [0, traces) into ranges yields the same per-trace values:
//
//   generate(slab, g0, n)  per trace: counter-keyed streams, plaintext,
//                          encrypt_stateless with the carried victim
//                          registers, fence draws; benign-HW stages its
//                          currents and noise draws, every other sensor
//                          mode computes its voltages and reads the
//                          sensor right away; then the class labels (1
//                          or 16 key bytes) and the store metadata.
//   compute(slab)          benign-HW only: voltages_block + toggle_hw_block
//                          over the whole slab (RNG-free).
//
// run_range([a, b), acc) runs the two stages block after block and folds
// each block into the accumulator (sca::XorClassCpa for one key byte,
// sca::MultiByteCpa for sixteen). With a producer pool (benign-HW on a
// machine with a second hardware thread) it overlaps the generation of
// block k+1 with the compute and fold of block k.
//
// CampaignEngine is the one driver: per checkpoint segment it splits
// [covered, cp) into T contiguous chunks (T = 1 runs on the calling
// thread), merges the shard accumulators in shard order, and takes one
// checkpoint step — progress and early exit through the
// sink, observer events, snapshot, halt.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/campaign.hpp"
#include "sca/model.hpp"
#include "sensors/benign_sensor.hpp"

namespace slm::obs {
class CampaignObserver;
}

namespace slm::core {

/// Observer-gated accounting of one shard's ranges. Workers fill it
/// thread-locally; the driver flushes it into the metrics registry at
/// checkpoint boundaries, so workers never touch the registry mutex.
struct RangeStats {
  bool timed = false;
  double kernel_seconds = 0.0;  ///< generate + compute (incl. producer wait)
  double cpa_seconds = 0.0;     ///< fold into the accumulator + store rows
  /// Per block since the last flush: {kernel, fold} seconds.
  std::vector<std::array<double, 2>> blocks;
  /// Per block since the last flush, overlapped runs only: time the
  /// compute side waited for the producer.
  std::vector<double> gen_waits;
};

/// Push a shard's per-block accounting into the observer's registry
/// (slm.kernel.blocks_total / block_*_seconds, slm.pipeline.*) and clear
/// it. No-op without an observer.
void flush_range_stats(obs::CampaignObserver* ob, RangeStats& st);

class CaptureKernel {
 public:
  /// `campaign` must already be resolved (resolve_sensor_bits); `bits`
  /// are its bits of interest; `models` label each trace (one per
  /// attacked key byte). `store` (may be null) receives every trace.
  CaptureKernel(const CpaCampaign& campaign,
                const std::vector<std::size_t>& bits,
                std::vector<sca::LastRoundBitModel> models,
                store::TraceStoreWriter* store);

  /// Capture global traces [a, b) and fold them into `acc`. Thread-safe
  /// for disjoint ranges; `producer` (a one-thread pool, may be null)
  /// enables the generate/compute overlap.
  template <class Acc>
  void run_range(std::uint64_t a, std::uint64_t b, Acc& acc, RangeStats& st,
                 ThreadPool* producer) const;

  std::size_t block() const { return block_; }

  /// Whether a one-shard range should overlap generation with compute:
  /// only benign-HW has a compute stage worth overlapping (every other
  /// sensor reads inside generate), and only a second hardware thread
  /// can run the producer without time-slicing the consumer.
  bool overlaps_generation() const;

 private:
  struct Slab;
  Slab make_slab() const;
  void generate(Slab& s, std::uint64_t g0, std::size_t n,
                crypto::AesDatapathModel::RegisterSnapshot& regs) const;
  void compute(Slab& s) const;

  const CpaCampaign& c_;
  std::vector<std::size_t> bits_;
  std::vector<sca::LastRoundBitModel> models_;
  store::TraceStoreWriter* store_;
  std::size_t block_;
  bool simd_;
  bool hw_;  ///< benign-HW: defer the voltages and the sensor to compute()
  std::size_t samples_;
  std::size_t ncyc_;
  double coupling_;
  double env_noise_v_;
  sensors::BenignSensorBank::CompiledHwPlan hw_plan_;
  sensors::BenignSensorBank::CompiledBitPlan bit_plan_;
};

/// The one driver: a byte or full-key campaign on `threads` shards (the
/// pool in cfg.pool when set, else a private one). CpaCampaign::run* and
/// ParallelCampaign::run* are thin calls into it.
class CampaignEngine {
 public:
  static CampaignResult run_byte(CpaCampaign& campaign, unsigned threads);
  static FullKeyRunResult run_fullkey(CpaCampaign& campaign,
                                      const FullKeyConfig& fk,
                                      unsigned threads);

 private:
  template <class Sink>
  static void drive(CpaCampaign& c, unsigned T, Sink& sink, CampaignRun& run);
};

}  // namespace slm::core
