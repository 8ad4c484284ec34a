// The one capture engine against the per-trace reference oracle
// (reference_campaign.hpp): every engine path — serial, sharded on 2-4
// threads, fabric ranges merged, halted under one thread count and
// resumed under another — must reproduce the oracle bit for bit for
// every sensor mode, with and without the active fence, at block sizes
// 1, 7 and 64. And every path must emit the same observability
// vocabulary.
#include <cstring>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/fabric.hpp"
#include "core/parallel.hpp"
#include "obs/observer.hpp"
#include "reference_campaign.hpp"

namespace slm::core {
namespace {

using testing::reference_campaign;
using testing::ReferenceRun;

constexpr std::size_t kTraces = 500;

// Bitwise, so a NaN correlation (a constant reading over a short prefix)
// still compares equal to itself.
bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

void expect_progress(const std::vector<sca::CpaProgressPoint>& got,
                     const std::vector<sca::CpaProgressPoint>& want,
                     const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].traces, want[i].traces) << what;
    EXPECT_EQ(got[i].best_guess, want[i].best_guess) << what;
    EXPECT_EQ(got[i].correct_rank, want[i].correct_rank) << what;
    EXPECT_TRUE(same_bits(got[i].max_abs_corr, want[i].max_abs_corr))
        << what << " checkpoint " << got[i].traces;
  }
}

void expect_engine(const sca::CpaEngine& got, const sca::CpaEngine& want,
                   const std::string& what) {
  EXPECT_EQ(got.trace_count(), want.trace_count()) << what;
  EXPECT_TRUE(same_bits(got.max_abs_correlation(), want.max_abs_correlation()))
      << what;
}

void expect_byte_result(const CampaignResult& r, const ReferenceRun& ref,
                        const std::string& what) {
  EXPECT_EQ(r.traces_run, ref.engines[0].trace_count()) << what;
  EXPECT_EQ(r.recovered_guess, ref.engines[0].best_guess()) << what;
  EXPECT_TRUE(same_bits(r.final_max_abs_corr,
                        ref.engines[0].max_abs_correlation()))
      << what;
  expect_progress(r.progress, ref.progress[0], what);
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  return dir;
}

CampaignConfig base_cfg(SensorMode mode, bool fence, std::size_t block) {
  CampaignConfig cfg;
  cfg.mode = mode;
  cfg.traces = kTraces;
  cfg.checkpoints = {100, 250, kTraces};
  cfg.selection_traces = 400;
  cfg.block = block;
  if (fence) cfg.fence.random_current_a = 0.02;
  return cfg;
}

// The single-bit modes need a resolved bit for the oracle; resolution is
// the pre-pass's job, so take the engine's (one-trace run).
void resolve_bit(CampaignConfig& cfg) {
  if (cfg.mode != SensorMode::kTdcSingleBit &&
      cfg.mode != SensorMode::kBenignSingleBit) {
    return;
  }
  CampaignConfig probe = cfg;
  probe.single_bit = CampaignConfig::kAutoBit;
  probe.traces = 1;
  probe.checkpoints = {};
  AttackSetup setup(BenignCircuit::kAlu, Calibration::paper_defaults());
  cfg.single_bit = CpaCampaign(setup, probe).run().single_bit;
}

std::vector<std::size_t> hw_bits(const CampaignConfig& cfg) {
  if (cfg.mode != SensorMode::kBenignHw) return {};
  AttackSetup setup(BenignCircuit::kAlu, Calibration::paper_defaults());
  return CpaCampaign(setup, cfg).select_bits_of_interest();
}

/// Fabric: capture `splits` contiguous worker ranges, each on its own
/// platform, and merge the snapshots.
AccumulatorSnapshot fabric_merged(const CampaignConfig& cfg, bool fullkey,
                                  unsigned splits, const std::string& tag) {
  const std::string dir = fresh_dir("engine_fabric_" + tag);
  std::vector<AccumulatorSnapshot> parts;
  for (const TraceRange& r : plan_shards(cfg.traces, splits)) {
    AttackSetup setup(BenignCircuit::kAlu, Calibration::paper_defaults());
    FabricWorker worker(setup, cfg, fullkey);
    FabricJob job;
    job.range = r;
    job.snapshot_out = dir + "/" + std::to_string(r.begin) + ".snap";
    parts.push_back(worker.run(job));
  }
  std::filesystem::remove_all(dir);
  return merge_snapshots(parts);
}

using ByteCase = std::tuple<SensorMode, bool, std::size_t>;

class EngineVsOracle : public ::testing::TestWithParam<ByteCase> {};

TEST_P(EngineVsOracle, EveryPathBitIdentical) {
  const auto [mode, fence, block] = GetParam();
  CampaignConfig cfg = base_cfg(mode, fence, block);
  resolve_bit(cfg);
  const std::vector<std::size_t> bits = hw_bits(cfg);
  const ReferenceRun ref = reference_campaign(cfg, bits, {cfg.target_key_byte});
  const auto run = [&](unsigned threads, const CampaignConfig& c) {
    AttackSetup setup(BenignCircuit::kAlu, Calibration::paper_defaults());
    return ParallelCampaign(setup, c, threads).run();
  };

  {
    AttackSetup setup(BenignCircuit::kAlu, Calibration::paper_defaults());
    const CampaignResult serial = CpaCampaign(setup, cfg).run();
    EXPECT_EQ(serial.bits_of_interest, bits);
    expect_byte_result(serial, ref, "serial");
  }
  for (const unsigned threads : {2u, 3u, 4u}) {
    expect_byte_result(run(threads, cfg), ref,
                       "sharded " + std::to_string(threads));
  }
  for (const unsigned splits : {1u, 3u}) {
    const AccumulatorSnapshot merged =
        fabric_merged(cfg, false, splits, std::to_string(splits));
    expect_engine(fold_snapshot_byte(merged, cfg.target_key_byte),
                  ref.engines[0], "fabric split " + std::to_string(splits));
  }
  // Halt under one thread count, resume under another.
  for (const auto& [halt_threads, resume_threads] :
       {std::pair{1u, 3u}, std::pair{3u, 1u}}) {
    CampaignConfig c = cfg;
    c.checkpoint_dir = fresh_dir("engine_resume");
    c.halt_after_traces = 250;
    EXPECT_THROW((void)run(halt_threads, c), CampaignHalted);
    c.halt_after_traces = 0;
    c.resume = true;
    const CampaignResult resumed = run(resume_threads, c);
    EXPECT_EQ(resumed.resumed_from, 250u);
    expect_byte_result(resumed, ref,
                       "halted at " + std::to_string(halt_threads) +
                           ", resumed at " + std::to_string(resume_threads));
    std::filesystem::remove_all(c.checkpoint_dir);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, EngineVsOracle,
    ::testing::Combine(::testing::Values(SensorMode::kTdcFull,
                                         SensorMode::kTdcSingleBit,
                                         SensorMode::kBenignHw,
                                         SensorMode::kBenignSingleBit,
                                         SensorMode::kRoCounter),
                       ::testing::Bool(),
                       ::testing::Values(std::size_t{1}, std::size_t{7},
                                         std::size_t{64})));

// Full key: the 16-byte sink on the serial, sharded and fabric paths.
class FullKeyVsOracle
    : public ::testing::TestWithParam<std::tuple<SensorMode, bool>> {};

TEST_P(FullKeyVsOracle, EveryPathBitIdentical) {
  const auto [mode, fence] = GetParam();
  const CampaignConfig cfg = base_cfg(mode, fence, 7);
  std::vector<std::size_t> all_bytes;
  for (std::size_t j = 0; j < 16; ++j) all_bytes.push_back(j);
  const ReferenceRun ref = reference_campaign(cfg, hw_bits(cfg), all_bytes);
  FullKeyConfig fk;
  fk.early_exit = false;  // compare every byte's full-budget fold

  for (const unsigned threads : {1u, 3u}) {
    AttackSetup setup(BenignCircuit::kAlu, Calibration::paper_defaults());
    const FullKeyRunResult r =
        ParallelCampaign(setup, cfg, threads).run_fullkey(fk);
    EXPECT_EQ(r.traces_run, kTraces);
    for (std::size_t j = 0; j < 16; ++j) {
      const std::string what =
          "threads " + std::to_string(threads) + " byte " + std::to_string(j);
      EXPECT_EQ(r.bytes[j].recovered, ref.engines[j].best_guess()) << what;
      EXPECT_TRUE(same_bits(r.bytes[j].final_max_abs_corr,
                            ref.engines[j].max_abs_correlation()))
          << what;
      expect_progress(r.bytes[j].progress, ref.progress[j], what);
    }
  }
  const AccumulatorSnapshot merged = fabric_merged(cfg, true, 3, "fullkey");
  for (std::size_t j = 0; j < 16; ++j) {
    expect_engine(fold_snapshot_byte(merged, j), ref.engines[j],
                  "fabric byte " + std::to_string(j));
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, FullKeyVsOracle,
                         ::testing::Values(std::make_tuple(
                                               SensorMode::kBenignHw, true),
                                           std::make_tuple(
                                               SensorMode::kTdcFull, false)));

// One metric vocabulary from every path: the block kernel, span and
// campaign-gauge names of a serial, a sharded and a fabric run are the
// same set; slm.pipeline.* appears exactly when the generate/compute
// overlap runs (one benign-HW shard, a second hardware thread).
TEST(EngineMetrics, EveryPathEmitsTheSameNames) {
  const CampaignConfig base = base_cfg(SensorMode::kBenignHw, false, 64);
  const auto names = [](const obs::CampaignObserver& ob,
                        const std::string& prefix) {
    std::set<std::string> out;
    const obs::MetricsRegistry& m = ob.metrics();
    for (const auto& list :
         {m.counter_names(), m.gauge_names(), m.histogram_names()}) {
      for (const std::string& n : list) {
        if (n.rfind(prefix, 0) == 0) out.insert(n);
      }
    }
    return out;
  };
  const auto common = [&](const obs::CampaignObserver& ob) {
    std::set<std::string> out;
    for (const char* p : {"slm.kernel.", "slm.span.", "slm.campaign."}) {
      const std::set<std::string> part = names(ob, p);
      out.insert(part.begin(), part.end());
    }
    return out;
  };

  obs::CampaignObserver serial_ob;
  obs::CampaignObserver sharded_ob;
  obs::CampaignObserver fabric_ob;
  for (auto [ob, threads] : {std::make_pair(&serial_ob, 1u),
                             std::make_pair(&sharded_ob, 3u)}) {
    CampaignConfig cfg = base;
    cfg.observer = ob;
    cfg.checkpoint_dir = fresh_dir("engine_metrics_" + std::to_string(threads));
    AttackSetup setup(BenignCircuit::kAlu, Calibration::paper_defaults());
    (void)ParallelCampaign(setup, cfg, threads).run();
    std::filesystem::remove_all(cfg.checkpoint_dir);
  }
  {
    CampaignConfig cfg = base;
    cfg.observer = &fabric_ob;
    AttackSetup setup(BenignCircuit::kAlu, Calibration::paper_defaults());
    FabricWorker worker(setup, cfg, false);
    FabricJob job;
    job.range = {0, kTraces};
    job.snapshot_every = 200;
    job.snapshot_out = fresh_dir("engine_metrics_fabric") + ".snap";
    (void)worker.run(job);
    std::filesystem::remove(job.snapshot_out);
  }

  const std::set<std::string> want = common(serial_ob);
  for (const char* n :
       {"slm.kernel.blocks_total", "slm.kernel.block_kernel_seconds",
        "slm.kernel.block_cpa_seconds", "slm.kernel.block_size",
        "slm.span.selection_seconds", "slm.span.capture_seconds",
        "slm.span.merge_seconds", "slm.span.checkpoint_seconds",
        "slm.campaign.kernel_seconds", "slm.campaign.cpa_seconds",
        "slm.campaign.checkpoint_io_seconds",
        "slm.campaign.selection_seconds", "slm.campaign.traces_done",
        "slm.campaign.checkpoints_total"}) {
    EXPECT_EQ(want.count(n), 1u) << n;
  }
  EXPECT_EQ(common(sharded_ob), want);
  EXPECT_EQ(common(fabric_ob), want);

  const bool overlap = std::thread::hardware_concurrency() > 1;
  EXPECT_EQ(!names(serial_ob, "slm.pipeline.").empty(), overlap);
  EXPECT_EQ(!names(fabric_ob, "slm.pipeline.").empty(), overlap);
  EXPECT_TRUE(names(sharded_ob, "slm.pipeline.").empty());
}

}  // namespace
}  // namespace slm::core
