#include "core/campaign.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>

#include "common/error.hpp"
#include "core/parallel.hpp"

namespace slm::core {
namespace {

CampaignConfig small_cfg(SensorMode mode, std::size_t traces) {
  CampaignConfig cfg;
  cfg.mode = mode;
  cfg.traces = traces;
  cfg.selection_traces = 400;
  return cfg;
}

TEST(Campaign, SampleTimesOnSensorGridInsideWindow) {
  AttackSetup setup(BenignCircuit::kAlu, Calibration::paper_defaults());
  CampaignConfig cfg = small_cfg(SensorMode::kTdcFull, 10);
  cfg.window_start_ns = 400.0;
  cfg.window_end_ns = 460.0;
  CpaCampaign campaign(setup, cfg);
  const auto& times = campaign.sample_times_ns();
  ASSERT_FALSE(times.empty());
  const double ts = setup.calibration().sensor_sample_period_ns();
  for (double t : times) {
    EXPECT_GE(t, 400.0);
    EXPECT_LE(t, 460.0);
    // Each instant sits on the 150 MS/s grid.
    const double k = t / ts;
    EXPECT_NEAR(k, std::round(k), 1e-9);
  }
}

TEST(Campaign, CorrectGuessIsTrueRoundKeyByte) {
  AttackSetup setup(BenignCircuit::kAlu, Calibration::paper_defaults());
  CampaignConfig cfg = small_cfg(SensorMode::kTdcFull, 100);
  cfg.target_key_byte = 3;
  CpaCampaign campaign(setup, cfg);
  const auto result = campaign.run();
  EXPECT_EQ(result.correct_guess,
            setup.victim().cipher().last_round_key()[3]);
}

TEST(Campaign, ProgressCheckpointsRespectSchedule) {
  AttackSetup setup(BenignCircuit::kAlu, Calibration::paper_defaults());
  CampaignConfig cfg = small_cfg(SensorMode::kTdcFull, 1000);
  cfg.checkpoints = {100, 500, 1000};
  CpaCampaign campaign(setup, cfg);
  const auto result = campaign.run();
  ASSERT_EQ(result.progress.size(), 3u);
  EXPECT_EQ(result.progress[0].traces, 100u);
  EXPECT_EQ(result.progress[2].traces, 1000u);
  EXPECT_EQ(result.traces_run, 1000u);
  EXPECT_EQ(result.final_max_abs_corr.size(), 256u);
}

TEST(Campaign, TdcRecoversKeyQuickly) {
  AttackSetup setup(BenignCircuit::kAlu, Calibration::paper_defaults());
  CpaCampaign campaign(setup, small_cfg(SensorMode::kTdcFull, 4000));
  const auto result = campaign.run();
  EXPECT_TRUE(result.key_recovered);
  ASSERT_TRUE(result.mtd.disclosed());
  EXPECT_LE(*result.mtd.traces, 4000u);
}

TEST(Campaign, DeterministicPerSeed) {
  const auto cal = Calibration::paper_defaults();
  auto run_once = [&] {
    AttackSetup setup(BenignCircuit::kAlu, cal);
    CpaCampaign campaign(setup, small_cfg(SensorMode::kTdcFull, 500));
    return campaign.run();
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.final_max_abs_corr, b.final_max_abs_corr);
}

TEST(Campaign, SeedChangesTraces) {
  const auto cal = Calibration::paper_defaults();
  AttackSetup setup(BenignCircuit::kAlu, cal);
  auto cfg = small_cfg(SensorMode::kTdcFull, 500);
  CpaCampaign a(setup, cfg);
  const auto ra = a.run();
  cfg.seed ^= 1;
  CpaCampaign b(setup, cfg);
  const auto rb = b.run();
  EXPECT_NE(ra.final_max_abs_corr, rb.final_max_abs_corr);
}

TEST(Campaign, BitsOfInterestSelectedForHwMode) {
  AttackSetup setup(BenignCircuit::kAlu, Calibration::paper_defaults());
  CampaignConfig cfg = small_cfg(SensorMode::kBenignHw, 200);
  cfg.selection_traces = 600;
  cfg.selection_min_variance = 0.05;
  CpaCampaign campaign(setup, cfg);
  const auto result = campaign.run();
  EXPECT_FALSE(result.bits_of_interest.empty());
  EXPECT_LT(result.bits_of_interest.size(), setup.sensor_bits());
}

TEST(Campaign, TopKSelectionCaps) {
  AttackSetup setup(BenignCircuit::kAlu, Calibration::paper_defaults());
  CampaignConfig cfg = small_cfg(SensorMode::kBenignHw, 100);
  cfg.selection_min_variance = 0.01;
  cfg.selection_top_k = 3;
  CpaCampaign campaign(setup, cfg);
  const auto bits = campaign.select_bits_of_interest();
  EXPECT_EQ(bits.size(), 3u);
  EXPECT_TRUE(std::is_sorted(bits.begin(), bits.end()));
}

TEST(Campaign, AutoBitResolvesToSensitiveEndpoint) {
  AttackSetup setup(BenignCircuit::kAlu, Calibration::paper_defaults());
  CampaignConfig cfg = small_cfg(SensorMode::kBenignSingleBit, 100);
  cfg.single_bit = CampaignConfig::kAutoBit;
  cfg.selection_traces = 600;
  CpaCampaign campaign(setup, cfg);
  (void)campaign.run();
  EXPECT_LT(campaign.resolved_single_bit(), setup.sensor_bits());
}

// The trace-block size only tiles the capture loop — every block size
// (including ones that straddle checkpoints and leave ragged tails) and
// the forced-scalar kernel must reproduce the block=1 per-trace results
// bit for bit, in both the blockable benign-HW mode and the TDC mode
// whose reads stay per-trace inside the block loop.
TEST(Campaign, BlockSizeInvariant) {
  const auto cal = Calibration::paper_defaults();
  for (const SensorMode mode :
       {SensorMode::kBenignHw, SensorMode::kTdcFull}) {
    auto run_once = [&](std::size_t block, bool simd) {
      AttackSetup setup(BenignCircuit::kAlu, cal);
      CampaignConfig cfg = small_cfg(mode, 700);
      cfg.checkpoints = {100, 500, 700};  // 64 and 48 straddle both
      cfg.block = block;
      cfg.simd = simd;
      CpaCampaign campaign(setup, cfg);
      return campaign.run();
    };
    const auto ref = run_once(1, true);
    for (const std::size_t block : {5u, 48u, 64u, 1024u}) {
      for (const bool simd : {true, false}) {
        const auto r = run_once(block, simd);
        EXPECT_EQ(r.block_size, block);
        ASSERT_EQ(r.traces_run, ref.traces_run);
        EXPECT_EQ(r.recovered_guess, ref.recovered_guess);
        ASSERT_EQ(r.final_max_abs_corr, ref.final_max_abs_corr)
            << sensor_mode_name(mode) << " block " << block << " simd "
            << simd;
        ASSERT_EQ(r.progress.size(), ref.progress.size());
        for (std::size_t i = 0; i < r.progress.size(); ++i) {
          EXPECT_EQ(r.progress[i].traces, ref.progress[i].traces);
          EXPECT_EQ(r.progress[i].correct_corr,
                    ref.progress[i].correct_corr);
          EXPECT_EQ(r.progress[i].best_wrong_corr,
                    ref.progress[i].best_wrong_corr);
        }
      }
    }
  }
}

// The v2 determinism contract: the seed alone pins the campaign.
// Results must be bit-identical across ANY thread count, block size,
// and SIMD level — the one engine runs them all (the per-trace oracle in
// reference_campaign_test.cpp pins the values themselves).
TEST(Campaign, ThreadAndBlockInvariant) {
  const auto cal = Calibration::paper_defaults();
  auto run_once = [&](SensorMode mode, unsigned threads, std::size_t block,
                      bool simd, bool fence = false) {
    AttackSetup setup(BenignCircuit::kAlu, cal);
    CampaignConfig cfg = small_cfg(mode, 700);
    cfg.checkpoints = {100, 500, 700};
    cfg.block = block;
    cfg.simd = simd;
    if (fence) cfg.fence.random_current_a = 0.02;
    ParallelCampaign campaign(setup, cfg, threads);
    return campaign.run();
  };
  auto expect_same = [](const CampaignResult& r, const CampaignResult& ref,
                        const std::string& what) {
    ASSERT_EQ(r.traces_run, ref.traces_run) << what;
    EXPECT_EQ(r.recovered_guess, ref.recovered_guess) << what;
    ASSERT_EQ(r.final_max_abs_corr, ref.final_max_abs_corr) << what;
    ASSERT_EQ(r.progress.size(), ref.progress.size()) << what;
    for (std::size_t i = 0; i < r.progress.size(); ++i) {
      EXPECT_EQ(r.progress[i].traces, ref.progress[i].traces) << what;
      EXPECT_EQ(r.progress[i].max_abs_corr, ref.progress[i].max_abs_corr)
          << what;
    }
  };
  {
    const auto ref = run_once(SensorMode::kBenignHw, 1, 1, true);
    for (const unsigned threads : {1u, 2u, 4u}) {
      for (const std::size_t block : {1u, 48u, 64u}) {
        const auto r = run_once(SensorMode::kBenignHw, threads, block, true);
        expect_same(r, ref,
                    "hw threads " + std::to_string(threads) + " block " +
                        std::to_string(block));
      }
    }
    // The SIMD level is also inside the contract.
    expect_same(run_once(SensorMode::kBenignHw, 3, 64, false), ref,
                "hw scalar");
  }
  {
    // With the active fence on, the fence's per-trace streams are part
    // of the contract too.
    const auto ref = run_once(SensorMode::kBenignHw, 1, 1, true, true);
    expect_same(run_once(SensorMode::kBenignHw, 1, 64, true, true), ref,
                "fenced hw block 64");
    expect_same(run_once(SensorMode::kBenignHw, 3, 48, true, true), ref,
                "fenced hw threads 3 block 48");
  }
  {
    const auto ref = run_once(SensorMode::kTdcFull, 1, 1, true);
    for (const unsigned threads : {2u, 4u}) {
      expect_same(run_once(SensorMode::kTdcFull, threads, 64, true), ref,
                  "tdc threads " + std::to_string(threads));
    }
  }
}

TEST(Campaign, ContractResolution) {
  EXPECT_EQ(resolve_contract(RngContract::kV2), RngContract::kV2);
  // SLM_RNG_CONTRACT may only name v2; the retired v1 is a loud error.
  const char* saved = std::getenv("SLM_RNG_CONTRACT");
  const std::string saved_s = saved != nullptr ? saved : "";
  ::setenv("SLM_RNG_CONTRACT", "2", 1);
  EXPECT_EQ(resolve_contract(RngContract::kDefault), RngContract::kV2);
  ::setenv("SLM_RNG_CONTRACT", "v1", 1);
  EXPECT_THROW((void)resolve_contract(RngContract::kDefault), slm::Error);
  ::setenv("SLM_RNG_CONTRACT", "bogus", 1);
  EXPECT_THROW((void)resolve_contract(RngContract::kDefault), slm::Error);
  ::unsetenv("SLM_RNG_CONTRACT");
  EXPECT_EQ(resolve_contract(RngContract::kDefault), RngContract::kV2);
  if (saved != nullptr) ::setenv("SLM_RNG_CONTRACT", saved_s.c_str(), 1);
  EXPECT_STREQ(rng_contract_name(RngContract::kV2), "v2");
}

TEST(Campaign, BlockResolutionPrecedence) {
  // Explicit request wins; 0 falls back to the default (the SLM_BLOCK
  // env override is exercised by the CLI smoke, not here, to keep the
  // test environment-independent).
  EXPECT_EQ(resolve_block(7), 7u);
  if (std::getenv("SLM_BLOCK") == nullptr) {
    EXPECT_EQ(resolve_block(0), kDefaultBlockTraces);
  }
  EXPECT_FALSE(resolve_simd(false));
}

TEST(Campaign, ResultReportsEffectiveBlock) {
  AttackSetup setup(BenignCircuit::kAlu, Calibration::paper_defaults());
  CampaignConfig cfg = small_cfg(SensorMode::kTdcFull, 50);
  cfg.block = 5;
  CpaCampaign campaign(setup, cfg);
  EXPECT_EQ(campaign.run().block_size, 5u);
}

TEST(Campaign, Validation) {
  AttackSetup setup(BenignCircuit::kAlu, Calibration::paper_defaults());
  CampaignConfig cfg = small_cfg(SensorMode::kTdcFull, 0);
  EXPECT_THROW(CpaCampaign campaign(setup, cfg), slm::Error);
  cfg = small_cfg(SensorMode::kTdcFull, 10);
  cfg.window_start_ns = 100.0;
  cfg.window_end_ns = 50.0;
  EXPECT_THROW(CpaCampaign campaign(setup, cfg), slm::Error);
  cfg = small_cfg(SensorMode::kBenignSingleBit, 10);
  cfg.single_bit = 9999;
  CpaCampaign campaign(setup, cfg);
  EXPECT_THROW((void)campaign.run(), slm::Error);
}

TEST(DefaultCheckpoints, CoverAndTerminate) {
  const auto cps = default_checkpoints(500000);
  ASSERT_FALSE(cps.empty());
  EXPECT_EQ(cps.back(), 500000u);
  EXPECT_TRUE(std::is_sorted(cps.begin(), cps.end()));
  const auto small = default_checkpoints(50);
  ASSERT_EQ(small.back(), 50u);
}

TEST(SensorModeNames, AllDistinct) {
  EXPECT_STREQ(sensor_mode_name(SensorMode::kTdcFull), "tdc-full");
  EXPECT_STREQ(sensor_mode_name(SensorMode::kBenignHw), "benign-hw");
  EXPECT_STREQ(sensor_mode_name(SensorMode::kBenignSingleBit),
               "benign-single-bit");
}

}  // namespace
}  // namespace slm::core
