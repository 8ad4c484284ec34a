// Crash-safe checkpoint/resume: kill a campaign at a checkpoint, resume
// it, and require results bit-identical to the uninterrupted run — the
// acceptance criterion of the checkpointing subsystem, for both the
// serial and the sharded campaign, across thread counts.
#include "core/snapshot.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/binio.hpp"
#include "common/error.hpp"
#include "core/campaign.hpp"
#include "core/parallel.hpp"
#include "core/setup.hpp"

namespace slm::core {
namespace {

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  return dir;
}

CampaignConfig small_cfg(SensorMode mode, std::size_t traces) {
  CampaignConfig cfg;
  cfg.mode = mode;
  cfg.traces = traces;
  cfg.checkpoints = {100, 200, 350, traces};
  cfg.selection_traces = 300;
  return cfg;
}

CampaignResult run_serial(const CampaignConfig& cfg,
                          BenignCircuit circuit = BenignCircuit::kAlu) {
  AttackSetup setup(circuit, Calibration::paper_defaults());
  CpaCampaign campaign(setup, cfg);
  return campaign.run();
}

CampaignResult run_parallel(const CampaignConfig& cfg, unsigned threads) {
  AttackSetup setup(BenignCircuit::kAlu, Calibration::paper_defaults());
  ParallelCampaign campaign(setup, cfg, threads);
  return campaign.run();
}

void expect_bit_identical(const CampaignResult& a, const CampaignResult& b) {
  EXPECT_EQ(a.traces_run, b.traces_run);
  EXPECT_EQ(a.recovered_guess, b.recovered_guess);
  EXPECT_EQ(a.correct_guess, b.correct_guess);
  // The acceptance bar: identical key byte AND identical final
  // correlation vector, bit for bit.
  EXPECT_EQ(a.final_max_abs_corr, b.final_max_abs_corr);
  ASSERT_EQ(a.progress.size(), b.progress.size());
  for (std::size_t i = 0; i < a.progress.size(); ++i) {
    EXPECT_EQ(a.progress[i].traces, b.progress[i].traces);
    EXPECT_EQ(a.progress[i].max_abs_corr, b.progress[i].max_abs_corr);
    EXPECT_EQ(a.progress[i].correct_rank, b.progress[i].correct_rank);
  }
}

TEST(BinIoTest, RoundTripAndTruncation) {
  ByteWriter w;
  w.put_u8(0xab);
  w.put_u32(0xdeadbeef);
  w.put_u64(0x0123456789abcdefull);
  w.put_f64(-0.1);
  w.put_f64_vector({1.5, -2.5, 1e-300});
  w.put_u64_array<4>({1, 2, 3, 4});

  ByteReader r(w.bytes().data(), w.size());
  EXPECT_EQ(r.get_u8(), 0xab);
  EXPECT_EQ(r.get_u32(), 0xdeadbeefu);
  EXPECT_EQ(r.get_u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.get_f64(), -0.1);  // bit-exact round trip
  EXPECT_EQ(r.get_f64_vector(), (std::vector<double>{1.5, -2.5, 1e-300}));
  EXPECT_EQ((r.get_u64_array<4>()),
            (std::array<std::uint64_t, 4>{1, 2, 3, 4}));
  EXPECT_TRUE(r.done());

  ByteReader truncated(w.bytes().data(), 3);
  EXPECT_THROW((void)truncated.get_u32(), slm::Error);
}

TEST(BinIoTest, Crc32KnownVector) {
  // CRC-32 of "123456789" is the classic check value 0xcbf43926.
  const char* s = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t*>(s), 9), 0xcbf43926u);
}

TEST(ResumeTest, SerialKillAtCheckpointResumesBitExact) {
  const std::string dir = fresh_dir("ckpt_serial");
  auto cfg = small_cfg(SensorMode::kTdcFull, 500);

  const auto uninterrupted = run_serial(cfg);

  cfg.checkpoint_dir = dir;
  cfg.halt_after_traces = 200;  // dies at the 200-trace checkpoint
  try {
    (void)run_serial(cfg);
    FAIL() << "expected CampaignHalted";
  } catch (const CampaignHalted& halted) {
    EXPECT_EQ(halted.traces(), 200u);
    EXPECT_EQ(halted.snapshot_path(), checkpoint_file(dir));
  }
  ASSERT_TRUE(std::filesystem::exists(checkpoint_file(dir)));

  cfg.halt_after_traces = 0;
  cfg.resume = true;
  const auto resumed = run_serial(cfg);
  EXPECT_EQ(resumed.resumed_from, 200u);
  EXPECT_EQ(resumed.snapshot_path, checkpoint_file(dir));
  expect_bit_identical(uninterrupted, resumed);
  std::filesystem::remove_all(dir);
}

// The benign-HW mode exercises the selection pre-pass before capture and
// (by default config) the active fence stream; both must survive the
// kill/resume cycle.
TEST(ResumeTest, SerialBenignHwWithFenceResumesBitExact) {
  const std::string dir = fresh_dir("ckpt_serial_hw");
  auto cfg = small_cfg(SensorMode::kBenignHw, 350);
  cfg.fence.random_current_a = 0.02;  // randomised fence component on

  const auto uninterrupted = run_serial(cfg);

  cfg.checkpoint_dir = dir;
  cfg.halt_after_traces = 200;
  EXPECT_THROW((void)run_serial(cfg), CampaignHalted);

  cfg.halt_after_traces = 0;
  cfg.resume = true;
  const auto resumed = run_serial(cfg);
  EXPECT_EQ(resumed.resumed_from, 200u);
  expect_bit_identical(uninterrupted, resumed);
  std::filesystem::remove_all(dir);
}

// The trace-block size tiles the capture loop but never shifts a
// checkpoint: a run killed and resumed under block 7 (which divides
// neither the 200-trace halt nor the trace budget) must match an
// uninterrupted block-64 run bit for bit — the block is not part of the
// campaign identity.
TEST(ResumeTest, BlockSizeSurvivesKillResumeBitExact) {
  const std::string dir = fresh_dir("ckpt_block");
  auto cfg = small_cfg(SensorMode::kBenignHw, 500);

  cfg.block = 64;
  const auto uninterrupted = run_serial(cfg);

  cfg.block = 7;
  cfg.checkpoint_dir = dir;
  cfg.halt_after_traces = 200;
  EXPECT_THROW((void)run_serial(cfg), CampaignHalted);
  EXPECT_EQ(load_snapshot(checkpoint_file(dir)).ranges,
            (std::vector<TraceRange>{{0, 200}}));

  cfg.halt_after_traces = 0;
  cfg.resume = true;
  cfg.block = 48;  // yet another tiling for the remainder
  const auto resumed = run_serial(cfg);
  EXPECT_EQ(resumed.resumed_from, 200u);
  EXPECT_EQ(resumed.block_size, 48u);
  expect_bit_identical(uninterrupted, resumed);
  std::filesystem::remove_all(dir);
}

TEST(ResumeTest, ShardedKillAtCheckpointResumesBitExact) {
  const std::string dir = fresh_dir("ckpt_sharded");
  auto cfg = small_cfg(SensorMode::kTdcFull, 500);

  const auto uninterrupted = run_parallel(cfg, 3);

  cfg.checkpoint_dir = dir;
  cfg.halt_after_traces = 350;
  try {
    (void)run_parallel(cfg, 3);
    FAIL() << "expected CampaignHalted";
  } catch (const CampaignHalted& halted) {
    EXPECT_EQ(halted.traces(), 350u);
  }

  cfg.halt_after_traces = 0;
  cfg.resume = true;
  const auto resumed = run_parallel(cfg, 3);
  EXPECT_EQ(resumed.resumed_from, 350u);
  EXPECT_EQ(resumed.threads_used, 3u);
  expect_bit_identical(uninterrupted, resumed);
  std::filesystem::remove_all(dir);
}

TEST(ResumeTest, ResumingTwiceAfterTwoKillsStillBitExact) {
  const std::string dir = fresh_dir("ckpt_twice");
  auto cfg = small_cfg(SensorMode::kTdcFull, 500);
  const auto uninterrupted = run_serial(cfg);

  cfg.checkpoint_dir = dir;
  cfg.halt_after_traces = 100;
  EXPECT_THROW((void)run_serial(cfg), CampaignHalted);
  cfg.resume = true;
  cfg.halt_after_traces = 350;
  EXPECT_THROW((void)run_serial(cfg), CampaignHalted);
  cfg.halt_after_traces = 0;
  const auto resumed = run_serial(cfg);
  EXPECT_EQ(resumed.resumed_from, 350u);
  expect_bit_identical(uninterrupted, resumed);
  std::filesystem::remove_all(dir);
}

TEST(ResumeTest, MismatchedConfigurationRefusesToResume) {
  const std::string dir = fresh_dir("ckpt_mismatch");
  auto cfg = small_cfg(SensorMode::kTdcFull, 500);
  const auto uninterrupted = run_serial(cfg);
  cfg.checkpoint_dir = dir;
  cfg.halt_after_traces = 200;
  EXPECT_THROW((void)run_serial(cfg), CampaignHalted);

  cfg.halt_after_traces = 0;
  cfg.resume = true;

  const auto refused = [&](const CampaignConfig& c, const char* field,
                           BenignCircuit circuit = BenignCircuit::kAlu) {
    try {
      (void)run_serial(c, circuit);
      ADD_FAILURE() << "resume accepted a checkpoint of another campaign ("
                    << field << ")";
    } catch (const CampaignHalted&) {
      ADD_FAILURE() << "halted instead of refusing (" << field << ")";
    } catch (const slm::Error& e) {
      // The one identity check names the field and the file.
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find(checkpoint_file(dir)),
                std::string::npos)
          << e.what();
    }
  };

  auto wrong_seed = cfg;
  wrong_seed.seed ^= 1;
  refused(wrong_seed, "seed");

  auto wrong_budget = cfg;
  wrong_budget.traces = 600;
  wrong_budget.checkpoints = {100, 200, 350, 600};
  refused(wrong_budget, "trace_count");

  refused(cfg, "circuit", BenignCircuit::kC6288x2);

  auto fenced = cfg;
  fenced.fence.random_current_a = 0.02;
  refused(fenced, "config_hash");

  auto top_k = cfg;
  top_k.selection_top_k = 8;
  refused(top_k, "config_hash");

  // The same sample count, shifted in time.
  auto shifted = cfg;
  const double ts = Calibration::paper_defaults().sensor_sample_period_ns();
  shifted.window_start_ns += ts;
  shifted.window_end_ns += ts;
  {
    AttackSetup setup(BenignCircuit::kAlu, Calibration::paper_defaults());
    ASSERT_EQ(CpaCampaign(setup, shifted).sample_times_ns().size(),
              CpaCampaign(setup, cfg).sample_times_ns().size());
  }
  refused(shifted, "config_hash");

  // Thread count is not part of the identity: the serial checkpoint
  // holds the merged sums, so three shards continue it bit-exactly.
  const auto resumed = run_parallel(cfg, 3);
  EXPECT_EQ(resumed.resumed_from, 200u);
  EXPECT_EQ(resumed.threads_used, 3u);
  expect_bit_identical(uninterrupted, resumed);
  std::filesystem::remove_all(dir);
}

// A checkpoint in the retired SLMCKPT1 format is refused, naming the
// file; nothing migrates it.
TEST(ResumeTest, RetiredCheckpointFormatRefusedByName) {
  const std::string dir = fresh_dir("ckpt_retired");
  std::filesystem::create_directories(dir);
  {
    std::ofstream os(checkpoint_file(dir), std::ios::binary);
    os << "SLMCKPT1" << std::string(64, '\x04');
  }
  auto cfg = small_cfg(SensorMode::kTdcFull, 500);
  cfg.checkpoint_dir = dir;
  cfg.resume = true;
  try {
    (void)run_serial(cfg);
    ADD_FAILURE() << "an SLMCKPT1 checkpoint was resumed";
  } catch (const slm::Error& e) {
    EXPECT_NE(std::string(e.what()).find(checkpoint_file(dir)),
              std::string::npos)
        << e.what();
  }
  std::filesystem::remove_all(dir);
}

// Under v2 the snapshot carries no stream state at all: a run killed
// under one block tiling and resumed under ANOTHER block still
// reproduces the uninterrupted run bit for bit.
TEST(ResumeTest, V2KillResumeAcrossBlockSizesBitExact) {
  const std::string dir = fresh_dir("ckpt_v2_block");
  auto cfg = small_cfg(SensorMode::kBenignHw, 500);

  cfg.block = 1;
  const auto uninterrupted = run_parallel(cfg, 2);

  cfg.block = 48;
  cfg.checkpoint_dir = dir;
  cfg.halt_after_traces = 200;
  EXPECT_THROW((void)run_parallel(cfg, 2), CampaignHalted);

  cfg.halt_after_traces = 0;
  cfg.resume = true;
  cfg.block = 64;
  const auto resumed = run_parallel(cfg, 2);
  EXPECT_EQ(resumed.resumed_from, 200u);
  expect_bit_identical(uninterrupted, resumed);
  std::filesystem::remove_all(dir);
}

TEST(ResumeTest, CompletedRunLeavesNoResumableWork) {
  const std::string dir = fresh_dir("ckpt_complete");
  auto cfg = small_cfg(SensorMode::kTdcFull, 400);
  cfg.checkpoint_dir = dir;
  const auto full = run_serial(cfg);
  EXPECT_EQ(full.traces_run, 400u);
  // The final snapshot says traces_done == total; resuming it is an
  // error (nothing left to do), not a silent re-run.
  cfg.resume = true;
  EXPECT_THROW((void)run_serial(cfg), slm::Error);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace slm::core
