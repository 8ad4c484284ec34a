// Per-trace reference oracle for the capture engine (core/capture.hpp).
//
// Built only from public, per-call pieces — Xoshiro256::trace_stream,
// AesDatapathModel::encrypt_stateless, CycleResponseMatrix::voltages, the
// sensors' sample_* calls and CpaEngine::add_trace — this loop is the
// RNG contract v2 written out one trace and one draw at a time: no
// blocks, no batch kernels, no class-sum regrouping, no shards. Every
// engine path (serial, sharded, fabric, resumed; any block size, SIMD
// level or split) must reproduce it bit for bit.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "core/campaign.hpp"
#include "core/setup.hpp"
#include "defense/active_fence.hpp"
#include "pdn/cycle_response.hpp"
#include "sca/cpa.hpp"
#include "sca/model.hpp"

namespace slm::core::testing {

struct ReferenceRun {
  /// One engine per attacked key byte (1 for a byte campaign, 16 for the
  /// full key), at the final trace count.
  std::vector<sca::CpaEngine> engines;
  /// Per attacked byte: progress at every checkpoint of the schedule.
  std::vector<std::vector<sca::CpaProgressPoint>> progress;
};

/// Capture `cfg.traces` traces of `cfg` on a fresh platform, one trace at
/// a time. `bits` are the benign-HW bits of interest; `cfg.single_bit`
/// must be resolved (no kAutoBit). `key_bytes` lists the attacked bytes.
inline ReferenceRun reference_campaign(const CampaignConfig& cfg,
                                       const std::vector<std::size_t>& bits,
                                       const std::vector<std::size_t>& key_bytes) {
  AttackSetup setup(BenignCircuit::kAlu, Calibration::paper_defaults());
  const Calibration& cal = setup.calibration();
  const std::vector<double> times =
      CpaCampaign(setup, cfg).sample_times_ns();
  const std::size_t S = times.size();
  const double cyc = 1000.0 / cal.aes_clock_mhz;
  std::vector<double> starts;
  for (std::size_t c = 0; c < crypto::AesDatapathModel::kCycles; ++c) {
    starts.push_back(static_cast<double>(c) * cyc);
  }
  const pdn::CycleResponseMatrix response =
      pdn::CycleResponseMatrix::build(cal.pdn, times, starts, cyc);
  std::optional<defense::ActiveFence> fence;
  if (cfg.fence.random_current_a > 0.0 || cfg.fence.base_current_a > 0.0) {
    fence.emplace(cfg.fence);
  }
  const crypto::Block lrk = setup.victim().cipher().last_round_key();

  std::vector<sca::LastRoundBitModel> models;
  ReferenceRun out;
  for (std::size_t j : key_bytes) {
    models.emplace_back(j, cfg.target_bit);
    out.engines.emplace_back(256, S);
  }
  out.progress.resize(key_bytes.size());
  const std::vector<std::size_t> checkpoints =
      checkpoint_schedule(cfg.checkpoints, cfg.traces);

  crypto::AesDatapathModel::RegisterSnapshot regs{};
  std::vector<double> ic;
  std::vector<double> v;
  std::vector<double> y(S);
  std::vector<std::uint8_t> h;
  std::size_t next_cp = 0;
  for (std::uint64_t g = 0; g < cfg.traces; ++g) {
    Xoshiro256 rng =
        Xoshiro256::trace_stream(cfg.seed, kTraceDomainCapture, g);
    crypto::Block pt;
    for (auto& b : pt) b = static_cast<std::uint8_t>(rng.next());
    const auto enc = setup.victim().encrypt_stateless(pt, g, regs);

    ic.assign(enc.cycle_current.begin(), enc.cycle_current.end());
    if (fence) {
      Xoshiro256 frng = fence->trace_rng(g);
      for (double& i : ic) i += fence->cycle_current(frng);
    }
    for (double& i : ic) i *= setup.effective_coupling();
    response.voltages(ic, v);
    for (double& vs : v) {
      vs += FastNormal::instance()(rng, 0.0, cal.env_noise_v);
    }

    for (std::size_t s = 0; s < S; ++s) {
      switch (cfg.mode) {
        case SensorMode::kTdcFull:
          y[s] = static_cast<double>(setup.tdc().sample(v[s], rng));
          break;
        case SensorMode::kTdcSingleBit:
          y[s] = setup.tdc().sample_bit(cfg.single_bit, v[s], rng) ? 1.0
                                                                   : 0.0;
          break;
        case SensorMode::kBenignHw:
          y[s] = static_cast<double>(
              setup.sensor().sample_toggle_hw(bits, v[s], rng));
          break;
        case SensorMode::kBenignSingleBit:
          y[s] = setup.sensor().sample_toggle_bit(cfg.single_bit, v[s], rng)
                     ? 1.0
                     : 0.0;
          break;
        case SensorMode::kRoCounter:
          y[s] = static_cast<double>(setup.ro_sensor().sample(v[s], rng));
          break;
      }
    }

    for (std::size_t j = 0; j < models.size(); ++j) {
      models[j].hypotheses(enc.ciphertext, h);
      out.engines[j].add_trace(h, y);
    }
    while (next_cp < checkpoints.size() && checkpoints[next_cp] == g + 1) {
      for (std::size_t j = 0; j < models.size(); ++j) {
        out.progress[j].push_back(sca::snapshot_progress(
            out.engines[j], models[j].correct_guess(lrk)));
      }
      ++next_cp;
    }
  }
  return out;
}

}  // namespace slm::core::testing
