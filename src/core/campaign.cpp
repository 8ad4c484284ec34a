#include "core/campaign.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <string>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "core/capture.hpp"
#include "obs/observer.hpp"
#include "sca/fold_kernels.hpp"
#include "sca/selection.hpp"
#include "store/trace_store.hpp"

namespace slm::core {

const char* sensor_mode_name(SensorMode m) {
  switch (m) {
    case SensorMode::kTdcFull:
      return "tdc-full";
    case SensorMode::kTdcSingleBit:
      return "tdc-single-bit";
    case SensorMode::kBenignHw:
      return "benign-hw";
    case SensorMode::kBenignSingleBit:
      return "benign-single-bit";
    case SensorMode::kRoCounter:
      return "ro-counter";
  }
  return "?";
}

std::vector<std::size_t> default_checkpoints(std::size_t traces) {
  static constexpr std::size_t kSchedule[] = {
      100,    200,    500,    1000,   2000,   5000,   10000,
      20000,  50000,  75000,  100000, 150000, 200000, 250000,
      300000, 350000, 400000, 450000, 500000, 750000, 1000000};
  std::vector<std::size_t> out;
  for (std::size_t c : kSchedule) {
    if (c < traces) out.push_back(c);
  }
  out.push_back(traces);
  return out;
}

std::vector<std::size_t> checkpoint_schedule(
    const std::vector<std::size_t>& requested, std::size_t traces) {
  auto checkpoints =
      requested.empty() ? default_checkpoints(traces) : requested;
  std::sort(checkpoints.begin(), checkpoints.end());
  return checkpoints;
}

std::size_t resolve_block(std::size_t requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("SLM_BLOCK")) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return kDefaultBlockTraces;
}

bool resolve_simd(bool requested) {
  if (!requested) return false;
  // SLM_SIMD names a fold dispatch level now (sca/fold_kernels.hpp:
  // 0/scalar, sse2, avx2, unset = auto). The scalar level also forces
  // the scalar sensor kernels, preserving the historical SLM_SIMD=0
  // behavior; any vector level leaves the batch kernels on.
  return sca::active_dispatch() != sca::DispatchLevel::kScalar;
}

const char* rng_contract_name(RngContract c) {
  return c == RngContract::kV2 ? "v2" : "default";
}

RngContract resolve_contract(RngContract) {
  if (const char* env = std::getenv("SLM_RNG_CONTRACT")) {
    const std::string v(env);
    SLM_REQUIRE(v == "v2" || v == "2",
                "SLM_RNG_CONTRACT: v2 is the only RNG contract (got '" + v +
                    "'; v1 is retired)");
  }
  return RngContract::kV2;
}

CpaCampaign::CpaCampaign(AttackSetup& setup, const CampaignConfig& cfg)
    : setup_(setup), cfg_(cfg) {
  SLM_REQUIRE(cfg_.traces > 0, "CpaCampaign: zero traces");
  (void)resolve_contract(RngContract::kDefault);
  // Refuse up front any budget whose worst-case integer sums could
  // overflow the int64 fold accumulators.
  sca::require_fold_budget(cfg_.traces, "CpaCampaign");
  if (cfg_.fence.random_current_a > 0.0 || cfg_.fence.base_current_a > 0.0) {
    fence_.emplace(cfg_.fence);
  }
  SLM_REQUIRE(cfg_.window_start_ns < cfg_.window_end_ns,
              "CpaCampaign: bad sampling window");

  const Calibration& cal = setup_.calibration();

  // Sensor sampling instants: every second overclock cycle (150 MS/s).
  const double ts = cal.sensor_sample_period_ns();
  for (double t = 0.0; t <= cfg_.window_end_ns; t += ts) {
    if (t >= cfg_.window_start_ns) sample_times_.push_back(t);
  }
  SLM_REQUIRE(!sample_times_.empty(), "CpaCampaign: empty sampling window");

  // Victim activity cycles.
  const double cyc = 1000.0 / cal.aes_clock_mhz;
  std::vector<double> cycle_starts;
  cycle_starts.reserve(crypto::AesDatapathModel::kCycles);
  for (std::size_t c = 0; c < crypto::AesDatapathModel::kCycles; ++c) {
    cycle_starts.push_back(static_cast<double>(c) * cyc);
  }

  response_ = pdn::CycleResponseMatrix::build(cal.pdn, sample_times_,
                                              cycle_starts, cyc);
}

store::StoreIdentity CpaCampaign::store_identity(store::StoreKind kind,
                                                 std::size_t traces) const {
  store::StoreIdentity id;
  id.kind = static_cast<std::uint8_t>(kind);
  id.circuit = static_cast<std::uint8_t>(setup_.circuit_kind());
  id.mode = static_cast<std::uint8_t>(cfg_.mode);
  id.rng_contract = static_cast<std::uint8_t>(RngContract::kV2);
  id.seed = cfg_.seed;
  id.trace_count = traces;
  id.samples = sample_times_.size();
  id.target_key_byte = cfg_.target_key_byte;
  id.target_bit = cfg_.target_bit;

  // Everything else that shapes the captured readings or their labels:
  // sampling window, requested endpoint bit (pre-resolution, so capture
  // and replay hash the same value), selection knobs, fence config, and
  // the victim's key via its last round key.
  ByteWriter w;
  w.put_f64(cfg_.window_start_ns);
  w.put_f64(cfg_.window_end_ns);
  w.put_u64(static_cast<std::uint64_t>(cfg_.single_bit));
  w.put_u64(cfg_.selection_traces);
  w.put_f64(cfg_.selection_min_variance);
  w.put_u64(cfg_.selection_top_k);
  w.put_f64(cfg_.fence.base_current_a);
  w.put_f64(cfg_.fence.random_current_a);
  w.put_u64(cfg_.fence.seed);
  const crypto::Block lrk = setup_.victim().cipher().last_round_key();
  w.put_bytes(lrk.data(), lrk.size());
  id.config_hash = crc32(w.bytes().data(), w.size());
  return id;
}

void finalize_trace_store(store::TraceStoreWriter& writer,
                          obs::CampaignObserver* observer) {
  const double t0 = obs::monotonic_seconds();
  const auto stats = writer.finalize();
  const double seconds = obs::monotonic_seconds() - t0;
  log_info() << "store: wrote " << writer.path() << " (" << stats.traces
             << " traces, " << stats.chunks << " chunks, "
             << stats.bytes_written << " bytes)";
  if (observer != nullptr) {
    observer->metrics().add("slm.store.traces_written",
                            static_cast<double>(stats.traces));
    observer->metrics().add("slm.store.bytes_written",
                            static_cast<double>(stats.bytes_written));
    observer->metrics().observe("slm.store.write_seconds", seconds);
    observer->event("store_write",
                    obs::JsonWriter()
                        .field("path", writer.path())
                        .field("traces", static_cast<std::uint64_t>(stats.traces))
                        .field("bytes",
                               static_cast<std::uint64_t>(stats.bytes_written))
                        .field("seconds", seconds));
  }
}

void CpaCampaign::make_voltages(
    const crypto::AesDatapathModel::Encryption& enc, Xoshiro256& rng,
    std::vector<double>& v_out, Xoshiro256* fence_rng) const {
  const Calibration& cal = setup_.calibration();
  // Victim current as seen by the attacker region (coupling-attenuated).
  static thread_local std::vector<double> i_cycles;
  i_cycles.assign(enc.cycle_current.begin(), enc.cycle_current.end());
  if (fence_) {
    // The active fence sits in the victim region: its randomised draw
    // rides on the same coupling path and masks the victim's signal.
    if (fence_rng != nullptr) {
      for (double& i : i_cycles) i += fence_->cycle_current(*fence_rng);
    } else {
      for (double& i : i_cycles) i += fence_->next_cycle_current();
    }
  }
  const double coupling = setup_.effective_coupling();
  for (double& i : i_cycles) i *= coupling;

  response_.voltages(i_cycles, v_out);
  // One batched draw block; identical values and stream order to the
  // per-sample normal(rng, 0.0, sigma) calls (see FastNormal::fill).
  static thread_local std::vector<double> z;
  z.resize(v_out.size());
  FastNormal::instance().fill(rng, z.data(), z.size());
  for (std::size_t s = 0; s < v_out.size(); ++s) {
    v_out[s] += 0.0 + cal.env_noise_v * z[s];
  }
}

void CpaCampaign::read_sensor(const std::vector<double>& v,
                              const std::vector<std::size_t>& bits,
                              Xoshiro256& rng, std::vector<double>& y) const {
  y.resize(v.size());
  switch (cfg_.mode) {
    case SensorMode::kTdcFull:
      for (std::size_t s = 0; s < v.size(); ++s) {
        y[s] = static_cast<double>(setup_.tdc().sample(v[s], rng));
      }
      break;
    case SensorMode::kTdcSingleBit:
      for (std::size_t s = 0; s < v.size(); ++s) {
        y[s] =
            setup_.tdc().sample_bit(cfg_.single_bit, v[s], rng) ? 1.0 : 0.0;
      }
      break;
    case SensorMode::kBenignHw:
      for (std::size_t s = 0; s < v.size(); ++s) {
        y[s] = static_cast<double>(
            setup_.sensor().sample_toggle_hw(bits, v[s], rng));
      }
      break;
    case SensorMode::kBenignSingleBit:
      for (std::size_t s = 0; s < v.size(); ++s) {
        y[s] = setup_.sensor().sample_toggle_bit(cfg_.single_bit, v[s], rng)
                   ? 1.0
                   : 0.0;
      }
      break;
    case SensorMode::kRoCounter:
      for (std::size_t s = 0; s < v.size(); ++s) {
        y[s] = static_cast<double>(setup_.ro_sensor().sample(v[s], rng));
      }
      break;
  }
}

std::vector<std::size_t> CpaCampaign::resolve_sensor_bits() {
  std::vector<std::size_t> bits;
  if (cfg_.mode == SensorMode::kBenignHw) {
    bits = select_bits_of_interest();
    log_info() << "campaign: " << bits.size() << " bits of interest selected";
    SLM_REQUIRE(!bits.empty(),
                "CpaCampaign: no bits of interest — sensor not sensitive "
                "at this operating point");
  }
  if (cfg_.mode == SensorMode::kBenignSingleBit) {
    if (cfg_.single_bit == CampaignConfig::kAutoBit) {
      cfg_.single_bit = run_selection_pass().highest_variance_bit();
      log_info() << "campaign: auto-selected endpoint bit "
                 << cfg_.single_bit;
    }
    SLM_REQUIRE(cfg_.single_bit < setup_.sensor_bits(),
                "CpaCampaign: single_bit out of range");
  }
  if (cfg_.mode == SensorMode::kTdcSingleBit) {
    if (cfg_.single_bit == CampaignConfig::kAutoBit) {
      // The paper picks "the highest variant bit ... close to the idle
      // value". The highest-variance thermometer stage is the one whose
      // firing probability sits closest to 1/2 at the operating point,
      // so probe the stages around the mean depth directly (the floored
      // reading's mean alone is biased by half a stage).
      Xoshiro256 pre_rng(cfg_.seed ^ 0x7dc0u);
      std::vector<double> v;
      std::vector<double> voltages;
      OnlineMeanVar depth;
      for (std::size_t t = 0; t < 256; ++t) {
        crypto::Block pt;
        for (auto& b : pt) b = static_cast<std::uint8_t>(pre_rng.next());
        const auto enc = setup_.victim().encrypt(pt);
        make_voltages(enc, pre_rng, v);
        for (double vs : v) {
          voltages.push_back(vs);
          depth.add(static_cast<double>(setup_.tdc().sample(vs, pre_rng)));
        }
      }
      const std::size_t stages = setup_.calibration().tdc.stages;
      const auto centre = static_cast<std::size_t>(depth.mean());
      std::size_t best_stage = centre;
      double best_dist = 1.0;
      for (std::size_t cand = (centre > 3 ? centre - 3 : 0);
           cand <= centre + 3 && cand < stages; ++cand) {
        std::size_t ones = 0;
        for (double vs : voltages) {
          if (setup_.tdc().sample_bit(cand, vs, pre_rng)) ++ones;
        }
        const double p = static_cast<double>(ones) /
                         static_cast<double>(voltages.size());
        if (std::abs(p - 0.5) < best_dist) {
          best_dist = std::abs(p - 0.5);
          best_stage = cand;
        }
      }
      cfg_.single_bit = best_stage;
      log_info() << "campaign: auto-selected TDC stage " << cfg_.single_bit;
    }
    SLM_REQUIRE(cfg_.single_bit < setup_.calibration().tdc.stages,
                "CpaCampaign: TDC bit out of range");
  }
  return bits;
}

sca::WelchTTest CpaCampaign::run_tvla(std::size_t traces_per_population) {
  SLM_REQUIRE(traces_per_population >= 2, "run_tvla: too few traces");
  sca::require_fold_budget(2 * traces_per_population, "run_tvla");
  std::unique_ptr<store::TraceStoreWriter> store_writer;
  if (!cfg_.store_out.empty()) {
    store_writer = std::make_unique<store::TraceStoreWriter>(
        cfg_.store_out,
        store_identity(store::StoreKind::kTvla, 2 * traces_per_population));
  }
  const std::vector<std::size_t> bits = resolve_sensor_bits();
  if (store_writer) store_writer->set_resolved_single_bit(cfg_.single_bit);

  sca::WelchTTest ttest(sample_times_.size());
  Xoshiro256 rng(cfg_.seed ^ 0x77a1u);
  const crypto::Block fixed_pt =
      crypto::block_from_hex("da39a3ee5e6b4b0d3255bfef95601890");
  std::vector<double> v;
  std::vector<double> y;
  for (std::size_t t = 0; t < 2 * traces_per_population; ++t) {
    const bool fixed = (t % 2) == 0;
    crypto::Block pt = fixed_pt;
    if (!fixed) {
      for (auto& b : pt) b = static_cast<std::uint8_t>(rng.next());
    }
    const auto enc = setup_.victim().encrypt(pt);
    make_voltages(enc, rng, v);
    read_sensor(v, bits, rng, y);
    ttest.add(fixed, y);
    if (store_writer) {
      store_writer->record_meta(t, pt, enc.ciphertext);
      store_writer->record_readings(t, y.data());
    }
  }
  if (store_writer) finalize_trace_store(*store_writer, cfg_.observer);
  return ttest;
}

sca::BitSelector CpaCampaign::run_selection_pass() {
  Xoshiro256 rng(cfg_.seed ^ 0xb17561ec7u);
  sca::BitSelector selector(setup_.sensor_bits());
  std::vector<double> v;
  // Per-bit toggle counts over every sample (the same draws and toggle
  // decisions as per-sample sample_toggles + BitSelector::add).
  std::vector<std::size_t> ones(setup_.sensor_bits(), 0);
  std::size_t samples = 0;
  for (std::size_t t = 0; t < cfg_.selection_traces; ++t) {
    crypto::Block pt;
    for (auto& b : pt) b = static_cast<std::uint8_t>(rng.next());
    const auto enc = setup_.victim().encrypt(pt);
    make_voltages(enc, rng, v);
    setup_.sensor().toggle_accumulate_batch(v.data(), v.size(), rng,
                                            ones.data());
    samples += v.size();
  }
  selector.add_batch(ones, samples);
  return selector;
}

std::vector<std::size_t> CpaCampaign::select_bits_of_interest() {
  const auto selector = run_selection_pass();
  auto bits = selector.bits_of_interest(cfg_.selection_min_variance);
  if (cfg_.selection_top_k > 0 && bits.size() > cfg_.selection_top_k) {
    std::sort(bits.begin(), bits.end(), [&](std::size_t a, std::size_t b) {
      return selector.stat(a).variance > selector.stat(b).variance;
    });
    bits.resize(cfg_.selection_top_k);
    std::sort(bits.begin(), bits.end());
  }
  return bits;
}

CampaignResult CpaCampaign::run() {
  return CampaignEngine::run_byte(*this, 1);
}

FullKeyRunResult CpaCampaign::run_fullkey(const FullKeyConfig& fk) {
  return CampaignEngine::run_fullkey(*this, fk, 1);
}

}  // namespace slm::core
