#include "core/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <thread>

#include <string>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "core/checkpoint.hpp"
#include "core/parallel.hpp"
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

// Whether the serial engine's v2 generate/compute overlap should run.
// The producer thread only pays off when a second hardware thread can
// actually run it; on a single-core machine the two threads time-slice
// and the handoffs are pure overhead, so the default gates on
// hardware_concurrency. SLM_PIPELINE=0/1 forces it either way (the
// TSan drill forces it on; results are bit-identical regardless, only
// throughput moves — Campaign.ThreadAndBlockInvariant pins that).
bool resolve_pipeline() {
  if (const char* env = std::getenv("SLM_PIPELINE")) {
    return std::atoi(env) != 0;
  }
  return std::thread::hardware_concurrency() > 1;
}

const char* rng_contract_name(RngContract c) {
  switch (c) {
    case RngContract::kV1:
      return "v1";
    case RngContract::kV2:
      return "v2";
    case RngContract::kDefault:
      break;
  }
  return "default";
}

RngContract resolve_contract(RngContract requested) {
  if (requested != RngContract::kDefault) return requested;
  if (const char* env = std::getenv("SLM_RNG_CONTRACT")) {
    const std::string v(env);
    if (v == "v1" || v == "1") return RngContract::kV1;
    if (v == "v2" || v == "2") return RngContract::kV2;
    SLM_REQUIRE(false,
                "SLM_RNG_CONTRACT must be 'v1' or 'v2' (got '" + v + "')");
  }
  return RngContract::kV2;
}

CpaCampaign::CpaCampaign(AttackSetup& setup, const CampaignConfig& cfg)
    : setup_(setup), cfg_(cfg) {
  SLM_REQUIRE(cfg_.traces > 0, "CpaCampaign: zero traces");
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
  id.rng_contract =
      resolve_contract(cfg_.rng_contract) == RngContract::kV1 ? 1 : 2;
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
    std::vector<double>& v_out, defense::ActiveFence* fence,
    Xoshiro256* fence_rng) const {
  const Calibration& cal = setup_.calibration();
  // Victim current as seen by the attacker region (coupling-attenuated).
  static thread_local std::vector<double> i_cycles;
  i_cycles.assign(enc.cycle_current.begin(), enc.cycle_current.end());
  if (fence != nullptr) {
    // The active fence sits in the victim region: its randomised draw
    // rides on the same coupling path and masks the victim's signal.
    // Contract v2 passes the trace's counter-keyed fence stream; v1
    // callers draw from the fence's sequential stream.
    if (fence_rng != nullptr) {
      for (double& i : i_cycles) i += fence->cycle_current(*fence_rng);
    } else {
      for (double& i : i_cycles) i += fence->next_cycle_current();
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

CpaCampaign::SensorPlan CpaCampaign::make_sensor_plan(
    const std::vector<std::size_t>& bits) const {
  SensorPlan plan;
  if (cfg_.mode == SensorMode::kBenignHw) {
    plan.hw = setup_.sensor().compile_hw_plan(bits);
    plan.batched = true;
  } else if (cfg_.mode == SensorMode::kBenignSingleBit) {
    plan.bit = setup_.sensor().compile_bit_plan(cfg_.single_bit);
    plan.batched = true;
  }
  return plan;
}

void CpaCampaign::read_sensor_fast(const SensorPlan& plan,
                                   const std::vector<double>& v,
                                   const std::vector<std::size_t>& bits,
                                   Xoshiro256& rng,
                                   std::vector<double>& y) const {
  if (!plan.batched) {
    read_sensor(v, bits, rng, y);
    return;
  }
  y.resize(v.size());
  if (cfg_.mode == SensorMode::kBenignHw) {
    setup_.sensor().toggle_hw_batch(plan.hw, v.data(), v.size(), rng,
                                    y.data());
  } else {
    setup_.sensor().toggle_bit_batch(plan.bit, v.data(), v.size(), rng,
                                     y.data());
  }
}

void CpaCampaign::resolve_sensor_bits(CampaignResult* result) {
  if (cfg_.mode == SensorMode::kBenignHw) {
    auto bits = select_bits_of_interest();
    log_info() << "campaign: " << bits.size() << " bits of interest selected";
    SLM_REQUIRE(!bits.empty(),
                "CpaCampaign: no bits of interest — sensor not sensitive "
                "at this operating point");
    if (result != nullptr) result->bits_of_interest = std::move(bits);
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
  CampaignResult scratch;
  resolve_sensor_bits(&scratch);
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
    read_sensor(v, scratch.bits_of_interest, rng, y);
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
  if (cfg_.compiled_kernels) {
    // Same draws, same toggle decisions — only the bookkeeping is batched
    // (per-bit counts instead of per-sample BitVec words).
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
  for (std::size_t t = 0; t < cfg_.selection_traces; ++t) {
    crypto::Block pt;
    for (auto& b : pt) b = static_cast<std::uint8_t>(rng.next());
    const auto enc = setup_.victim().encrypt(pt);
    make_voltages(enc, rng, v);
    for (double vs : v) {
      selector.add(setup_.sensor().sample_toggles(vs, rng));
    }
  }
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
  const auto wall_start = std::chrono::steady_clock::now();
  obs::CampaignObserver* const ob = cfg_.observer;
  CampaignResult result;
  result.mode = cfg_.mode;
  result.sample_times_ns = sample_times_;

  sca::LastRoundBitModel model(cfg_.target_key_byte, cfg_.target_bit);
  result.correct_guess =
      model.correct_guess(setup_.victim().cipher().last_round_key());

  // The store fingerprint hashes the *requested* endpoint bit, so the
  // writer is created before bit resolution mutates cfg_.single_bit —
  // a replay-side CpaCampaign never resolves and must hash the same
  // value. Resume is refused: a resumed run does not regenerate the
  // traces already captured, so the store would be silently short.
  std::unique_ptr<store::TraceStoreWriter> store_writer;
  if (!cfg_.store_out.empty()) {
    SLM_REQUIRE(!cfg_.resume,
                "store_out: cannot combine with resume — traces captured "
                "before the snapshot would be missing from the store");
    store_writer = std::make_unique<store::TraceStoreWriter>(
        cfg_.store_out,
        store_identity(store::StoreKind::kByteCampaign, cfg_.traces));
  }

  {
    const auto sel_start = std::chrono::steady_clock::now();
    std::optional<obs::CampaignObserver::Span> span;
    if (ob != nullptr) span.emplace(ob->span("selection"));
    resolve_sensor_bits(&result);
    result.selection_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      sel_start)
            .count();
  }
  result.single_bit = cfg_.single_bit;
  if (store_writer) store_writer->set_resolved_single_bit(cfg_.single_bit);

  auto checkpoints = checkpoint_schedule(cfg_.checkpoints, cfg_.traces);
  std::size_t next_cp = 0;

  // RNG determinism contract (DESIGN.md §7/§12). v1: one sequential
  // stream, strict per-trace draw order. v2 (default): every trace's
  // draws derive statelessly from (seed, domain, trace index), so
  // generation order is free and results depend on the seed alone.
  const RngContract contract = resolve_contract(cfg_.rng_contract);
  const bool v2 = contract == RngContract::kV2;
  result.rng_contract = contract;

  // The fast path bins traces into (ciphertext-class, base-bit) cells and
  // folds them into full per-guess CPA sums only at checkpoints; readings
  // are integer-valued so the regrouped sums are bit-identical to the
  // reference engine's (see sca::XorClassCpa).
  const bool fast = cfg_.compiled_kernels;
  const SensorPlan plan =
      fast ? make_sensor_plan(result.bits_of_interest) : SensorPlan{};

  sca::CpaEngine engine(256, sample_times_.size());
  sca::XorClassCpa cls(sample_times_.size());
  Xoshiro256 rng(cfg_.seed);

  // Contract v2 victim register chain: starts zeroed at trace 0 and is
  // advanced by encrypt_stateless trace by trace. On resume it is
  // re-derived from the previous trace alone (registers_after), so v2
  // snapshots need no RNG/victim/fence state at all.
  crypto::AesDatapathModel::RegisterSnapshot v2_regs{};

  // Crash-safe resume: restore the exact capture state the snapshot
  // froze — accumulator sums and, under contract v1, the main RNG
  // position, victim register history, and fence stream — and skip the
  // checkpoints already recorded. The selection pre-pass above re-ran
  // from its own deterministic seed streams, so it needs no
  // snapshotting.
  std::size_t start_t = 1;
  const bool snapshotting = !cfg_.checkpoint_dir.empty();
  if (cfg_.resume && snapshotting) {
    if (auto ck = load_checkpoint(cfg_.checkpoint_dir)) {
      require_checkpoint_matches(*ck, cfg_, 1, sample_times_.size(),
                                 static_cast<std::uint32_t>(contract));
      const CheckpointShard& sh = ck->shard_state[0];
      SLM_REQUIRE(sh.has_fence == fence_.has_value(),
                  "resume: fence configuration differs from snapshot");
      if (!v2) {
        rng.set_state(sh.rng);
        setup_.victim().restore_registers(sh.victim);
        if (fence_) fence_->set_rng_state(sh.fence_rng);
      }
      ByteReader acc(sh.accumulator.data(), sh.accumulator.size());
      if (fast) {
        cls.load(acc);
      } else {
        engine.load(acc);
      }
      SLM_REQUIRE(acc.done(), "resume: trailing accumulator bytes");
      result.progress = ck->progress;
      result.resumed_from = static_cast<std::size_t>(ck->traces_done);
      start_t = result.resumed_from + 1;
      if (v2 && result.resumed_from > 0) {
        // Re-derive the register state left behind by the last completed
        // trace: its plaintext comes from its own counter-keyed stream,
        // and registers_after needs no earlier history (the register is
        // fully overwritten every encryption).
        const std::size_t g = result.resumed_from - 1;
        Xoshiro256 prev =
            Xoshiro256::trace_stream(cfg_.seed, kTraceDomainCapture, g);
        crypto::Block prev_pt;
        for (auto& b : prev_pt) b = static_cast<std::uint8_t>(prev.next());
        v2_regs = setup_.victim().registers_after(prev_pt, g);
      }
      while (next_cp < checkpoints.size() &&
             checkpoints[next_cp] <= result.resumed_from) {
        ++next_cp;
      }
      log_info() << "campaign: resumed from "
                 << checkpoint_file(cfg_.checkpoint_dir) << " at trace "
                 << result.resumed_from << "/" << cfg_.traces;
      if (ob != nullptr) {
        ob->metrics().add("slm.checkpoint.resumes_total");
        ob->event("resume",
                  obs::JsonWriter()
                      .field("traces_done",
                             static_cast<std::uint64_t>(result.resumed_from))
                      .field("path", checkpoint_file(cfg_.checkpoint_dir)));
      }
    }
  }

  // Block-batched pipeline (DESIGN.md §11): the per-trace RNG-ordered
  // generation (plaintext draws, victim encrypt, PDN voltages, noise and
  // jitter fills) stays sequential, and only the RNG-free compute — the
  // packed sensor kernel and the accumulator update — is deferred to
  // lane-parallel block kernels. Blocks clamp at checkpoint edges, so
  // progress points, snapshots, and results are bit-identical for every
  // block size (block = 1 runs the exact per-trace loop).
  const std::size_t block = resolve_block(cfg_.block);
  const bool simd = resolve_simd(cfg_.simd);
  result.block_size = block;
  const bool blocked = block > 1;
  // Only the benign-HW batch plan separates its draws from the compute;
  // every other sensor consumes RNG inside the read, so those modes
  // block just the accumulator update.
  const bool defer_hw = blocked && fast && plan.batched &&
                        cfg_.mode == SensorMode::kBenignHw;
  const std::size_t samples = sample_times_.size();
  const std::size_t dps = plan.hw.draws_per_sample;

  if (ob != nullptr) {
    ob->metrics().set("slm.campaign.traces_target",
                      static_cast<double>(cfg_.traces));
    ob->metrics().set("slm.kernel.block_size", static_cast<double>(block));
    ob->event("run_start",
              obs::JsonWriter()
                  .field("mode", sensor_mode_name(cfg_.mode))
                  .field("traces", static_cast<std::uint64_t>(cfg_.traces))
                  .field("seed", static_cast<std::uint64_t>(cfg_.seed))
                  .field("threads", static_cast<std::uint64_t>(1))
                  .field("compiled", fast)
                  .field("block", static_cast<std::uint64_t>(block))
                  .field("rng_contract", rng_contract_name(contract))
                  .field("resumed_from",
                         static_cast<std::uint64_t>(result.resumed_from)));
  }

  // Per-trace phase timers only exist when an observer is attached; the
  // disabled path performs no clock reads inside the loop.
  const bool timed = ob != nullptr;
  double kernel_s = 0.0;
  double cpa_s = 0.0;
  double ckpt_io_s = 0.0;
  std::size_t seg_traces = start_t - 1;
  double seg_time = timed ? obs::monotonic_seconds() : 0.0;

  // The deferred-HW path also defers the PDN voltage matvec: the
  // generation pass stages each trace's coupling-scaled per-cycle
  // currents (cycle-major, so the lane-inner kernel is unit-stride) plus
  // its env-noise draws, and the compute pass evaluates the whole block
  // through CycleResponseMatrix::voltages_block. The scalar matvec is a
  // latency-bound FP-add chain, so this is where blocking pays most.
  const std::size_t ncyc = response_.cycle_count();
  const double coupling = setup_.effective_coupling();
  const double env_noise_v = setup_.calibration().env_noise_v;
  std::vector<double> v;
  std::vector<double> y(samples);
  std::vector<std::uint8_t> h;
  std::vector<double> vblk;
  std::vector<double> zblk;
  std::vector<double> icblk;
  std::vector<double> zvblk;
  std::vector<double> yblk;
  std::vector<std::uint8_t> clsv;
  std::vector<std::uint8_t> clsb;
  std::vector<std::uint8_t> hblk;
  if (blocked) {
    yblk.resize(block * samples);
    clsv.resize(block);
    clsb.resize(block);
    if (defer_hw) {
      vblk.resize(block * samples);
      zblk.resize(block * samples * dps);
      icblk.resize(ncyc * block);
      zvblk.resize(block * samples);
    }
    if (!fast) hblk.resize(block * 256);
  }

  // Double-buffered generate/compute pipeline (contract v2, deferred-HW
  // path only): a one-worker producer generates block k+1's slab —
  // plaintexts, victim currents, fence draws, noise/jitter draws, all
  // from counter-keyed per-trace streams — while the main thread runs
  // block k's RNG-free compute pass. Contract v1 cannot do this: its
  // generation is a serial RNG chain (the ~0.8 µs/trace floor DESIGN.md
  // §11 documents).
  struct GenSlab {
    std::vector<double> icblk;
    std::vector<double> zvblk;
    std::vector<double> zblk;
    std::vector<std::uint8_t> clsv;
    std::vector<std::uint8_t> clsb;
  };
  const bool pipelined = v2 && defer_hw && resolve_pipeline();
  GenSlab slabs[2];
  if (pipelined) {
    for (GenSlab& s : slabs) {
      s.icblk.resize(ncyc * block);
      s.zvblk.resize(block * samples);
      s.zblk.resize(block * samples * dps);
      s.clsv.resize(block);
      s.clsb.resize(block);
    }
  }
  // Block span starting at 1-based trace t0: clamp at the next
  // checkpoint, exactly as the main loop does, so the producer and the
  // consumer tile the trace sequence identically.
  const auto span_bn = [&](std::size_t t0) {
    std::size_t limit = cfg_.traces;
    const auto it =
        std::lower_bound(checkpoints.begin(), checkpoints.end(), t0);
    if (it != checkpoints.end() && *it < limit) limit = *it;
    return std::min(block, limit - t0 + 1);
  };
  // Generate one slab: per-trace counter-keyed streams, same expression
  // order as make_voltages/the v1 staging pass, victim registers carried
  // sequentially by the (single) producer.
  const auto gen_slab = [&](GenSlab& slab, std::size_t t0, std::size_t bn) {
    for (std::size_t b = 0; b < bn; ++b) {
      const std::size_t g = t0 - 1 + b;
      Xoshiro256 rng_t =
          Xoshiro256::trace_stream(cfg_.seed, kTraceDomainCapture, g);
      crypto::Block pt;
      for (auto& pb : pt) pb = static_cast<std::uint8_t>(rng_t.next());
      const auto enc = setup_.victim().encrypt_stateless(pt, g, v2_regs);
      if (fence_) {
        Xoshiro256 frng = fence_->trace_rng(g);
        for (std::size_t c = 0; c < ncyc; ++c) {
          double i = enc.cycle_current[c];
          i += fence_->cycle_current(frng);
          i *= coupling;
          slab.icblk[c * block + b] = i;
        }
      } else {
        for (std::size_t c = 0; c < ncyc; ++c) {
          double i = enc.cycle_current[c];
          i *= coupling;
          slab.icblk[c * block + b] = i;
        }
      }
      FastNormal::instance().fill(rng_t, slab.zvblk.data() + b * samples,
                                  samples);
      FastNormal::instance().fill(rng_t, slab.zblk.data() + b * samples * dps,
                                  samples * dps);
      slab.clsv[b] = model.class_value(enc.ciphertext);
      slab.clsb[b] = model.class_bit(enc.ciphertext);
      // Meta lands from the producer thread, readings from the consumer:
      // disjoint columns, and the writer's completeness counter is only
      // advanced by record_readings on the consumer side.
      if (store_writer) store_writer->record_meta(g, pt, enc.ciphertext);
    }
  };
  // The pool is declared AFTER the slabs and the register chain so its
  // destructor joins any in-flight producer task before they unwind
  // (CampaignHalted propagates through here with a task in flight).
  std::optional<ThreadPool> gen_pool;
  int cur = 0;
  std::size_t gen_t = start_t;
  if (pipelined) {
    gen_pool.emplace(1);
    if (gen_t <= cfg_.traces) {
      GenSlab* s = &slabs[cur];
      const std::size_t t0 = gen_t;
      const std::size_t bn0 = span_bn(t0);
      gen_pool->submit_indexed(
          1, [&gen_slab, s, t0, bn0](std::size_t) { gen_slab(*s, t0, bn0); });
      gen_t += bn0;
    }
    if (ob != nullptr) ob->metrics().set("slm.pipeline.depth", 2.0);
  }

  std::size_t t = start_t;
  while (t <= cfg_.traces) {
    // Clamp the block at the next checkpoint so snapshots land on the
    // same trace counts as the per-trace loop.
    while (next_cp < checkpoints.size() && checkpoints[next_cp] < t) {
      ++next_cp;
    }
    std::size_t limit = cfg_.traces;
    if (next_cp < checkpoints.size() && checkpoints[next_cp] < limit) {
      limit = checkpoints[next_cp];
    }
    const std::size_t bn = std::min(block, limit - t + 1);

    const double t0 = timed ? obs::monotonic_seconds() : 0.0;
    double t1 = 0.0;
    if (!blocked) {
      // block == 1: the exact per-trace loop, kept as the dispatchable
      // baseline the block path is benchmarked (and bit-compared)
      // against. Contract v2 swaps the sequential stream for the trace's
      // counter-keyed streams; every expression downstream is identical.
      std::optional<Xoshiro256> rng_t;
      std::optional<Xoshiro256> frng;
      Xoshiro256* r = &rng;
      Xoshiro256* fr = nullptr;
      if (v2) {
        const std::size_t g = t - 1;
        rng_t.emplace(
            Xoshiro256::trace_stream(cfg_.seed, kTraceDomainCapture, g));
        r = &*rng_t;
        if (fence_) {
          frng.emplace(fence_->trace_rng(g));
          fr = &*frng;
        }
      }
      crypto::Block pt;
      for (auto& b : pt) b = static_cast<std::uint8_t>(r->next());
      const auto enc = v2
                           ? setup_.victim().encrypt_stateless(pt, t - 1,
                                                               v2_regs)
                           : setup_.victim().encrypt(pt);
      make_voltages(enc, *r, v, fence_ ? &*fence_ : nullptr, fr);
      if (fast) {
        read_sensor_fast(plan, v, result.bits_of_interest, *r, y);
        t1 = timed ? obs::monotonic_seconds() : 0.0;
        cls.add_trace(model.class_value(enc.ciphertext),
                      model.class_bit(enc.ciphertext), y);
      } else {
        read_sensor(v, result.bits_of_interest, *r, y);
        t1 = timed ? obs::monotonic_seconds() : 0.0;
        model.hypotheses(enc.ciphertext, h);
        engine.add_trace(h, y);
      }
      if (store_writer) {
        store_writer->record_meta(t - 1, pt, enc.ciphertext);
        store_writer->record_readings(t - 1, y.data());
      }
    } else if (pipelined) {
      // The producer already has (or is still generating) this span's
      // slab; wait for it, immediately hand the producer the next span,
      // then run the RNG-free compute pass on the main thread.
      const double w0 = timed ? obs::monotonic_seconds() : 0.0;
      gen_pool->wait();
      const double gen_wait = timed ? obs::monotonic_seconds() - w0 : 0.0;
      GenSlab& slab = slabs[cur];
      if (gen_t <= cfg_.traces) {
        GenSlab* s = &slabs[1 - cur];
        const std::size_t nt0 = gen_t;
        const std::size_t nbn = span_bn(nt0);
        gen_pool->submit_indexed(1, [&gen_slab, s, nt0, nbn](std::size_t) {
          gen_slab(*s, nt0, nbn);
        });
        gen_t += nbn;
      }
      cur = 1 - cur;
      response_.voltages_block(slab.icblk.data(), bn, block, vblk.data(),
                               simd);
      for (std::size_t i = 0; i < bn * samples; ++i) {
        vblk[i] += 0.0 + env_noise_v * slab.zvblk[i];
      }
      setup_.sensor().toggle_hw_block(plan.hw, vblk.data(), bn * samples,
                                      slab.zblk.data(), yblk.data(), simd);
      t1 = timed ? obs::monotonic_seconds() : 0.0;
      cls.add_block(slab.clsv.data(), slab.clsb.data(), yblk.data(), bn);
      if (store_writer) {
        store_writer->record_readings_block(t - 1, yblk.data(), bn);
      }
      if (timed) {
        ob->metrics().add("slm.pipeline.blocks_total");
        ob->metrics().observe("slm.pipeline.gen_wait_seconds", gen_wait);
      }
    } else {
      // Generation pass: everything that touches the RNG. Contract v1
      // consumes the sequential stream in exact per-trace order
      // (FastNormal::fill is position-wise identical to per-call draws);
      // contract v2 gives every lane its trace's counter-keyed streams.
      for (std::size_t b = 0; b < bn; ++b) {
        std::optional<Xoshiro256> rng_t;
        std::optional<Xoshiro256> frng;
        Xoshiro256* r = &rng;
        Xoshiro256* fr = nullptr;
        if (v2) {
          const std::size_t g = t - 1 + b;
          rng_t.emplace(
              Xoshiro256::trace_stream(cfg_.seed, kTraceDomainCapture, g));
          r = &*rng_t;
          if (fence_) {
            frng.emplace(fence_->trace_rng(g));
            fr = &*frng;
          }
        }
        crypto::Block pt;
        for (auto& pb : pt) pb = static_cast<std::uint8_t>(r->next());
        const auto enc =
            v2 ? setup_.victim().encrypt_stateless(pt, t - 1 + b, v2_regs)
               : setup_.victim().encrypt(pt);
        if (defer_hw) {
          // Stage the scaled currents and this trace's noise draws; the
          // per-element arithmetic and the fence-stream call order match
          // make_voltages exactly, only the matvec is deferred.
          defense::ActiveFence* fence = fence_ ? &*fence_ : nullptr;
          for (std::size_t c = 0; c < ncyc; ++c) {
            double i = enc.cycle_current[c];
            // v2: the fence draws from this trace's counter-keyed
            // stream (fr), exactly as gen_slab and make_voltages do;
            // v1 consumes the fence's own sequential stream.
            if (fence != nullptr) {
              i += fr != nullptr ? fence->cycle_current(*fr)
                                 : fence->next_cycle_current();
            }
            i *= coupling;
            icblk[c * block + b] = i;
          }
          FastNormal::instance().fill(*r, zvblk.data() + b * samples,
                                      samples);
          FastNormal::instance().fill(*r, zblk.data() + b * samples * dps,
                                      samples * dps);
        } else if (fast) {
          make_voltages(enc, *r, v, fence_ ? &*fence_ : nullptr, fr);
          read_sensor_fast(plan, v, result.bits_of_interest, *r, y);
          std::copy(y.begin(), y.end(), yblk.begin() + b * samples);
        } else {
          make_voltages(enc, *r, v, fence_ ? &*fence_ : nullptr, fr);
          read_sensor(v, result.bits_of_interest, *r, y);
          std::copy(y.begin(), y.end(), yblk.begin() + b * samples);
          model.hypotheses(enc.ciphertext, h);
          std::copy(h.begin(), h.end(), hblk.begin() + b * 256);
        }
        if (fast) {
          clsv[b] = model.class_value(enc.ciphertext);
          clsb[b] = model.class_bit(enc.ciphertext);
        }
        if (store_writer) {
          store_writer->record_meta(t - 1 + b, pt, enc.ciphertext);
        }
      }
      // Compute pass: RNG-free lane-parallel kernels over the block.
      if (defer_hw) {
        response_.voltages_block(icblk.data(), bn, block, vblk.data(), simd);
        for (std::size_t i = 0; i < bn * samples; ++i) {
          vblk[i] += 0.0 + env_noise_v * zvblk[i];
        }
        setup_.sensor().toggle_hw_block(plan.hw, vblk.data(), bn * samples,
                                        zblk.data(), yblk.data(), simd);
      }
      t1 = timed ? obs::monotonic_seconds() : 0.0;
      if (fast) {
        cls.add_block(clsv.data(), clsb.data(), yblk.data(), bn);
      } else {
        engine.add_traces(hblk.data(), yblk.data(), bn);
      }
      if (store_writer) {
        store_writer->record_readings_block(t - 1, yblk.data(), bn);
      }
    }
    if (timed) {
      const double t2 = obs::monotonic_seconds();
      kernel_s += t1 - t0;
      cpa_s += t2 - t1;
      if (blocked) {
        ob->metrics().add("slm.kernel.blocks_total");
        ob->metrics().observe("slm.kernel.block_kernel_seconds", t1 - t0);
        ob->metrics().observe("slm.kernel.block_cpa_seconds", t2 - t1);
      }
    }
    t += bn;
    const std::size_t done = t - 1;

    while (next_cp < checkpoints.size() && done == checkpoints[next_cp]) {
      const double f0 = timed ? obs::monotonic_seconds() : 0.0;
      if (fast) {
        const sca::CpaEngine folded = cls.fold(model.pattern().data());
        result.progress.push_back(
            sca::snapshot_progress(folded, result.correct_guess));
      } else {
        result.progress.push_back(
            sca::snapshot_progress(engine, result.correct_guess));
      }
      if (timed) cpa_s += obs::monotonic_seconds() - f0;

      if (ob != nullptr) {
        const sca::CpaProgressPoint& p = result.progress.back();
        const double now = obs::monotonic_seconds();
        const double seg_rate =
            now > seg_time
                ? static_cast<double>(done - seg_traces) / (now - seg_time)
                : 0.0;
        ob->metrics().add("slm.campaign.checkpoints_total");
        ob->metrics().set("slm.campaign.traces_done",
                          static_cast<double>(done));
        ob->metrics().set("slm.cpa.best_guess",
                          static_cast<double>(p.best_guess));
        ob->metrics().set("slm.cpa.correct_corr", p.correct_corr);
        ob->metrics().set("slm.cpa.corr_margin",
                          p.correct_corr - p.best_wrong_corr);
        ob->metrics().observe("slm.campaign.segment_traces_per_sec",
                              seg_rate);
        ob->event(
            "checkpoint",
            obs::JsonWriter()
                .field("traces", static_cast<std::uint64_t>(p.traces))
                .field("best_guess",
                       static_cast<std::uint64_t>(p.best_guess))
                .field("correct_rank",
                       static_cast<std::uint64_t>(p.correct_rank))
                .field("correct_corr", p.correct_corr)
                .field("best_wrong_corr", p.best_wrong_corr)
                .field("corr_margin", p.correct_corr - p.best_wrong_corr)
                .field("traces_per_sec", seg_rate)
                .raw("shard_traces",
                     "[" + std::to_string(done) + "]"));
        seg_traces = done;
        seg_time = now;
      }

      if (snapshotting) {
        const double s0 = obs::monotonic_seconds();
        CampaignCheckpoint ck;
        ck.seed = cfg_.seed;
        ck.total_traces = cfg_.traces;
        ck.mode = static_cast<std::uint32_t>(cfg_.mode);
        ck.shards = 1;
        ck.samples = sample_times_.size();
        ck.target_key_byte = cfg_.target_key_byte;
        ck.target_bit = cfg_.target_bit;
        ck.single_bit = cfg_.single_bit;
        ck.compiled = fast;
        ck.block = block;
        ck.rng_contract = static_cast<std::uint32_t>(contract);
        ck.traces_done = done;
        CheckpointShard sh;
        sh.position = done;
        sh.has_fence = fence_.has_value();
        if (!v2) {
          // Contract v2 re-derives every stream and the register chain
          // from (seed, trace index) on resume, so only the accumulator
          // and the trace count matter; the v1-era state stays zeroed.
          sh.rng = rng.state();
          sh.victim = setup_.victim().register_snapshot();
          if (fence_) sh.fence_rng = fence_->rng_state();
        }
        ByteWriter acc;
        if (fast) {
          cls.save(acc);
        } else {
          engine.save(acc);
        }
        sh.accumulator = acc.take();
        ck.shard_state.push_back(std::move(sh));
        ck.progress = result.progress;
        const std::size_t bytes = save_checkpoint(cfg_.checkpoint_dir, ck);
        result.snapshot_path = checkpoint_file(cfg_.checkpoint_dir);
        const double io = obs::monotonic_seconds() - s0;
        ckpt_io_s += io;
        if (ob != nullptr) {
          ob->metrics().add("slm.checkpoint.snapshots_total");
          ob->metrics().add("slm.checkpoint.bytes_total",
                            static_cast<double>(bytes));
          ob->metrics().observe("slm.checkpoint.write_seconds", io);
          ob->event("snapshot",
                    obs::JsonWriter()
                        .field("traces", static_cast<std::uint64_t>(done))
                        .field("bytes", static_cast<std::uint64_t>(bytes))
                        .field("seconds", io)
                        .field("path", result.snapshot_path));
        }
      }
      ++next_cp;

      if (cfg_.halt_after_traces > 0 && done >= cfg_.halt_after_traces) {
        if (ob != nullptr) {
          ob->event("halt",
                    obs::JsonWriter()
                        .field("traces", static_cast<std::uint64_t>(done))
                        .field("path", result.snapshot_path));
        }
        throw CampaignHalted(done, result.snapshot_path);
      }
    }
  }

  if (fast) {
    const double f0 = timed ? obs::monotonic_seconds() : 0.0;
    engine = cls.fold(model.pattern().data());
    if (timed) cpa_s += obs::monotonic_seconds() - f0;
  }

  if (store_writer) finalize_trace_store(*store_writer, ob);

  result.kernel_seconds = kernel_s;
  result.cpa_seconds = cpa_s;
  result.checkpoint_io_seconds = ckpt_io_s;
  if (ob != nullptr) {
    ob->metrics().set("slm.campaign.kernel_seconds", kernel_s);
    ob->metrics().set("slm.campaign.cpa_seconds", cpa_s);
    ob->metrics().set("slm.campaign.checkpoint_io_seconds", ckpt_io_s);
    ob->metrics().set("slm.campaign.selection_seconds",
                      result.selection_seconds);
  }

  if (result.progress.empty() ||
      result.progress.back().traces != engine.trace_count()) {
    result.progress.push_back(
        sca::snapshot_progress(engine, result.correct_guess));
  }

  result.traces_run = engine.trace_count();
  result.final_max_abs_corr = engine.max_abs_correlation();
  result.recovered_guess = static_cast<std::uint8_t>(engine.best_guess());
  result.key_recovered = result.recovered_guess == result.correct_guess;
  result.mtd = sca::estimate_mtd(result.progress);
  result.threads_used = 1;
  result.capture_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return result;
}

FullKeyRunResult CpaCampaign::run_fullkey(const FullKeyConfig& fk) {
  const auto wall_start = std::chrono::steady_clock::now();
  obs::CampaignObserver* const ob = cfg_.observer;
  constexpr std::size_t kBytes = sca::MultiByteCpa::kBytes;
  FullKeyRunResult result;
  result.mode = cfg_.mode;
  result.sample_times_ns = sample_times_;

  // One model per last-round key byte. Generation (plaintext draws,
  // victim encryption, PDN voltages, sensor readings) never consults a
  // model — only the (v, b) class labels do — so the capture stream below
  // is the byte-independent stream run() produces under the same config.
  std::vector<sca::LastRoundBitModel> models;
  models.reserve(kBytes);
  for (std::size_t j = 0; j < kBytes; ++j) {
    models.emplace_back(j, cfg_.target_bit);
  }
  const crypto::Block lrk = setup_.victim().cipher().last_round_key();
  for (std::size_t j = 0; j < kBytes; ++j) {
    result.bytes[j].correct = models[j].correct_guess(lrk);
  }

  // Created before bit resolution so the fingerprint hashes the
  // requested endpoint bit (see run()).
  std::unique_ptr<store::TraceStoreWriter> store_writer;
  if (!cfg_.store_out.empty()) {
    SLM_REQUIRE(!cfg_.resume,
                "store_out: cannot combine with resume — traces captured "
                "before the snapshot would be missing from the store");
    store_writer = std::make_unique<store::TraceStoreWriter>(
        cfg_.store_out, store_identity(store::StoreKind::kFullKey, cfg_.traces));
  }

  {
    const auto sel_start = std::chrono::steady_clock::now();
    std::optional<obs::CampaignObserver::Span> span;
    if (ob != nullptr) span.emplace(ob->span("selection"));
    CampaignResult scratch;
    resolve_sensor_bits(&scratch);
    result.bits_of_interest = std::move(scratch.bits_of_interest);
    result.selection_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      sel_start)
            .count();
  }
  result.single_bit = cfg_.single_bit;
  if (store_writer) store_writer->set_resolved_single_bit(cfg_.single_bit);

  auto checkpoints = checkpoint_schedule(cfg_.checkpoints, cfg_.traces);
  std::size_t next_cp = 0;

  const RngContract contract = resolve_contract(cfg_.rng_contract);
  const bool v2 = contract == RngContract::kV2;
  result.rng_contract = contract;

  // The fused path always accumulates through MultiByteCpa — folding 16
  // reference CpaEngines per trace would defeat the point — so
  // compiled_kernels only selects the sensor read path here. Both sensor
  // paths produce bit-identical readings (the property suite pins it),
  // and the per-byte class sums are bit-identical to a standalone
  // XorClassCpa / reference CpaEngine fed the same stream.
  const bool fast = cfg_.compiled_kernels;
  const SensorPlan plan =
      fast ? make_sensor_plan(result.bits_of_interest) : SensorPlan{};

  const std::size_t samples = sample_times_.size();
  sca::MultiByteCpa acc(samples);
  Xoshiro256 rng(cfg_.seed);
  crypto::AesDatapathModel::RegisterSnapshot v2_regs{};

  // Per-byte early-exit bookkeeping (restored verbatim on resume so a
  // resumed run freezes the same bytes at the same checkpoints).
  struct ByteState {
    bool converged = false;
    std::size_t stable = 0;
    std::size_t prev_best = 256;  // 256 = no previous checkpoint yet
  };
  std::array<ByteState, kBytes> state;

  std::size_t start_t = 1;
  const bool snapshotting = !cfg_.checkpoint_dir.empty();
  if (cfg_.resume && snapshotting) {
    if (auto ck = load_checkpoint(cfg_.checkpoint_dir)) {
      require_checkpoint_matches(*ck, cfg_, 1, samples,
                                 static_cast<std::uint32_t>(contract),
                                 /*fullkey=*/true);
      const CheckpointShard& sh = ck->shard_state[0];
      SLM_REQUIRE(sh.has_fence == fence_.has_value(),
                  "resume: fence configuration differs from snapshot");
      if (!v2) {
        rng.set_state(sh.rng);
        setup_.victim().restore_registers(sh.victim);
        if (fence_) fence_->set_rng_state(sh.fence_rng);
      }
      ByteReader accr(sh.accumulator.data(), sh.accumulator.size());
      acc.load(accr);
      SLM_REQUIRE(accr.done(), "resume: trailing accumulator bytes");
      for (std::size_t j = 0; j < kBytes; ++j) {
        const FullKeyByteCheckpoint& fb = ck->fullkey_bytes[j];
        state[j].converged = fb.converged;
        state[j].stable = static_cast<std::size_t>(fb.stable);
        state[j].prev_best = static_cast<std::size_t>(fb.prev_best);
        result.bytes[j].progress = fb.progress;
        if (fb.converged) {
          FullKeyByteResult& br = result.bytes[j];
          br.recovered = fb.recovered;
          br.traces = static_cast<std::size_t>(fb.frozen_traces);
          br.final_max_abs_corr = fb.frozen_corr;
          br.early_exited = true;
          br.success = br.recovered == br.correct;
        }
      }
      result.resumed_from = static_cast<std::size_t>(ck->traces_done);
      start_t = result.resumed_from + 1;
      if (v2 && result.resumed_from > 0) {
        const std::size_t g = result.resumed_from - 1;
        Xoshiro256 prev =
            Xoshiro256::trace_stream(cfg_.seed, kTraceDomainCapture, g);
        crypto::Block prev_pt;
        for (auto& b : prev_pt) b = static_cast<std::uint8_t>(prev.next());
        v2_regs = setup_.victim().registers_after(prev_pt, g);
      }
      while (next_cp < checkpoints.size() &&
             checkpoints[next_cp] <= result.resumed_from) {
        ++next_cp;
      }
      log_info() << "fullkey: resumed from "
                 << checkpoint_file(cfg_.checkpoint_dir) << " at trace "
                 << result.resumed_from << "/" << cfg_.traces;
      if (ob != nullptr) {
        ob->metrics().add("slm.checkpoint.resumes_total");
        ob->event("resume",
                  obs::JsonWriter()
                      .field("traces_done",
                             static_cast<std::uint64_t>(result.resumed_from))
                      .field("path", checkpoint_file(cfg_.checkpoint_dir)));
      }
    }
  }

  const std::size_t block = resolve_block(cfg_.block);
  const bool simd = resolve_simd(cfg_.simd);
  result.block_size = block;
  const bool blocked = block > 1;
  const bool defer_hw = blocked && fast && plan.batched &&
                        cfg_.mode == SensorMode::kBenignHw;
  const std::size_t dps = plan.hw.draws_per_sample;
  const std::size_t ncyc = response_.cycle_count();
  const double coupling = setup_.effective_coupling();
  const double env_noise_v = setup_.calibration().env_noise_v;

  if (ob != nullptr) {
    ob->metrics().set("slm.campaign.traces_target",
                      static_cast<double>(cfg_.traces));
    ob->metrics().set("slm.kernel.block_size", static_cast<double>(block));
    ob->metrics().set("slm.fullkey.bytes_total",
                      static_cast<double>(kBytes));
    ob->event("run_start",
              obs::JsonWriter()
                  .field("mode", sensor_mode_name(cfg_.mode))
                  .field("fullkey", true)
                  .field("traces", static_cast<std::uint64_t>(cfg_.traces))
                  .field("seed", static_cast<std::uint64_t>(cfg_.seed))
                  .field("threads", static_cast<std::uint64_t>(1))
                  .field("compiled", fast)
                  .field("block", static_cast<std::uint64_t>(block))
                  .field("rng_contract", rng_contract_name(contract))
                  .field("resumed_from",
                         static_cast<std::uint64_t>(result.resumed_from)));
  }

  const bool timed = ob != nullptr;
  double kernel_s = 0.0;
  double cpa_s = 0.0;
  double ckpt_io_s = 0.0;
  std::size_t seg_traces = start_t - 1;
  double seg_time = timed ? obs::monotonic_seconds() : 0.0;

  std::vector<double> v;
  std::vector<double> y(samples);
  std::vector<double> vblk;
  std::vector<double> zblk;
  std::vector<double> icblk;
  std::vector<double> zvblk;
  std::vector<double> yblk(block * samples);
  std::vector<std::uint8_t> clsv(block * kBytes);
  std::vector<std::uint8_t> clsb(block * kBytes);
  if (defer_hw) {
    vblk.resize(block * samples);
    zblk.resize(block * samples * dps);
    icblk.resize(ncyc * block);
    zvblk.resize(block * samples);
  }

  // Count of converged bytes, for the checkpoint event and so the fold
  // loop can cheaply skip frozen bytes.
  std::size_t converged_count = 0;
  for (const ByteState& s : state) {
    if (s.converged) ++converged_count;
  }

  std::size_t t = start_t;
  while (t <= cfg_.traces) {
    while (next_cp < checkpoints.size() && checkpoints[next_cp] < t) {
      ++next_cp;
    }
    std::size_t limit = cfg_.traces;
    if (next_cp < checkpoints.size() && checkpoints[next_cp] < limit) {
      limit = checkpoints[next_cp];
    }
    const std::size_t bn = std::min(block, limit - t + 1);

    const double t0 = timed ? obs::monotonic_seconds() : 0.0;
    // Generation pass: identical RNG consumption and expression order to
    // run()'s generation pass — the stream never depends on the model,
    // only the class labels (16 per trace here instead of 1) do.
    for (std::size_t b = 0; b < bn; ++b) {
      std::optional<Xoshiro256> rng_t;
      std::optional<Xoshiro256> frng;
      Xoshiro256* r = &rng;
      Xoshiro256* fr = nullptr;
      if (v2) {
        const std::size_t g = t - 1 + b;
        rng_t.emplace(
            Xoshiro256::trace_stream(cfg_.seed, kTraceDomainCapture, g));
        r = &*rng_t;
        if (fence_) {
          frng.emplace(fence_->trace_rng(g));
          fr = &*frng;
        }
      }
      crypto::Block pt;
      for (auto& pb : pt) pb = static_cast<std::uint8_t>(r->next());
      const auto enc =
          v2 ? setup_.victim().encrypt_stateless(pt, t - 1 + b, v2_regs)
             : setup_.victim().encrypt(pt);
      if (defer_hw) {
        defense::ActiveFence* fence = fence_ ? &*fence_ : nullptr;
        for (std::size_t c = 0; c < ncyc; ++c) {
          double i = enc.cycle_current[c];
          if (fence != nullptr) {
            i += fr != nullptr ? fence->cycle_current(*fr)
                               : fence->next_cycle_current();
          }
          i *= coupling;
          icblk[c * block + b] = i;
        }
        FastNormal::instance().fill(*r, zvblk.data() + b * samples, samples);
        FastNormal::instance().fill(*r, zblk.data() + b * samples * dps,
                                    samples * dps);
      } else {
        make_voltages(enc, *r, v, fence_ ? &*fence_ : nullptr, fr);
        if (fast) {
          read_sensor_fast(plan, v, result.bits_of_interest, *r, y);
        } else {
          read_sensor(v, result.bits_of_interest, *r, y);
        }
        std::copy(y.begin(), y.end(), yblk.begin() + b * samples);
      }
      for (std::size_t j = 0; j < kBytes; ++j) {
        clsv[b * kBytes + j] = models[j].class_value(enc.ciphertext);
        clsb[b * kBytes + j] = models[j].class_bit(enc.ciphertext);
      }
      if (store_writer) {
        store_writer->record_meta(t - 1 + b, pt, enc.ciphertext);
      }
    }
    // Compute pass: RNG-free block kernels, then one fused accumulate.
    if (defer_hw) {
      response_.voltages_block(icblk.data(), bn, block, vblk.data(), simd);
      for (std::size_t i = 0; i < bn * samples; ++i) {
        vblk[i] += 0.0 + env_noise_v * zvblk[i];
      }
      setup_.sensor().toggle_hw_block(plan.hw, vblk.data(), bn * samples,
                                      zblk.data(), yblk.data(), simd);
    }
    const double t1 = timed ? obs::monotonic_seconds() : 0.0;
    acc.add_block(clsv.data(), clsb.data(), yblk.data(), bn);
    if (store_writer) {
      store_writer->record_readings_block(t - 1, yblk.data(), bn);
    }
    if (timed) {
      const double t2 = obs::monotonic_seconds();
      kernel_s += t1 - t0;
      cpa_s += t2 - t1;
      if (blocked) {
        ob->metrics().add("slm.kernel.blocks_total");
        ob->metrics().observe("slm.kernel.block_kernel_seconds", t1 - t0);
        ob->metrics().observe("slm.kernel.block_cpa_seconds", t2 - t1);
      }
    }
    t += bn;
    const std::size_t done = t - 1;

    while (next_cp < checkpoints.size() && done == checkpoints[next_cp]) {
      const double f0 = timed ? obs::monotonic_seconds() : 0.0;
      for (std::size_t j = 0; j < kBytes; ++j) {
        if (state[j].converged) continue;
        const sca::CpaEngine folded = acc.fold(j, models[j].pattern().data());
        sca::CpaProgressPoint p =
            sca::snapshot_progress(folded, result.bytes[j].correct);
        const double margin = sca::winner_margin(p);
        const bool qualify = fk.early_exit &&
                             done >= fk.early_exit_min_traces &&
                             state[j].prev_best == p.best_guess &&
                             margin >= fk.early_exit_margin;
        if (qualify) {
          ++state[j].stable;
        } else {
          state[j].stable = 0;
        }
        state[j].prev_best = p.best_guess;
        result.bytes[j].progress.push_back(std::move(p));
        if (qualify && state[j].stable >= fk.early_exit_stable) {
          const sca::CpaProgressPoint& fp = result.bytes[j].progress.back();
          FullKeyByteResult& br = result.bytes[j];
          state[j].converged = true;
          ++converged_count;
          br.recovered = static_cast<std::uint8_t>(fp.best_guess);
          br.traces = done;
          br.final_max_abs_corr = fp.max_abs_corr;
          br.early_exited = true;
          br.success = br.recovered == br.correct;
          if (ob != nullptr) {
            ob->metrics().add("slm.fullkey.converged_total");
            ob->metrics().observe("slm.fullkey.convergence_traces",
                                  static_cast<double>(done));
            ob->event("fullkey_byte_converged",
                      obs::JsonWriter()
                          .field("byte", static_cast<std::uint64_t>(j))
                          .field("traces", static_cast<std::uint64_t>(done))
                          .field("guess",
                                 static_cast<std::uint64_t>(br.recovered))
                          .field("margin", margin));
          }
        }
      }
      if (timed) cpa_s += obs::monotonic_seconds() - f0;

      if (ob != nullptr) {
        const double now = obs::monotonic_seconds();
        const double seg_rate =
            now > seg_time
                ? static_cast<double>(done - seg_traces) / (now - seg_time)
                : 0.0;
        ob->metrics().add("slm.campaign.checkpoints_total");
        ob->metrics().set("slm.campaign.traces_done",
                          static_cast<double>(done));
        ob->metrics().set("slm.fullkey.bytes_converged",
                          static_cast<double>(converged_count));
        ob->metrics().observe("slm.campaign.segment_traces_per_sec",
                              seg_rate);
        ob->event("fullkey_checkpoint",
                  obs::JsonWriter()
                      .field("traces", static_cast<std::uint64_t>(done))
                      .field("bytes_converged",
                             static_cast<std::uint64_t>(converged_count))
                      .field("bytes_active",
                             static_cast<std::uint64_t>(kBytes -
                                                        converged_count))
                      .field("traces_per_sec", seg_rate));
        seg_traces = done;
        seg_time = now;
      }

      if (snapshotting) {
        const double s0 = obs::monotonic_seconds();
        CampaignCheckpoint ck;
        ck.seed = cfg_.seed;
        ck.total_traces = cfg_.traces;
        ck.mode = static_cast<std::uint32_t>(cfg_.mode);
        ck.shards = 1;
        ck.samples = samples;
        ck.target_key_byte = cfg_.target_key_byte;
        ck.target_bit = cfg_.target_bit;
        ck.single_bit = cfg_.single_bit;
        ck.compiled = fast;
        ck.block = block;
        ck.rng_contract = static_cast<std::uint32_t>(contract);
        ck.fullkey = true;
        ck.traces_done = done;
        CheckpointShard sh;
        sh.position = done;
        sh.has_fence = fence_.has_value();
        if (!v2) {
          sh.rng = rng.state();
          sh.victim = setup_.victim().register_snapshot();
          if (fence_) sh.fence_rng = fence_->rng_state();
        }
        ByteWriter accw;
        acc.save(accw);
        sh.accumulator = accw.take();
        ck.shard_state.push_back(std::move(sh));
        ck.fullkey_bytes.reserve(kBytes);
        for (std::size_t j = 0; j < kBytes; ++j) {
          FullKeyByteCheckpoint fb;
          fb.converged = state[j].converged;
          fb.stable = state[j].stable;
          fb.prev_best = state[j].prev_best;
          if (state[j].converged) {
            fb.frozen_traces = result.bytes[j].traces;
            fb.recovered = result.bytes[j].recovered;
            fb.frozen_corr = result.bytes[j].final_max_abs_corr;
          }
          fb.progress = result.bytes[j].progress;
          ck.fullkey_bytes.push_back(std::move(fb));
        }
        const std::size_t bytes = save_checkpoint(cfg_.checkpoint_dir, ck);
        result.snapshot_path = checkpoint_file(cfg_.checkpoint_dir);
        const double io = obs::monotonic_seconds() - s0;
        ckpt_io_s += io;
        if (ob != nullptr) {
          ob->metrics().add("slm.checkpoint.snapshots_total");
          ob->metrics().add("slm.checkpoint.bytes_total",
                            static_cast<double>(bytes));
          ob->metrics().observe("slm.checkpoint.write_seconds", io);
          ob->event("snapshot",
                    obs::JsonWriter()
                        .field("traces", static_cast<std::uint64_t>(done))
                        .field("bytes", static_cast<std::uint64_t>(bytes))
                        .field("seconds", io)
                        .field("path", result.snapshot_path));
        }
      }
      ++next_cp;

      if (cfg_.halt_after_traces > 0 && done >= cfg_.halt_after_traces) {
        if (ob != nullptr) {
          ob->event("halt",
                    obs::JsonWriter()
                        .field("traces", static_cast<std::uint64_t>(done))
                        .field("path", result.snapshot_path));
        }
        throw CampaignHalted(done, result.snapshot_path);
      }
    }
  }

  // Final folds for the bytes that never froze.
  {
    const double f0 = timed ? obs::monotonic_seconds() : 0.0;
    for (std::size_t j = 0; j < kBytes; ++j) {
      if (state[j].converged) continue;
      const sca::CpaEngine folded = acc.fold(j, models[j].pattern().data());
      FullKeyByteResult& br = result.bytes[j];
      if (br.progress.empty() ||
          br.progress.back().traces != folded.trace_count()) {
        br.progress.push_back(sca::snapshot_progress(folded, br.correct));
      }
      const sca::CpaProgressPoint& fp = br.progress.back();
      br.recovered = static_cast<std::uint8_t>(fp.best_guess);
      br.traces = folded.trace_count();
      br.final_max_abs_corr = fp.max_abs_corr;
      br.success = br.recovered == br.correct;
    }
    if (timed) cpa_s += obs::monotonic_seconds() - f0;
  }
  for (std::size_t j = 0; j < kBytes; ++j) {
    result.bytes[j].mtd = sca::estimate_mtd(result.bytes[j].progress);
  }

  if (store_writer) finalize_trace_store(*store_writer, ob);

  result.kernel_seconds = kernel_s;
  result.cpa_seconds = cpa_s;
  result.checkpoint_io_seconds = ckpt_io_s;
  if (ob != nullptr) {
    ob->metrics().set("slm.campaign.kernel_seconds", kernel_s);
    ob->metrics().set("slm.campaign.cpa_seconds", cpa_s);
    ob->metrics().set("slm.campaign.checkpoint_io_seconds", ckpt_io_s);
    ob->metrics().set("slm.campaign.selection_seconds",
                      result.selection_seconds);
  }

  result.traces_run = acc.trace_count();
  result.threads_used = 1;
  result.capture_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return result;
}

}  // namespace slm::core
