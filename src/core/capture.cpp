#include "core/capture.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "core/parallel.hpp"
#include "core/snapshot.hpp"
#include "obs/observer.hpp"
#include "store/trace_store.hpp"

namespace slm::core {

// ---------------------------------------------------------------------------
// Kernel

struct CaptureKernel::Slab {
  std::uint64_t g0 = 0;
  std::size_t n = 0;
  std::vector<double> ic;  ///< benign-HW: scaled currents, cycle-major
  std::vector<double> zv;  ///< benign-HW: env-noise draws
  std::vector<double> z;   ///< benign-HW: sensor draws
  std::vector<double> v;   ///< benign-HW: block voltages; else one trace's
  std::vector<double> y;   ///< readings, trace-major
  std::vector<double> row; ///< one trace's readings (non-HW read scratch)
  std::vector<std::uint8_t> clsv;  ///< class values, labels per trace
  std::vector<std::uint8_t> clsb;  ///< class bits, labels per trace
};

CaptureKernel::CaptureKernel(const CpaCampaign& campaign,
                             const std::vector<std::size_t>& bits,
                             std::vector<sca::LastRoundBitModel> models,
                             store::TraceStoreWriter* store)
    : c_(campaign),
      bits_(bits),
      models_(std::move(models)),
      store_(store),
      block_(resolve_block(campaign.cfg_.block)),
      simd_(resolve_simd(campaign.cfg_.simd)),
      hw_(campaign.cfg_.mode == SensorMode::kBenignHw),
      samples_(campaign.sample_times_.size()),
      ncyc_(campaign.response_.cycle_count()),
      coupling_(campaign.setup_.effective_coupling()),
      env_noise_v_(campaign.setup_.calibration().env_noise_v) {
  if (hw_) hw_plan_ = campaign.setup_.sensor().compile_hw_plan(bits_);
  if (campaign.cfg_.mode == SensorMode::kBenignSingleBit) {
    bit_plan_ = campaign.setup_.sensor().compile_bit_plan(
        campaign.cfg_.single_bit);
  }
}

bool CaptureKernel::overlaps_generation() const {
  return hw_ && std::thread::hardware_concurrency() > 1;
}

CaptureKernel::Slab CaptureKernel::make_slab() const {
  Slab s;
  const std::size_t labels = models_.size();
  s.y.resize(block_ * samples_);
  s.clsv.resize(block_ * labels);
  s.clsb.resize(block_ * labels);
  if (hw_) {
    s.ic.resize(ncyc_ * block_);
    s.zv.resize(block_ * samples_);
    s.z.resize(block_ * samples_ * hw_plan_.draws_per_sample);
    s.v.resize(block_ * samples_);
  }
  return s;
}

// The hot loops copy the member scalars they use into locals: stores
// through the slab's double pointers could otherwise alias the double
// members and force a reload (and block vectorization) every iteration.
void CaptureKernel::generate(
    Slab& s, std::uint64_t g0, std::size_t n,
    crypto::AesDatapathModel::RegisterSnapshot& regs) const {
  const std::size_t S = samples_;
  const std::size_t B = block_;
  const std::size_t dps = hw_plan_.draws_per_sample;
  const std::size_t labels = models_.size();
  const double coupling = coupling_;
  const defense::ActiveFence* fence = c_.fence_ ? &*c_.fence_ : nullptr;
  const crypto::AesDatapathModel& victim = c_.setup_.victim();
  for (std::size_t b = 0; b < n; ++b) {
    const std::uint64_t g = g0 + b;
    Xoshiro256 rng =
        Xoshiro256::trace_stream(c_.cfg_.seed, kTraceDomainCapture, g);
    crypto::Block pt;
    for (auto& p : pt) p = static_cast<std::uint8_t>(rng.next());
    const auto enc = victim.encrypt_stateless(pt, g, regs);
    if (hw_) {
      // Stage the coupling-scaled currents (cycle-major, so the lane-
      // inner matvec is unit-stride) and this trace's noise draws in the
      // exact order make_voltages + toggle_hw_batch would consume them.
      double* ic = s.ic.data() + b;
      if (fence != nullptr) {
        Xoshiro256 frng = fence->trace_rng(g);
        for (std::size_t c = 0; c < ncyc_; ++c) {
          ic[c * B] =
              (enc.cycle_current[c] + fence->cycle_current(frng)) * coupling;
        }
      } else {
        for (std::size_t c = 0; c < ncyc_; ++c) {
          ic[c * B] = enc.cycle_current[c] * coupling;
        }
      }
      FastNormal::instance().fill(rng, s.zv.data() + b * S, S);
      FastNormal::instance().fill(rng, s.z.data() + b * S * dps, S * dps);
    } else {
      std::optional<Xoshiro256> frng;
      if (fence != nullptr) frng.emplace(fence->trace_rng(g));
      c_.make_voltages(enc, rng, s.v, frng ? &*frng : nullptr);
      if (c_.cfg_.mode == SensorMode::kBenignSingleBit) {
        s.row.resize(S);
        c_.setup_.sensor().toggle_bit_batch(bit_plan_, s.v.data(), S, rng,
                                            s.row.data());
      } else {
        c_.read_sensor(s.v, bits_, rng, s.row);
      }
      std::copy(s.row.begin(), s.row.end(), s.y.begin() + b * S);
    }
    for (std::size_t j = 0; j < labels; ++j) {
      s.clsv[b * labels + j] = models_[j].class_value(enc.ciphertext);
      s.clsb[b * labels + j] = models_[j].class_bit(enc.ciphertext);
    }
    // Metadata lands from the generating thread, readings from the
    // folding one: disjoint columns, and only record_readings advances
    // the writer's completeness count.
    if (store_ != nullptr) store_->record_meta(g, pt, enc.ciphertext);
  }
  s.g0 = g0;
  s.n = n;
}

void CaptureKernel::compute(Slab& s) const {
  if (!hw_) return;
  const std::size_t lanes = s.n * samples_;
  const double env_noise_v = env_noise_v_;
  double* v = s.v.data();
  const double* zv = s.zv.data();
  c_.response_.voltages_block(s.ic.data(), s.n, block_, v, simd_);
  for (std::size_t i = 0; i < lanes; ++i) v[i] += 0.0 + env_noise_v * zv[i];
  c_.setup_.sensor().toggle_hw_block(hw_plan_, v, lanes, s.z.data(),
                                     s.y.data(), simd_);
}

template <class Acc>
void CaptureKernel::run_range(std::uint64_t a, std::uint64_t b, Acc& acc,
                              RangeStats& st, ThreadPool* producer) const {
  if (a >= b) return;
  const crypto::AesDatapathModel& victim = c_.setup_.victim();
  // Incoming victim registers: the register is fully overwritten by every
  // encryption, so the state left by trace a-1 follows from that trace's
  // plaintext alone (registers start zeroed at trace 0).
  crypto::AesDatapathModel::RegisterSnapshot regs{};
  if (a > 0) {
    Xoshiro256 prev =
        Xoshiro256::trace_stream(c_.cfg_.seed, kTraceDomainCapture, a - 1);
    crypto::Block prev_pt;
    for (auto& p : prev_pt) p = static_cast<std::uint8_t>(prev.next());
    regs = victim.registers_after(prev_pt, a - 1);
  }
  const auto clock = [&] { return st.timed ? obs::monotonic_seconds() : 0.0; };
  // Compute + fold one generated slab; t0 is when the block started.
  const auto finish = [&](Slab& s, double t0) {
    compute(s);
    const double t1 = clock();
    acc.add_block(s.clsv.data(), s.clsb.data(), s.y.data(), s.n);
    if (store_ != nullptr) store_->record_readings_block(s.g0, s.y.data(), s.n);
    if (st.timed) {
      const double t2 = obs::monotonic_seconds();
      st.kernel_seconds += t1 - t0;
      st.cpa_seconds += t2 - t1;
      st.blocks.push_back({t1 - t0, t2 - t1});
    }
  };

  if (producer == nullptr) {
    Slab s = make_slab();
    for (std::uint64_t g = a; g < b;) {
      const std::size_t n = static_cast<std::size_t>(
          std::min<std::uint64_t>(block_, b - g));
      const double t0 = clock();
      generate(s, g, n, regs);
      finish(s, t0);
      g += n;
    }
    return;
  }

  // Two-slab overlap: the producer generates the next slab while this
  // thread computes and folds the current one. The register chain is
  // only ever touched by the (single) producer.
  Slab slabs[2] = {make_slab(), make_slab()};
  std::uint64_t next = a;
  const auto submit = [&](Slab& s) {
    const std::uint64_t g0 = next;
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(block_, b - g0));
    next += n;
    producer->submit_indexed(1, [this, &s, &regs, g0, n](std::size_t) {
      generate(s, g0, n, regs);
    });
  };
  // Declared after the slabs and the register chain: on unwind, join the
  // in-flight producer task before they are destroyed. A task is only
  // ever in flight here while another exception propagates, which is the
  // one reported; the producer's own failure would be secondary.
  struct Drain {
    ThreadPool* pool;
    ~Drain() {
      try {
        pool->wait();
      } catch (...) {
      }
    }
  } drain{producer};
  submit(slabs[0]);
  for (int cur = 0;; cur = 1 - cur) {
    const double t0 = clock();
    producer->wait();
    if (st.timed) st.gen_waits.push_back(obs::monotonic_seconds() - t0);
    Slab& s = slabs[cur];
    const bool last = next >= b;
    if (!last) submit(slabs[1 - cur]);
    finish(s, t0);
    if (last) break;
  }
}

template void CaptureKernel::run_range(std::uint64_t, std::uint64_t,
                                       sca::XorClassCpa&, RangeStats&,
                                       ThreadPool*) const;
template void CaptureKernel::run_range(std::uint64_t, std::uint64_t,
                                       sca::MultiByteCpa&, RangeStats&,
                                       ThreadPool*) const;

void flush_range_stats(obs::CampaignObserver* ob, RangeStats& st) {
  if (ob == nullptr) return;
  obs::MetricsRegistry& m = ob->metrics();
  if (!st.blocks.empty()) {
    m.add("slm.kernel.blocks_total", static_cast<double>(st.blocks.size()));
  }
  for (const auto& b : st.blocks) {
    m.observe("slm.kernel.block_kernel_seconds", b[0]);
    m.observe("slm.kernel.block_cpa_seconds", b[1]);
  }
  if (!st.gen_waits.empty()) {
    m.add("slm.pipeline.blocks_total",
          static_cast<double>(st.gen_waits.size()));
  }
  for (const double w : st.gen_waits) {
    m.observe("slm.pipeline.gen_wait_seconds", w);
  }
  st.blocks.clear();
  st.gen_waits.clear();
}

// ---------------------------------------------------------------------------
// Sinks: what differs between a byte campaign and a full-key campaign.

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// The checkpoint's progress section: a progress curve is its point count
// followed by the points.
void put_progress(ByteWriter& out,
                  const std::vector<sca::CpaProgressPoint>& curve) {
  out.put_u64(curve.size());
  for (const sca::CpaProgressPoint& p : curve) {
    out.put_u64(p.traces);
    out.put_u64(p.best_guess);
    out.put_u64(p.correct_rank);
    out.put_f64(p.correct_corr);
    out.put_f64(p.best_wrong_corr);
    out.put_f64_vector(p.max_abs_corr);
  }
}

std::vector<sca::CpaProgressPoint> get_progress(ByteReader& in) {
  const std::uint64_t n = in.get_u64();
  // Each point takes at least 48 bytes: a hostile count fails here, not
  // in a huge reserve.
  SLM_REQUIRE(n <= in.remaining() / 48,
              "checkpoint: progress curve overruns its section");
  std::vector<sca::CpaProgressPoint> curve(n);
  for (sca::CpaProgressPoint& p : curve) {
    p.traces = in.get_u64();
    p.best_guess = in.get_u64();
    p.correct_rank = in.get_u64();
    p.correct_corr = in.get_f64();
    p.best_wrong_corr = in.get_f64();
    p.max_abs_corr = in.get_f64_vector();
  }
  return curve;
}

/// One last-round key byte through sca::XorClassCpa.
struct ByteSink {
  using Acc = sca::XorClassCpa;
  static constexpr bool kFullKey = false;
  static constexpr store::StoreKind kStoreKind =
      store::StoreKind::kByteCampaign;

  CampaignResult& r;
  sca::LastRoundBitModel model;
  sca::CpaEngine last;  ///< fold at the latest checkpoint

  ByteSink(CampaignResult& result, const CampaignConfig& cfg,
           std::size_t samples, const crypto::Block& lrk)
      : r(result),
        model(cfg.target_key_byte, cfg.target_bit),
        last(256, samples) {
    r.correct_guess = model.correct_guess(lrk);
  }

  std::vector<sca::LastRoundBitModel> models() const { return {model}; }
  void start(obs::CampaignObserver*) const {}
  void restore(ByteReader& in) { r.progress = get_progress(in); }
  void save(ByteWriter& out) const { put_progress(out, r.progress); }

  void fold(const Acc& merged, std::size_t, obs::CampaignObserver*) {
    last = merged.fold(model.pattern().data());
    r.progress.push_back(sca::snapshot_progress(last, r.correct_guess));
  }

  void report(obs::CampaignObserver* ob, double rate,
              const std::string& shard_traces) const {
    const sca::CpaProgressPoint& p = r.progress.back();
    ob->metrics().set("slm.cpa.best_guess", static_cast<double>(p.best_guess));
    ob->metrics().set("slm.cpa.correct_corr", p.correct_corr);
    ob->metrics().set("slm.cpa.corr_margin",
                      p.correct_corr - p.best_wrong_corr);
    ob->event("checkpoint",
              obs::JsonWriter()
                  .field("traces", static_cast<std::uint64_t>(p.traces))
                  .field("best_guess", static_cast<std::uint64_t>(p.best_guess))
                  .field("correct_rank",
                         static_cast<std::uint64_t>(p.correct_rank))
                  .field("correct_corr", p.correct_corr)
                  .field("best_wrong_corr", p.best_wrong_corr)
                  .field("corr_margin", p.correct_corr - p.best_wrong_corr)
                  .field("traces_per_sec", rate)
                  .raw("shard_traces", shard_traces));
  }

  void finish() {
    r.traces_run = last.trace_count();
    r.final_max_abs_corr = last.max_abs_correlation();
    r.recovered_guess = static_cast<std::uint8_t>(last.best_guess());
    r.key_recovered = r.recovered_guess == r.correct_guess;
    r.mtd = sca::estimate_mtd(r.progress);
  }
};

/// All sixteen last-round key bytes through sca::MultiByteCpa, with the
/// per-byte early-exit state machine (docs/FULLKEY.md).
struct FullKeySink {
  using Acc = sca::MultiByteCpa;
  static constexpr bool kFullKey = true;
  static constexpr store::StoreKind kStoreKind = store::StoreKind::kFullKey;
  static constexpr std::size_t kBytes = sca::MultiByteCpa::kBytes;

  struct ByteState {
    bool converged = false;
    std::size_t stable = 0;
    std::size_t prev_best = 256;  ///< 256 = no previous checkpoint yet
  };

  FullKeyRunResult& r;
  const FullKeyConfig& fk;
  std::vector<sca::LastRoundBitModel> byte_models;
  std::array<ByteState, kBytes> state;
  std::size_t converged = 0;

  FullKeySink(FullKeyRunResult& result, const FullKeyConfig& fk_cfg,
              const CampaignConfig& cfg, const crypto::Block& lrk)
      : r(result), fk(fk_cfg) {
    for (std::size_t j = 0; j < kBytes; ++j) {
      byte_models.emplace_back(j, cfg.target_bit);
      r.bytes[j].correct = byte_models[j].correct_guess(lrk);
    }
  }

  std::vector<sca::LastRoundBitModel> models() const { return byte_models; }

  void start(obs::CampaignObserver* ob) const {
    ob->metrics().set("slm.fullkey.bytes_total", static_cast<double>(kBytes));
  }

  // Per byte: the early-exit state, the frozen result when converged,
  // and the byte's progress curve.
  void restore(ByteReader& in) {
    for (std::size_t j = 0; j < kBytes; ++j) {
      state[j].converged = in.get_u8() != 0;
      state[j].stable = static_cast<std::size_t>(in.get_u64());
      state[j].prev_best = static_cast<std::size_t>(in.get_u64());
      FullKeyByteResult& br = r.bytes[j];
      if (state[j].converged) {
        ++converged;
        br.recovered = in.get_u8();
        br.traces = static_cast<std::size_t>(in.get_u64());
        br.final_max_abs_corr = in.get_f64_vector();
        br.early_exited = true;
        br.success = br.recovered == br.correct;
      }
      br.progress = get_progress(in);
    }
  }

  void save(ByteWriter& out) const {
    for (std::size_t j = 0; j < kBytes; ++j) {
      out.put_u8(state[j].converged ? 1 : 0);
      out.put_u64(state[j].stable);
      out.put_u64(state[j].prev_best);
      const FullKeyByteResult& br = r.bytes[j];
      if (state[j].converged) {
        out.put_u8(br.recovered);
        out.put_u64(br.traces);
        out.put_f64_vector(br.final_max_abs_corr);
      }
      put_progress(out, br.progress);
    }
  }

  // Converged bytes freeze their result and skip the fold; the shared
  // capture keeps feeding their accumulator slice regardless.
  void fold(const Acc& merged, std::size_t cp, obs::CampaignObserver* ob) {
    for (std::size_t j = 0; j < kBytes; ++j) {
      if (state[j].converged) continue;
      const sca::CpaEngine folded =
          merged.fold(j, byte_models[j].pattern().data());
      FullKeyByteResult& br = r.bytes[j];
      sca::CpaProgressPoint p = sca::snapshot_progress(folded, br.correct);
      const double margin = sca::winner_margin(p);
      const bool qualify = fk.early_exit && cp >= fk.early_exit_min_traces &&
                           state[j].prev_best == p.best_guess &&
                           margin >= fk.early_exit_margin;
      state[j].stable = qualify ? state[j].stable + 1 : 0;
      state[j].prev_best = p.best_guess;
      br.progress.push_back(std::move(p));
      if (!qualify || state[j].stable < fk.early_exit_stable) continue;
      const sca::CpaProgressPoint& fp = br.progress.back();
      state[j].converged = true;
      ++converged;
      br.recovered = static_cast<std::uint8_t>(fp.best_guess);
      br.traces = cp;
      br.final_max_abs_corr = fp.max_abs_corr;
      br.early_exited = true;
      br.success = br.recovered == br.correct;
      if (ob != nullptr) {
        ob->metrics().add("slm.fullkey.converged_total");
        ob->metrics().observe("slm.fullkey.convergence_traces",
                              static_cast<double>(cp));
        ob->event("fullkey_byte_converged",
                  obs::JsonWriter()
                      .field("byte", static_cast<std::uint64_t>(j))
                      .field("traces", static_cast<std::uint64_t>(cp))
                      .field("guess", static_cast<std::uint64_t>(br.recovered))
                      .field("margin", margin));
      }
    }
    r.traces_run = merged.trace_count();
  }

  void report(obs::CampaignObserver* ob, double rate,
              const std::string& shard_traces) const {
    const std::size_t done = r.traces_run;
    ob->metrics().set("slm.fullkey.bytes_converged",
                      static_cast<double>(converged));
    ob->event("fullkey_checkpoint",
              obs::JsonWriter()
                  .field("traces", static_cast<std::uint64_t>(done))
                  .field("bytes_converged",
                         static_cast<std::uint64_t>(converged))
                  .field("bytes_active",
                         static_cast<std::uint64_t>(kBytes - converged))
                  .field("traces_per_sec", rate)
                  .raw("shard_traces", shard_traces));
  }

  // Bytes that never froze report their fold at the final checkpoint
  // (the schedule always ends at the trace budget).
  void finish() {
    for (FullKeyByteResult& br : r.bytes) {
      if (!br.early_exited) {
        const sca::CpaProgressPoint& fp = br.progress.back();
        br.recovered = static_cast<std::uint8_t>(fp.best_guess);
        br.traces = fp.traces;
        br.final_max_abs_corr = fp.max_abs_corr;
        br.success = br.recovered == br.correct;
      }
      br.mtd = sca::estimate_mtd(br.progress);
    }
  }
};

}  // namespace

// Selection, resume, the checkpoint-segment loop over T shards, and the
// final accounting. `run` is the result's shared part.
template <class Sink>
void CampaignEngine::drive(CpaCampaign& c, unsigned T, Sink& sink,
                           CampaignRun& run) {
  using Acc = typename Sink::Acc;
  const CampaignConfig& cfg = c.cfg_;
  obs::CampaignObserver* const ob = cfg.observer;
  const std::size_t samples = c.sample_times_.size();
  run.mode = cfg.mode;
  run.sample_times_ns = c.sample_times_;

  // The campaign identity stamped into stores and checkpoints hashes the
  // *requested* endpoint bit, so it is built before bit resolution. A
  // store cannot combine with resume: a resumed run does not regenerate
  // the traces already captured.
  const store::StoreIdentity identity =
      c.store_identity(Sink::kStoreKind, cfg.traces);
  std::unique_ptr<store::TraceStoreWriter> store_writer;
  if (!cfg.store_out.empty()) {
    SLM_REQUIRE(!cfg.resume,
                "store_out: cannot combine with resume — traces captured "
                "before the snapshot would be missing from the store");
    store_writer =
        std::make_unique<store::TraceStoreWriter>(cfg.store_out, identity);
    store_writer->set_capture_threads(T);
  }

  {
    const auto sel_start = std::chrono::steady_clock::now();
    std::optional<obs::CampaignObserver::Span> span;
    if (ob != nullptr) span.emplace(ob->span("selection"));
    run.bits_of_interest = c.resolve_sensor_bits();
    run.selection_seconds = seconds_since(sel_start);
  }
  run.single_bit = c.cfg_.single_bit;
  if (store_writer) store_writer->set_resolved_single_bit(run.single_bit);

  // Checkpoint schedule, always ending at the budget.
  std::vector<std::size_t> checkpoints;
  for (std::size_t cp : checkpoint_schedule(cfg.checkpoints, cfg.traces)) {
    if (cp > 0 && cp <= cfg.traces) checkpoints.push_back(cp);
  }
  if (checkpoints.empty() || checkpoints.back() != cfg.traces) {
    checkpoints.push_back(cfg.traces);
  }

  const CaptureKernel kernel(c, run.bits_of_interest, sink.models(),
                             store_writer.get());
  run.block_size = kernel.block();

  std::vector<Acc> accs(T, Acc(samples));
  std::vector<std::uint64_t> positions(T, 0);
  std::vector<RangeStats> stats(T);
  for (RangeStats& st : stats) st.timed = ob != nullptr;

  // Crash-safe resume: the checkpoint holds the merged accumulator over
  // [0, covered), so it seeds shard 0 and any thread count continues it
  // (integer sums); every stream re-derives from (seed, trace index).
  std::size_t covered = 0;
  const bool snapshotting = !cfg.checkpoint_dir.empty();
  const std::string ckpt_path =
      snapshotting ? checkpoint_file(cfg.checkpoint_dir) : std::string();
  if (cfg.resume && snapshotting) {
    if (auto ck = load_checkpoint(cfg.checkpoint_dir, identity)) {
      ByteReader acc_in(ck->accumulator.data(), ck->accumulator.size());
      accs[0].load(acc_in);
      ByteReader progress_in(ck->progress.data(), ck->progress.size());
      sink.restore(progress_in);
      SLM_REQUIRE(acc_in.done() && progress_in.done(),
                  "resume: trailing bytes in checkpoint '" + ckpt_path + "'");
      covered = static_cast<std::size_t>(ck->ranges[0].end);
      positions[0] = covered;
      run.resumed_from = covered;
      checkpoints.erase(
          std::remove_if(checkpoints.begin(), checkpoints.end(),
                         [&](std::size_t cp) { return cp <= covered; }),
          checkpoints.end());
      log_info() << (Sink::kFullKey ? "fullkey" : "campaign")
                 << ": resumed from " << ckpt_path << " at trace " << covered
                 << "/" << cfg.traces << " across " << T << " shard(s)";
      if (ob != nullptr) {
        ob->metrics().add("slm.checkpoint.resumes_total");
        ob->event("resume",
                  obs::JsonWriter()
                      .field("traces_done", static_cast<std::uint64_t>(covered))
                      .field("shards", static_cast<std::uint64_t>(T))
                      .field("path", ckpt_path));
      }
    }
  }

  // T shards run on the borrowed pool (serve multiplexes every tenant
  // over one) or a private one; a single shard runs on this thread, with
  // a one-thread producer when the kernel overlaps generation.
  std::optional<ThreadPool> owned_pool;
  ThreadPool* pool = nullptr;
  if (T > 1) pool = cfg.pool != nullptr ? cfg.pool : &owned_pool.emplace(T);
  std::optional<ThreadPool> producer;
  if (T == 1 && kernel.overlaps_generation()) producer.emplace(1);

  if (ob != nullptr) {
    ob->metrics().set("slm.campaign.traces_target",
                      static_cast<double>(cfg.traces));
    ob->metrics().set("slm.kernel.block_size",
                      static_cast<double>(run.block_size));
    if (producer) ob->metrics().set("slm.pipeline.depth", 2.0);
    sink.start(ob);
    ob->event("run_start",
              obs::JsonWriter()
                  .field("mode", sensor_mode_name(cfg.mode))
                  .field("fullkey", Sink::kFullKey)
                  .field("traces", static_cast<std::uint64_t>(cfg.traces))
                  .field("seed", static_cast<std::uint64_t>(cfg.seed))
                  .field("threads", static_cast<std::uint64_t>(T))
                  .field("block", static_cast<std::uint64_t>(run.block_size))
                  .field("rng_contract", rng_contract_name(RngContract::kV2))
                  .field("resumed_from",
                         static_cast<std::uint64_t>(run.resumed_from)));
  }

  double fold_s = 0.0;
  double ckpt_io_s = 0.0;
  std::size_t seg_traces = covered;
  double seg_time = ob != nullptr ? obs::monotonic_seconds() : 0.0;
  for (const std::size_t cp : checkpoints) {
    {
      std::optional<obs::CampaignObserver::Span> span;
      if (ob != nullptr) span.emplace(ob->span("capture"));
      const std::size_t n = cp - covered;
      const auto chunk = [&](std::size_t i) {
        const std::uint64_t g0 = covered + i * n / T;
        const std::uint64_t g1 = covered + (i + 1) * n / T;
        kernel.run_range(g0, g1, accs[i], stats[i],
                         producer ? &*producer : nullptr);
        positions[i] += g1 - g0;
      };
      if (pool != nullptr) {
        pool->run_indexed(T, chunk);
      } else {
        chunk(0);
      }
    }
    covered = cp;
    for (RangeStats& st : stats) flush_range_stats(ob, st);

    // Merge in fixed shard order (integer sums: any order is bit-exact),
    // then fold through the sink. The checkpoint saves the same merge.
    std::optional<Acc> merged;
    {
      std::optional<obs::CampaignObserver::Span> span;
      if (ob != nullptr) span.emplace(ob->span("merge"));
      const double m0 = obs::monotonic_seconds();
      if (T > 1) {
        merged.emplace(samples);
        for (const Acc& a : accs) merged->merge(a);
      }
      sink.fold(merged ? *merged : accs[0], cp, ob);
      fold_s += obs::monotonic_seconds() - m0;
    }

    if (ob != nullptr) {
      const double now = obs::monotonic_seconds();
      const double rate =
          now > seg_time ? static_cast<double>(cp - seg_traces) / (now - seg_time)
                         : 0.0;
      ob->metrics().add("slm.campaign.checkpoints_total");
      ob->metrics().set("slm.campaign.traces_done", static_cast<double>(cp));
      ob->metrics().observe("slm.campaign.segment_traces_per_sec", rate);
      std::string shard_traces = "[";
      for (unsigned i = 0; i < T; ++i) {
        if (i > 0) shard_traces += ',';
        shard_traces += std::to_string(positions[i]);
      }
      shard_traces += ']';
      sink.report(ob, rate, shard_traces);
      seg_traces = cp;
      seg_time = now;
    }

    if (snapshotting) {
      std::optional<obs::CampaignObserver::Span> span;
      if (ob != nullptr) span.emplace(ob->span("checkpoint"));
      const double s0 = obs::monotonic_seconds();
      AccumulatorSnapshot ck;
      ck.id = identity;
      ck.ranges = {TraceRange{0, cp}};
      ByteWriter acc;
      (merged ? *merged : accs[0]).save(acc);
      ck.accumulator = acc.take();
      ByteWriter progress;
      sink.save(progress);
      ck.progress = progress.take();
      const std::size_t bytes = save_snapshot(ckpt_path, ck);
      run.snapshot_path = ckpt_path;
      const double io = obs::monotonic_seconds() - s0;
      ckpt_io_s += io;
      if (ob != nullptr) {
        ob->metrics().add("slm.checkpoint.snapshots_total");
        ob->metrics().add("slm.checkpoint.bytes_total",
                          static_cast<double>(bytes));
        ob->metrics().observe("slm.checkpoint.write_seconds", io);
        ob->event("snapshot",
                  obs::JsonWriter()
                      .field("traces", static_cast<std::uint64_t>(cp))
                      .field("bytes", static_cast<std::uint64_t>(bytes))
                      .field("seconds", io)
                      .field("path", run.snapshot_path));
      }
    }

    if (cfg.halt_after_traces > 0 && cp >= cfg.halt_after_traces) {
      if (ob != nullptr) {
        ob->event("halt", obs::JsonWriter()
                              .field("traces", static_cast<std::uint64_t>(cp))
                              .field("path", run.snapshot_path));
      }
      throw CampaignHalted(cp, run.snapshot_path);
    }
  }

  if (store_writer) finalize_trace_store(*store_writer, ob);
  sink.finish();

  // Phase split: kernel/cpa sum worker-thread time (CPU seconds when
  // sharded); the checkpoint merge + fold counts once, as CPA time.
  run.cpa_seconds = ob != nullptr ? fold_s : 0.0;
  for (const RangeStats& st : stats) {
    run.kernel_seconds += st.kernel_seconds;
    run.cpa_seconds += st.cpa_seconds;
  }
  run.checkpoint_io_seconds = ckpt_io_s;
  run.threads_used = T;
  if (ob != nullptr) {
    ob->metrics().set("slm.campaign.kernel_seconds", run.kernel_seconds);
    ob->metrics().set("slm.campaign.cpa_seconds", run.cpa_seconds);
    ob->metrics().set("slm.campaign.checkpoint_io_seconds", ckpt_io_s);
    ob->metrics().set("slm.campaign.selection_seconds",
                      run.selection_seconds);
  }
}

CampaignResult CampaignEngine::run_byte(CpaCampaign& campaign,
                                        unsigned threads) {
  const auto t0 = std::chrono::steady_clock::now();
  CampaignResult result;
  ByteSink sink(result, campaign.cfg_, campaign.sample_times_.size(),
                campaign.setup_.victim().cipher().last_round_key());
  drive(campaign, threads, sink, result);
  result.capture_seconds = seconds_since(t0);
  return result;
}

FullKeyRunResult CampaignEngine::run_fullkey(CpaCampaign& campaign,
                                             const FullKeyConfig& fk,
                                             unsigned threads) {
  const auto t0 = std::chrono::steady_clock::now();
  FullKeyRunResult result;
  FullKeySink sink(result, fk, campaign.cfg_,
                   campaign.setup_.victim().cipher().last_round_key());
  drive(campaign, threads, sink, result);
  result.capture_seconds = seconds_since(t0);
  return result;
}

}  // namespace slm::core
