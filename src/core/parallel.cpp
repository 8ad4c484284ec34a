#include "core/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/binio.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "core/checkpoint.hpp"
#include "obs/observer.hpp"
#include "sca/model.hpp"
#include "store/trace_store.hpp"

namespace slm::core {

unsigned resolve_threads(unsigned requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::size_t shard_quota(std::size_t total, std::size_t shard,
                        std::size_t shards) {
  SLM_REQUIRE(shards > 0 && shard < shards, "shard_quota: bad shard index");
  // Round-robin: 1-based trace t belongs to shard (t - 1) % shards, so
  // shard i has seen floor((total - i + shards - 1) / shards) traces.
  if (total <= shard) return 0;
  return (total - shard + shards - 1) / shards;
}

struct ThreadPool::Impl {
  std::vector<std::thread> workers;
  std::mutex m;
  std::condition_variable cv_work;
  std::condition_variable cv_done;
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t n = 0;
  std::atomic<std::size_t> next{0};
  std::size_t workers_done = 0;
  std::uint64_t generation = 0;
  bool stop = false;
  std::exception_ptr error;
  // submit_indexed/wait state: the pool-owned copy of the callable and
  // whether an async batch is outstanding (wait() without a submit must
  // return immediately, not deadlock on workers_done).
  std::function<void(std::size_t)> owned_fn;
  bool in_flight = false;

  void worker_loop() {
    std::uint64_t seen = 0;
    for (;;) {
      std::unique_lock<std::mutex> lk(m);
      cv_work.wait(lk, [&] { return stop || generation != seen; });
      // Drain a pending batch before honouring stop: the destructor
      // must join (not abandon) a batch submitted via submit_indexed.
      if (generation == seen) return;
      seen = generation;
      lk.unlock();
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) break;
        try {
          (*fn)(i);
        } catch (...) {
          std::lock_guard<std::mutex> g(m);
          if (!error) error = std::current_exception();
        }
      }
      lk.lock();
      if (++workers_done == workers.size()) cv_done.notify_all();
    }
  }
};

ThreadPool::ThreadPool(unsigned threads) : impl_(new Impl) {
  SLM_REQUIRE(threads > 0, "ThreadPool: zero threads");
  impl_->workers.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> g(impl_->m);
    impl_->stop = true;
  }
  impl_->cv_work.notify_all();
  for (auto& w : impl_->workers) w.join();
  delete impl_;
}

unsigned ThreadPool::size() const {
  return static_cast<unsigned>(impl_->workers.size());
}

void ThreadPool::run_indexed(std::size_t n,
                             const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  std::unique_lock<std::mutex> lk(impl_->m);
  impl_->fn = &fn;
  impl_->n = n;
  impl_->next.store(0, std::memory_order_relaxed);
  impl_->workers_done = 0;
  impl_->error = nullptr;
  ++impl_->generation;
  impl_->cv_work.notify_all();
  impl_->cv_done.wait(
      lk, [&] { return impl_->workers_done == impl_->workers.size(); });
  impl_->fn = nullptr;
  if (impl_->error) std::rethrow_exception(impl_->error);
}

void ThreadPool::submit_indexed(std::size_t n,
                                std::function<void(std::size_t)> fn) {
  if (n == 0) return;
  std::lock_guard<std::mutex> lk(impl_->m);
  SLM_REQUIRE(!impl_->in_flight,
              "ThreadPool: submit_indexed while a batch is in flight");
  impl_->owned_fn = std::move(fn);
  impl_->fn = &impl_->owned_fn;
  impl_->n = n;
  impl_->next.store(0, std::memory_order_relaxed);
  impl_->workers_done = 0;
  impl_->error = nullptr;
  impl_->in_flight = true;
  ++impl_->generation;
  impl_->cv_work.notify_all();
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> lk(impl_->m);
  if (!impl_->in_flight) return;
  impl_->cv_done.wait(
      lk, [&] { return impl_->workers_done == impl_->workers.size(); });
  impl_->in_flight = false;
  impl_->fn = nullptr;
  if (impl_->error) {
    const std::exception_ptr e = impl_->error;
    impl_->error = nullptr;
    std::rethrow_exception(e);
  }
}

ParallelCampaign::ParallelCampaign(AttackSetup& setup,
                                   const CampaignConfig& cfg,
                                   unsigned threads)
    : setup_(setup), cfg_(cfg), threads_(resolve_threads(threads)) {
  // A borrowed pool fixes the worker count: the shard split must match
  // the threads actually running it, or run_indexed would starve shards.
  if (cfg_.pool != nullptr) threads_ = cfg_.pool->size();
  // Never spin up more shards than traces: each shard must own at least
  // one trace or its CpaEngine would merge as an empty no-op anyway.
  threads_ = static_cast<unsigned>(std::min<std::size_t>(
      threads_, std::max<std::size_t>(1, cfg_.traces)));
}

CampaignResult ParallelCampaign::run() {
  const auto t0 = std::chrono::steady_clock::now();
  CampaignResult result;
  if (threads_ <= 1) {
    // Exact legacy behaviour: same code path, same RNG consumption order
    // as every pre-sharding release.
    CpaCampaign campaign(setup_, cfg_);
    result = campaign.run();
  } else {
    result = run_sharded();
  }
  result.threads_used = threads_;
  result.capture_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

CampaignResult ParallelCampaign::run_sharded() {
  CpaCampaign campaign(setup_, cfg_);
  obs::CampaignObserver* const ob = cfg_.observer;
  CampaignResult result;
  result.mode = cfg_.mode;
  result.sample_times_ns = campaign.sample_times_;

  sca::LastRoundBitModel model(cfg_.target_key_byte, cfg_.target_bit);
  result.correct_guess =
      model.correct_guess(setup_.victim().cipher().last_round_key());

  // Trace store: same fingerprint rule as the serial engine — created
  // before bit resolution so the hash covers the requested endpoint bit.
  // Shards write disjoint rows of the store's columns, so no locking.
  std::unique_ptr<store::TraceStoreWriter> store_writer;
  if (!cfg_.store_out.empty()) {
    SLM_REQUIRE(!cfg_.resume,
                "store_out: cannot combine with resume — traces captured "
                "before the snapshot would be missing from the store");
    store_writer = std::make_unique<store::TraceStoreWriter>(
        cfg_.store_out,
        campaign.store_identity(store::StoreKind::kByteCampaign,
                                cfg_.traces));
    store_writer->set_capture_threads(threads_);
  }

  // Selection pre-pass runs serially, exactly as in the serial campaign;
  // it resolves kAutoBit into campaign.cfg_ for read_sensor below.
  {
    const auto sel_start = std::chrono::steady_clock::now();
    std::optional<obs::CampaignObserver::Span> span;
    if (ob != nullptr) span.emplace(ob->span("selection"));
    campaign.resolve_sensor_bits(&result);
    result.selection_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      sel_start)
            .count();
  }
  result.single_bit = campaign.cfg_.single_bit;
  if (store_writer) {
    store_writer->set_resolved_single_bit(campaign.cfg_.single_bit);
  }

  auto schedule = cfg_.checkpoints.empty() ? default_checkpoints(cfg_.traces)
                                           : cfg_.checkpoints;
  std::sort(schedule.begin(), schedule.end());
  std::vector<std::size_t> checkpoints;
  for (std::size_t c : schedule) {
    if (c > 0 && c <= cfg_.traces) checkpoints.push_back(c);
  }
  if (checkpoints.empty() || checkpoints.back() != cfg_.traces) {
    checkpoints.push_back(cfg_.traces);
  }

  const std::size_t samples = campaign.sample_times_.size();
  const unsigned T = threads_;

  // RNG determinism contract (DESIGN.md §7/§12). Contract v2 assigns
  // every shard a contiguous chunk of the global trace sequence per
  // checkpoint segment and derives each trace's draws statelessly from
  // (seed, trace index) — results are bit-identical to the serial v2
  // engine for ANY thread count. Contract v1 keeps the historical
  // round-robin shard streams (results depend on the thread count).
  const RngContract contract = resolve_contract(cfg_.rng_contract);
  const bool v2 = contract == RngContract::kV2;
  result.rng_contract = contract;

  // Block-batched pipeline, one block loop per shard (DESIGN.md §11).
  // Shards clamp their blocks at per-checkpoint quotas, so shard trace
  // ownership and RNG streams are independent of the block size.
  const std::size_t block = resolve_block(cfg_.block);
  const bool simd = resolve_simd(cfg_.simd);
  result.block_size = block;
  const bool blocked = block > 1;

  // Compiled fast path: a read-only sensor plan shared by all shards (the
  // batch kernels use thread_local scratch, so sharing is safe) and a
  // per-shard class-sum accumulator folded into full CPA sums only at
  // checkpoints. Bit-identical to the reference path — see XorClassCpa.
  const bool fast = cfg_.compiled_kernels;
  const CpaCampaign::SensorPlan plan =
      fast ? campaign.make_sensor_plan(result.bits_of_interest)
           : CpaCampaign::SensorPlan{};
  const bool defer_hw = blocked && fast && plan.batched &&
                        cfg_.mode == SensorMode::kBenignHw;
  const std::size_t dps = plan.hw.draws_per_sample;
  // Deferred-HW shards also defer the PDN voltage matvec (see the serial
  // engine): currents are staged cycle-major per block and evaluated
  // through CycleResponseMatrix::voltages_block in the compute pass.
  const std::size_t ncyc = campaign.response_.cycle_count();
  const double coupling = setup_.effective_coupling();
  const double env_noise_v = setup_.calibration().env_noise_v;

  // The mutable half of the capture pipeline, one copy per shard.
  struct Shard {
    crypto::AesDatapathModel victim;
    std::optional<defense::ActiveFence> fence;
    Xoshiro256 rng;
    sca::CpaEngine engine;
    sca::XorClassCpa cls;
    std::size_t position = 0;
    std::vector<double> v;
    std::vector<double> y;
    std::vector<std::uint8_t> h;
    // Block staging buffers (blocked path only; sized lazily per shard).
    std::vector<double> vblk;
    std::vector<double> zblk;
    std::vector<double> icblk;
    std::vector<double> zvblk;
    std::vector<double> yblk;
    std::vector<std::uint8_t> clsv;
    std::vector<std::uint8_t> clsb;
    std::vector<std::uint8_t> hblk;
    // Observer-gated phase timers, accumulated thread-locally and pushed
    // into the registry only at checkpoint boundaries (workers never
    // touch the registry mutex mid-segment). `blocks` follows the same
    // batching rule for the slm.kernel.blocks_total counter.
    double kernel_s = 0.0;
    double cpa_s = 0.0;
    std::size_t blocks = 0;
  };
  std::vector<Shard> shards;
  shards.reserve(T);
  const bool fenced = cfg_.fence.random_current_a > 0.0 ||
                      cfg_.fence.base_current_a > 0.0;
  for (unsigned i = 0; i < T; ++i) {
    Shard sh{setup_.victim(),
             std::nullopt,
             Xoshiro256::stream(cfg_.seed, i),
             sca::CpaEngine(256, samples),
             sca::XorClassCpa(samples),
             0,
             {},
             {},
             {}};
    if (fenced) {
      defense::ActiveFenceConfig fc = cfg_.fence;
      // v1 gives every shard its own decorrelated sequential fence
      // stream. v2 derives fence draws per trace from the UNPERTURBED
      // fence seed (ActiveFence::trace_rng), so the per-shard seed must
      // stay the campaign's — otherwise results would depend on which
      // shard captured a trace.
      if (!v2) fc.seed ^= 0x9e3779b97f4a7c15ull * (i + 1);
      sh.fence.emplace(fc);
    }
    shards.push_back(std::move(sh));
  }

  // Crash-safe resume: restore every shard's accumulator, RNG stream,
  // victim register history, and fence stream; then drop the checkpoints
  // the snapshot already recorded. Shard count must match — shard i's
  // traces depend only on (seed, i), so resuming under a different
  // --threads would be a different campaign.
  std::size_t traces_done = 0;
  const bool snapshotting = !cfg_.checkpoint_dir.empty();
  if (cfg_.resume && snapshotting) {
    if (auto ck = load_checkpoint(cfg_.checkpoint_dir)) {
      require_checkpoint_matches(*ck, campaign.cfg_, T, samples,
                                 static_cast<std::uint32_t>(contract));
      for (unsigned i = 0; i < T; ++i) {
        const CheckpointShard& cs = ck->shard_state[i];
        Shard& sh = shards[i];
        SLM_REQUIRE(cs.has_fence == sh.fence.has_value(),
                    "resume: fence configuration differs from snapshot");
        sh.position = static_cast<std::size_t>(cs.position);
        if (!v2) {
          // v2 re-derives streams and register chains from (seed, trace
          // index); only positions and accumulator sums carry over.
          sh.rng.set_state(cs.rng);
          sh.victim.restore_registers(cs.victim);
          if (sh.fence) sh.fence->set_rng_state(cs.fence_rng);
        }
        ByteReader acc(cs.accumulator.data(), cs.accumulator.size());
        if (fast) {
          sh.cls.load(acc);
        } else {
          sh.engine.load(acc);
        }
        SLM_REQUIRE(acc.done(), "resume: trailing accumulator bytes");
      }
      result.progress = ck->progress;
      traces_done = static_cast<std::size_t>(ck->traces_done);
      result.resumed_from = traces_done;
      checkpoints.erase(
          std::remove_if(checkpoints.begin(), checkpoints.end(),
                         [&](std::size_t c) { return c <= traces_done; }),
          checkpoints.end());
      log_info() << "campaign: resumed from "
                 << checkpoint_file(cfg_.checkpoint_dir) << " at trace "
                 << traces_done << "/" << cfg_.traces << " across " << T
                 << " shards";
      if (ob != nullptr) {
        ob->metrics().add("slm.checkpoint.resumes_total");
        ob->event("resume",
                  obs::JsonWriter()
                      .field("traces_done",
                             static_cast<std::uint64_t>(traces_done))
                      .field("shards", static_cast<std::uint64_t>(T))
                      .field("path", checkpoint_file(cfg_.checkpoint_dir)));
      }
    }
  }

  if (ob != nullptr) {
    ob->metrics().set("slm.campaign.traces_target",
                      static_cast<double>(cfg_.traces));
    ob->metrics().set("slm.kernel.block_size", static_cast<double>(block));
    ob->event("run_start",
              obs::JsonWriter()
                  .field("mode", sensor_mode_name(cfg_.mode))
                  .field("traces", static_cast<std::uint64_t>(cfg_.traces))
                  .field("seed", static_cast<std::uint64_t>(cfg_.seed))
                  .field("threads", static_cast<std::uint64_t>(T))
                  .field("compiled", fast)
                  .field("block", static_cast<std::uint64_t>(block))
                  .field("rng_contract", rng_contract_name(contract))
                  .field("resumed_from",
                         static_cast<std::uint64_t>(result.resumed_from)));
  }

  const bool timed = ob != nullptr;
  double ckpt_io_s = 0.0;
  std::size_t seg_traces = traces_done;
  double seg_time = timed ? obs::monotonic_seconds() : 0.0;

  // Shard over the caller's pool when one is borrowed (the `slm serve`
  // daemon shares ONE pool across every tenant's campaigns); otherwise
  // own a private pool for the duration of the run.
  std::optional<ThreadPool> owned_pool;
  ThreadPool& pool = cfg_.pool != nullptr ? *cfg_.pool : owned_pool.emplace(T);
  sca::CpaEngine merged(256, samples);
  // Contract v2 chunking state: global zero-based traces [0, covered)
  // are done; each segment [covered, cp) is split into contiguous
  // per-shard chunks.
  std::size_t covered = traces_done;
  for (std::size_t cp : checkpoints) {
    {
      std::optional<obs::CampaignObserver::Span> capture_span;
      if (ob != nullptr) capture_span.emplace(ob->span("capture"));
      pool.run_indexed(T, [&](std::size_t i) {
        Shard& sh = shards[i];
        if (v2) {
          // Shard i owns global traces [g0, g1) of this segment: lane-
          // parallel generation with counter-keyed per-trace streams,
          // no cross-shard RNG ordering at all.
          const std::size_t n = cp - covered;
          const std::size_t g0 = covered + i * n / T;
          const std::size_t g1 = covered + (i + 1) * n / T;
          if (g0 >= g1) return;
          if (blocked) {
            sh.yblk.resize(block * samples);
            sh.clsv.resize(block);
            sh.clsb.resize(block);
            if (defer_hw) {
              sh.vblk.resize(block * samples);
              sh.zblk.resize(block * samples * dps);
              sh.icblk.resize(ncyc * block);
              sh.zvblk.resize(block * samples);
            }
            if (!fast) sh.hblk.resize(block * 256);
          }
          // Incoming victim registers: derivable from the previous trace
          // alone (the state register is fully overwritten every
          // encryption), so a chunk costs one extra stateless AES.
          crypto::AesDatapathModel::RegisterSnapshot regs{};
          if (g0 > 0) {
            Xoshiro256 prev = Xoshiro256::trace_stream(
                cfg_.seed, kTraceDomainCapture, g0 - 1);
            crypto::Block prev_pt;
            for (auto& b : prev_pt) {
              b = static_cast<std::uint8_t>(prev.next());
            }
            regs = sh.victim.registers_after(prev_pt, g0 - 1);
          }
          std::size_t g = g0;
          while (g < g1) {
            const std::size_t bn = blocked ? std::min(block, g1 - g) : 1;
            const double t0 = timed ? obs::monotonic_seconds() : 0.0;
            double t1 = 0.0;
            for (std::size_t b = 0; b < bn; ++b) {
              const std::size_t gb = g + b;
              Xoshiro256 rng_t = Xoshiro256::trace_stream(
                  cfg_.seed, kTraceDomainCapture, gb);
              crypto::Block pt;
              for (auto& pb : pt) {
                pb = static_cast<std::uint8_t>(rng_t.next());
              }
              const auto enc = sh.victim.encrypt_stateless(pt, gb, regs);
              if (defer_hw) {
                // Same staging expressions as the serial v2 producer.
                if (sh.fence) {
                  Xoshiro256 frng = sh.fence->trace_rng(gb);
                  for (std::size_t c = 0; c < ncyc; ++c) {
                    double cur = enc.cycle_current[c];
                    cur += sh.fence->cycle_current(frng);
                    cur *= coupling;
                    sh.icblk[c * block + b] = cur;
                  }
                } else {
                  for (std::size_t c = 0; c < ncyc; ++c) {
                    double cur = enc.cycle_current[c];
                    cur *= coupling;
                    sh.icblk[c * block + b] = cur;
                  }
                }
                FastNormal::instance().fill(
                    rng_t, sh.zvblk.data() + b * samples, samples);
                FastNormal::instance().fill(
                    rng_t, sh.zblk.data() + b * samples * dps,
                    samples * dps);
              } else {
                std::optional<Xoshiro256> frng;
                Xoshiro256* fr = nullptr;
                if (sh.fence) {
                  frng.emplace(sh.fence->trace_rng(gb));
                  fr = &*frng;
                }
                campaign.make_voltages(enc, rng_t, sh.v,
                                       sh.fence ? &*sh.fence : nullptr, fr);
                if (fast) {
                  campaign.read_sensor_fast(plan, sh.v,
                                            result.bits_of_interest, rng_t,
                                            sh.y);
                } else {
                  campaign.read_sensor(sh.v, result.bits_of_interest, rng_t,
                                       sh.y);
                }
                if (!blocked) {
                  t1 = timed ? obs::monotonic_seconds() : 0.0;
                  if (fast) {
                    sh.cls.add_trace(model.class_value(enc.ciphertext),
                                     model.class_bit(enc.ciphertext), sh.y);
                  } else {
                    model.hypotheses(enc.ciphertext, sh.h);
                    sh.engine.add_trace(sh.h, sh.y);
                  }
                } else {
                  std::copy(sh.y.begin(), sh.y.end(),
                            sh.yblk.begin() + b * samples);
                  if (!fast) {
                    model.hypotheses(enc.ciphertext, sh.h);
                    std::copy(sh.h.begin(), sh.h.end(),
                              sh.hblk.begin() + b * 256);
                  }
                }
              }
              if (blocked && fast) {
                sh.clsv[b] = model.class_value(enc.ciphertext);
                sh.clsb[b] = model.class_bit(enc.ciphertext);
              }
              // v2 shards own contiguous global ranges, so both columns
              // land at gb with no cross-shard interleaving.
              if (store_writer) {
                store_writer->record_meta(gb, pt, enc.ciphertext);
                if (!blocked) store_writer->record_readings(gb, sh.y.data());
              }
            }
            if (blocked) {
              if (defer_hw) {
                campaign.response_.voltages_block(sh.icblk.data(), bn, block,
                                                  sh.vblk.data(), simd);
                for (std::size_t k = 0; k < bn * samples; ++k) {
                  sh.vblk[k] += 0.0 + env_noise_v * sh.zvblk[k];
                }
                setup_.sensor().toggle_hw_block(plan.hw, sh.vblk.data(),
                                                bn * samples,
                                                sh.zblk.data(),
                                                sh.yblk.data(), simd);
              }
              t1 = timed ? obs::monotonic_seconds() : 0.0;
              if (fast) {
                sh.cls.add_block(sh.clsv.data(), sh.clsb.data(),
                                 sh.yblk.data(), bn);
              } else {
                sh.engine.add_traces(sh.hblk.data(), sh.yblk.data(), bn);
              }
              ++sh.blocks;
              if (store_writer) {
                store_writer->record_readings_block(g, sh.yblk.data(), bn);
              }
            }
            sh.position += bn;
            g += bn;
            if (timed) {
              const double t2 = obs::monotonic_seconds();
              sh.kernel_s += t1 - t0;
              sh.cpa_s += t2 - t1;
            }
          }
          return;
        }
        const std::size_t target = shard_quota(cp, i, T);
        if (blocked && sh.position < target) {
          sh.yblk.resize(block * samples);
          sh.clsv.resize(block);
          sh.clsb.resize(block);
          if (defer_hw) {
            sh.vblk.resize(block * samples);
            sh.zblk.resize(block * samples * dps);
            sh.icblk.resize(ncyc * block);
            sh.zvblk.resize(block * samples);
          }
          if (!fast) sh.hblk.resize(block * 256);
        }
        while (sh.position < target) {
          const std::size_t bn =
              blocked ? std::min(block, target - sh.position) : 1;
          const double t0 = timed ? obs::monotonic_seconds() : 0.0;
          double t1 = 0.0;
          if (!blocked) {
            // block == 1: the exact per-trace shard loop body.
            crypto::Block pt;
            for (auto& b : pt) b = static_cast<std::uint8_t>(sh.rng.next());
            const auto enc = sh.victim.encrypt(pt);
            campaign.make_voltages(enc, sh.rng, sh.v,
                                   sh.fence ? &*sh.fence : nullptr);
            if (fast) {
              campaign.read_sensor_fast(plan, sh.v, result.bits_of_interest,
                                        sh.rng, sh.y);
              t1 = timed ? obs::monotonic_seconds() : 0.0;
              sh.cls.add_trace(model.class_value(enc.ciphertext),
                               model.class_bit(enc.ciphertext), sh.y);
            } else {
              campaign.read_sensor(sh.v, result.bits_of_interest, sh.rng,
                                   sh.y);
              t1 = timed ? obs::monotonic_seconds() : 0.0;
              model.hypotheses(enc.ciphertext, sh.h);
              sh.engine.add_trace(sh.h, sh.y);
            }
            // v1 round-robin ownership: shard i's p-th trace is global
            // trace p*T + i (zero-based).
            if (store_writer) {
              const std::size_t g = sh.position * T + i;
              store_writer->record_meta(g, pt, enc.ciphertext);
              store_writer->record_readings(g, sh.y.data());
            }
          } else {
            // Generation pass: all RNG consumption, per-trace order —
            // identical streams to the per-trace shard loop.
            for (std::size_t b = 0; b < bn; ++b) {
              crypto::Block pt;
              for (auto& pb : pt) {
                pb = static_cast<std::uint8_t>(sh.rng.next());
              }
              const auto enc = sh.victim.encrypt(pt);
              if (defer_hw) {
                // Same staging as the serial engine: scaled currents
                // cycle-major, noise draws in per-trace order, matvec
                // deferred to the compute pass.
                defense::ActiveFence* fence =
                    sh.fence ? &*sh.fence : nullptr;
                for (std::size_t c = 0; c < ncyc; ++c) {
                  double i = enc.cycle_current[c];
                  if (fence != nullptr) i += fence->next_cycle_current();
                  i *= coupling;
                  sh.icblk[c * block + b] = i;
                }
                FastNormal::instance().fill(
                    sh.rng, sh.zvblk.data() + b * samples, samples);
                FastNormal::instance().fill(
                    sh.rng, sh.zblk.data() + b * samples * dps,
                    samples * dps);
              } else if (fast) {
                campaign.make_voltages(enc, sh.rng, sh.v,
                                       sh.fence ? &*sh.fence : nullptr);
                campaign.read_sensor_fast(plan, sh.v,
                                          result.bits_of_interest, sh.rng,
                                          sh.y);
                std::copy(sh.y.begin(), sh.y.end(),
                          sh.yblk.begin() + b * samples);
              } else {
                campaign.make_voltages(enc, sh.rng, sh.v,
                                       sh.fence ? &*sh.fence : nullptr);
                campaign.read_sensor(sh.v, result.bits_of_interest, sh.rng,
                                     sh.y);
                std::copy(sh.y.begin(), sh.y.end(),
                          sh.yblk.begin() + b * samples);
                model.hypotheses(enc.ciphertext, sh.h);
                std::copy(sh.h.begin(), sh.h.end(),
                          sh.hblk.begin() + b * 256);
              }
              if (fast) {
                sh.clsv[b] = model.class_value(enc.ciphertext);
                sh.clsb[b] = model.class_bit(enc.ciphertext);
              }
              if (store_writer) {
                store_writer->record_meta((sh.position + b) * T + i, pt,
                                          enc.ciphertext);
              }
            }
            // Compute pass: RNG-free lane-parallel kernels.
            if (defer_hw) {
              campaign.response_.voltages_block(sh.icblk.data(), bn, block,
                                                sh.vblk.data(), simd);
              for (std::size_t i = 0; i < bn * samples; ++i) {
                sh.vblk[i] += 0.0 + env_noise_v * sh.zvblk[i];
              }
              setup_.sensor().toggle_hw_block(plan.hw, sh.vblk.data(),
                                              bn * samples, sh.zblk.data(),
                                              sh.yblk.data(), simd);
            }
            t1 = timed ? obs::monotonic_seconds() : 0.0;
            if (fast) {
              sh.cls.add_block(sh.clsv.data(), sh.clsb.data(),
                               sh.yblk.data(), bn);
            } else {
              sh.engine.add_traces(sh.hblk.data(), sh.yblk.data(), bn);
            }
            ++sh.blocks;
            // v1 blocked rows scatter stride-T into the global order.
            if (store_writer) {
              for (std::size_t b = 0; b < bn; ++b) {
                store_writer->record_readings((sh.position + b) * T + i,
                                              sh.yblk.data() + b * samples);
              }
            }
          }
          sh.position += bn;
          if (timed) {
            const double t2 = obs::monotonic_seconds();
            sh.kernel_s += t1 - t0;
            sh.cpa_s += t2 - t1;
          }
        }
      });
    }
    covered = cp;
    if (ob != nullptr && blocked) {
      // Per-shard block counts, batched to the checkpoint boundary like
      // the phase timers (workers never touch the registry mid-segment).
      double nb = 0.0;
      for (Shard& sh : shards) {
        nb += static_cast<double>(sh.blocks);
        sh.blocks = 0;
      }
      if (nb > 0.0) ob->metrics().add("slm.kernel.blocks_total", nb);
    }
    // Re-merge from scratch in fixed shard order: deterministic and,
    // because sensor readings are integer-valued, bit-exact vs. any
    // other summation order.
    {
      std::optional<obs::CampaignObserver::Span> merge_span;
      if (ob != nullptr) merge_span.emplace(ob->span("merge"));
      const double m0 = timed ? obs::monotonic_seconds() : 0.0;
      if (fast) {
        sca::XorClassCpa merged_cls(samples);
        for (const Shard& sh : shards) merged_cls.merge(sh.cls);
        merged = merged_cls.fold(model.pattern().data());
      } else {
        merged = sca::CpaEngine(256, samples);
        for (const Shard& sh : shards) merged.merge(sh.engine);
      }
      if (timed && !shards.empty()) {
        // Book merge/fold time against the CPA phase of shard 0 so the
        // final sum over shards counts it exactly once.
        shards[0].cpa_s += obs::monotonic_seconds() - m0;
      }
    }
    result.progress.push_back(
        sca::snapshot_progress(merged, result.correct_guess));

    if (ob != nullptr) {
      const sca::CpaProgressPoint& p = result.progress.back();
      const double now = obs::monotonic_seconds();
      const double seg_rate =
          now > seg_time
              ? static_cast<double>(cp - seg_traces) / (now - seg_time)
              : 0.0;
      ob->metrics().add("slm.campaign.checkpoints_total");
      ob->metrics().set("slm.campaign.traces_done", static_cast<double>(cp));
      ob->metrics().set("slm.cpa.best_guess",
                        static_cast<double>(p.best_guess));
      ob->metrics().set("slm.cpa.correct_corr", p.correct_corr);
      ob->metrics().set("slm.cpa.corr_margin",
                        p.correct_corr - p.best_wrong_corr);
      ob->metrics().observe("slm.campaign.segment_traces_per_sec", seg_rate);
      std::string shard_traces = "[";
      for (unsigned i = 0; i < T; ++i) {
        if (i > 0) shard_traces += ',';
        shard_traces += std::to_string(shards[i].position);
      }
      shard_traces += ']';
      ob->event("checkpoint",
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
                    .raw("shard_traces", shard_traces));
      seg_traces = cp;
      seg_time = now;
    }

    if (snapshotting) {
      std::optional<obs::CampaignObserver::Span> ckpt_span;
      if (ob != nullptr) ckpt_span.emplace(ob->span("checkpoint"));
      const double s0 = obs::monotonic_seconds();
      CampaignCheckpoint ck;
      ck.seed = cfg_.seed;
      ck.total_traces = cfg_.traces;
      ck.mode = static_cast<std::uint32_t>(cfg_.mode);
      ck.shards = T;
      ck.samples = samples;
      ck.target_key_byte = cfg_.target_key_byte;
      ck.target_bit = cfg_.target_bit;
      ck.single_bit = campaign.cfg_.single_bit;
      ck.compiled = fast;
      ck.block = block;
      ck.rng_contract = static_cast<std::uint32_t>(contract);
      ck.traces_done = cp;
      ck.shard_state.reserve(T);
      for (unsigned i = 0; i < T; ++i) {
        const Shard& sh = shards[i];
        CheckpointShard cs;
        cs.position = sh.position;
        cs.has_fence = sh.fence.has_value();
        if (!v2) {
          // v2 snapshots carry no stream state: every stream re-derives
          // from (seed, trace index) on resume, so the fields stay zero.
          cs.rng = sh.rng.state();
          cs.victim = sh.victim.register_snapshot();
          if (sh.fence) cs.fence_rng = sh.fence->rng_state();
        }
        ByteWriter acc;
        if (fast) {
          sh.cls.save(acc);
        } else {
          sh.engine.save(acc);
        }
        cs.accumulator = acc.take();
        ck.shard_state.push_back(std::move(cs));
      }
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
                      .field("traces", static_cast<std::uint64_t>(cp))
                      .field("bytes", static_cast<std::uint64_t>(bytes))
                      .field("seconds", io)
                      .field("path", result.snapshot_path));
      }
    }

    if (cfg_.halt_after_traces > 0 && cp >= cfg_.halt_after_traces) {
      if (ob != nullptr) {
        ob->event("halt",
                  obs::JsonWriter()
                      .field("traces", static_cast<std::uint64_t>(cp))
                      .field("path", result.snapshot_path));
      }
      throw CampaignHalted(cp, result.snapshot_path);
    }
  }

  if (store_writer) finalize_trace_store(*store_writer, ob);

  result.traces_run = merged.trace_count();
  result.final_max_abs_corr = merged.max_abs_correlation();
  result.recovered_guess = static_cast<std::uint8_t>(merged.best_guess());
  result.key_recovered = result.recovered_guess == result.correct_guess;
  result.mtd = sca::estimate_mtd(result.progress);
  result.checkpoint_io_seconds = ckpt_io_s;
  for (const Shard& sh : shards) {
    result.kernel_seconds += sh.kernel_s;
    result.cpa_seconds += sh.cpa_s;
  }
  if (ob != nullptr) {
    ob->metrics().set("slm.campaign.kernel_seconds", result.kernel_seconds);
    ob->metrics().set("slm.campaign.cpa_seconds", result.cpa_seconds);
    ob->metrics().set("slm.campaign.checkpoint_io_seconds", ckpt_io_s);
    ob->metrics().set("slm.campaign.selection_seconds",
                      result.selection_seconds);
  }
  return result;
}

FullKeyRunResult ParallelCampaign::run_fullkey(const FullKeyConfig& fk) {
  const auto t0 = std::chrono::steady_clock::now();
  FullKeyRunResult result;
  if (threads_ <= 1) {
    CpaCampaign campaign(setup_, cfg_);
    result = campaign.run_fullkey(fk);
  } else {
    result = run_fullkey_sharded(fk);
  }
  result.threads_used = threads_;
  result.capture_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

FullKeyRunResult ParallelCampaign::run_fullkey_sharded(
    const FullKeyConfig& fk) {
  CpaCampaign campaign(setup_, cfg_);
  obs::CampaignObserver* const ob = cfg_.observer;
  constexpr std::size_t kBytes = sca::MultiByteCpa::kBytes;
  FullKeyRunResult result;
  result.mode = cfg_.mode;
  result.sample_times_ns = campaign.sample_times_;

  std::vector<sca::LastRoundBitModel> models;
  models.reserve(kBytes);
  for (std::size_t j = 0; j < kBytes; ++j) {
    models.emplace_back(j, cfg_.target_bit);
  }
  const crypto::Block lrk = setup_.victim().cipher().last_round_key();
  for (std::size_t j = 0; j < kBytes; ++j) {
    result.bytes[j].correct = models[j].correct_guess(lrk);
  }

  // Trace store, fingerprinted before bit resolution (see run_sharded).
  std::unique_ptr<store::TraceStoreWriter> store_writer;
  if (!cfg_.store_out.empty()) {
    SLM_REQUIRE(!cfg_.resume,
                "store_out: cannot combine with resume — traces captured "
                "before the snapshot would be missing from the store");
    store_writer = std::make_unique<store::TraceStoreWriter>(
        cfg_.store_out,
        campaign.store_identity(store::StoreKind::kFullKey, cfg_.traces));
    store_writer->set_capture_threads(threads_);
  }

  {
    const auto sel_start = std::chrono::steady_clock::now();
    std::optional<obs::CampaignObserver::Span> span;
    if (ob != nullptr) span.emplace(ob->span("selection"));
    CampaignResult scratch;
    campaign.resolve_sensor_bits(&scratch);
    result.bits_of_interest = std::move(scratch.bits_of_interest);
    result.selection_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      sel_start)
            .count();
  }
  result.single_bit = campaign.cfg_.single_bit;
  if (store_writer) {
    store_writer->set_resolved_single_bit(campaign.cfg_.single_bit);
  }

  auto schedule = cfg_.checkpoints.empty() ? default_checkpoints(cfg_.traces)
                                           : cfg_.checkpoints;
  std::sort(schedule.begin(), schedule.end());
  std::vector<std::size_t> checkpoints;
  for (std::size_t c : schedule) {
    if (c > 0 && c <= cfg_.traces) checkpoints.push_back(c);
  }
  if (checkpoints.empty() || checkpoints.back() != cfg_.traces) {
    checkpoints.push_back(cfg_.traces);
  }

  const std::size_t samples = campaign.sample_times_.size();
  const unsigned T = threads_;

  const RngContract contract = resolve_contract(cfg_.rng_contract);
  const bool v2 = contract == RngContract::kV2;
  result.rng_contract = contract;

  const std::size_t block = resolve_block(cfg_.block);
  const bool simd = resolve_simd(cfg_.simd);
  result.block_size = block;
  const bool blocked = block > 1;

  // As in the serial full-key engine, accumulation always runs through
  // MultiByteCpa; compiled_kernels only selects the sensor read path.
  const bool fast = cfg_.compiled_kernels;
  const CpaCampaign::SensorPlan plan =
      fast ? campaign.make_sensor_plan(result.bits_of_interest)
           : CpaCampaign::SensorPlan{};
  const bool defer_hw = blocked && fast && plan.batched &&
                        cfg_.mode == SensorMode::kBenignHw;
  const std::size_t dps = plan.hw.draws_per_sample;
  const std::size_t ncyc = campaign.response_.cycle_count();
  const double coupling = setup_.effective_coupling();
  const double env_noise_v = setup_.calibration().env_noise_v;

  struct Shard {
    crypto::AesDatapathModel victim;
    std::optional<defense::ActiveFence> fence;
    Xoshiro256 rng{0};
    sca::MultiByteCpa mb;
    std::size_t position = 0;
    std::vector<double> v;
    std::vector<double> y;
    std::vector<double> vblk;
    std::vector<double> zblk;
    std::vector<double> icblk;
    std::vector<double> zvblk;
    std::vector<double> yblk;
    std::vector<std::uint8_t> clsv;
    std::vector<std::uint8_t> clsb;
    double kernel_s = 0.0;
    double cpa_s = 0.0;
    std::size_t blocks = 0;

    Shard(const crypto::AesDatapathModel& vic, std::size_t samples)
        : victim(vic), mb(samples) {}
  };
  std::vector<Shard> shards;
  shards.reserve(T);
  const bool fenced = cfg_.fence.random_current_a > 0.0 ||
                      cfg_.fence.base_current_a > 0.0;
  for (unsigned i = 0; i < T; ++i) {
    Shard sh(setup_.victim(), samples);
    sh.rng = Xoshiro256::stream(cfg_.seed, i);
    if (fenced) {
      defense::ActiveFenceConfig fc = cfg_.fence;
      // v1: decorrelated sequential fence streams per shard. v2 derives
      // fence draws per trace from the unperturbed seed (see run_sharded).
      if (!v2) fc.seed ^= 0x9e3779b97f4a7c15ull * (i + 1);
      sh.fence.emplace(fc);
    }
    shards.push_back(std::move(sh));
  }

  struct ByteState {
    bool converged = false;
    std::size_t stable = 0;
    std::size_t prev_best = 256;
  };
  std::array<ByteState, kBytes> state;

  std::size_t traces_done = 0;
  const bool snapshotting = !cfg_.checkpoint_dir.empty();
  if (cfg_.resume && snapshotting) {
    if (auto ck = load_checkpoint(cfg_.checkpoint_dir)) {
      require_checkpoint_matches(*ck, campaign.cfg_, T, samples,
                                 static_cast<std::uint32_t>(contract),
                                 /*fullkey=*/true);
      for (unsigned i = 0; i < T; ++i) {
        const CheckpointShard& cs = ck->shard_state[i];
        Shard& sh = shards[i];
        SLM_REQUIRE(cs.has_fence == sh.fence.has_value(),
                    "resume: fence configuration differs from snapshot");
        sh.position = static_cast<std::size_t>(cs.position);
        if (!v2) {
          sh.rng.set_state(cs.rng);
          sh.victim.restore_registers(cs.victim);
          if (sh.fence) sh.fence->set_rng_state(cs.fence_rng);
        }
        ByteReader acc(cs.accumulator.data(), cs.accumulator.size());
        sh.mb.load(acc);
        SLM_REQUIRE(acc.done(), "resume: trailing accumulator bytes");
      }
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
      traces_done = static_cast<std::size_t>(ck->traces_done);
      result.resumed_from = traces_done;
      checkpoints.erase(
          std::remove_if(checkpoints.begin(), checkpoints.end(),
                         [&](std::size_t c) { return c <= traces_done; }),
          checkpoints.end());
      log_info() << "fullkey: resumed from "
                 << checkpoint_file(cfg_.checkpoint_dir) << " at trace "
                 << traces_done << "/" << cfg_.traces << " across " << T
                 << " shards";
      if (ob != nullptr) {
        ob->metrics().add("slm.checkpoint.resumes_total");
        ob->event("resume",
                  obs::JsonWriter()
                      .field("traces_done",
                             static_cast<std::uint64_t>(traces_done))
                      .field("shards", static_cast<std::uint64_t>(T))
                      .field("path", checkpoint_file(cfg_.checkpoint_dir)));
      }
    }
  }

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
                  .field("threads", static_cast<std::uint64_t>(T))
                  .field("compiled", fast)
                  .field("block", static_cast<std::uint64_t>(block))
                  .field("rng_contract", rng_contract_name(contract))
                  .field("resumed_from",
                         static_cast<std::uint64_t>(result.resumed_from)));
  }

  const bool timed = ob != nullptr;
  double ckpt_io_s = 0.0;
  std::size_t seg_traces = traces_done;
  double seg_time = timed ? obs::monotonic_seconds() : 0.0;

  std::size_t converged_count = 0;
  for (const ByteState& s : state) {
    if (s.converged) ++converged_count;
  }

  // Shard over the caller's pool when one is borrowed (the `slm serve`
  // daemon shares ONE pool across every tenant's campaigns); otherwise
  // own a private pool for the duration of the run.
  std::optional<ThreadPool> owned_pool;
  ThreadPool& pool = cfg_.pool != nullptr ? *cfg_.pool : owned_pool.emplace(T);
  std::size_t covered = traces_done;
  std::size_t merged_traces = traces_done;
  for (std::size_t cp : checkpoints) {
    {
      std::optional<obs::CampaignObserver::Span> capture_span;
      if (ob != nullptr) capture_span.emplace(ob->span("capture"));
      pool.run_indexed(T, [&](std::size_t i) {
        Shard& sh = shards[i];
        // Per-trace label rows for the 16 byte models, trace-major as
        // MultiByteCpa::add_block expects.
        const auto label = [&](const crypto::Block& ct, std::uint8_t* v16,
                               std::uint8_t* b16) {
          for (std::size_t j = 0; j < kBytes; ++j) {
            v16[j] = models[j].class_value(ct);
            b16[j] = models[j].class_bit(ct);
          }
        };
        if (v2) {
          const std::size_t n = cp - covered;
          const std::size_t g0 = covered + i * n / T;
          const std::size_t g1 = covered + (i + 1) * n / T;
          if (g0 >= g1) return;
          if (blocked) {
            sh.yblk.resize(block * samples);
            sh.clsv.resize(block * kBytes);
            sh.clsb.resize(block * kBytes);
            if (defer_hw) {
              sh.vblk.resize(block * samples);
              sh.zblk.resize(block * samples * dps);
              sh.icblk.resize(ncyc * block);
              sh.zvblk.resize(block * samples);
            }
          }
          crypto::AesDatapathModel::RegisterSnapshot regs{};
          if (g0 > 0) {
            Xoshiro256 prev = Xoshiro256::trace_stream(
                cfg_.seed, kTraceDomainCapture, g0 - 1);
            crypto::Block prev_pt;
            for (auto& b : prev_pt) {
              b = static_cast<std::uint8_t>(prev.next());
            }
            regs = sh.victim.registers_after(prev_pt, g0 - 1);
          }
          std::size_t g = g0;
          while (g < g1) {
            const std::size_t bn = blocked ? std::min(block, g1 - g) : 1;
            const double t0 = timed ? obs::monotonic_seconds() : 0.0;
            double t1 = 0.0;
            for (std::size_t b = 0; b < bn; ++b) {
              const std::size_t gb = g + b;
              Xoshiro256 rng_t = Xoshiro256::trace_stream(
                  cfg_.seed, kTraceDomainCapture, gb);
              crypto::Block pt;
              for (auto& pb : pt) {
                pb = static_cast<std::uint8_t>(rng_t.next());
              }
              const auto enc = sh.victim.encrypt_stateless(pt, gb, regs);
              if (defer_hw) {
                if (sh.fence) {
                  Xoshiro256 frng = sh.fence->trace_rng(gb);
                  for (std::size_t c = 0; c < ncyc; ++c) {
                    double cur = enc.cycle_current[c];
                    cur += sh.fence->cycle_current(frng);
                    cur *= coupling;
                    sh.icblk[c * block + b] = cur;
                  }
                } else {
                  for (std::size_t c = 0; c < ncyc; ++c) {
                    double cur = enc.cycle_current[c];
                    cur *= coupling;
                    sh.icblk[c * block + b] = cur;
                  }
                }
                FastNormal::instance().fill(
                    rng_t, sh.zvblk.data() + b * samples, samples);
                FastNormal::instance().fill(
                    rng_t, sh.zblk.data() + b * samples * dps,
                    samples * dps);
              } else {
                std::optional<Xoshiro256> frng;
                Xoshiro256* fr = nullptr;
                if (sh.fence) {
                  frng.emplace(sh.fence->trace_rng(gb));
                  fr = &*frng;
                }
                campaign.make_voltages(enc, rng_t, sh.v,
                                       sh.fence ? &*sh.fence : nullptr, fr);
                if (fast) {
                  campaign.read_sensor_fast(plan, sh.v,
                                            result.bits_of_interest, rng_t,
                                            sh.y);
                } else {
                  campaign.read_sensor(sh.v, result.bits_of_interest, rng_t,
                                       sh.y);
                }
                if (!blocked) {
                  std::uint8_t v16[kBytes];
                  std::uint8_t b16[kBytes];
                  label(enc.ciphertext, v16, b16);
                  t1 = timed ? obs::monotonic_seconds() : 0.0;
                  sh.mb.add_trace(v16, b16, sh.y);
                } else {
                  std::copy(sh.y.begin(), sh.y.end(),
                            sh.yblk.begin() + b * samples);
                }
              }
              if (blocked) {
                label(enc.ciphertext, sh.clsv.data() + b * kBytes,
                      sh.clsb.data() + b * kBytes);
              }
              if (store_writer) {
                store_writer->record_meta(gb, pt, enc.ciphertext);
                if (!blocked) store_writer->record_readings(gb, sh.y.data());
              }
            }
            if (blocked) {
              if (defer_hw) {
                campaign.response_.voltages_block(sh.icblk.data(), bn, block,
                                                  sh.vblk.data(), simd);
                for (std::size_t k = 0; k < bn * samples; ++k) {
                  sh.vblk[k] += 0.0 + env_noise_v * sh.zvblk[k];
                }
                setup_.sensor().toggle_hw_block(plan.hw, sh.vblk.data(),
                                                bn * samples,
                                                sh.zblk.data(),
                                                sh.yblk.data(), simd);
              }
              t1 = timed ? obs::monotonic_seconds() : 0.0;
              sh.mb.add_block(sh.clsv.data(), sh.clsb.data(),
                              sh.yblk.data(), bn);
              ++sh.blocks;
              if (store_writer) {
                store_writer->record_readings_block(g, sh.yblk.data(), bn);
              }
            }
            sh.position += bn;
            g += bn;
            if (timed) {
              const double t2 = obs::monotonic_seconds();
              sh.kernel_s += t1 - t0;
              sh.cpa_s += t2 - t1;
            }
          }
          return;
        }
        const std::size_t target = shard_quota(cp, i, T);
        if (blocked && sh.position < target) {
          sh.yblk.resize(block * samples);
          sh.clsv.resize(block * kBytes);
          sh.clsb.resize(block * kBytes);
          if (defer_hw) {
            sh.vblk.resize(block * samples);
            sh.zblk.resize(block * samples * dps);
            sh.icblk.resize(ncyc * block);
            sh.zvblk.resize(block * samples);
          }
        }
        while (sh.position < target) {
          const std::size_t bn =
              blocked ? std::min(block, target - sh.position) : 1;
          const double t0 = timed ? obs::monotonic_seconds() : 0.0;
          double t1 = 0.0;
          if (!blocked) {
            crypto::Block pt;
            for (auto& b : pt) b = static_cast<std::uint8_t>(sh.rng.next());
            const auto enc = sh.victim.encrypt(pt);
            campaign.make_voltages(enc, sh.rng, sh.v,
                                   sh.fence ? &*sh.fence : nullptr);
            if (fast) {
              campaign.read_sensor_fast(plan, sh.v, result.bits_of_interest,
                                        sh.rng, sh.y);
            } else {
              campaign.read_sensor(sh.v, result.bits_of_interest, sh.rng,
                                   sh.y);
            }
            std::uint8_t v16[kBytes];
            std::uint8_t b16[kBytes];
            label(enc.ciphertext, v16, b16);
            t1 = timed ? obs::monotonic_seconds() : 0.0;
            sh.mb.add_trace(v16, b16, sh.y);
            // v1 round-robin: shard i's p-th trace is global p*T + i.
            if (store_writer) {
              const std::size_t g = sh.position * T + i;
              store_writer->record_meta(g, pt, enc.ciphertext);
              store_writer->record_readings(g, sh.y.data());
            }
          } else {
            for (std::size_t b = 0; b < bn; ++b) {
              crypto::Block pt;
              for (auto& pb : pt) {
                pb = static_cast<std::uint8_t>(sh.rng.next());
              }
              const auto enc = sh.victim.encrypt(pt);
              if (defer_hw) {
                defense::ActiveFence* fence =
                    sh.fence ? &*sh.fence : nullptr;
                for (std::size_t c = 0; c < ncyc; ++c) {
                  double cur = enc.cycle_current[c];
                  if (fence != nullptr) cur += fence->next_cycle_current();
                  cur *= coupling;
                  sh.icblk[c * block + b] = cur;
                }
                FastNormal::instance().fill(
                    sh.rng, sh.zvblk.data() + b * samples, samples);
                FastNormal::instance().fill(
                    sh.rng, sh.zblk.data() + b * samples * dps,
                    samples * dps);
              } else {
                campaign.make_voltages(enc, sh.rng, sh.v,
                                       sh.fence ? &*sh.fence : nullptr);
                if (fast) {
                  campaign.read_sensor_fast(plan, sh.v,
                                            result.bits_of_interest, sh.rng,
                                            sh.y);
                } else {
                  campaign.read_sensor(sh.v, result.bits_of_interest,
                                       sh.rng, sh.y);
                }
                std::copy(sh.y.begin(), sh.y.end(),
                          sh.yblk.begin() + b * samples);
              }
              label(enc.ciphertext, sh.clsv.data() + b * kBytes,
                    sh.clsb.data() + b * kBytes);
              if (store_writer) {
                store_writer->record_meta((sh.position + b) * T + i, pt,
                                          enc.ciphertext);
              }
            }
            if (defer_hw) {
              campaign.response_.voltages_block(sh.icblk.data(), bn, block,
                                                sh.vblk.data(), simd);
              for (std::size_t k = 0; k < bn * samples; ++k) {
                sh.vblk[k] += 0.0 + env_noise_v * sh.zvblk[k];
              }
              setup_.sensor().toggle_hw_block(plan.hw, sh.vblk.data(),
                                              bn * samples, sh.zblk.data(),
                                              sh.yblk.data(), simd);
            }
            t1 = timed ? obs::monotonic_seconds() : 0.0;
            sh.mb.add_block(sh.clsv.data(), sh.clsb.data(), sh.yblk.data(),
                            bn);
            ++sh.blocks;
            if (store_writer) {
              for (std::size_t b = 0; b < bn; ++b) {
                store_writer->record_readings((sh.position + b) * T + i,
                                              sh.yblk.data() + b * samples);
              }
            }
          }
          sh.position += bn;
          if (timed) {
            const double t2 = obs::monotonic_seconds();
            sh.kernel_s += t1 - t0;
            sh.cpa_s += t2 - t1;
          }
        }
      });
    }
    covered = cp;
    if (ob != nullptr && blocked) {
      double nb = 0.0;
      for (Shard& sh : shards) {
        nb += static_cast<double>(sh.blocks);
        sh.blocks = 0;
      }
      if (nb > 0.0) ob->metrics().add("slm.kernel.blocks_total", nb);
    }

    // Re-merge from scratch in fixed shard order, then run the per-byte
    // folds and the early-exit state machine on the coordinator —
    // bit-exact vs. the serial engine for any shard count under v2.
    {
      std::optional<obs::CampaignObserver::Span> merge_span;
      if (ob != nullptr) merge_span.emplace(ob->span("merge"));
      const double m0 = timed ? obs::monotonic_seconds() : 0.0;
      sca::MultiByteCpa merged(samples);
      for (const Shard& sh : shards) merged.merge(sh.mb);
      merged_traces = merged.trace_count();
      for (std::size_t j = 0; j < kBytes; ++j) {
        if (state[j].converged) continue;
        const sca::CpaEngine folded =
            merged.fold(j, models[j].pattern().data());
        sca::CpaProgressPoint p =
            sca::snapshot_progress(folded, result.bytes[j].correct);
        const double margin = sca::winner_margin(p);
        const bool qualify = fk.early_exit &&
                             cp >= fk.early_exit_min_traces &&
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
                          .field("guess",
                                 static_cast<std::uint64_t>(br.recovered))
                          .field("margin", margin));
          }
        }
      }
      if (timed && !shards.empty()) {
        shards[0].cpa_s += obs::monotonic_seconds() - m0;
      }
    }

    if (ob != nullptr) {
      const double now = obs::monotonic_seconds();
      const double seg_rate =
          now > seg_time
              ? static_cast<double>(cp - seg_traces) / (now - seg_time)
              : 0.0;
      ob->metrics().add("slm.campaign.checkpoints_total");
      ob->metrics().set("slm.campaign.traces_done", static_cast<double>(cp));
      ob->metrics().set("slm.fullkey.bytes_converged",
                        static_cast<double>(converged_count));
      ob->metrics().observe("slm.campaign.segment_traces_per_sec", seg_rate);
      std::string shard_traces = "[";
      for (unsigned i = 0; i < T; ++i) {
        if (i > 0) shard_traces += ',';
        shard_traces += std::to_string(shards[i].position);
      }
      shard_traces += ']';
      ob->event("fullkey_checkpoint",
                obs::JsonWriter()
                    .field("traces", static_cast<std::uint64_t>(cp))
                    .field("bytes_converged",
                           static_cast<std::uint64_t>(converged_count))
                    .field("bytes_active",
                           static_cast<std::uint64_t>(kBytes -
                                                      converged_count))
                    .field("traces_per_sec", seg_rate)
                    .raw("shard_traces", shard_traces));
      seg_traces = cp;
      seg_time = now;
    }

    if (snapshotting) {
      std::optional<obs::CampaignObserver::Span> ckpt_span;
      if (ob != nullptr) ckpt_span.emplace(ob->span("checkpoint"));
      const double s0 = obs::monotonic_seconds();
      CampaignCheckpoint ck;
      ck.seed = cfg_.seed;
      ck.total_traces = cfg_.traces;
      ck.mode = static_cast<std::uint32_t>(cfg_.mode);
      ck.shards = T;
      ck.samples = samples;
      ck.target_key_byte = cfg_.target_key_byte;
      ck.target_bit = cfg_.target_bit;
      ck.single_bit = campaign.cfg_.single_bit;
      ck.compiled = fast;
      ck.block = block;
      ck.rng_contract = static_cast<std::uint32_t>(contract);
      ck.fullkey = true;
      ck.traces_done = cp;
      ck.shard_state.reserve(T);
      for (unsigned i = 0; i < T; ++i) {
        const Shard& sh = shards[i];
        CheckpointShard cs;
        cs.position = sh.position;
        cs.has_fence = sh.fence.has_value();
        if (!v2) {
          cs.rng = sh.rng.state();
          cs.victim = sh.victim.register_snapshot();
          if (sh.fence) cs.fence_rng = sh.fence->rng_state();
        }
        ByteWriter acc;
        sh.mb.save(acc);
        cs.accumulator = acc.take();
        ck.shard_state.push_back(std::move(cs));
      }
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
                      .field("traces", static_cast<std::uint64_t>(cp))
                      .field("bytes", static_cast<std::uint64_t>(bytes))
                      .field("seconds", io)
                      .field("path", result.snapshot_path));
      }
    }

    if (cfg_.halt_after_traces > 0 && cp >= cfg_.halt_after_traces) {
      if (ob != nullptr) {
        ob->event("halt",
                  obs::JsonWriter()
                      .field("traces", static_cast<std::uint64_t>(cp))
                      .field("path", result.snapshot_path));
      }
      throw CampaignHalted(cp, result.snapshot_path);
    }
  }

  // Every byte that never froze got its final fold at the last
  // checkpoint (the schedule always ends at cfg_.traces).
  for (std::size_t j = 0; j < kBytes; ++j) {
    FullKeyByteResult& br = result.bytes[j];
    if (!state[j].converged) {
      const sca::CpaProgressPoint& fp = br.progress.back();
      br.recovered = static_cast<std::uint8_t>(fp.best_guess);
      br.traces = fp.traces;
      br.final_max_abs_corr = fp.max_abs_corr;
      br.success = br.recovered == br.correct;
    }
    br.mtd = sca::estimate_mtd(br.progress);
  }

  if (store_writer) finalize_trace_store(*store_writer, ob);

  result.traces_run = merged_traces;
  result.checkpoint_io_seconds = ckpt_io_s;
  for (const Shard& sh : shards) {
    result.kernel_seconds += sh.kernel_s;
    result.cpa_seconds += sh.cpa_s;
  }
  if (ob != nullptr) {
    ob->metrics().set("slm.campaign.kernel_seconds", result.kernel_seconds);
    ob->metrics().set("slm.campaign.cpa_seconds", result.cpa_seconds);
    ob->metrics().set("slm.campaign.checkpoint_io_seconds", ckpt_io_s);
    ob->metrics().set("slm.campaign.selection_seconds",
                      result.selection_seconds);
  }
  return result;
}

}  // namespace slm::core
