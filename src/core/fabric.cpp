#include "core/fabric.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <filesystem>
#include <thread>

#include "common/binio.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "core/capture.hpp"
#include "core/parallel.hpp"
#include "obs/jsonl.hpp"
#include "obs/observer.hpp"
#include "sca/model.hpp"

namespace slm::core {

std::vector<TraceRange> plan_shards(std::uint64_t total, unsigned shards) {
  SLM_REQUIRE(shards > 0, "plan_shards: zero shards");
  std::vector<TraceRange> out;
  out.reserve(shards);
  for (unsigned i = 0; i < shards; ++i) {
    out.push_back(TraceRange{total * i / shards, total * (i + 1) / shards});
  }
  return out;
}

FabricWorker::FabricWorker(AttackSetup& setup, const CampaignConfig& cfg,
                           bool fullkey)
    : campaign_(setup, cfg),
      fullkey_(fullkey),
      // Before bit resolution rewrites cfg_.single_bit: the identity
      // hashes the requested bit, as every engine path does.
      id_(campaign_.store_identity(fullkey ? store::StoreKind::kFullKey
                                           : store::StoreKind::kByteCampaign,
                                   cfg.traces)) {}

namespace {

// The worker loop: one engine range per snapshot boundary, each boundary
// followed by a snapshot of the whole prefix [a, boundary). It reports
// the same capture/merge/checkpoint spans and slm.campaign.* /
// slm.kernel.* metrics as the campaign driver.
template <class Acc>
AccumulatorSnapshot run_worker(const CaptureKernel& kernel, Acc acc,
                               const store::StoreIdentity& id,
                               const FabricJob& job,
                               const std::vector<std::uint64_t>& bounds,
                               obs::CampaignObserver* ob) {
  const std::uint64_t a = job.range.begin;
  RangeStats stats;
  stats.timed = ob != nullptr;
  std::optional<ThreadPool> producer;
  if (kernel.overlaps_generation()) producer.emplace(1);
  if (ob != nullptr) {
    ob->metrics().set("slm.campaign.traces_target",
                      static_cast<double>(job.range.count()));
    ob->metrics().set("slm.kernel.block_size",
                      static_cast<double>(kernel.block()));
    if (producer) ob->metrics().set("slm.pipeline.depth", 2.0);
  }
  double merge_s = 0.0;
  double io_s = 0.0;
  std::uint64_t seg_start = a;
  double seg_time = obs::monotonic_seconds();
  AccumulatorSnapshot snap;
  snap.id = id;
  for (const std::uint64_t cp : bounds) {
    {
      std::optional<obs::CampaignObserver::Span> span;
      if (ob != nullptr) span.emplace(ob->span("capture"));
      kernel.run_range(seg_start, cp, acc, stats,
                       producer ? &*producer : nullptr);
    }
    flush_range_stats(ob, stats);
    {
      std::optional<obs::CampaignObserver::Span> span;
      if (ob != nullptr) span.emplace(ob->span("merge"));
      const double m0 = obs::monotonic_seconds();
      snap.ranges = {TraceRange{a, cp}};
      ByteWriter w;
      acc.save(w);
      snap.accumulator = w.take();
      merge_s += obs::monotonic_seconds() - m0;
    }
    if (ob != nullptr) {
      const double now = obs::monotonic_seconds();
      ob->metrics().add("slm.campaign.checkpoints_total");
      ob->metrics().set("slm.campaign.traces_done",
                        static_cast<double>(cp - a));
      ob->metrics().observe(
          "slm.campaign.segment_traces_per_sec",
          now > seg_time ? static_cast<double>(cp - seg_start) / (now - seg_time)
                         : 0.0);
      seg_time = now;
    }
    seg_start = cp;
    std::size_t bytes = 0;
    double write_s = 0.0;
    {
      std::optional<obs::CampaignObserver::Span> span;
      if (ob != nullptr) span.emplace(ob->span("checkpoint"));
      const double s0 = obs::monotonic_seconds();
      bytes = save_snapshot(job.snapshot_out, snap);
      write_s = obs::monotonic_seconds() - s0;
    }
    io_s += write_s;
    if (ob != nullptr) {
      ob->metrics().add("slm.fabric.snapshots_total");
      ob->metrics().add("slm.fabric.snapshot_bytes_total",
                        static_cast<double>(bytes));
      ob->metrics().observe("slm.fabric.snapshot_write_seconds", write_s);
      ob->event("fabric_snapshot",
                obs::JsonWriter()
                    .field("begin", a)
                    .field("end", job.range.end)
                    .field("covered_end", cp)
                    .field("bytes", static_cast<std::uint64_t>(bytes))
                    .field("path", job.snapshot_out));
    }
    if (job.halt_after > 0 && cp - a >= job.halt_after) {
      if (ob != nullptr) {
        ob->event("halt", obs::JsonWriter()
                              .field("traces", cp)
                              .field("path", job.snapshot_out));
      }
      throw CampaignHalted(static_cast<std::size_t>(cp), job.snapshot_out);
    }
  }
  if (ob != nullptr) {
    ob->metrics().set("slm.campaign.kernel_seconds", stats.kernel_seconds);
    ob->metrics().set("slm.campaign.cpa_seconds", stats.cpa_seconds + merge_s);
    ob->metrics().set("slm.campaign.checkpoint_io_seconds", io_s);
  }
  return snap;
}

}  // namespace

AccumulatorSnapshot FabricWorker::run(const FabricJob& job) {
  const CampaignConfig& cfg = campaign_.cfg_;
  obs::CampaignObserver* const ob = cfg.observer;
  const std::uint64_t a = job.range.begin;
  const std::uint64_t bEnd = job.range.end;
  if (a >= bEnd || bEnd > cfg.traces) {
    throw SnapshotRangeError(
        "fabric: worker range [" + std::to_string(a) + ", " +
        std::to_string(bEnd) + ") is empty or exceeds the campaign budget of " +
        std::to_string(cfg.traces) + " traces");
  }
  SLM_REQUIRE(!job.snapshot_out.empty(), "fabric: worker needs a snapshot path");
  if (!resolved_) {
    // Selection pre-pass: deterministic from the config seed alone, so
    // every worker of the same campaign resolves identical bits.
    const double t0 = obs::monotonic_seconds();
    std::optional<obs::CampaignObserver::Span> span;
    if (ob != nullptr) span.emplace(ob->span("selection"));
    bits_ = campaign_.resolve_sensor_bits();
    if (ob != nullptr) {
      ob->metrics().set("slm.campaign.selection_seconds",
                        obs::monotonic_seconds() - t0);
    }
    resolved_ = true;
  }

  // Snapshot boundaries: the snapshot_every grid within the range, the
  // halt point (so the partial snapshot covers exactly [a, a+halt)),
  // and the range end.
  std::vector<std::uint64_t> bounds;
  if (job.snapshot_every > 0) {
    for (std::uint64_t s = a + job.snapshot_every; s < bEnd;
         s += job.snapshot_every) {
      bounds.push_back(s);
    }
  }
  if (job.halt_after > 0 && a + job.halt_after < bEnd) {
    bounds.push_back(a + job.halt_after);
  }
  bounds.push_back(bEnd);
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());

  if (ob != nullptr) {
    ob->metrics().set("slm.fabric.range_traces",
                      static_cast<double>(bEnd - a));
    ob->event("fabric_worker_start",
              obs::JsonWriter()
                  .field("begin", a)
                  .field("end", bEnd)
                  .field("fullkey", fullkey_)
                  .field("fingerprint",
                         static_cast<std::uint64_t>(id_.fingerprint()))
                  .field("snapshot_out", job.snapshot_out));
  }

  const std::size_t samples = campaign_.sample_times_.size();
  if (fullkey_) {
    std::vector<sca::LastRoundBitModel> models;
    for (std::size_t j = 0; j < sca::MultiByteCpa::kBytes; ++j) {
      models.emplace_back(j, cfg.target_bit);
    }
    const CaptureKernel kernel(campaign_, bits_, std::move(models), nullptr);
    return run_worker(kernel, sca::MultiByteCpa(samples), id_, job, bounds,
                      ob);
  }
  const CaptureKernel kernel(
      campaign_, bits_, {sca::LastRoundBitModel(cfg.target_key_byte,
                                                cfg.target_bit)},
      nullptr);
  return run_worker(kernel, sca::XorClassCpa(samples), id_, job, bounds, ob);
}

void FabricProgress::reset(std::size_t workers) {
  std::lock_guard<std::mutex> g(m_);
  covered_.assign(workers, 0);
}

void FabricProgress::update(std::size_t worker, std::uint64_t covered_end) {
  std::lock_guard<std::mutex> g(m_);
  if (worker < covered_.size() && covered_end > covered_[worker]) {
    covered_[worker] = covered_end;
  }
}

std::uint64_t FabricProgress::covered(std::size_t worker) const {
  std::lock_guard<std::mutex> g(m_);
  return worker < covered_.size() ? covered_[worker] : 0;
}

std::uint64_t FabricProgress::total_covered() const {
  std::lock_guard<std::mutex> g(m_);
  std::uint64_t n = 0;
  for (const std::uint64_t c : covered_) n += c;
  return n;
}

namespace {

pid_t spawn_worker(const std::string& binary,
                   const std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.reserve(args.size() + 2);
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);
  const pid_t pid = fork();
  SLM_REQUIRE(pid >= 0, "fabric: fork failed");
  if (pid == 0) {
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  return pid;
}

}  // namespace

CoordinateResult coordinate_local(const CoordinateOptions& opt) {
  SLM_REQUIRE(opt.shards > 0, "fabric: need at least one shard");
  SLM_REQUIRE(opt.total_traces > 0, "fabric: zero-trace campaign");
  SLM_REQUIRE(!opt.work_dir.empty(), "fabric: need a work directory");
  SLM_REQUIRE(!opt.slm_binary.empty(), "fabric: need the worker binary path");
  {
    std::error_code ec;
    std::filesystem::create_directories(opt.work_dir, ec);
    SLM_REQUIRE(!ec, "fabric: cannot create work directory '" +
                         opt.work_dir + "'");
  }
  obs::CampaignObserver* const ob = opt.observer;
  if (ob != nullptr) {
    ob->metrics().set("slm.fabric.shards_total",
                      static_cast<double>(opt.shards));
    ob->event("fabric_run_start",
              obs::JsonWriter()
                  .field("shards", static_cast<std::uint64_t>(opt.shards))
                  .field("traces", opt.total_traces)
                  .field("binary", opt.slm_binary)
                  .field("work_dir", opt.work_dir));
  }

  struct Assignment {
    TraceRange range;
    unsigned shard;  ///< original shard label, for logs/events
    bool kill = false;
  };
  std::deque<Assignment> queue;
  {
    const std::vector<TraceRange> shards =
        plan_shards(opt.total_traces, opt.shards);
    for (unsigned i = 0; i < shards.size(); ++i) {
      if (shards[i].count() == 0) continue;
      queue.push_back(
          {shards[i], i, opt.kill_shard >= 0 &&
                             i == static_cast<unsigned>(opt.kill_shard) &&
                             opt.kill_after > 0});
    }
  }

  RangeLedger ledger(opt.total_traces);
  std::vector<AccumulatorSnapshot> parts;
  FabricProgress progress;
  CoordinateResult result;

  unsigned round = 0;
  while (!queue.empty()) {
    SLM_REQUIRE(round <= opt.max_reissue_rounds,
                "fabric: shard reissue limit reached with " +
                    std::to_string(ledger.missing().size()) +
                    " range(s) still uncovered — workers keep failing");
    struct Worker {
      Assignment job;
      pid_t pid = -1;
      std::string snap;
      std::string jsonl;
      int rc = -1;
      bool reaped = false;
    };
    std::vector<Worker> workers;
    workers.reserve(queue.size());
    // Spawn the whole round BEFORE starting monitor threads: fork from
    // a single-threaded coordinator state is the portable-safe order.
    for (std::size_t w = 0; !queue.empty(); ++w) {
      Worker wk;
      wk.job = queue.front();
      queue.pop_front();
      const std::string stem = (std::filesystem::path(opt.work_dir) /
                                ("shard_r" + std::to_string(round) + "_" +
                                 std::to_string(w)))
                                   .string();
      wk.snap = stem + ".snap";
      wk.jsonl = stem + ".jsonl";
      std::vector<std::string> args;
      args.push_back("attack");
      args.insert(args.end(), opt.worker_args.begin(), opt.worker_args.end());
      args.push_back("--range");
      args.push_back(std::to_string(wk.job.range.begin) + ":" +
                     std::to_string(wk.job.range.end));
      args.push_back("--snapshot-out");
      args.push_back(wk.snap);
      args.push_back("--trace-out");
      args.push_back(wk.jsonl);
      if (opt.snapshot_every > 0) {
        args.push_back("--snapshot-every");
        args.push_back(std::to_string(opt.snapshot_every));
      }
      if (wk.job.kill && round == 0) {
        args.push_back("--halt-after");
        args.push_back(std::to_string(opt.kill_after));
      }
      wk.pid = spawn_worker(opt.slm_binary, args);
      ++result.workers_spawned;
      if (ob != nullptr) {
        ob->metrics().add("slm.fabric.workers_spawned_total");
        ob->event("fabric_worker_spawn",
                  obs::JsonWriter()
                      .field("shard", static_cast<std::uint64_t>(wk.job.shard))
                      .field("round", static_cast<std::uint64_t>(round))
                      .field("begin", wk.job.range.begin)
                      .field("end", wk.job.range.end)
                      .field("pid", static_cast<std::int64_t>(wk.pid))
                      .field("kill", wk.job.kill && round == 0));
      }
      workers.push_back(std::move(wk));
    }

    // Per-worker monitor threads tail the worker JSONL streams into the
    // shared progress view while the coordinator loop below reads it
    // concurrently — the locking here is what fabric_tsan races.
    progress.reset(workers.size());
    std::atomic<bool> stop{false};
    std::vector<std::thread> monitors;
    monitors.reserve(workers.size());
    for (std::size_t w = 0; w < workers.size(); ++w) {
      monitors.emplace_back([&, w] {
        const std::string path = workers[w].jsonl;
        for (;;) {
          if (const std::optional<double> c =
                  obs::last_event_value(path, "fabric_snapshot",
                                        "covered_end")) {
            progress.update(w, static_cast<std::uint64_t>(*c));
          }
          if (stop.load(std::memory_order_acquire)) break;
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
      });
    }

    std::size_t live = workers.size();
    std::uint64_t last_covered = 0;
    while (live > 0) {
      for (Worker& wk : workers) {
        if (wk.reaped) continue;
        int status = 0;
        const pid_t r = waitpid(wk.pid, &status, WNOHANG);
        if (r == wk.pid) {
          wk.reaped = true;
          wk.rc = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
          --live;
          if (ob != nullptr) {
            ob->event("fabric_worker_exit",
                      obs::JsonWriter()
                          .field("shard",
                                 static_cast<std::uint64_t>(wk.job.shard))
                          .field("rc", static_cast<std::int64_t>(wk.rc)));
          }
        }
      }
      const std::uint64_t covered_now = progress.total_covered();
      if (ob != nullptr) {
        ob->metrics().add("slm.fabric.progress_polls_total");
        if (covered_now != last_covered) {
          ob->metrics().set("slm.fabric.traces_covered",
                            static_cast<double>(ledger.covered() +
                                                covered_now));
          last_covered = covered_now;
        }
      }
      if (live > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    stop.store(true, std::memory_order_release);
    for (std::thread& t : monitors) t.join();

    // Salvage: whatever complete snapshot prefix each worker left behind
    // counts as covered; the rest of its assignment is reissued.
    for (const Worker& wk : workers) {
      TraceRange remainder = wk.job.range;
      bool salvaged = false;
      try {
        AccumulatorSnapshot snap = load_snapshot(wk.snap);
        SLM_REQUIRE(snap.ranges.size() == 1 &&
                        snap.ranges[0].begin == wk.job.range.begin &&
                        snap.ranges[0].end <= wk.job.range.end,
                    "fabric: worker snapshot '" + wk.snap +
                        "' does not cover a prefix of its assigned range");
        ledger.cover(snap.ranges[0]);
        remainder.begin = snap.ranges[0].end;
        parts.push_back(std::move(snap));
        salvaged = true;
      } catch (const SnapshotFormatError& e) {
        // Worker died before its first snapshot: nothing usable on disk,
        // the full range goes back to the queue.
        log_info() << "fabric: shard " << wk.job.shard
                   << " left no usable snapshot (" << e.what() << ")";
      }
      if (wk.rc != 0) {
        ++result.worker_failures;
        if (ob != nullptr) {
          ob->metrics().add("slm.fabric.worker_failures_total");
        }
      }
      if (remainder.count() > 0) {
        SLM_REQUIRE(wk.rc != 0,
                    "fabric: worker exited cleanly but covered only [" +
                        std::to_string(wk.job.range.begin) + ", " +
                        std::to_string(remainder.begin) + ") of [" +
                        std::to_string(wk.job.range.begin) + ", " +
                        std::to_string(wk.job.range.end) + ")");
        queue.push_back({remainder, wk.job.shard, false});
        ++result.ranges_reissued;
        if (ob != nullptr) {
          ob->metrics().add("slm.fabric.reissues_total");
          ob->event("fabric_reissue",
                    obs::JsonWriter()
                        .field("shard",
                               static_cast<std::uint64_t>(wk.job.shard))
                        .field("begin", remainder.begin)
                        .field("end", remainder.end)
                        .field("salvaged", salvaged));
        }
      }
    }
    ++round;
  }

  SLM_REQUIRE(ledger.complete(),
              "fabric: coordinator finished with uncovered ranges");
  AccumulatorSnapshot merged = merge_snapshots(parts);
  result.snapshots_merged = parts.size();
  result.merged_path =
      (std::filesystem::path(opt.work_dir) / "merged.snap").string();
  const std::size_t bytes = save_snapshot(result.merged_path, merged);
  if (ob != nullptr) {
    ob->metrics().add("slm.fabric.snapshots_merged_total",
                      static_cast<double>(parts.size()));
    ob->metrics().set("slm.fabric.traces_covered",
                      static_cast<double>(ledger.covered()));
    ob->event("fabric_merge",
              obs::JsonWriter()
                  .field("snapshots",
                         static_cast<std::uint64_t>(parts.size()))
                  .field("covered", ledger.covered())
                  .field("bytes", static_cast<std::uint64_t>(bytes))
                  .field("path", result.merged_path));
  }
  return result;
}

}  // namespace slm::core
