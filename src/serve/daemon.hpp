// The `slm serve` daemon: campaign-as-a-service over a spool directory.
//
// One resident process multiplexes many tenants' campaign jobs over ONE
// shared core::ThreadPool. A spool-watcher thread admits job files into
// the bounded FairShareScheduler (admission control: excess or
// malformed files land in <spool>/rejected/, never silently dropped);
// the serve loop pops one fair-share timeslice at a time and runs it
// through the existing campaign engines. Preemption reuses the
// bit-exact checkpoint mechanism verbatim: a slice runs with
// halt_after_traces set to the next checkpoint past its budget, the
// engine throws CampaignHalted right after the SLMSNAP1 checkpoint lands,
// and the job is requeued to resume from that snapshot later — so a
// job's final result is byte-identical to running it uninterrupted
// (serve_test / serve_smoke prove this, including across a daemon kill
// and restart). Everything observable streams as JSONL: the daemon's
// own feed at <results>/serve.jsonl plus one events.jsonl per job.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/observer.hpp"
#include "serve/scheduler.hpp"

namespace slm::serve {

struct ServeOptions {
  std::string spool_dir;    ///< *.json job files in; rejected/ subdir out
  std::string results_dir;  ///< serve.jsonl + one directory per job

  /// Bounded-queue capacity (admission control). Files found while the
  /// queue is full are rejected, not deferred: backpressure must be
  /// visible to tenants, and the spool itself is the retry buffer.
  std::size_t max_queue = kDefaultQueueCapacity;

  /// Traces one slice may add to a job before it is preempted (0 = run
  /// every job to completion). Actual preemption lands on the next
  /// checkpoint boundary past the budget; a slice is only capped when
  /// other work is queued (work-conserving), and never when the next
  /// boundary would already finish the job.
  std::uint64_t timeslice_traces = 0;

  /// Workers in the shared pool (0 = hardware concurrency). Every
  /// in-process slice runs on this one pool via CampaignConfig::pool.
  unsigned threads = 1;

  /// Stop after this many slices even if work remains (0 = off) — the
  /// deterministic stand-in for killing the daemon; `slm serve` exits
  /// with code 12 when this tripped with jobs still pending. A restart
  /// over the same directories resumes every unfinished job from its
  /// checkpoint.
  std::uint64_t max_slices = 0;

  /// Spool poll cadence and how many consecutive empty scans (with an
  /// empty queue) mean "drained, exit". A resident deployment sets
  /// idle_polls high; the CLI default drains and exits.
  std::uint64_t poll_ms = 25;
  std::uint64_t idle_polls = 2;

  /// Worker executable for fabric-dispatched jobs (empty = this binary
  /// via /proc/self/exe, resolved by the CLI).
  std::string slm_binary;
};

/// What one serve() run did — mirrored in the final `serve_state` event
/// and the `slm.serve.*` metrics.
struct ServeReport {
  std::size_t jobs_admitted = 0;
  std::size_t jobs_recovered = 0;  ///< re-admitted after a daemon restart
  std::size_t jobs_rejected = 0;   ///< queue-full + malformed spool files
  std::size_t jobs_completed = 0;
  std::size_t jobs_failed = 0;
  std::size_t preemptions = 0;
  std::size_t slices = 0;
  /// true ONLY when max_slices tripped with work remaining (CLI exit
  /// 12); a drained exit never sets it, even if spool_remaining > 0.
  bool halted = false;
  /// Job files still in the spool at exit that no rejection accounts
  /// for — arrivals that raced the shutdown. Never lost: the next
  /// serve() over the same spool admits them.
  std::size_t spool_remaining = 0;
};

/// Run the daemon loop until the spool drains (or max_slices trips).
/// Creates the spool/results directories as needed. On entry, scans
/// <results> for jobs a previous daemon left unfinished (job.json
/// present, result.json absent) and re-admits them at their checkpoint.
ServeReport serve(const ServeOptions& opt);

/// One tenant's row in `slm status`.
struct StatusTenant {
  std::string tenant;
  std::uint64_t charged = 0;
  std::uint64_t pending = 0;
};

/// Queue/tenant summary assembled from <results>/serve.jsonl and a
/// spool-directory count — read-only, safe against a live daemon.
struct StatusSummary {
  bool found = false;  ///< serve.jsonl existed
  std::uint64_t queue_depth = 0;
  std::uint64_t slices = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t spool_pending = 0;  ///< job files not yet admitted
  std::string running_job;          ///< last slice started, "" when done
  std::vector<StatusTenant> tenants;
};

StatusSummary read_status(const std::string& results_dir,
                          const std::string& spool_dir);

}  // namespace slm::serve
