// Sharded, deterministic, multi-threaded CPA campaigns.
//
// ParallelCampaign runs a campaign on N worker shards through the one
// capture engine (core/capture.hpp): per checkpoint segment every shard
// captures a contiguous chunk of the global trace sequence into a
// private accumulator, and the shards merge in fixed shard order at
// every checkpoint, so the convergence curves of Figs. 9b-18b survive
// sharding.
//
// Determinism contract (see DESIGN.md §7/§12): bit-identical results for
// ANY thread count, block size, and SIMD level — every trace's draws
// derive statelessly from (seed, trace index) and the merges run over
// integer-exact sums. Only checkpoint files record the shard count (one
// accumulator per shard), so resume needs the same --threads.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/campaign.hpp"
#include "core/setup.hpp"

namespace slm::core {

/// Resolve a user-facing thread knob: 0 = all hardware threads.
unsigned resolve_threads(unsigned requested);

/// Minimal fork-join pool: run_indexed(n, fn) executes fn(0..n-1) across
/// the workers and blocks until all are done. Reused across checkpoint
/// segments so a 20-checkpoint campaign spawns its threads once.
class ThreadPool {
 public:
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const;

  /// Run fn(i) for every i in [0, n); rethrows the first worker
  /// exception (remaining tasks still drain).
  void run_indexed(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Asynchronous variant for producer/consumer pipelines: start
  /// fn(0..n-1) on the workers and return immediately. The pool owns a
  /// copy of `fn`, so the caller's callable may go out of scope; the
  /// objects the callable references must outlive the batch (the
  /// destructor joins an in-flight batch before the threads die). One
  /// batch may be in flight at a time; submitting while busy is an
  /// error.
  void submit_indexed(std::size_t n, std::function<void(std::size_t)> fn);

  /// Block until the submitted batch drains (no-op when nothing is in
  /// flight); rethrows the first worker exception.
  void wait();

 private:
  struct Impl;
  Impl* impl_;
};

class ParallelCampaign {
 public:
  /// `threads` = 0 picks hardware_concurrency; 1 runs on the calling
  /// thread, exactly as CpaCampaign::run.
  ParallelCampaign(AttackSetup& setup, const CampaignConfig& cfg,
                   unsigned threads = 0);

  unsigned threads() const { return threads_; }

  /// Run the campaign; result.threads_used / capture_seconds report the
  /// realised parallelism and capture-loop throughput.
  CampaignResult run();

  /// Sharded fused full-key campaign: the shared capture stream is split
  /// across worker shards exactly like run(), each shard feeds a private
  /// sca::MultiByteCpa, and the coordinator merges in fixed shard order
  /// and runs the per-byte folds / early-exit logic at checkpoints.
  /// Results are bit-identical for any thread count, block size, and
  /// SIMD level — and per byte to the farmed oracle.
  FullKeyRunResult run_fullkey(const FullKeyConfig& fk = {});

 private:
  AttackSetup& setup_;
  CampaignConfig cfg_;
  unsigned threads_;
};

}  // namespace slm::core
