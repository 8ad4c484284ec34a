// Full-key CPA: the fused shared-capture engine (one trace stream feeds
// all 16 byte x 256 guess folds) against the farmed 16-campaign oracle
// at EQUAL per-byte trace budgets. The fused engine captures each trace
// once where the farm captures it 16 times, so the honest expectation
// is a ~16x capture-cost win minus the fused fold overhead; the JSON
// reports the measured ratio as "fullkey_speedup". Both paths run the
// SAME shared campaign config (StealthyAttack::fullkey_campaign_config),
// which is what makes their per-byte answers comparable at all — see
// docs/FULLKEY.md and the bit-exactness oracle in tests/core.
#include <cstdio>

#include "bench_util.hpp"
#include "core/attack.hpp"

using namespace slm;

namespace {

void write_fullkey_json(const core::StealthyAttack::FullKeyReport& fused,
                        const core::StealthyAttack::FullKeyReport& farmed,
                        double speedup,
                        const obs::CampaignObserver* observer) {
  const std::string path = "BENCH_fullkey.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::cout << "warning: could not write " << path << "\n";
    return;
  }
  bool keys_match = true;
  for (std::size_t b = 0; b < 16; ++b) {
    keys_match =
        keys_match && fused.bytes[b].recovered == farmed.bytes[b].recovered;
  }
  std::fprintf(
      f,
      "{\n"
      "  \"bench\": \"fullkey\",\n"
      "  \"threads\": %u,\n"
      "  \"block_size\": %zu,\n"
      "  \"rng_contract\": \"%s\",\n"
      "  \"fused\": {\n"
      "    \"traces_captured\": %zu,\n"
      "    \"capture_seconds\": %.6f,\n"
      "    \"traces_per_sec\": %.1f,\n"
      "    \"bytes_early_exited\": %zu,\n"
      "    \"key_recovered\": %s\n"
      "  },\n"
      "  \"farmed\": {\n"
      "    \"traces_captured\": %zu,\n"
      "    \"capture_seconds\": %.6f,\n"
      "    \"traces_per_sec\": %.1f,\n"
      "    \"key_recovered\": %s\n"
      "  },\n"
      "  \"keys_match\": %s,\n"
      "  \"fullkey_speedup\": %.3f,\n"
      "  \"metrics\": {\n"
      "    \"registry\": %s\n"
      "  }\n"
      "}\n",
      fused.threads_used, fused.block_size,
      core::rng_contract_name(core::RngContract::kV2), fused.traces_captured,
      fused.capture_seconds,
      fused.capture_seconds > 0.0
          ? static_cast<double>(fused.traces_captured) / fused.capture_seconds
          : 0.0,
      fused.bytes_early_exited, fused.success ? "true" : "false",
      farmed.traces_captured, farmed.capture_seconds,
      farmed.capture_seconds > 0.0
          ? static_cast<double>(farmed.traces_captured) /
                farmed.capture_seconds
          : 0.0,
      farmed.success ? "true" : "false", keys_match ? "true" : "false",
      speedup,
      observer != nullptr ? observer->metrics().to_json().c_str() : "{}");
  std::fclose(f);
  std::cout << "wrote " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned threads = bench::thread_budget(argc, argv);
  const std::size_t traces = bench::trace_budget(100000);
  bench::print_header("Full-key CPA",
                      "fused shared capture vs the farmed 16-campaign farm");

  std::shared_ptr<obs::CampaignObserver> observer = obs::observer_from_env();
  if (observer == nullptr) {
    observer = std::make_shared<obs::CampaignObserver>();
  }

  std::printf("mode tdc-full, %zu traces, %u thread(s)\n\n", traces, threads);

  // Fused: one shared capture pass, all 16 bytes, per-byte early exit.
  core::StealthyAttack fused_attack(core::BenignCircuit::kAlu);
  core::FullKeyOptions fused_opts;
  fused_opts.run.observer = observer.get();
  const auto fused = fused_attack.recover_full_key(
      traces, core::SensorMode::kTdcFull, threads, fused_opts);
  std::printf("fused : %7zu traces captured, %.3f s, %s, "
              "%zu byte(s) early-exited\n",
              fused.traces_captured, fused.capture_seconds,
              fused.success ? "key RECOVERED" : "key NOT recovered",
              fused.bytes_early_exited);

  // Farmed oracle: 16 independent byte campaigns over the same shared
  // config — 16x the captures for the same per-byte trace budget.
  core::StealthyAttack farmed_attack(core::BenignCircuit::kAlu);
  core::FullKeyOptions farmed_opts;
  farmed_opts.mode = core::FullKeyMode::kFarmed;
  const auto farmed = farmed_attack.recover_full_key(
      traces, core::SensorMode::kTdcFull, threads, farmed_opts);
  std::printf("farmed: %7zu traces captured, %.3f s, %s\n",
              farmed.traces_captured, farmed.capture_seconds,
              farmed.success ? "key RECOVERED" : "key NOT recovered");

  const double speedup = fused.capture_seconds > 0.0
                             ? farmed.capture_seconds / fused.capture_seconds
                             : 0.0;
  std::printf("fullkey speedup: %.2fx (farmed %.3f s / fused %.3f s)\n\n",
              speedup, farmed.capture_seconds, fused.capture_seconds);

  bench::ShapeChecks checks;
  bool keys_match = true;
  for (std::size_t b = 0; b < 16; ++b) {
    keys_match =
        keys_match && fused.bytes[b].recovered == farmed.bytes[b].recovered;
  }
  checks.expect("fused and farmed recover identical per-byte keys",
                keys_match);
  checks.expect("fused and farmed master keys match",
                fused.master_key == farmed.master_key);
  // Recovery needs enough traces; the smoke budget (SLM_TRACES=2000)
  // only exercises the equality shape above.
  if (traces >= 4000) {
    checks.expect("fused recovers the full key", fused.success);
    checks.expect("farmed oracle recovers the full key", farmed.success);
  } else {
    std::cout << "(recovery checks skipped below 4000 traces)\n";
  }
  // The capture-cost ratio is only meaningful once per-run overheads
  // (selection pre-pass, fold cost at the checkpoint schedule, the 16
  // platform replicas the farm builds) amortize against capture time.
  if (traces >= 100000) {
    checks.expect("fullkey_speedup >= 8x vs the farmed oracle",
                  speedup >= 8.0);
  } else {
    std::cout << "(speedup check skipped below 100000 traces)\n";
  }

  write_fullkey_json(fused, farmed, speedup, observer.get());
  return checks.finish();
}
