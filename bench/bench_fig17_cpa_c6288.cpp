// Figure 17: CPA with traces derived from the two C6288 multipliers —
// the Hamming weight over the concatenated 64-bit output, reduced to the
// highest-variance bits of interest. Paper: ~200k traces (and a single
// instance was insufficient even at 500k).
#include "bench_util.hpp"

using namespace slm;

int main(int argc, char** argv) {
  const unsigned threads = bench::thread_budget(argc, argv);
  bench::print_header("Figure 17",
                      "CPA on AES with two C6288 multipliers (HW mode)");
  core::CampaignConfig cfg;
  cfg.mode = core::SensorMode::kBenignHw;
  cfg.traces = bench::trace_budget(500000);
  // The multiplier's glitchy endpoints carry variance without slope, so
  // the HW is restricted to the top bits of interest (see DESIGN.md).
  cfg.selection_top_k = 12;
  const auto fig = bench::run_cpa_figure(core::BenignCircuit::kC6288x2, cfg, threads);

  bench::ShapeChecks checks;
  const auto eq =
      bench::compare_kernel_paths(core::BenignCircuit::kC6288x2, cfg);
  checks.expect("block kernels bit-identical at block = 1",
                eq.equivalent);
  bench::write_bench_json("fig17", fig.campaign, cfg, eq,
                          fig.observer.get());
  if (bench::full_shape_budget(cfg.traces)) {
    checks.expect("correct key byte recovered from the combined multipliers",
                  fig.campaign.key_recovered);
    checks.expect("disclosed within the 500k budget",
                  fig.campaign.mtd.disclosed());
    if (fig.campaign.mtd.disclosed()) {
      std::cout << "paper: ~200k traces; measured: ~"
                << *fig.campaign.mtd.traces << "\n";
      checks.expect("multiplier HW costs more traces than the TDC",
                    *fig.campaign.mtd.traces >= 10000);
    }
  } else {
    std::cout << "[shape SKIP] recovery checks need >= 50000 traces\n";
  }
  return checks.finish();
}
