// Figure 10: CPA with traces derived from the overclocked ALU (Hamming
// weight over the bits of interest), 150 MS/s effective rate. Paper:
// correct key byte after about 150k traces.
#include "bench_util.hpp"

using namespace slm;

int main(int argc, char** argv) {
  const unsigned threads = bench::thread_budget(argc, argv);
  bench::print_header("Figure 10",
                      "CPA on AES with the misused 192-bit ALU (HW mode)");
  core::CampaignConfig cfg;
  cfg.mode = core::SensorMode::kBenignHw;
  cfg.traces = bench::trace_budget(500000);
  const auto fig = bench::run_cpa_figure(core::BenignCircuit::kAlu, cfg, threads);

  bench::ShapeChecks checks;
  const auto eq = bench::compare_kernel_paths(core::BenignCircuit::kAlu, cfg);
  checks.expect("block kernels bit-identical at block = 1",
                eq.equivalent);
  bench::write_bench_json("fig10", fig.campaign, cfg, eq,
                          fig.observer.get());
  if (bench::full_shape_budget(cfg.traces)) {
    checks.expect("correct key byte recovered", fig.campaign.key_recovered);
    checks.expect("disclosed within the 500k budget",
                  fig.campaign.mtd.disclosed());
    if (fig.campaign.mtd.disclosed()) {
      std::cout << "paper: ~150k traces; measured: ~"
                << *fig.campaign.mtd.traces << "\n";
      checks.expect("needs orders of magnitude more traces than the TDC",
                    *fig.campaign.mtd.traces >= 10000);
    }
  } else {
    std::cout << "[shape SKIP] recovery checks need >= 50000 traces\n";
  }
  return checks.finish();
}
