// Campaign benchmark harness: drives the product through its public API
// only (core::StealthyAttack, core::ParallelCampaign, store::
// TraceStoreReader / store::replay_all, serve::serve), times every call
// from outside, checks every result, and prints one JSON object as the
// last line of stdout. campaign_bench/run.py builds and runs it; see
// campaign_bench/METHOD.md for the workloads and the metric map.
//
//   slm_campaign_bench run --workload W --seed N --seconds S --trace 0|1
//                          --work-dir DIR [--store F] [--spans-out F] [--tiny]
//   slm_campaign_bench capture --seed N --traces T --out F
//
// One process runs one workload, so the peak resident set it reports
// belongs to that workload alone.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "core/attack.hpp"
#include "core/parallel.hpp"
#include "crypto/aes128.hpp"
#include "obs/jsonl.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "pdn/cycle_response.hpp"
#include "sca/cpa.hpp"
#include "sca/fold_kernels.hpp"
#include "sca/model.hpp"
#include "serve/daemon.hpp"
#include "serve/job.hpp"
#include "store/replay.hpp"
#include "store/trace_store.hpp"

namespace fs = std::filesystem;
using namespace slm;

namespace {

double now() { return obs::monotonic_seconds(); }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank quantile, q in (0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Result record: metrics in insertion order plus the operation ledger.

struct Report {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::pair<std::string, std::string>> provenance;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;

  void metric(const std::string& name, double value, const char* unit) {
    metrics.push_back({name, {value, unit}});
  }
  void info(const std::string& key, const std::string& value) {
    provenance.push_back({key, value});
  }
  // One attempted operation; `ok` false counts it failed.
  void op(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
      std::fprintf(stderr, "campaign_bench: FAILED: %s\n", what.c_str());
    }
  }

  std::string json() const {
    obs::JsonWriter m;
    for (const auto& [name, vu] : metrics) {
      char num[64];
      std::snprintf(num, sizeof num, "%.17g", vu.first);
      m.raw(name, std::string("{\"value\":") + num + ",\"unit\":\"" +
                      vu.second + "\"}");
    }
    obs::JsonWriter p;
    for (const auto& [k, v] : provenance) p.field(k, v);
    std::string fails = "[";
    for (std::size_t i = 0; i < failures.size(); ++i) {
      fails += (i ? "," : "") + ("\"" + obs::JsonWriter::escape(failures[i]) +
                                 "\"");
    }
    fails += "]";
    return obs::JsonWriter()
        .field("attempted", static_cast<std::uint64_t>(attempted))
        .field("failed", static_cast<std::uint64_t>(failed))
        .raw("failures", fails)
        .raw("metrics", m.str())
        .raw("provenance", p.str())
        .str();
  }
};

// ---------------------------------------------------------------------------
// Benchmark-side spans around each public call (traced runs only). Kept
// in memory and written out as JSONL when the run ends.

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  class Scope {
   public:
    Scope(Tracer* t, int id) : t_(t), id_(id) {}
    ~Scope() {
      if (t_ != nullptr) t_->close(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    int id_;
  };

  Scope span(const std::string& name) {
    if (!on_) return Scope(nullptr, -1);
    spans_.push_back({name, static_cast<int>(spans_.size()), current_, now(),
                      0.0});
    current_ = spans_.back().id;
    return Scope(this, current_);
  }

  void write(const std::string& path) const {
    if (!on_) return;
    std::ofstream out(path);
    for (const Rec& s : spans_) {
      out << obs::JsonWriter()
                 .field("span", s.name)
                 .field("id", static_cast<std::int64_t>(s.id))
                 .field("parent", static_cast<std::int64_t>(s.parent))
                 .field("start", s.start)
                 .field("end", s.end)
                 .str()
          << "\n";
    }
  }

 private:
  struct Rec {
    std::string name;
    int id;
    int parent;
    double start;
    double end;
  };
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end = now();
    current_ = spans_[static_cast<std::size_t>(id)].parent;
  }

  bool on_;
  int current_ = -1;
  std::vector<Rec> spans_;
};

// ---------------------------------------------------------------------------
// Bit-exact result digests (FNV-1a over the canonical field bytes), so
// 1-worker, 4-worker and replayed results compare field for field.

class Digest {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ull;
    }
  }
  void f64(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    u64(bits);
  }
  void vec(const std::vector<double>& v) {
    u64(v.size());
    for (double d : v) f64(d);
  }
  void progress(const std::vector<sca::CpaProgressPoint>& pts) {
    u64(pts.size());
    for (const auto& p : pts) {
      u64(p.traces);
      vec(p.max_abs_corr);
      u64(p.best_guess);
      u64(p.correct_rank);
      f64(p.correct_corr);
      f64(p.best_wrong_corr);
    }
  }
  void mtd(const sca::MtdResult& m) {
    u64(m.traces.has_value() ? *m.traces + 1 : 0);
    f64(m.final_margin);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::uint64_t digest(const core::CampaignResult& r) {
  Digest d;
  d.u64(r.traces_run);
  d.u64(r.recovered_guess);
  d.vec(r.final_max_abs_corr);
  d.progress(r.progress);
  d.mtd(r.mtd);
  return d.value();
}

// FullKeyByteResult (live) and ReplayFullKeyByte (replay) share these
// field names, which is what lets the replay gate compare the two.
template <class Bytes>
std::uint64_t digest_bytes(const Bytes& bytes) {
  Digest d;
  for (const auto& b : bytes) {
    d.u64(b.recovered);
    d.u64(b.success ? 1 : 0);
    d.u64(b.early_exited ? 1 : 0);
    d.u64(b.traces);
    d.vec(b.final_max_abs_corr);
    d.progress(b.progress);
    d.mtd(b.mtd);
  }
  return d.value();
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

// ---------------------------------------------------------------------------
// Options and seeds.

struct Options {
  std::string command;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool tiny = false;
  std::string work_dir = ".";
  std::string store;
  std::string spans_out;
  std::string out;
  std::size_t traces = 0;
};

Options parse(int argc, char** argv) {
  Options o;
  if (argc < 2) throw std::runtime_error("usage: slm_campaign_bench run|capture ...");
  o.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") o.workload = next();
    else if (a == "--seed") o.seed = std::stoull(next());
    else if (a == "--seconds") o.seconds = std::stod(next());
    else if (a == "--trace") o.trace = next() != "0";
    else if (a == "--tiny") o.tiny = true;
    else if (a == "--work-dir") o.work_dir = next();
    else if (a == "--store") o.store = next();
    else if (a == "--spans-out") o.spans_out = next();
    else if (a == "--out") o.out = next();
    else if (a == "--traces") o.traces = std::stoull(next());
    else throw std::runtime_error("unknown argument " + a);
  }
  return o;
}

// Campaign seed of round `r`: every round captures fresh traces, so no
// layer can serve a repeated round from a cache of an earlier one.
std::uint64_t round_seed(std::uint64_t seed, std::size_t round) {
  Xoshiro256 mix(seed * 0x9e3779b97f4a7c15ull + round);
  return mix.next();
}

// ---------------------------------------------------------------------------
// Host steal. On a shared VM the hypervisor takes CPU away from the guest
// in bursts that last minutes; during one, the 1-worker pipeline (two
// threads handing off every block) ran at half speed. A timed sample is
// clean when the stolen share of the CPU time the guest asked for during
// it stays under kStealLimit. Medians use the clean samples whenever
// there are enough of them, and a run whose rounds were disturbed keeps
// measuring, for at most half its budget again, to replace them.

constexpr double kStealLimit = 0.05;

struct CpuTimes {
  std::uint64_t busy = 0;  // user + nice + system + irq + softirq + steal
  std::uint64_t steal = 0;
};

CpuTimes cpu_times() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::array<std::uint64_t, 8> f{};
  in >> cpu;
  for (auto& x : f) in >> x;
  if (!in || cpu != "cpu") return {};
  return {f[0] + f[1] + f[2] + f[5] + f[6] + f[7], f[7]};
}

class StealWindow {
 public:
  bool clean() const {
    const CpuTimes end = cpu_times();
    if (end.busy <= start_.busy) return true;
    return static_cast<double>(end.steal - start_.steal) /
               static_cast<double>(end.busy - start_.busy) <=
           kStealLimit;
  }

 private:
  CpuTimes start_ = cpu_times();
};

// One timed quantity: its samples and each sample's steal verdict.
struct Samples {
  std::vector<double> values;
  std::vector<bool> clean;

  void add(double v, bool ok) {
    values.push_back(v);
    clean.push_back(ok);
  }
  std::size_t clean_count() const {
    return static_cast<std::size_t>(std::count(clean.begin(), clean.end(), true));
  }
  // Median of the clean samples when at least `min_clean` exist, else of
  // all of them.
  double median(std::size_t min_clean) const {
    if (clean_count() < min_clean) return ::median(values);
    std::vector<double> v;
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (clean[i]) v.push_back(values[i]);
    }
    return ::median(v);
  }
};

// Rounds run until the minimum count is met and another round of the
// average length would overrun the time budget; while fewer than the
// minimum of rounds were clean, up to 1.5 times the budget.
struct RoundClock {
  double start = now();
  double seconds;
  std::size_t min_rounds;
  bool more(std::size_t done, std::size_t clean_done) const {
    if (done < min_rounds) return true;
    const double next_end = (now() - start) * static_cast<double>(done + 1) /
                            static_cast<double>(done);
    if (next_end <= seconds) return true;
    return clean_done < min_rounds && next_end <= 1.5 * seconds;
  }
};

// A traced run pays every timed call twice and only feeds the per-layer
// medians, so it needs no minimum beyond one round.
std::size_t min_rounds(const Options& o, std::size_t untraced) {
  return o.tiny || o.trace ? 1 : untraced;
}

// ---------------------------------------------------------------------------
// Live set-up: the work a user pays before the first trace.

struct LiveSetup {
  std::unique_ptr<core::StealthyAttack> attack;
  double attack_s = 0.0;
  double check_s = 0.0;
  double campaign_s = 0.0;
  bool stealthy = false;
  double total() const { return attack_s + check_s + campaign_s; }
};

using ConfigFn = std::function<core::CampaignConfig(core::StealthyAttack&)>;

LiveSetup live_setup(core::BenignCircuit circuit, const ConfigFn& config,
                     Tracer& tr) {
  auto span = tr.span("setup");
  LiveSetup s;
  double t0 = now();
  {
    auto sp = tr.span("core.StealthyAttack");
    s.attack = std::make_unique<core::StealthyAttack>(circuit);
  }
  double t1 = now();
  {
    auto sp = tr.span("core.check_stealthiness");
    s.stealthy = s.attack->check_stealthiness().passed();
  }
  double t2 = now();
  {
    auto sp = tr.span("core.CpaCampaign");
    core::CpaCampaign campaign(s.attack->setup(), config(*s.attack));
  }
  const double t3 = now();
  s.attack_s = t1 - t0;
  s.check_s = t2 - t1;
  s.campaign_s = t3 - t2;
  return s;
}

// Set up `reps` times; the last platform is kept for the run. Reports
// the set-up medians (setup_s is the median of the totals).
struct SetupStats {
  std::vector<double> total, attack, check, campaign;
};

LiveSetup repeated_setup(core::BenignCircuit circuit, const ConfigFn& config,
                         std::size_t reps, Report& rep, Tracer& tr,
                         SetupStats& st) {
  LiveSetup s;
  for (std::size_t i = 0; i < reps; ++i) {
    s = live_setup(circuit, config, tr);
    st.total.push_back(s.total());
    st.attack.push_back(s.attack_s);
    st.check.push_back(s.check_s);
    st.campaign.push_back(s.campaign_s);
    rep.op(s.stealthy, "bitstream checker flagged the benign circuit");
  }
  return s;
}

// ---------------------------------------------------------------------------
// Per-layer accounting shared by the traced workloads. Every metric the
// benchmark defines is reported by every workload; a layer the workload
// never runs reports 0.

struct Layers {
  std::map<std::string, std::vector<double>> samples;
  void add(const std::string& name, double v) { samples[name].push_back(v); }
  double med(const std::string& name) const {
    const auto it = samples.find(name);
    return it == samples.end() ? 0.0 : median(it->second);
  }
};

double hist_sum(const obs::MetricsRegistry& m, const std::string& name) {
  return m.histogram(name).sum;
}

// Observer gauges of one traced 1-worker campaign.
void serial_layers(const obs::MetricsRegistry& m, double wall, Layers& L) {
  const double select = m.gauge("slm.campaign.selection_seconds");
  const double kernel = m.gauge("slm.campaign.kernel_seconds");
  const double cpa = m.gauge("slm.campaign.cpa_seconds");
  const double ckpt = m.gauge("slm.campaign.checkpoint_io_seconds");
  const double store = hist_sum(m, "slm.store.write_seconds");
  L.add("core.gen_wait_s", hist_sum(m, "slm.pipeline.gen_wait_seconds"));
  L.add("sca.fold.block_s", hist_sum(m, "slm.kernel.block_cpa_seconds"));
  L.add("core.unaccounted_share",
        wall > 0.0 ? 1.0 - (select + kernel + cpa + ckpt + store) / wall : 0.0);
}

// Observer gauges of one traced 4-worker campaign.
void sharded_layers(const obs::MetricsRegistry& m, Layers& L) {
  L.add("sca.select_s", m.gauge("slm.campaign.selection_seconds"));
  L.add("sca.select.passes",
        static_cast<double>(m.histogram("slm.span.selection_seconds").count));
  L.add("core.merge_s", hist_sum(m, "slm.span.merge_seconds"));
  L.add("core.kernel_cpu_s", m.gauge("slm.campaign.kernel_seconds"));
  L.add("core.cpa_s", m.gauge("slm.campaign.cpa_seconds"));
  L.add("core.checkpoints", m.counter("slm.campaign.checkpoints_total"));
  L.add("store.write_s", hist_sum(m, "slm.store.write_seconds"));
  L.add("store.bytes_written", m.counter("slm.store.bytes_written"));
}

// ---------------------------------------------------------------------------
// Layer probe: each layer's public per-trace function, timed on a block
// of the workload's own traces (its seed's plaintexts, its sensor, its
// selected bits; for replay, the stored plaintexts and readings).

struct ProbeResult {
  double encrypt_ns = 0.0;
  double voltages_ns = 0.0;
  double read_ns = 0.0;
  double fold_add_ns = 0.0;
  double expand_s = 0.0;  // one checkpoint's fold expansion
};

template <class F>
double best_of(int reps, F&& f) {
  double best = 0.0;
  for (int i = 0; i < reps; ++i) {
    const double t0 = now();
    f();
    const double dt = now() - t0;
    if (i == 0 || dt < best) best = dt;
  }
  return best;
}

ProbeResult layer_probe(core::StealthyAttack& attack,
                        const core::CampaignConfig& cfg, bool fullkey,
                        std::size_t n, const store::TraceStoreReader* store,
                        Tracer& tr) {
  auto span = tr.span("layer_probe");
  core::AttackSetup& setup = attack.setup();
  const core::Calibration& cal = setup.calibration();
  core::CpaCampaign campaign(setup, cfg);
  const std::vector<double> times = campaign.sample_times_ns();
  const std::size_t S = times.size();
  const std::vector<std::size_t> bits = campaign.select_bits_of_interest();
  if (store != nullptr) n = std::min(n, store->trace_count());
  n -= n % 64;
  if (n == 0) throw std::runtime_error("layer probe: empty trace block");

  std::vector<crypto::Block> pts(n);
  Xoshiro256 rng(cfg.seed);
  for (std::size_t t = 0; t < n; ++t) {
    if (store != nullptr) {
      pts[t] = store->plaintext(t);
    } else {
      for (auto& b : pts[t]) b = static_cast<std::uint8_t>(rng.next());
    }
  }

  ProbeResult r;
  const crypto::AesDatapathModel& victim = setup.victim();
  std::vector<crypto::AesDatapathModel::Encryption> enc(n);
  r.encrypt_ns = best_of(3, [&] {
    crypto::AesDatapathModel::RegisterSnapshot regs{};
    for (std::size_t t = 0; t < n; ++t) {
      enc[t] = victim.encrypt_stateless(pts[t], t, regs);
    }
  }) * 1e9 / static_cast<double>(n);

  const double cyc = 1000.0 / cal.aes_clock_mhz;
  std::vector<double> starts;
  for (std::size_t c = 0; c < crypto::AesDatapathModel::kCycles; ++c) {
    starts.push_back(static_cast<double>(c) * cyc);
  }
  const pdn::CycleResponseMatrix response =
      pdn::CycleResponseMatrix::build(cal.pdn, times, starts, cyc);
  constexpr std::size_t kLanes = 64;
  const std::size_t ncyc = crypto::AesDatapathModel::kCycles;
  std::vector<double> ic(n * ncyc);
  const double coupling = setup.effective_coupling();
  for (std::size_t blk = 0; blk < n / kLanes; ++blk) {
    for (std::size_t c = 0; c < ncyc; ++c) {
      for (std::size_t l = 0; l < kLanes; ++l) {
        ic[blk * kLanes * ncyc + c * kLanes + l] =
            enc[blk * kLanes + l].cycle_current[c] * coupling;
      }
    }
  }
  std::vector<double> v(n * S);
  r.voltages_ns = best_of(3, [&] {
    for (std::size_t blk = 0; blk < n / kLanes; ++blk) {
      response.voltages_block(ic.data() + blk * kLanes * ncyc, kLanes, kLanes,
                              v.data() + blk * kLanes * S, true);
    }
  }) * 1e9 / static_cast<double>(n);
  {
    std::vector<double> z(v.size());
    FastNormal::instance().fill(rng, z.data(), z.size());
    for (std::size_t i = 0; i < v.size(); ++i) v[i] += cal.env_noise_v * z[i];
  }

  std::vector<double> y(n * S);
  if (!bits.empty()) {
    const auto plan = setup.sensor().compile_hw_plan(bits);
    r.read_ns = best_of(3, [&] {
      Xoshiro256 srng(cfg.seed ^ 0x5e45);
      for (std::size_t t = 0; t < n; ++t) {
        setup.sensor().toggle_hw_batch(plan, v.data() + t * S, S, srng,
                                       y.data() + t * S);
      }
    }) * 1e9 / static_cast<double>(n);
  }
  // The fold consumes the workload's real readings when a store holds
  // them; otherwise the probe's own sensor readings.
  const bool stored = store != nullptr && store->samples() == S;
  const double* readings = stored ? store->readings(0) : y.data();
  const auto ct = [&](std::size_t t) {
    return stored ? store->ciphertext(t) : enc[t].ciphertext;
  };

  if (fullkey) {
    std::vector<sca::LastRoundBitModel> models;
    for (std::size_t j = 0; j < 16; ++j) models.emplace_back(j, 0);
    std::vector<std::uint8_t> cv(n * 16), cb(n * 16);
    for (std::size_t t = 0; t < n; ++t) {
      const crypto::Block c = ct(t);
      for (std::size_t j = 0; j < 16; ++j) {
        cv[t * 16 + j] = models[j].class_value(c);
        cb[t * 16 + j] = models[j].class_bit(c);
      }
    }
    std::optional<sca::MultiByteCpa> acc;
    r.fold_add_ns = best_of(3, [&] {
      acc.emplace(S);
      for (std::size_t t = 0; t < n; t += kLanes) {
        acc->add_block(cv.data() + t * 16, cb.data() + t * 16,
                       readings + t * S, kLanes);
      }
    }) * 1e9 / static_cast<double>(n);
    r.expand_s = best_of(3, [&] {
      for (std::size_t j = 0; j < 16; ++j) {
        const sca::CpaEngine e = acc->fold(j, models[j].pattern().data());
        if (e.trace_count() != n) throw std::runtime_error("probe fold");
      }
    });
  } else {
    const sca::LastRoundBitModel model(cfg.target_key_byte, cfg.target_bit);
    std::vector<std::uint8_t> cv(n), cb(n);
    for (std::size_t t = 0; t < n; ++t) {
      const crypto::Block c = ct(t);
      cv[t] = model.class_value(c);
      cb[t] = model.class_bit(c);
    }
    std::optional<sca::XorClassCpa> acc;
    r.fold_add_ns = best_of(3, [&] {
      acc.emplace(S);
      for (std::size_t t = 0; t < n; t += kLanes) {
        acc->add_block(cv.data() + t, cb.data() + t, readings + t * S, kLanes);
      }
    }) * 1e9 / static_cast<double>(n);
    r.expand_s = best_of(3, [&] {
      const sca::CpaEngine e = acc->fold(model.pattern().data());
      if (e.trace_count() != n) throw std::runtime_error("probe fold");
    });
  }
  return r;
}

void report_probe(const ProbeResult& p, double checkpoints, Layers& L) {
  L.add("crypto.encrypt_ns_per_trace", p.encrypt_ns);
  L.add("pdn.voltages_ns_per_trace", p.voltages_ns);
  L.add("sensors.read_ns_per_trace", p.read_ns);
  L.add("sca.fold.add_ns_per_trace", p.fold_add_ns);
  L.add("sca.fold.expand_s", p.expand_s * checkpoints);
}

// The per-layer metric table, in BENCHMARK.json order, with units.
const std::vector<std::pair<const char*, const char*>>& layer_table() {
  static const std::vector<std::pair<const char*, const char*>> t = {
      {"core.setup.attack_s", "s"},
      {"bitstream.check_s", "s"},
      {"core.setup.campaign_s", "s"},
      {"crypto.encrypt_ns_per_trace", "ns"},
      {"pdn.voltages_ns_per_trace", "ns"},
      {"core.gen_wait_s", "s"},
      {"sensors.read_ns_per_trace", "ns"},
      {"sca.select_s", "s"},
      {"sca.select.passes", "count"},
      {"sca.select.useful_ratio", "ratio"},
      {"sca.fold.add_ns_per_trace", "ns"},
      {"sca.fold.block_s", "s"},
      {"sca.fold.expand_s", "s"},
      {"core.checkpoints", "count"},
      {"core.merge_s", "s"},
      {"core.kernel_cpu_s", "s"},
      {"core.cpa_s", "s"},
      {"core.unaccounted_share", "ratio"},
      {"core.checkpoint.write_s", "s"},
      {"core.checkpoint.bytes", "B"},
      {"core.checkpoint.resumes", "count"},
      {"store.write_s", "s"},
      {"store.bytes_written", "B"},
      {"store.open_s", "s"},
      {"store.validate_mb_per_s", "MB/s"},
      {"store.replay_s_1t", "s"},
      {"store.replay_s_4t", "s"},
      {"store.bytes_read", "B"},
      {"serve.slices", "count"},
      {"serve.preemptions", "count"},
      {"serve.slice_p50_s", "s"},
      {"serve.slice_p90_s", "s"},
      {"serve.idle_s", "s"},
      {"serve.queue_wait_p50_s", "s"},
      {"serve.jobs_failed", "count"},
      {"serve.rejected", "count"},
      {"obs.trace_overhead", "ratio"},
  };
  return t;
}

void emit_layers(const Layers& L, Report& rep) {
  for (const auto& [name, unit] : layer_table()) {
    rep.metric(name, L.med(name), unit);
  }
}

void emit_end_to_end(Report& rep, double setup_s, double tps1, double tps4,
                     double turnaround) {
  rep.metric("setup_s", setup_s, "s");
  rep.metric("traces_per_s_1t", tps1, "1/s");
  rep.metric("traces_per_s_4t", tps4, "1/s");
  rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
  rep.metric("job_turnaround_p50_s", turnaround, "s");
}

void setup_layers(const SetupStats& st, Layers& L) {
  L.add("core.setup.attack_s", median(st.attack));
  L.add("bitstream.check_s", median(st.check));
  L.add("core.setup.campaign_s", median(st.campaign));
}

// ---------------------------------------------------------------------------
// W1 attack_alu_hw / W2 fullkey_alu_store: live capture, closed loop.
// Each round runs one 1-worker and one 4-worker campaign on the same
// fresh seed (alternating which goes first); RNG contract v2 promises
// the two are bit-identical. Traced runs repeat each campaign with an
// observer attached, which also gives the tracing overhead.

struct LiveRun {
  double wall = 0.0;
  std::size_t mtd = 0;  // traces to disclosure (full key: worst byte)
  bool ok = false;
  std::uint64_t digest = 0;
};

void workload_live(const Options& o, bool fullkey, Report& rep, Tracer& tr) {
  const std::size_t traces =
      fullkey ? (o.tiny ? 600000 : 800000) : (o.tiny ? 200000 : 1000000);
  const core::SensorMode mode = core::SensorMode::kBenignHw;
  const ConfigFn config = [&](core::StealthyAttack& a) {
    return fullkey ? a.fullkey_campaign_config(traces, mode)
                   : a.byte_campaign_config(3, traces, mode);
  };
  SetupStats st;
  LiveSetup s = repeated_setup(core::BenignCircuit::kAlu, config,
                               o.tiny ? 3 : 9, rep, tr, st);
  core::StealthyAttack& attack = *s.attack;
  const crypto::Block true_master = attack.setup().calibration().aes_key();
  const fs::path dir(o.work_dir);

  const auto run_one = [&](std::uint64_t seed, unsigned threads,
                           obs::CampaignObserver* ob, std::size_t budget) {
    core::CampaignConfig cfg = config(attack);
    cfg.traces = budget;
    cfg.seed = seed;
    cfg.observer = ob;
    LiveRun r;
    if (fullkey) {
      const fs::path store = dir / ("fullkey-" + std::to_string(threads) + ".trc");
      cfg.store_out = store.string();
      auto sp = tr.span(threads == 1 ? "core.run_fullkey.1t" : "core.run_fullkey.4t");
      const double t0 = now();
      core::ParallelCampaign campaign(attack.setup(), cfg, threads);
      const core::FullKeyRunResult res = campaign.run_fullkey();
      r.wall = now() - t0;
      crypto::Block lrk{};
      for (std::size_t j = 0; j < 16; ++j) lrk[j] = res.bytes[j].recovered;
      std::error_code ec;
      const bool stored = fs::file_size(store, ec) > 0 && !ec;
      fs::remove(store, ec);
      r.ok = res.all_recovered() && stored && res.traces_run == budget &&
             crypto::recover_master_key(lrk) == true_master;
      r.digest = digest_bytes(res.bytes);
      for (const auto& b : res.bytes) {
        r.mtd = std::max(r.mtd, b.mtd.traces.value_or(0));
      }
    } else {
      auto sp = tr.span(threads == 1 ? "core.run.1t" : "core.run.4t");
      const double t0 = now();
      core::ParallelCampaign campaign(attack.setup(), cfg, threads);
      const core::CampaignResult res = campaign.run();
      r.wall = now() - t0;
      r.ok = res.key_recovered && res.traces_run == budget;
      r.digest = digest(res);
      r.mtd = res.mtd.traces.value_or(0);
    }
    return r;
  };

  // Untimed warm-up at an eighth of the budget: the first campaign of a
  // process pays one-off costs (allocator growth, first-touch faults,
  // the first store file) that no later round repeats.
  for (unsigned threads : {1u, 4u}) {
    run_one(round_seed(o.seed, ~std::size_t{0}), threads, nullptr, traces / 8);
  }

  Samples tps1, tps4, walls4;
  std::vector<double> untraced_wall, traced_wall;
  Layers L;
  const std::size_t min_clean = min_rounds(o, 3);
  RoundClock clock{now(), o.seconds, min_clean};
  std::size_t round = 0, clean_rounds = 0;
  for (; clock.more(round, clean_rounds); ++round) {
    const std::uint64_t seed = round_seed(o.seed, round);
    std::map<unsigned, std::uint64_t> digests;
    bool round_clean = true;
    for (unsigned threads : round % 2 ? std::array{4u, 1u}
                                      : std::array{1u, 4u}) {
      const StealWindow steal;
      const LiveRun r = run_one(seed, threads, nullptr, traces);
      const bool clean = steal.clean();
      round_clean = round_clean && clean;
      const double tps = static_cast<double>(traces) / r.wall;
      std::fprintf(stderr,
                   "round %zu: %u worker(s) %.3f s, %.0f traces/s, MTD %zu%s\n",
                   round, threads, r.wall, tps, r.mtd,
                   clean ? "" : ", steal-disturbed");
      (threads == 1 ? tps1 : tps4).add(tps, clean);
      if (threads == 4) walls4.add(r.wall, clean);
      rep.op(r.ok, std::string(fullkey ? "full key" : "key byte 3") +
                       " not recovered, round " + std::to_string(round) +
                       ", threads " + std::to_string(threads));
      digests[threads] = r.digest;
      if (o.trace) {
        obs::CampaignObserver ob;
        const LiveRun t = run_one(seed, threads, &ob, traces);
        rep.op(t.ok && t.digest == r.digest,
               "traced campaign differs from untraced, round " +
                   std::to_string(round));
        untraced_wall.push_back(r.wall);
        traced_wall.push_back(t.wall);
        if (threads == 1) {
          serial_layers(ob.metrics(), t.wall, L);
        } else {
          sharded_layers(ob.metrics(), L);
        }
      }
    }
    rep.op(digests[1] == digests[4],
           "1-worker and 4-worker results differ, round " +
               std::to_string(round));
    clean_rounds += round_clean ? 1 : 0;
  }
  rep.info("rounds", std::to_string(round));
  rep.info("clean_rounds", std::to_string(clean_rounds));
  rep.info("traces_per_campaign", std::to_string(traces));

  if (!o.trace) {
    emit_end_to_end(rep, median(st.total), tps1.median(min_clean),
                    tps4.median(min_clean), walls4.median(min_clean));
    return;
  }
  setup_layers(st, L);
  L.add("sca.select.useful_ratio",
        L.med("sca.select.passes") > 0 ? 1.0 / L.med("sca.select.passes") : 0.0);
  core::CampaignConfig cfg = config(attack);
  cfg.seed = round_seed(o.seed, 0);
  report_probe(layer_probe(attack, cfg, fullkey, o.tiny ? 4096 : 32768,
                           nullptr, tr),
               L.med("core.checkpoints"), L);
  L.add("obs.trace_overhead", sum(traced_wall) / sum(untraced_wall));
  emit_layers(L, rep);
}

// ---------------------------------------------------------------------------
// capture: write the full-key SLMTRC1 store replay_analyze sweeps, plus a
// digest of the live result the replay must reproduce bit for bit.

core::CampaignConfig store_config(core::StealthyAttack& attack,
                                  std::size_t traces, std::uint64_t seed) {
  core::CampaignConfig cfg =
      attack.fullkey_campaign_config(traces, core::SensorMode::kBenignHw);
  cfg.seed = round_seed(seed, 0);
  return cfg;
}

int command_capture(const Options& o) {
  if (o.out.empty() || o.traces == 0) {
    throw std::runtime_error("capture needs --out and --traces");
  }
  core::StealthyAttack attack(core::BenignCircuit::kAlu);
  core::CampaignConfig cfg = store_config(attack, o.traces, o.seed);
  cfg.store_out = o.out;
  const double t0 = now();
  core::ParallelCampaign campaign(attack.setup(), cfg, 4);
  const core::FullKeyRunResult res = campaign.run_fullkey();
  std::fprintf(stderr, "campaign_bench: captured %zu traces in %.2f s\n",
               res.traces_run, now() - t0);
  std::ofstream live(o.out + ".live");
  live << hex64(digest_bytes(res.bytes)) << " "
       << (res.all_recovered() ? 1 : 0) << "\n";
  return live ? 0 : 1;
}

// ---------------------------------------------------------------------------
// W3 replay_analyze: open + validate the store (set-up), one replay_all
// sweep on 1 thread, then four concurrent sweeps over the one shared
// mapping. Every sweep must reproduce the live capture's digest.

void workload_replay(const Options& o, Report& rep, Tracer& tr) {
  if (o.store.empty()) throw std::runtime_error("replay_analyze needs --store");
  std::string live_digest;
  int live_ok = 0;
  {
    std::ifstream in(o.store + ".live");
    in >> live_digest >> live_ok;
    if (!in) throw std::runtime_error("missing live digest for " + o.store);
  }
  rep.op(live_ok == 1, "live capture did not recover the full key");

  // Untimed: the store must be the full-key capture of this seed.
  std::optional<store::TraceStoreReader> first(o.store);
  const std::size_t n = first->trace_count();
  const std::size_t file_bytes = first->file_bytes();
  core::StealthyAttack attack(core::BenignCircuit::kAlu);
  const core::CampaignConfig cfg = store_config(attack, n, o.seed);
  first->identity().require_compatible(
      core::CpaCampaign(attack.setup(), cfg)
          .store_identity(store::StoreKind::kFullKey, n),
      "campaign_bench replay");
  first.reset();
  const std::vector<std::size_t> cps = core::checkpoint_schedule(cfg.checkpoints, n);
  const crypto::Block key = attack.setup().victim().cipher().last_round_key();

  const auto sweep_ok = [&](const store::ReplayAllResult& r) {
    return r.has_fullkey && r.fullkey.success && r.traces == n &&
           hex64(digest_bytes(r.fullkey.bytes)) == live_digest;
  };

  // One timed sweep on each of `threads` concurrent threads over the
  // shared mapping; returns the wall time of the slowest.
  const auto sweep = [&](const store::TraceStoreReader& reader,
                         std::size_t threads, bool traced) {
    std::vector<store::ReplayAllResult> out(threads);
    std::vector<std::optional<obs::CampaignObserver>> obsv(threads);
    std::vector<std::exception_ptr> errors(threads);
    if (traced) {
      for (auto& x : obsv) x.emplace();
    }
    const auto one = [&](std::size_t i) {
      try {
        out[i] = store::replay_all(reader, cps, key, {},
                                   obsv[i] ? &*obsv[i] : nullptr);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    };
    auto sp = tr.span(threads == 1 ? "store.replay_all.1t"
                                   : "store.replay_all.4t");
    const double t0 = now();
    if (threads == 1) {
      one(0);
    } else {
      std::vector<std::thread> pool;
      try {
        for (std::size_t i = 0; i < threads; ++i) pool.emplace_back(one, i);
      } catch (...) {
        for (auto& th : pool) th.join();
        throw;
      }
      for (auto& th : pool) th.join();
    }
    const double wall = now() - t0;
    for (std::size_t i = 0; i < threads; ++i) {
      if (errors[i]) std::rethrow_exception(errors[i]);
      rep.op(sweep_ok(out[i]), std::to_string(threads) +
                                   "-thread replay differs from the live "
                                   "capture");
    }
    return wall;
  };

  // Each round opens the store once (the set-up sample), then sweeps on
  // 1 thread, 4 threads and 1 thread again: the 1-thread figure is the
  // noisier one, so it gets two samples a round.
  Samples open_s, sweep1, sweep4, tps1, tps4;
  std::vector<double> untraced_wall, traced_wall;
  Layers L;
  const std::size_t min_clean = min_rounds(o, 3);
  RoundClock clock{now(), o.seconds, min_clean};
  std::size_t round = 0, clean_rounds = 0;
  for (; clock.more(round, clean_rounds); ++round) {
    StealWindow steal;
    const double t0 = now();
    std::optional<store::TraceStoreReader> reader;
    {
      auto sp = tr.span("store.TraceStoreReader");
      reader.emplace(o.store);
    }
    open_s.add(now() - t0, steal.clean());
    bool round_clean = open_s.clean.back();
    for (std::size_t threads : {1, 4, 1}) {
      steal = StealWindow();
      const double wall = sweep(*reader, threads, false);
      const bool clean = steal.clean();
      round_clean = round_clean && clean;
      std::fprintf(stderr, "round %zu: %zu sweep(s) %.3f s%s\n", round,
                   threads, wall, clean ? "" : ", steal-disturbed");
      (threads == 1 ? sweep1 : sweep4).add(wall, clean);
      (threads == 1 ? tps1 : tps4)
          .add(static_cast<double>(threads * n) / wall, clean);
      if (o.trace) {
        untraced_wall.push_back(wall);
        traced_wall.push_back(sweep(*reader, threads, true));
      }
    }
    clean_rounds += round_clean ? 1 : 0;
  }
  rep.info("rounds", std::to_string(round));
  rep.info("clean_rounds", std::to_string(clean_rounds));
  rep.info("store_traces", std::to_string(n));
  rep.info("store_bytes", std::to_string(file_bytes));

  if (!o.trace) {
    emit_end_to_end(rep, open_s.median(min_clean), tps1.median(min_clean),
                    tps4.median(min_clean), sweep4.median(min_clean));
    return;
  }
  L.add("store.open_s", open_s.median(min_clean));
  L.add("store.validate_mb_per_s",
        static_cast<double>(file_bytes) / 1e6 / open_s.median(min_clean));
  L.add("store.replay_s_1t", sweep1.median(min_clean));
  L.add("store.replay_s_4t", sweep4.median(min_clean));
  L.add("store.bytes_read", static_cast<double>(file_bytes));
  L.add("core.checkpoints", static_cast<double>(cps.size()));
  {
    store::TraceStoreReader reader(o.store);
    const ProbeResult p =
        layer_probe(attack, cfg, true, o.tiny ? 4096 : 32768, &reader, tr);
    report_probe(p, static_cast<double>(cps.size()), L);
    // Whole-store accumulator update, the fold share of one sweep.
    std::vector<sca::LastRoundBitModel> models;
    for (std::size_t j = 0; j < 16; ++j) models.emplace_back(j, 0);
    const std::size_t block = 4096;
    std::vector<std::uint8_t> cv(block * 16), cb(block * 16);
    sca::MultiByteCpa acc(reader.samples());
    double fold_s = 0.0;
    for (std::size_t t0 = 0; t0 < n; t0 += block) {
      const std::size_t cnt = std::min(block, n - t0);
      for (std::size_t t = 0; t < cnt; ++t) {
        const crypto::Block c = reader.ciphertext(t0 + t);
        for (std::size_t j = 0; j < 16; ++j) {
          cv[t * 16 + j] = models[j].class_value(c);
          cb[t * 16 + j] = models[j].class_bit(c);
        }
      }
      const double f0 = now();
      acc.add_block(cv.data(), cb.data(), reader.readings(t0), cnt);
      fold_s += now() - f0;
    }
    L.add("sca.fold.block_s", fold_s);
  }
  L.add("obs.trace_overhead", sum(traced_wall) / sum(untraced_wall));
  emit_layers(L, rep);
}

// ---------------------------------------------------------------------------
// W4 serve_tenants: a closed batch on serve::serve, spooled before the
// daemon starts, preemptive timeslices on. Tenant `bulk` runs full-key
// ALU-HW jobs, `probe` many small TDC byte attacks, `mult` C6288 HW
// byte attacks. The seed draws the probe key bytes, every priority and
// the spool order; the traces per tenant are fixed so that every seed
// asks the same amount of work.

std::vector<serve::JobSpec> job_mix(std::uint64_t seed, bool tiny) {
  Xoshiro256 rng(seed ^ 0x5e7e);
  std::vector<serve::JobSpec> jobs;
  const auto add = [&](const std::string& tenant, serve::JobKind kind,
                       core::BenignCircuit circuit, core::SensorMode mode,
                       std::uint64_t traces, std::uint64_t key_byte) {
    serve::JobSpec j;
    j.tenant = tenant;
    j.kind = kind;
    j.circuit = circuit;
    j.mode = mode;
    j.traces = traces;
    j.key_byte = key_byte;
    j.priority = static_cast<std::int64_t>(rng.uniform_int(3));
    jobs.push_back(j);
  };
  // Job specs carry no seed, so the bulk and mult jobs compute the same
  // result for every benchmark seed: the full key discloses by ~200k
  // traces and C6288 key byte 3 (the paper's target; other bytes are not
  // reliably recovered at a serve-sized budget) by ~75k.
  add("bulk", serve::JobKind::kFullKey, core::BenignCircuit::kAlu,
      core::SensorMode::kBenignHw, 300000, 0);
  add("mult", serve::JobKind::kAttack, core::BenignCircuit::kC6288x2,
      core::SensorMode::kBenignHw, 150000, 3);
  std::array<std::uint64_t, 16> bytes{};
  for (std::size_t i = 0; i < 16; ++i) bytes[i] = i;
  for (std::size_t i = 15; i > 0; --i) {
    std::swap(bytes[i], bytes[rng.uniform_int(i + 1)]);
  }
  const std::size_t probes = tiny ? 2 : 8;
  for (std::size_t i = 0; i < probes; ++i) {
    add("probe", serve::JobKind::kAttack, core::BenignCircuit::kAlu,
        core::SensorMode::kTdcFull, 4000, bytes[i]);
  }
  for (std::size_t i = jobs.size() - 1; i > 0; --i) {
    std::swap(jobs[i], jobs[rng.uniform_int(i + 1)]);
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    char id[32];
    std::snprintf(id, sizeof id, "j%02zu-%s", i, jobs[i].tenant.c_str());
    jobs[i].id = id;
  }
  return jobs;
}

struct BatchStats {
  double setup = 0.0;     // serve() call -> first slice start
  double batch = 0.0;     // serve() call -> last result
  std::vector<double> turnaround;
  std::uint64_t traces = 0;
  // Per-layer numbers from serve.jsonl and the per-job event streams.
  std::vector<double> slices, queue_waits;
  std::size_t preemptions = 0, failed = 0, rejected = 0;
  std::size_t select_passes = 0, checkpoints = 0, fullkey_checkpoints = 0,
              resumes = 0;
  double select_s = 0.0, merge_s = 0.0, ckpt_write_s = 0.0, ckpt_bytes = 0.0;
  double idle = 0.0;
  bool clean = true;  // no steal burst during the batch
};

std::vector<obs::FlatJson> read_events(const fs::path& path) {
  std::vector<obs::FlatJson> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) out.push_back(obs::FlatJson::parse(line));
  }
  return out;
}

BatchStats run_batch(const std::vector<serve::JobSpec>& jobs, unsigned threads,
                     const fs::path& dir, Report& rep, Tracer& tr) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  const fs::path spool = dir / "spool";
  const fs::path results = dir / "results";
  fs::create_directories(spool);
  std::uint64_t traces = 0;
  for (const serve::JobSpec& j : jobs) {
    std::ofstream(spool / (j.id + ".json")) << serve::job_to_json(j) << "\n";
    traces += j.traces;
  }
  serve::ServeOptions opt;
  opt.spool_dir = spool.string();
  opt.results_dir = results.string();
  opt.max_queue = jobs.size();
  opt.timeslice_traces = 50000;
  opt.threads = threads;

  BatchStats b;
  b.traces = traces;
  const double t0 = now();
  serve::ServeReport sr;
  {
    auto sp = tr.span(threads == 1 ? "serve.serve.1t" : "serve.serve.4t");
    sr = serve::serve(opt);
  }
  b.preemptions = sr.preemptions;
  b.failed = sr.jobs_failed;
  b.rejected = sr.jobs_rejected;

  std::map<std::string, double> ready;  // job -> admitted / requeued ts
  std::map<std::string, double> started;
  double first_start = -1.0, last_done = t0;
  for (const obs::FlatJson& e : read_events(results / "serve.jsonl")) {
    const std::string ev = e.string_field("ev").value_or("");
    const double ts = e.number_field("ts").value_or(t0);
    const std::string job = e.string_field("job").value_or("");
    if (ev == "job_admitted" || ev == "job_preempted") {
      if (ev == "job_preempted") b.slices.push_back(ts - started[job]);
      ready[job] = ts;
    } else if (ev == "job_slice_start") {
      if (first_start < 0.0) first_start = ts;
      started[job] = ts;
      b.queue_waits.push_back(ts - ready[job]);
    } else if (ev == "job_done" || ev == "job_failed") {
      b.slices.push_back(ts - started[job]);
      b.turnaround.push_back(ts - t0);
      last_done = std::max(last_done, ts);
    }
  }
  b.setup = first_start - t0;
  b.batch = last_done - t0;
  b.idle = b.batch - sum(b.slices);

  for (const serve::JobSpec& j : jobs) {
    const fs::path jd = results / j.id;
    std::ifstream in(jd / "result.json");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    bool success = false;
    if (!text.empty()) {
      const obs::FlatJson r = obs::FlatJson::parse(text);
      success = r.bool_field("success").value_or(false) &&
                !r.bool_field("failed").value_or(false);
    }
    rep.op(success, "serve job " + j.id + " did not succeed (" +
                        std::to_string(threads) + " workers)");
    for (const obs::FlatJson& e : read_events(jd / "events.jsonl")) {
      const std::string ev = e.string_field("ev").value_or("");
      const std::string name = e.string_field("name").value_or("");
      if (ev == "span" && name == "selection") {
        ++b.select_passes;
        b.select_s += e.number_field("seconds").value_or(0.0);
      } else if (ev == "span" && name == "merge") {
        b.merge_s += e.number_field("seconds").value_or(0.0);
      } else if (ev == "snapshot") {
        b.ckpt_write_s += e.number_field("seconds").value_or(0.0);
        b.ckpt_bytes += e.number_field("bytes").value_or(0.0);
      } else if (ev == "resume") {
        ++b.resumes;
      } else if (ev == "checkpoint") {
        ++b.checkpoints;
      } else if (ev == "fullkey_checkpoint") {
        ++b.checkpoints;
        ++b.fullkey_checkpoints;
      }
    }
  }
  rep.op(sr.jobs_failed == 0 && sr.jobs_rejected == 0 &&
             sr.jobs_completed == jobs.size() && !sr.halted,
         "serve batch: " + std::to_string(sr.jobs_failed) + " failed, " +
             std::to_string(sr.jobs_rejected) + " rejected, " +
             std::to_string(sr.jobs_completed) + " completed");
  fs::remove_all(dir, ec);
  return b;
}

void workload_serve(const Options& o, Report& rep, Tracer& tr) {
  const std::vector<serve::JobSpec> jobs = job_mix(o.seed, o.tiny);
  const fs::path dir = fs::path(o.work_dir) / "serve";
  Samples setups, tps1, tps4;
  std::vector<double> untraced_wall, traced_wall;
  std::vector<BatchStats> batches4;
  const std::size_t min_clean = min_rounds(o, 2);
  RoundClock clock{now(), o.seconds, min_clean};
  std::size_t round = 0, clean_rounds = 0;
  for (; clock.more(round, clean_rounds); ++round) {
    bool round_clean = true;
    for (unsigned threads : round % 2 ? std::array{4u, 1u}
                                      : std::array{1u, 4u}) {
      const StealWindow steal;
      BatchStats b = run_batch(jobs, threads, dir, rep, tr);
      b.clean = steal.clean();
      round_clean = round_clean && b.clean;
      std::fprintf(stderr, "batch: %u worker(s) %.3f s, %.0f traces/s%s\n",
                   threads, b.batch, static_cast<double>(b.traces) / b.batch,
                   b.clean ? "" : ", steal-disturbed");
      setups.add(b.setup, b.clean);
      const double tps = static_cast<double>(b.traces) / b.batch;
      (threads == 1 ? tps1 : tps4).add(tps, b.clean);
      if (threads == 4) batches4.push_back(b);
    }
    clean_rounds += round_clean ? 1 : 0;
  }
  rep.info("rounds", std::to_string(round));
  rep.info("clean_rounds", std::to_string(clean_rounds));
  rep.info("jobs_per_batch", std::to_string(jobs.size()));
  if (!o.trace) {
    // Every job of the clean 4-worker batches, or of all of them when
    // too few were clean.
    const bool gate = tps4.clean_count() >= min_clean;
    std::vector<double> turnaround4;
    for (const BatchStats& b : batches4) {
      if (b.clean || !gate) {
        turnaround4.insert(turnaround4.end(), b.turnaround.begin(),
                           b.turnaround.end());
      }
    }
    emit_end_to_end(rep, setups.median(min_clean), tps1.median(min_clean),
                    tps4.median(min_clean), median(turnaround4));
    return;
  }

  // serve() always streams its own event files, so the traced/untraced
  // pair differs only by the benchmark's own spans and parsing; the
  // overhead compares two 4-worker batches with the tracer off and on.
  {
    Tracer off(false);
    untraced_wall.push_back(run_batch(jobs, 4, dir, rep, off).batch);
    traced_wall.push_back(run_batch(jobs, 4, dir, rep, tr).batch);
  }
  Layers L;
  for (const BatchStats& b : batches4) {
    L.add("serve.slices", static_cast<double>(b.slices.size()));
    L.add("serve.preemptions", static_cast<double>(b.preemptions));
    L.add("serve.slice_p50_s", median(b.slices));
    L.add("serve.slice_p90_s", quantile(b.slices, 0.9));
    L.add("serve.idle_s", b.idle);
    L.add("serve.queue_wait_p50_s", median(b.queue_waits));
    L.add("serve.jobs_failed", static_cast<double>(b.failed));
    L.add("serve.rejected", static_cast<double>(b.rejected));
    L.add("sca.select_s", b.select_s);
    L.add("sca.select.passes", static_cast<double>(b.select_passes));
    L.add("sca.select.useful_ratio",
          b.select_passes ? static_cast<double>(jobs.size()) /
                                static_cast<double>(b.select_passes)
                          : 0.0);
    L.add("core.merge_s", b.merge_s);
    L.add("core.checkpoints", static_cast<double>(b.checkpoints));
    L.add("core.checkpoint.write_s", b.ckpt_write_s);
    L.add("core.checkpoint.bytes", b.ckpt_bytes);
    L.add("core.checkpoint.resumes", static_cast<double>(b.resumes));
  }
  // Probe the heaviest tenant's inputs: the full-key ALU-HW job, on the
  // C6288 sensor for the sense layer (the layer only `mult` exercises).
  {
    core::StealthyAttack alu(core::BenignCircuit::kAlu);
    const core::CampaignConfig cfg =
        alu.fullkey_campaign_config(300000, core::SensorMode::kBenignHw);
    double fk_checkpoints = 0.0;
    for (const BatchStats& b : batches4) {
      fk_checkpoints += static_cast<double>(b.fullkey_checkpoints);
    }
    fk_checkpoints /= static_cast<double>(batches4.size());
    ProbeResult p = layer_probe(alu, cfg, true, o.tiny ? 4096 : 32768,
                                nullptr, tr);
    core::StealthyAttack mult(core::BenignCircuit::kC6288x2);
    const ProbeResult pm = layer_probe(
        mult,
        mult.byte_campaign_config(3, 150000, core::SensorMode::kBenignHw),
        false, o.tiny ? 4096 : 32768, nullptr, tr);
    p.read_ns = pm.read_ns;
    report_probe(p, fk_checkpoints, L);
  }
  L.add("obs.trace_overhead", sum(traced_wall) / sum(untraced_wall));
  emit_layers(L, rep);
}

// ---------------------------------------------------------------------------

int command_run(const Options& o) {
  Report rep;
  Tracer tr(o.trace);
  fs::create_directories(o.work_dir);
  rep.info("workload", o.workload);
  rep.info("seed", std::to_string(o.seed));
  rep.info("nproc", std::to_string(std::thread::hardware_concurrency()));
  rep.info("fold_dispatch", sca::dispatch_level_name(sca::active_dispatch()));
  rep.info("rng_contract", core::rng_contract_name(
                               core::resolve_contract(core::RngContract::kDefault)));
  rep.info("block_size", std::to_string(core::resolve_block(0)));

  if (o.workload == "attack_alu_hw") {
    workload_live(o, false, rep, tr);
  } else if (o.workload == "fullkey_alu_store") {
    workload_live(o, true, rep, tr);
  } else if (o.workload == "replay_analyze") {
    workload_replay(o, rep, tr);
  } else if (o.workload == "serve_tenants") {
    workload_serve(o, rep, tr);
  } else {
    throw std::runtime_error("unknown workload '" + o.workload + "'");
  }
  if (!o.spans_out.empty()) tr.write(o.spans_out);
  std::printf("%s\n", rep.json().c_str());
  return rep.failed == 0 ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    set_log_level(LogLevel::kWarn);
    const Options o = parse(argc, argv);
    if (o.command == "run") return command_run(o);
    if (o.command == "capture") return command_capture(o);
    throw std::runtime_error("unknown command '" + o.command + "'");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "slm_campaign_bench: error: %s\n", e.what());
    return 2;
  }
}
