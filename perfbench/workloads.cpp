#include "workloads.hpp"

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "common/thread_pool.hpp"
#include "core/pairlist_cpe.hpp"
#include "core/strategies.hpp"
#include "io/traj.hpp"
#include "md/simulation.hpp"
#include "md/water.hpp"
#include "net/parallel_sim.hpp"
#include "obs/critpath.hpp"
#include "obs/metrics.hpp"
#include "pme/pme.hpp"
#include "svc/journal.hpp"
#include "svc/scheduler.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using namespace swgmx;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

/// MD steps behind every simulated-clock metric and every traced pass: a
/// multiple of nstlist, and enough samples that p95 has 10 beyond it.
constexpr int kWindowSteps = 200;
/// Set-ups timed per run; setup_s is their median, which ignores the first,
/// colder ones (up to three of them run 3x slower in a fresh process).
constexpr int kSetups = 7;
/// Temperature band, as multiples of the thermostat target (Berendsen,
/// tau_t 0.1 ps). The generated lattice relaxes, heating the box to about
/// 3.5x the target within 10 steps, and the thermostat then pulls it back
/// (about 1.35x after 200 steps). Every sample must lie in the wide band and
/// the last one in the narrow band; broken forces or constraints leave both.
constexpr double kTemperatureMin = 0.5;
constexpr double kTemperatureMax = 4.0;
constexpr double kTemperatureFinalMax = 1.5;
/// Completed service jobs re-run alone per run for the isolation check.
constexpr int kSoloChecks = 6;
/// Kernel labels reported as sw.<label>.*: every CoreGroup::run label the
/// three workloads launch.
constexpr const char* kKernelLabels[] = {"sr/force",  "sr/reduce",
                                         "pme/spread", "pme/reduce",
                                         "pme/fft",   "pme/convolve",
                                         "pme/gather"};
/// Table-1 phases reported as md.phase.<key>.sim_ms.
constexpr std::pair<const char*, const char*> kPhases[] = {
    {"force", md::phase::kForce},
    {"neighbor_search", md::phase::kNeighborSearch},
    {"wait_comm_f", md::phase::kWaitCommF},
    {"comm_energies", md::phase::kCommEnergies},
    {"buffer_ops", md::phase::kBufferOps},
    {"update", md::phase::kUpdate},
    {"constraints", md::phase::kConstraints},
    {"write_traj", md::phase::kWriteTraj}};

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// splitmix64: every seeded workload property derives from it.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double unit_interval(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

int threads() { return common::ThreadPool::global().size(); }

void set(RunResult& r, const std::string& name, double value,
         const char* unit) {
  r.metrics[name] = Metric{value, unit};
}

void print_samples(const char* what, const std::vector<double>& v) {
  std::cout << "  " << what << " samples:";
  for (double x : v) std::cout << " " << x;
  std::cout << "\n";
}

void fail(RunResult& r, std::string why) {
  r.correct = false;
  r.problems.push_back(std::move(why));
}

/// "sw.<label with dots>.<what>" for a kernel label such as "sr/force".
std::string sw_metric(const char* label, const char* what) {
  std::string name = std::string("sw.") + label + "." + what;
  for (char& c : name) c = c == '/' ? '.' : c;
  return name;
}

/// Per-layer metric names and units. A traced run emits exactly these on
/// every workload, 0 where the workload does not exercise the layer.
std::vector<std::pair<std::string, std::string>> layer_metric_table() {
  std::vector<std::pair<std::string, std::string>> t = {
      {"core.sr.host_ms", "ms"},        {"core.sr.sim_ms", "ms"},
      {"core.sr.calls", "count"},       {"core.pairlist.host_ms", "ms"},
      {"core.pairlist.sim_ms", "ms"},   {"core.pairlist.calls", "count"},
      {"core.pairlist.cluster_pairs", "count"},
      {"pme.host_ms", "ms"},            {"pme.sim_ms", "ms"},
      {"pme.calls", "count"},           {"pme.spread_sim_ms", "ms"},
      {"pme.fft_sim_ms", "ms"},         {"pme.gather_sim_ms", "ms"},
      {"pme.dma_bytes", "B"},           {"md.step_host_ms", "ms"},
      {"md.self_host_ms", "ms"},        {"md.step_sim_ms", "ms"},
      {"net.max_pair_share", "fraction"},
      {"critpath.network_share", "fraction"},
      {"critpath.cpe_compute_s", "s"},  {"critpath.ldm_dma_s", "s"},
      {"critpath.mpe_s", "s"},          {"critpath.barrier_s", "s"},
      {"io.traj.host_ms", "ms"},        {"io.traj.bytes", "B"},
      {"io.checkpoint_bytes", "B"},     {"svc.host_ms_per_slice", "ms"},
      {"svc.slices", "count"},          {"svc.preemptions", "count"},
      {"svc.resumes", "count"},         {"svc.journal_events", "count"},
      {"svc.host_busy_share", "fraction"},
      {"pool.cpu_util", "fraction"},    {"trace.overhead", "1/s"}};
  for (const auto& phase : kPhases) {
    t.emplace_back(std::string("md.phase.") + phase.first + ".sim_ms", "ms");
  }
  for (const char* label : kKernelLabels) {
    t.emplace_back(sw_metric(label, "dma_bytes"), "B");
    t.emplace_back(sw_metric(label, "mem_fraction"), "fraction");
  }
  return t;
}

void zero_layer_metrics(RunResult& r) {
  for (const auto& [name, unit] : layer_metric_table()) {
    set(r, name, 0.0, unit.c_str());
  }
}

/// sw.<label>.* from the kernel/<label>/* counters under `prefix` in `reg`.
void kernel_metrics(const obs::MetricsRegistry& reg, const std::string& prefix,
                    RunResult& r) {
  for (const char* label : kKernelLabels) {
    const std::string k = prefix + "kernel/" + label + "/";
    const double compute = reg.value(k + "compute_cycles");
    const double mem = reg.value(k + "mem_cycles");
    set(r, sw_metric(label, "dma_bytes"), reg.value(k + "dma_bytes"), "B");
    set(r, sw_metric(label, "mem_fraction"),
        compute + mem > 0.0 ? mem / (compute + mem) : 0.0, "fraction");
  }
}

void critpath_metrics(RunResult& r) {
  const obs::CritPathReport cp = obs::CritPathCollector::global().report();
  set(r, "critpath.network_share", cp.network_share, "fraction");
  set(r, "critpath.cpe_compute_s", cp.cpe_compute_seconds, "s");
  set(r, "critpath.ldm_dma_s", cp.cpe_ldm_dma_seconds, "s");
  set(r, "critpath.mpe_s", cp.mpe_seconds, "s");
  set(r, "critpath.barrier_s", cp.barrier_seconds, "s");
}

/// Clears the process-wide read-outs a traced pass reports from.
void reset_observers() {
  obs::MetricsRegistry::global().clear();
  obs::CritPathCollector::global().reset();
}

void write_spans(const SpanRecorder& rec, const RunConfig& cfg) {
  const fs::path path = fs::path(cfg.out_dir) /
                        ("spans_" + cfg.workload + "_seed" +
                         std::to_string(cfg.seed) + ".json");
  std::ofstream os(path);
  rec.write_json(os);
  if (!os) throw std::runtime_error("cannot write " + path.string());
}

/// Simulated-clock metrics must not depend on tracing, threads or timing:
/// every sim_* metric of `a` must equal `b`'s bit for bit.
void require_same_sim(const RunResult& a, const RunResult& b,
                      const std::string& what, RunResult& r) {
  for (const auto& [name, m] : a.metrics) {
    if (name.rfind("sim_", 0) != 0) continue;
    const auto it = b.metrics.find(name);
    if (it == b.metrics.end() ||
        std::memcmp(&it->second.value, &m.value, sizeof(double)) != 0) {
      fail(r, name + " differs between " + what);
    }
  }
}

// ---------------------------------------------------------------------------
// MD workloads
// ---------------------------------------------------------------------------

struct MdSpec {
  std::size_t particles;
  bool pme;
  int ranks;
  bool traj;
};

/// Everything one MD run owns: the core group, the real backends, optional
/// tracing wrappers around them, and the driver.
struct MdEngine {
  sw::CoreGroup cg;
  std::unique_ptr<md::ShortRangeBackend> sr;
  std::unique_ptr<core::CpePairList> pl;
  std::unique_ptr<pme::PmeSolver> pme;
  std::unique_ptr<io::FastTrajWriter> traj;
  std::unique_ptr<TracedShortRange> t_sr;
  std::unique_ptr<TracedPairList> t_pl;
  std::unique_ptr<TracedLongRange> t_lr;
  std::unique_ptr<TracedTrajSink> t_traj;
  std::unique_ptr<md::Simulation> sim;
  std::unique_ptr<net::ParallelSim> psim;
  std::size_t particles = 0;
  double dt_ps = 0.0;
  double t_ref = 0.0;
  int nstlist = 1;

  void step() {
    if (sim) {
      (void)sim->step();
    } else {
      psim->step();
    }
  }
  [[nodiscard]] std::int64_t step_no() const {
    return sim ? sim->current_step() : psim->current_step();
  }
  [[nodiscard]] const sw::PhaseTimers& timers() const {
    return sim ? sim->timers() : psim->timers();
  }
  [[nodiscard]] const std::vector<md::EnergySample>& energies() const {
    return sim ? sim->energy_series() : psim->energy_series();
  }
};

std::unique_ptr<MdEngine> build_md(const MdSpec& spec, std::uint64_t seed,
                                   const std::string& traj_path,
                                   SpanRecorder* rec) {
  auto e = std::make_unique<MdEngine>();
  md::WaterBoxOptions w;
  w.nmol = spec.particles / 3;
  w.coulomb = spec.pme ? md::CoulombMode::EwaldShort
                       : md::CoulombMode::ReactionField;
  w.seed = static_cast<unsigned>(mix(seed));
  md::System sys = md::make_water_box(w);
  e->particles = sys.size();
  e->sr = core::make_short_range(core::Strategy::Mark, e->cg);
  e->pl = std::make_unique<core::CpePairList>(e->cg);
  if (spec.pme) {
    e->pme = std::make_unique<pme::PmeSolver>(
        pme::suggest_grid(sys.box, sys.ff->ewald_beta));
    e->pme->set_accelerated(true);
  }
  md::SimOptions opt;
  opt.integ.thermostat = true;
  if (spec.traj) {
    e->traj = std::make_unique<io::FastTrajWriter>(traj_path);
    opt.nstxout = opt.nstlist;
  }
  e->dt_ps = opt.integ.dt;
  e->t_ref = opt.integ.t_ref;
  e->nstlist = opt.nstlist;

  md::ShortRangeBackend* sr = e->sr.get();
  md::PairListBackend* pl = e->pl.get();
  md::LongRangeBackend* lr = e->pme.get();
  md::TrajSink* traj = e->traj.get();
  if (rec != nullptr) {
    e->t_sr = std::make_unique<TracedShortRange>(*sr, *rec);
    e->t_pl = std::make_unique<TracedPairList>(*pl, *rec);
    sr = e->t_sr.get();
    pl = e->t_pl.get();
    if (lr != nullptr) {
      e->t_lr = std::make_unique<TracedLongRange>(*lr, *rec);
      lr = e->t_lr.get();
    }
    if (traj != nullptr) {
      e->t_traj = std::make_unique<TracedTrajSink>(*traj, *rec);
      traj = e->t_traj.get();
    }
  }
  // The drivers' constructors already call into the layers (the first pair
  // list); those calls nest under md.setup and stay out of the tallies.
  {
    ScopedSpan span(rec, "md.setup");
    if (spec.ranks > 1) {
      net::ParallelOptions po;
      po.nranks = spec.ranks;
      po.sim = opt;
      e->psim = std::make_unique<net::ParallelSim>(std::move(sys), po, *sr,
                                                   *pl, lr, traj);
    } else {
      e->sim = std::make_unique<md::Simulation>(std::move(sys), opt, *sr, *pl,
                                                lr, traj);
    }
  }
  if (rec != nullptr) {
    e->t_sr->tally = {};
    e->t_pl->tally = {};
    if (e->t_lr) e->t_lr->tally = {};
    if (e->t_traj) e->t_traj->tally = {};
  }
  return e;
}

struct MdPass {
  std::vector<double> step_host_s;
  std::vector<double> window_sim_s;  ///< first kWindowSteps steps
  double host_s = 0.0;               ///< sum of step_host_s
  double wall_s = 0.0;
  double cpu_s = 0.0;
  pme::PmeBreakdown pme;             ///< summed over the pass
  sw::PhaseTimers timers0;           ///< the driver's timers before the pass
};

/// Steps until at least `min_steps` ran and `seconds` elapsed.
MdPass run_md_pass(MdEngine& e, int min_steps, double seconds,
                   SpanRecorder* rec) {
  MdPass p;
  p.timers0 = e.timers();
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  while (static_cast<int>(p.step_host_s.size()) < min_steps ||
         since(t0) < seconds) {
    if (rec != nullptr) rec->set_group(e.step_no());
    const double sim0 = e.timers().total();
    const auto ts = Clock::now();
    {
      ScopedSpan span(rec, "md.step");
      e.step();
    }
    const double host = since(ts);
    p.step_host_s.push_back(host);
    p.host_s += host;
    if (p.window_sim_s.size() < static_cast<std::size_t>(kWindowSteps)) {
      p.window_sim_s.push_back(e.timers().total() - sim0);
    }
    if (e.pme) {
      const pme::PmeBreakdown& b = e.pme->last_breakdown();
      p.pme.spread_s += b.spread_s;
      p.pme.fft_s += b.fft_s;
      p.pme.gather_s += b.gather_s;
      p.pme.dma_bytes += b.dma_bytes;
    }
  }
  p.wall_s = since(t0);
  p.cpu_s = cpu_seconds() - cpu0;
  return p;
}

void check_md(const MdEngine& e, std::size_t steps, RunResult& r) {
  r.attempted += steps;
  const auto& es = e.energies();
  std::string why;
  if (es.empty()) why = "no energy samples";
  for (const md::EnergySample& s : es) {
    const double vals[] = {s.e_lj, s.e_coul, s.e_bonded, s.e_longrange,
                           s.e_kin, s.temperature};
    for (double v : vals) {
      if (!std::isfinite(v)) why = "non-finite energy at step " + std::to_string(s.step);
    }
    const double hi =
        &s == &es.back() ? kTemperatureFinalMax : kTemperatureMax;
    if (!(s.temperature >= kTemperatureMin * e.t_ref &&
          s.temperature <= hi * e.t_ref)) {
      why = "temperature " + std::to_string(s.temperature) + " K at step " +
            std::to_string(s.step) + " outside [" +
            std::to_string(kTemperatureMin * e.t_ref) + ", " +
            std::to_string(hi * e.t_ref) + "] K";
    }
  }
  if (!why.empty()) {
    r.failed += steps;
    fail(r, why);
  }
}

/// Sums of consecutive `n`-step cycles (trailing partial cycle dropped).
std::vector<double> cycle_sums(const std::vector<double>& per_step, int n) {
  std::vector<double> out;
  for (std::size_t i = 0; i + static_cast<std::size_t>(n) <= per_step.size();
       i += static_cast<std::size_t>(n)) {
    out.push_back(std::accumulate(per_step.begin() + static_cast<std::ptrdiff_t>(i),
                                  per_step.begin() + static_cast<std::ptrdiff_t>(i) + n,
                                  0.0));
  }
  return out;
}

/// MD end-to-end metrics. The unit of work is the pair-list cycle (nstlist
/// steps, one rebuild and one trajectory frame): throughput is the median
/// over the run's cycles, which keeps a transient host stall from moving
/// it, and on the simulated clock the closed-loop caller's job is one cycle.
void md_end_to_end(const MdEngine& e, const MdPass& p, RunResult& r) {
  const double cycle_particle_steps =
      static_cast<double>(e.particles) * e.nstlist;
  std::vector<double> rate;
  for (double s : cycle_sums(p.step_host_s, e.nstlist)) {
    rate.push_back(cycle_particle_steps / s);
  }
  set(r, "host_particle_steps_per_s", percentile(rate, 50.0), "1/s");
  std::vector<double> host_ms(p.step_host_s);
  for (double& v : host_ms) v *= 1e3;
  set(r, "host_step_ms_p50", percentile(host_ms, 50.0), "ms");
  set(r, "host_step_ms_p95",
      percentile(host_ms, tail_percentile(host_ms.size(), 95.0)), "ms");

  const double window_s =
      std::accumulate(p.window_sim_s.begin(), p.window_sim_s.end(), 0.0);
  const auto k = static_cast<double>(p.window_sim_s.size());
  set(r, "sim_ns_per_day", k * e.dt_ps * 1e-3 / window_s * 86400.0, "ns/day");
  std::vector<double> cycle_ms = cycle_sums(p.window_sim_s, e.nstlist);
  for (double& v : cycle_ms) v *= 1e3;
  set(r, "sim_jobs_per_s", static_cast<double>(cycle_ms.size()) / window_s,
      "1/s");
  set(r, "sim_job_latency_p50_ms", percentile(cycle_ms, 50.0), "ms");
  set(r, "sim_job_latency_p90_ms",
      percentile(cycle_ms, tail_percentile(cycle_ms.size(), 90.0)), "ms");
}

void md_layers(const MdEngine& e, const MdPass& p, const SpanRecorder& rec,
               RunResult& r) {
  set(r, "core.sr.host_ms", e.t_sr->tally.host_s * 1e3, "ms");
  set(r, "core.sr.sim_ms", e.t_sr->tally.sim_s * 1e3, "ms");
  set(r, "core.sr.calls", static_cast<double>(e.t_sr->tally.calls), "count");
  set(r, "core.pairlist.host_ms", e.t_pl->tally.host_s * 1e3, "ms");
  set(r, "core.pairlist.sim_ms", e.t_pl->tally.sim_s * 1e3, "ms");
  set(r, "core.pairlist.calls", static_cast<double>(e.t_pl->tally.calls),
      "count");
  set(r, "core.pairlist.cluster_pairs",
      static_cast<double>(e.t_pl->tally.items), "count");
  if (e.t_lr) {
    set(r, "pme.host_ms", e.t_lr->tally.host_s * 1e3, "ms");
    set(r, "pme.sim_ms", e.t_lr->tally.sim_s * 1e3, "ms");
    set(r, "pme.calls", static_cast<double>(e.t_lr->tally.calls), "count");
    set(r, "pme.spread_sim_ms", p.pme.spread_s * 1e3, "ms");
    set(r, "pme.fft_sim_ms", p.pme.fft_s * 1e3, "ms");
    set(r, "pme.gather_sim_ms", p.pme.gather_s * 1e3, "ms");
    set(r, "pme.dma_bytes", static_cast<double>(p.pme.dma_bytes), "B");
  }
  if (e.t_traj) {
    set(r, "io.traj.host_ms", e.t_traj->tally.host_s * 1e3, "ms");
    set(r, "io.traj.bytes",
        static_cast<double>(e.traj->writer().bytes_written()), "B");
  }
  set(r, "md.step_host_ms", p.host_s * 1e3, "ms");
  set(r, "md.self_host_ms", self_seconds_by_name(rec.spans())["md.step"] * 1e3,
      "ms");
  set(r, "md.step_sim_ms",
      std::accumulate(p.window_sim_s.begin(), p.window_sim_s.end(), 0.0) * 1e3,
      "ms");
  for (const auto& [key, phase] : kPhases) {
    set(r, std::string("md.phase.") + key + ".sim_ms",
        (e.timers().get(phase) - p.timers0.get(phase)) * 1e3, "ms");
  }
  if (e.psim) set(r, "net.max_pair_share", e.psim->max_pair_share(), "fraction");
  critpath_metrics(r);
  kernel_metrics(obs::MetricsRegistry::global(), "", r);
  set(r, "pool.cpu_util", p.cpu_s / (p.wall_s * threads()), "fraction");
}

RunResult run_md(const MdSpec& spec, const RunConfig& cfg) {
  RunResult r;
  const std::string traj_path =
      (fs::path(cfg.out_dir) / ("traj_" + cfg.workload + ".gro")).string();

  if (!cfg.trace) {
    std::vector<double> setups;
    std::unique_ptr<MdEngine> e;
    for (int i = 0; i < kSetups; ++i) {
      e.reset();
      const auto t0 = Clock::now();
      e = build_md(spec, cfg.seed, traj_path, nullptr);
      setups.push_back(since(t0));
    }
    const MdPass p = run_md_pass(*e, kWindowSteps, cfg.seconds, nullptr);
    check_md(*e, p.step_host_s.size(), r);
    md_end_to_end(*e, p, r);
    set(r, "setup_s", percentile(setups, 50.0), "s");
    set(r, "peak_rss_mb", peak_rss_mb(), "MB");
    print_samples("setup_s", setups);
    e.reset();
    fs::remove(traj_path);
    return r;
  }

  // Traced run: an untraced pass and a traced pass of the same length on
  // fresh engines from the same seed.
  RunResult untraced;
  {
    auto e = build_md(spec, cfg.seed, traj_path, nullptr);
    const MdPass p = run_md_pass(*e, kWindowSteps, 0.0, nullptr);
    check_md(*e, p.step_host_s.size(), r);
    md_end_to_end(*e, p, untraced);
  }
  zero_layer_metrics(r);
  SpanRecorder rec;
  RunResult traced;
  {
    auto e = build_md(spec, cfg.seed, traj_path, &rec);
    reset_observers();
    const MdPass p = run_md_pass(*e, kWindowSteps, 0.0, &rec);
    check_md(*e, p.step_host_s.size(), r);
    md_end_to_end(*e, p, traced);
    md_layers(*e, p, rec, r);
  }
  set(r, "trace.overhead",
      traced.metrics["host_particle_steps_per_s"].value -
          untraced.metrics["host_particle_steps_per_s"].value,
      "1/s");
  require_same_sim(untraced, traced, "the traced and untraced passes", r);
  write_spans(rec, cfg);
  fs::remove(traj_path);
  return r;
}

// ---------------------------------------------------------------------------
// service_mix
// ---------------------------------------------------------------------------

constexpr int kServiceJobs = 120;
/// Mean simulated gap between arrivals. The hosts' capacity is ~3 jobs per
/// mean job cost, so this offers them a load just under saturation: queues
/// form (high-priority arrivals must preempt) but the backlog stays bounded.
constexpr double kMeanGapS = 1.2e-3;

struct ServicePlan {
  svc::ServiceOptions opt;
  std::vector<svc::JobSpec> jobs;
};

/// The job mix is a fixed stratified multiset (every tenant gets every size
/// and length), permuted over jittered arrival slots by a fixed design hash,
/// so every seed offers the same traffic; the seed picks each job's water
/// configuration. Seeding the schedule itself would make the queueing
/// latencies swing by more than the bounds they are judged by.
///
/// `journal` turns the write-ahead journal on. Per campaign it fsyncs ~700
/// appends and ~10 compaction snapshots, each holding the whole scheduler
/// state with every finished job's particles, which ties host time to the
/// disk: on a shared VM that doubled campaign host time for minutes at a
/// time. The end-to-end campaigns therefore run without it; the traced run,
/// which reports the svc and io layers, runs both its passes with it.
ServicePlan make_service_plan(std::uint64_t seed, const std::string& dir,
                              bool journal) {
  constexpr std::uint64_t kDesign = 0x5eed;
  static constexpr const char* kTenants[] = {"acme", "globex", "initech"};
  static constexpr std::size_t kSizes[] = {96, 192, 384, 768};
  ServicePlan plan;
  plan.opt.hosts = 3;
  plan.opt.queue_limit = kServiceJobs;
  plan.opt.tenant_quota = kServiceJobs;
  plan.opt.slice_steps = 10;
  plan.opt.checkpoint_dir = (fs::path(dir) / "cpt").string();
  if (journal) plan.opt.journal_dir = (fs::path(dir) / "journal").string();
  plan.opt.validate();

  std::vector<int> order(kServiceJobs);
  std::iota(order.begin(), order.end(), 0);
  for (int i = kServiceJobs - 1; i > 0; --i) {
    const auto j = static_cast<int>(
        mix(kDesign * 0x100000001b3ULL + static_cast<std::uint64_t>(i)) %
        static_cast<std::uint64_t>(i + 1));
    std::swap(order[static_cast<std::size_t>(i)],
              order[static_cast<std::size_t>(j)]);
  }
  double arrival = 0.0;
  for (int slot = 0; slot < kServiceJobs; ++slot) {
    const int k = order[static_cast<std::size_t>(slot)];
    const auto h = mix(kDesign ^ mix(static_cast<std::uint64_t>(slot)));
    svc::JobSpec s;
    s.tenant = kTenants[k % 3];
    s.name = "job" + std::to_string(slot);
    s.particles = kSizes[(k / 3) % 4];
    s.steps = 20 + 10 * ((k / 12) % 3);
    s.priority = slot % 10 == 9 ? 2 : 0;
    s.seed = static_cast<unsigned>(mix(seed ^ h) % 100000) + 1;
    arrival += kMeanGapS * (0.5 + unit_interval(h));
    s.arrival_s = arrival;
    plan.jobs.push_back(std::move(s));
  }
  return plan;
}

std::unique_ptr<svc::JobScheduler> setup_service(const ServicePlan& plan,
                                                 SpanRecorder* rec) {
  ScopedSpan span(rec, "svc.setup");
  auto sched = std::make_unique<svc::JobScheduler>(plan.opt);
  for (const svc::JobSpec& s : plan.jobs) {
    if (rec != nullptr) rec->set_group(static_cast<std::int64_t>(sched->jobs().size()));
    ScopedSpan submit(rec, "svc.submit");
    (void)sched->submit(s);
  }
  return sched;
}

void fresh_dir(const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
}

std::uintmax_t dir_bytes(const std::string& dir) {
  std::uintmax_t total = 0;
  if (!fs::exists(dir)) return 0;
  for (const auto& f : fs::recursive_directory_iterator(dir)) {
    if (f.is_regular_file()) total += f.file_size();
  }
  return total;
}

/// Service set-up: the scheduler, every submit, and each job's engine up to
/// its first step, which the job's first slice pays before stepping. The
/// engines are built and dropped one at a time on a scheduler that is then
/// discarded. Scheduler and submits alone take ~0.1 ms, too little to time
/// steadily (their median moved 2x between runs).
double time_service_setup(const ServicePlan& plan, const std::string& dir) {
  fresh_dir(dir);
  const auto t0 = Clock::now();
  auto sched = setup_service(plan, nullptr);
  for (const auto& j : sched->jobs()) {
    svc::JobContext ctx(*j, 0.0);
    j->start_attempt();
    j->abort_attempt();
  }
  return since(t0);
}

/// One pass of the arrival schedule through a fresh scheduler.
struct Campaign {
  double run_s = 0.0;
  double cpu_s = 0.0;
  double particle_steps = 0.0;
  double job_steps = 0.0;
  std::unique_ptr<svc::JobScheduler> sched;
  std::uintmax_t checkpoint_bytes = 0;
};

Campaign run_campaign(const ServicePlan& plan, const std::string& dir,
                      SpanRecorder* rec) {
  Campaign c;
  fresh_dir(dir);
  c.sched = setup_service(plan, rec);
  const double cpu0 = cpu_seconds();
  const auto t1 = Clock::now();
  if (rec != nullptr) rec->set_group(-1);
  {
    ScopedSpan span(rec, "svc.run");
    c.sched->run_until_idle();
  }
  c.run_s = since(t1);
  c.cpu_s = cpu_seconds() - cpu0;
  for (const auto& j : c.sched->jobs()) {
    if (j->state != svc::JobState::Completed) continue;
    const double n = static_cast<double>(std::max<std::size_t>(1, j->spec().particles / 3) * 3);
    c.particle_steps += n * j->spec().steps;
    c.job_steps += j->spec().steps;
  }
  c.checkpoint_bytes = dir_bytes(plan.opt.checkpoint_dir);
  return c;
}

void service_outcome(const Campaign& c, RunResult& r) {
  const svc::ServiceStats& st = c.sched->stats();
  r.attempted += st.submitted;
  const std::uint64_t bad = st.rejected_queue + st.rejected_quota + st.shed +
                            st.quarantined + st.deadline_misses;
  if (bad > 0) {
    r.failed += bad;
    fail(r, std::to_string(bad) + " jobs rejected, quarantined or late");
  }
}

void service_sim_metrics(const Campaign& c, RunResult& r) {
  const svc::JobScheduler& s = *c.sched;
  const double makespan = s.now();
  std::vector<double> latency_ms;
  for (const auto& j : s.jobs()) {
    if (j->state == svc::JobState::Completed) {
      latency_ms.push_back((j->finish_s - j->spec().arrival_s) * 1e3);
    }
  }
  const double dt_ps = md::IntegratorOptions{}.dt;
  set(r, "sim_ns_per_day", c.job_steps * dt_ps * 1e-3 / makespan * 86400.0,
      "ns/day");
  set(r, "sim_jobs_per_s", static_cast<double>(latency_ms.size()) / makespan,
      "1/s");
  set(r, "sim_job_latency_p50_ms", percentile(latency_ms, 50.0), "ms");
  set(r, "sim_job_latency_p90_ms",
      percentile(latency_ms, tail_percentile(latency_ms.size(), 90.0)), "ms");
}

/// Host metrics over campaigns. The scheduler hides step boundaries, so a
/// sample is one campaign's host milliseconds per completed job step; the
/// tail percentile follows the same rule as everywhere and falls back to the
/// median while there are fewer than 20 campaigns.
void service_host_metrics(const std::vector<Campaign>& cs, RunResult& r) {
  std::vector<double> rate, per_step_ms;
  for (const Campaign& c : cs) {
    rate.push_back(c.particle_steps / c.run_s);
    per_step_ms.push_back(c.run_s * 1e3 / c.job_steps);
  }
  set(r, "host_particle_steps_per_s", percentile(rate, 50.0), "1/s");
  set(r, "host_step_ms_p50", percentile(per_step_ms, 50.0), "ms");
  set(r, "host_step_ms_p95",
      percentile(per_step_ms, tail_percentile(per_step_ms.size(), 95.0)),
      "ms");
}

/// Re-runs a seeded sample of completed jobs alone; each must end with
/// bit-identical positions and velocities.
void check_isolation(const Campaign& c, std::uint64_t seed, RunResult& r) {
  std::vector<const svc::Job*> done;
  for (const auto& j : c.sched->jobs()) {
    if (j->state == svc::JobState::Completed) done.push_back(j.get());
  }
  for (int i = 0; i < kSoloChecks && !done.empty(); ++i) {
    const svc::Job& j =
        *done[mix(seed + 0x51ed + static_cast<std::uint64_t>(i)) % done.size()];
    const svc::SoloResult solo = svc::run_solo(j.spec(), c.sched->options());
    const bool same =
        solo.completed && solo.x.size() == j.final_x().size() &&
        solo.v.size() == j.final_v().size() &&
        std::memcmp(solo.x.data(), j.final_x().data(),
                    solo.x.size() * sizeof(Vec3f)) == 0 &&
        std::memcmp(solo.v.data(), j.final_v().data(),
                    solo.v.size() * sizeof(Vec3f)) == 0;
    if (!same) {
      ++r.failed;
      fail(r, j.display_name() + " differs from its solo run");
    }
  }
}

RunResult run_service(const RunConfig& cfg) {
  RunResult r;
  const std::string dir = (fs::path(cfg.out_dir) / "service").string();
  const ServicePlan plan = make_service_plan(cfg.seed, dir, cfg.trace);

  if (!cfg.trace) {
    std::vector<double> setups;
    for (int i = 0; i < kSetups; ++i) {
      setups.push_back(time_service_setup(plan, dir));
    }
    std::vector<Campaign> cs;
    const auto t0 = Clock::now();
    do {
      cs.push_back(run_campaign(plan, dir, nullptr));
      service_outcome(cs.back(), r);
      RunResult sim;
      service_sim_metrics(cs.back(), sim);
      if (cs.size() == 1) {
        r.metrics.insert(sim.metrics.begin(), sim.metrics.end());
        check_isolation(cs.back(), cfg.seed, r);
      } else {
        const RunResult first = r;
        require_same_sim(first, sim, "campaigns of one seed", r);
      }
      cs.back().sched.reset();  // keep one scheduler's memory at a time
    } while (since(t0) < cfg.seconds);
    service_host_metrics(cs, r);
    set(r, "setup_s", percentile(setups, 50.0), "s");
    print_samples("setup_s", setups);
    set(r, "peak_rss_mb", peak_rss_mb(), "MB");
    fs::remove_all(dir);
    return r;
  }

  RunResult untraced;
  {
    Campaign c = run_campaign(plan, dir, nullptr);
    service_outcome(c, r);
    service_sim_metrics(c, untraced);
    std::vector<Campaign> one;
    one.push_back(std::move(c));
    service_host_metrics(one, untraced);
  }
  zero_layer_metrics(r);
  SpanRecorder rec;
  RunResult traced;
  reset_observers();
  std::vector<Campaign> one;
  one.push_back(run_campaign(plan, dir, &rec));
  const Campaign& c = one.back();
  service_outcome(c, r);
  service_sim_metrics(c, traced);
  service_host_metrics(one, traced);

  const svc::JobScheduler& s = *c.sched;
  double slices = 0.0, busy = 0.0;
  for (const svc::Host& h : s.hosts()) {
    slices += static_cast<double>(h.slices);
    busy += h.busy_seconds;
  }
  set(r, "svc.host_ms_per_slice", c.run_s * 1e3 / slices, "ms");
  set(r, "svc.slices", slices, "count");
  set(r, "svc.preemptions", static_cast<double>(s.stats().preemptions), "count");
  set(r, "svc.resumes", static_cast<double>(s.stats().resumes), "count");
  set(r, "svc.journal_events",
      static_cast<double>(s.journal()->events_appended()), "count");
  set(r, "svc.host_busy_share",
      busy / (static_cast<double>(s.hosts().size()) * s.now()), "fraction");
  set(r, "io.checkpoint_bytes", static_cast<double>(c.checkpoint_bytes), "B");
  obs::MetricsRegistry rollup;
  s.rollup_into(rollup);
  kernel_metrics(rollup, "svc/total/", r);
  critpath_metrics(r);
  set(r, "pool.cpu_util", c.cpu_s / (c.run_s * threads()), "fraction");
  set(r, "trace.overhead",
      traced.metrics["host_particle_steps_per_s"].value -
          untraced.metrics["host_particle_steps_per_s"].value,
      "1/s");
  require_same_sim(untraced, traced, "the traced and untraced passes", r);
  write_spans(rec, cfg);
  one.clear();
  fs::remove_all(dir);
  return r;
}

}  // namespace

RunResult run_workload(const RunConfig& cfg) {
  if (cfg.workload == "rf_single") {
    return run_md(MdSpec{12000, false, 1, true}, cfg);
  }
  if (cfg.workload == "pme_ranks8") {
    return run_md(MdSpec{9000, true, 8, false}, cfg);
  }
  if (cfg.workload == "service_mix") return run_service(cfg);
  throw std::invalid_argument("unknown workload '" + cfg.workload + "'");
}

}  // namespace perfbench
