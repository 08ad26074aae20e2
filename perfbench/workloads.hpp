// The benchmark's workloads, each built through the simulator's public API:
//
//   rf_single   md::Simulation, 12,000-particle reaction-field water, one
//               core group, trajectory frame every nstlist steps.
//   pme_ranks8  net::ParallelSim, 9,000-particle PME water on 8 simulated
//               ranks (MPI transport, overlap engine at its default).
//   service_mix svc::JobScheduler, an open-loop arrival schedule of small
//               mixed jobs from three tenants on three simulated hosts.
//
// A run measures either the end-to-end metrics (untraced; the drivers see
// the real backends) or the per-layer metrics (a traced pass next to an
// untraced one, which also yields the tracing overhead and the check that
// the wrappers leave the simulated clock untouched).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";  ///< scratch files and the span dump
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> problems;  ///< why `correct` is false
};

/// Runs one workload; throws swgmx::Error or std::invalid_argument on a bad
/// configuration.
[[nodiscard]] RunResult run_workload(const RunConfig& cfg);

}  // namespace perfbench
