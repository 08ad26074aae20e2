// Two-clock benchmark driver.
//
//   swgmx_perfbench --workload <rf_single|pme_ranks8|service_mix>
//                   --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//
// Prints one line per metric, then as its last line one JSON object:
//   {"correct":...,"attempted":...,"failed":...,"metrics":{name:{value,unit}}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones and
// dumps the traced pass's spans to <dir>/spans_<workload>_seed<n>.json.
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/thread_pool.hpp"
#include "obs/json.hpp"
#include "workloads.hpp"

namespace {

std::string arg_value(int argc, char** argv, int& i) {
  if (i + 1 >= argc) {
    throw std::invalid_argument(std::string("missing value for ") + argv[i]);
  }
  return argv[++i];
}

perfbench::RunConfig parse(int argc, char** argv) {
  perfbench::RunConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--workload") {
      cfg.workload = arg_value(argc, argv, i);
    } else if (a == "--seed") {
      cfg.seed = std::stoull(arg_value(argc, argv, i));
    } else if (a == "--seconds") {
      cfg.seconds = std::stod(arg_value(argc, argv, i));
    } else if (a == "--trace") {
      const std::string v = arg_value(argc, argv, i);
      if (v != "0" && v != "1") throw std::invalid_argument("--trace takes 0 or 1");
      cfg.trace = v == "1";
    } else if (a == "--out") {
      cfg.out_dir = arg_value(argc, argv, i);
    } else {
      throw std::invalid_argument("unknown argument '" + a + "'");
    }
  }
  if (cfg.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(cfg.seconds >= 0.0)) throw std::invalid_argument("--seconds must be >= 0");
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  using swgmx::obs::json_escape;
  using swgmx::obs::json_number;
  perfbench::RunConfig cfg;
  perfbench::RunResult r;
  try {
    cfg = parse(argc, argv);
    std::filesystem::create_directories(cfg.out_dir);
    std::cout << "workload " << cfg.workload << ", seed " << cfg.seed
              << ", trace " << cfg.trace << ", "
              << swgmx::common::ThreadPool::global().size()
              << " host threads\n";
    r = perfbench::run_workload(cfg);
  } catch (const std::exception& e) {
    std::cerr << "swgmx_perfbench: " << e.what() << "\n";
    return 2;
  }

  for (const auto& [name, m] : r.metrics) {
    std::cout << "  " << name << " = " << json_number(m.value) << " " << m.unit
              << "\n";
  }
  const double error_rate =
      r.attempted > 0 ? static_cast<double>(r.failed) /
                            static_cast<double>(r.attempted)
                      : 1.0;
  std::cout << "  error_rate = " << json_number(error_rate) << " ("
            << r.failed << " of " << r.attempted << " operations failed)\n";
  for (const std::string& p : r.problems) std::cout << "CHECK FAILED: " << p << "\n";

  std::ostringstream js;
  js << "{\"correct\":" << (r.correct ? "true" : "false")
     << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
     << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    js << (first ? "" : ",") << "\"" << json_escape(name)
       << "\":{\"value\":" << json_number(m.value) << ",\"unit\":\""
       << json_escape(m.unit) << "\"}";
    first = false;
  }
  js << "}}";
  std::cout << js.str() << std::endl;
  return 0;
}
