// hemobench: runs one benchmark workload and prints its metrics.
//
//   hemobench --workload <campaign-mixed|ranks-halo>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//
// Stdout: one "metric value unit" line per metric, a JSON line of context
// (host facts, sample counts, sizes, provenance of each metric), and as the
// last line the result object {"correct", "attempted", "failed",
// "metrics"}. Untraced runs report the end-to-end metrics, traced runs the
// per-layer ones. Exit code 0 when the run completed (a failed output check
// is reported in the result, not by the exit code), 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <string>

#include "host.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace {

using namespace hemobench;

const std::map<std::string, void (*)(const RunOptions&, Tracer&, Outcome&)>
    kWorkloads = {
        {"campaign-mixed", run_campaign_mixed},
        {"ranks-halo", run_ranks_halo},
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "hemobench: " << why
            << "\nusage: hemobench --workload <campaign-mixed|ranks-halo> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, trace_out;
  RunOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        workload = value;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else if (arg == "--trace-out") {
        trace_out = value;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg + ": " + value);
    }
  }
  const auto it = kWorkloads.find(workload);
  if (it == kWorkloads.end()) usage("unknown workload '" + workload + "'");
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");

  Outcome out;
  Tracer tracer;
  try {
    it->second(opt, tracer, out);
  } catch (const std::exception& e) {
    std::cerr << "hemobench: " << workload << " failed: " << e.what() << "\n";
    return 1;
  }
  out.values["peak_rss_mb"] = peak_rss_mb();

  const auto& defs = opt.trace ? per_layer_metrics() : end_to_end_metrics();
  JsonObject provenance;
  std::string not_exercised;
  for (const MetricDef& def : defs) {
    provenance.add(def.name, def.provenance);
    // A layer this workload does not exercise did no work: it reports 0.
    if (opt.trace && !out.values.contains(def.name)) {
      out.values[def.name] = 0.0;
      not_exercised += (not_exercised.empty() ? "" : " ") + def.name;
    }
  }

  std::string result;
  try {
    result = result_line(out, defs);
  } catch (const std::exception& e) {
    std::cerr << "hemobench: " << e.what() << "\n";
    return 1;
  }
  for (const std::string& failure : out.check_failures) {
    std::cerr << "hemobench: check failed: " << failure << "\n";
  }
  if (opt.trace && !trace_out.empty()) {
    std::ofstream(trace_out) << tracer.chrome_json();
  }

  for (const MetricDef& def : defs) {
    std::printf("%-26s %16.6g %s\n", def.name.c_str(), out.values.at(def.name),
                def.unit.c_str());
  }
  std::cout << JsonObject()
                   .add("workload", workload)
                   .add("seed", static_cast<long long>(opt.seed))
                   .add("seconds", opt.seconds)
                   .add("trace", opt.trace)
                   .add("host", host_facts())
                   .add("run", out.context)
                   .add("provenance", provenance)
                   .add("not_exercised", not_exercised)
                   .add("spans", static_cast<long long>(tracer.spans().size()))
                   .str()
            << "\n"
            << result << std::endl;
  return 0;
}
