// The perfbench binary. perfbench/run.py builds it and calls it twice per
// run: once to write the workload's fixture checkpoints, once to measure.
//
//   msd_perfbench fixture --workload W --config F --work-dir D
//   msd_perfbench run --workload W --seed N --seconds S --trace 0|1
//                 --config F --benchmark-json B --work-dir D
//                 [--trace-out T] [--commit C]
//                 [--corrupt-oracle]
//
// The last stdout line of a run is the result object; everything the
// benchmark learns on the way (provenance, digests, phase counts, the
// adjacent-layer checks) is printed above it.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "common.h"
#include "obs/profiler.h"
#include "workloads.h"

namespace {

using perfbench::Args;

int Usage(const char* why) {
  std::fprintf(stderr, "msd_perfbench: %s\n", why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage("expected a mode: fixture | run");
  Args args;
  args.mode = argv[1];
  std::string config_path;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-oracle") {
      args.corrupt_oracle = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--config") {
      config_path = value;
    } else if (flag == "--benchmark-json") {
      args.benchmark_json = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--commit") {
      args.commit = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  const std::string problem = perfbench::EnvironmentProblem();
  if (!problem.empty()) return Usage(problem.c_str());

  std::ifstream in(config_path);
  std::stringstream text;
  text << in.rdbuf();
  msd::obs::JsonValue config;
  if (!in || !msd::obs::JsonParse(text.str(), &config)) {
    return Usage(("cannot read workload constants from " + config_path).c_str());
  }
  const msd::obs::JsonValue* workloads = config.Find("workloads");
  const msd::obs::JsonValue* mine =
      workloads == nullptr ? nullptr : workloads->Find(args.workload);
  if (mine == nullptr) {
    return Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  args.config = perfbench::WorkloadConfig(mine);
  const std::string kind = mine->Find("kind") != nullptr ? mine->Find("kind")->str : "";

  if (args.mode == "fixture") {
    bool ok = true;
    if (kind == "offline") ok = perfbench::MakeOfflineFixture(args);
    if (kind == "online") ok = perfbench::MakeOnlineFixture(args);
    return ok ? 0 : 1;
  }
  if (args.mode != "run") return Usage("mode must be fixture or run");
  if (args.seconds <= 0.0) return Usage("--seconds must be positive");

  // End-to-end numbers come only from untraced runs: the profiler records
  // nothing unless this is the traced mode.
  msd::obs::Profiler::Global().SetEnabled(false);
  const std::string provenance = perfbench::ProvenanceJson(args);
  perfbench::Report report;
  report.Note("provenance " + provenance);
  if (kind == "offline") {
    perfbench::RunOffline(args, &report);
  } else if (kind == "online") {
    perfbench::RunOnline(args, &report);
  } else if (kind == "train") {
    perfbench::RunTrain(args, &report);
  } else {
    return Usage(("workload has no known kind: " + kind).c_str());
  }
  return report.Finish(args);
}
