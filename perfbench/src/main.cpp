// icsdiv_perfbench — the benchmark binary behind perfbench/run.py.
//
//   icsdiv_perfbench --mode timed --workload NAME --seed N --out FILE --seconds S
//                    [--threads T] [--icsdivd PATH --socket PATH]
//   icsdiv_perfbench --mode traced --workload NAME --seed N --out FILE
//                    [--threads T] [--reps R] [--replay 0|1] [--icsdivd PATH --socket PATH]
//   icsdiv_perfbench --mode inputs --workload NAME --seed N --out DIR
//
// `timed` measures the workload for --seconds after kSetups set-ups;
// `traced` runs the operation end to end and as a replay with a span per
// layer call.  Both write raw samples as JSON to --out.  `inputs` writes
// the generated input documents to DIR.  --threads is the compute-thread
// budget; it sets ICSDIV_THREADS before the library's pool starts.
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <map>
#include <optional>
#include <string>

#include "bench.hpp"
#include "support/error.hpp"

namespace {

perfbench::Options parse(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw icsdiv::InvalidArgument("expected --flag VALUE pairs, got: " + flag);
    }
    flags[flag.substr(2)] = argv[i + 1];
  }
  // A flag that is absent leaves the field at its default in Options.
  const auto take = [&](const std::string& name) -> std::optional<std::string> {
    const auto it = flags.find(name);
    if (it == flags.end()) return std::nullopt;
    std::string value = it->second;
    flags.erase(it);
    return value;
  };
  perfbench::Options options;
  if (const auto value = take("mode")) options.mode = *value;
  if (const auto value = take("workload")) options.workload = *value;
  const std::optional<std::string> seed = take("seed");
  if (seed) options.seed = std::stoull(*seed);
  if (const auto value = take("seconds")) options.seconds = std::stod(*value);
  if (const auto value = take("threads")) options.threads = std::stoul(*value);
  if (const auto value = take("reps")) options.reps = std::stoul(*value);
  if (const auto value = take("replay")) options.replay = *value != "0";
  if (const auto value = take("out")) options.out = *value;
  if (const auto value = take("icsdivd")) options.icsdivd = *value;
  if (const auto value = take("socket")) options.socket = *value;
  if (!flags.empty()) throw icsdiv::InvalidArgument("unknown flag: --" + flags.begin()->first);
  if (options.mode.empty() || options.workload.empty() || !seed || options.out.empty()) {
    throw icsdiv::InvalidArgument("--mode, --workload, --seed and --out are required");
  }
  if (options.mode == "timed" && !(options.seconds > 0)) {
    throw icsdiv::InvalidArgument("--mode timed needs a positive --seconds");
  }
  if (options.threads == 0 || options.reps == 0) {
    throw icsdiv::InvalidArgument("--threads and --reps must be positive");
  }
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Clock::time_point started = perfbench::Clock::now();
  try {
    perfbench::Options options = parse(argc, argv);
    options.started = started;
    // Before anything starts the library's global pool, which reads it once.
    setenv("ICSDIV_THREADS", std::to_string(options.threads).c_str(), 1);
    std::signal(SIGPIPE, SIG_IGN);

    if (options.mode == "inputs") {
      perfbench::write_inputs(options);
      return 0;
    }
    if (options.mode != "timed" && options.mode != "traced") {
      throw icsdiv::InvalidArgument("unknown --mode: " + options.mode);
    }
    perfbench::RawResult result;
    if (options.workload == "solve_paper") {
      perfbench::run_solve_paper(options, result);
    } else if (options.workload == "eval_grid") {
      perfbench::run_eval_grid(options, result);
    } else if (options.workload == "daemon_loop") {
      perfbench::run_daemon_loop(options, result);
    } else {
      throw icsdiv::InvalidArgument("unknown --workload: " + options.workload);
    }
    perfbench::write_file(options.out, result.to_json(options).dump());
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "icsdiv_perfbench: " << error.what() << "\n";
    return 1;
  }
}
