// hlts_perfbench: runs one benchmark workload and prints, as its last
// line, {"correct", "attempted", "failed", "metrics"}.  perfbench/run.py
// builds it and supplies the paths; by hand:
//
//   hlts_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --spec perfbench/spec.json --scratch DIR --serve-bin BIN
#include <signal.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "util/json.hpp"
#include "workloads.hpp"

namespace {

using perfbench::RunOptions;
using perfbench::RunOutcome;

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --workload NAME --seed N --seconds S --trace 0|1"
               " --spec FILE --scratch DIR --serve-bin BIN\n";
  return 2;
}

std::string format_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(const RunOutcome& r) {
  hlts::util::JsonWriter w;
  w.begin_object();
  w.key("correct").value(r.correct);
  w.key("attempted").value(r.attempted);
  w.key("failed").value(r.failed);
  w.key("metrics").begin_object();
  for (const auto& [name, m] : r.metrics) {
    w.key(name).begin_object();
    w.key("value").raw_value(format_number(m.value));
    w.key("unit").value(m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  // The calibration kernel's own process (see perfbench::calibration_s).
  if (argc == 2 && std::string(argv[1]) == "--calibrate") {
    std::printf("%.9f\n", perfbench::calibration_kernel_s());
    return 0;
  }
  // One thread for everything that sizes itself from HLTS_THREADS (fault
  // simulation, engine pools); trial threads are set per workload.
  ::setenv("HLTS_THREADS", "1", 1);
  ::signal(SIGPIPE, SIG_IGN);

  RunOptions options;
  std::string spec_path;
  bool trace_set = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage(argv[0]);
      options.trace = value == "1";
      trace_set = true;
    } else if (arg == "--spec") {
      spec_path = value;
    } else if (arg == "--scratch") {
      options.scratch_dir = value;
    } else if (arg == "--serve-bin") {
      options.serve_bin = value;
    } else {
      return usage(argv[0]);
    }
  }
  if (options.workload.empty() || spec_path.empty() ||
      options.scratch_dir.empty() || !trace_set || options.seconds <= 0) {
    return usage(argv[0]);
  }

  try {
    std::ifstream in(spec_path);
    std::stringstream text;
    text << in.rdbuf();
    std::string error;
    const auto spec = hlts::util::json_parse(text.str(), &error);
    if (!in || !spec) {
      std::cerr << "perfbench: cannot read " << spec_path << ": " << error
                << "\n";
      return 1;
    }
    const hlts::util::JsonValue* workload =
        perfbench::member(*spec, "workloads").find(options.workload);
    if (workload == nullptr) {
      std::cerr << "perfbench: unknown workload '" << options.workload << "'\n";
      return 2;
    }
    std::printf("config: workload %s seed %llu seconds %g trace %d nproc %u "
                "HLTS_THREADS=1 build %s\n",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed), options.seconds,
                options.trace ? 1 : 0, std::thread::hardware_concurrency(),
                HLTS_PERFBENCH_BUILD_TYPE);
    const std::string kind = perfbench::member(*workload, "kind").as_string();
    const RunOutcome r = kind == "serve"
                             ? perfbench::run_serve_mix(*spec, options)
                             : perfbench::run_inprocess(*spec, options);
    std::fflush(stdout);
    print_result(r);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
