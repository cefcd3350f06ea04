#include "common.hpp"

#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "api/api.hpp"
#include "benchmarks/benchmarks.hpp"
#include "workload/generator.hpp"

namespace perfbench {

using hlts::util::JsonValue;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double seconds_since(Clock::time_point t0) { return ms_since(t0) / 1000.0; }

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t i =
      rank < 1 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[i];
}

double span_ms(const hlts::util::TraceSnapshot& s, const std::string& name) {
  double us = 0;
  for (const hlts::util::SpanRecord& span : s.spans) {
    if (span.name == name) us += static_cast<double>(span.dur_us);
  }
  return us / 1000.0;
}

double counter(const hlts::util::TraceSnapshot& s, const std::string& name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0.0 : static_cast<double>(it->second);
}

namespace {

// Keeps the calibration work from being optimised away.
std::atomic<std::uint64_t> calibration_sink{0};

/// The calibration workload: a seeded random straight-line program over
/// string-named variables, evaluated through std::map the way interpret()
/// evaluates a DFG; bit-parallel sweeps over a 64 KiB word array, the way
/// the fault simulator sweeps its lanes; and a string-keyed map of about
/// 3 MiB, larger than a core's L2 cache, built and probed.  The last part
/// is served from the shared last-level cache, which other tenants of a
/// shared host contend for: without it, gen-synth and paper-atpg pass
/// times moved by up to 1.7 times as much as the calibration time between
/// runs on a shared 4-vCPU VM.
void calibration_work() {
  constexpr int kRounds = 800;
  constexpr int kInputs = 16;
  constexpr int kOps = 200;
  constexpr std::size_t kWords = 8192;
  constexpr int kSweeps = 6000;
  std::uint64_t x = 0x2545F4914F6CDD1DULL;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::vector<std::string> names;
  for (int i = 0; i < kInputs + kOps; ++i) {
    names.push_back("v" + std::to_string(i));
  }
  std::uint64_t sum = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::map<std::string, std::uint64_t> env;
    for (int i = 0; i < kInputs; ++i) env[names[i]] = next() & 0xff;
    for (int i = kInputs; i < kInputs + kOps; ++i) {
      const auto n = static_cast<std::uint64_t>(i);
      const std::uint64_t a = env.at(names[next() % n]);
      const std::uint64_t b = env.at(names[next() % n]);
      std::uint64_t r = 0;
      switch (next() % 6) {
        case 0: r = a + b; break;
        case 1: r = a - b; break;
        case 2: r = a * b; break;
        case 3: r = a < b ? 1 : 0; break;
        case 4: r = a ^ b; break;
        default: r = b == 0 ? 0xff : a / b; break;
      }
      env[names[i]] = r & 0xff;
    }
    for (const auto& [name, v] : env) sum += v + name.size();
  }
  std::vector<std::uint64_t> words(kWords);
  for (std::uint64_t& w : words) w = next();
  for (int sweep = 0; sweep < kSweeps; ++sweep) {
    for (std::size_t i = 1; i < kWords; ++i) {
      words[i] = (words[i] & ~words[i - 1]) ^ (words[i] >> 3) ^
                 (words[i - 1] | static_cast<std::uint64_t>(sweep));
    }
  }
  for (std::uint64_t w : words) sum += w;
  constexpr int kBigRounds = 6;
  constexpr unsigned kBigKeys = 20000;
  constexpr unsigned kBigProbes = 40000;
  const std::string prefix = "node_with_a_long_name_";
  for (int round = 0; round < kBigRounds; ++round) {
    std::map<std::string, std::uint64_t> table;
    for (unsigned i = 0; i < kBigKeys; ++i) {
      table[prefix + std::to_string(i * 7919u % kBigKeys)] = i;
    }
    for (unsigned i = 0; i < kBigProbes; ++i) {
      sum += table.at(prefix + std::to_string(i * 104729u % kBigKeys));
    }
  }
  calibration_sink.store(sum, std::memory_order_relaxed);
}

}  // namespace

double process_cpu_s(int pid) {
  clockid_t clock = CLOCK_PROCESS_CPUTIME_ID;
  timespec ts{};
  if ((pid != 0 && ::clock_getcpuclockid(pid, &clock) != 0) ||
      ::clock_gettime(clock, &ts) != 0) {
    throw std::runtime_error("no CPU clock for process " + std::to_string(pid));
  }
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double calibration_kernel_s() {
  const auto thread_cpu_s = [] {
    timespec ts{};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  };
  const double t0 = thread_cpu_s();
  calibration_work();
  return thread_cpu_s() - t0;
}

double calibration_s() {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("calibration: pipe failed");
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("calibration: fork failed");
  if (pid == 0) {
    ::dup2(fds[1], 1);
    ::close(fds[0]);
    ::close(fds[1]);
    ::execl("/proc/self/exe", "hlts_perfbench", "--calibrate",
            static_cast<char*>(nullptr));
    std::_Exit(127);
  }
  ::close(fds[1]);
  std::string out;
  char buf[64];
  for (ssize_t got; (got = ::read(fds[0], buf, sizeof buf)) != 0;) {
    if (got < 0 && errno != EINTR) break;
    if (got > 0) out.append(buf, static_cast<std::size_t>(got));
  }
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  char* end = nullptr;
  const double s = std::strtod(out.c_str(), &end);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || end == out.c_str() ||
      s <= 0) {
    throw std::runtime_error("calibration: the kernel process failed");
  }
  return s;
}

double peak_rss_mb(const std::vector<int>& others) {
  rusage self{};
  ::getrusage(RUSAGE_SELF, &self);
  long kb = self.ru_maxrss;
  for (int pid : others) {
    std::ifstream status("/proc/" + std::to_string(pid) + "/status");
    for (std::string line; std::getline(status, line);) {
      if (line.rfind("VmHWM:", 0) == 0) {
        kb = std::max(kb, std::strtol(line.c_str() + 6, nullptr, 10));
      }
    }
  }
  return static_cast<double>(kb) / 1024.0;
}

void Digest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xff;
    h_ *= 1099511628211ULL;
  }
}

void Digest::add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

void Digest::add(const std::string& s) {
  for (unsigned char c : s) {
    h_ ^= c;
    h_ *= 1099511628211ULL;
  }
  add(static_cast<std::uint64_t>(s.size()));
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
  return buf;
}

const JsonValue& member(const JsonValue& obj, const std::string& key) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) {
    throw std::runtime_error("spec: missing member '" + key + "'");
  }
  return *v;
}

hlts::dfg::Dfg make_design(const DesignSpec& d) {
  if (!d.benchmark.empty()) {
    return hlts::benchmarks::make_benchmark(d.benchmark);
  }
  const JsonValue& g = d.generate;
  hlts::workload::DfgShape s;
  s.ops = static_cast<int>(g.get_int("ops", s.ops));
  s.depth = static_cast<int>(g.get_int("depth", s.depth));
  s.fanout = static_cast<int>(g.get_int("fanout", s.fanout));
  s.inputs = static_cast<int>(g.get_int("inputs", s.inputs));
  s.loop_density = g.get_double("loop_density", s.loop_density);
  s.self_loop_density = g.get_double("self_loop_density", s.self_loop_density);
  s.mul_fraction = g.get_double("mul_fraction", s.mul_fraction);
  s.div_fraction = g.get_double("div_fraction", s.div_fraction);
  s.cmp_fraction = g.get_double("cmp_fraction", s.cmp_fraction);
  s.logic_fraction = g.get_double("logic_fraction", s.logic_fraction);
  s.memories = static_cast<int>(g.get_int("memories", s.memories));
  s.memory_ports = static_cast<int>(g.get_int("memory_ports", s.memory_ports));
  s.memory_access_density =
      g.get_double("memory_access_density", s.memory_access_density);
  return hlts::workload::generate(
      static_cast<std::uint64_t>(member(g, "seed").as_int()), s);
}

std::vector<DesignSpec> read_designs(const JsonValue& workload) {
  std::vector<DesignSpec> out;
  for (const JsonValue& d : member(workload, "designs").as_array()) {
    DesignSpec spec;
    spec.label = member(d, "label").as_string();
    if (const JsonValue* b = d.find("benchmark")) {
      spec.benchmark = b->as_string();
    }
    if (const JsonValue* g = d.find("generate")) spec.generate = *g;
    if (spec.benchmark.empty() && !spec.generate.is_object()) {
      throw std::runtime_error("spec: design '" + spec.label +
                               "' names neither a benchmark nor a shape");
    }
    out.push_back(std::move(spec));
  }
  return out;
}

std::vector<hlts::core::FlowKind> read_flows(const JsonValue& workload) {
  std::vector<hlts::core::FlowKind> out;
  for (const JsonValue& f : member(workload, "flows").as_array()) {
    out.push_back(hlts::api::flow_from_token(f.as_string()));
  }
  return out;
}

void print_layer_table(const std::string& workload,
                       const std::map<std::string, LayerRow>& layers,
                       double total_ms) {
  std::printf("layer table (%s, traced pass %.1f ms):\n", workload.c_str(),
              total_ms);
  std::printf("  %-22s %12s %8s  %s\n", "layer", "self_ms", "share",
              "counters");
  for (const auto& [name, row] : layers) {
    std::string counters;
    for (const auto& [k, v] : row.counters) {
      char buf[96];
      std::snprintf(buf, sizeof buf, "%s%s=%.6g", counters.empty() ? "" : " ",
                    k.c_str(), v);
      counters += buf;
    }
    const double share = total_ms > 0 ? row.self_ms / total_ms : 0;
    std::printf("  %-22s %12.3f %7.2f%%  %s\n", name.c_str(), row.self_ms,
                100.0 * share, counters.c_str());
  }
}

}  // namespace perfbench
