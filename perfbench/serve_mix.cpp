// serve-mix: traffic from one poll-driven client process to a freshly
// spawned hlts_serve.
//
// Jobs are the small paper benchmarks under CAMAD and Ours.  Closed-loop
// passes, every job due at once, give the end-to-end pass time.  Then
// seeded Poisson streams at three frozen absolute rates give the latency
// metrics: each job is timed from the moment it was due, so a send backlog
// in the client (at most one request in flight per connection) counts
// against latency and is also reported on its own.  Every reply must
// equal, bit for bit, an in-process run_flow of the same request computed
// in set-up.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "util/rng.hpp"
#include "util/socket.hpp"
#include "util/trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace api = hlts::api;
namespace core = hlts::core;
namespace net = hlts::util::net;
namespace util = hlts::util;
using util::JsonValue;

namespace {

struct Rate {
  std::string name;
  double jobs_per_s = 0;
};

// The load shape.  spec.json holds only the frozen rates and the latency
// limit; the settings line of the output records them.
constexpr int kBits = 8;
constexpr int kShards = 2;
constexpr int kConnections = 4;
constexpr int kSetups = 9;
/// Closed-loop pass: every job type this many times, all due at once.
constexpr int kCapacityCopies = 10;
/// Untimed closed-loop warm-up, then timed passes until this share of the
/// run; the open-loop rates share the rest in interleaved rounds.
constexpr double kWarmupS = 1.0;
constexpr double kCapacityShare = 0.7;
constexpr int kRounds = 4;

struct ServeConfig {
  double latency_limit_ms = 0;
  std::vector<Rate> rates;
};

ServeConfig read_config(const JsonValue& w) {
  ServeConfig c;
  c.latency_limit_ms = member(w, "latency_limit_ms").as_double();
  for (const auto& [name, v] : member(w, "rates_jobs_s").as_object()) {
    c.rates.push_back({name, v.as_double()});
  }
  return c;
}

/// A spawned hlts_serve process.  The destructor stops it (SIGTERM, then
/// SIGKILL after a grace period) and reaps it, so no path leaves it behind.
class ServerProcess {
 public:
  ServerProcess(const std::string& bin, const std::string& root, int shards) {
    std::filesystem::remove_all(root);  // a fresh journal root every time
    std::filesystem::create_directories(root);
    const std::string out_file = root + "/serve.out";
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      const int fd =
          ::open(out_file.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
        ::close(fd);
      }
      ::setenv("HLTS_THREADS", "1", 1);
      const std::string journal = root + "/journal";
      const std::string n = std::to_string(shards);
      const char* argv[] = {bin.c_str(), "--journal-root", journal.c_str(),
                            "--shards",  n.c_str(),       "--port",
                            "0",         nullptr};
      ::execv(bin.c_str(), const_cast<char* const*>(argv));
      std::_Exit(127);
    }
    const std::string marker = "listening on port ";
    const auto t0 = Clock::now();
    while (port_ <= 0) {
      std::ifstream in(out_file);
      std::stringstream ss;
      ss << in.rdbuf();
      const std::string text = ss.str();
      const auto pos = text.find(marker);
      if (pos != std::string::npos &&
          text.find('\n', pos) != std::string::npos) {
        port_ = std::atoi(text.c_str() + pos + marker.size());
        break;
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("hlts_serve exited before listening: " + text);
      }
      if (seconds_since(t0) > 30) {
        stop();
        throw std::runtime_error("hlts_serve did not start within 30 s");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  ~ServerProcess() { stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] int port() const { return port_; }
  [[nodiscard]] pid_t pid() const { return pid_; }

  /// Graceful drain; returns the exit status (-1 when it had to be killed).
  int stop() {
    if (pid_ <= 0) return 0;
    ::kill(pid_, SIGTERM);
    int status = 0;
    const auto t0 = Clock::now();
    while (::waitpid(pid_, &status, WNOHANG) != pid_) {
      if (seconds_since(t0) > 15) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
        return -1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

 private:
  pid_t pid_ = -1;
  int port_ = -1;
};

/// One client connection with its receive buffer.
struct Conn {
  net::Fd fd;
  std::string buf;
  long job = -1;  ///< in-flight job index, -1 when idle
};

/// Reads what is available; appends complete lines to `lines`.  False on
/// EOF or error.
bool read_lines(Conn& c, std::vector<std::string>& lines) {
  char chunk[65536];
  const ssize_t got = ::read(c.fd.get(), chunk, sizeof chunk);
  if (got <= 0) return false;
  c.buf.append(chunk, static_cast<std::size_t>(got));
  std::size_t start = 0;
  for (std::size_t nl; (nl = c.buf.find('\n', start)) != std::string::npos;) {
    lines.push_back(c.buf.substr(start, nl - start));
    start = nl + 1;
  }
  c.buf.erase(0, start);
  return true;
}

/// Blocking one-request exchange on a fresh connection (health probes).
std::optional<JsonValue> exchange(int port, const std::string& line) {
  Conn c{net::connect_local(port, 5000), {}, -1};
  net::write_all(c.fd.get(), line + "\n");
  std::vector<std::string> lines;
  while (lines.empty()) {
    pollfd p{c.fd.get(), POLLIN, 0};
    if (::poll(&p, 1, 10000) <= 0 || !read_lines(c, lines)) return std::nullopt;
  }
  return util::json_parse(lines.front());
}

/// Cluster health, or nullopt when the server did not answer.
std::optional<JsonValue> health(int port) {
  try {
    auto doc = exchange(port, R"({"op":"health"})");
    if (!doc || !doc->get_bool("ok")) return std::nullopt;
    const JsonValue* h = doc->find("health");
    if (h == nullptr) return std::nullopt;
    return *h;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

/// Polls /health until every shard is live and has answered a probe.
void wait_ready(int port, int shards) {
  const auto t0 = Clock::now();
  for (;;) {
    if (auto h = health(port)) {
      const JsonValue* cluster = h->find("cluster");
      const JsonValue* list = h->find("shards");
      int ready = 0;
      if (list != nullptr) {
        for (const JsonValue& s : list->as_array()) {
          ready += s.get_bool("alive");
        }
      }
      if (cluster != nullptr && cluster->get_int("live_shards") == shards &&
          ready == shards) {
        return;
      }
    }
    if (seconds_since(t0) > 30) {
      throw std::runtime_error("shards not ready in 30 s");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

/// `root` and every process descended from it, read from /proc.
std::vector<int> process_tree(int root) {
  std::map<int, std::vector<int>> children;
  for (const auto& entry : std::filesystem::directory_iterator("/proc")) {
    const std::string name = entry.path().filename().string();
    if (name.find_first_not_of("0123456789") != std::string::npos) continue;
    std::ifstream in(entry.path() / "stat");
    std::string stat;
    std::getline(in, stat);
    // pid (comm) state ppid ...; comm may hold spaces, so parse after ')'.
    const auto close = stat.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream rest(stat.substr(close + 1));
    std::string state;
    int ppid = 0;
    if (rest >> state >> ppid) children[ppid].push_back(std::stoi(name));
  }
  std::vector<int> tree{root};
  for (std::size_t i = 0; i < tree.size(); ++i) {
    for (int child : children[tree[i]]) tree.push_back(child);
  }
  return tree;
}

/// CPU seconds spent so far by this process and by `server`'s processes.
double cluster_cpu_s(const std::vector<int>& server) {
  double s = process_cpu_s();
  for (int pid : server) s += process_cpu_s(pid);
  return s;
}

enum class Outcome { Pending, Ok, Refused, Failed };

struct LoadJob {
  std::size_t type = 0;
  double due_ms = 0;
  double noticed_ms = 0;
  double sent_ms = 0;
  double done_ms = 0;
  double server_ms = 0;  ///< the reply's wall_ms
  Outcome outcome = Outcome::Pending;
};

/// The distinct requests of the mix and their in-process references.
struct Mix {
  std::vector<api::FlowRequestV1> requests;
  std::vector<api::FlowResultV1> references;
  std::vector<hlts::dfg::Dfg> designs;
};

Mix make_mix(const std::vector<DesignSpec>& specs,
             const std::vector<core::FlowKind>& flows, util::Trace* trace) {
  Mix m;
  std::optional<util::Trace::Scope> scope;
  if (trace != nullptr) scope.emplace(trace);
  for (const DesignSpec& d : specs) {
    m.designs.push_back(make_design(d));
    for (core::FlowKind k : flows) {
      api::FlowRequestV1 req;
      req.name = d.label + "/" + api::flow_token(k);
      req.kind = k;
      req.dfg = m.designs.back();
      req.params.bits = kBits;
      req.params.num_threads = 1;
      m.references.push_back(api::FlowResultV1::from_result(
          req.name, core::run_flow(k, *req.dfg, req.params)));
      m.references.back().state = "succeeded";
      m.requests.push_back(std::move(req));
    }
  }
  return m;
}

struct PhaseStats {
  std::string name;
  double rate = 0;
  std::vector<LoadJob> jobs;
  double wall_ms = 0;  ///< first due to last completion
  double drain_ms = 0;  ///< last due to last completion
  double result_decode_us = 0;
  std::int64_t decoded = 0;
};

/// Drives one phase: jobs are sent when due over idle connections, and
/// the phase ends when every job has an outcome.
void run_phase(int port, const Mix& mix, int connections,
               const std::string& token_prefix, PhaseStats& phase) {
  std::vector<Conn> conns;
  for (int i = 0; i < connections; ++i) {
    conns.push_back(Conn{net::connect_local(port, 5000), {}, -1});
  }
  std::deque<std::size_t> backlog;
  std::size_t next = 0;
  std::size_t finished = 0;
  std::vector<LoadJob>& jobs = phase.jobs;
  const double last_due = jobs.empty() ? 0 : jobs.back().due_ms;
  const double give_up_ms = last_due + 60000;
  const auto t0 = Clock::now();
  auto finish = [&](std::size_t j, Outcome o) {
    jobs[j].outcome = o;
    jobs[j].done_ms = ms_since(t0);
    ++finished;
  };
  while (finished < jobs.size()) {
    double now = ms_since(t0);
    while (next < jobs.size() && jobs[next].due_ms <= now) {
      jobs[next].noticed_ms = now;
      backlog.push_back(next++);
    }
    for (std::size_t c = 0; c < conns.size() && !backlog.empty(); ++c) {
      if (conns[c].job >= 0 || !conns[c].fd.valid()) continue;
      const std::size_t j = backlog.front();
      backlog.pop_front();
      api::FlowRequestV1 req = mix.requests[jobs[j].type];
      req.name += "#" + std::to_string(j);
      req.flow_token = token_prefix + std::to_string(j);
      const std::string line = R"({"op":"submit","request":)" +
                               util::json_dump(req.to_json()) + "}\n";
      jobs[j].sent_ms = ms_since(t0);
      try {
        net::write_all(conns[c].fd.get(), line);
        conns[c].job = static_cast<long>(j);
      } catch (const std::exception&) {
        finish(j, Outcome::Failed);
        conns[c].fd.close();
      }
    }
    std::vector<pollfd> fds;
    std::vector<std::size_t> owner;
    for (std::size_t c = 0; c < conns.size(); ++c) {
      if (conns[c].job < 0) continue;
      fds.push_back({conns[c].fd.get(), POLLIN, 0});
      owner.push_back(c);
    }
    now = ms_since(t0);
    if (now > give_up_ms) {
      for (std::size_t j = 0; j < jobs.size(); ++j) {
        if (jobs[j].outcome == Outcome::Pending) finish(j, Outcome::Failed);
      }
      break;
    }
    double wait_ms = 50;
    if (next < jobs.size()) wait_ms = std::max(0.0, jobs[next].due_ms - now);
    if (fds.empty() && next >= jobs.size() && !backlog.empty()) {
      // Every connection failed: nothing can carry the backlog.
      for (std::size_t j : backlog) finish(j, Outcome::Failed);
      backlog.clear();
      continue;
    }
    const timespec ts{static_cast<time_t>(wait_ms / 1000),
                      static_cast<long>(std::fmod(wait_ms, 1000.0) * 1e6)};
    if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) continue;
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      Conn& conn = conns[owner[i]];
      const auto j = static_cast<std::size_t>(conn.job);
      std::vector<std::string> lines;
      if (!read_lines(conn, lines)) {
        finish(j, Outcome::Failed);
        conn.job = -1;
        conn.fd.close();
        continue;
      }
      if (lines.empty()) continue;
      conn.job = -1;
      const auto d0 = Clock::now();
      const std::optional<JsonValue> doc = util::json_parse(lines.front());
      Outcome o = Outcome::Failed;
      if (doc && !doc->get_bool("ok")) {
        o = Outcome::Refused;
      } else if (const JsonValue* res = doc ? doc->find("result") : nullptr) {
        try {
          const api::FlowResultV1 r = api::FlowResultV1::from_json(*res);
          phase.result_decode_us += ms_since(d0) * 1000.0;
          ++phase.decoded;
          jobs[j].server_ms = r.wall_ms;
          const api::FlowResultV1& want = mix.references[jobs[j].type];
          if (r.state == "succeeded" && r.design_identical(want) &&
              r.name == want.name + "#" + std::to_string(j)) {
            o = Outcome::Ok;
          } else if (r.state == "rejected" || r.state == "shed") {
            o = Outcome::Refused;
          }
        } catch (const std::exception&) {
          o = Outcome::Failed;
        }
      }
      finish(j, o);
    }
  }
  double first_due = jobs.empty() ? 0 : jobs.front().due_ms;
  double last_done = 0;
  for (const LoadJob& j : jobs) last_done = std::max(last_done, j.done_ms);
  phase.wall_ms = last_done - first_due;
  phase.drain_ms = last_done - last_due;
}

std::vector<LoadJob> poisson_jobs(hlts::Rng& rng, double rate, double seconds,
                                  std::size_t types) {
  std::vector<LoadJob> jobs;
  double t = 0;
  for (;;) {
    t += -std::log(1.0 - rng.next_double()) / rate;
    if (t > seconds) break;
    LoadJob j;
    j.type = rng.next_below(types);
    j.due_ms = t * 1000.0;
    jobs.push_back(j);
  }
  return jobs;
}

/// Latencies from the due time of the jobs that succeeded.
std::vector<double> latencies(const PhaseStats& p) {
  std::vector<double> out;
  for (const LoadJob& j : p.jobs) {
    if (j.outcome == Outcome::Ok) out.push_back(j.done_ms - j.due_ms);
  }
  return out;
}

/// A rate meets the limit when its p95 latency, counting every refused or
/// failed job as a miss, is within the limit and the backlog drains within
/// the limit after the last arrival.
bool meets_limit(const PhaseStats& p, double limit_ms) {
  std::vector<double> lat;
  for (const LoadJob& j : p.jobs) {
    lat.push_back(j.outcome == Outcome::Ok ? j.done_ms - j.due_ms : INFINITY);
  }
  return !lat.empty() && percentile(lat, 95) <= limit_ms &&
         p.drain_ms <= limit_ms;
}

std::int64_t count(const PhaseStats& p, Outcome o) {
  std::int64_t n = 0;
  for (const LoadJob& j : p.jobs) n += j.outcome == o;
  return n;
}

}  // namespace

RunOutcome run_serve_mix(const JsonValue& spec, const RunOptions& options) {
  const JsonValue& w = member(member(spec, "workloads"), options.workload);
  const ServeConfig c = read_config(w);
  const std::vector<DesignSpec> specs = read_designs(w);
  const std::vector<core::FlowKind> flows = read_flows(w);
  // One core per single-threaded shard plus one for the client.
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("settings: %d-bit, %d shard(s) x 1 thread (HLTS_THREADS=1), 1 "
              "client process with %d connection(s), %u core(s)\n",
              kBits, kShards, kConnections, cores);
  if (static_cast<unsigned>(kShards + 1) > cores) {
    std::printf("NOTE shards + client exceed the %u core(s); latencies include "
                "CPU contention\n", cores);
  }

  // Set-up, kSetups times: requests and in-process references, then a
  // fresh server until /health shows every shard ready.  The last server
  // stays.  Set-up and passes are timed in CPU seconds of the client and
  // of every server process (supervisor, zygote, shards): on a shared host
  // the wall time of several processes passing requests to each other
  // counts the time the host gives to others.
  // The calibration kernel runs before set-up and after every timed
  // closed-loop pass, while the server is idle; its median gives the
  // machine's speed over the run.
  std::vector<double> calibration{calibration_s()};
  std::vector<double> setup_cpu_s;
  std::vector<double> reference_s;
  Mix mix;
  std::unique_ptr<ServerProcess> server;
  std::vector<int> server_tree;
  for (int i = 0; i < kSetups; ++i) {
    server.reset();
    const auto t0 = Clock::now();
    const double cpu0 = process_cpu_s();
    mix = make_mix(specs, flows, nullptr);
    reference_s.push_back(seconds_since(t0));
    server = std::make_unique<ServerProcess>(
        options.serve_bin, options.scratch_dir + "/serve-" + std::to_string(i),
        kShards);
    wait_ready(server->port(), kShards);
    // A fresh server: all its processes' CPU time is set-up.
    server_tree = process_tree(server->pid());
    setup_cpu_s.push_back(cluster_cpu_s(server_tree) - cpu0);
  }
  const int port = server->port();
  const std::size_t types = mix.requests.size();

  // Closed loop: every job due at once, so the connections stay busy and
  // the pass time is the server's capacity on this mix.  The first passes
  // only warm the machine up; they are checked but not timed.
  hlts::Rng rng(options.seed);
  std::vector<PhaseStats> phases;
  auto closed_pass = [&](const std::string& tag) {
    PhaseStats p;
    p.name = tag;
    for (int copy = 0; copy < kCapacityCopies; ++copy) {
      for (std::size_t t = 0; t < types; ++t) p.jobs.push_back({t});
    }
    for (std::size_t i = p.jobs.size(); i > 1; --i) {
      std::swap(p.jobs[i - 1], p.jobs[rng.next_below(i)]);
    }
    run_phase(port, mix, kConnections,
              "pb" + std::to_string(options.seed) + "-" + tag + "-", p);
    phases.push_back(std::move(p));
    return phases.back().wall_ms / 1000.0;
  };
  const auto start = Clock::now();
  for (int i = 0; seconds_since(start) < kWarmupS; ++i) {
    (void)closed_pass("warm" + std::to_string(i));
  }
  std::vector<double> pass_s;
  std::vector<double> pass_cpu_s;  // each at the reference speed
  const double capacity_budget_s = options.seconds * kCapacityShare;
  while (pass_s.size() < 2 ||
         seconds_since(start) + median(pass_s) <= capacity_budget_s) {
    const double cpu0 = cluster_cpu_s(server_tree);
    pass_s.push_back(closed_pass("cap" + std::to_string(pass_s.size())));
    const double cpu_s = cluster_cpu_s(server_tree) - cpu0;
    calibration.push_back(calibration_s());
    pass_cpu_s.push_back(cpu_s * kCalibrationReferenceS / calibration.back());
  }
  // Read before the open-loop rates: there the shards' queues, and so
  // their memory, grow with how far the machine falls behind the rate.
  const double peak_rss = peak_rss_mb(server_tree);
  const double capacity = static_cast<double>(types * kCapacityCopies) /
                          median(pass_s);

  // Open loop at each frozen rate, in interleaved rounds so that every
  // rate sees the same stretches of the run; the rates share the remaining
  // time equally.
  const double phase_s = std::max(
      0.5, (options.seconds - seconds_since(start)) /
               static_cast<double>(c.rates.size() * kRounds));
  std::vector<PhaseStats> rated(c.rates.size());
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t i = 0; i < c.rates.size(); ++i) {
      const Rate& r = c.rates[i];
      PhaseStats p;
      p.jobs = poisson_jobs(rng, r.jobs_per_s, phase_s, types);
      run_phase(port, mix, kConnections,
                "pb" + std::to_string(options.seed) + "-" + r.name + "-" +
                    std::to_string(round) + "-",
                p);
      PhaseStats& acc = rated[i];
      acc.name = r.name;
      acc.rate = r.jobs_per_s;
      acc.jobs.insert(acc.jobs.end(), p.jobs.begin(), p.jobs.end());
      acc.wall_ms += p.wall_ms;
      acc.drain_ms = std::max(acc.drain_ms, p.drain_ms);
      acc.result_decode_us += p.result_decode_us;
      acc.decoded += p.decoded;
    }
  }

  std::optional<JsonValue> final_health = health(port);
  std::vector<double> health_rtt_ms;
  if (options.trace) {
    for (int i = 0; i < 20; ++i) {
      const auto t0 = Clock::now();
      (void)health(port);
      health_rtt_ms.push_back(ms_since(t0));
    }
  }
  const int exit_status = server->stop();
  server.reset();

  // Accounting and checks.
  RunOutcome out;
  std::int64_t refused = 0;
  std::int64_t failed = 0;
  double result_decode_us = 0;
  std::int64_t decoded = 0;
  auto account = [&](const PhaseStats& p) {
    out.attempted += static_cast<std::int64_t>(p.jobs.size());
    refused += count(p, Outcome::Refused);
    failed += count(p, Outcome::Failed);
    result_decode_us += p.result_decode_us;
    decoded += p.decoded;
  };
  for (const PhaseStats& p : phases) account(p);
  for (const PhaseStats& p : rated) account(p);
  out.failed = refused + failed;
  if (exit_status != 0) {
    std::printf("CHECK FAILED hlts_serve exit status %d after drain\n",
                exit_status);
    ++out.failed;
  }
  out.correct = out.failed == 0;

  Digest designs;
  double area = 0;
  double steps = 0;
  for (const api::FlowResultV1& r : mix.references) {
    add_design(designs, r);
    area += r.area;
    steps += r.exec_time;
  }
  std::printf("digest %s: designs %s\n", options.workload.c_str(),
              designs.hex().c_str());
  std::printf("in-process reference pass %.1f ms (median of %zu)\n",
              median(reference_s) * 1000.0, reference_s.size());
  std::printf("closed loop: %zu passes of %zu jobs, capacity %.1f jobs/s; "
              "pass s:",
              pass_s.size(),
              types * static_cast<std::size_t>(kCapacityCopies), capacity);
  for (double p : pass_s) std::printf(" %.3f", p);
  std::printf("\npass cpu s at the reference speed:");
  for (double p : pass_cpu_s) std::printf(" %.3f", p);
  std::printf("\n");
  std::printf("server wall_ms median per job:");
  for (std::size_t t = 0; t < types; ++t) {
    std::vector<double> ms;
    for (const PhaseStats& p : phases) {
      for (const LoadJob& j : p.jobs) {
        if (j.type == t && j.outcome == Outcome::Ok) ms.push_back(j.server_ms);
      }
    }
    std::printf(" %s=%.1f", mix.requests[t].name.c_str(), median(ms));
  }
  std::printf("\n");

  double max_rate = 0;
  std::vector<double> late_ms;
  std::vector<double> queue_ms;
  std::vector<double> overhead_ms;
  std::printf("%-6s %8s %6s %9s %7s %6s %9s %9s %9s %9s %5s\n", "rate",
              "jobs/s", "sent", "succeeded", "refused", "failed", "p50_ms",
              "p95_ms", "late_max", "drain_ms", "meets");
  for (const PhaseStats& p : rated) {
    const std::vector<double> lat = latencies(p);
    const bool meets = meets_limit(p, c.latency_limit_ms);
    if (meets) max_rate = std::max(max_rate, p.rate);
    double late = 0;
    for (const LoadJob& j : p.jobs) {
      late = std::max(late, j.noticed_ms - j.due_ms);
      late_ms.push_back(j.noticed_ms - j.due_ms);
      queue_ms.push_back(j.sent_ms - j.due_ms);
      if (j.outcome == Outcome::Ok) {
        overhead_ms.push_back(j.done_ms - j.sent_ms - j.server_ms);
      }
    }
    std::printf("%-6s %8.1f %6zu %9lld %7lld %6lld %9.2f %9.2f %9.3f %9.1f "
                "%5s\n",
                p.name.c_str(), p.rate, p.jobs.size(),
                static_cast<long long>(count(p, Outcome::Ok)),
                static_cast<long long>(count(p, Outcome::Refused)),
                static_cast<long long>(count(p, Outcome::Failed)), median(lat),
                percentile(lat, 95), late, p.drain_ms, meets ? "yes" : "no");
    if (count(p, Outcome::Refused) > 0 && p.rate < capacity) {
      std::printf("NOTE %s: %lld job(s) refused or shed below measured "
                  "capacity\n",
                  p.name.c_str(),
                  static_cast<long long>(count(p, Outcome::Refused)));
    }
  }
  std::int64_t sheds = 0;
  std::int64_t rejected = 0;
  if (final_health) {
    if (const JsonValue* cl = final_health->find("cluster")) {
      sheds = cl->get_int("sheds");
      rejected = cl->get_int("rejected");
    }
  }
  std::printf("server: sheds %lld rejected %lld\n",
              static_cast<long long>(sheds), static_cast<long long>(rejected));

  if (!options.trace) {
    std::printf("measured: set-up %.4f cpu s, closed-loop pass %.4f s wall; "
                "calibration median %.4f cpu s\n",
                median(setup_cpu_s), median(pass_s), median(calibration));
    out.set("setup_s",
            median(setup_cpu_s) * kCalibrationReferenceS / median(calibration),
            "s");
    out.set("pass_cpu_s", median(pass_cpu_s), "s");
    out.set("peak_rss_mb", peak_rss, "MB");
    out.set("area_mm2_total", area, "mm2");
    out.set("exec_steps_total", steps, "steps");
    return out;
  }

  zero_layer_metrics(out);
  std::map<std::string, LayerRow> layers;
  util::Trace trace;
  const auto t0 = Clock::now();
  (void)make_mix(specs, flows, &trace);
  const double traced_reference_s = seconds_since(t0);
  const util::TraceSnapshot snap = trace.snapshot();
  double flow_ms = 0;
  for (core::FlowKind k : flows) flow_ms += span_ms(snap, core::flow_name(k));
  const double trials = counter(snap, "synth.trials_evaluated");
  const double mergers = counter(snap, "synth.mergers");
  set_core_metrics(
      {flow_ms, trials, mergers, span_ms(snap, "synth.trials"),
       span_ms(snap, "synth.candidates"), span_ms(snap, "synth.commit"),
       span_ms(snap, "flow.finalize")},
      out);
  layers["core.run_flow (in-process)"].self_ms = flow_ms;
  layers["core.run_flow (in-process)"].counters["trials"] = trials;
  layers["core.run_flow (in-process)"].counters["mergers"] = mergers;
  probe_layers(mix.designs, mix.requests, mix.references, options.scratch_dir,
               out, layers);
  if (decoded > 0) {
    out.set("api.result_decode_us",
            result_decode_us / static_cast<double>(decoded), "us");
  }
  out.set("engine.sheds", static_cast<double>(sheds), "count");
  out.set("engine.rejected", static_cast<double>(rejected), "count");
  out.set("serve.overhead_ms_p50", median(overhead_ms), "ms");
  out.set("serve.overhead_ms_p95", percentile(overhead_ms, 95), "ms");
  out.set("serve.health_rtt_ms", median(health_rtt_ms), "ms");
  const double late_max =
      late_ms.empty() ? 0 : *std::max_element(late_ms.begin(), late_ms.end());
  out.set("load.late_ms_max", late_max, "ms");
  out.set("load.client_queue_ms_p95", percentile(queue_ms, 95), "ms");
  // The open-loop rates only; the closed-loop passes count in `attempted`.
  std::int64_t sent = 0;
  std::int64_t ok = 0;
  std::int64_t rated_refused = 0;
  std::int64_t rated_failed = 0;
  for (const PhaseStats& p : rated) {
    sent += static_cast<std::int64_t>(p.jobs.size());
    ok += count(p, Outcome::Ok);
    rated_refused += count(p, Outcome::Refused);
    rated_failed += count(p, Outcome::Failed);
    const std::vector<double> lat = latencies(p);
    out.set("load.latency_p50_ms." + p.name, median(lat), "ms");
    out.set("load.latency_p95_ms." + p.name, percentile(lat, 95), "ms");
  }
  out.set("load.sent", static_cast<double>(sent), "count");
  out.set("load.succeeded", static_cast<double>(ok), "count");
  out.set("load.refused", static_cast<double>(rated_refused), "count");
  out.set("load.failed", static_cast<double>(rated_failed), "count");
  out.set("load.max_rate_jobs_s", max_rate, "1/s");
  out.set("load.capacity_jobs_s", capacity, "1/s");
  out.set("pass.wall_s", median(pass_s), "s");
  out.set("trace.overhead_ratio", traced_reference_s / median(reference_s),
          "ratio");
  double load_ms = 0;
  for (const PhaseStats& p : rated) load_ms += p.wall_ms;
  layers["load.open_loop"].self_ms = load_ms;
  layers["load.open_loop"].counters["sent"] = static_cast<double>(sent);
  layers["serve.overhead"].self_ms =
      std::accumulate(overhead_ms.begin(), overhead_ms.end(), 0.0);
  layers["serve.overhead"].counters["replies"] = static_cast<double>(ok);
  print_layer_table(options.workload, layers, load_ms);
  return out;
}

}  // namespace perfbench
