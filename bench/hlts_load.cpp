// hlts_load: load-driving client for hlts_serve.
//
// Opens --conns connections and pumps --jobs synthesis requests through
// them (each connection runs synchronous submits; concurrency = the
// connection count), measuring per-request latency end to end through the
// wire protocol.  Optionally SIGKILLs a shard mid-run (--kill-shard /
// --kill-after-ms) to exercise the supervisor's journal-adoption failover
// under load.  Writes a JSON report (latency percentiles, per-state counts,
// the cluster health snapshot with shed/reject counters) to --out.
//
//   hlts_load --port P [--jobs N] [--conns C] [--bench ex|dct|...|mix]
//             [--flow camad|approach1|approach2|ours] [--bits N]
//             [--kill-shard K --kill-after-ms M] [--shutdown] [--out FILE]
//
// Chaos-grid mode (--chaos-grid) drives the full fault matrix instead: it
// spawns its own hlts_serve (--serve-bin) once per cell of a fault-type x
// rate grid -- clean baseline, SIGKILL failover, injected disk faults
// (HLTS_IO_FAULTS in the server), injected network faults (client-side
// HLTS_NET_FAULTS grammar), graceful drain (SIGTERM mid-run), and one cell
// combining kill + disk + net.  Every cell pushes --jobs requests through
// idempotent RetryClients and must end with zero lost jobs, zero duplicate
// replies, and every successful design bit-identical to the baseline cell;
// afterwards every shard journal is scrubbed (zero corrupt files) and the
// server must have exited 0.  Counters land in --out under "chaos_grid".
//
//   hlts_load --chaos-grid --serve-bin PATH [--jobs N] [--conns C]
//             [--bench NAME|mix] [--bits N] [--root DIR] [--out FILE]
//
// Soak-grid mode (--soak-grid) proves the self-healing lifecycle and the
// adaptive overload controls under sustained pressure.  Each cell of a
// traffic-pattern x aggressiveness grid spawns its own hlts_serve with
// respawn + CoDel shedding armed, generates its job stream from the seeded
// workload library (src/workload -- every request document is a pure
// function of --seed), and drives three phases -- warm-up, overload (low
// ~0.75x / high 2x of the calibrated capacity), recovery -- with the
// per-phase job budget spread over the connections by the traffic pattern
// (uniform / diagonal / quasi-diagonal / log-diagonal).  --kill-shard K
// SIGKILLs shard K mid-overload; the cell then requires the shard to
// respawn, replay its journal and rejoin before it passes.  Every cell
// asserts zero lost jobs and zero duplicate replies (idempotent
// RetryClients + flow-token dedup); per-phase latency percentiles and
// shed/reject/hedge counter deltas land in --out under "soak_grid".
//
//   hlts_load --soak-grid --serve-bin PATH [--jobs N] [--conns C]
//             [--seed S] [--gen-ops N] [--shards N] [--flow NAME]
//             [--pattern NAME] [--aggressiveness low|high]
//             [--kill-shard K] [--root DIR] [--out FILE]

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "benchmarks/benchmarks.hpp"
#include "core/checkpoint.hpp"
#include "core/flows.hpp"
#include "engine/engine.hpp"
#include "serve/client.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/inject.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"
#include "workload/traffic.hpp"

namespace {

using namespace hlts;
using Clock = std::chrono::steady_clock;

struct Sample {
  double latency_ms = 0;
  std::string state;  ///< FlowResultV1 state, or "error" for protocol errors
};

double percentile(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const std::size_t n = sorted.size();
  std::size_t idx = static_cast<std::size_t>(q * static_cast<double>(n));
  if (idx >= n) idx = n - 1;
  return sorted[idx];
}

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --port P [--jobs N] [--conns C] [--bench NAME|mix]"
               " [--flow NAME] [--bits N] [--kill-shard K --kill-after-ms M]"
               " [--shutdown] [--out FILE]\n"
            << "   or: " << argv0
            << " --chaos-grid --serve-bin PATH [--jobs N] [--conns C]"
               " [--bench NAME|mix] [--bits N] [--root DIR] [--out FILE]\n"
            << "   or: " << argv0
            << " --soak-grid --serve-bin PATH [--jobs N] [--conns C]"
               " [--seed S] [--gen-ops N] [--shards N] [--flow NAME]"
               " [--pattern NAME] [--aggressiveness low|high]"
               " [--kill-shard K] [--root DIR] [--out FILE]\n";
  return 2;
}

// --- chaos grid -------------------------------------------------------------

/// One cell of the fault matrix.
struct CellSpec {
  std::string name;
  std::string io_faults;   ///< HLTS_IO_FAULTS for the spawned server
  std::string net_faults;  ///< HLTS_NET_FAULTS grammar, armed client-side
  bool kill = false;       ///< SIGKILL shard 0 mid-run (protocol kill op)
  bool drain = false;      ///< SIGTERM the server mid-run
};

/// What one cell produced; "pass" is the zero-lost / zero-duplicate /
/// zero-corrupt / bit-identical contract.
struct CellOutcome {
  std::string name;
  int jobs = 0;
  int replied = 0;     ///< terminal result delivered ("succeeded"/"failed")
  int refused = 0;     ///< explicit refusal (admission, drain, journal fault)
  int lost = 0;        ///< no classified outcome after the retry budget
  int duplicates = 0;  ///< a job name answered more than once
  int mismatches = 0;  ///< succeeded design != baseline bit-for-bit
  std::int64_t reconnects = 0;
  std::int64_t corrupt_files = 0;
  std::int64_t tmp_leftovers = 0;
  std::int64_t orphans = 0;
  int server_exit = -1;
  double wall_ms = 0;

  [[nodiscard]] bool pass() const {
    return lost == 0 && duplicates == 0 && mismatches == 0 &&
           corrupt_files == 0 && server_exit == 0 &&
           replied + refused == jobs;
  }
};

/// A spawned hlts_serve child with its scraped port and stdout drainer.
struct ServerProc {
  pid_t pid = -1;
  int port = -1;
  int out_fd = -1;
  std::thread drainer;
};

/// Forks + execs the server, scrapes "listening on port N" from its
/// stdout, and leaves a drainer thread consuming the rest of the pipe.
/// `extra_env` entries are set in the child before exec (an empty value
/// unsets the variable); `extra_args` are appended to the command line.
std::optional<ServerProc> spawn_server(
    const std::string& serve_bin, const std::string& journal_root, int shards,
    const std::string& io_faults,
    const std::vector<std::pair<std::string, std::string>>& extra_env = {},
    const std::vector<std::string>& extra_args = {}) {
  int fds[2];
  if (::pipe(fds) != 0) {
    std::cerr << "chaos-grid: pipe failed\n";
    return std::nullopt;
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::cerr << "chaos-grid: fork failed\n";
    ::close(fds[0]);
    ::close(fds[1]);
    return std::nullopt;
  }
  if (pid == 0) {
    ::dup2(fds[1], 1);
    ::close(fds[0]);
    ::close(fds[1]);
    if (io_faults.empty()) {
      ::unsetenv("HLTS_IO_FAULTS");
    } else {
      ::setenv("HLTS_IO_FAULTS", io_faults.c_str(), 1);
    }
    ::unsetenv("HLTS_NET_FAULTS");  // net chaos is client-side only
    for (const auto& [key, value] : extra_env) {
      if (value.empty()) {
        ::unsetenv(key.c_str());
      } else {
        ::setenv(key.c_str(), value.c_str(), 1);
      }
    }
    const std::string shard_count = std::to_string(shards);
    std::vector<std::string> args = {serve_bin,     "--journal-root",
                                     journal_root,  "--shards",
                                     shard_count,   "--port",
                                     "0"};
    args.insert(args.end(), extra_args.begin(), extra_args.end());
    std::vector<char*> argv_c;
    argv_c.reserve(args.size() + 1);
    for (std::string& a : args) argv_c.push_back(a.data());
    argv_c.push_back(nullptr);
    ::execv(serve_bin.c_str(), argv_c.data());
    std::_Exit(127);  // exec failed
  }
  ::close(fds[1]);

  ServerProc proc;
  proc.pid = pid;
  proc.out_fd = fds[0];
  std::string seen;
  char buf[256];
  const std::string marker = "listening on port ";
  while (true) {
    const auto pos = seen.find(marker);
    if (pos != std::string::npos) {
      const auto eol = seen.find('\n', pos);
      if (eol != std::string::npos) {
        proc.port = std::atoi(seen.c_str() + pos + marker.size());
        break;
      }
    }
    const ssize_t n = ::read(fds[0], buf, sizeof(buf));
    if (n <= 0) break;  // died before announcing the port
    seen.append(buf, static_cast<std::size_t>(n));
  }
  if (proc.port <= 0) {
    std::cerr << "chaos-grid: server failed to start (output: " << seen
              << ")\n";
    ::close(fds[0]);
    (void)::kill(pid, SIGKILL);
    (void)::waitpid(pid, nullptr, 0);
    return std::nullopt;
  }
  proc.drainer = std::thread([fd = fds[0]] {
    char sink[1024];
    while (::read(fd, sink, sizeof(sink)) > 0) {
    }
  });
  return proc;
}

/// Waits for the child to exit (bounded); returns its exit code, or -1
/// after a timeout-forced SIGKILL.
int wait_server(ServerProc& proc, int timeout_ms) {
  int status = 0;
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (true) {
    const pid_t r = ::waitpid(proc.pid, &status, WNOHANG);
    if (r == proc.pid) break;
    if (r < 0) {
      status = -1;
      break;
    }
    if (Clock::now() >= deadline) {
      (void)::kill(proc.pid, SIGKILL);
      (void)::waitpid(proc.pid, &status, 0);
      status = -1;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  if (proc.drainer.joinable()) proc.drainer.join();
  ::close(proc.out_fd);
  if (status == -1) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// Runs one grid cell end to end: spawn, load (with the cell's chaos),
/// stop, scrub.  `baseline` is empty for the baseline cell itself and the
/// per-job reference results afterwards.
CellOutcome run_cell(const CellSpec& cell, const std::string& serve_bin,
                     const std::string& root, int shards, int jobs,
                     int conns,
                     const std::vector<api::FlowRequestV1>& protos,
                     std::vector<std::optional<api::FlowResultV1>>& baseline,
                     std::vector<std::optional<api::FlowResultV1>>* results_out) {
  CellOutcome out;
  out.name = cell.name;
  out.jobs = jobs;

  const std::string journal_root = root + "/" + cell.name;
  util::fs::create_directories(journal_root);

  std::string chaos_error;
  if (!util::inject::configure(util::inject::Family::Net, cell.net_faults,
                                &chaos_error)) {
    std::cerr << "chaos-grid: bad net spec: " << chaos_error << "\n";
    return out;
  }

  auto proc = spawn_server(serve_bin, journal_root, shards, cell.io_faults);
  if (!proc) {
    util::inject::clear(util::inject::Family::Net);
    return out;
  }
  const int port = proc->port;

  std::vector<std::optional<api::FlowResultV1>> results(
      static_cast<std::size_t>(jobs));
  std::atomic<int> next_job{0};
  std::mutex tally_mutex;
  std::map<std::string, int> reply_names;

  serve::ClientOptions opts;
  opts.connect_timeout_ms = 5000;
  opts.read_timeout_ms = 120000;  // bounds injected stalls, not real work
  opts.write_timeout_ms = 5000;
  opts.retries = 12;
  opts.chaos = !cell.net_faults.empty();
  opts.retry_rejected = !cell.io_faults.empty();

  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(conns));
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back([&] {
      serve::RetryClient client(port, opts);
      while (true) {
        const int j = next_job.fetch_add(1);
        if (j >= jobs) break;
        api::FlowRequestV1 req =
            protos[static_cast<std::size_t>(j) % protos.size()];
        req.name = "grid-" + std::to_string(j);
        const serve::Client::Response resp = client.submit(req);
        std::lock_guard<std::mutex> lock(tally_mutex);
        if (resp.result && resp.result->state != "rejected") {
          ++out.replied;
          if (++reply_names[resp.result->name] > 1) ++out.duplicates;
          results[static_cast<std::size_t>(j)] = *resp.result;
        } else if (resp.result) {
          ++out.refused;  // explicit "rejected" after the retry budget
        } else if (resp.error.find("shutting down") != std::string::npos ||
                   (cell.drain &&
                    (resp.error.find("connect") != std::string::npos ||
                     resp.error == "connection closed"))) {
          ++out.refused;  // drained server: refusal is the contract
        } else {
          ++out.lost;
          std::cerr << "chaos-grid[" << cell.name << "]: job " << j
                    << " lost: " << resp.error << "\n";
        }
      }
      std::lock_guard<std::mutex> lock(tally_mutex);
      out.reconnects += client.reconnects();
    });
  }

  // The cell's mid-run chaos: SIGKILL a shard over the protocol, and/or
  // SIGTERM the whole server (graceful drain).
  std::thread chaos_thread;
  if (cell.kill || cell.drain) {
    chaos_thread = std::thread([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      if (cell.kill) {
        try {
          serve::Client killer(port);  // plain client: no chaos on this conn
          if (!killer.kill_shard(0)) {
            std::cerr << "chaos-grid[" << cell.name << "]: kill refused\n";
          }
        } catch (const Error& e) {
          std::cerr << "chaos-grid[" << cell.name << "]: kill: " << e.what()
                    << "\n";
        }
      }
      if (cell.drain) {
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
        (void)::kill(proc->pid, SIGTERM);
      }
    });
  }

  for (std::thread& t : threads) t.join();
  if (chaos_thread.joinable()) chaos_thread.join();
  out.wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  util::inject::clear(util::inject::Family::Net);

  // Orderly stop for cells the chaos did not already drain.
  if (!cell.drain) {
    try {
      serve::Client tail(port);
      (void)tail.shutdown();
    } catch (const Error&) {
      // Server already gone; wait_server settles it either way.
    }
  }
  out.server_exit = wait_server(*proc, 60000);

  // Post-mortem scrub of every shard journal: injected faults and SIGKILL
  // may leave refusals and .tmp debris, but never a corrupt committed
  // record.
  for (int k = 0; k < shards; ++k) {
    const engine::Journal::ScrubReport report =
        engine::Engine::scrub(journal_root + "/shard-" + std::to_string(k));
    out.corrupt_files += report.corrupt + report.unknown;
    out.tmp_leftovers += report.temp_leftovers;
    out.orphans += report.orphans;
  }

  // Bit-identity against the clean cell: every successful design must
  // match the baseline design for the same job index exactly.
  for (int j = 0; j < jobs; ++j) {
    const auto& got = results[static_cast<std::size_t>(j)];
    if (!got || got->state != "succeeded") continue;
    const auto& want = baseline[static_cast<std::size_t>(j)];
    if (!want || !want->has_design) continue;
    if (!got->design_identical(*want)) {
      ++out.mismatches;
      std::cerr << "chaos-grid[" << cell.name << "]: job " << j
                << " design differs from baseline\n";
    }
  }
  if (results_out != nullptr) *results_out = std::move(results);
  return out;
}

int run_chaos_grid(const std::string& serve_bin, const std::string& root,
                   int jobs, int conns,
                   const std::vector<api::FlowRequestV1>& protos,
                   const std::string& out_path) {
  const int shards = 3;
  // Rates are per-operation probabilities; seeds make every cell
  // reproducible.  "low" is background noise, "high" is a genuinely sick
  // environment.
  const std::vector<CellSpec> grid = {
      // name            io_faults (server)        net_faults (client)
      {"baseline", "", "", false, false},
      {"kill", "", "", true, false},
      {"disk-low", "write:short:0.05:7,fsync:eio:0.05:11", "", false, false},
      {"disk-high",
       "write:enospc:0.2:13,rename:eio:0.1:17,fsync:eio:0.15:19", "", false,
       false},
      {"net-low", "", "read:stall:0.05:23:20,write:reset:0.05:29", false,
       false},
      {"net-high", "",
       "connect:stall:0.2:31:30,read:truncate:0.1:37:3,write:reset:0.15:41",
       false, false},
      {"drain", "", "", false, true},
      {"kill-disk-net", "write:short:0.05:43,fsync:eio:0.05:47",
       "read:stall:0.05:53:20,write:reset:0.05:59", true, false},
  };

  std::vector<std::optional<api::FlowResultV1>> baseline(
      static_cast<std::size_t>(jobs));
  std::vector<CellOutcome> outcomes;
  for (const CellSpec& cell : grid) {
    std::cout << "chaos-grid: cell " << cell.name << " (" << jobs
              << " jobs)...\n";
    if (cell.name == "baseline") {
      outcomes.push_back(run_cell(cell, serve_bin, root, shards, jobs, conns,
                                  protos, baseline, &baseline));
      // The reference cell must be perfect or the grid is meaningless.
      if (!outcomes.back().pass() || outcomes.back().refused != 0) {
        std::cerr << "chaos-grid: baseline cell failed\n";
      }
    } else {
      outcomes.push_back(run_cell(cell, serve_bin, root, shards, jobs, conns,
                                  protos, baseline, nullptr));
    }
    const CellOutcome& o = outcomes.back();
    std::cout << "chaos-grid: cell " << o.name << ": replied " << o.replied
              << ", refused " << o.refused << ", lost " << o.lost
              << ", duplicates " << o.duplicates << ", mismatches "
              << o.mismatches << ", corrupt " << o.corrupt_files
              << ", tmp " << o.tmp_leftovers << ", reconnects "
              << o.reconnects << ", server_exit " << o.server_exit
              << (o.pass() ? " [pass]" : " [FAIL]") << "\n";
  }

  util::JsonWriter w;
  w.begin_object();
  w.key("bench").value("serving");
  w.key("mode").value("chaos_grid");
  w.key("jobs_per_cell").value(jobs);
  w.key("conns").value(conns);
  w.key("shards").value(shards);
  w.key("chaos_grid").begin_array();
  bool all_pass = true;
  for (const CellOutcome& o : outcomes) {
    all_pass = all_pass && o.pass();
    w.begin_object();
    w.key("cell").value(o.name);
    w.key("jobs").value(o.jobs);
    w.key("replied").value(o.replied);
    w.key("refused").value(o.refused);
    w.key("lost").value(o.lost);
    w.key("duplicates").value(o.duplicates);
    w.key("mismatches").value(o.mismatches);
    w.key("reconnects").value(o.reconnects);
    w.key("corrupt_files").value(o.corrupt_files);
    w.key("tmp_leftovers").value(o.tmp_leftovers);
    w.key("orphan_checkpoints").value(o.orphans);
    w.key("server_exit").value(o.server_exit);
    w.key("wall_ms").value(o.wall_ms);
    w.key("pass").value(o.pass());
    w.end_object();
  }
  w.end_array();
  w.key("pass").value(all_pass);
  w.end_object();

  std::ofstream out(out_path);
  out << w.str() << "\n";
  std::cout << "wrote " << out_path << " ("
            << (all_pass ? "all cells pass" : "FAILURES") << ")\n";
  return all_pass ? 0 : 1;
}

// --- soak grid --------------------------------------------------------------

/// Shed/reject/lifecycle counters scraped from one cluster-health snapshot;
/// phase numbers are deltas between consecutive snapshots.
struct ClusterCounters {
  std::int64_t sheds = 0;
  std::int64_t rejected = 0;
  std::int64_t hedges_won = 0;
  std::int64_t hedges_cancelled = 0;
  std::int64_t respawns = 0;
  std::int64_t quarantined = 0;
  std::int64_t live = 0;
  bool ok = false;
};

ClusterCounters read_cluster(int port) {
  ClusterCounters c;
  try {
    serve::Client client(port);
    const serve::Client::Response resp = client.health();
    if (resp.ok && resp.health) {
      if (const util::JsonValue* cl = resp.health->find("cluster")) {
        c.sheds = cl->get_int("sheds");
        c.rejected = cl->get_int("rejected");
        c.hedges_won = cl->get_int("hedges_won");
        c.hedges_cancelled = cl->get_int("hedges_cancelled");
        c.respawns = cl->get_int("respawns");
        c.quarantined = cl->get_int("quarantined_shards");
        c.live = cl->get_int("live_shards");
        c.ok = true;
      }
    }
  } catch (const Error&) {
    // Snapshot is best-effort; a failed probe leaves zeros.
  }
  return c;
}

/// One phase of a soak cell, after the fact.
struct PhaseOutcome {
  std::string name;
  int jobs = 0;
  int replied = 0;
  int refused = 0;
  double p50 = 0, p95 = 0, p99 = 0, max = 0;
  std::int64_t sheds = 0;     ///< delta over the phase
  std::int64_t rejected = 0;  ///< delta over the phase
};

/// One cell of the pattern x aggressiveness grid.
struct SoakOutcome {
  std::string pattern;
  std::string aggressiveness;
  int jobs = 0;
  int replied = 0;
  int refused = 0;
  int lost = 0;
  int duplicates = 0;
  int killed_shard = -1;
  bool rejoined = true;  ///< vacuously true when no shard was killed
  std::int64_t respawns = 0;
  std::int64_t quarantined = 0;
  std::int64_t hedges_won = 0;
  std::int64_t hedges_cancelled = 0;
  int server_exit = -1;
  double wall_ms = 0;
  std::vector<PhaseOutcome> phases;

  [[nodiscard]] bool pass() const {
    return lost == 0 && duplicates == 0 && rejoined && server_exit == 0 &&
           replied + refused == jobs;
  }
};

/// Runs one soak cell: spawn a self-healing server (respawn + CoDel armed),
/// drive warm/overload/recover phases with the pattern's connection split,
/// optionally SIGKILL a shard mid-overload, and require it back in the ring
/// before the cell passes.
SoakOutcome run_soak_cell(const std::string& serve_bin, const std::string& root,
                          workload::Pattern pattern, bool high, int shards,
                          int jobs, int conns, int kill_shard,
                          const std::vector<api::FlowRequestV1>& protos,
                          const std::vector<int>& proto_of_job,
                          double capacity_jps) {
  SoakOutcome out;
  out.pattern = workload::pattern_name(pattern);
  out.aggressiveness = high ? "high" : "low";
  out.jobs = jobs;
  out.killed_shard = kill_shard;

  const std::string cell_name =
      out.pattern + "-" + out.aggressiveness;
  const std::string journal_root = root + "/" + cell_name;
  util::fs::create_directories(journal_root);

  // Overload control + self-healing, all through the public knobs: a small
  // bounded queue with ShedOldest, CoDel tightening on sojourn times, and
  // the respawn lifecycle for the kill cells.
  const std::vector<std::pair<std::string, std::string>> env = {
      {"HLTS_SERVE_RESPAWN", "1"},
      {"HLTS_CODEL_TARGET_MS", "75"},
      {"HLTS_CODEL_INTERVAL_MS", "100"},
  };
  const std::vector<std::string> args = {"--queue-cap", "16", "--overload",
                                         "shed"};
  auto proc = spawn_server(serve_bin, journal_root, shards, "", env, args);
  if (!proc) return out;
  const int port = proc->port;

  // Phase plan: warm up below capacity, overload at the cell's
  // aggressiveness, then back off and watch the controller recover.
  struct PhaseSpec {
    const char* name;
    double rate_mult;
    double jobs_fraction;
  };
  const double overload_mult = high ? 2.0 : 0.75;
  const std::vector<PhaseSpec> plan = {
      {"warm", 0.5, 0.25},
      {"overload", overload_mult, 0.5},
      {"recover", 0.5, 0.25},
  };
  const int phases = static_cast<int>(plan.size());

  std::mutex tally_mutex;
  std::map<std::string, int> reply_names;
  int global_job = 0;

  serve::ClientOptions copts;
  copts.connect_timeout_ms = 5000;
  copts.read_timeout_ms = 120000;
  copts.write_timeout_ms = 5000;
  copts.retries = 10;

  ClusterCounters before = read_cluster(port);
  const auto t0 = Clock::now();
  int assigned_total = 0;
  for (int ph = 0; ph < phases; ++ph) {
    int phase_jobs = static_cast<int>(
        std::llround(plan[static_cast<std::size_t>(ph)].jobs_fraction *
                     static_cast<double>(jobs)));
    if (ph == phases - 1) phase_jobs = jobs - assigned_total;  // exact total
    assigned_total += phase_jobs;

    const std::vector<int> quotas =
        workload::apportion(pattern, conns, phases, ph, phase_jobs);
    const double phase_rate =
        plan[static_cast<std::size_t>(ph)].rate_mult * capacity_jps;

    std::vector<double> lat;
    lat.reserve(static_cast<std::size_t>(phase_jobs));
    int replied = 0, refused = 0, lost = 0;

    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(conns));
    int base_job = global_job;
    int offset = 0;
    std::vector<int> first_job(static_cast<std::size_t>(conns), 0);
    for (int c = 0; c < conns; ++c) {
      first_job[static_cast<std::size_t>(c)] = base_job + offset;
      offset += quotas[static_cast<std::size_t>(c)];
    }
    global_job += phase_jobs;

    for (int c = 0; c < conns; ++c) {
      const int quota = quotas[static_cast<std::size_t>(c)];
      if (quota == 0) continue;
      const double conn_rate =
          phase_jobs > 0 ? phase_rate * static_cast<double>(quota) /
                               static_cast<double>(phase_jobs)
                         : 0.0;
      const double interval_ms = conn_rate > 0 ? 1000.0 / conn_rate : 0.0;
      threads.emplace_back([&, c, quota, interval_ms,
                            first = first_job[static_cast<std::size_t>(c)]] {
        serve::RetryClient client(port, copts);
        const auto conn_t0 = Clock::now();
        for (int i = 0; i < quota; ++i) {
          // Open-loop pacing: send i no earlier than its schedule slot; a
          // backed-up server makes this degrade into closed-loop pressure,
          // which is the point of the overload phase.
          const auto slot =
              conn_t0 + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double, std::milli>(
                                interval_ms * static_cast<double>(i)));
          std::this_thread::sleep_until(slot);
          const int j = first + i;
          api::FlowRequestV1 req =
              protos[static_cast<std::size_t>(
                  proto_of_job[static_cast<std::size_t>(j)])];
          req.name = "soak-" + cell_name + "-" + std::to_string(j);
          const auto start = Clock::now();
          const serve::Client::Response resp = client.submit(req);
          const double ms = std::chrono::duration<double, std::milli>(
                                Clock::now() - start)
                                .count();
          std::lock_guard<std::mutex> lock(tally_mutex);
          lat.push_back(ms);
          if (resp.result && resp.result->state != "rejected") {
            ++replied;
            if (++reply_names[resp.result->name] > 1) {
              ++out.duplicates;
              std::cerr << "soak[" << cell_name << "]: duplicate reply for "
                        << resp.result->name << " (submitted " << req.name
                        << ")\n";
            }
          } else if (resp.result) {
            ++refused;  // shed/rejected by admission control: a real reply
          } else {
            ++lost;
            std::cerr << "soak[" << cell_name << "]: job " << j
                      << " lost: " << resp.error << "\n";
          }
        }
      });
    }

    // The kill lands mid-overload, while the queue is hot.
    std::thread killer;
    if (kill_shard >= 0 && ph == 1) {
      killer = std::thread([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        try {
          serve::Client chaos(port);
          if (!chaos.kill_shard(kill_shard)) {
            std::cerr << "soak[" << cell_name << "]: kill refused\n";
          }
        } catch (const Error& e) {
          std::cerr << "soak[" << cell_name << "]: kill: " << e.what() << "\n";
        }
      });
    }
    for (std::thread& t : threads) t.join();
    if (killer.joinable()) killer.join();

    const ClusterCounters after = read_cluster(port);
    PhaseOutcome po;
    po.name = plan[static_cast<std::size_t>(ph)].name;
    po.jobs = phase_jobs;
    po.replied = replied;
    po.refused = refused;
    std::sort(lat.begin(), lat.end());
    po.p50 = percentile(lat, 0.50);
    po.p95 = percentile(lat, 0.95);
    po.p99 = percentile(lat, 0.99);
    po.max = lat.empty() ? 0.0 : lat.back();
    po.sheds = after.sheds - before.sheds;
    po.rejected = after.rejected - before.rejected;
    before = after;
    out.replied += replied;
    out.refused += refused;
    out.lost += lost;
    out.phases.push_back(std::move(po));
    std::cout << "soak[" << cell_name << "]: phase " << out.phases.back().name
              << ": " << phase_jobs << " jobs, p50 " << out.phases.back().p50
              << " ms, p99 " << out.phases.back().p99 << " ms, sheds "
              << out.phases.back().sheds << "\n";
  }
  out.wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();

  // A killed shard must respawn, replay its journal and rejoin before the
  // cell can pass; poll the health view until the ring is whole again.
  if (kill_shard >= 0) {
    out.rejoined = false;
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    while (Clock::now() < deadline) {
      const ClusterCounters now = read_cluster(port);
      out.respawns = now.respawns;
      out.quarantined = now.quarantined;
      if (now.ok && now.live == shards && now.respawns >= 1) {
        out.rejoined = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  }
  const ClusterCounters final_counters = read_cluster(port);
  if (final_counters.ok) {
    out.respawns = final_counters.respawns;
    out.quarantined = final_counters.quarantined;
    out.hedges_won = final_counters.hedges_won;
    out.hedges_cancelled = final_counters.hedges_cancelled;
  }

  try {
    serve::Client tail(port);
    (void)tail.shutdown();
  } catch (const Error&) {
    // wait_server settles it either way.
  }
  out.server_exit = wait_server(*proc, 60000);
  return out;
}

int run_soak_grid(const std::string& serve_bin, const std::string& root,
                  int shards, int jobs, int conns, int kill_shard,
                  std::uint64_t seed, int gen_ops, const std::string& flow,
                  int bits, const std::string& pattern_filter,
                  const std::string& aggressiveness_filter,
                  const std::string& out_path) {
  // The job stream comes from the seeded generator: three shapes -- a plain
  // layered kernel, a loop-carried one, and one with a two-port memory
  // class -- all pure functions of the seed.
  workload::DfgShape plain;
  plain.ops = gen_ops;
  workload::DfgShape loopy = plain;
  loopy.loop_density = 0.15;
  loopy.self_loop_density = 0.5;
  workload::DfgShape memory = plain;
  memory.memories = 2;
  memory.memory_ports = 2;
  memory.memory_access_density = 0.3;

  const core::FlowKind kind = api::flow_from_token(flow);
  std::vector<api::FlowRequestV1> protos;
  int shape_idx = 0;
  for (const workload::DfgShape& shape : {plain, loopy, memory}) {
    api::FlowRequestV1 req;
    req.kind = kind;
    req.dfg = workload::generate(seed + static_cast<std::uint64_t>(shape_idx++),
                                 shape);
    req.params.bits = bits;
    req.params.num_threads = 1;  // the server's engines own the cores
    protos.push_back(std::move(req));
  }

  // The seed also fixes the job -> proto schedule, so a cell's exact
  // request sequence reproduces from the report alone.
  std::vector<int> proto_of_job(static_cast<std::size_t>(jobs));
  {
    Rng schedule_rng(seed);
    for (int j = 0; j < jobs; ++j) {
      proto_of_job[static_cast<std::size_t>(j)] = static_cast<int>(
          schedule_rng.next_below(protos.size()));
    }
  }

  // Calibrate capacity: time the protos synchronously in-process, then
  // scale by the shard count.  Rough is fine -- the aggressiveness
  // multipliers only need "below capacity" and "about 2x" to mean what
  // they say.
  double mean_ms = 0;
  {
    const auto t0 = Clock::now();
    for (const api::FlowRequestV1& req : protos) {
      (void)core::run_flow(req.kind, *req.dfg, req.params);
    }
    mean_ms = std::chrono::duration<double, std::milli>(Clock::now() - t0)
                  .count() /
              static_cast<double>(protos.size());
  }
  const double capacity_jps =
      mean_ms > 0 ? static_cast<double>(shards) * 1000.0 / mean_ms : 100.0;
  std::cout << "soak-grid: calibrated " << mean_ms << " ms/job, capacity ~"
            << capacity_jps << " jobs/s over " << shards << " shards\n";

  std::vector<SoakOutcome> outcomes;
  for (const workload::Pattern p : workload::all_patterns()) {
    if (!pattern_filter.empty() &&
        pattern_filter != workload::pattern_name(p)) {
      continue;
    }
    for (const bool high : {false, true}) {
      const std::string aggr = high ? "high" : "low";
      if (!aggressiveness_filter.empty() && aggressiveness_filter != aggr) {
        continue;
      }
      std::cout << "soak-grid: cell " << workload::pattern_name(p) << "/"
                << aggr << " (" << jobs << " jobs)...\n";
      outcomes.push_back(run_soak_cell(serve_bin, root, p, high, shards, jobs,
                                       conns, kill_shard, protos, proto_of_job,
                                       capacity_jps));
      const SoakOutcome& o = outcomes.back();
      std::cout << "soak-grid: cell " << o.pattern << "/" << o.aggressiveness
                << ": replied " << o.replied << ", refused " << o.refused
                << ", lost " << o.lost << ", duplicates " << o.duplicates
                << ", respawns " << o.respawns << ", rejoined "
                << (o.rejoined ? "yes" : "NO") << ", server_exit "
                << o.server_exit << (o.pass() ? " [pass]" : " [FAIL]")
                << "\n";
    }
  }
  if (outcomes.empty()) {
    std::cerr << "soak-grid: filters matched no cells\n";
    return 1;
  }

  util::JsonWriter w;
  w.begin_object();
  w.key("bench").value("serving");
  w.key("mode").value("soak_grid");
  w.key("seed").value(static_cast<std::int64_t>(seed));
  w.key("gen_ops").value(gen_ops);
  w.key("flow").value(flow);
  w.key("jobs_per_cell").value(jobs);
  w.key("conns").value(conns);
  w.key("shards").value(shards);
  w.key("calibrated_job_ms").value(mean_ms);
  w.key("capacity_jobs_per_s").value(capacity_jps);
  w.key("soak_grid").begin_array();
  bool all_pass = true;
  for (const SoakOutcome& o : outcomes) {
    all_pass = all_pass && o.pass();
    w.begin_object();
    w.key("pattern").value(o.pattern);
    w.key("aggressiveness").value(o.aggressiveness);
    w.key("jobs").value(o.jobs);
    w.key("replied").value(o.replied);
    w.key("refused").value(o.refused);
    w.key("lost").value(o.lost);
    w.key("duplicates").value(o.duplicates);
    if (o.killed_shard >= 0) w.key("killed_shard").value(o.killed_shard);
    w.key("rejoined").value(o.rejoined);
    w.key("respawns").value(o.respawns);
    w.key("quarantined_shards").value(o.quarantined);
    w.key("hedges_won").value(o.hedges_won);
    w.key("hedges_cancelled").value(o.hedges_cancelled);
    w.key("server_exit").value(o.server_exit);
    w.key("wall_ms").value(o.wall_ms);
    w.key("phases").begin_array();
    for (const PhaseOutcome& ph : o.phases) {
      w.begin_object();
      w.key("phase").value(ph.name);
      w.key("jobs").value(ph.jobs);
      w.key("replied").value(ph.replied);
      w.key("refused").value(ph.refused);
      w.key("p50").value(ph.p50);
      w.key("p95").value(ph.p95);
      w.key("p99").value(ph.p99);
      w.key("max").value(ph.max);
      w.key("sheds").value(ph.sheds);
      w.key("rejected").value(ph.rejected);
      w.end_object();
    }
    w.end_array();
    w.key("pass").value(o.pass());
    w.end_object();
  }
  w.end_array();
  w.key("pass").value(all_pass);
  w.end_object();

  std::ofstream out(out_path);
  out << w.str() << "\n";
  std::cout << "wrote " << out_path << " ("
            << (all_pass ? "all cells pass" : "FAILURES") << ")\n";
  return all_pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  int port = -1;
  int jobs = -1;  // default: 64 load mode, 24 per cell in grid mode
  int conns = 4;
  int bits = 8;
  std::string bench = "mix";
  std::string flow = "ours";
  int kill_shard = -1;
  int kill_after_ms = 0;
  bool shutdown_after = false;
  bool chaos_grid = false;
  bool soak_grid = false;
  std::uint64_t seed = 1;
  int gen_ops = 40;
  int soak_shards = 3;
  std::string pattern_filter;
  std::string aggressiveness_filter;
  std::string serve_bin;
  std::string root = "chaos-grid";
  std::string out_path = "BENCH_serving.json";
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> std::string {
        if (i + 1 >= argc) throw Error(arg + " needs a value", ErrorKind::Input);
        return argv[++i];
      };
      if (arg == "--port") port = std::stoi(next());
      else if (arg == "--jobs") jobs = std::stoi(next());
      else if (arg == "--conns") conns = std::stoi(next());
      else if (arg == "--bits") bits = std::stoi(next());
      else if (arg == "--bench") bench = next();
      else if (arg == "--flow") flow = next();
      else if (arg == "--kill-shard") kill_shard = std::stoi(next());
      else if (arg == "--kill-after-ms") kill_after_ms = std::stoi(next());
      else if (arg == "--shutdown") shutdown_after = true;
      else if (arg == "--chaos-grid") chaos_grid = true;
      else if (arg == "--soak-grid") soak_grid = true;
      else if (arg == "--seed") seed = std::stoull(next());
      else if (arg == "--gen-ops") gen_ops = std::stoi(next());
      else if (arg == "--shards") soak_shards = std::stoi(next());
      else if (arg == "--pattern") pattern_filter = next();
      else if (arg == "--aggressiveness") aggressiveness_filter = next();
      else if (arg == "--serve-bin") serve_bin = next();
      else if (arg == "--root") root = next();
      else if (arg == "--out") out_path = next();
      else return usage(argv[0]);
    }
    if (jobs < 0) jobs = chaos_grid ? 24 : (soak_grid ? 48 : 64);
    if (chaos_grid || soak_grid) {
      if (serve_bin.empty() || jobs < 1 || conns < 1) return usage(argv[0]);
    } else if (port < 0 || jobs < 1 || conns < 1) {
      return usage(argv[0]);
    }
    if (soak_grid) {
      // Validate the filters up front so a typo fails loudly, not as an
      // empty grid.
      if (!pattern_filter.empty()) {
        (void)workload::pattern_from_token(pattern_filter);
      }
      if (!aggressiveness_filter.empty() && aggressiveness_filter != "low" &&
          aggressiveness_filter != "high") {
        throw Error("--aggressiveness must be low or high", ErrorKind::Input);
      }
      if (root == "chaos-grid") root = "soak-grid";
      return run_soak_grid(serve_bin, root, soak_shards, jobs, conns,
                           kill_shard, seed, gen_ops, flow, bits,
                           pattern_filter, aggressiveness_filter, out_path);
    }

    const std::vector<std::string> mix =
        bench == "mix" ? benchmarks::benchmark_names()
                       : std::vector<std::string>{bench};
    const core::FlowKind kind = api::flow_from_token(flow);

    // Pre-serialize one request document per benchmark in the mix; each
    // submitted job clones it under a unique name.
    std::vector<api::FlowRequestV1> protos;
    for (const std::string& b : mix) {
      api::FlowRequestV1 req;
      req.kind = kind;
      req.dfg = benchmarks::make_benchmark(b);
      req.params.bits = bits;
      req.params.num_threads = 1;  // the server's engines own the cores
      protos.push_back(std::move(req));
    }

    if (chaos_grid) {
      return run_chaos_grid(serve_bin, root, jobs, conns, protos, out_path);
    }

    std::atomic<int> next_job{0};
    std::mutex samples_mutex;
    std::vector<Sample> samples;
    samples.reserve(static_cast<std::size_t>(jobs));

    const auto t0 = Clock::now();
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(conns));
    for (int c = 0; c < conns; ++c) {
      threads.emplace_back([&, c] {
        try {
          serve::Client client(port);
          while (true) {
            const int j = next_job.fetch_add(1);
            if (j >= jobs) break;
            api::FlowRequestV1 req = protos[static_cast<std::size_t>(j) % protos.size()];
            req.name = "load-" + std::to_string(j) + "-" +
                       mix[static_cast<std::size_t>(j) % mix.size()];
            const auto start = Clock::now();
            const serve::Client::Response resp = client.submit(req);
            const double ms =
                std::chrono::duration<double, std::milli>(Clock::now() - start)
                    .count();
            Sample s;
            s.latency_ms = ms;
            s.state = resp.ok && resp.result ? resp.result->state : "error";
            std::lock_guard<std::mutex> lock(samples_mutex);
            samples.push_back(std::move(s));
          }
        } catch (const Error& e) {
          std::cerr << "conn " << c << ": " << e.what() << "\n";
        }
      });
    }

    // The chaos hook: kill one shard while the fleet is under load.
    std::thread killer;
    if (kill_shard >= 0) {
      killer = std::thread([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(kill_after_ms));
        try {
          serve::Client chaos(port);
          if (!chaos.kill_shard(kill_shard)) {
            std::cerr << "kill-shard " << kill_shard << " refused\n";
          }
        } catch (const Error& e) {
          std::cerr << "kill-shard: " << e.what() << "\n";
        }
      });
    }

    for (std::thread& t : threads) t.join();
    if (killer.joinable()) killer.join();
    const double wall_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();

    serve::Client tail(port);
    const serve::Client::Response health = tail.health();
    if (shutdown_after && !tail.shutdown()) {
      std::cerr << "shutdown not acknowledged\n";
    }

    std::vector<double> lat;
    std::map<std::string, int> states;
    lat.reserve(samples.size());
    for (const Sample& s : samples) {
      lat.push_back(s.latency_ms);
      ++states[s.state];
    }
    std::sort(lat.begin(), lat.end());
    double sum = 0;
    for (const double v : lat) sum += v;

    util::JsonWriter w;
    w.begin_object();
    w.key("bench").value("serving");
    w.key("jobs").value(jobs);
    w.key("conns").value(conns);
    w.key("flow").value(flow);
    w.key("mix").begin_array();
    for (const std::string& b : mix) w.value(b);
    w.end_array();
    w.key("completed").value(static_cast<std::int64_t>(samples.size()));
    w.key("wall_ms").value(wall_ms);
    w.key("throughput_jobs_per_s")
        .value(wall_ms > 0 ? 1000.0 * static_cast<double>(samples.size()) / wall_ms
                           : 0.0);
    w.key("latency_ms").begin_object();
    w.key("p50").value(percentile(lat, 0.50));
    w.key("p95").value(percentile(lat, 0.95));
    w.key("p99").value(percentile(lat, 0.99));
    w.key("mean").value(lat.empty() ? 0.0 : sum / static_cast<double>(lat.size()));
    w.key("max").value(lat.empty() ? 0.0 : lat.back());
    w.end_object();
    w.key("states").begin_object();
    for (const auto& [state, count] : states) w.key(state).value(count);
    w.end_object();
    if (kill_shard >= 0) {
      w.key("killed_shard").value(kill_shard);
      w.key("kill_after_ms").value(kill_after_ms);
    }
    w.key("cluster_health");
    if (health.ok && health.health) {
      w.raw_value(util::json_dump(*health.health));
    } else {
      w.null_value();
    }
    w.end_object();

    std::ofstream out(out_path);
    out << w.str() << "\n";
    std::cout << "wrote " << out_path << " (" << samples.size() << "/" << jobs
              << " responses, p50 " << percentile(lat, 0.50) << " ms)\n";
    const int errors = states.count("error") != 0 ? states.at("error") : 0;
    return samples.size() == static_cast<std::size_t>(jobs) && errors == 0 ? 0
                                                                           : 1;
  } catch (const Error& e) {
    std::cerr << "hlts_load: " << e.what() << "\n";
    return 1;
  }
}
