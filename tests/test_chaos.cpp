// Chaos-harness tests (`ctest -L chaos`): the util/inject registry (one
// spec grammar and one deterministic probability stream for the failpoint,
// io and net families, pinned by a golden replay), disk-fault
// injection through util/fs (short writes, ENOSPC, EIO -- and that the
// journal's atomic-commit protocol turns them into clean refusals, never
// corruption), socket timeouts against real sockets, and the idempotent
// retry protocol end to end: a RetryClient against a live forked-worker
// supervisor, where a retried flow_token is answered exactly once with
// the original bit-identical reply.
//
// Fault configuration (util/inject) is process-global; ctest runs
// each test in its own process, and every test clears what it armed.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "api/api.hpp"
#include "benchmarks/benchmarks.hpp"
#include "core/flows.hpp"
#include "engine/engine.hpp"
#include "serve/client.hpp"
#include "serve/supervisor.hpp"
#include "util/crc32c.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/inject.hpp"
#include "util/json.hpp"
#include "util/socket.hpp"

namespace hlts {
namespace {

namespace inj = util::inject;
constexpr inj::Family kFp = inj::Family::Failpoint;
constexpr inj::Family kIo = inj::Family::Io;
constexpr inj::Family kNet = inj::Family::Net;

/// Fresh scratch tree under TMPDIR, recursively removed on scope exit.
struct TempRoot {
  std::string path;
  TempRoot() {
    const char* base = std::getenv("TMPDIR");
    std::string tmpl =
        std::string(base != nullptr ? base : "/tmp") + "/hlts_chaos_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    char* made = mkdtemp(buf.data());
    EXPECT_NE(made, nullptr);
    path = made != nullptr ? made : tmpl;
  }
  ~TempRoot() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

/// Disarms every injection family on scope exit.
struct FaultGuard {
  ~FaultGuard() {
    for (const inj::Family family : {kFp, kIo, kNet}) inj::clear(family);
  }
};

// ---------------------------------------------------------------------------
// CRC32C: the checksum under the journal's v3 framing.

TEST(Crc32c, MatchesKnownVectors) {
  // RFC 3720 appendix B.4 test vector: 32 zero bytes.
  EXPECT_EQ(util::crc32c(std::string(32, '\0')), 0x8A9136AAu);
  // "123456789", the classic check value for Castagnoli.
  EXPECT_EQ(util::crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(util::crc32c(""), 0x00000000u);
  EXPECT_EQ(util::crc32c_hex(0xE3069283u), "e3069283");
  EXPECT_EQ(util::crc32c_hex(0x1u), "00000001");
}

TEST(Crc32c, AnySingleByteChangeChangesTheSum) {
  const std::string base = "{\"id\":7,\"name\":\"ex/ours\",\"version\":3}";
  const std::uint32_t sum = util::crc32c(base);
  for (std::size_t i = 0; i < base.size(); ++i) {
    std::string mutated = base;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x20);
    EXPECT_NE(util::crc32c(mutated), sum) << "byte " << i;
  }
}

// ---------------------------------------------------------------------------
// The injection registry: one grammar, one stream, three families.

/// One spec of a list the grammar accepts, with the fields it must parse to.
struct ParsedCase {
  inj::Family family;
  const char* list;
  std::size_t count;  ///< specs in the list
  std::size_t index;  ///< the spec checked below
  std::string_view site;
  inj::Mode mode;
  double probability;
  std::uint64_t seed;
  std::int64_t param;
};

const ParsedCase kParsedCases[] = {
    {kFp, "sched.reschedule:error:0.25:42,engine.worker:delay:1:0:20", 2, 0,
     "sched.reschedule", inj::Mode::Error, 0.25, 42, 0},
    {kFp, "sched.reschedule:error:0.25:42,engine.worker:delay:1:0:20", 2, 1,
     "engine.worker", inj::Mode::Delay, 1, 0, 20},
    {kFp, "pool.task:delay:1:0", 1, 0, "pool.task", inj::Mode::Delay, 1, 0,
     50},  // delay default: 50 ms
    {kFp, "journal.write:kill:0.5:3", 1, 0, "journal.write", inj::Mode::Kill,
     0.5, 3, 0},
    {kFp, "analysis.commit:badalloc:1:0:1", 1, 0, "analysis.commit",
     inj::Mode::BadAlloc, 1, 0, 1},
    {kIo, "write:short:0.5:7", 1, 0, "write", inj::Mode::Short, 0.5, 7, 0},
    {kIo, "open:eio:0.1:1,write:enospc:1:2:3,fsync:eio:0.25:4,rename:eio:0:5",
     4, 1, "write", inj::Mode::Enospc, 1, 2, 3},
    {kIo, "open:eio:0.1:1,write:enospc:1:2:3,fsync:eio:0.25:4,rename:eio:0:5",
     4, 3, "rename", inj::Mode::Eio, 0, 5, 0},
    {kIo, "fsync:eio:1e-1:+5", 1, 0, "fsync", inj::Mode::Eio, 0.1, 5, 0},
    {kNet, "read:truncate:1:0,read:stall:1:1", 2, 0, "read",
     inj::Mode::Truncate, 1, 0, 1},  // truncate default: 1 byte
    {kNet, "read:truncate:1:0,read:stall:1:1", 2, 1, "read", inj::Mode::Stall,
     1, 1, 50},  // stall default: 50 ms
    {kNet, "write:truncate:0.5:9:3", 1, 0, "write", inj::Mode::Truncate, 0.5,
     9, 3},
    {kNet, "connect:reset:0.34:5", 1, 0, "connect", inj::Mode::Reset, 0.34, 5,
     0},
};

/// A spec the grammar refuses, and a fragment its error must contain.
struct RejectedCase {
  inj::Family family;
  const char* list;
  const char* error_part;
};

const RejectedCase kRejectedCases[] = {
    {kFp, "no.such.site:error:1:0", "unknown site 'no.such.site'"},
    {kFp, "sched.reschedule:explode:1:0", "unknown mode 'explode'"},
    {kFp, "sched.reschedule:error:1.5:0", "probability"},
    {kFp, "pool.task:error:1", "expected site:mode"},
    {kFp, "pool.task:error:1:0:1:2", "expected site:mode"},
    {kFp, "pool.task:error:1:0,", "expected site:mode"},  // empty spec
    {kFp, "pool.task:error:x:0", "malformed number"},
    {kFp, "pool.task:delay:1:0:-5", "param must be >= 0"},
    {kIo, "chmod:eio:1:0", "unknown op 'chmod'"},
    {kIo, "write:melt:1:0", "unknown mode 'melt'"},
    {kIo, "fsync:short:1:0", "applies to op write only"},
    {kIo, "write:eio:1.5:0", "probability"},
    {kIo, "write:eio:1:0:-2", "param must be >= 0"},
    {kIo, "write:eio", "expected op:mode"},
    {kIo, "write:eio:1:7x", "malformed number"},
    {kNet, "connect:truncate:1:0", "applies to op read|write only"},
    {kNet, "accept:reset:1:0", "unknown op 'accept'"},
    {kNet, "read:stall:-0.1:0", "probability"},
    {kNet, "read:stall:1:0:50ms", "malformed number"},
    // Modes belong to one family each.
    {kFp, "pool.task:eio:1:0", "unknown mode 'eio'"},
    {kNet, "read:kill:1:0", "unknown mode 'kill'"},
};

/// The non-finite and signed numbers that pass a plain range check.
TEST(Inject, NonFiniteProbabilityAndSignedSeedAreRefused) {
  const FaultGuard guard;
  const std::pair<inj::Family, std::string> prefixes[] = {
      {kFp, "pool.task:error:"}, {kIo, "write:eio:"}, {kNet, "read:reset:"}};
  for (const auto& [family, prefix] : prefixes) {
    for (const char* tail :
         {"nan:0", "-nan:0", "NAN:0", "nan(1):0", "inf:0", "-inf:0",
          "1:-1", "1: -1", "0.5:-0"}) {
      const std::string spec = prefix + tail;
      SCOPED_TRACE(spec);
      std::string error;
      EXPECT_FALSE(inj::configure(family, spec, &error));
      EXPECT_NE(error.find(spec), std::string::npos) << error;
      EXPECT_FALSE(inj::armed(family));
    }
  }
}

/// Runs every accept and reject row of `family` through the grammar.  A
/// refused spec fails fast, names itself, and leaves the family's previous
/// configuration in place.
void expect_grammar(inj::Family family) {
  const FaultGuard guard;
  std::string error;
  for (const ParsedCase& c : kParsedCases) {
    if (c.family != family) continue;
    SCOPED_TRACE(c.list);
    ASSERT_TRUE(inj::configure(c.family, c.list, &error)) << error;
    EXPECT_TRUE(inj::armed(c.family));
    const std::vector<inj::Spec> specs = inj::active(c.family);
    ASSERT_EQ(specs.size(), c.count);
    const inj::Spec& s = specs[c.index];
    EXPECT_EQ(s.family, c.family);
    EXPECT_EQ(inj::kFamilies[static_cast<std::size_t>(c.family)].sites[s.site],
              c.site);
    EXPECT_EQ(s.mode, c.mode);
    EXPECT_EQ(s.probability, c.probability);
    EXPECT_EQ(s.seed, c.seed);
    EXPECT_EQ(s.param, c.param);
  }
  const char* const kBaseline[inj::kFamilyCount] = {
      "pool.task:error:1:0", "write:eio:1:0", "read:reset:1:0"};
  for (const RejectedCase& c : kRejectedCases) {
    if (c.family != family) continue;
    SCOPED_TRACE(c.list);
    ASSERT_TRUE(inj::configure(
        c.family, kBaseline[static_cast<std::size_t>(c.family)], &error));
    EXPECT_FALSE(inj::configure(c.family, c.list, &error));
    EXPECT_NE(error.find(c.error_part), std::string::npos) << error;
    EXPECT_EQ(inj::active(c.family).size(), 1u);
  }
  EXPECT_TRUE(inj::configure(family, "", &error));
  EXPECT_FALSE(inj::armed(family));
}

// One grammar test per family, under the family's own suite name.
TEST(Failpoints, ConfigureParsesAndRejects) { expect_grammar(kFp); }
TEST(IoFaults, ParsesAndRejectsSpecs) { expect_grammar(kIo); }
TEST(NetChaos, ParsesDefaultsAndRejections) { expect_grammar(kNet); }

TEST(Inject, FamiliesArmAndClearIndependently) {
  const FaultGuard guard;
  ASSERT_TRUE(inj::configure(kIo, "write:eio:1:0"));
  ASSERT_TRUE(inj::configure(kNet, "write:reset:1:0"));
  EXPECT_FALSE(inj::armed(kFp));
  // Same site name, different families: each consult sees its own specs.
  EXPECT_EQ(inj::consult(kIo, inj::io::kWrite)->mode, inj::Mode::Eio);
  EXPECT_EQ(inj::consult(kNet, inj::net::kWrite)->mode, inj::Mode::Reset);
  inj::clear(kIo);
  EXPECT_FALSE(inj::armed(kIo));
  EXPECT_TRUE(inj::armed(kNet));
  ASSERT_EQ(inj::stats(kNet).size(), 1u);
  EXPECT_EQ(inj::stats(kNet)[0].hits, 1);
}

/// FNV-1a over the per-call (fired, mode, param) record of a fixed consult
/// sequence, plus the final per-spec stats.
struct GoldenCase {
  inj::Family family;
  const char* list;
  /// Call i consults sites[(7i + i/5) % n].
  std::vector<std::string_view> sites;
  std::uint64_t hash;
  int fired;
  std::vector<std::pair<std::int64_t, std::int64_t>> stats;  ///< hits, triggers
};

// The spec lists cover every mode, every ParamKind (caps, the k-th trigger,
// ms/byte values) and every default param.  The expected constants were
// captured by running the same call sequence against the three per-family
// modules this registry replaced (for failpoints, observing which action
// each hit took); they pin the draw stream and the trigger bookkeeping of
// each family.
TEST(Inject, GoldenReplayMatchesTheFormerPerFamilyModules) {
  const FaultGuard guard;
  const std::vector<GoldenCase> cases = {
      {kFp,
       "sched.reschedule:error:0.5:11:3,sched.reschedule:badalloc:0.5:12,"
       "alloc.merge:badalloc:0.3:13:2,engine.worker:delay:0.3:14:1,"
       "pool.task:delay:0.05:15,journal.write:kill:0.5:16:3,"
       "journal.commit:kill:0.4:17,journal.commit:error:0.5:18:0,"
       "journal.done:error:1:19:2,atpg.fault_sim:error:0:20,"
       "journal.checkpoint:kill:0.7:21:4,journal.checkpoint:delay:1:22:1",
       {"frontend.parse", "sched.reschedule", "alloc.merge", "atpg.fault_sim",
        "engine.worker", "pool.task", "journal.write", "journal.commit",
        "journal.checkpoint", "journal.done"},
       0xc1ed1fb0ce4e9989ULL,
       134,
       {{32, 3}, {29, 15}, {48, 2}, {48, 16}, {32, 1}, {48, 27},
        {32, 13}, {19, 9}, {32, 2}, {32, 0}, {48, 35}, {16, 16}}},
      {kIo,
       "write:short:0.4:31:3,write:eio:0.3:32,open:enospc:0.2:33:0,"
       "fsync:eio:0.5:34:2,fsync:enospc:0.5:35,rename:eio:1:36:1,"
       "rename:enospc:0:37",
       {"open", "write", "fsync", "rename"},
       0x5e5fcdf3a51db888ULL,
       81,
       {{80, 3}, {77, 21}, {160, 24}, {80, 2}, {78, 30}, {80, 1}, {79, 0}}},
      {kNet,
       "connect:reset:0.5:41:2,connect:stall:0.3:42:7,read:truncate:0.3:43,"
       "read:stall:0.2:44,read:reset:0.4:45,write:truncate:0.5:46:9,"
       "write:reset:1:47:0",
       {"connect", "read", "write"},
       0xce285573b0e8a855ULL,
       243,
       {{160, 2}, {158, 54}, {160, 55}, {105, 20}, {85, 32}, {80, 45},
        {35, 35}}},
  };
  for (const GoldenCase& c : cases) {
    SCOPED_TRACE(c.list);
    ASSERT_TRUE(inj::configure(c.family, c.list));
    const inj::FamilyRow& row =
        inj::kFamilies[static_cast<std::size_t>(c.family)];
    const auto& table = row.sites;
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    int fired = 0;
    for (int i = 0; i < 400; ++i) {
      const std::string_view name = c.sites[(i * 7 + i / 5) % c.sites.size()];
      const auto site = std::find(table.begin(), table.end(), name);
      ASSERT_NE(site, table.end()) << name;
      const std::optional<inj::Injected> f = inj::consult(
          c.family, static_cast<std::size_t>(site - table.begin()));
      std::string record = "0;";
      if (f) {
        const auto mode = std::find_if(
            row.modes.begin(), row.modes.end(),
            [&](const inj::ModeRow& m) { return m.mode == f->mode; });
        ASSERT_NE(mode, row.modes.end());
        record = "1," + std::string(mode->name) + "," +
                 std::to_string(f->param) + ";";
      }
      for (const unsigned char ch : record) {
        hash ^= ch;
        hash *= 0x100000001b3ULL;
      }
      fired += f ? 1 : 0;
    }
    EXPECT_EQ(hash, c.hash);
    EXPECT_EQ(fired, c.fired);
    const std::vector<inj::SiteStats> stats = inj::stats(c.family);
    ASSERT_EQ(stats.size(), c.stats.size());
    for (std::size_t k = 0; k < stats.size(); ++k) {
      EXPECT_EQ(stats[k].hits, c.stats[k].first) << k;
      EXPECT_EQ(stats[k].triggers, c.stats[k].second) << k;
    }
    inj::clear(c.family);
  }
}

TEST(IoFaults, ProbabilityStreamIsDeterministic) {
  const FaultGuard guard;
  auto draw_sequence = [](const char* spec) {
    std::vector<bool> fired;
    EXPECT_TRUE(inj::configure(kIo, spec));
    for (int i = 0; i < 64; ++i) {
      fired.push_back(inj::consult(kIo, inj::io::kWrite).has_value());
    }
    return fired;
  };
  const std::vector<bool> first = draw_sequence("write:eio:0.5:42");
  const std::vector<bool> second = draw_sequence("write:eio:0.5:42");
  EXPECT_EQ(first, second);
  // ~half fire at p=0.5; the exact count is pinned by the seed.
  int fired = 0;
  for (const bool b : first) fired += b ? 1 : 0;
  EXPECT_GT(fired, 16);
  EXPECT_LT(fired, 48);
  // A different seed gives a different stream.
  EXPECT_NE(first, draw_sequence("write:eio:0.5:43"));
}

// ---------------------------------------------------------------------------
// Disk-fault injection through util/fs.

TEST(IoFaults, ShortWriteLeavesTornTempNeverTheFinalFile) {
  const FaultGuard guard;
  const TempRoot root;
  const std::string path = root.path + "/victim.json";
  const std::string content(4096, 'x');
  ASSERT_TRUE(inj::configure(kIo, "write:short:1:0:1"));  // exactly one trigger
  try {
    util::fs::write_file_atomic(path, content);
    FAIL() << "short write did not surface";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Transient);
    EXPECT_NE(std::string(e.what()).find("injected fault"),
              std::string::npos);
  }
  // The torn bytes are only ever in the temp file; the destination name
  // either does not exist or is complete.
  EXPECT_FALSE(util::fs::file_exists(path));
  EXPECT_TRUE(util::fs::file_exists(path + ".tmp"));

  // Trigger budget spent: the retry commits and repairs the temp debris.
  util::fs::write_file_atomic(path, content);
  EXPECT_EQ(util::fs::read_file(path), content);
}

TEST(IoFaults, EnospcIsNamedDistinctlyAndEioIsNot) {
  const FaultGuard guard;
  const TempRoot root;
  ASSERT_TRUE(inj::configure(kIo, "fsync:enospc:1:0:1"));
  try {
    util::fs::write_file_atomic(root.path + "/full.json", "{}");
    FAIL() << "enospc did not surface";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("disk full: ENOSPC"),
              std::string::npos)
        << e.what();
  }
  ASSERT_TRUE(inj::configure(kIo, "rename:eio:1:0:1"));
  try {
    util::fs::write_file_atomic(root.path + "/sick.json", "{}");
    FAIL() << "eio did not surface";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()).find("disk full"), std::string::npos);
  }
}

TEST(IoFaults, JournalUnderDiskFaultsRefusesButNeverCorrupts) {
  const FaultGuard guard;
  const TempRoot root;
  // Heavy mixed faults: many writes tear, fsyncs and renames fail.  The
  // engine may refuse submissions (write-ahead record failed) or absorb
  // checkpoint failures as journal lag, but every file that *commits*
  // must verify, and results must stay bit-identical.
  ASSERT_TRUE(inj::configure(
      kIo, "write:short:0.3:7,fsync:eio:0.2:11,rename:enospc:0.1:13"));
  int refused = 0;
  int succeeded = 0;
  core::FlowParams params;
  params.num_threads = 1;
  const core::FlowResult reference = core::run_flow(
      core::FlowKind::Ours, benchmarks::make_benchmark("ex"), params);
  {
    engine::Engine eng({.max_concurrent_jobs = 1,
                        .max_retries = 0,
                        .journal_dir = root.path,
                        .checkpoint_every = 1});
    for (int i = 0; i < 12; ++i) {
      engine::FlowRequest r;
      r.name = "chaos-" + std::to_string(i);
      r.kind = core::FlowKind::Ours;
      r.dfg = benchmarks::make_benchmark("ex");
      r.params = params;
      try {
        const engine::JobPtr job = eng.submit(std::move(r));
        job->wait();
        if (job->state() == engine::JobState::Succeeded) {
          ++succeeded;
          EXPECT_EQ(job->result()->exec_time, reference.exec_time);
          EXPECT_EQ(job->result()->registers, reference.registers);
        }
      } catch (const Error&) {
        ++refused;  // admission refused: the write-ahead record failed
      }
    }
  }
  inj::clear(kIo);
  EXPECT_GT(succeeded, 0);
  EXPECT_GT(refused, 0) << "faults never fired; the test is vacuous";
  const engine::Journal::ScrubReport report = engine::Engine::scrub(
      root.path);
  EXPECT_EQ(report.corrupt, 0) << "a committed journal file failed its CRC";
}

// ---------------------------------------------------------------------------
// Socket timeouts and wire-level chaos.

TEST(SocketTimeout, ReadTimesOutAgainstASilentPeer) {
  util::net::Listener listener(0);
  std::thread accepter([&] {
    const util::net::Fd peer = listener.accept();
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
  });
  util::net::Fd fd = util::net::connect_local(listener.port());
  util::net::LineReader reader(fd.get(), 1024);
  reader.set_read_timeout_ms(50);
  try {
    (void)reader.read_line();
    FAIL() << "silent peer did not time out";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Transient);
    EXPECT_NE(std::string(e.what()).find("timeout"), std::string::npos);
  }
  accepter.join();
}

TEST(SocketTimeout, ConnectToDeadPortFailsFast) {
  // Bind-then-close: the port was just proven free, so connect must fail
  // (refused) rather than hang, with the timeout machinery engaged.
  int dead_port = 0;
  {
    util::net::Listener probe(0);
    dead_port = probe.port();
    probe.close_now();
  }
  EXPECT_THROW((void)util::net::connect_local(dead_port, 2000), Error);
}

TEST(NetChaos, InjectedResetSurfacesAsTransportError) {
  const FaultGuard guard;
  util::net::Listener listener(0);
  std::thread accepter([&] { (void)listener.accept(); });
  ASSERT_TRUE(inj::configure(kNet, "write:reset:1:0:1"));
  util::net::Fd fd = util::net::connect_local(listener.port(), 0,
                                              /*chaos=*/true);
  EXPECT_THROW(util::net::write_all(fd.get(), "hello\n", /*chaos=*/true),
               Error);
  accepter.join();
}

TEST(NetChaos, TruncatedReadEndsTheStreamMidLine) {
  const FaultGuard guard;
  util::net::Listener listener(0);
  std::thread sender([&] {
    const util::net::Fd peer = listener.accept();
    util::net::write_all(peer.get(), "a-full-response-line\n");
  });
  util::net::Fd fd = util::net::connect_local(listener.port());
  util::net::LineReader reader(fd.get(), 1024);
  reader.enable_chaos();
  ASSERT_TRUE(inj::configure(kNet, "read:truncate:1:0:3"));
  // Three bytes arrive, then the injected EOF: no complete line.
  EXPECT_EQ(reader.read_line(), std::nullopt);
  sender.join();
}

// ---------------------------------------------------------------------------
// Idempotent retry against a live supervisor.

core::FlowParams paper_params() {
  core::FlowParams p;
  p.k = 5;
  p.alpha = 2;
  p.beta = 1;
  p.num_threads = 1;
  return p;
}

api::FlowRequestV1 make_request(const std::string& name,
                                const std::string& bench) {
  api::FlowRequestV1 req;
  req.name = name;
  req.kind = core::FlowKind::Ours;
  req.dfg = benchmarks::make_benchmark(bench);
  req.params = paper_params();
  return req;
}

class ChaosServeFixture : public ::testing::Test {
 protected:
  /// Must run before any other thread exists (the ctor forks workers).
  serve::Server& make_server(int shards) {
    serve::ServerOptions opts;
    opts.shards = shards;
    opts.port = 0;
    opts.journal_root = root_.path;
    server_ = std::make_unique<serve::Server>(std::move(opts));
    runner_ = std::thread([s = server_.get()] { s->run(); });
    return *server_;
  }

  void TearDown() override {
    if (server_ != nullptr) server_->stop();
    if (runner_.joinable()) runner_.join();
    server_.reset();
  }

  TempRoot root_;
  std::unique_ptr<serve::Server> server_;
  std::thread runner_;
};

TEST_F(ChaosServeFixture, SameFlowTokenIsAnsweredOnceBitIdentically) {
  serve::Server& server = make_server(2);
  api::FlowRequestV1 req = make_request("dedup/ours", "ex");
  req.flow_token = "tok-fixed-1";

  serve::Client first(server.port());
  const auto a = first.submit(req);
  ASSERT_TRUE(a.ok) << a.error;
  ASSERT_TRUE(a.result.has_value());
  EXPECT_EQ(a.result->state, "succeeded");

  // A different connection retrying the same token must get the memoized
  // reply -- the identical serialized document, not a re-execution.
  serve::Client second(server.port());
  const auto b = second.submit(req);
  ASSERT_TRUE(b.ok) << b.error;
  ASSERT_TRUE(b.result.has_value());
  EXPECT_EQ(util::json_dump(a.result->to_json()),
            util::json_dump(b.result->to_json()));

  // Exactly one execution: the cluster counted one submitted job.
  const auto health = second.health();
  ASSERT_TRUE(health.ok) << health.error;
  ASSERT_TRUE(health.health.has_value());
  const util::JsonValue* cluster = health.health->find("cluster");
  ASSERT_NE(cluster, nullptr);
  EXPECT_EQ(cluster->get_int("submitted", -1), 1);
}

TEST_F(ChaosServeFixture, DistinctTokensExecuteIndependently) {
  serve::Server& server = make_server(2);
  serve::Client client(server.port());
  api::FlowRequestV1 req = make_request("solo/ours", "ex");
  req.flow_token = "tok-a";
  const auto a = client.submit(req);
  ASSERT_TRUE(a.ok) << a.error;
  req.flow_token = "tok-b";
  const auto b = client.submit(req);
  ASSERT_TRUE(b.ok) << b.error;
  const auto health = client.health();
  ASSERT_TRUE(health.ok);
  const util::JsonValue* cluster = health.health->find("cluster");
  ASSERT_NE(cluster, nullptr);
  EXPECT_EQ(cluster->get_int("submitted", -1), 2);
}

TEST_F(ChaosServeFixture, RetryClientSurvivesInjectedResets) {
  const FaultGuard guard;
  serve::Server& server = make_server(2);

  // Every third read on the chaos connection resets; the retry layer must
  // reconnect with the same token and still deliver each job exactly once,
  // bit-identical to a serial run.
  ASSERT_TRUE(inj::configure(kNet, "read:reset:0.34:5"));
  serve::ClientOptions opts;
  opts.retries = 8;
  opts.backoff_ms = 10;
  opts.chaos = true;
  serve::RetryClient client(server.port(), opts);

  const core::FlowResult serial = core::run_flow(
      core::FlowKind::Ours, benchmarks::make_benchmark("ex"), paper_params());
  for (int i = 0; i < 6; ++i) {
    const auto resp = client.submit(
        make_request("retry-" + std::to_string(i) + "/ours", "ex"));
    ASSERT_TRUE(resp.ok) << resp.error;
    ASSERT_TRUE(resp.result.has_value());
    ASSERT_EQ(resp.result->state, "succeeded");
    const api::FlowResultV1 expected =
        api::FlowResultV1::from_result(resp.result->name, serial);
    EXPECT_TRUE(expected.design_identical(*resp.result)) << i;
  }
  EXPECT_GT(client.reconnects(), 0) << "no reset ever fired; vacuous test";
  inj::clear(kNet);

  // Exactly six executions despite the reconnect storm.
  serve::Client tail(server.port());
  const auto health = tail.health();
  ASSERT_TRUE(health.ok) << health.error;
  const util::JsonValue* cluster = health.health->find("cluster");
  ASSERT_NE(cluster, nullptr);
  EXPECT_EQ(cluster->get_int("submitted", -1), 6);
}

TEST_F(ChaosServeFixture, FailedValidationDoesNotPoisonTheToken) {
  serve::Server& server = make_server(1);
  // A malformed request carrying a flow_token is refused at the schema
  // boundary -- before the token is registered -- so a corrected retry
  // with the same token must execute normally, not replay the refusal.
  util::net::Fd raw = util::net::connect_local(server.port());
  util::net::LineReader reader(raw.get(), 1u << 20);
  util::net::write_all(
      raw.get(),
      "{\"op\":\"submit\",\"request\":{\"schema_version\":1,"
      "\"flow_token\":\"tok-fixup\",\"name\":\"broken\"}}\n");
  const auto error_line = reader.read_line();
  ASSERT_TRUE(error_line.has_value());
  const auto error_doc = util::json_parse(*error_line);
  ASSERT_TRUE(error_doc.has_value());
  EXPECT_FALSE(error_doc->get_bool("ok", true));

  serve::Client client(server.port());
  api::FlowRequestV1 req = make_request("fixup/ours", "ex");
  req.flow_token = "tok-fixup";
  const auto good = client.submit(req);
  ASSERT_TRUE(good.ok) << good.error;
  EXPECT_EQ(good.result->state, "succeeded");
}

}  // namespace
}  // namespace hlts
