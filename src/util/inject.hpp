// Fault injection: one registry for the three site families of the chaos
// harness.
//
// A site is a place where the code asks "should this step fail right
// now?".  The engine's failure paths (retry, graceful Partial completion,
// watchdog, journal refusal, client reconnect) are only trustworthy if they
// are *exercised*; injection lets tests and soaks fire faults exactly where
// real ones would occur, deterministically.
//
// Families (one row each in kFamilies below):
//
//   failpoint  HLTS_FAILPOINTS -- named code sites marked HLTS_FAILPOINT(),
//              which performs the action itself:
//                error    throw hlts::Error with ErrorKind::Transient
//                badalloc throw std::bad_alloc
//                delay    sleep `param` milliseconds (default 50)
//                kill     _Exit(137) the whole process, simulating a crash
//                         or OOM kill for the recovery soak
//   io         HLTS_IO_FAULTS -- the durability syscalls of util/fs (open,
//              write, fsync, rename); util/fs performs the fault so it can
//              model it faithfully (a short write really leaves a prefix):
//                short    (write only) persist a prefix, then fail: the
//                         torn-file case
//                enospc   fail with a disk-full error
//                eio      fail with a generic I/O error
//   net        HLTS_NET_FAULTS -- the chaos-enabled sockets of util/socket
//              (connect, read, write).  Enabling is per call site, never
//              ambient: only connections that opted in (the serve client)
//              are perturbed, so a supervisor's worker socketpairs in the
//              same process stay deterministic.
//                reset    connect/write throw a Transient error, a read
//                         sees EOF
//                truncate (read/write) pass only `param` bytes (default 1)
//                         of the chunk, then the stream ends
//                stall    sleep `param` ms (default 50) before the
//                         operation; timeouts make this survivable
//
// Grammar: each variable (read once at process start; a malformed value
// aborts the process before main) and configure() take a comma-separated
// list of
//
//   site:mode:probability:seed[:param]
//
//   probability  a finite number in [0, 1], evaluated with a deterministic
//                counter-hash stream seeded by `seed` (a non-negative
//                integer) and indexed by the spec's hit count: one spec
//                list and one order of hits give one trigger sequence,
//                whatever the wall clock
//   param        >= 0; its meaning depends on the mode (ParamKind):
//                error/badalloc, short/enospc/eio, reset: maximum number
//                  of triggers, 0 = unlimited
//                kill: which trigger kills (1st, 2nd, ...; <= 1: the first)
//                delay, stall: milliseconds; truncate: bytes
//
// e.g. HLTS_FAILPOINTS=sched.reschedule:error:0.1:42,engine.worker:delay:1:0:20
//      HLTS_IO_FAULTS=write:short:0.05:7,fsync:eio:0.1:11
//      HLTS_NET_FAULTS=read:stall:0.2:3:200,read:reset:0.05:9
//
// Cost when a family is not configured: armed(family) is one relaxed
// atomic load and a never-taken branch -- nothing is looked up or locked.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace hlts::util::inject {

enum class Family : std::uint8_t { Failpoint, Io, Net };
inline constexpr std::size_t kFamilyCount = 3;

enum class Mode : std::uint8_t {
  Error, BadAlloc, Delay, Kill,  // failpoint
  Short, Enospc, Eio,            // io
  Reset, Truncate, Stall,        // net
};

/// What a spec's param means for its mode.
enum class ParamKind : std::uint8_t {
  Cap,         ///< maximum number of triggers, 0 = unlimited
  KthTrigger,  ///< fire from the param-th trigger on (<= 1: the first)
  Value,       ///< ms or bytes for the call site; every trigger fires
};

/// Failpoint sites compiled into the pipeline.
inline constexpr std::array<std::string_view, 11> kFailpointSites = {
    "frontend.parse",      // entry of the DSL compiler
    "sched.reschedule",    // entry of core::reschedule (every trial)
    "alloc.merge",         // etpn::Binding::merge_modules / merge_regs
    "atpg.fault_sim",      // entry of a fault-simulation batch
    "engine.worker",       // start of every engine job attempt
    "pool.task",           // before every util::ThreadPool task body
    "journal.write",       // mid-write of a temp file (a kill tears it)
    "journal.commit",      // temp file complete, before the atomic rename
    "journal.checkpoint",  // entry of a checkpoint persistence
    "journal.done",        // entry of a job's terminal journal record
    "analysis.commit",     // entry of an incremental-context commit
};

/// Sites of the io and net families, in table order.
namespace io {
enum Site : std::uint8_t { kOpen, kWrite, kFsync, kRename };
}
namespace net {
enum Site : std::uint8_t { kConnect, kRead, kWrite };
}
inline constexpr std::array<std::string_view, 4> kIoSites = {
    "open", "write", "fsync", "rename"};
inline constexpr std::array<std::string_view, 3> kNetSites = {
    "connect", "read", "write"};

inline constexpr std::uint32_t kAllSites = ~std::uint32_t{0};

struct ModeRow {
  Mode mode;
  std::string_view name;
  ParamKind param;
  std::int64_t default_param;  ///< used when the spec has no param field
  std::uint32_t sites;         ///< bit i set: valid on the family's site i
};

inline constexpr std::array<ModeRow, 4> kFailpointModes = {{
    {Mode::Error, "error", ParamKind::Cap, 0, kAllSites},
    {Mode::BadAlloc, "badalloc", ParamKind::Cap, 0, kAllSites},
    {Mode::Delay, "delay", ParamKind::Value, 50, kAllSites},
    {Mode::Kill, "kill", ParamKind::KthTrigger, 0, kAllSites},
}};
inline constexpr std::array<ModeRow, 3> kIoModes = {{
    {Mode::Short, "short", ParamKind::Cap, 0, 1u << io::kWrite},
    {Mode::Enospc, "enospc", ParamKind::Cap, 0, kAllSites},
    {Mode::Eio, "eio", ParamKind::Cap, 0, kAllSites},
}};
inline constexpr std::array<ModeRow, 3> kNetModes = {{
    {Mode::Reset, "reset", ParamKind::Cap, 0, kAllSites},
    {Mode::Truncate, "truncate", ParamKind::Value, 1,
     (1u << net::kRead) | (1u << net::kWrite)},
    {Mode::Stall, "stall", ParamKind::Value, 50, kAllSites},
}};

struct FamilyRow {
  const char* env;             ///< armed from this variable before main
  std::string_view spec_kind;  ///< names the family in parse errors
  std::string_view site_word;  ///< "site" or "op"
  std::span<const std::string_view> sites;
  std::span<const ModeRow> modes;
};

/// Indexed by Family.
inline constexpr std::array<FamilyRow, kFamilyCount> kFamilies = {{
    {"HLTS_FAILPOINTS", "failpoint spec", "site", kFailpointSites,
     kFailpointModes},
    {"HLTS_IO_FAULTS", "io-fault spec", "op", kIoSites, kIoModes},
    {"HLTS_NET_FAULTS", "net-fault spec", "op", kNetSites, kNetModes},
}};

/// Index of a failpoint site, resolved at compile time: a name that is not
/// in kFailpointSites is not a constant expression, so the build fails.
consteval std::size_t failpoint_site(std::string_view name) {
  for (std::size_t i = 0; i < kFailpointSites.size(); ++i) {
    if (kFailpointSites[i] == name) return i;
  }
  throw "HLTS_FAILPOINT: site is not in kFailpointSites";
}

/// Parsed form of one site:mode:probability:seed[:param] spec.
struct Spec {
  Family family = Family::Failpoint;
  std::size_t site = 0;  ///< index into the family's site table
  Mode mode = Mode::Error;
  double probability = 1.0;
  std::uint64_t seed = 0;
  std::int64_t param = 0;  ///< the mode's default when the field is absent
};

/// Per-spec observability for tests and soak reports.
struct SiteStats {
  std::string site;
  std::int64_t hits = 0;      ///< times the spec's site was consulted
  std::int64_t triggers = 0;  ///< draws that passed (see ParamKind)
};

/// Replaces `family`'s configuration with the parsed `spec_list`.  Returns
/// false and fills `*error` on a malformed spec, leaving the previous
/// configuration untouched.  An empty list disarms the family.
bool configure(Family family, const std::string& spec_list,
               std::string* error = nullptr);

/// Disarms `family` and resets its statistics.
void clear(Family family);

/// `family`'s specs, in configured order.
[[nodiscard]] std::vector<Spec> active(Family family);

/// One entry per spec of `family`, in configured order.
[[nodiscard]] std::vector<SiteStats> stats(Family family);

namespace detail {
extern std::array<std::atomic<bool>, kFamilyCount> g_armed;
}  // namespace detail

/// True when `family` has a spec configured -- the only fast-path check.
[[nodiscard]] inline bool armed(Family family) {
  return detail::g_armed[static_cast<std::size_t>(family)].load(
      std::memory_order_relaxed);
}

/// The fault to inject at `site` right now, or nullopt to proceed
/// normally.  The first spec on the site whose draw passes and whose param
/// lets it fire wins.  Only call when armed(family).
struct Injected {
  Mode mode = Mode::Error;
  std::int64_t param = 0;
};
[[nodiscard]] std::optional<Injected> consult(Family family, std::size_t site);

/// Consults failpoint `site` and performs the action: throw, sleep, or
/// _Exit(137).  Reached through HLTS_FAILPOINT.
void failpoint_hit(std::size_t site);

}  // namespace hlts::util::inject

/// Marks one failpoint site; `site` must be a literal in kFailpointSites.
/// Disarmed cost: one relaxed atomic load.
#define HLTS_FAILPOINT(site)                                       \
  do {                                                             \
    if (::hlts::util::inject::armed(                               \
            ::hlts::util::inject::Family::Failpoint)) [[unlikely]] { \
      ::hlts::util::inject::failpoint_hit(                         \
          ::hlts::util::inject::failpoint_site(site));             \
    }                                                              \
  } while (false)
