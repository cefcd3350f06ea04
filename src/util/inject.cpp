#include "util/inject.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <new>
#include <stdexcept>
#include <thread>

#include "util/error.hpp"
#include "util/knobs.hpp"

namespace hlts::util::inject {

namespace {

/// Runtime state of one configured spec.  The hit counter is the draw
/// index of the spec's pseudo-random stream, so one configuration produces
/// one trigger sequence regardless of wall clock.
struct SpecState {
  Spec spec;
  ParamKind kind = ParamKind::Cap;
  std::int64_t hits = 0;
  std::int64_t triggers = 0;
};

std::mutex g_mutex;
std::vector<SpecState>& states() {
  static std::vector<SpecState> s;
  return s;
}

const FamilyRow& row(Family family) {
  return kFamilies[static_cast<std::size_t>(family)];
}

/// splitmix64: a full-period mixer, enough to turn (seed, draw index) into
/// an i.i.d.-looking uniform stream.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double uniform01(std::uint64_t seed, std::uint64_t n) {
  // 53 mantissa bits -> [0, 1).
  return static_cast<double>(mix64(seed ^ mix64(n)) >> 11) * 0x1.0p-53;
}

std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> out;
  for (;;) {
    const std::size_t end = text.find(sep);
    out.push_back(text.substr(0, end));
    if (end == std::string_view::npos) break;
    text.remove_prefix(end + 1);
  }
  return out;
}

/// "a|b|c" over the names of `sites` whose bit is set in `mask`.
std::string site_list(const FamilyRow& fam, std::uint32_t mask) {
  std::string out;
  for (std::size_t i = 0; i < fam.sites.size(); ++i) {
    if ((mask >> i & 1u) == 0) continue;
    if (!out.empty()) out += '|';
    out += fam.sites[i];
  }
  return out;
}

bool parse_spec(Family family, std::string_view text, SpecState* out,
                std::string* error) {
  const FamilyRow& fam = row(family);
  const auto fail = [&](const std::string& why) {
    *error = std::string(fam.spec_kind) + " '" + std::string(text) + "': " +
             why;
    return false;
  };
  const std::vector<std::string_view> fields = split(text, ':');
  if (fields.size() < 4 || fields.size() > 5) {
    return fail("expected " + std::string(fam.site_word) +
                ":mode:probability:seed[:param]");
  }
  SpecState state;
  Spec& spec = state.spec;
  spec.family = family;
  const auto site = std::find(fam.sites.begin(), fam.sites.end(), fields[0]);
  if (site == fam.sites.end()) {
    return fail("unknown " + std::string(fam.site_word) + " '" +
                std::string(fields[0]) + "' (expected " +
                site_list(fam, kAllSites) + ")");
  }
  spec.site = static_cast<std::size_t>(site - fam.sites.begin());
  const auto mode = std::find_if(
      fam.modes.begin(), fam.modes.end(),
      [&](const ModeRow& m) { return m.name == fields[1]; });
  if (mode == fam.modes.end()) {
    std::string names;
    for (const ModeRow& m : fam.modes) {
      if (!names.empty()) names += '|';
      names += m.name;
    }
    return fail("unknown mode '" + std::string(fields[1]) + "' (expected " +
                names + ")");
  }
  spec.mode = mode->mode;
  state.kind = mode->param;
  if ((mode->sites >> spec.site & 1u) == 0) {
    return fail("mode '" + std::string(mode->name) + "' applies to " +
                std::string(fam.site_word) + " " +
                site_list(fam, mode->sites) + " only");
  }
  // stoull wraps a negative seed ("-1" -> 2^64 - 1) instead of refusing it.
  if (fields[3].find('-') != std::string_view::npos) {
    return fail("seed must be a non-negative integer");
  }
  try {
    std::size_t pos = 0;
    const std::string prob(fields[2]);
    spec.probability = std::stod(prob, &pos);
    if (pos != prob.size()) throw std::invalid_argument(prob);
    const std::string seed(fields[3]);
    spec.seed = std::stoull(seed, &pos);
    if (pos != seed.size()) throw std::invalid_argument(seed);
    spec.param = mode->default_param;
    if (fields.size() == 5) {
      const std::string param(fields[4]);
      spec.param = std::stoll(param, &pos);
      if (pos != param.size()) throw std::invalid_argument(param);
    }
  } catch (const std::exception&) {
    return fail("malformed number");
  }
  // Written so that nan fails too: every comparison with nan is false, and
  // a nan probability would otherwise fire on every hit.
  if (!(spec.probability >= 0 && spec.probability <= 1)) {
    return fail("probability must be a finite number in [0, 1]");
  }
  if (spec.param < 0) return fail("param must be >= 0");
  *out = state;
  return true;
}

/// Arms each family from its environment variable once, before main().  A
/// malformed value is a hard configuration error: better to refuse the
/// whole process than to run a fault-injection soak that silently injects
/// nothing.
struct EnvInit {
  EnvInit() {
    for (std::size_t f = 0; f < kFamilyCount; ++f) {
      const char* env = kFamilies[f].env;
      const std::optional<std::string> value = knobs::read_string(env);
      if (!value) continue;
      std::string error;
      if (!configure(static_cast<Family>(f), *value, &error)) {
        std::fprintf(stderr, "%s: %s\n", env, error.c_str());
        std::abort();
      }
    }
  }
};
const EnvInit g_env_init;

}  // namespace

namespace detail {
std::array<std::atomic<bool>, kFamilyCount> g_armed{};
}  // namespace detail

bool configure(Family family, const std::string& spec_list,
               std::string* error) {
  std::vector<SpecState> parsed;
  if (!spec_list.empty()) {
    for (const std::string_view text : split(spec_list, ',')) {
      SpecState state;
      std::string local_error;
      if (!parse_spec(family, text, &state, &local_error)) {
        if (error != nullptr) *error = local_error;
        return false;
      }
      parsed.push_back(state);
    }
  }
  std::lock_guard<std::mutex> lock(g_mutex);
  std::erase_if(states(),
                [&](const SpecState& s) { return s.spec.family == family; });
  states().insert(states().end(), parsed.begin(), parsed.end());
  detail::g_armed[static_cast<std::size_t>(family)].store(
      !parsed.empty(), std::memory_order_relaxed);
  return true;
}

void clear(Family family) { configure(family, ""); }

std::vector<Spec> active(Family family) {
  std::lock_guard<std::mutex> lock(g_mutex);
  std::vector<Spec> out;
  for (const SpecState& s : states()) {
    if (s.spec.family == family) out.push_back(s.spec);
  }
  return out;
}

std::vector<SiteStats> stats(Family family) {
  std::lock_guard<std::mutex> lock(g_mutex);
  std::vector<SiteStats> out;
  for (const SpecState& s : states()) {
    if (s.spec.family != family) continue;
    out.push_back(SiteStats{std::string(row(family).sites[s.spec.site]),
                            s.hits, s.triggers});
  }
  return out;
}

std::optional<Injected> consult(Family family, std::size_t site) {
  std::lock_guard<std::mutex> lock(g_mutex);
  for (SpecState& s : states()) {
    if (s.spec.family != family || s.spec.site != site) continue;
    const std::uint64_t draw = static_cast<std::uint64_t>(s.hits);
    ++s.hits;
    if (uniform01(s.spec.seed, draw) >= s.spec.probability) continue;
    switch (s.kind) {
      case ParamKind::Cap:
        if (s.spec.param > 0 && s.triggers >= s.spec.param) {
          continue;  // trigger budget exhausted: the spec stays passive
        }
        ++s.triggers;
        break;
      case ParamKind::KthTrigger:
        // The recovery soak uses this to crash at successively later
        // journal writes.
        ++s.triggers;
        if (s.triggers < std::max<std::int64_t>(1, s.spec.param)) continue;
        break;
      case ParamKind::Value:
        ++s.triggers;
        break;
    }
    return Injected{s.spec.mode, s.spec.param};
  }
  return std::nullopt;
}

void failpoint_hit(std::size_t site) {
  const std::optional<Injected> fault = consult(Family::Failpoint, site);
  if (!fault) return;
  switch (fault->mode) {
    case Mode::Error:
      throw Error("failpoint '" + std::string(kFailpointSites[site]) +
                      "' injected error",
                  ErrorKind::Transient);
    case Mode::BadAlloc:
      throw std::bad_alloc();
    case Mode::Delay:
      std::this_thread::sleep_for(std::chrono::milliseconds(fault->param));
      return;
    case Mode::Kill:
      // Immediate death, no unwinding, no atexit: the closest in-process
      // stand-in for a crash or OOM kill.  137 = 128 + SIGKILL.
      std::_Exit(137);
    default:
      return;  // the other families' modes are never configured here
  }
}

}  // namespace hlts::util::inject
