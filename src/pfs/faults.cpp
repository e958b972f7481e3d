#include "pfs/faults.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <sstream>
#include <thread>

namespace senkf::pfs {

namespace {

/// splitmix64 — the same stateless mixer the RNG layer builds on; fault
/// draws must not share a stream with anything (determinism under any
/// thread interleaving), so every decision hashes its own coordinates.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Uniform double in [0, 1) from a hash word.
double unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

[[noreturn]] void bad_spec(std::string_view entry, const std::string& why) {
  throw InvalidArgument("SENKF_FAULTS: bad entry '" + std::string(entry) +
                        "': " + why);
}

double parse_double(std::string_view entry, std::string_view text) {
  try {
    std::size_t used = 0;
    const std::string owned(text);
    const double value = std::stod(owned, &used);
    if (used != owned.size()) bad_spec(entry, "trailing characters");
    return value;
  } catch (const InvalidArgument&) {
    throw;
  } catch (const std::exception&) {
    bad_spec(entry, "expected a number");
  }
}

std::uint64_t parse_u64(std::string_view entry, std::string_view text) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    bad_spec(entry, "expected a non-negative integer");
  }
  return value;
}

/// Splits "a:b" (exactly one colon).
std::pair<std::string_view, std::string_view> split_pair(
    std::string_view entry, std::string_view text) {
  const auto colon = text.find(':');
  if (colon == std::string_view::npos || colon + 1 >= text.size() ||
      text.find(':', colon + 1) != std::string_view::npos) {
    bad_spec(entry, "expected INDEX:VALUE");
  }
  return {text.substr(0, colon), text.substr(colon + 1)};
}

}  // namespace

FaultPlan parse_fault_plan(std::string_view spec) {
  FaultPlan plan;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const auto comma = std::min(spec.find(',', pos), spec.size());
    const std::string_view entry = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (entry.empty()) continue;
    const auto eq = entry.find('=');
    if (eq == std::string_view::npos || eq == 0 || eq + 1 == entry.size()) {
      bad_spec(entry, "expected key=value");
    }
    const std::string_view key = entry.substr(0, eq);
    const std::string_view value = entry.substr(eq + 1);
    if (key == "seed") {
      plan.seed = parse_u64(entry, value);
    } else if (key == "transient") {
      plan.transient_p = parse_double(entry, value);
      if (plan.transient_p < 0.0 || plan.transient_p >= 1.0) {
        bad_spec(entry, "probability must be in [0, 1)");
      }
    } else if (key == "burst") {
      // A burst that lasts as long as the retry budget turns a transient
      // fault into a permanent one.
      const std::uint64_t burst = parse_u64(entry, value);
      const int budget = RetryPolicy{}.max_attempts;
      if (burst < 1 || burst >= static_cast<std::uint64_t>(budget)) {
        const std::string range = "[1, " + std::to_string(budget - 1) + "]";
        bad_spec(entry, "burst must be in " + range + " to stay retryable");
      }
      plan.max_burst = static_cast<int>(burst);
    } else if (key == "dead") {
      plan.dead_members.push_back(parse_u64(entry, value));
    } else if (key == "straggler") {
      const auto [rank, delay] = split_pair(entry, value);
      FaultPlan::Straggler straggler;
      straggler.io_rank = static_cast<int>(parse_u64(entry, rank));
      straggler.delay_s = parse_double(entry, delay);
      if (straggler.delay_s <= 0.0) bad_spec(entry, "delay must be > 0");
      plan.stragglers.push_back(straggler);
    } else {
      bad_spec(entry, "unknown key '" + std::string(key) + "'");
    }
  }
  // Canonical order so to_spec round-trips regardless of input order.
  std::sort(plan.dead_members.begin(), plan.dead_members.end());
  plan.dead_members.erase(
      std::unique(plan.dead_members.begin(), plan.dead_members.end()),
      plan.dead_members.end());
  std::sort(plan.stragglers.begin(), plan.stragglers.end(),
            [](const auto& a, const auto& b) { return a.io_rank < b.io_rank; });
  return plan;
}

std::string to_spec(const FaultPlan& plan) {
  std::ostringstream os;
  os << "seed=" << plan.seed;
  if (plan.transient_p > 0.0) os << ",transient=" << plan.transient_p;
  os << ",burst=" << plan.max_burst;
  for (const std::uint64_t member : plan.dead_members) {
    os << ",dead=" << member;
  }
  for (const auto& straggler : plan.stragglers) {
    os << ",straggler=" << straggler.io_rank << ':' << straggler.delay_s;
  }
  return os.str();
}

std::optional<FaultPlan> fault_plan_from_env() {
  const char* raw = std::getenv("SENKF_FAULTS");
  if (raw == nullptr) return std::nullopt;
  const std::string_view spec(raw);
  if (spec.empty() || spec == "off") return std::nullopt;
  return parse_fault_plan(spec);
}

std::chrono::nanoseconds backoff_delay(const RetryPolicy& policy,
                                       std::uint64_t salt, int attempt) {
  SENKF_REQUIRE(attempt >= 1, "backoff_delay: attempt starts at 1");
  SENKF_REQUIRE(policy.backoff_factor >= 1.0 && policy.jitter >= 0.0 &&
                    policy.jitter < 1.0,
                "backoff_delay: invalid policy");
  double delay = static_cast<double>(policy.base_delay.count());
  for (int i = 1; i < attempt; ++i) {
    delay *= policy.backoff_factor;
    if (delay >= static_cast<double>(policy.max_delay.count())) break;
  }
  delay = std::min(delay, static_cast<double>(policy.max_delay.count()));
  // Deterministic jitter in [1 − j, 1 + j): same (salt, attempt) → same
  // pause, so a retried schedule is exactly reproducible.
  const double u =
      unit(mix(salt ^ mix(static_cast<std::uint64_t>(attempt) ^
                          0x6a09e667f3bcc909ULL)));
  delay *= 1.0 + policy.jitter * (2.0 * u - 1.0);
  return std::chrono::nanoseconds(
      static_cast<std::chrono::nanoseconds::rep>(delay));
}

Sleeper real_sleeper() {
  return [](std::chrono::nanoseconds pause) {
    if (pause.count() > 0) std::this_thread::sleep_for(pause);
  };
}

std::uint64_t op_key(std::uint64_t a, std::uint64_t b) {
  return mix(a ^ mix(b ^ 0x2545f4914f6cdd1dULL));
}

FaultMetrics& FaultMetrics::get() {
  auto& registry = telemetry::Registry::global();
  static FaultMetrics metrics{
      registry.counter("pfs.fault.injected"),
      registry.counter("pfs.fault.transient"),
      registry.counter("pfs.fault.dead_reads"),
      registry.counter("pfs.fault.straggler_delay_ns"),
  };
  return metrics;
}

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {
  SENKF_REQUIRE(plan_.transient_p >= 0.0 && plan_.transient_p < 1.0,
                "FaultInjector: transient_p must be in [0, 1)");
  SENKF_REQUIRE(plan_.max_burst >= 1, "FaultInjector: max_burst must be >= 1");
}

bool FaultInjector::is_dead(std::uint64_t member) const {
  return std::binary_search(plan_.dead_members.begin(),
                            plan_.dead_members.end(), member);
}

int FaultInjector::transient_burst(std::uint64_t member,
                                   std::uint64_t key) const {
  if (plan_.transient_p <= 0.0) return 0;
  const std::uint64_t h = mix(plan_.seed ^ mix(member ^ mix(key)));
  if (unit(h) >= plan_.transient_p) return 0;
  // Faulty op: burst length 1 + geometric-ish tail from fresh hash bits,
  // hard-capped so a sane retry policy always outlasts it.
  int burst = 1;
  std::uint64_t draw = mix(h);
  while (burst < plan_.max_burst && unit(draw) < 0.5) {
    ++burst;
    draw = mix(draw);
  }
  return burst;
}

bool FaultInjector::next_read_fails(std::uint64_t member,
                                    std::uint64_t key) const {
  const int burst = transient_burst(member, key);
  if (burst == 0) return false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    int& used = consumed_[{member, key}];
    if (used >= burst) return false;
    ++used;
  }
  FaultMetrics& metrics = FaultMetrics::get();
  metrics.injected.add(1);
  metrics.transient.add(1);
  return true;
}

std::chrono::nanoseconds FaultInjector::straggler_delay(int io_rank) const {
  for (const auto& straggler : plan_.stragglers) {
    if (straggler.io_rank == io_rank) {
      return std::chrono::nanoseconds(static_cast<std::int64_t>(
          straggler.delay_s * 1e9));
    }
  }
  return std::chrono::nanoseconds::zero();
}

}  // namespace senkf::pfs
