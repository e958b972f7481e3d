// Deterministic fault injection for the numeric plane (DESIGN.md §9).
//
// A `FaultPlan` describes how the file system misbehaves: transient
// EIO-style read failures (probability + bounded burst), permanently dead
// member files, and slow-straggler I/O ranks.  enkf::FaultyEnsembleStore
// turns its read decisions into thrown TransientReadError /
// PermanentReadError, and S-EnKF's I/O ranks sleep out its straggler
// delays; the S-EnKF read path must survive both.  The DES plane models a
// healthy file system, as the paper does.
//
// Every decision is a pure hash of (plan seed, member, op key, draw
// index) — never a shared RNG stream — so outcomes are identical across
// runs and thread interleavings: a fixed fault seed gives a reproducible
// failure schedule, and the analysis stays bitwise-deterministic (§9
// explains why).  Injected events are counted under `pfs.fault.*` in the
// telemetry registry.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/error.hpp"
#include "telemetry/metrics.hpp"

namespace senkf::pfs {

/// A read failed this attempt but may succeed when retried (the moral
/// equivalent of EIO from a flaky OST).
class TransientReadError : public Error {
 public:
  explicit TransientReadError(const std::string& what) : Error(what) {}
};

/// The data can never be produced (dead stripe / unreadable member file);
/// retrying is pointless and callers must degrade instead.
class PermanentReadError : public Error {
 public:
  explicit PermanentReadError(const std::string& what) : Error(what) {}
};

/// What the injected file system does wrong.  Value-semantic and
/// round-trippable through the `SENKF_FAULTS` spec string (to_spec /
/// parse_fault_plan).
struct FaultPlan {
  /// Seed of every fault decision; two runs with the same plan see the
  /// same failure schedule.
  std::uint64_t seed = 0;

  /// Probability that a distinct read operation fails at least once
  /// before succeeding (per-read, in [0, 1)).
  double transient_p = 0.0;

  /// Upper bound on consecutive transient failures of one operation: a
  /// faulty op fails between 1 and max_burst attempts, then succeeds.
  /// Keep below the retry policy's max_attempts so transient faults stay
  /// survivable (parse_fault_plan rejects a burst that reaches the
  /// default policy's).
  int max_burst = 3;

  /// Member files that are permanently unreadable (every read throws
  /// PermanentReadError).
  std::vector<std::uint64_t> dead_members;

  /// Straggler I/O ranks: rank `io_rank` (0-based ordinal among the I/O
  /// ranks) pays `delay_s` extra wall-clock per bar read — the knob the
  /// run-end straggler WARN and the stall watchdog are tested against.
  struct Straggler {
    int io_rank = 0;
    double delay_s = 0.0;
    friend bool operator==(const Straggler&, const Straggler&) = default;
  };
  std::vector<Straggler> stragglers;

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;
};

/// Parses a `SENKF_FAULTS` spec: comma-separated key=value entries
///   seed=U       fault seed
///   transient=P  per-read transient failure probability, [0, 1)
///   burst=N      max consecutive failures per op, 1 ≤ N <
///                RetryPolicy{}.max_attempts (6)
///   dead=K       member K permanently unreadable (repeatable)
///   straggler=R:S  I/O rank ordinal R pays S seconds extra per read
///                  (repeatable)
/// Malformed specs throw InvalidArgument naming the offending entry.
FaultPlan parse_fault_plan(std::string_view spec);

/// Canonical spec string; parse_fault_plan(to_spec(p)) == p.
std::string to_spec(const FaultPlan& plan);

/// Reads SENKF_FAULTS; unset, empty or "off" → nullopt.
std::optional<FaultPlan> fault_plan_from_env();

/// Capped exponential backoff with deterministic jitter; the retry policy
/// of every degraded read path.
struct RetryPolicy {
  /// Total tries including the first; exhausting them converts the
  /// transient failure into a PermanentReadError.
  int max_attempts = 6;
  std::chrono::nanoseconds base_delay{1'000'000};  // 1 ms
  double backoff_factor = 2.0;
  std::chrono::nanoseconds max_delay{64'000'000};  // 64 ms cap
  /// Jitter fraction in [0, 1): the delay is scaled by a deterministic
  /// factor drawn from [1 − jitter, 1 + jitter) keyed on (salt, attempt).
  double jitter = 0.25;

  friend bool operator==(const RetryPolicy&, const RetryPolicy&) = default;
};

/// Pure function of (policy, salt, attempt ≥ 1): the pause before retry
/// `attempt`, i.e. base · factor^(attempt−1), capped, jittered.  Tests
/// assert its bounds on a virtual clock — no sleeping involved.
std::chrono::nanoseconds backoff_delay(const RetryPolicy& policy,
                                       std::uint64_t salt, int attempt);

/// How a retry loop pauses; injectable so tests can use a virtual clock.
using Sleeper = std::function<void(std::chrono::nanoseconds)>;

/// The production sleeper: std::this_thread::sleep_for.
Sleeper real_sleeper();

/// Stable 64-bit key for a read operation (splitmix-style mix of two
/// words, e.g. a row range); feeds the injector's per-op fault draws.
std::uint64_t op_key(std::uint64_t a, std::uint64_t b);

/// Counters every injection site reports into (`pfs.fault.*`).
struct FaultMetrics {
  telemetry::Counter& injected;        ///< pfs.fault.injected — all events
  telemetry::Counter& transient;       ///< pfs.fault.transient
  telemetry::Counter& dead_reads;      ///< pfs.fault.dead_reads
  telemetry::Counter& straggler_ns;    ///< pfs.fault.straggler_delay_ns
  static FaultMetrics& get();
};

/// Turns a FaultPlan into per-read decisions.  Decision functions are
/// deterministic in (seed, member, op key); the only state is the per-op
/// attempt ledger that makes a faulty op fail its first `burst` calls and
/// then succeed forever (so retries always converge).  Thread-safe.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  /// Permanently unreadable member file?
  bool is_dead(std::uint64_t member) const;

  /// Failures this op will suffer before succeeding (0 = clean): pure in
  /// (seed, member, key).
  int transient_burst(std::uint64_t member, std::uint64_t key) const;

  /// Stateful draw for the numeric plane: true while the op's burst is
  /// unconsumed (each call consumes one failure).  Counts the event.
  bool next_read_fails(std::uint64_t member, std::uint64_t key) const;

  /// Extra delay injected per read for I/O rank ordinal `io_rank`
  /// (zero when the rank is not a straggler).
  std::chrono::nanoseconds straggler_delay(int io_rank) const;

 private:
  FaultPlan plan_;
  mutable std::mutex mutex_;
  mutable std::map<std::pair<std::uint64_t, std::uint64_t>, int> consumed_;
};

/// Runs `op` under the retry policy: TransientReadError triggers a
/// backoff pause (via `sleep`) and another try; exhausting max_attempts
/// rethrows as PermanentReadError.  `on_retry`, when set, observes each
/// retry (for counters).  Deterministic given a deterministic op.
template <typename F>
auto with_retry(const RetryPolicy& policy, std::uint64_t salt,
                const Sleeper& sleep, F&& op,
                const std::function<void(int)>& on_retry = nullptr)
    -> decltype(op()) {
  SENKF_REQUIRE(policy.max_attempts >= 1,
                "with_retry: need at least one attempt");
  for (int attempt = 1;; ++attempt) {
    try {
      return op();
    } catch (const TransientReadError& error) {
      if (attempt >= policy.max_attempts) {
        throw PermanentReadError(std::string("retries exhausted after ") +
                                 std::to_string(attempt) +
                                 " attempts: " + error.what());
      }
      if (on_retry) on_retry(attempt);
      sleep(backoff_delay(policy, salt, attempt));
    }
  }
}

}  // namespace senkf::pfs
