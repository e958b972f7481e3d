#include "pfs/faults.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

namespace senkf::pfs {
namespace {

FaultPlan rich_plan() {
  FaultPlan plan;
  plan.seed = 42;
  plan.transient_p = 0.125;
  plan.max_burst = 2;
  plan.dead_members = {3, 7};
  plan.stragglers = {{0, 0.25}, {2, 1.5}};
  return plan;
}

TEST(FaultPlanSpec, RoundTrips) {
  const FaultPlan plan = rich_plan();
  EXPECT_EQ(parse_fault_plan(to_spec(plan)), plan);
}

TEST(FaultPlanSpec, DefaultPlanRoundTrips) {
  const FaultPlan plan;
  EXPECT_EQ(parse_fault_plan(to_spec(plan)), plan);
}

TEST(FaultPlanSpec, ParsesEntriesInAnyOrder) {
  const FaultPlan plan = parse_fault_plan(
      "dead=7,straggler=2:1.5,transient=0.125,seed=42,burst=2,dead=3,"
      "straggler=0:0.25");
  EXPECT_EQ(plan, rich_plan());
}

TEST(FaultPlanSpec, BurstStaysBelowTheRetryBudget) {
  const int attempts = RetryPolicy{}.max_attempts;
  ASSERT_EQ(attempts, 6);
  EXPECT_EQ(parse_fault_plan("burst=5").max_burst, attempts - 1);
  EXPECT_THROW(parse_fault_plan("burst=6"), InvalidArgument);
}

TEST(FaultPlanSpec, DeduplicatesAndSortsRepeatables) {
  const FaultPlan plan = parse_fault_plan("dead=9,dead=2,dead=9,dead=5");
  EXPECT_EQ(plan.dead_members, (std::vector<std::uint64_t>{2, 5, 9}));
}

TEST(FaultPlanSpec, MalformedSpecsNameTheOffendingEntry) {
  const auto expect_bad = [](std::string_view spec, std::string_view entry) {
    try {
      parse_fault_plan(spec);
      FAIL() << "expected InvalidArgument for: " << spec;
    } catch (const InvalidArgument& error) {
      EXPECT_NE(std::string_view(error.what()).find(entry),
                std::string_view::npos)
          << "message '" << error.what() << "' should name '" << entry << "'";
    }
  };
  expect_bad("transient=1.5", "transient=1.5");        // out of range
  expect_bad("transient=abc", "transient=abc");        // not a number
  expect_bad("burst=0", "burst=0");                    // below 1
  // A burst as long as the retry budget would exhaust it.
  expect_bad("burst=6", "'burst=6': burst must be in [1, 5]");
  expect_bad("straggler=1", "straggler=1");            // missing :delay
  expect_bad("straggler=1:0", "straggler=1:0");        // zero delay
  expect_bad("bogus=1", "bogus=1");                    // unknown key
  // Rejected, not silently ignored: nothing would inject them.
  expect_bad("slow_ost=1:2.5", "'slow_ost=1:2.5': unknown key 'slow_ost'");
  expect_bad("latency=1.5", "'latency=1.5': unknown key 'latency'");
  expect_bad("seed", "seed");                          // no '='
  expect_bad("dead=1:2", "dead=1:2");                  // not an integer
}

TEST(FaultPlanSpec, EnvUnsetEmptyOrOffDisable) {
  ::unsetenv("SENKF_FAULTS");
  EXPECT_FALSE(fault_plan_from_env().has_value());
  ::setenv("SENKF_FAULTS", "", 1);
  EXPECT_FALSE(fault_plan_from_env().has_value());
  ::setenv("SENKF_FAULTS", "off", 1);
  EXPECT_FALSE(fault_plan_from_env().has_value());
  ::setenv("SENKF_FAULTS", "seed=9,transient=0.05", 1);
  const auto plan = fault_plan_from_env();
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->seed, 9u);
  EXPECT_DOUBLE_EQ(plan->transient_p, 0.05);
  ::unsetenv("SENKF_FAULTS");
}

TEST(FaultInjector, DecisionsAreDeterministicAcrossInstances) {
  const FaultPlan plan = parse_fault_plan("seed=17,transient=0.3,burst=3");
  const FaultInjector a(plan);
  const FaultInjector b(plan);
  int faulty = 0;
  for (std::uint64_t member = 0; member < 32; ++member) {
    for (std::uint64_t op = 0; op < 16; ++op) {
      const std::uint64_t key = op_key(member, op);
      const int burst = a.transient_burst(member, key);
      EXPECT_EQ(burst, b.transient_burst(member, key));
      EXPECT_GE(burst, 0);
      EXPECT_LE(burst, plan.max_burst);
      if (burst > 0) ++faulty;
    }
  }
  // ~30% of 512 ops should be faulty; the exact count is seed-determined.
  EXPECT_GT(faulty, 0);
  EXPECT_LT(faulty, 512);
}

TEST(FaultInjector, CleanPlanNeverFails) {
  const FaultInjector injector(FaultPlan{});
  for (std::uint64_t op = 0; op < 64; ++op) {
    EXPECT_EQ(injector.transient_burst(5, op_key(5, op)), 0);
    EXPECT_FALSE(injector.next_read_fails(5, op_key(5, op)));
  }
  EXPECT_FALSE(injector.is_dead(0));
}

TEST(FaultInjector, NextReadFailsConsumesTheBurstThenSucceedsForever) {
  const FaultPlan plan = parse_fault_plan("seed=3,transient=0.4,burst=3");
  const FaultInjector injector(plan);
  // Find a faulty op, then check the ledger semantics.
  for (std::uint64_t op = 0; op < 256; ++op) {
    const std::uint64_t key = op_key(11, op);
    const int burst = injector.transient_burst(11, key);
    if (burst == 0) continue;
    for (int i = 0; i < burst; ++i) {
      EXPECT_TRUE(injector.next_read_fails(11, key)) << "failure " << i;
    }
    for (int i = 0; i < 4; ++i) {
      EXPECT_FALSE(injector.next_read_fails(11, key));
    }
    return;
  }
  FAIL() << "no faulty op in 256 draws at p=0.4";
}

TEST(FaultInjector, DeadMembersAndStragglers) {
  const FaultInjector injector(parse_fault_plan("dead=2"));
  EXPECT_TRUE(injector.is_dead(2));
  EXPECT_FALSE(injector.is_dead(1));
  EXPECT_EQ(injector.straggler_delay(0), std::chrono::nanoseconds::zero());
  const FaultInjector straggly(parse_fault_plan("straggler=1:0.5"));
  EXPECT_EQ(straggly.straggler_delay(1), std::chrono::nanoseconds(500'000'000));
}

TEST(Backoff, DelaysAreExponentialCappedAndJitterBounded) {
  RetryPolicy policy;  // 1 ms base, ×2, 64 ms cap, 25% jitter
  for (int attempt = 1; attempt <= 12; ++attempt) {
    const auto delay = backoff_delay(policy, /*salt=*/99, attempt);
    double nominal = 1e6;
    for (int i = 1; i < attempt; ++i) nominal = std::min(nominal * 2.0, 64e6);
    EXPECT_GE(static_cast<double>(delay.count()), nominal * 0.75 - 1.0)
        << "attempt " << attempt;
    EXPECT_LT(static_cast<double>(delay.count()), nominal * 1.25 + 1.0)
        << "attempt " << attempt;
    // Deterministic: same (salt, attempt) → same pause.
    EXPECT_EQ(delay, backoff_delay(policy, 99, attempt));
  }
}

TEST(Backoff, ZeroJitterIsExact) {
  RetryPolicy policy;
  policy.jitter = 0.0;
  EXPECT_EQ(backoff_delay(policy, 1, 1), std::chrono::nanoseconds(1'000'000));
  EXPECT_EQ(backoff_delay(policy, 1, 2), std::chrono::nanoseconds(2'000'000));
  EXPECT_EQ(backoff_delay(policy, 1, 8), std::chrono::nanoseconds(64'000'000));
  EXPECT_EQ(backoff_delay(policy, 1, 20), std::chrono::nanoseconds(64'000'000));
}

TEST(WithRetry, RetriesTransientFailuresOnAVirtualClock) {
  RetryPolicy policy;
  policy.jitter = 0.0;
  std::vector<std::chrono::nanoseconds> pauses;
  const Sleeper virtual_clock = [&](std::chrono::nanoseconds pause) {
    pauses.push_back(pause);  // no real sleeping in tests
  };
  int calls = 0;
  std::vector<int> retries_seen;
  const int result = with_retry(
      policy, /*salt=*/7, virtual_clock,
      [&] {
        if (++calls <= 2) throw TransientReadError("flaky");
        return 123;
      },
      [&](int attempt) { retries_seen.push_back(attempt); });
  EXPECT_EQ(result, 123);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(retries_seen, (std::vector<int>{1, 2}));
  ASSERT_EQ(pauses.size(), 2u);
  EXPECT_EQ(pauses[0], std::chrono::nanoseconds(1'000'000));
  EXPECT_EQ(pauses[1], std::chrono::nanoseconds(2'000'000));
}

TEST(WithRetry, ExhaustionBecomesPermanent) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  std::size_t sleeps = 0;
  const Sleeper virtual_clock = [&](std::chrono::nanoseconds) { ++sleeps; };
  int calls = 0;
  EXPECT_THROW(with_retry(policy, 1, virtual_clock,
                          [&]() -> int {
                            ++calls;
                            throw TransientReadError("always");
                          }),
               PermanentReadError);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(sleeps, 2u);  // no pause after the final failure
}

TEST(WithRetry, PermanentErrorsPassThroughUntouched) {
  const Sleeper no_sleep = [](std::chrono::nanoseconds) {};
  EXPECT_THROW(with_retry(RetryPolicy{}, 1, no_sleep,
                          [&]() -> int {
                            throw PermanentReadError("dead");
                          }),
               PermanentReadError);
}

}  // namespace
}  // namespace senkf::pfs
