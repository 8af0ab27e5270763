// The audit layer's own tests. The file compiles in every preset; the
// death-test half only exists under INTSCHED_AUDIT (the `audit` preset),
// and the non-audit half proves the checks compile to nothing.
#include "intsched/sim/audit.hpp"

#include <gtest/gtest.h>

#include "intsched/sim/event_queue.hpp"
#include "intsched/sim/simulator.hpp"

namespace sim = intsched::sim;

#if INTSCHED_AUDIT_ENABLED

TEST(AuditMode, ChecksAreLiveDuringSimulation) {
  const std::int64_t before = sim::audit::checks_executed();
  sim::Simulator s;
  s.schedule_after(sim::SimDuration::millis(1), [] {});
  s.schedule_after(sim::SimDuration::milliseconds(2), [] {});
  s.run();
  EXPECT_GT(sim::audit::checks_executed(), before)
      << "audit build must evaluate invariant checks on the event path";
}

TEST(AuditModeDeathTest, EmptyPopTripsInvariant) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        sim::EventQueue q;
        (void)q.pop();
      },
      "intsched-audit");
}

TEST(AuditModeDeathTest, ViolationReportNamesTheCheck) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        sim::EventQueue q;
        (void)q.next_time();
      },
      "pending event");
}

#else  // !INTSCHED_AUDIT_ENABLED

TEST(AuditMode, DisabledBuildEvaluatesNothing) {
  sim::Simulator s;
  s.schedule_after(sim::SimDuration::millis(1), [] {});
  s.run();
  EXPECT_EQ(sim::audit::checks_executed(), 0)
      << "non-audit builds must not pay for invariant checks";
}

TEST(AuditMode, AssertMacroDoesNotEvaluateCondition) {
  // The macro must compile its argument away entirely: a condition with a
  // side effect is never executed in non-audit builds.
  int evaluations = 0;
  INTSCHED_AUDIT_ASSERT(++evaluations > 0, "never evaluated when disabled");
  EXPECT_EQ(evaluations, 0);
}

#endif
