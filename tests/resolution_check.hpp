// Exactly-once job resolution, checked after Scheduler::drain(): every
// submitted job id (the scheduler numbers them 1..jobs_submitted) appears
// in exactly one of completed() / shed() / failed(), and each tenant's
// completed / dropped / failed counters equal its report counts.
#ifndef ARCANE_TESTS_RESOLUTION_CHECK_HPP_
#define ARCANE_TESTS_RESOLUTION_CHECK_HPP_

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "sched/scheduler.hpp"

namespace arcane {

inline void expect_resolved_exactly_once(const sched::Scheduler& sch) {
  const std::uint64_t submitted = sch.stats().jobs_submitted;
  EXPECT_EQ(sch.completed().size() + sch.shed().size() + sch.failed().size(),
            submitted);
  std::vector<unsigned> seen(submitted + 1, 0);
  // Per tenant: completed, shed and failed report counts.
  std::vector<std::array<std::uint64_t, 3>> reports(sch.num_tenants());
  unsigned list = 0;
  for (const auto* jobs : {&sch.completed(), &sch.shed(), &sch.failed()}) {
    for (const sched::JobReport& rep : *jobs) {
      ASSERT_GE(rep.id, 1u);
      ASSERT_LE(rep.id, submitted);
      ASSERT_LT(rep.tenant, sch.num_tenants());
      ++seen[rep.id];
      ++reports[rep.tenant][list];
    }
    ++list;
  }
  for (std::uint64_t id = 1; id <= submitted; ++id) {
    EXPECT_EQ(seen[id], 1u) << "job " << id;
  }
  for (unsigned t = 0; t < sch.num_tenants(); ++t) {
    const sim::TenantStats& ts = sch.tenant_stats(t);
    EXPECT_EQ(ts.jobs_completed, reports[t][0]) << "tenant " << t;
    EXPECT_EQ(ts.jobs_dropped, reports[t][1]) << "tenant " << t;
    EXPECT_EQ(ts.jobs_failed, reports[t][2]) << "tenant " << t;
  }
}

}  // namespace arcane

#endif  // ARCANE_TESTS_RESOLUTION_CHECK_HPP_
