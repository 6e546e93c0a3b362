// The benchmark's own tests: percentile selection, self time, the answer
// digest and the seeded inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> xs(n);
  std::iota(xs.begin(), xs.end(), 1.0);
  return xs;
}

TEST(Percentiles, SupportedNeedsTenSamplesBeyond) {
  EXPECT_TRUE(percentile_supported(1000, 99.0));
  EXPECT_FALSE(percentile_supported(999, 99.0));
  EXPECT_TRUE(percentile_supported(100, 90.0));
  EXPECT_FALSE(percentile_supported(99, 90.0));
  EXPECT_TRUE(percentile_supported(20, 50.0));
  EXPECT_FALSE(percentile_supported(19, 50.0));
}

TEST(Percentiles, TailPicksTheHighestSupported) {
  EXPECT_EQ(tail(ramp(1000)).label(), "p99");
  EXPECT_EQ(tail(ramp(999)).label(), "p90");
  EXPECT_EQ(tail(ramp(100)).label(), "p90");
  EXPECT_EQ(tail(ramp(99)).label(), "p50");
  // Below 20 samples nothing is supported; the median is still reported.
  EXPECT_EQ(tail(ramp(5)).label(), "p50");
  EXPECT_DOUBLE_EQ(tail(ramp(5)).value, 3.0);
  EXPECT_EQ(tail(ramp(1000)).n, 1000u);
}

TEST(Percentiles, MedianInterpolates) {
  EXPECT_DOUBLE_EQ(quantile({4.0, 1.0, 3.0, 2.0}, 50.0).value, 2.5);
  EXPECT_THROW((void)quantile({}, 50.0), std::invalid_argument);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  SpanLog log;
  const auto root = log.add("root", 0.0, 10.0);
  log.add("a", 1.0, 4.0, root);
  log.add("b", 3.0, 6.0, root);   // overlaps a by 1
  log.add("c", 8.0, 12.0, root);  // runs past the parent's end
  const auto rows = self_times(log.spans());
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].name, "root");
  // Covered: [1, 6] and [8, 10] -> 7 of 10.
  EXPECT_DOUBLE_EQ(rows[0].self_s, 3.0);
  EXPECT_DOUBLE_EQ(rows[1].self_s, 3.0);
}

TEST(SelfTime, GrandchildrenDoNotReduceTheGrandparent) {
  SpanLog log;
  const auto root = log.add("root", 0.0, 10.0);
  const auto mid = log.add("mid", 2.0, 6.0, root);
  log.add("leaf", 3.0, 5.0, mid);
  const auto rows = self_times(log.spans());
  EXPECT_DOUBLE_EQ(rows[0].self_s, 6.0);
  EXPECT_DOUBLE_EQ(rows[1].self_s, 2.0);
  EXPECT_DOUBLE_EQ(rows[2].self_s, 2.0);
}

TEST(SelfTime, SameNameRowsAggregate) {
  SpanLog log;
  log.add("x", 0.0, 1.0);
  log.add("x", 2.0, 4.0);
  const auto rows = self_times(log.spans());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].count, 2u);
  EXPECT_DOUBLE_EQ(rows[0].total_s, 3.0);
}

TEST(SelfTime, ScopesNest) {
  SpanLog log;
  {
    SpanLog::Scope outer(&log, "outer");
    SpanLog::Scope inner(&log, "inner");
  }
  ASSERT_EQ(log.spans().size(), 2u);
  EXPECT_EQ(log.spans()[1].parent, 0);
  EXPECT_LE(log.spans()[0].start_s, log.spans()[1].start_s);
  EXPECT_GE(log.spans()[0].end_s, log.spans()[1].end_s);
  SpanLog::Scope nothing(nullptr, "untraced");  // a null log records nothing
}

TEST(Digest, FoldIgnoresOrder) {
  const std::vector<std::uint64_t> a = {7, 0xFFFFFFFFFFFFFFF0ull, 42, 9};
  std::vector<std::uint64_t> b = a;
  std::reverse(b.begin(), b.end());
  EXPECT_EQ(fold_digests(a), fold_digests(b));
  std::rotate(b.begin(), b.begin() + 1, b.end());
  EXPECT_EQ(fold_digests(a), fold_digests(b));
}

TEST(Digest, CoversTheAnswerNotTheServing) {
  midas::service::QuerySpec q;
  q.graph = "g";
  midas::service::QueryResult r;
  r.found = true;
  r.rounds_run = 1;
  r.found_round = 0;
  r.witness = {1, 2, 3};
  const std::uint64_t base = answer_digest(q, r);

  midas::service::QueryResult timing = r;
  timing.total_s = 9.0;
  timing.queue_s = 1.0;
  EXPECT_EQ(answer_digest(q, timing), base);
  midas::service::QuerySpec lane = q;
  lane.lane = midas::service::Lane::kInteractive;
  EXPECT_EQ(answer_digest(lane, r), base);

  midas::service::QueryResult witness = r;
  witness.witness = {1, 3, 2};
  EXPECT_NE(answer_digest(q, witness), base);
  midas::service::QueryResult decision = r;
  decision.found = false;
  EXPECT_NE(answer_digest(q, decision), base);
}

TEST(Schedule, SameSeedSameArrivals) {
  const auto a = poisson_schedule(7, 350.0, 2.0);
  const auto b = poisson_schedule(7, 350.0, 2.0);
  const auto c = poisson_schedule(8, 350.0, 2.0);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  ASSERT_FALSE(a.empty());
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_LT(a.back(), 2.0);
  // ~700 arrivals expected; a Poisson count stays well inside +-15%.
  EXPECT_NEAR(static_cast<double>(a.size()), 700.0, 105.0);
}

TEST(Workloads, SeedDeterminesInputs) {
  for (const std::string& name : workload_names()) {
    const Workload a = make_workload(name, 3);
    const Workload b = make_workload(name, 3);
    const Workload c = make_workload(name, 4);
    ASSERT_EQ(a.distinct.size(), b.distinct.size()) << name;
    for (std::size_t i = 0; i < a.distinct.size(); ++i)
      EXPECT_EQ(midas::service::query_fingerprint(a.distinct[i]),
                midas::service::query_fingerprint(b.distinct[i]))
          << name;
    EXPECT_NE(a.graphs[0].seed, c.graphs[0].seed) << name;
    EXPECT_NE(midas::service::query_fingerprint(a.distinct[0]),
              midas::service::query_fingerprint(c.distinct[0]))
        << name;
    for (const Request& r : a.cycle) EXPECT_LT(r.query, a.distinct.size());
    for (std::uint32_t i : a.warmup) EXPECT_LT(i, a.distinct.size());
  }
  EXPECT_THROW((void)make_workload("nope", 1), std::invalid_argument);
}

}  // namespace
}  // namespace perfbench
