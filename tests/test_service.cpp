// DetectionService and ArtifactCache behavior: LRU eviction order,
// single-flight construction, eviction-then-rebuild bit-exactness,
// deduplication, deadline and overload semantics, replay parsing. The
// cross-engine bit-exactness soak lives in test_service_soak.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <future>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "gf/gf256.hpp"
#include "graph/generators.hpp"
#include "partition/multilevel.hpp"
#include "service/artifact_cache.hpp"
#include "service/query.hpp"
#include "service/replay.hpp"
#include "service/service.hpp"
#include "util/rng.hpp"

namespace {

using namespace midas;
using service::ArtifactCache;
using service::DetectionService;
using service::Lane;
using service::QueryResult;
using service::QuerySpec;
using service::QueryType;
using service::QueryValidationError;
using service::ServiceError;
using service::ServiceOptions;

// ---------------------------------------------------------------------------
// Cost model
// ---------------------------------------------------------------------------

TEST(ServiceCostModel, HaloTermIsKernelIndependent) {
  // The kernels differ only in the compute term, which N2 does not touch;
  // the halo term moves with N2. If the halo term depended on the kernel,
  // the scalar-minus-bitsliced gap would move with N2 too.
  QuerySpec q;
  q.k = 8;
  q.n1 = 2;
  auto cost = [&](core::Kernel kernel, std::uint32_t n2) {
    q.kernel = kernel;
    q.n2 = n2;
    return service::estimate_query_cost(q, 1000, 4000);
  };
  for (const int l : {4, 8, 12}) {
    q.field_bits = l;
    const double gap8 =
        cost(core::Kernel::kScalar, 8) - cost(core::Kernel::kBitsliced, 8);
    for (const std::uint32_t n2 : {32u, 100u, 256u, 1024u}) {
      EXPECT_NE(cost(core::Kernel::kBitsliced, n2),
                cost(core::Kernel::kBitsliced, 8))
          << "l=" << l << " N2=" << n2;
      const double gap =
          cost(core::Kernel::kScalar, n2) - cost(core::Kernel::kBitsliced, n2);
      EXPECT_NEAR(gap, gap8, 1e-9 * std::abs(gap8))
          << "l=" << l << " N2=" << n2;
      EXPECT_EQ(cost(core::Kernel::kAuto, n2),
                cost(core::Kernel::kBitsliced, n2))
          << "l=" << l << " N2=" << n2;
    }
  }
}

// ---------------------------------------------------------------------------
// ArtifactCache properties
// ---------------------------------------------------------------------------

TEST(ArtifactCache, HitReturnsSameObjectAndCounts) {
  ArtifactCache cache(4);
  auto a = cache.get_or_build<int>("k", [] { return 7; });
  auto b = cache.get_or_build<int>("k", [] { return 8; });
  EXPECT_EQ(*a, 7);
  EXPECT_EQ(a.get(), b.get());  // second call must not rebuild
  const auto s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.builds, 1u);
  EXPECT_EQ(s.evictions, 0u);
}

TEST(ArtifactCache, EvictsLeastRecentlyUsedFirst) {
  ArtifactCache cache(3);
  for (const char* k : {"a", "b", "c"})
    (void)cache.get_or_build<int>(k, [] { return 0; });
  // Touch "a": recency order (LRU first) becomes b, c, a.
  (void)cache.get_or_build<int>("a", [] { return 0; });
  EXPECT_EQ(cache.keys_lru(), (std::vector<std::string>{"b", "c", "a"}));

  // Inserting "d" evicts "b" (LRU), not insertion-order "a".
  (void)cache.get_or_build<int>("d", [] { return 0; });
  EXPECT_EQ(cache.keys_lru(), (std::vector<std::string>{"c", "a", "d"}));
  EXPECT_EQ(cache.stats().evictions, 1u);

  // "b" is gone: asking again rebuilds.
  (void)cache.get_or_build<int>("b", [] { return 0; });
  EXPECT_EQ(cache.stats().builds, 5u);
}

TEST(ArtifactCache, EvictedEntryStaysValidForHolders) {
  ArtifactCache cache(1);
  auto held = cache.get_or_build<std::vector<int>>(
      "x", [] { return std::vector<int>{1, 2, 3}; });
  (void)cache.get_or_build<int>("y", [] { return 0; });  // evicts "x"
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ((std::vector<int>{1, 2, 3}), *held);  // still alive
}

TEST(ArtifactCache, SingleFlightUnderConcurrentHammer) {
  ArtifactCache cache(4);
  std::atomic<int> builds{0};
  constexpr int kThreads = 16;
  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<const int>> got(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      got[static_cast<std::size_t>(t)] =
          cache.get_or_build<int>("hot", [&] {
            builds.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            return 42;
          });
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(builds.load(), 1);  // exactly one build despite 16 requesters
  EXPECT_EQ(cache.stats().builds, 1u);
  for (const auto& p : got) {
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(*p, 42);
    EXPECT_EQ(p.get(), got[0].get());  // all share the one artifact
  }
}

TEST(ArtifactCache, FailedBuildHandsSlotToWaiter) {
  ArtifactCache cache(4);
  std::atomic<int> attempts{0};
  std::vector<std::thread> threads;
  std::atomic<int> ok{0}, threw{0};
  for (int t = 0; t < 8; ++t)
    threads.emplace_back([&] {
      try {
        auto v = cache.get_or_build<int>("flaky", [&] {
          if (attempts.fetch_add(1) == 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
            throw std::runtime_error("first build fails");
          }
          return 9;
        });
        EXPECT_EQ(*v, 9);
        ok.fetch_add(1);
      } catch (const std::runtime_error&) {
        threw.fetch_add(1);
      }
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(threw.load(), 1);       // only the failing builder observes it
  EXPECT_EQ(ok.load(), 7);          // a waiter retried and built
  EXPECT_GE(attempts.load(), 2);
  EXPECT_EQ(cache.stats().builds, 1u);  // one *completed* build
}

TEST(ArtifactCache, DisabledModeBuildsEveryTimeAndStoresNothing) {
  ArtifactCache cache(4, /*enabled=*/false);
  int builds = 0;
  auto a = cache.get_or_build<int>("k", [&] { return ++builds; });
  auto b = cache.get_or_build<int>("k", [&] { return ++builds; });
  EXPECT_EQ(builds, 2);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.enabled());
}

// ---------------------------------------------------------------------------
// Service plumbing
// ---------------------------------------------------------------------------

QuerySpec path_query(int k = 4) {
  QuerySpec q;
  q.type = QueryType::kPath;
  q.graph = "g";
  q.k = k;
  q.seed = 5;
  q.max_rounds = 2;
  return q;
}

graph::Graph test_graph(std::uint64_t seed = 3) {
  Xoshiro256 rng(seed);
  return graph::erdos_renyi_gnm(80, 240, rng);
}

TEST(DetectionService, AnswersMatchDirectEngineRun) {
  DetectionService svc({.workers = 2});
  svc.add_graph("g", test_graph());
  const QuerySpec q = path_query(5);
  const QueryResult r = svc.submit(q).get();

  const graph::Graph g = test_graph();
  const auto part = partition::multilevel_partition(g, q.n1);
  core::MidasOptions opt;
  opt.k = q.k;
  opt.seed = q.seed;
  opt.max_rounds = q.max_rounds;
  opt.n_ranks = q.n_ranks;
  opt.n1 = q.n1;
  opt.n2 = q.n2;
  const auto direct = core::midas_kpath(g, part, opt, gf::GF256{});
  EXPECT_EQ(r.found, direct.found);
  EXPECT_EQ(r.rounds_run, direct.rounds_run);
  EXPECT_EQ(r.found_round, direct.found_round);
}

TEST(DetectionService, EvictionThenRebuildIsBitExact) {
  // Capacity 1: the second graph's artifacts evict the first's; re-running
  // the first query must rebuild them and reproduce the answer bit-exactly.
  DetectionService svc({.workers = 1, .cache_capacity = 1});
  svc.add_graph("g", test_graph(3));
  svc.add_graph("h", test_graph(4));

  QuerySpec qg = path_query(5);
  const QueryResult first = svc.submit(qg).get();
  svc.drain();

  QuerySpec qh = path_query(5);
  qh.graph = "h";
  (void)svc.submit(qh).get();
  svc.drain();

  const QueryResult again = svc.submit(qg).get();
  EXPECT_GE(svc.cache().stats().evictions, 1u);
  EXPECT_EQ(first.found, again.found);
  EXPECT_EQ(first.rounds_run, again.rounds_run);
  EXPECT_EQ(first.found_round, again.found_round);
  EXPECT_EQ(first.vtime, again.vtime);  // bit-exact modeled makespan
}

TEST(DetectionService, DeduplicatesIdenticalInFlightQueries) {
  // Gate the single worker so the first submit is still in flight when the
  // duplicates arrive.
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  ServiceOptions opt;
  opt.workers = 1;
  opt.before_execute = [gate](const QuerySpec&) { gate.wait(); };
  DetectionService svc(opt);
  svc.add_graph("g", test_graph());

  const QuerySpec q = path_query();
  auto f1 = svc.submit(q);
  QuerySpec q_other_lane = q;
  q_other_lane.lane = Lane::kInteractive;  // lane is serving metadata
  auto f2 = svc.submit(q);
  auto f3 = svc.submit(q_other_lane);

  QuerySpec different = path_query();
  different.seed += 1;
  auto f4 = svc.submit(different);

  release.set_value();
  svc.drain();
  EXPECT_EQ(f1.get().found, f2.get().found);
  const auto s = svc.stats();
  EXPECT_EQ(s.deduped, 2u);
  EXPECT_EQ(s.executed, 2u);  // one shared run + the different seed
  (void)f3.get();
  (void)f4.get();
}

TEST(DetectionService, FingerprintCoversParamsNotServingMetadata) {
  const QuerySpec a = path_query();
  QuerySpec b = a;
  b.lane = Lane::kInteractive;
  b.timeout_s = 1.5;
  EXPECT_EQ(query_fingerprint(a), query_fingerprint(b));
  QuerySpec c = a;
  c.n2 = a.n2 + 1;
  EXPECT_NE(query_fingerprint(a), query_fingerprint(c));
  QuerySpec d = a;
  d.kernel = core::Kernel::kScalar;
  EXPECT_NE(query_fingerprint(a), query_fingerprint(d));
}

TEST(DetectionService, QueuedPastDeadlineFailsWithoutPoisoningPool) {
  // One worker, blocked on query A; query B's deadline expires while it is
  // queued. B must complete with DeadlineExceededError and the pool must
  // keep serving afterwards.
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::atomic<bool> first{true};
  ServiceOptions opt;
  opt.workers = 1;
  opt.before_execute = [gate, &first](const QuerySpec&) {
    if (first.exchange(false)) gate.wait();
  };
  DetectionService svc(opt);
  svc.add_graph("g", test_graph());

  auto blocker = svc.submit(path_query(4));
  QuerySpec doomed = path_query(5);
  doomed.timeout_s = 0.02;
  auto expired = svc.submit(doomed);

  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  release.set_value();
  EXPECT_THROW(expired.get(), service::DeadlineExceededError);
  (void)blocker.get();

  // Pool still healthy: a fresh query runs to completion.
  QuerySpec after = path_query(6);
  EXPECT_NO_THROW((void)svc.submit(after).get());
  EXPECT_EQ(svc.stats().deadline_exceeded, 1u);
}

TEST(DetectionService, GenerousDeadlineRunsNormally) {
  DetectionService svc({.workers = 2});
  svc.add_graph("g", test_graph());
  QuerySpec q = path_query();
  q.timeout_s = 60.0;
  EXPECT_NO_THROW((void)svc.submit(q).get());
  EXPECT_EQ(svc.stats().deadline_exceeded, 0u);
}

TEST(DetectionService, FullLaneRejectsWhileInFlightQueriesFinish) {
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  ServiceOptions opt;
  opt.workers = 1;
  opt.queue_capacity = 2;
  opt.before_execute = [gate](const QuerySpec&) { gate.wait(); };
  DetectionService svc(opt);
  svc.add_graph("g", test_graph());

  // One in flight (dequeued, blocked) + two queued fills the batch lane.
  std::vector<std::shared_future<QueryResult>> futs;
  futs.push_back(svc.submit(path_query(3)));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  futs.push_back(svc.submit(path_query(4)));
  futs.push_back(svc.submit(path_query(5)));

  QuerySpec overflow = path_query(6);
  EXPECT_THROW((void)svc.submit(overflow), service::ServiceOverloadError);

  // The other lane has its own budget: an interactive query still fits.
  QuerySpec inter = path_query(7);
  inter.lane = Lane::kInteractive;
  futs.push_back(svc.submit(inter));

  release.set_value();
  svc.drain();
  for (auto& f : futs) EXPECT_NO_THROW((void)f.get());
  EXPECT_EQ(svc.stats().rejected, 1u);
}

TEST(DetectionService, ValidationErrors) {
  DetectionService svc({.workers = 1});
  svc.add_graph("g", test_graph());
  QuerySpec q = path_query();
  q.graph = "nope";
  EXPECT_THROW((void)svc.submit(q), service::UnknownGraphError);

  q = path_query();
  q.field_bits = 1;
  EXPECT_THROW((void)svc.submit(q), QueryValidationError);

  q = path_query();
  q.n1 = 3;  // does not divide n_ranks = 2
  EXPECT_THROW((void)svc.submit(q), QueryValidationError);

  q = path_query();
  q.type = QueryType::kTree;  // k = 4 but no template edges
  EXPECT_THROW((void)svc.submit(q), QueryValidationError);

  q = path_query();
  q.type = QueryType::kScan;  // no weights
  EXPECT_THROW((void)svc.submit(q), QueryValidationError);

  // PR-7 admission checks: epsilon and max_rounds are validated up front,
  // with the offending field name carried on the typed error.
  q = path_query();
  q.epsilon = 0.0;
  EXPECT_THROW((void)svc.submit(q), QueryValidationError);
  q.epsilon = 1.0;
  EXPECT_THROW((void)svc.submit(q), QueryValidationError);
  q.epsilon = -0.5;
  try {
    (void)svc.submit(q);
    FAIL() << "expected QueryValidationError";
  } catch (const QueryValidationError& e) {
    EXPECT_EQ(e.field(), "epsilon");
    EXPECT_NE(std::string(e.what()).find("epsilon"), std::string::npos);
  }

  q = path_query();
  q.max_rounds = -1;
  try {
    (void)svc.submit(q);
    FAIL() << "expected QueryValidationError";
  } catch (const QueryValidationError& e) {
    EXPECT_EQ(e.field(), "max_rounds");
  }

  // The validation family stays catchable as ServiceError.
  q = path_query();
  q.epsilon = 2.0;
  EXPECT_THROW((void)svc.submit(q), ServiceError);
}

TEST(DetectionService, ShutdownFailsQueuedQueries) {
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  ServiceOptions opt;
  opt.workers = 1;
  opt.before_execute = [gate](const QuerySpec&) { gate.wait(); };
  std::shared_future<QueryResult> running, queued;
  {
    DetectionService svc(opt);
    svc.add_graph("g", test_graph());
    running = svc.submit(path_query(3));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    queued = svc.submit(path_query(4));
    release.set_value();
    // Destructor: the running query finishes, the queued one is orphaned
    // only if the worker stopped before picking it up — both outcomes are
    // legal; what is *not* legal is a future that never completes.
  }
  EXPECT_NO_THROW((void)running.get());
  try {
    (void)queued.get();
  } catch (const service::ServiceShutdownError&) {
    // expected alternative
  }
}

// ---------------------------------------------------------------------------
// Resilience: retry, dedup-over-retry, breaker, shedding, hedging,
// self-healing (service/resilience.hpp; the chaos soak lives in
// test_service_chaos.cpp)
// ---------------------------------------------------------------------------

TEST(ServiceResilience, DedupWaitersSurviveRetriedExecution) {
  // Regression for the PR-5 dedup-failure bug: a transient failure of the
  // shared execution used to fail every fingerprint-sharing waiter
  // permanently. Now the execution retries and all waiters get the answer.
  ServiceOptions opt;
  opt.workers = 1;
  opt.retry.max_attempts = 4;
  opt.chaos.build_fail_p = 1.0;      // the first build of every key fails…
  opt.chaos.max_faulty_attempts = 1; // …and builds after that are clean
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  opt.before_execute = [gate](const QuerySpec&) { gate.wait(); };
  DetectionService svc(opt);
  svc.add_graph("g", test_graph());

  const QuerySpec q = path_query(4);
  auto f1 = svc.submit(q);
  auto f2 = svc.submit(q);  // dedup waiter on the same in-flight execution
  release.set_value();
  svc.drain();

  const QueryResult r1 = f1.get();  // would throw before the fix
  const QueryResult r2 = f2.get();
  EXPECT_EQ(r1.found, r2.found);
  EXPECT_EQ(r1.vtime, r2.vtime);
  EXPECT_GE(r1.attempts, 2);  // the first attempt died in the build

  const auto s = svc.stats();
  EXPECT_EQ(s.deduped, 1u);
  EXPECT_GE(s.retried, 1u);
  EXPECT_GE(s.attempt_failures, 1u);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_GE(s.chaos_build_failures, 1u);
}

TEST(ServiceResilience, RetriedAnswerIsBitExactWithFreshRun) {
  ServiceOptions opt;
  opt.workers = 2;
  // Budget for the worst chain: 2 failed views builds + 2 failed
  // rand-table builds before the clean attempt.
  opt.retry.max_attempts = 6;
  opt.chaos.build_fail_p = 1.0;
  opt.chaos.max_faulty_attempts = 2;  // two forced failures per key
  DetectionService svc(opt);
  svc.add_graph("g", test_graph());
  const QueryResult got = svc.submit(path_query(5)).get();

  DetectionService clean({.workers = 1});
  clean.add_graph("g", test_graph());
  const QueryResult want = clean.submit(path_query(5)).get();
  EXPECT_EQ(got.found, want.found);
  EXPECT_EQ(got.rounds_run, want.rounds_run);
  EXPECT_EQ(got.found_round, want.found_round);
  EXPECT_EQ(got.vtime, want.vtime);  // retries never change the answer
}

TEST(ServiceResilience, RetryBudgetExhaustionSurfacesTheError) {
  ServiceOptions opt;
  opt.workers = 1;
  opt.retry.max_attempts = 2;
  opt.breaker.enabled = false;  // isolate retry semantics from the breaker
  opt.chaos.build_fail_p = 1.0;
  opt.chaos.max_faulty_attempts = 100;  // never stops failing
  DetectionService svc(opt);
  svc.add_graph("g", test_graph());
  auto fut = svc.submit(path_query(4));
  EXPECT_THROW((void)fut.get(), service::InjectedBuildFailureError);
  const auto s = svc.stats();
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.retried, 1u);  // attempt 1 retried once, attempt 2 gave up
  EXPECT_EQ(s.attempt_failures, 2u);
}

TEST(ServiceResilience, PerQueryRetryPolicyOverridesServiceDefault) {
  ServiceOptions opt;
  opt.workers = 1;
  opt.retry.max_attempts = 5;   // service default would eventually succeed
  opt.breaker.enabled = false;
  opt.chaos.build_fail_p = 1.0;
  opt.chaos.max_faulty_attempts = 100;
  DetectionService svc(opt);
  svc.add_graph("g", test_graph());
  QuerySpec q = path_query(4);
  q.retry.max_attempts = 1;  // this query opts out of retries entirely
  auto fut = svc.submit(q);
  EXPECT_THROW((void)fut.get(), service::InjectedBuildFailureError);
  EXPECT_EQ(svc.stats().retried, 0u);
}

TEST(ServiceResilience, BreakerFastFailsThenHalfOpenProbeRecovers) {
  ServiceOptions opt;
  opt.workers = 1;
  opt.retry.max_attempts = 2;         // the doomed query gives up quickly
  opt.breaker.failure_threshold = 2;  // …but its two failures trip the breaker
  opt.breaker.cooldown_s = 0.5;
  opt.chaos.build_fail_p = 1.0;
  opt.chaos.max_faulty_attempts = 2;  // the first two builds of a key fail
  DetectionService svc(opt);
  svc.add_graph("g", test_graph());

  // Two consecutive build failures exhaust the budget and trip the breaker.
  auto doomed = svc.submit(path_query(4));
  EXPECT_THROW((void)doomed.get(), service::InjectedBuildFailureError);
  svc.drain();
  {
    const auto s = svc.stats();
    EXPECT_GE(s.breaker_trips, 1u);
    EXPECT_EQ(s.breaker_open, 1u);
  }

  // While open: fast-fail at submit with the typed error.
  try {
    (void)svc.submit(path_query(5));
    FAIL() << "expected CircuitOpenError";
  } catch (const service::CircuitOpenError& e) {
    EXPECT_EQ(e.graph_name(), "g");
    EXPECT_GT(e.retry_after_s(), 0.0);
  }
  EXPECT_EQ(svc.stats().breaker_fastfail, 1u);

  // After the cooldown the next submit is the half-open probe. Its views
  // build succeeds (that key's fault budget is spent) and its rand-table
  // builds fail twice then succeed under a bigger retry budget, so the
  // probe ultimately closes the circuit.
  std::this_thread::sleep_for(std::chrono::milliseconds(700));
  QuerySpec probe = path_query(4);
  probe.retry.max_attempts = 6;
  EXPECT_NO_THROW((void)svc.submit(probe).get());
  EXPECT_EQ(svc.stats().breaker_open, 0u);
  // Closed again: submits flow normally.
  QuerySpec after = path_query(5);
  after.retry.max_attempts = 6;
  EXPECT_NO_THROW((void)svc.submit(after).get());
}

TEST(ServiceResilience, DeadlineInfeasibleShedsAtSubmit) {
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::atomic<bool> first{true};
  ServiceOptions opt;
  opt.workers = 1;
  opt.queue_capacity = 16;
  opt.shed_min_samples = 1;  // one completed query arms the estimator
  opt.before_execute = [gate, &first](const QuerySpec& q) {
    if (q.k == 5 && first.exchange(false)) gate.wait();
  };
  DetectionService svc(opt);
  svc.add_graph("g", test_graph());

  // Seed the lane's rolling window with one real execution time.
  (void)svc.submit(path_query(3)).get();
  svc.drain();

  // Block the worker and stack up queued work…
  auto blocker = svc.submit(path_query(5));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  auto queued = svc.submit(path_query(4));

  // …then a microscopic deadline cannot possibly clear the queue: shed.
  QuerySpec doomed = path_query(6);
  doomed.timeout_s = 1e-9;
  try {
    (void)svc.submit(doomed);
    FAIL() << "expected DeadlineInfeasibleError";
  } catch (const service::DeadlineInfeasibleError& e) {
    EXPECT_GT(e.eta_s(), 0.0);
    EXPECT_EQ(e.budget_s(), 1e-9);
  }
  EXPECT_EQ(svc.stats().shed, 1u);

  release.set_value();
  EXPECT_NO_THROW((void)blocker.get());
  EXPECT_NO_THROW((void)queued.get());
}

TEST(ServiceResilience, HedgedStragglerKeepsAnswerBitExactAndCounts) {
  ServiceOptions opt;
  opt.workers = 2;
  opt.hedge_multiplier = 0.05;  // hedge anything 20x slower than p99-ish
  opt.hedge_min_samples = 1;
  opt.hedge_min_s = 0.0;
  opt.supervisor_poll_s = 0.001;
  DetectionService svc(opt);
  svc.add_graph("g", test_graph());
  svc.add_graph("big", [] {
    Xoshiro256 rng(9);
    return graph::erdos_renyi_gnm(600, 3000, rng);
  }());

  // A fast query seeds the batch lane's p99 near zero…
  (void)svc.submit(path_query(3)).get();
  svc.drain();

  // …so the big slow query straggles past multiplier x p99 and is hedged.
  QuerySpec slow = path_query(5);
  slow.graph = "big";
  slow.max_rounds = 3;
  const QueryResult got = svc.submit(slow).get();
  svc.drain();

  DetectionService clean({.workers = 1});
  clean.add_graph("big", [] {
    Xoshiro256 rng(9);
    return graph::erdos_renyi_gnm(600, 3000, rng);
  }());
  QuerySpec ref = slow;
  const QueryResult want = clean.submit(ref).get();
  EXPECT_EQ(got.found, want.found);
  EXPECT_EQ(got.found_round, want.found_round);
  EXPECT_EQ(got.vtime, want.vtime);  // whichever attempt won, same answer

  const auto s = svc.stats();
  EXPECT_GE(s.hedges, 1u);
  EXPECT_EQ(s.failed, 0u);
}

TEST(ServiceResilience, KilledWorkersAreReplacedAndPoolNeverShrinks) {
  ServiceOptions opt;
  opt.workers = 2;
  opt.chaos.worker_kill_p = 1.0;      // every eligible dequeue kills…
  opt.chaos.max_faulty_attempts = 2;  // …but each query absorbs at most 2
  DetectionService svc(opt);
  svc.add_graph("g", test_graph());

  std::vector<std::shared_future<QueryResult>> futs;
  for (int k = 3; k <= 6; ++k) futs.push_back(svc.submit(path_query(k)));
  for (auto& f : futs) EXPECT_NO_THROW((void)f.get());
  svc.drain();

  const auto s = svc.stats();
  EXPECT_GE(s.worker_restarts, 1u);
  EXPECT_EQ(s.workers_alive, 2u);  // never shrank
  EXPECT_EQ(s.failed, 0u);
}

TEST(ServiceResilience, OverloadErrorReportsBothLanesAndShedPolicy) {
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  ServiceOptions opt;
  opt.workers = 1;
  opt.queue_capacity = 2;
  opt.before_execute = [gate](const QuerySpec&) { gate.wait(); };
  DetectionService svc(opt);
  svc.add_graph("g", test_graph());

  auto inflight = svc.submit(path_query(3));  // dequeued, blocked
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  auto q1 = svc.submit(path_query(4));  // batch 1/2
  auto q2 = svc.submit(path_query(5));  // batch 2/2
  QuerySpec inter = path_query(6);
  inter.lane = Lane::kInteractive;
  auto q3 = svc.submit(inter);  // interactive 1/2

  try {
    (void)svc.submit(path_query(7));
    FAIL() << "expected ServiceOverloadError";
  } catch (const service::ServiceOverloadError& e) {
    EXPECT_EQ(e.batch_depth(), 2u);
    EXPECT_EQ(e.interactive_depth(), 1u);
    EXPECT_EQ(e.capacity(), 2u);
    EXPECT_EQ(e.shed_policy(), "deadline-aware");
  }

  release.set_value();
  svc.drain();
  for (auto* f : {&inflight, &q1, &q2, &q3}) EXPECT_NO_THROW((void)f->get());
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

class ReplayFile : public ::testing::Test {
 protected:
  void write(const std::string& text) {
    path_ = ::testing::TempDir() + "/service_replay_test.workload";
    std::ofstream out(path_);
    out << text;
  }
  void TearDown() override {
    if (!path_.empty()) std::remove(path_.c_str());
  }
  std::string path_;
};

TEST_F(ReplayFile, RunsMixedWorkloadAndReportsPerLane) {
  write("# demo\n"
        "graph g gnp 60 0.06 3\n"
        "query type=path graph=g k=4 lane=interactive seed=1 rounds=2\n"
        "query type=tree graph=g k=4 lane=batch seed=2 rounds=2 repeat=3\n"
        "query type=scan graph=g k=3 lane=batch seed=4 rounds=1\n");
  const auto rep = service::run_replay(path_, {.workers = 2});
  EXPECT_EQ(rep.interactive.submitted, 1u);
  EXPECT_EQ(rep.batch.submitted, 4u);
  EXPECT_EQ(rep.interactive.ok + rep.batch.ok, 5u);
  EXPECT_EQ(rep.interactive.failed + rep.batch.failed, 0u);
  EXPECT_GT(rep.qps, 0.0);
  EXPECT_GE(rep.batch.p99_s, rep.batch.p50_s);

  std::ostringstream os;
  service::print_report(os, rep);
  EXPECT_NE(os.str().find("interactive"), std::string::npos);
  EXPECT_NE(os.str().find("p99"), std::string::npos);
}

TEST_F(ReplayFile, MalformedLinesFailWithLineNumbers) {
  write("graph g gnp 40 0.1 1\nbogus directive\n");
  EXPECT_THROW((void)service::run_replay(path_), std::runtime_error);
  write("query type=path graph=missing k=4\n");
  EXPECT_THROW((void)service::run_replay(path_), std::runtime_error);
  write("graph g gnp 40 0.1 1\nquery type=path graph=g wat=1\n");
  EXPECT_THROW((void)service::run_replay(path_), std::runtime_error);
  EXPECT_THROW((void)service::run_replay("/nonexistent.workload"),
               std::runtime_error);
}

}  // namespace
