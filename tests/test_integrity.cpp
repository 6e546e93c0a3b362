// Answer-integrity layer (service/integrity.hpp, docs/INTEGRITY.md):
// artifact checksums + quarantine/rebuild, the chaos bit-flip soak
// ("zero corrupted answers escape"), certified positives with exactly
// validated witnesses, honest error accounting + re-amplification, the
// background audit sampler, and the witness-peeling invariants the
// certification proof rests on (adversarial oracles, non-path templates).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "core/detect_par.hpp"
#include "core/motif.hpp"
#include "core/schedule.hpp"
#include "core/tree_template.hpp"
#include "core/witness.hpp"
#include "fixtures.hpp"
#include "gf/gf256.hpp"
#include "gf/gfsmall.hpp"
#include "graph/algorithms.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "partition/multilevel.hpp"
#include "partition/partitioned_graph.hpp"
#include "service/artifact_cache.hpp"
#include "service/integrity.hpp"
#include "service/query.hpp"
#include "service/service.hpp"
#include "util/rng.hpp"

namespace {

using namespace midas;
using service::ArtifactCache;
using service::ArtifactIntegrity;
using service::AuditSampler;
using service::DetectionService;
using service::GraphArtifacts;
using service::QueryResult;
using service::QuerySpec;
using service::QueryType;
using service::ServiceOptions;

graph::Graph test_graph(std::uint64_t seed = 3) {
  return fixtures::gnm(80, 240, seed);
}

GraphArtifacts build_artifacts(const graph::Graph& g, int n1 = 2) {
  GraphArtifacts a;
  a.part = partition::multilevel_partition(g, n1);
  a.views = partition::build_part_views(g, a.part);
  return a;
}

QuerySpec path_query(int k = 4) {
  QuerySpec q;
  q.type = QueryType::kPath;
  q.graph = "g";
  q.k = k;
  q.seed = 5;
  q.max_rounds = 3;
  return q;
}

// ---------------------------------------------------------------------------
// Error accounting primitives
// ---------------------------------------------------------------------------

TEST(AchievedEpsilon, YesIsExactNoDecaysWithRounds) {
  EXPECT_EQ(service::achieved_epsilon(true, 1), 0.0);   // one-sided error
  EXPECT_EQ(service::achieved_epsilon(true, 100), 0.0);
  EXPECT_DOUBLE_EQ(service::achieved_epsilon(false, 1), 0.8);
  EXPECT_DOUBLE_EQ(service::achieved_epsilon(false, 3), 0.8 * 0.8 * 0.8);
  EXPECT_LT(service::achieved_epsilon(false, 20),
            service::achieved_epsilon(false, 5));
}

TEST(AlternateKernel, FlipsScalarAndBitsliced) {
  EXPECT_EQ(service::alternate_kernel(core::Kernel::kScalar),
            core::Kernel::kBitsliced);
  EXPECT_EQ(service::alternate_kernel(core::Kernel::kBitsliced),
            core::Kernel::kScalar);
  // kAuto resolves to bit-sliced for every admitted width; its alternate
  // must be the scalar engine.
  EXPECT_EQ(service::alternate_kernel(core::Kernel::kAuto),
            core::Kernel::kScalar);
}

// ---------------------------------------------------------------------------
// ArtifactIntegrity checksums and the flip seam
// ---------------------------------------------------------------------------

TEST(ArtifactChecksum, GraphArtifactsChecksumIsPureAndFlipSensitive) {
  const graph::Graph g = test_graph();
  const GraphArtifacts a = build_artifacts(g);
  const std::uint64_t sum = ArtifactIntegrity<GraphArtifacts>::checksum(a);
  EXPECT_EQ(sum, ArtifactIntegrity<GraphArtifacts>::checksum(a));
  EXPECT_EQ(sum, ArtifactIntegrity<GraphArtifacts>::checksum(
                     build_artifacts(g)));  // pure function of the inputs

  // Every pick lands on a checksummed byte: any injected flip must be
  // detectable by construction.
  for (std::uint64_t pick : {0ull, 1ull, 777ull, 123456789ull, ~0ull >> 1}) {
    GraphArtifacts flipped = a;
    ArtifactIntegrity<GraphArtifacts>::flip_bit(flipped, pick);
    EXPECT_NE(ArtifactIntegrity<GraphArtifacts>::checksum(flipped), sum)
        << "pick " << pick << " flipped an unchecksummed bit";
  }
}

TEST(ArtifactChecksum, FlipTargetsOnlyValueArrays) {
  // Flipping must corrupt *values* (vertex ids), never the adjacency
  // structure the engines index by — sizes and offsets stay intact.
  const graph::Graph g = test_graph();
  const GraphArtifacts a = build_artifacts(g);
  for (std::uint64_t pick : {3ull, 999ull, 31337ull}) {
    GraphArtifacts flipped = a;
    ArtifactIntegrity<GraphArtifacts>::flip_bit(flipped, pick);
    ASSERT_EQ(flipped.views.size(), a.views.size());
    for (std::size_t i = 0; i < a.views.size(); ++i) {
      ASSERT_EQ(flipped.views[i].adj.size(), a.views[i].adj.size());
      EXPECT_EQ(std::memcmp(flipped.views[i].adj.data(),
                            a.views[i].adj.data(),
                            a.views[i].adj.size() *
                                sizeof(a.views[i].adj[0])),
                0);
      EXPECT_EQ(flipped.views[i].adj_offsets, a.views[i].adj_offsets);
      EXPECT_EQ(flipped.views[i].vertices.size(), a.views[i].vertices.size());
      EXPECT_EQ(flipped.views[i].ghosts.size(), a.views[i].ghosts.size());
    }
  }
}

TEST(ArtifactChecksum, RandTablesChecksumIsFlipSensitive) {
  const graph::Graph g = test_graph();
  const GraphArtifacts a = build_artifacts(g);
  const core::RandTables t =
      core::build_rand_tables(a.views, /*seed=*/7, /*k=*/4, /*rounds=*/3,
                              gf::GF256{});
  const std::uint64_t sum = ArtifactIntegrity<core::RandTables>::checksum(t);
  for (std::uint64_t pick : {0ull, 42ull, 987654321ull}) {
    core::RandTables flipped = t;
    ArtifactIntegrity<core::RandTables>::flip_bit(flipped, pick);
    EXPECT_NE(ArtifactIntegrity<core::RandTables>::checksum(flipped), sum);
    // Only the parity-check words change; the coefficient tables the field
    // lookups index by are never touched.
    EXPECT_EQ(flipped.coeff, t.coeff);
  }
}

// ---------------------------------------------------------------------------
// Cache verification: quarantine + single-flight rebuild
// ---------------------------------------------------------------------------

TEST(CacheVerify, FullVerifyCatchesWritePathFlipBeforeAnyReadEscapes) {
  const graph::Graph g = test_graph();
  const std::uint64_t clean_sum =
      ArtifactIntegrity<GraphArtifacts>::checksum(build_artifacts(g));

  ArtifactCache cache(4);
  cache.set_verify(ArtifactCache::Verify::kFull);
  std::atomic<int> flips{0};
  cache.set_chaos_flip_hook(
      [&](const std::string&, std::uint64_t& pick) {
        if (flips.load() >= 2) return false;  // bounded: rebuilds converge
        pick = 0xBADull + static_cast<std::uint64_t>(flips.fetch_add(1));
        return true;
      });
  std::vector<std::string> quarantined;
  cache.set_on_corruption(
      [&](const std::string& key) { quarantined.push_back(key); });

  auto got = cache.get_or_build<GraphArtifacts>(
      "views/g/n1=2", [&] { return build_artifacts(g); });
  // The handed-out artifact is bit-exactly the clean build: both flipped
  // publishes were quarantined (the builder's own value re-reads through
  // the verifier) and the third build came out clean.
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(ArtifactIntegrity<GraphArtifacts>::checksum(*got), clean_sum);
  EXPECT_EQ(flips.load(), 2);
  const auto s = cache.stats();
  EXPECT_EQ(s.corruptions, 2u);
  EXPECT_EQ(s.builds, 3u);
  ASSERT_EQ(quarantined.size(), 2u);
  EXPECT_EQ(quarantined[0], "views/g/n1=2");

  // The surviving entry is clean: further reads verify without incident.
  auto again = cache.get_or_build<GraphArtifacts>(
      "views/g/n1=2", [&]() -> GraphArtifacts {
        ADD_FAILURE() << "clean entry must not rebuild";
        return build_artifacts(g);
      });
  EXPECT_EQ(again.get(), got.get());
  EXPECT_EQ(cache.stats().corruptions, 2u);
}

TEST(CacheVerify, SampledVerifyEventuallyQuarantines) {
  const graph::Graph g = test_graph();
  const std::uint64_t clean_sum =
      ArtifactIntegrity<GraphArtifacts>::checksum(build_artifacts(g));

  ArtifactCache cache(4);
  cache.set_verify(ArtifactCache::Verify::kSampled, /*sample_period=*/4);
  bool flipped = false;
  cache.set_chaos_flip_hook([&](const std::string&, std::uint64_t& pick) {
    if (flipped) return false;
    flipped = true;
    pick = 99;
    return true;
  });

  // Sampled mode trades detection latency for hit cost: the corrupted
  // entry survives unsampled reads but a sampled read within one period
  // catches it and the rebuild is clean.
  for (int i = 0; i < 16 && cache.stats().corruptions == 0; ++i)
    (void)cache.get_or_build<GraphArtifacts>(
        "views/g/n1=2", [&] { return build_artifacts(g); });
  EXPECT_EQ(cache.stats().corruptions, 1u);
  auto final_value = cache.get_or_build<GraphArtifacts>(
      "views/g/n1=2", [&] { return build_artifacts(g); });
  EXPECT_EQ(ArtifactIntegrity<GraphArtifacts>::checksum(*final_value),
            clean_sum);
}

TEST(CacheVerify, ErasePrefixDropsOnlyMatchingKeys) {
  ArtifactCache cache(8);
  (void)cache.get_or_build<int>("views/g/n1=2", [] { return 1; });
  (void)cache.get_or_build<int>("rand/g/s=1", [] { return 2; });
  (void)cache.get_or_build<int>("views/h/n1=2", [] { return 3; });
  EXPECT_EQ(cache.erase_prefix("views/g/"), 1u);
  EXPECT_EQ(cache.size(), 2u);
  int rebuilt = 0;
  (void)cache.get_or_build<int>("views/h/n1=2", [&] { return ++rebuilt; });
  EXPECT_EQ(rebuilt, 0);  // other graph's entry survived
}

// ---------------------------------------------------------------------------
// End-to-end chaos soak: zero corrupted answers escape
// ---------------------------------------------------------------------------

TEST(IntegritySoak, ArtifactBitFlipChaosNeverCorruptsAnAnswer) {
  ServiceOptions chaos_opt;
  chaos_opt.workers = 2;
  chaos_opt.verify = ArtifactCache::Verify::kFull;
  chaos_opt.chaos.artifact_flip_p = 1.0;  // flip every eligible publish
  chaos_opt.chaos.max_faulty_attempts = 2;
  chaos_opt.chaos.seed = 0xF11Full;
  DetectionService svc(chaos_opt);
  svc.add_graph("g", test_graph());

  DetectionService clean({.workers = 2});
  clean.add_graph("g", test_graph());

  std::vector<QuerySpec> specs;
  for (int k = 3; k <= 6; ++k)
    for (std::uint64_t s = 1; s <= 3; ++s) {
      QuerySpec q = path_query(k);
      q.seed = s;
      specs.push_back(q);
    }
  {
    QuerySpec q;
    q.type = QueryType::kScan;
    q.graph = "g";
    q.k = 3;
    q.seed = 9;
    q.max_rounds = 3;
    q.weights.assign(80, 1);
    specs.push_back(q);
  }

  for (const auto& q : specs) {
    const QueryResult chaotic = svc.submit(q).get();
    const QueryResult reference = clean.submit(q).get();
    EXPECT_EQ(chaotic.found, reference.found);
    EXPECT_EQ(chaotic.rounds_run, reference.rounds_run);
    EXPECT_EQ(chaotic.found_round, reference.found_round);
    if (q.type == QueryType::kScan) {
      EXPECT_EQ(chaotic.table.feasible, reference.table.feasible);
    }
  }
  svc.drain();

  const auto st = svc.stats();
  EXPECT_GT(st.chaos_artifact_flips, 0u);  // chaos actually fired
  // Under kFull every injected flip is caught: nothing escapes, and the
  // quarantine/rebuild loop converges (answers above are bit-exact).
  EXPECT_GE(st.cache.corruptions, st.chaos_artifact_flips);
  EXPECT_GT(st.cache.verifications, 0u);
}

// ---------------------------------------------------------------------------
// Certified positives
// ---------------------------------------------------------------------------

TEST(Certify, PathYesCarriesValidatedWitnessDeterministically) {
  DetectionService svc({.workers = 2});
  svc.add_graph("g", test_graph());
  QuerySpec q = path_query(5);
  q.epsilon = 0.01;
  q.max_rounds = 0;  // run to the epsilon target: a real path is found
  q.certify = true;
  const QueryResult r = svc.submit(q).get();
  ASSERT_TRUE(r.found);
  EXPECT_TRUE(r.certified);
  ASSERT_EQ(r.witness.size(), 5u);
  EXPECT_TRUE(core::validate_kpath(test_graph(), r.witness, 5));

  // Decision-identical across reruns: peeling is seeded by the query, so
  // a fresh service reproduces the same certified witness.
  DetectionService svc2({.workers = 2});
  svc2.add_graph("g", test_graph());
  const QueryResult r2 = svc2.submit(q).get();
  EXPECT_TRUE(r2.certified);
  EXPECT_EQ(r2.witness, r.witness);

  EXPECT_EQ(svc.stats().certified, 1u);
  EXPECT_EQ(svc.stats().cert_failures, 0u);
}

TEST(Certify, TreeYesCarriesValidatedEmbedding) {
  DetectionService svc({.workers = 2});
  svc.add_graph("g", test_graph());
  QuerySpec q;
  q.type = QueryType::kTree;
  q.graph = "g";
  q.k = 4;
  q.seed = 11;
  q.epsilon = 0.01;
  q.certify = true;
  q.tree_edges = {{0, 1}, {0, 2}, {0, 3}};  // star template, not a path
  const QueryResult r = svc.submit(q).get();
  ASSERT_TRUE(r.found);  // a degree-3 vertex exists in this graph
  EXPECT_TRUE(r.certified);
  ASSERT_EQ(r.witness.size(), 4u);
  graph::GraphBuilder tb(4);
  for (const auto& [a, b] : q.tree_edges) tb.add_edge(a, b);
  EXPECT_TRUE(
      core::validate_tree_embedding(test_graph(), tb.build(), r.witness));
}

TEST(Certify, ScanYesCarriesValidatedCell) {
  DetectionService svc({.workers = 2});
  svc.add_graph("g", test_graph());
  QuerySpec q;
  q.type = QueryType::kScan;
  q.graph = "g";
  q.k = 3;
  q.seed = 13;
  q.epsilon = 0.01;
  q.certify = true;
  q.weights.assign(80, 1);
  const QueryResult r = svc.submit(q).get();
  bool any = false;
  for (int j = 1; j <= r.table.k && !any; ++j)
    for (std::uint32_t z = 0; z <= r.table.max_weight && !any; ++z)
      any = r.table.at(j, z);
  ASSERT_TRUE(any);  // unit weights: a single vertex is already feasible
  EXPECT_TRUE(r.certified);
  EXPECT_GT(r.witness_j, 0);
  EXPECT_TRUE(core::validate_connected_subgraph(
      test_graph(), q.weights, r.witness_j, r.witness_z, r.witness));
  EXPECT_EQ(static_cast<int>(r.witness.size()), r.witness_j);
}

TEST(Certify, MotifYesCarriesValidatedOccurrence) {
  DetectionService svc({.workers = 2});
  svc.add_graph("g", test_graph());
  QuerySpec q;
  q.type = QueryType::kMotif;
  q.graph = "g";
  q.k = 3;
  q.seed = 19;
  q.epsilon = 0.01;
  q.certify = true;
  q.colors = fixtures::draw_colors(80, /*palette=*/2, q.seed);
  q.motif = fixtures::draw_motif(q.colors, q.k, q.seed);
  const QueryResult r = svc.submit(q).get();
  // avg degree 6, palette 2: some connected triple matches any feasible
  // 3-color multiset, and eps = 0.01 makes a miss essentially impossible.
  ASSERT_TRUE(r.found);
  EXPECT_TRUE(r.certified);
  ASSERT_EQ(r.witness.size(), 3u);
  EXPECT_TRUE(
      core::validate_motif(test_graph(), q.colors, q.motif, r.witness));
  EXPECT_EQ(svc.stats().cert_failures, 0u);
}

TEST(Certify, NoAnswerHasNothingToCertify) {
  // A star has no simple 5-path: certify mode on a "no" is a no-op, not a
  // certification failure.
  graph::GraphBuilder b(10);
  for (std::uint32_t v = 1; v < 10; ++v) b.add_edge(0, v);
  DetectionService svc({.workers = 1});
  svc.add_graph("star", b.build());
  QuerySpec q = path_query(5);
  q.graph = "star";
  q.certify = true;
  const QueryResult r = svc.submit(q).get();
  EXPECT_FALSE(r.found);
  EXPECT_FALSE(r.certified);
  EXPECT_TRUE(r.witness.empty());
  EXPECT_EQ(svc.stats().cert_failures, 0u);
  EXPECT_EQ(svc.stats().integrity_quarantines, 0u);
}

// ---------------------------------------------------------------------------
// Honest error accounting + re-amplification
// ---------------------------------------------------------------------------

TEST(ErrorAccounting, ResultsCarryTargetAndAchievedEpsilon) {
  DetectionService svc({.workers = 1});
  svc.add_graph("g", test_graph());
  QuerySpec q = path_query(4);
  q.epsilon = 0.05;
  const QueryResult r = svc.submit(q).get();
  EXPECT_DOUBLE_EQ(r.target_epsilon, 0.05);
  if (r.found) {
    EXPECT_EQ(r.achieved_epsilon, 0.0);
  } else {
    EXPECT_DOUBLE_EQ(r.achieved_epsilon,
                     service::achieved_epsilon(false, r.rounds_run));
  }
}

TEST(ErrorAccounting, ReamplifyTopsUpAnUnderAmplifiedNo) {
  // Star graph: k=5 paths never exist, so every answer is "no" and a
  // max_rounds=1 cap leaves the epsilon target unmet.
  graph::GraphBuilder b(12);
  for (std::uint32_t v = 1; v < 12; ++v) b.add_edge(0, v);
  const int target = core::rounds_for_epsilon(0.01);
  ASSERT_GT(target, 1);

  DetectionService svc({.workers = 1});
  svc.add_graph("star", b.build());

  QuerySpec capped = path_query(5);
  capped.graph = "star";
  capped.epsilon = 0.01;
  capped.max_rounds = 1;
  const QueryResult bare = svc.submit(capped).get();
  EXPECT_FALSE(bare.found);
  EXPECT_EQ(bare.rounds_run, 1);
  EXPECT_EQ(bare.reamp_rounds, 0);
  EXPECT_GT(bare.achieved_epsilon, bare.target_epsilon);  // honest: unmet

  QuerySpec topped = capped;
  topped.reamplify = true;
  const QueryResult r = svc.submit(topped).get();
  EXPECT_FALSE(r.found);
  EXPECT_EQ(r.rounds_run + r.reamp_rounds, target);
  EXPECT_LE(r.achieved_epsilon, r.target_epsilon);  // target met post-topup
  EXPECT_EQ(svc.stats().reamplified, 1u);
}

TEST(ErrorAccounting, ReamplifyCanFlipNoToYes) {
  // One round on a feasible graph sometimes misses; with reamplify the
  // top-up rounds must recover the witness. The graph holds exactly one
  // 5-path (plus a star that contributes none), so single-round misses
  // are common; skip (vacuously pass) if every seed hits anyway.
  graph::GraphBuilder b(40);
  for (std::uint32_t v = 0; v < 4; ++v) b.add_edge(v, v + 1);
  for (std::uint32_t leaf = 21; leaf < 40; ++leaf) b.add_edge(20, leaf);
  DetectionService svc({.workers = 2});
  svc.add_graph("g", b.build());
  for (std::uint64_t s = 1; s <= 64; ++s) {
    QuerySpec q = path_query(5);
    q.seed = s;
    q.epsilon = 1e-4;
    q.max_rounds = 1;
    const QueryResult bare = svc.submit(q).get();
    if (bare.found) continue;
    QuerySpec topped = q;
    topped.reamplify = true;
    const QueryResult r = svc.submit(topped).get();
    EXPECT_TRUE(r.found) << "reamplified run missed a present witness "
                            "(probability < 1e-4)";
    EXPECT_EQ(r.achieved_epsilon, 0.0);
    return;
  }
  GTEST_SKIP() << "no one-round miss in 64 seeds; nothing to re-amplify";
}

// ---------------------------------------------------------------------------
// Audit sampler
// ---------------------------------------------------------------------------

TEST(AuditSampler, SamplingIsDeterministicInTheFingerprint) {
  const AuditSampler::Options opt{.rate = 0.5, .seed = 7};
  auto noop = [](const QuerySpec&) { return QueryResult{}; };
  AuditSampler a(opt, noop, nullptr, nullptr);
  AuditSampler b(opt, noop, nullptr, nullptr);
  int audited = 0;
  for (std::uint64_t fp = 1; fp <= 256; ++fp) {
    EXPECT_EQ(a.should_audit(fp), b.should_audit(fp));  // pure function
    audited += a.should_audit(fp) ? 1 : 0;
  }
  EXPECT_GT(audited, 64);   // rate 0.5 within generous bounds
  EXPECT_LT(audited, 192);
  AuditSampler all({.rate = 1.0, .seed = 7}, noop, nullptr, nullptr);
  AuditSampler none({.rate = 0.0, .seed = 7}, noop, nullptr, nullptr);
  for (std::uint64_t fp = 1; fp <= 32; ++fp) {
    EXPECT_TRUE(all.should_audit(fp));
    EXPECT_FALSE(none.should_audit(fp));
  }
}

TEST(AuditSampler, AlternateKernelMismatchFiresQuarantineCallback) {
  QuerySpec settled = path_query(4);
  QueryResult decision;
  decision.found = false;

  std::vector<std::string> quarantined;
  std::mutex m;
  AuditSampler sampler(
      {.rate = 1.0},
      [&](const QuerySpec& probe) {
        QueryResult r;
        // Probe (a) keeps the settled seed and flips the kernel; answer
        // the opposite decision to emulate a corrupted settled answer.
        r.found = probe.seed == settled.seed;
        return r;
      },
      [&](const std::string& g) {
        std::lock_guard lock(m);
        quarantined.push_back(g);
      },
      nullptr);
  sampler.enqueue(settled, /*fingerprint=*/42, decision);
  sampler.drain();

  const auto c = sampler.counters();
  EXPECT_EQ(c.scheduled, 1u);
  EXPECT_EQ(c.completed, 1u);
  EXPECT_EQ(c.mismatches, 1u);
  EXPECT_EQ(c.missed_yes, 0u);  // mismatch short-circuits probe (b)
  std::lock_guard lock(m);
  ASSERT_EQ(quarantined.size(), 1u);
  EXPECT_EQ(quarantined[0], "g");
}

TEST(AuditSampler, FreshSeedYesAgainstSettledNoCountsMissedYes) {
  QuerySpec settled = path_query(4);
  QueryResult decision;
  decision.found = false;

  std::atomic<int> missed{0};
  AuditSampler sampler(
      {.rate = 1.0},
      [&](const QuerySpec& probe) {
        QueryResult r;
        // Probe (a) (same seed, alternate kernel) agrees with the settled
        // "no"; probe (b) (fresh seed) finds the witness the "no" missed.
        r.found = probe.seed != settled.seed;
        return r;
      },
      [](const std::string&) {
        ADD_FAILURE() << "a missed yes is expected Monte Carlo error, "
                         "never a quarantine";
      },
      [&](const std::string&) { missed.fetch_add(1); });
  sampler.enqueue(settled, /*fingerprint=*/43, decision);
  sampler.drain();

  const auto c = sampler.counters();
  EXPECT_EQ(c.mismatches, 0u);
  EXPECT_EQ(c.missed_yes, 1u);
  EXPECT_EQ(missed.load(), 1);
}

TEST(AuditSampler, ServiceEndToEndAuditsCleanRunsWithoutQuarantine) {
  ServiceOptions opt;
  opt.workers = 2;
  opt.audit_rate = 1.0;
  DetectionService svc(opt);
  svc.add_graph("g", test_graph());
  for (std::uint64_t s = 1; s <= 4; ++s) {
    QuerySpec q = path_query(4);
    q.seed = s;
    (void)svc.submit(q).get();
  }
  svc.drain();  // includes the audit queue

  const auto st = svc.stats();
  EXPECT_EQ(st.audits_scheduled, 4u);
  EXPECT_EQ(st.audits_completed, 4u);
  // The kernels are bit-exact (PR-3 invariant): a clean service can never
  // produce an alternate-kernel mismatch, so nothing is quarantined.
  EXPECT_EQ(st.audit_mismatches, 0u);
  EXPECT_EQ(st.integrity_quarantines, 0u);
}

// ---------------------------------------------------------------------------
// Witness peeling invariants (the certification proof obligations)
// ---------------------------------------------------------------------------

TEST(WitnessPeel, AdversarialOracleMissesNeverLoseTheWitness) {
  // chunked_peel only deletes a chunk when the oracle answers "yes" on the
  // residual. An adversarial oracle that lies "no" arbitrarily (one-sided
  // error at its worst) can only keep removable vertices alive — the
  // witness itself must survive every peel it allows.
  const graph::VertexId n = 24;
  const std::set<graph::VertexId> witness = {3, 7, 11, 19};
  int calls = 0;
  auto oracle = [&](const std::vector<graph::VertexId>& keep) {
    const bool contains = [&] {
      std::set<graph::VertexId> s(keep.begin(), keep.end());
      for (auto w : witness)
        if (!s.count(w)) return false;
      return true;
    }();
    ++calls;
    if (!contains) return false;   // a "yes" must never be wrong
    return calls % 3 != 0;         // lie "no" on every third call
  };
  std::vector<bool> alive(n, true);
  core::chunked_peel(n, oracle, alive);
  for (auto w : witness)
    EXPECT_TRUE(alive[w]) << "peel deleted witness vertex " << w;
}

TEST(WitnessPeel, HonestOracleIsolatesExactlyTheWitness) {
  const graph::VertexId n = 24;
  const std::set<graph::VertexId> witness = {2, 9, 17};
  auto oracle = [&](const std::vector<graph::VertexId>& keep) {
    std::set<graph::VertexId> s(keep.begin(), keep.end());
    for (auto w : witness)
      if (!s.count(w)) return false;
    return true;
  };
  std::vector<bool> alive(n, true);
  core::chunked_peel(n, oracle, alive);
  for (graph::VertexId v = 0; v < n; ++v)
    EXPECT_EQ(alive[v], witness.count(v) == 1u);
}

TEST(WitnessPeel, PeelKpathAtLooseEpsilonStillValidatesExactly) {
  // Oracle misses at eps = 0.5 are frequent but benign: the exact final
  // search still emits a valid path (or the peel keeps extra survivors).
  const graph::Graph g = test_graph();
  core::WitnessOptions opt;
  opt.epsilon = 0.5;
  opt.seed = 21;
  const auto w = core::peel_kpath(g, 5, opt);
  ASSERT_TRUE(w.has_value());  // the graph genuinely contains a 5-path
  EXPECT_TRUE(core::validate_kpath(g, *w, 5));
}

TEST(WitnessPeel, ExtractTreeEmbeddingStarTemplate) {
  // Non-path template: a 4-leaf star needs a degree-4 center. Build a
  // graph whose only degree-4 vertex is explicit, plus path padding.
  graph::GraphBuilder b(9);
  for (std::uint32_t leaf = 1; leaf <= 4; ++leaf) b.add_edge(0, leaf);
  b.add_edge(4, 5);
  b.add_edge(5, 6);
  b.add_edge(6, 7);
  b.add_edge(7, 8);
  const graph::Graph g = b.build();

  graph::GraphBuilder tb(5);
  for (std::uint32_t leaf = 1; leaf <= 4; ++leaf) tb.add_edge(0, leaf);
  const graph::Graph star = tb.build();

  core::WitnessOptions opt;
  opt.epsilon = 1e-3;
  opt.seed = 4;
  const auto image = core::extract_tree_embedding(g, star, opt);
  ASSERT_TRUE(image.has_value());
  ASSERT_EQ(image->size(), 5u);
  EXPECT_TRUE(core::validate_tree_embedding(g, star, *image));
  EXPECT_EQ((*image)[0], 0u);  // only vertex 0 has degree >= 4
}

TEST(WitnessPeel, ExtractTreeEmbeddingSpiderTemplate) {
  // Spider: center with three length-2 legs (7 vertices, max degree 3).
  graph::GraphBuilder tb(7);
  tb.add_edge(0, 1);
  tb.add_edge(1, 2);
  tb.add_edge(0, 3);
  tb.add_edge(3, 4);
  tb.add_edge(0, 5);
  tb.add_edge(5, 6);
  const graph::Graph spider = tb.build();

  const graph::Graph g = test_graph(17);
  core::WitnessOptions opt;
  opt.epsilon = 1e-3;
  opt.seed = 2;
  const auto image = core::extract_tree_embedding(g, spider, opt);
  if (!image.has_value())
    GTEST_SKIP() << "graph admits no spider embedding for this seed";
  EXPECT_TRUE(core::validate_tree_embedding(g, spider, *image));
}

// ---------------------------------------------------------------------------
// Peel gate: skipping oracle calls on residuals without a k-vertex
// component returns exactly the witness of the ungated peel
// ---------------------------------------------------------------------------

using graph::VertexId;

/// Forty disjoint small components (random trees of 1..8 vertices, the
/// larger ones with one chord): most residuals a peel probes here have no
/// component of k vertices.
graph::Graph small_components_graph(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::pair<VertexId, VertexId>> edges;
  VertexId n = 0;
  for (int c = 0; c < 40; ++c) {
    const VertexId size = 1 + static_cast<VertexId>(c % 8);
    for (auto [u, v] : graph::random_tree(size, rng).edge_list())
      edges.emplace_back(n + u, n + v);
    if (size >= 4) edges.emplace_back(n, n + size - 1);
    n += size;
  }
  graph::GraphBuilder b(n);
  for (auto [u, v] : edges) b.add_edge(u, v);
  return b.build();
}

std::vector<graph::Graph> gate_fixtures() {
  Xoshiro256 road_rng(62), ba_rng(63);
  return {fixtures::gnp(150, 4.0 / 149, 61),
          graph::road_network(144, 0.9, road_rng),
          graph::barabasi_albert(150, 2, ba_rng), small_components_graph(64)};
}

/// The first k vertices of a BFS that reaches k, or empty: a connected
/// k-set to draw a feasible motif or (j, z) cell from.
std::vector<VertexId> connected_sample(const graph::Graph& g, int k) {
  for (VertexId s = 0; s < g.num_vertices(); ++s) {
    std::vector<VertexId> order{s};
    std::set<VertexId> seen{s};
    for (std::size_t head = 0;
         head < order.size() && static_cast<int>(order.size()) < k; ++head)
      for (VertexId u : g.neighbors(order[head]))
        if (static_cast<int>(order.size()) < k && seen.insert(u).second)
          order.push_back(u);
    if (static_cast<int>(order.size()) == k) return order;
  }
  return {};
}

/// The tree template over [0, k) where vertex i hangs off (i - 1) / 3.
graph::Graph gate_template(int k) {
  graph::GraphBuilder b(static_cast<VertexId>(k));
  for (int i = 1; i < k; ++i)
    b.add_edge(static_cast<VertexId>((i - 1) / 3), static_cast<VertexId>(i));
  return b.build();
}

/// Calls the gate would skip, and how many of them the oracle said "yes"
/// on (must stay zero: the gate is exact only because the oracle is
/// one-sided).
struct GateTally {
  int skippable = 0;
  int skippable_yes = 0;
};

/// Ungated reference peel: public `chunked_peel` with the oracle run on every
/// call under the peels' seed schedule (opt.seed + 1 + call number), then
/// the same exact search on the survivors, mapped back to g's ids.
/// `oracle(sub, seed)` answers on a residual's induced subgraph and
/// `finish(sub)` searches the survivors' one; `sorted` sorts the mapped
/// witness (the set-valued peels return it sorted).
template <typename Oracle, typename Finish>
std::optional<std::vector<VertexId>> reference_peel(
    const graph::Graph& g, std::uint64_t seed, int size, bool sorted,
    GateTally& tally, Oracle oracle, Finish finish) {
  std::vector<bool> alive(g.num_vertices(), true);
  std::uint64_t call = 0;
  core::chunked_peel(
      g.num_vertices(),
      [&](const std::vector<VertexId>& keep) {
        const auto sub = graph::induced_subgraph(g, keep);
        const bool yes = oracle(sub, seed + 1 + (++call));
        std::vector<int> comp_size(sub.graph.num_vertices(), 0);
        int largest = 0;
        for (VertexId l : graph::connected_components(sub.graph))
          largest = std::max(largest, ++comp_size[l]);
        if (largest < size) {
          ++tally.skippable;
          if (yes) ++tally.skippable_yes;
        }
        return yes;
      },
      alive);
  std::vector<VertexId> survivors;
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    if (alive[v]) survivors.push_back(v);
  const auto sub = graph::induced_subgraph(g, survivors);
  auto local = finish(sub);
  if (!local) return std::nullopt;
  for (auto& v : *local) v = sub.to_original[v];
  if (sorted) std::sort(local->begin(), local->end());
  return local;
}

/// Oracle settings the peels are compared under: ε = 0.9 (one round) in
/// GF(2^4), where misses are common, so the survivors depend on every
/// call's seed; and the certify defaults (ε = 0.01, GF(2^8)).
struct GateCase {
  double eps;
  int field_bits;
};
constexpr GateCase kGateCases[] = {{0.9, 4}, {0.01, 8}};

/// Run `fn` with the field the peels use for `bits`.
template <typename Fn>
auto with_gate_field(int bits, Fn&& fn) {
  if (bits == 8) return fn(gf::GF256{});
  return fn(gf::GFSmall(bits));
}

TEST(WitnessPeelGate, KpathMatchesUngatedReference) {
  GateTally tally;
  int found = 0;
  for (const auto& g : gate_fixtures())
    for (int k = 3; k <= 5; ++k)
      for (const auto [eps, bits] : kGateCases) {
        core::WitnessOptions opt;
        opt.epsilon = eps;
        opt.field_bits = bits;
        opt.seed = 100 + static_cast<std::uint64_t>(k);
        const auto ref = reference_peel(
            g, opt.seed, k, false, tally,
            [&](const graph::InducedSubgraph& sub, std::uint64_t seed) {
              core::DetectOptions d;
              d.k = k;
              d.epsilon = eps;
              d.seed = seed;
              return with_gate_field(bits, [&](const auto& f) {
                return core::detect_kpath_seq(sub.graph, d, f).found;
              });
            },
            [&](const graph::InducedSubgraph& sub) {
              return core::exact_kpath(sub.graph, k);
            });
        const auto got = core::peel_kpath(g, k, opt);
        EXPECT_EQ(got, ref) << "n=" << g.num_vertices() << " k=" << k
                            << " eps=" << eps << " l=" << bits;
        if (got) {
          ++found;
          EXPECT_TRUE(core::validate_kpath(g, *got, k));
        }
      }
  EXPECT_GT(found, 0);
  EXPECT_GT(tally.skippable, 0);
  EXPECT_EQ(tally.skippable_yes, 0);
}

TEST(WitnessPeelGate, TreeEmbeddingMatchesUngatedReference) {
  GateTally tally;
  int found = 0;
  for (const auto& g : gate_fixtures())
    for (int k = 3; k <= 5; ++k)
      for (const auto [eps, bits] : kGateCases) {
        const graph::Graph tree = gate_template(k);
        const core::TreeDecomposition td(tree, 0);
        core::WitnessOptions opt;
        opt.epsilon = eps;
        opt.field_bits = bits;
        opt.seed = 200 + static_cast<std::uint64_t>(k);
        const auto ref = reference_peel(
            g, opt.seed, k, false, tally,
            [&](const graph::InducedSubgraph& sub, std::uint64_t seed) {
              core::DetectOptions d;
              d.k = k;
              d.epsilon = eps;
              d.seed = seed;
              return with_gate_field(bits, [&](const auto& f) {
                return core::detect_ktree_seq(sub.graph, td, d, f).found;
              });
            },
            [&](const graph::InducedSubgraph& sub) {
              return core::exact_tree_embedding(sub.graph, tree);
            });
        const auto got = core::peel_tree_embedding(g, tree, opt);
        EXPECT_EQ(got, ref) << "n=" << g.num_vertices() << " k=" << k
                            << " eps=" << eps << " l=" << bits;
        if (got) {
          ++found;
          EXPECT_TRUE(core::validate_tree_embedding(g, tree, *got));
        }
      }
  EXPECT_GT(found, 0);
  EXPECT_GT(tally.skippable, 0);
  EXPECT_EQ(tally.skippable_yes, 0);
}

TEST(WitnessPeelGate, MotifMatchesUngatedReference) {
  GateTally tally;
  int found = 0;
  for (const auto& g : gate_fixtures())
    for (int k = 3; k <= 5; ++k)
      for (const auto [eps, bits] : kGateCases) {
        const auto colors = fixtures::draw_colors(
            g.num_vertices(), 3, static_cast<std::uint64_t>(k));
        std::vector<std::uint32_t> motif;
        for (VertexId v : connected_sample(g, k)) motif.push_back(colors[v]);
        ASSERT_EQ(static_cast<int>(motif.size()), k);
        core::WitnessOptions opt;
        opt.epsilon = eps;
        opt.field_bits = bits;
        opt.seed = 300 + static_cast<std::uint64_t>(k);
        const auto ref = reference_peel(
            g, opt.seed, k, true, tally,
            [&](const graph::InducedSubgraph& sub, std::uint64_t seed) {
              std::vector<std::uint32_t> c;
              for (VertexId v : sub.to_original) c.push_back(colors[v]);
              core::DetectOptions d;
              d.k = k;
              d.epsilon = eps;
              d.seed = seed;
              return with_gate_field(bits, [&](const auto& f) {
                return core::detect_motif_seq(sub.graph, c, motif, d, f).found;
              });
            },
            [&](const graph::InducedSubgraph& sub) {
              std::vector<std::uint32_t> c;
              for (VertexId v : sub.to_original) c.push_back(colors[v]);
              return core::exact_motif(sub.graph, c, motif);
            });
        const auto got = core::peel_motif(g, colors, motif, opt);
        EXPECT_EQ(got, ref) << "n=" << g.num_vertices() << " k=" << k
                            << " eps=" << eps << " l=" << bits;
        if (got) {
          ++found;
          EXPECT_TRUE(core::validate_motif(g, colors, motif, *got));
        }
      }
  EXPECT_GT(found, 0);
  EXPECT_GT(tally.skippable, 0);
  EXPECT_EQ(tally.skippable_yes, 0);
}

TEST(WitnessPeelGate, ConnectedSubgraphMatchesUngatedReference) {
  GateTally tally;
  int found = 0;
  for (const auto& g : gate_fixtures())
    for (int j = 3; j <= 5; ++j)
      for (const auto [eps, bits] : kGateCases) {
        const auto w = fixtures::draw_weights(g.num_vertices(),
                                              static_cast<std::uint64_t>(j));
        const auto sample = connected_sample(g, j);
        ASSERT_EQ(static_cast<int>(sample.size()), j);
        std::uint32_t z = 0;
        for (VertexId v : sample) z += w[v];
        core::WitnessOptions opt;
        opt.epsilon = eps;
        opt.field_bits = bits;
        opt.seed = 400 + static_cast<std::uint64_t>(j);
        auto sub_weights = [&](const graph::InducedSubgraph& sub) {
          std::vector<std::uint32_t> sw;
          for (VertexId v : sub.to_original) sw.push_back(w[v]);
          return sw;
        };
        const auto ref = reference_peel(
            g, opt.seed, j, true, tally,
            [&](const graph::InducedSubgraph& sub, std::uint64_t seed) {
              core::ScanOptions s;
              s.k = j;
              s.epsilon = eps;
              s.seed = seed;
              s.watch_j = j;
              s.watch_z = z;
              return with_gate_field(bits, [&](const auto& f) {
                return core::detect_scan_seq(sub.graph, sub_weights(sub), s, f)
                    .at(j, z);
              });
            },
            [&](const graph::InducedSubgraph& sub) {
              return core::exact_connected_subgraph(sub.graph,
                                                    sub_weights(sub), j, z);
            });
        const auto got = core::peel_connected_subgraph(g, w, j, z, opt);
        EXPECT_EQ(got, ref) << "n=" << g.num_vertices() << " j=" << j
                            << " eps=" << eps << " l=" << bits;
        if (got) {
          ++found;
          EXPECT_TRUE(core::validate_connected_subgraph(g, w, j, z, *got));
        }
      }
  EXPECT_GT(found, 0);
  EXPECT_GT(tally.skippable, 0);
  EXPECT_EQ(tally.skippable_yes, 0);
}

// ---------------------------------------------------------------------------
// Restricted oracle: each peel call runs only on the residual's components
// of >= k vertices, hashed by residual index, and must give every round
// total of the oracle on the whole residual
// ---------------------------------------------------------------------------

/// Residuals to compare the two oracles on: the whole graph, then random
/// subsets at densities from sparse (mostly components below k) to dense.
std::vector<std::vector<VertexId>> gate_residuals(const graph::Graph& g,
                                                  std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::vector<VertexId>> out(1);
  for (VertexId v = 0; v < g.num_vertices(); ++v) out[0].push_back(v);
  for (std::uint64_t eighths : {1, 2, 4, 6, 7}) {
    std::vector<VertexId> keep;
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      if (rng.below(8) < eighths) keep.push_back(v);
    out.push_back(std::move(keep));
  }
  return out;
}

/// One comparison of the restricted oracle against the full one: residual
/// `full` of fixture `g`, and the pass's `restricted` subgraph with its
/// `ids` (null and empty when the pass leaves nothing), under one size,
/// gate case, kernel and seed.
struct RestrictCase {
  const graph::Graph& g;
  const graph::InducedSubgraph& full;
  const graph::InducedSubgraph* restricted;
  std::span<const VertexId> ids;
  int size;
  GateCase gate;
  core::Kernel kernel;
  std::uint64_t seed;

  [[nodiscard]] core::DetectOptions options() const {
    core::DetectOptions d;
    d.k = size;
    d.epsilon = gate.eps;
    d.seed = seed;
    d.kernel = kernel;
    return d;
  }
  [[nodiscard]] std::string where() const {
    return "n=" + std::to_string(full.graph.num_vertices()) +
           " k=" + std::to_string(size) + " eps=" + std::to_string(gate.eps) +
           " l=" + std::to_string(gate.field_bits) +
           " kernel=" + std::to_string(static_cast<int>(kernel));
  }
};

/// `values` (one per vertex of the fixture) on the vertices of `sub`.
std::vector<std::uint32_t> values_on(const graph::InducedSubgraph& sub,
                                     const std::vector<std::uint32_t>& values) {
  std::vector<std::uint32_t> out;
  for (VertexId v : sub.to_original) out.push_back(values[v]);
  return out;
}

/// Call `compare(RestrictCase)` for every fixture, size 3..5, gate case,
/// kernel and residual. Every kind of residual must occur: ones the pass
/// empties (every component below k), ones it leaves whole (no component
/// below k; the same graph) and ones it trims.
template <typename Compare>
void for_each_restriction(Compare compare) {
  int emptied = 0, whole = 0, trimmed = 0;
  std::uint64_t seed = 500;
  for (const auto& g : gate_fixtures()) {
    graph::ComponentPass pass(g);
    for (int size = 3; size <= 5; ++size)
      for (const GateCase gate : kGateCases)
        for (const auto kernel :
             {core::Kernel::kScalar, core::Kernel::kBitsliced})
          for (const auto& keep : gate_residuals(g, ++seed)) {
            pass.run(keep, static_cast<std::size_t>(size));
            const auto full = graph::induced_subgraph(g, keep);
            if (pass.vertices().empty()) {
              ++emptied;
              compare(RestrictCase{g, full, nullptr, {}, size, gate, kernel,
                                   seed});
              continue;
            }
            const auto restricted = graph::induced_subgraph(g, pass.vertices());
            if (pass.vertices() == keep) {
              ++whole;
              EXPECT_EQ(restricted.graph.edge_list(), full.graph.edge_list());
            } else {
              ++trimmed;
            }
            compare(RestrictCase{g, full, &restricted, pass.keep_index(),
                                 size, gate, kernel, seed});
          }
  }
  EXPECT_GT(emptied, 0);
  EXPECT_GT(whole, 0);
  EXPECT_GT(trimmed, 0);
}

/// Run `detect(graph, values, ids)` on the full residual and, when the pass
/// left anything, on the restricted one: the restricted result must equal
/// the full one round by round, and an emptied residual must be a "no" with
/// every round total zero. Returns whether the full oracle said "yes".
template <typename Detect>
bool expect_same_rounds(const RestrictCase& c,
                        const std::vector<std::uint32_t>& values,
                        Detect detect) {
  const core::DetectResult want =
      detect(c.full.graph, values_on(c.full, values), {});
  if (c.restricted == nullptr) {
    EXPECT_FALSE(want.found) << c.where();
    for (auto t : want.round_totals) EXPECT_EQ(t, 0u) << c.where();
    return want.found;
  }
  const core::DetectResult got =
      detect(c.restricted->graph, values_on(*c.restricted, values), c.ids);
  EXPECT_EQ(got.round_totals, want.round_totals) << c.where();
  EXPECT_EQ(got.found, want.found) << c.where();
  EXPECT_EQ(got.found_round, want.found_round) << c.where();
  return want.found;
}

TEST(RestrictedOracle, KpathMatchesTheFullResidual) {
  int yes = 0;
  for_each_restriction([&](const RestrictCase& c) {
    const std::vector<std::uint32_t> none(c.g.num_vertices(), 0);
    with_gate_field(c.gate.field_bits, [&](const auto& f) {
      yes += expect_same_rounds(
          c, none,
          [&](const graph::Graph& h, const std::vector<std::uint32_t>&,
              std::span<const VertexId> ids) {
            return core::detect_kpath_seq(h, c.options(), f, ids);
          });
    });
  });
  EXPECT_GT(yes, 0);
}

TEST(RestrictedOracle, KtreeMatchesTheFullResidual) {
  int yes = 0;
  for_each_restriction([&](const RestrictCase& c) {
    const std::vector<std::uint32_t> none(c.g.num_vertices(), 0);
    const core::TreeDecomposition td(gate_template(c.size), 0);
    with_gate_field(c.gate.field_bits, [&](const auto& f) {
      yes += expect_same_rounds(
          c, none,
          [&](const graph::Graph& h, const std::vector<std::uint32_t>&,
              std::span<const VertexId> ids) {
            return core::detect_ktree_seq(h, td, c.options(), f, ids);
          });
    });
  });
  EXPECT_GT(yes, 0);
}

TEST(RestrictedOracle, MotifMatchesTheFullResidual) {
  int yes = 0;
  for_each_restriction([&](const RestrictCase& c) {
    const auto colors = fixtures::draw_colors(
        c.g.num_vertices(), 3, static_cast<std::uint64_t>(c.size));
    std::vector<std::uint32_t> motif;
    for (int i = 0; i < c.size; ++i)
      motif.push_back(static_cast<std::uint32_t>(i % 3));
    with_gate_field(c.gate.field_bits, [&](const auto& f) {
      yes += expect_same_rounds(
          c, colors,
          [&](const graph::Graph& h, const std::vector<std::uint32_t>& col,
              std::span<const VertexId> ids) {
            return core::detect_motif_seq(h, col, motif, c.options(), f, ids);
          });
    });
  });
  EXPECT_GT(yes, 0);
}

TEST(RestrictedOracle, ConnectedSubgraphMatchesTheFullResidual) {
  int yes = 0;
  for_each_restriction([&](const RestrictCase& c) {
    const int j = c.size;
    const auto w = fixtures::draw_weights(c.g.num_vertices(),
                                          static_cast<std::uint64_t>(j));
    // Watch a cell mid-axis (weights are 0..3, so 1.5 per vertex).
    const auto z = static_cast<std::uint32_t>(3 * j / 2);
    core::ScanOptions s;
    s.k = j;
    s.epsilon = c.gate.eps;
    s.seed = c.seed;
    s.kernel = c.kernel;
    s.watch_j = j;
    s.watch_z = z;
    with_gate_field(c.gate.field_bits, [&](const auto& f) {
      const auto want =
          core::detect_scan_seq(c.full.graph, values_on(c.full, w), s, f);
      yes += want.at(j, z) ? 1 : 0;
      // Only size-j sets reach row j, and each lies in a component of >= j
      // vertices: the whole row agrees, the watched cell included, and a
      // cell above the restricted weight bound is unset on both sides.
      if (c.restricted == nullptr) {
        for (std::uint32_t cell = 0; cell <= want.max_weight; ++cell)
          EXPECT_FALSE(want.at(j, cell)) << c.where() << " z=" << cell;
        return;
      }
      const auto got = core::detect_scan_seq(
          c.restricted->graph, values_on(*c.restricted, w), s, f, c.ids);
      for (std::uint32_t cell = 0; cell <= want.max_weight; ++cell)
        EXPECT_EQ(got.at(j, cell), want.at(j, cell))
            << c.where() << " z=" << cell;
    });
  });
  EXPECT_GT(yes, 0);
}

}  // namespace
