// Chaos suite: deterministic fault injection, failure-aware collectives,
// and every detection engine's phase-group failover.
//
// The load-bearing claims (docs/RESILIENCE.md):
//  - injector decisions are pure hashes — same plan, same decisions;
//  - kills terminate a run with typed errors, never hangs;
//  - transient channel faults (drop / corrupt / delay) cost virtual time
//    but never data;
//  - the detection engine returns the bit-exact fault-free answer under
//    any plan that leaves at least one intact phase group.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <set>

#include "core/detect_par.hpp"
#include "core/scan2d.hpp"
#include "gf/gf256.hpp"
#include "gf/gfsmall.hpp"
#include "graph/digraph.hpp"
#include "graph/generators.hpp"
#include "partition/multilevel.hpp"
#include "partition/partition.hpp"
#include "runtime/comm.hpp"
#include "runtime/fault.hpp"
#include "util/rng.hpp"

namespace midas::runtime {
namespace {

// ---------------------------------------------------------------------------
// FaultInjector unit tests
// ---------------------------------------------------------------------------

TEST(FaultInjector, EmptyPlanIsDisarmed) {
  FaultInjector inj{FaultPlan{}};
  EXPECT_FALSE(inj.armed());
  EXPECT_FALSE(inj.should_kill(0, 100, 1.0));
  EXPECT_TRUE(inj.message_fate(0, 1, 7).clean());
}

TEST(FaultInjector, KillAtEventTriggersAtAndAfterThreshold) {
  FaultInjector inj{FaultPlan{}.kill_at_event(2, 5)};
  EXPECT_FALSE(inj.should_kill(2, 4, 0.0));
  EXPECT_TRUE(inj.should_kill(2, 5, 0.0));
  EXPECT_TRUE(inj.should_kill(2, 6, 0.0));
  EXPECT_FALSE(inj.should_kill(1, 99, 0.0)) << "other ranks unaffected";
}

TEST(FaultInjector, KillAtVclockTakesPrecedence) {
  FaultPlan plan;
  plan.kills.push_back({3, 1000, 2.5e-3});
  FaultInjector inj{plan};
  EXPECT_FALSE(inj.should_kill(3, 5000, 1e-3))
      << "event threshold ignored when a vclock trigger is set";
  EXPECT_TRUE(inj.should_kill(3, 0, 3e-3));
}

TEST(FaultInjector, MessageFateIsDeterministic) {
  FaultPlan plan;
  plan.seed = 99;
  plan.channels.push_back({-1, -1, 0.4, 0.2, 0.3, 2e-5});
  FaultInjector a{plan}, b{plan};
  for (std::uint64_t ev = 0; ev < 200; ++ev) {
    const MessageFate fa = a.message_fate(0, 1, ev);
    const MessageFate fb = b.message_fate(0, 1, ev);
    EXPECT_EQ(fa.drops, fb.drops);
    EXPECT_EQ(fa.corruptions, fb.corruptions);
    EXPECT_EQ(fa.delay_s, fb.delay_s);
  }
}

TEST(FaultInjector, FaultRatesTrackProbabilities) {
  FaultPlan plan;
  plan.channels.push_back({-1, -1, 0.3, 0.0, 0.0, 0.0});
  FaultInjector inj{plan};
  int dropped_any = 0;
  const int trials = 2000;
  for (int ev = 0; ev < trials; ++ev)
    if (inj.message_fate(0, 1, static_cast<std::uint64_t>(ev)).drops > 0)
      ++dropped_any;
  // First-attempt drop probability is 0.3; allow generous slack.
  EXPECT_GT(dropped_any, trials / 5);
  EXPECT_LT(dropped_any, trials / 2);
}

TEST(FaultInjector, ChannelFilterMatchesEndpoints) {
  FaultPlan plan;
  plan.channels.push_back({0, 1, 0.9, 0.0, 0.0, 0.0});
  FaultInjector inj{plan};
  bool any = false;
  for (std::uint64_t ev = 0; ev < 50; ++ev) {
    any = any || !inj.message_fate(0, 1, ev).clean();
    EXPECT_TRUE(inj.message_fate(1, 0, ev).clean()) << "reverse direction";
    EXPECT_TRUE(inj.message_fate(2, 3, ev).clean()) << "other channel";
  }
  EXPECT_TRUE(any);
}

// ---------------------------------------------------------------------------
// Kills at the runtime level
// ---------------------------------------------------------------------------

TEST(FaultRuntime, UnsupervisedKillThrowsTypedErrorInsteadOfHanging) {
  SpmdOptions opts;
  opts.faults.kill_at_event(1, 2);
  EXPECT_THROW(run_spmd(4, CostModel{}, opts,
                        [](Comm& c) {
                          std::vector<std::uint64_t> x{1};
                          for (int i = 0; i < 10; ++i)
                            c.allreduce_sum(std::span<std::uint64_t>(x));
                        }),
               RankKilledFault);
}

TEST(FaultRuntime, KillDuringCollectiveTerminatesPeersBlockedInIt) {
  // Rank 2 dies at its very first communication event — the collective all
  // other ranks are already blocked in. Before the world-abort propagation
  // this deadlocked; now the run terminates with the causal typed error.
  SpmdOptions opts;
  opts.faults.kill_at_event(2, 0);
  EXPECT_THROW(run_spmd(4, CostModel{}, opts,
                        [](Comm& c) { c.barrier(); }),
               FaultError);
}

TEST(FaultRuntime, SupervisedKillIsCapturedAndSurvivorsShrink) {
  SpmdOptions opts;
  opts.supervise = true;
  opts.faults.kill_at_event(1, 3);
  std::atomic<int> completed{0};
  auto res = run_spmd(4, CostModel{}, opts, [&](Comm& c) {
    c.set_fail_policy(FailPolicy::kShrink);
    std::vector<std::uint64_t> x{1};
    for (int i = 0; i < 6; ++i)
      c.allreduce_sum(std::span<std::uint64_t>(x));
    completed.fetch_add(1);
  });
  EXPECT_EQ(res.failed_ranks, (std::vector<int>{1}));
  EXPECT_FALSE(res.completed());
  EXPECT_TRUE(res.first_error);
  EXPECT_EQ(completed.load(), 3) << "the three survivors finish the run";
  EXPECT_THROW(std::rethrow_exception(res.first_error), RankKilledFault);
}

TEST(FaultRuntime, SupervisedNonFaultExceptionStillPropagates) {
  SpmdOptions opts;
  opts.supervise = true;
  EXPECT_THROW(run_spmd(2, CostModel{}, opts,
                        [](Comm& c) {
                          if (c.rank() == 1)
                            throw std::logic_error("a bug, not a fault");
                          c.set_fail_policy(FailPolicy::kShrink);
                          c.barrier();
                        }),
               std::logic_error);
}

TEST(FaultRuntime, RecvFromDeadSenderRaisesRankFailedError) {
  SpmdOptions opts;
  opts.supervise = true;
  opts.faults.kill_at_event(1, 0);  // rank 1 dies before its first send
  std::atomic<bool> observed{false};
  auto res = run_spmd(2, CostModel{}, opts, [&](Comm& c) {
    if (c.rank() == 1) {
      c.send_value(0, 0, 42);  // never reached: the kill fires at entry
    } else {
      try {
        (void)c.recv_value<int>(1, 0);
      } catch (const RankFailedError& e) {
        EXPECT_EQ(e.world_rank(), 1);
        observed.store(true);
      }
    }
  });
  EXPECT_TRUE(observed.load());
  EXPECT_EQ(res.failed_ranks, (std::vector<int>{1}));
}

TEST(FaultRuntime, ThrowPolicyRaisesOnCollectiveWithDeadMember) {
  SpmdOptions opts;
  opts.supervise = true;
  opts.faults.kill_at_event(3, 1);
  std::atomic<int> raised{0};
  auto res = run_spmd(4, CostModel{}, opts, [&](Comm& c) {
    c.barrier();  // everyone's first event; rank 3 dies at its second
    try {
      c.barrier();
      c.barrier();
    } catch (const RankFailedError& e) {
      EXPECT_EQ(e.world_rank(), 3);
      raised.fetch_add(1);
    }
  });
  EXPECT_EQ(raised.load(), 3);
  EXPECT_EQ(res.failed_ranks, (std::vector<int>{3}));
}

// ---------------------------------------------------------------------------
// Transient channel faults: time, not data
// ---------------------------------------------------------------------------

TEST(FaultChannel, DroppedMessagesArriveIntactButLate) {
  SpmdOptions clean;
  SpmdOptions faulty;
  faulty.faults.seed = 7;
  faulty.faults.with_channel({0, 1, 0.5, 0.0, 0.0, 0.0});
  auto body = [](Comm& c) {
    if (c.rank() == 0) {
      for (std::uint32_t i = 0; i < 32; ++i) c.send_value(1, 0, i);
    } else {
      for (std::uint32_t i = 0; i < 32; ++i)
        EXPECT_EQ(c.recv_value<std::uint32_t>(0, 0), i);
    }
    c.barrier();
  };
  auto a = run_spmd(2, CostModel{}, clean, body);
  auto b = run_spmd(2, CostModel{}, faulty, body);
  EXPECT_EQ(b.total.messages_dropped, b.total.retransmissions);
  EXPECT_GT(b.total.messages_dropped, 0u);
  EXPECT_GT(b.total.t_fault, 0.0);
  EXPECT_GT(b.makespan, a.makespan)
      << "retransmission timeouts must inflate the virtual clock";
  EXPECT_EQ(a.total.messages_received, b.total.messages_received);
}

TEST(FaultChannel, CorruptionIsDetectedByChecksumAndRecovered) {
  SpmdOptions opts;
  opts.faults.seed = 11;
  opts.faults.with_channel({-1, -1, 0.0, 0.5, 0.0, 0.0});
  auto res = run_spmd(2, CostModel{}, opts, [](Comm& c) {
    if (c.rank() == 0) {
      for (std::uint64_t i = 0; i < 32; ++i)
        c.send_value(1, 0, 0xABCD0000ull + i);
    } else {
      for (std::uint64_t i = 0; i < 32; ++i)
        EXPECT_EQ(c.recv_value<std::uint64_t>(0, 0), 0xABCD0000ull + i)
            << "payload must be the clean retransmitted copy";
    }
  });
  EXPECT_GT(res.total.messages_corrupted, 0u);
  EXPECT_GT(res.total.t_fault, 0.0);
}

TEST(FaultChannel, DelaysCountAndInflateClocks) {
  SpmdOptions opts;
  opts.faults.with_channel({0, 1, 0.0, 0.0, 1.0, 5e-4});
  auto res = run_spmd(2, CostModel{}, opts, [](Comm& c) {
    if (c.rank() == 0) {
      c.send_value(1, 0, 1);
    } else {
      (void)c.recv_value<int>(0, 0);
    }
    c.barrier();
  });
  EXPECT_EQ(res.total.messages_delayed, 1u);
  EXPECT_GE(res.makespan, 5e-4);
}

TEST(FaultChannel, FaultedRunsAreBitReproducible) {
  SpmdOptions opts;
  opts.faults.seed = 1234;
  opts.faults.with_channel({-1, -1, 0.2, 0.1, 0.2, 3e-5});
  auto body = [](Comm& c) {
    const int peer = 1 - c.rank();
    for (int i = 0; i < 16; ++i) {
      const auto got = c.sendrecv(
          peer, peer, 0,
          std::as_bytes(std::span<const int>(&i, 1)));
      int v = 0;
      std::memcpy(&v, got.data(), sizeof(v));
      EXPECT_EQ(v, i);
    }
  };
  auto a = run_spmd(2, CostModel{}, opts, body);
  auto b = run_spmd(2, CostModel{}, opts, body);
  EXPECT_EQ(a.vclocks, b.vclocks) << "identical plans, identical clocks";
  EXPECT_EQ(a.total.messages_dropped, b.total.messages_dropped);
  EXPECT_EQ(a.total.messages_corrupted, b.total.messages_corrupted);
  EXPECT_EQ(a.total.messages_delayed, b.total.messages_delayed);
}

TEST(FaultChannel, AlltoallvPayloadsSurviveHaloFaults) {
  SpmdOptions opts;
  opts.faults.seed = 5;
  opts.faults.with_channel({-1, -1, 0.3, 0.2, 0.2, 2e-5});
  auto res = run_spmd(4, CostModel{}, opts, [](Comm& c) {
    for (int repeat = 0; repeat < 8; ++repeat) {
      std::vector<std::vector<std::byte>> send(4);
      for (int d = 0; d < 4; ++d)
        send[static_cast<std::size_t>(d)].assign(
            16, static_cast<std::byte>(c.rank() * 4 + d));
      auto recv = c.alltoallv(send);
      for (int s = 0; s < 4; ++s)
        for (std::byte byte : recv[static_cast<std::size_t>(s)])
          EXPECT_EQ(byte, static_cast<std::byte>(s * 4 + c.rank()));
    }
  });
  EXPECT_GT(res.total.messages_dropped + res.total.messages_corrupted +
                res.total.messages_delayed,
            0u);
}

}  // namespace
}  // namespace midas::runtime

// ---------------------------------------------------------------------------
// Detection engine under faults: bit-exact failover
// ---------------------------------------------------------------------------

namespace midas::core {
namespace {

using runtime::ChannelFaults;
using runtime::FaultPlan;

MidasOptions chaos_opts(int n_ranks, int n1, std::uint32_t n2) {
  MidasOptions o;
  o.k = 4;
  o.epsilon = 0.05;
  o.seed = 77;
  o.n_ranks = n_ranks;
  o.n1 = n1;
  o.n2 = n2;
  // Run a fixed number of full rounds: with early exit a round-0 hit ends
  // the run before mid-run kill events are ever reached.
  o.max_rounds = 4;
  o.early_exit = false;
  return o;
}

struct EngineFixture {
  gf::GF256 f;
  graph::Graph g;
  partition::Partition part;

  explicit EngineFixture(int n1, bool dense = true) {
    Xoshiro256 rng(2024);
    g = dense ? graph::erdos_renyi_gnp(24, 0.25, rng)
              : graph::star_graph(24);  // no 4-path: answer must stay false
    part = partition::block_partition(g, n1);
  }
};

TEST(EngineFailover, WholeGroupLossKeepsAnswerBitExact) {
  EngineFixture fx(2);
  const MidasOptions base = chaos_opts(8, 2, 4);
  const auto clean = midas_kpath(fx.g, fx.part, base, fx.f);

  // Kill both members of phase group 1 (world ranks 2 and 3) mid-run.
  MidasOptions faulty = base;
  faulty.spmd.faults.kill_at_event(2, 9).kill_at_event(3, 14);
  const auto res = midas_kpath(fx.g, fx.part, faulty, fx.f);

  EXPECT_EQ(res.found, clean.found);
  EXPECT_EQ(res.found_round, clean.found_round);
  EXPECT_EQ(res.failed_ranks, (std::vector<int>{2, 3}));
}

TEST(EngineFailover, SingleRankLossDisablesItsGroupOnly) {
  EngineFixture fx(2);
  const MidasOptions base = chaos_opts(8, 2, 4);
  const auto clean = midas_kpath(fx.g, fx.part, base, fx.f);

  MidasOptions faulty = base;
  faulty.spmd.faults.kill_at_event(5, 7);
  const auto res = midas_kpath(fx.g, fx.part, faulty, fx.f);

  EXPECT_EQ(res.found, clean.found);
  EXPECT_EQ(res.found_round, clean.found_round);
  EXPECT_EQ(res.failed_ranks, (std::vector<int>{5}));
}

TEST(EngineFailover, KillEventSweepAlwaysBitExact) {
  // The kill lands at a different program point each time — before the
  // split, mid-halo-exchange, at the reduction — and the answer must never
  // change while at least one intact group survives.
  EngineFixture fx(2);
  const MidasOptions base = chaos_opts(8, 2, 4);
  const auto clean = midas_kpath(fx.g, fx.part, base, fx.f);
  for (std::uint64_t ev : {0ull, 1ull, 3ull, 7ull, 15ull, 40ull, 200ull}) {
    MidasOptions faulty = base;
    faulty.spmd.faults.kill_at_event(3, ev);
    const auto res = midas_kpath(fx.g, fx.part, faulty, fx.f);
    EXPECT_EQ(res.found, clean.found) << "kill at event " << ev;
    EXPECT_EQ(res.found_round, clean.found_round) << "kill at event " << ev;
  }
}

TEST(EngineFailover, WriterDeathNeverSilentlyLosesTheAnswer) {
  // Single phase group (n_ranks == n1): no intact replica exists, so a
  // kill must either surface as a typed FaultError (the survivor's next
  // vote observes the death) or land late enough that the agreed answer
  // is already recorded. What it must never do is complete cleanly with
  // a silently wrong all-zero answer — which is exactly what happened
  // when the designated round_found writer (rank 0) was killed inside
  // the very vote the surviving rank accepted: the reduction was done
  // and correct, but nobody left alive was allowed to record it.
  // The exact configuration the service chaos soak tripped over: one
  // round, early exit, and rank 0's 6th comm event is the acceptance vote.
  Xoshiro256 rng(1002);
  const graph::Graph g = graph::barabasi_albert(70, 3, rng);
  const auto part = partition::multilevel_partition(g, 2);
  const gf::GFSmall f(12);
  MidasOptions base;
  base.k = 4;
  base.seed = 20175;
  base.n_ranks = 2;
  base.n1 = 2;
  base.n2 = 16;
  base.max_rounds = 1;  // one round: the final vote IS the razor's edge
  base.kernel = Kernel::kScalar;
  const auto clean = midas_kpath(g, part, base, f);
  ASSERT_TRUE(clean.found);
  for (int rank = 0; rank < 2; ++rank) {
    for (std::uint64_t ev = 1; ev <= 12; ++ev) {
      MidasOptions faulty = base;
      faulty.spmd.faults.kill_at_event(rank, ev);
      try {
        const auto res = midas_kpath(g, part, faulty, f);
        EXPECT_EQ(res.found, clean.found)
            << "silent answer change: kill rank " << rank << " at " << ev
            << " failed_ranks=" << res.failed_ranks.size()
            << (res.failed_ranks.empty() ? -1 : res.failed_ranks[0]);
        EXPECT_EQ(res.found_round, clean.found_round)
            << "kill rank " << rank << " at " << ev;
      } catch (const runtime::FaultError&) {
        // Typed and retryable — the service layer's job, not a wrong answer.
      }
    }
  }
}

TEST(EngineFailover, VclockKillIsMaskedToo) {
  EngineFixture fx(2);
  const MidasOptions base = chaos_opts(8, 2, 4);
  const auto clean = midas_kpath(fx.g, fx.part, base, fx.f);
  MidasOptions faulty = base;
  faulty.spmd.faults.kill_at_vclock(6, clean.vtime / 3.0);
  const auto res = midas_kpath(fx.g, fx.part, faulty, fx.f);
  EXPECT_EQ(res.found, clean.found);
  EXPECT_EQ(res.found_round, clean.found_round);
  EXPECT_EQ(res.failed_ranks, (std::vector<int>{6}));
}

TEST(EngineFailover, HaloChannelFaultsNeverChangeTheAnswer) {
  EngineFixture fx(2);
  const MidasOptions base = chaos_opts(8, 2, 4);
  const auto clean = midas_kpath(fx.g, fx.part, base, fx.f);

  MidasOptions faulty = base;
  faulty.spmd.faults.seed = 31337;
  faulty.spmd.faults.with_channel({-1, -1, 0.10, 0.05, 0.10, 2e-5});
  const auto res = midas_kpath(fx.g, fx.part, faulty, fx.f);

  EXPECT_EQ(res.found, clean.found);
  EXPECT_EQ(res.found_round, clean.found_round);
  EXPECT_TRUE(res.failed_ranks.empty());
  EXPECT_GT(res.total_stats.messages_dropped +
                res.total_stats.messages_corrupted +
                res.total_stats.messages_delayed,
            0u)
      << "the plan must actually have fired";
  EXPECT_GT(res.vtime, clean.vtime)
      << "transient faults cost virtual time, never data";
}

TEST(EngineFailover, CombinedKillAndChannelFaults) {
  EngineFixture fx(2);
  const MidasOptions base = chaos_opts(8, 2, 4);
  const auto clean = midas_kpath(fx.g, fx.part, base, fx.f);
  MidasOptions faulty = base;
  faulty.spmd.faults.kill_at_event(0, 12);
  faulty.spmd.faults.with_channel({-1, -1, 0.08, 0.04, 0.08, 2e-5});
  const auto res = midas_kpath(fx.g, fx.part, faulty, fx.f);
  EXPECT_EQ(res.found, clean.found);
  EXPECT_EQ(res.found_round, clean.found_round);
  EXPECT_EQ(res.failed_ranks, (std::vector<int>{0}));
}

TEST(EngineFailover, NegativeAnswerIsPreservedToo) {
  EngineFixture fx(2, /*dense=*/false);
  MidasOptions base = chaos_opts(8, 2, 4);
  base.k = 5;  // a star has no 5-vertex path
  const auto clean = midas_kpath(fx.g, fx.part, base, fx.f);
  ASSERT_FALSE(clean.found);
  MidasOptions faulty = base;
  faulty.spmd.faults.kill_at_event(4, 6);
  const auto res = midas_kpath(fx.g, fx.part, faulty, fx.f);
  EXPECT_FALSE(res.found);
}

TEST(EngineFailover, SupervisedCleanRunMatchesUnsupervised) {
  EngineFixture fx(2);
  const MidasOptions base = chaos_opts(8, 2, 4);
  const auto clean = midas_kpath(fx.g, fx.part, base, fx.f);
  MidasOptions supervised = base;
  supervised.spmd.supervise = true;
  const auto res = midas_kpath(fx.g, fx.part, supervised, fx.f);
  EXPECT_EQ(res.found, clean.found);
  EXPECT_EQ(res.found_round, clean.found_round);
  EXPECT_TRUE(res.failed_ranks.empty());
}

TEST(EngineFailover, AllGroupsDeadIsATypedFailure) {
  EngineFixture fx(2);
  MidasOptions faulty = chaos_opts(4, 2, 4);  // two groups only
  faulty.spmd.faults.kill_at_event(0, 6).kill_at_event(2, 9);
  EXPECT_THROW((void)midas_kpath(fx.g, fx.part, faulty, fx.f),
               runtime::FaultError);
}

TEST(EngineFailover, SingleGroupConfigurationCannotFailOver) {
  EngineFixture fx(4);
  MidasOptions faulty = chaos_opts(4, 4, 4);  // one group of four
  faulty.spmd.faults.kill_at_event(1, 8);
  EXPECT_THROW((void)midas_kpath(fx.g, fx.part, faulty, fx.f),
               runtime::FaultError);
}

// ---------------------------------------------------------------------------
// Scan-statistics and tree-template drivers under faults. They fail over
// like k-path (EngineFailoverAll below); with a single phase group there
// is no replica, so a kill is a typed terminal error (never a hang).
// Transient channel faults must still cost time, not data.
// ---------------------------------------------------------------------------

TEST(EngineChaosScan, ChannelFaultsNeverChangeTheTable) {
  gf::GF256 f;
  Xoshiro256 rng(515);
  const graph::Graph g = graph::erdos_renyi_gnp(12, 0.25, rng);
  std::vector<std::uint32_t> w(g.num_vertices());
  for (auto& x : w) x = static_cast<std::uint32_t>(rng.below(3));
  const auto part = partition::block_partition(g, 2);
  MidasOptions base = chaos_opts(4, 2, 4);
  const auto clean = midas_scan(g, part, w, base, f);

  MidasOptions faulty = base;
  faulty.spmd.faults.seed = 404;
  faulty.spmd.faults.with_channel({-1, -1, 0.10, 0.05, 0.10, 2e-5});
  const auto res = midas_scan(g, part, w, faulty, f);

  ASSERT_EQ(res.table.max_weight, clean.table.max_weight);
  for (int j = 1; j <= base.k; ++j)
    for (std::uint32_t z = 0; z <= clean.table.max_weight; ++z)
      EXPECT_EQ(res.table.at(j, z), clean.table.at(j, z))
          << "j=" << j << " z=" << z;
  EXPECT_GT(res.total_stats.messages_dropped +
                res.total_stats.messages_corrupted +
                res.total_stats.messages_delayed,
            0u);
  EXPECT_GT(res.vtime, clean.vtime);
}

TEST(EngineChaosScan, KillTerminatesWithTypedErrorNotAHang) {
  gf::GF256 f;
  Xoshiro256 rng(616);
  const graph::Graph g = graph::erdos_renyi_gnp(12, 0.25, rng);
  std::vector<std::uint32_t> w(g.num_vertices(), 1);
  const auto part = partition::block_partition(g, 2);
  MidasOptions faulty = chaos_opts(2, 2, 4);  // one group: no replica
  faulty.spmd.faults.kill_at_event(1, 9);
  EXPECT_THROW((void)midas_scan(g, part, w, faulty, f),
               runtime::FaultError);
}

TEST(EngineChaosTree, ChannelFaultsNeverChangeTheAnswer) {
  gf::GF256 f;
  Xoshiro256 rng(717);
  const graph::Graph tmpl = graph::random_tree(4, rng);
  const TreeDecomposition td(tmpl, 0);
  const graph::Graph g = graph::erdos_renyi_gnp(18, 0.25, rng);
  const auto part = partition::block_partition(g, 2);
  MidasOptions base = chaos_opts(4, 2, 4);
  const auto clean = midas_ktree(g, part, td, base, f);

  MidasOptions faulty = base;
  faulty.spmd.faults.seed = 808;
  faulty.spmd.faults.with_channel({-1, -1, 0.10, 0.05, 0.10, 2e-5});
  const auto res = midas_ktree(g, part, td, faulty, f);

  EXPECT_EQ(res.found, clean.found);
  EXPECT_EQ(res.found_round, clean.found_round);
  EXPECT_TRUE(res.failed_ranks.empty());
  EXPECT_GT(res.vtime, clean.vtime);
}

TEST(EngineChaosTree, KillTerminatesWithTypedErrorNotAHang) {
  gf::GF256 f;
  Xoshiro256 rng(919);
  const graph::Graph tmpl = graph::random_tree(4, rng);
  const TreeDecomposition td(tmpl, 0);
  const graph::Graph g = graph::erdos_renyi_gnp(18, 0.25, rng);
  const auto part = partition::block_partition(g, 2);
  MidasOptions faulty = chaos_opts(2, 2, 4);  // one group: no replica
  faulty.spmd.faults.kill_at_event(1, 7);
  EXPECT_THROW((void)midas_ktree(g, part, td, faulty, f),
               runtime::FaultError);
}

// ---------------------------------------------------------------------------
// Watchdog: straggler classification and speculative re-execution
// ---------------------------------------------------------------------------

TEST(Watchdog, DeadlineFlagsStragglersWithoutChangingTheAnswer) {
  // Heavy delivery delays into phase group 1 (world ranks 2 and 3) make it
  // lag every collective; a deadline well below the induced lag must flag
  // it while the answer stays bit-exact (delays cost time, never data).
  EngineFixture fx(2);
  const MidasOptions base = chaos_opts(8, 2, 4);
  const auto clean = midas_kpath(fx.g, fx.part, base, fx.f);

  MidasOptions slow = base;
  slow.spmd.faults.with_channel({-1, 2, 0.0, 0.0, 1.0, 5e-4});
  slow.spmd.faults.with_channel({-1, 3, 0.0, 0.0, 1.0, 5e-4});
  slow.spmd.watchdog.deadline_s = 1e-4;
  const auto res = midas_kpath(fx.g, fx.part, slow, fx.f);

  EXPECT_EQ(res.found, clean.found);
  EXPECT_EQ(res.found_round, clean.found_round);
  EXPECT_TRUE(res.failed_ranks.empty());
  EXPECT_GT(res.total_stats.stragglers_flagged, 0u);
  EXPECT_GT(res.total_stats.t_straggle, 0.0);
  EXPECT_GT(res.vtime, clean.vtime);
}

TEST(Watchdog, SpeculationReexecutesStragglingGroupsBitExact) {
  // Same straggling group, but now the engine is allowed to vote the slow
  // group out and re-execute its phases on the fast replicas. The answer
  // must stay bit-exact — XOR accumulation is phase-order independent.
  EngineFixture fx(2);
  const MidasOptions base = chaos_opts(8, 2, 4);
  const auto clean = midas_kpath(fx.g, fx.part, base, fx.f);

  MidasOptions spec = base;
  spec.spmd.faults.with_channel({-1, 2, 0.0, 0.0, 1.0, 5e-4});
  spec.spmd.faults.with_channel({-1, 3, 0.0, 0.0, 1.0, 5e-4});
  spec.spmd.watchdog.deadline_s = 1e-4;
  spec.spmd.watchdog.speculate = true;
  const auto res = midas_kpath(fx.g, fx.part, spec, fx.f);

  EXPECT_EQ(res.found, clean.found);
  EXPECT_EQ(res.found_round, clean.found_round);
  EXPECT_TRUE(res.failed_ranks.empty());
  EXPECT_GT(res.total_stats.stragglers_flagged, 0u);
}

TEST(Watchdog, SpeculationToleratesEveryGroupBeingSlow) {
  // Delay deliveries into *all* ranks: every group lags, the vote has no
  // fast donors to shed work to, and the engine must fall back to normal
  // execution instead of dropping phases or deadlocking.
  EngineFixture fx(2);
  const MidasOptions base = chaos_opts(8, 2, 4);
  const auto clean = midas_kpath(fx.g, fx.part, base, fx.f);

  MidasOptions spec = base;
  spec.spmd.faults.with_channel({-1, -1, 0.0, 0.0, 1.0, 5e-4});
  spec.spmd.watchdog.deadline_s = 1e-4;
  spec.spmd.watchdog.speculate = true;
  const auto res = midas_kpath(fx.g, fx.part, spec, fx.f);

  EXPECT_EQ(res.found, clean.found);
  EXPECT_EQ(res.found_round, clean.found_round);
  EXPECT_TRUE(res.failed_ranks.empty());
}

TEST(Watchdog, SpeculationCombinedWithARealGroupLoss) {
  // One group is dead (kills) and another is merely slow: the failover
  // vote must hand both workloads to the remaining fast groups.
  EngineFixture fx(2);
  const MidasOptions base = chaos_opts(8, 2, 4);
  const auto clean = midas_kpath(fx.g, fx.part, base, fx.f);

  MidasOptions spec = base;
  spec.spmd.faults.kill_at_event(4, 9).kill_at_event(5, 9);  // group 2 dies
  spec.spmd.faults.with_channel({-1, 2, 0.0, 0.0, 1.0, 5e-4});
  spec.spmd.faults.with_channel({-1, 3, 0.0, 0.0, 1.0, 5e-4});
  spec.spmd.watchdog.deadline_s = 1e-4;
  spec.spmd.watchdog.speculate = true;
  const auto res = midas_kpath(fx.g, fx.part, spec, fx.f);

  EXPECT_EQ(res.found, clean.found);
  EXPECT_EQ(res.found_round, clean.found_round);
  EXPECT_EQ(res.failed_ranks, (std::vector<int>{4, 5}));
}

// ---------------------------------------------------------------------------
// Every engine fails over: one phase-engine skeleton, one failure protocol
// ---------------------------------------------------------------------------

/// What a run answered, flattened, and which ranks it lost.
struct Outcome {
  std::vector<int> answer;
  std::vector<int> failed_ranks;
  std::uint64_t stragglers_flagged = 0;
};

std::vector<int> flatten(const std::vector<std::vector<bool>>& table) {
  std::vector<int> out;
  for (const auto& row : table) out.insert(out.end(), row.begin(), row.end());
  return out;
}

/// The inputs of every distributed engine, over one two-part partition.
struct AllEngines {
  gf::GF256 f;
  graph::Graph g;
  partition::Partition part;
  graph::DiGraph dg;
  partition::Partition halves;
  graph::Graph tmpl;
  std::vector<std::uint32_t> weights, baseline, colors;

  AllEngines() {
    Xoshiro256 rng(2024);
    g = graph::erdos_renyi_gnp(16, 0.25, rng);
    part = partition::block_partition(g, 2);
    dg = graph::random_digraph(16, 40, rng);
    halves = {2, std::vector<int>(dg.num_vertices())};
    for (graph::VertexId v = 0; v < dg.num_vertices(); ++v)
      halves.owner[v] = v < dg.num_vertices() / 2 ? 0 : 1;
    tmpl = graph::random_tree(4, rng);
    for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
      weights.push_back(static_cast<std::uint32_t>(rng.below(3)));
      baseline.push_back(1 + static_cast<std::uint32_t>(rng.below(2)));
      colors.push_back(static_cast<std::uint32_t>(rng.below(2)));
    }
  }

  /// Run engine `name` (k = 4, motif {0, 1, 0, 1}, scan2d size cap 3).
  Outcome run(const std::string& name, const MidasOptions& o) const {
    Outcome out;
    auto decision = [&](const MidasResult& r) {
      out.answer = {r.found, r.found_round, r.rounds_run};
      out.failed_ranks = r.failed_ranks;
      out.stragglers_flagged = r.total_stats.stragglers_flagged;
    };
    if (name == "kpath") {
      decision(midas_kpath(g, part, o, f));
    } else if (name == "kpath_directed") {
      decision(midas_kpath_directed(dg, halves, o, f));
    } else if (name == "ktree") {
      decision(midas_ktree(g, part, TreeDecomposition(tmpl, 0), o, f));
    } else if (name == "motif") {
      decision(midas_motif(g, part, colors, {0, 1, 0, 1}, o, f));
    } else if (name == "scan") {
      const auto r = midas_scan(g, part, weights, o, f);
      out.answer = flatten(r.table.feasible);
      out.failed_ranks = r.failed_ranks;
      out.stragglers_flagged = r.total_stats.stragglers_flagged;
    } else if (name == "weighted") {
      const auto r = midas_weighted_kpath(g, part, weights, o, f);
      out.answer = flatten({r.feasible_weight});
      out.failed_ranks = r.failed_ranks;
      out.stragglers_flagged = r.total_stats.stragglers_flagged;
    } else {
      Scan2DOptions so;
      so.max_size = 3;
      so.max_baseline = 4;
      so.seed = o.seed;
      so.max_rounds = o.max_rounds;
      const auto r = midas_scan2d(g, part, baseline, weights, so, o, f);
      out.answer = flatten(r.feasible);
      out.failed_ranks = r.failed_ranks;
    }
    return out;
  }
};

const std::vector<std::string> kEngines = {
    "kpath", "kpath_directed", "ktree", "motif", "scan", "weighted",
    "scan2d"};

TEST(EngineFailoverAll, KillEventSweepOfOneGroupAlwaysBitExact) {
  // Kill each rank of phase group 1 (world ranks 2 and 3) at a sweep of
  // program points, in a two-group and a three-group geometry: every
  // engine must mask the loss and return the fault-free answer.
  const AllEngines fx;
  for (const int n_ranks : {4, 6}) {
    const MidasOptions base = chaos_opts(n_ranks, 2, 2);
    for (const auto& name : kEngines) {
      const Outcome clean = fx.run(name, base);
      ASSERT_TRUE(clean.failed_ranks.empty());
      for (const int rank : {2, 3})
        for (const std::uint64_t ev : {0ull, 1ull, 3ull, 7ull, 11ull, 16ull}) {
          MidasOptions faulty = base;
          faulty.spmd.faults.kill_at_event(rank, ev);
          const Outcome res = fx.run(name, faulty);
          const std::string where = name + " N=" + std::to_string(n_ranks) +
                                    " kill rank " + std::to_string(rank) +
                                    " at event " + std::to_string(ev);
          EXPECT_EQ(res.answer, clean.answer) << where;
          EXPECT_EQ(res.failed_ranks, std::vector<int>{rank}) << where;
        }
    }
  }
}

TEST(EngineFailoverAll, WholeGroupLossIsMaskedBitExact) {
  const AllEngines fx;
  const MidasOptions base = chaos_opts(6, 2, 2);
  for (const auto& name : kEngines) {
    MidasOptions faulty = base;
    faulty.spmd.faults.kill_at_event(4, 5).kill_at_event(5, 11);
    const Outcome res = fx.run(name, faulty);
    EXPECT_EQ(res.answer, fx.run(name, base).answer) << name;
    EXPECT_EQ(res.failed_ranks, (std::vector<int>{4, 5})) << name;
  }
}

TEST(EngineFailoverAll, EveryGroupLostIsATypedFailure) {
  const AllEngines fx;
  for (const auto& name : kEngines) {
    MidasOptions faulty = chaos_opts(4, 2, 2);
    faulty.spmd.faults.kill_at_event(0, 6).kill_at_event(2, 9);
    EXPECT_THROW((void)fx.run(name, faulty), runtime::FaultError) << name;
  }
}

TEST(Watchdog, SpeculationIsBitExactForTreeAndScan) {
  // The straggling-group setup of SpeculationReexecutesStragglingGroups-
  // BitExact, on the tree and scan engines: the slow group's phases move
  // to the fast replicas and the answer does not change.
  const AllEngines fx;
  const MidasOptions base = chaos_opts(8, 2, 2);
  for (const std::string name : {"ktree", "scan"}) {
    const Outcome clean = fx.run(name, base);
    MidasOptions spec = base;
    spec.spmd.faults.with_channel({-1, 2, 0.0, 0.0, 1.0, 5e-4});
    spec.spmd.faults.with_channel({-1, 3, 0.0, 0.0, 1.0, 5e-4});
    spec.spmd.watchdog.deadline_s = 1e-4;
    spec.spmd.watchdog.speculate = true;
    const Outcome res = fx.run(name, spec);
    EXPECT_EQ(res.answer, clean.answer) << name;
    EXPECT_TRUE(res.failed_ranks.empty()) << name;
    EXPECT_GT(res.stragglers_flagged, 0u) << name;
  }
}

TEST(EngineFailover, FailoverPhaseAssignmentIsDeterministicAndComplete) {
  const Schedule s = make_schedule(4, 0.05, 8, 2, 2);  // 8 phases, 4 groups
  const std::vector<int> dead{1, 3};
  const std::vector<int> intact{0, 2};
  std::set<std::uint64_t> covered;
  for (int g : intact) {
    const auto extra = failover_phases(s, dead, intact, g);
    for (std::uint64_t p : extra) {
      EXPECT_TRUE(covered.insert(p).second)
          << "phase " << p << " assigned twice";
    }
  }
  // Exactly the dead groups' phases are covered, each once.
  std::set<std::uint64_t> expected;
  for (std::uint64_t p = 0; p < s.phases(); ++p)
    if (static_cast<int>(p % 4) == 1 || static_cast<int>(p % 4) == 3)
      expected.insert(p);
  EXPECT_EQ(covered, expected);
  EXPECT_TRUE(failover_phases(s, dead, intact, 1).empty())
      << "dead groups are never assigned work";
}

}  // namespace
}  // namespace midas::core
