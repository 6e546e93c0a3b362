// Checkpoint/restart: snapshot format, the rotating store, and bit-exact
// resume of every detection driver.
//
// The load-bearing claims (docs/RESILIENCE.md):
//  - snapshots are CRC-guarded and atomically published; corruption or
//    truncation is a typed CheckpointError, and the store falls back to
//    the previous good snapshot instead of an unrecoverable run;
//  - the snapshot rendezvous is charge-free — enabling checkpoints never
//    changes virtual clocks, results, or the fault schedule;
//  - resuming from ANY snapshot a run ever wrote (round boundaries and
//    mid-round wave snapshots alike) reproduces the uninterrupted run's
//    result and virtual clocks bit for bit;
//  - a snapshot written by a different configuration is rejected, never
//    silently restored.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/detect_par.hpp"
#include "core/errors.hpp"
#include "gf/gf256.hpp"
#include "graph/generators.hpp"
#include "partition/partition.hpp"
#include "runtime/checkpoint.hpp"
#include "util/rng.hpp"

namespace fs = std::filesystem;

namespace {

/// Empty per-test scratch directory under the system temp root.
std::string fresh_dir(const std::string& name) {
  const fs::path p =
      fs::temp_directory_path() / ("midas_test_checkpoint_" + name);
  fs::remove_all(p);
  fs::create_directories(p);
  return p.string();
}

}  // namespace

// ---------------------------------------------------------------------------
// Snapshot format and store
// ---------------------------------------------------------------------------

namespace midas::runtime {
namespace {

RoundCheckpoint sample_checkpoint() {
  RoundCheckpoint ck;
  ck.config_hash = 0xDEADBEEFCAFEF00Dull;
  ck.next_round = 3;
  ck.phase_waves_done = 5;
  ck.driver_state = {1, 0, 1, 0};
  ck.accum = {{0x11, 0x22}, {0x33}};
  ck.vclocks = {1.5, 2.25};
  ck.events = {10, 20};
  CommStats s0{}, s1{};
  s0.messages_sent = 7;
  s0.t_compute = 0.125;
  s1.bytes_received = 4096;
  s1.stragglers_flagged = 2;
  ck.stats = {s0, s1};
  ck.rng_state = {1, 2, 3, 4};
  return ck;
}

void expect_checkpoints_equal(const RoundCheckpoint& a,
                              const RoundCheckpoint& b) {
  EXPECT_EQ(a.config_hash, b.config_hash);
  EXPECT_EQ(a.next_round, b.next_round);
  EXPECT_EQ(a.phase_waves_done, b.phase_waves_done);
  EXPECT_EQ(a.driver_state, b.driver_state);
  EXPECT_EQ(a.accum, b.accum);
  EXPECT_EQ(a.vclocks, b.vclocks);
  EXPECT_EQ(a.events, b.events);
  ASSERT_EQ(a.stats.size(), b.stats.size());
  for (std::size_t i = 0; i < a.stats.size(); ++i)
    EXPECT_EQ(std::memcmp(&a.stats[i], &b.stats[i], sizeof(CommStats)), 0)
        << "stats entry " << i;
  EXPECT_EQ(a.rng_state, b.rng_state);
}

TEST(CheckpointFormat, Crc32MatchesTheIeeeReferenceVector) {
  const std::string check = "123456789";
  const auto span = std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(check.data()), check.size());
  EXPECT_EQ(crc32(span), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
}

TEST(CheckpointFormat, SerializeDeserializeRoundTripsEveryField) {
  const RoundCheckpoint ck = sample_checkpoint();
  const auto payload = serialize(ck);
  expect_checkpoints_equal(deserialize(payload), ck);
}

TEST(CheckpointFormat, TruncationAtEveryOffsetIsATypedError) {
  const auto payload = serialize(sample_checkpoint());
  for (std::size_t len = 0; len < payload.size(); ++len) {
    EXPECT_THROW(
        (void)deserialize(std::span<const std::uint8_t>(payload.data(), len)),
        CheckpointError)
        << "prefix of " << len << " bytes must not parse";
  }
  auto padded = payload;
  padded.push_back(0);
  EXPECT_THROW((void)deserialize(padded), CheckpointError)
      << "trailing garbage must not parse";
}

TEST(CheckpointStoreTest, WriteLoadLatestAndRotation) {
  const std::string dir = fresh_dir("store_rotation");
  CheckpointStore store(dir, /*keep=*/2);
  RoundCheckpoint ck = sample_checkpoint();
  for (std::uint32_t r = 1; r <= 3; ++r) {
    ck.next_round = r;
    store.write(ck);
  }
  EXPECT_EQ(store.snapshots().size(), 2u) << "keep=2 prunes the oldest";
  const auto latest = store.load_latest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->next_round, 3u);
}

TEST(CheckpointStoreTest, SequenceNumbersSurviveReopening) {
  const std::string dir = fresh_dir("store_reopen");
  RoundCheckpoint ck = sample_checkpoint();
  {
    CheckpointStore store(dir, 4);
    ck.next_round = 1;
    store.write(ck);
  }
  CheckpointStore reopened(dir, 4);
  ck.next_round = 2;
  reopened.write(ck);
  const auto latest = reopened.load_latest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->next_round, 2u)
      << "a reopened store must number past existing snapshots";
  EXPECT_EQ(reopened.snapshots().size(), 2u);
}

TEST(CheckpointStoreTest, CorruptNewestFallsBackToPreviousGood) {
  const std::string dir = fresh_dir("store_fallback");
  CheckpointStore store(dir, 4);
  RoundCheckpoint ck = sample_checkpoint();
  ck.next_round = 1;
  store.write(ck);
  ck.next_round = 2;
  const std::string newest = store.write(ck);

  // Flip one payload byte: the CRC must reject the file.
  {
    std::fstream f(newest, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(30);
    f.put('\xFF');
  }
  EXPECT_THROW((void)CheckpointStore::load_file(newest), CheckpointError);
  auto latest = store.load_latest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->next_round, 1u) << "fall back past the corrupt file";

  // Truncate it instead: same typed rejection, same fallback.
  fs::resize_file(newest, 20);
  EXPECT_THROW((void)CheckpointStore::load_file(newest), CheckpointError);
  latest = store.load_latest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->next_round, 1u);
}

TEST(CheckpointStoreTest, ForeignFilesAreIgnored) {
  const std::string dir = fresh_dir("store_foreign");
  {
    std::ofstream(dir + "/README.txt") << "not a snapshot";
    std::ofstream(dir + "/ckpt-notanumber.mck") << "nor this";
    std::ofstream(dir + "/ckpt-000000000009.tmp") << "torn temp file";
  }
  CheckpointStore store(dir, 2);
  EXPECT_TRUE(store.snapshots().empty());
  EXPECT_FALSE(store.load_latest().has_value());
  RoundCheckpoint ck = sample_checkpoint();
  store.write(ck);
  EXPECT_EQ(store.snapshots().size(), 1u);
  ASSERT_TRUE(store.load_latest().has_value());
}

}  // namespace
}  // namespace midas::runtime

// ---------------------------------------------------------------------------
// RNG stream positions are restorable (carried in snapshots)
// ---------------------------------------------------------------------------

namespace midas {
namespace {

TEST(RngState, Xoshiro256StateRoundTripResumesTheExactSequence) {
  Xoshiro256 rng(42);
  for (int i = 0; i < 37; ++i) (void)rng();  // advance to a mid-stream point
  const Xoshiro256::state_type saved = rng.state();
  std::vector<std::uint64_t> expected(64);
  for (auto& v : expected) v = rng();

  Xoshiro256 resumed(7);  // different seed: state must fully overwrite it
  resumed.set_state(saved);
  for (std::uint64_t v : expected) EXPECT_EQ(resumed(), v);
}

TEST(RngState, SplitMix64StateRoundTrip) {
  SplitMix64 rng(9);
  (void)rng.next();
  const std::uint64_t saved = rng.state();
  const std::uint64_t next = rng.next();
  SplitMix64 resumed(123);
  resumed.set_state(saved);
  EXPECT_EQ(resumed.next(), next);
}

}  // namespace
}  // namespace midas

// ---------------------------------------------------------------------------
// Engine-level checkpoint/resume
// ---------------------------------------------------------------------------

namespace midas::core {
namespace {

/// Snapshot files of `dir`, oldest first (CheckpointStore lists newest
/// first; reopening the store does not disturb the files).
std::vector<std::string> snapshots_oldest_first(const std::string& dir) {
  runtime::CheckpointStore store(dir);
  auto files = store.snapshots();
  std::reverse(files.begin(), files.end());
  return files;
}

/// Fresh directory holding only the first `count` snapshots — the on-disk
/// state of a run that died right after publishing snapshot `count`.
std::string prefix_dir(const std::string& name,
                       const std::vector<std::string>& files,
                       std::size_t count) {
  const std::string dir = fresh_dir(name);
  for (std::size_t i = 0; i < count; ++i) {
    const fs::path src = files[i];
    fs::copy_file(src, fs::path(dir) / src.filename());
  }
  return dir;
}

MidasOptions ck_opts(std::uint64_t seed = 77) {
  MidasOptions o;
  o.k = 4;
  o.epsilon = 0.05;
  o.seed = seed;
  o.n_ranks = 4;
  o.n1 = 2;
  o.n2 = 4;
  // Fixed full-length runs: early exit would end a lucky run before any
  // snapshot cadence is reached.
  o.max_rounds = 4;
  o.early_exit = false;
  return o;
}

struct EngineFixture {
  gf::GF256 f;
  graph::Graph g;
  partition::Partition part;

  EngineFixture() {
    Xoshiro256 rng(2024);
    g = graph::erdos_renyi_gnp(24, 0.25, rng);
    part = partition::block_partition(g, 2);
  }
};

TEST(CheckpointEngine, SnapshotsAreChargeFreeAndAnswerPreserving) {
  EngineFixture fx;
  MidasOptions base = ck_opts();
  base.n2 = 1;  // 16 phases over 2 groups = 8 waves/round
  const auto clean = midas_kpath(fx.g, fx.part, base, fx.f);

  MidasOptions ck = base;
  ck.checkpoint.dir = fresh_dir("kpath_chargefree");
  ck.checkpoint.every_rounds = 1;
  ck.checkpoint.every_waves = 3;
  ck.checkpoint.keep = 64;
  const auto res = midas_kpath(fx.g, fx.part, ck, fx.f);

  EXPECT_EQ(res.found, clean.found);
  EXPECT_EQ(res.found_round, clean.found_round);
  EXPECT_EQ(res.vtime, clean.vtime)
      << "the snapshot rendezvous must be charge-free";
  EXPECT_EQ(res.vclocks, clean.vclocks);
  EXPECT_EQ(res.resumed_from_round, -1);

  // Wave snapshots at waves 3 and 6 of each of the 4 rounds, plus round
  // snapshots after rounds 1..3.
  EXPECT_EQ(snapshots_oldest_first(ck.checkpoint.dir).size(), 4u * 2u + 3u);
}

TEST(CheckpointEngine, ResumeFromEverySnapshotIsBitExact) {
  // The tentpole property test: simulate dying right after *each* snapshot
  // the run ever published — round boundaries and mid-round wave points —
  // and demand the resumed run reproduce the uninterrupted one exactly.
  EngineFixture fx;
  MidasOptions base = ck_opts(91);
  base.n2 = 1;  // 8 waves/round so mid-round resume points exist
  const auto clean = midas_kpath(fx.g, fx.part, base, fx.f);

  MidasOptions ck = base;
  ck.checkpoint.dir = fresh_dir("kpath_sweep_src");
  ck.checkpoint.every_rounds = 1;
  ck.checkpoint.every_waves = 3;
  ck.checkpoint.keep = 64;
  (void)midas_kpath(fx.g, fx.part, ck, fx.f);
  const auto files = snapshots_oldest_first(ck.checkpoint.dir);
  ASSERT_EQ(files.size(), 11u);

  for (std::size_t kill = 1; kill <= files.size(); ++kill) {
    MidasOptions r = ck;
    r.checkpoint.dir =
        prefix_dir("kpath_sweep_" + std::to_string(kill), files, kill);
    r.checkpoint.resume = true;
    const auto res = midas_kpath(fx.g, fx.part, r, fx.f);
    EXPECT_EQ(res.found, clean.found) << "kill point " << kill;
    EXPECT_EQ(res.found_round, clean.found_round) << "kill point " << kill;
    EXPECT_EQ(res.vtime, clean.vtime) << "kill point " << kill;
    EXPECT_EQ(res.vclocks, clean.vclocks) << "kill point " << kill;
    EXPECT_GE(res.resumed_from_round, 0) << "kill point " << kill;
  }
}

TEST(CheckpointEngine, KillAndResumeReproducesTheUninterruptedRun) {
  // Real kills this time: both phase groups die mid-run (a total failure
  // failover cannot mask), the invocation ends with the typed fault, and a
  // second invocation resumes from disk. Both runs are supervised so the
  // snapshot fingerprint — which covers the execution mode — matches.
  EngineFixture fx;
  MidasOptions base = ck_opts(91);
  base.spmd.supervise = true;
  const auto clean = midas_kpath(fx.g, fx.part, base, fx.f);

  for (std::uint64_t ev : {3ull, 9ull, 13ull, 21ull, 29ull}) {
    const std::string dir = fresh_dir("kpath_kill_" + std::to_string(ev));
    MidasOptions doomed = base;
    doomed.checkpoint.dir = dir;
    doomed.checkpoint.every_rounds = 1;
    doomed.checkpoint.keep = 64;
    doomed.spmd.faults.kill_at_event(1, ev).kill_at_event(2, ev);
    EXPECT_THROW((void)midas_kpath(fx.g, fx.part, doomed, fx.f),
                 runtime::FaultError)
        << "kill at event " << ev;

    MidasOptions r = base;
    r.checkpoint.dir = dir;
    r.checkpoint.every_rounds = 1;
    r.checkpoint.keep = 64;
    r.checkpoint.resume = true;
    const auto res = midas_kpath(fx.g, fx.part, r, fx.f);
    EXPECT_EQ(res.found, clean.found) << "kill at event " << ev;
    EXPECT_EQ(res.found_round, clean.found_round) << "kill at event " << ev;
    EXPECT_EQ(res.vtime, clean.vtime) << "kill at event " << ev;
    EXPECT_EQ(res.vclocks, clean.vclocks) << "kill at event " << ev;
    EXPECT_TRUE(res.failed_ranks.empty());
  }
}

TEST(CheckpointEngine, CorruptNewestSnapshotFallsBackToPreviousGood) {
  EngineFixture fx;
  const MidasOptions base = ck_opts(13);
  const auto clean = midas_kpath(fx.g, fx.part, base, fx.f);

  MidasOptions ck = base;
  ck.checkpoint.dir = fresh_dir("kpath_corrupt");
  ck.checkpoint.every_rounds = 1;
  ck.checkpoint.keep = 64;
  (void)midas_kpath(fx.g, fx.part, ck, fx.f);
  const auto files = snapshots_oldest_first(ck.checkpoint.dir);
  ASSERT_GE(files.size(), 2u);
  fs::resize_file(files.back(), 20);  // tear the newest snapshot

  MidasOptions r = ck;
  r.checkpoint.resume = true;
  const auto res = midas_kpath(fx.g, fx.part, r, fx.f);
  EXPECT_EQ(res.found, clean.found);
  EXPECT_EQ(res.found_round, clean.found_round);
  EXPECT_EQ(res.vtime, clean.vtime);
  EXPECT_GE(res.resumed_from_round, 0)
      << "the previous good snapshot must still resume the run";
}

TEST(CheckpointEngine, MismatchedConfigurationIsRejected) {
  EngineFixture fx;
  MidasOptions ck = ck_opts(7);
  ck.checkpoint.dir = fresh_dir("kpath_mismatch");
  ck.checkpoint.every_rounds = 1;
  ck.checkpoint.keep = 64;
  (void)midas_kpath(fx.g, fx.part, ck, fx.f);

  MidasOptions r = ck;
  r.checkpoint.resume = true;
  r.seed = 8;
  EXPECT_THROW((void)midas_kpath(fx.g, fx.part, r, fx.f),
               runtime::CheckpointError)
      << "a different seed invalidates the snapshot";
  r.seed = 7;
  r.n2 = 8;
  EXPECT_THROW((void)midas_kpath(fx.g, fx.part, r, fx.f),
               runtime::CheckpointError)
      << "a different batch width invalidates the snapshot";

  r.n2 = 4;  // sanity: the unmodified configuration resumes fine
  const auto res = midas_kpath(fx.g, fx.part, r, fx.f);
  EXPECT_GE(res.resumed_from_round, 0);
}

TEST(CheckpointEngine, InvalidCheckpointConfigIsATypedOptionsError) {
  EngineFixture fx;
  MidasOptions o = ck_opts();
  o.checkpoint.dir = fresh_dir("kpath_badcfg");
  o.checkpoint.every_rounds = 0;
  EXPECT_THROW((void)midas_kpath(fx.g, fx.part, o, fx.f),
               InvalidOptionsError);
  o.checkpoint.every_rounds = 1;
  o.checkpoint.keep = 0;
  EXPECT_THROW((void)midas_kpath(fx.g, fx.part, o, fx.f),
               InvalidOptionsError);
}

TEST(CheckpointEngine, CallerRngStateRidesInEverySnapshot) {
  EngineFixture fx;
  Xoshiro256 rng(5);
  for (int i = 0; i < 11; ++i) (void)rng();
  const Xoshiro256::state_type state = rng.state();

  MidasOptions ck = ck_opts(3);
  ck.checkpoint.dir = fresh_dir("kpath_rng");
  ck.checkpoint.every_rounds = 1;
  ck.checkpoint.rng_state.assign(state.begin(), state.end());
  (void)midas_kpath(fx.g, fx.part, ck, fx.f);

  runtime::CheckpointStore store(ck.checkpoint.dir);
  const auto latest = store.load_latest();
  ASSERT_TRUE(latest.has_value());
  ASSERT_EQ(latest->rng_state.size(), state.size());
  Xoshiro256 restored(999);
  Xoshiro256::state_type s{};
  std::copy(latest->rng_state.begin(), latest->rng_state.end(), s.begin());
  restored.set_state(s);
  EXPECT_EQ(restored(), rng()) << "the restart continues the caller stream";
}

// -- the other drivers ------------------------------------------------------

TEST(CheckpointEngine, KTreeResumeIsBitExact) {
  gf::GF256 f;
  Xoshiro256 rng(321);
  const graph::Graph tmpl = graph::random_tree(4, rng);
  const TreeDecomposition td(tmpl, 0);
  const graph::Graph g = graph::erdos_renyi_gnp(20, 0.2, rng);
  const auto part = partition::block_partition(g, 2);
  const MidasOptions base = ck_opts(55);
  const auto clean = midas_ktree(g, part, td, base, f);

  MidasOptions ck = base;
  ck.checkpoint.dir = fresh_dir("ktree_resume_src");
  ck.checkpoint.every_rounds = 1;
  ck.checkpoint.keep = 64;
  (void)midas_ktree(g, part, td, ck, f);
  const auto files = snapshots_oldest_first(ck.checkpoint.dir);
  ASSERT_GE(files.size(), 2u);

  for (std::size_t kill = 1; kill <= files.size(); ++kill) {
    MidasOptions r = ck;
    r.checkpoint.dir =
        prefix_dir("ktree_resume_" + std::to_string(kill), files, kill);
    r.checkpoint.resume = true;
    const auto res = midas_ktree(g, part, td, r, f);
    EXPECT_EQ(res.found, clean.found) << "kill point " << kill;
    EXPECT_EQ(res.found_round, clean.found_round) << "kill point " << kill;
    EXPECT_EQ(res.vtime, clean.vtime) << "kill point " << kill;
    EXPECT_EQ(res.vclocks, clean.vclocks) << "kill point " << kill;
    EXPECT_GE(res.resumed_from_round, 0) << "kill point " << kill;
  }
}

TEST(CheckpointEngine, ScanResumeIsBitExact) {
  gf::GF256 f;
  Xoshiro256 rng(606);
  const graph::Graph g = graph::erdos_renyi_gnp(12, 0.25, rng);
  std::vector<std::uint32_t> w(g.num_vertices());
  for (auto& x : w) x = static_cast<std::uint32_t>(rng.below(3));
  const auto part = partition::block_partition(g, 2);
  MidasOptions base = ck_opts(66);
  base.max_rounds = 3;
  const auto clean = midas_scan(g, part, w, base, f);

  MidasOptions ck = base;
  ck.checkpoint.dir = fresh_dir("scan_resume_src");
  ck.checkpoint.every_rounds = 1;
  ck.checkpoint.keep = 64;
  (void)midas_scan(g, part, w, ck, f);
  const auto files = snapshots_oldest_first(ck.checkpoint.dir);
  ASSERT_GE(files.size(), 2u);

  for (std::size_t kill = 1; kill <= files.size(); ++kill) {
    MidasOptions r = ck;
    r.checkpoint.dir =
        prefix_dir("scan_resume_" + std::to_string(kill), files, kill);
    r.checkpoint.resume = true;
    const auto res = midas_scan(g, part, w, r, f);
    EXPECT_EQ(res.vtime, clean.vtime) << "kill point " << kill;
    EXPECT_GE(res.resumed_from_round, 0) << "kill point " << kill;
    ASSERT_EQ(res.table.max_weight, clean.table.max_weight);
    for (int j = 1; j <= base.k; ++j)
      for (std::uint32_t z = 0; z <= clean.table.max_weight; ++z)
        EXPECT_EQ(res.table.at(j, z), clean.table.at(j, z))
            << "kill point " << kill << " j=" << j << " z=" << z;
  }
}

TEST(CheckpointEngine, WeightedKPathResumeIsBitExact) {
  gf::GF256 f;
  Xoshiro256 rng(4141);
  const graph::Graph g = graph::erdos_renyi_gnp(14, 0.3, rng);
  std::vector<std::uint32_t> w(g.num_vertices());
  for (auto& x : w) x = static_cast<std::uint32_t>(rng.below(3));
  const auto part = partition::block_partition(g, 2);
  MidasOptions base = ck_opts(88);
  base.max_rounds = 3;
  const auto clean = midas_weighted_kpath(g, part, w, base, f);

  MidasOptions ck = base;
  ck.checkpoint.dir = fresh_dir("wkpath_resume_src");
  ck.checkpoint.every_rounds = 1;
  ck.checkpoint.keep = 64;
  (void)midas_weighted_kpath(g, part, w, ck, f);
  const auto files = snapshots_oldest_first(ck.checkpoint.dir);
  ASSERT_GE(files.size(), 2u);

  for (std::size_t kill = 1; kill <= files.size(); ++kill) {
    MidasOptions r = ck;
    r.checkpoint.dir =
        prefix_dir("wkpath_resume_" + std::to_string(kill), files, kill);
    r.checkpoint.resume = true;
    const auto res = midas_weighted_kpath(g, part, w, r, f);
    EXPECT_EQ(res.feasible_weight, clean.feasible_weight)
        << "kill point " << kill;
    EXPECT_EQ(res.max_weight, clean.max_weight) << "kill point " << kill;
    EXPECT_EQ(res.vtime, clean.vtime) << "kill point " << kill;
    EXPECT_GE(res.resumed_from_round, 0) << "kill point " << kill;
  }
}

TEST(CheckpointEngine, ScanWaveResumeFromEverySnapshotIsBitExact) {
  // Mid-round (wave) snapshots of a vector accumulator: one (j, z) sum per
  // slot travels in every rank's snapshot and resumes bit-exactly.
  gf::GF256 f;
  Xoshiro256 rng(707);
  const graph::Graph g = graph::erdos_renyi_gnp(12, 0.25, rng);
  std::vector<std::uint32_t> w(g.num_vertices());
  for (auto& x : w) x = static_cast<std::uint32_t>(rng.below(3));
  const auto part = partition::block_partition(g, 2);
  MidasOptions base = ck_opts(67);
  base.n2 = 1;  // 16 phases over 2 groups = 8 waves/round
  base.max_rounds = 2;
  const auto clean = midas_scan(g, part, w, base, f);

  MidasOptions ck = base;
  ck.checkpoint.dir = fresh_dir("scan_wave_src");
  ck.checkpoint.every_rounds = 1;
  ck.checkpoint.every_waves = 3;
  ck.checkpoint.keep = 64;
  (void)midas_scan(g, part, w, ck, f);
  const auto files = snapshots_oldest_first(ck.checkpoint.dir);
  // Waves 3 and 6 of both rounds, plus the snapshot after round 1.
  ASSERT_EQ(files.size(), 2u * 2u + 1u);

  for (std::size_t kill = 1; kill <= files.size(); ++kill) {
    MidasOptions r = ck;
    r.checkpoint.dir =
        prefix_dir("scan_wave_" + std::to_string(kill), files, kill);
    r.checkpoint.resume = true;
    const auto res = midas_scan(g, part, w, r, f);
    EXPECT_EQ(res.table.feasible, clean.table.feasible)
        << "kill point " << kill;
    EXPECT_EQ(res.vtime, clean.vtime) << "kill point " << kill;
    EXPECT_EQ(res.vclocks, clean.vclocks) << "kill point " << kill;
    EXPECT_GE(res.resumed_from_round, 0) << "kill point " << kill;
  }
}

TEST(CheckpointEngine, MotifWaveResumeFromEverySnapshotIsBitExact) {
  gf::GF256 f;
  Xoshiro256 rng(808);
  const graph::Graph g = graph::erdos_renyi_gnp(16, 0.3, rng);
  std::vector<std::uint32_t> colors(g.num_vertices());
  for (auto& c : colors) c = static_cast<std::uint32_t>(rng.below(2));
  const std::vector<std::uint32_t> motif{0, 1, 0, 1};
  const auto part = partition::block_partition(g, 2);
  MidasOptions base = ck_opts(68);
  base.n2 = 1;  // 8 waves/round
  base.max_rounds = 3;
  const auto clean = midas_motif(g, part, colors, motif, base, f);

  MidasOptions ck = base;
  ck.checkpoint.dir = fresh_dir("motif_wave_src");
  ck.checkpoint.every_rounds = 1;
  ck.checkpoint.every_waves = 3;
  ck.checkpoint.keep = 64;
  (void)midas_motif(g, part, colors, motif, ck, f);
  const auto files = snapshots_oldest_first(ck.checkpoint.dir);
  ASSERT_EQ(files.size(), 3u * 2u + 2u);

  for (std::size_t kill = 1; kill <= files.size(); ++kill) {
    MidasOptions r = ck;
    r.checkpoint.dir =
        prefix_dir("motif_wave_" + std::to_string(kill), files, kill);
    r.checkpoint.resume = true;
    const auto res = midas_motif(g, part, colors, motif, r, f);
    EXPECT_EQ(res.found, clean.found) << "kill point " << kill;
    EXPECT_EQ(res.found_round, clean.found_round) << "kill point " << kill;
    EXPECT_EQ(res.vtime, clean.vtime) << "kill point " << kill;
    EXPECT_EQ(res.vclocks, clean.vclocks) << "kill point " << kill;
    EXPECT_GE(res.resumed_from_round, 0) << "kill point " << kill;
  }
}

}  // namespace
}  // namespace midas::core
