// The benchmark's three workloads, each derived entirely from a seed.
//
// A workload is a set of generated graphs, a finite list of distinct
// queries, a warm-up list and a traffic cycle over the distinct queries,
// plus the load model that sends the traffic. Answers are checked per
// distinct query: every repeat must equal the first answer, and the
// order-independent digest over the distinct queries must equal the digest
// of direct engine calls on the same inputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "service/query.hpp"
#include "service/replay.hpp"

namespace perfbench {

enum class Loop { kOpen, kClosed };

/// One traffic item: which distinct query to send, in which lane.
struct Request {
  std::uint32_t query = 0;
  midas::service::Lane lane = midas::service::Lane::kBatch;
};

struct Workload {
  std::string name;
  // Provenance, printed in every result record.
  std::string why;
  std::string stresses;
  std::string bypasses;

  /// Set-ups per run (setup_s is their median): more where one set-up is
  /// short enough for scheduling noise to dominate it.
  int setups = 3;
  Loop loop = Loop::kClosed;
  double rate_qps = 0.0;  // open loop: Poisson arrival rate
  int connections = 1;
  int window = 1;         // closed loop: requests in flight per connection

  std::vector<midas::service::GraphSpec> graphs;
  std::vector<midas::service::QuerySpec> distinct;
  std::vector<std::uint32_t> warmup;  // indices into distinct, sent in order
  std::vector<Request> cycle;         // traffic repeats this sequence
  /// Closed loops stop sending only at a cycle boundary, so every run
  /// measures whole cycles of the query mix.
  bool whole_cycles = false;
};

/// Names of every workload, in the order the benchmark documents them.
[[nodiscard]] std::vector<std::string> workload_names();

/// Build workload `name` from `seed`. Throws std::invalid_argument on an
/// unknown name.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed);

/// Seeded Poisson arrival times in [0, seconds): the open-loop schedule.
[[nodiscard]] std::vector<double> poisson_schedule(std::uint64_t seed,
                                                   double rate_qps,
                                                   double seconds);

/// One answer's contribution to a digest: the query fingerprint, decision,
/// rounds, found round, achieved-epsilon bits, certification, witness and
/// scan table — nothing that only measures serving.
[[nodiscard]] std::uint64_t answer_digest(
    const midas::service::QuerySpec& q, const midas::service::QueryResult& r);

/// Order-independent fold of per-answer digests (a wrapping sum).
[[nodiscard]] std::uint64_t fold_digests(const std::vector<std::uint64_t>& ds);

}  // namespace perfbench
