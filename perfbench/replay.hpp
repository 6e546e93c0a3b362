// The direct-call side of the benchmark: the same inputs the wire traffic
// carried, answered by calling graph, partition, core and service
// functions directly. It gives the reference answers every wire answer is
// checked against and, in the traced run, one span per call.
#pragma once

#include <cstdint>
#include <vector>

#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

struct ReplayOut {
  /// result[i] / digest[i] answer distinct query i; have[i] says whether
  /// the replay answered it.
  std::vector<midas::service::QueryResult> result;
  std::vector<std::uint64_t> digest;
  std::vector<bool> have;
  /// Σ over engine calls (modeled, deterministic).
  std::size_t engine_calls = 0;
  double vtime_s = 0.0;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  double wait_s = 0.0;  // modeled barrier wait, Σ over ranks
  /// Σ PartView::send_volume() over every view set built, and the builds.
  std::uint64_t halo_values = 0;
  std::size_t view_builds = 0;
  std::size_t queries = 0;  // replayed query executions
};

/// Register the workload's graphs, then run `order` (indices into
/// w.distinct) through an ArtifactCache of the service's capacity and key
/// scheme, so artifacts are built and reused exactly where the service's
/// cache would for the same sequence. `spans` may be null.
[[nodiscard]] ReplayOut replay(const Workload& w,
                               const std::vector<std::uint32_t>& order,
                               SpanLog* spans);

/// Fixed-sample probes of single layers, outside the served path.
struct Probes {
  double scalar_ms = 0.0;     // engine wall, kernel forced scalar
  double bitsliced_ms = 0.0;  // engine wall, kernel forced bit-sliced
  double n1_ms = 0.0;         // engine wall at N = N1 = 1
  double n4_ms = 0.0;         // engine wall at N = 4 (query's N1)
  std::size_t sample = 0;     // k-path queries in the sample
  double transpose_ns = 0.0;  // pack_lanes + unpack_lanes, per value
  double lane_fill = 0.0;     // computed live lanes / 64 per block
  double codec_us = 0.0;      // encode/decode of query + result, per query
};

/// Run the probes on the workload's first k-path queries (at most
/// `max_sample`), their view boundary sets, and the distinct queries with
/// the replay's answers.
[[nodiscard]] Probes run_probes(const Workload& w, const ReplayOut& answers,
                                std::size_t max_sample);

}  // namespace perfbench
