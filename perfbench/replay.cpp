#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "core/detect_par.hpp"
#include "core/tree_template.hpp"
#include "gf/bitsliced.hpp"
#include "gf/gf256.hpp"
#include "gf/gfsmall.hpp"
#include "net/protocol.hpp"
#include "partition/multilevel.hpp"
#include "service/artifact_cache.hpp"
#include "service/integrity.hpp"
#include "util/stats.hpp"

namespace perfbench {

namespace core = midas::core;
namespace graph = midas::graph;
namespace partition = midas::partition;
namespace service = midas::service;
using Clock = std::chrono::steady_clock;

namespace {

// The service's artifact keys and engine options (service/service.cpp),
// restated so the replay caches and runs exactly what a worker would.
std::string views_key(const service::QuerySpec& q) {
  return "views/" + q.graph + "/n1=" + std::to_string(q.n1);
}

std::string rand_key(const service::QuerySpec& q) {
  return "rand/" + q.graph + "/n1=" + std::to_string(q.n1) +
         "/l=" + std::to_string(q.field_bits) +
         "/seed=" + std::to_string(q.seed) + "/k=" + std::to_string(q.k) +
         "/rounds=" + std::to_string(q.rounds());
}

core::MidasOptions engine_options(const service::QuerySpec& q) {
  core::MidasOptions opt;
  opt.k = q.k;
  opt.epsilon = q.epsilon;
  opt.seed = q.seed;
  opt.n_ranks = q.n_ranks;
  opt.n1 = q.n1;
  opt.n2 = q.n2;
  opt.max_rounds = q.max_rounds;
  opt.early_exit = q.early_exit;
  opt.kernel = q.kernel;
  return opt;
}

template <typename Fn>
decltype(auto) with_field(int l, Fn&& fn) {
  if (l == 8) return fn(midas::gf::GF256{});
  return fn(midas::gf::GFSmall(l));
}

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

graph::Graph tree_of(const service::QuerySpec& q) {
  graph::GraphBuilder tb(static_cast<graph::VertexId>(q.k));
  for (const auto& [a, b] : q.tree_edges) tb.add_edge(a, b);
  return tb.build();
}

const char* engine_span(service::QueryType t) {
  switch (t) {
    case service::QueryType::kPath: return "core.engine.path";
    case service::QueryType::kTree: return "core.engine.tree";
    case service::QueryType::kScan: return "core.engine.scan";
    case service::QueryType::kMotif: return "core.engine.motif";
  }
  return "core.engine";
}

void note_engine(ReplayOut& out, double vtime, int rounds,
                 const midas::runtime::CommStats& st) {
  out.engine_calls += 1;
  out.vtime_s += vtime;
  out.rounds += static_cast<std::uint64_t>(rounds);
  out.messages += st.messages_sent;
  out.bytes += st.bytes_sent;
  out.wait_s += st.t_wait;
}

/// One query through the artifact cache and the engine, as a service
/// worker runs it (no pool: the rank gang is spawned and joined).
service::QueryResult run_query(const service::QuerySpec& q,
                               const graph::Graph& g,
                               service::ArtifactCache& cache, ReplayOut& out,
                               SpanLog* spans) {
  if (q.reamplify)
    throw std::invalid_argument("replay does not model reamplify");
  auto artifacts = cache.get_or_build<service::GraphArtifacts>(
      views_key(q), [&] {
        service::GraphArtifacts a;
        {
          SpanLog::Scope s(spans, "partition.multilevel");
          a.part = partition::multilevel_partition(g, q.n1);
        }
        {
          SpanLog::Scope s(spans, "partition.views");
          a.views = partition::build_part_views(g, a.part);
        }
        for (const auto& v : a.views) out.halo_values += v.send_volume();
        out.view_builds += 1;
        return a;
      });
  const auto& views = artifacts->views;
  core::MidasOptions opt = engine_options(q);
  service::QueryResult qr;
  with_field(q.field_bits, [&](const auto& f) {
    switch (q.type) {
      case service::QueryType::kPath: {
        auto tables = cache.get_or_build<core::RandTables>(rand_key(q), [&] {
          SpanLog::Scope s(spans, "core.rand_tables");
          return core::build_rand_tables(views, q.seed, q.k, q.rounds(), f);
        });
        opt.rand_tables = tables.get();
        SpanLog::Scope s(spans, engine_span(q.type));
        const core::MidasResult r = core::midas_kpath_views(views, opt, f);
        qr.found = r.found;
        qr.rounds_run = r.rounds_run;
        qr.found_round = r.found_round;
        note_engine(out, r.vtime, r.rounds_run, r.total_stats);
        break;
      }
      case service::QueryType::kTree: {
        const graph::Graph tmpl = tree_of(q);
        const core::TreeDecomposition td(tmpl, q.tree_root);
        SpanLog::Scope s(spans, engine_span(q.type));
        const core::MidasResult r =
            core::midas_ktree_views(views, td, opt, f);
        qr.found = r.found;
        qr.rounds_run = r.rounds_run;
        qr.found_round = r.found_round;
        note_engine(out, r.vtime, r.rounds_run, r.total_stats);
        break;
      }
      case service::QueryType::kScan: {
        SpanLog::Scope s(spans, engine_span(q.type));
        core::MidasScanResult r =
            core::midas_scan_views(views, q.weights, opt, f);
        qr.table = std::move(r.table);
        qr.rounds_run = q.rounds();
        note_engine(out, r.vtime, q.rounds(), r.total_stats);
        break;
      }
      case service::QueryType::kMotif: {
        SpanLog::Scope s(spans, engine_span(q.type));
        const core::MidasResult r =
            core::midas_motif_views(views, q.colors, q.motif, opt, f);
        qr.found = r.found;
        qr.rounds_run = r.rounds_run;
        qr.found_round = r.found_round;
        note_engine(out, r.vtime, r.rounds_run, r.total_stats);
        break;
      }
    }
  });
  qr.target_epsilon = q.epsilon;
  qr.achieved_epsilon = service::achieved_epsilon(qr.found, qr.rounds_run);
  if (q.certify) {
    SpanLog::Scope s(spans, "core.certify");
    if (!service::certify_result(g, q, qr))
      throw std::runtime_error("certification failed on a direct call");
  }
  return qr;
}

}  // namespace

ReplayOut replay(const Workload& w, const std::vector<std::uint32_t>& order,
                 SpanLog* spans) {
  ReplayOut out;
  out.result.resize(w.distinct.size());
  out.digest.resize(w.distinct.size());
  out.have.resize(w.distinct.size());

  std::unordered_map<std::string, std::unique_ptr<graph::Graph>> graphs;
  {
    SpanLog::Scope setup(spans, "replay.setup");
    for (const auto& gs : w.graphs) {
      SpanLog::Scope s(spans, "graph.build");
      graphs[gs.name] = std::make_unique<graph::Graph>(
          service::build_graph(gs));
    }
  }
  // The service's defaults: 16 entries, 16 stripes.
  service::ArtifactCache cache(16);
  for (std::uint32_t i : order) {
    const service::QuerySpec& q = w.distinct.at(i);
    SpanLog::Scope s(spans, "replay.query", i);
    service::QueryResult r =
        run_query(q, *graphs.at(q.graph), cache, out, spans);
    out.digest[i] = answer_digest(q, r);
    out.result[i] = std::move(r);
    out.have[i] = true;
    out.queries += 1;
  }
  return out;
}

// -- probes -------------------------------------------------------------------

namespace {

/// Median wall time (ms) of `reps` calls of fn.
template <typename Fn>
double median_ms(int reps, Fn&& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    t.push_back(ms_since(t0));
  }
  return midas::percentile(t, 50.0);
}

/// Computed lane fill of the bit-sliced kernels for one query: phases
/// carry min(N2, remaining iterations) live lanes in ceil(batch/64)
/// 64-lane blocks.
std::pair<double, double> lanes_of(const service::QuerySpec& q) {
  const std::uint64_t iters = std::uint64_t{1} << q.k;
  double live = 0.0, slots = 0.0;
  for (std::uint64_t first = 0; first < iters; first += q.n2) {
    const std::uint64_t batch = std::min<std::uint64_t>(q.n2, iters - first);
    live += static_cast<double>(batch);
    slots += 64.0 * static_cast<double>((batch + 63) / 64);
  }
  return {live, slots};
}

}  // namespace

Probes run_probes(const Workload& w, const ReplayOut& answers,
                  std::size_t max_sample) {
  Probes p;
  const midas::gf::GF256 f;

  // k-path sample: forced kernels and the N = N1 = 1 baseline.
  std::vector<const service::QuerySpec*> sample;
  for (const auto& q : w.distinct)
    if (q.type == service::QueryType::kPath && q.field_bits == 8 &&
        sample.size() < max_sample)
      sample.push_back(&q);
  double transpose_values = 0.0, transpose_ns = 0.0;
  for (const service::QuerySpec* q : sample) {
    const auto spec_it =
        std::find_if(w.graphs.begin(), w.graphs.end(),
                     [&](const auto& gs) { return gs.name == q->graph; });
    if (spec_it == w.graphs.end())
      throw std::invalid_argument("query on unknown graph " + q->graph);
    const graph::Graph g = service::build_graph(*spec_it);
    const auto views = partition::build_part_views(
        g, partition::multilevel_partition(g, q->n1));
    const auto tables =
        core::build_rand_tables(views, q->seed, q->k, q->rounds(), f);
    const auto views1 = partition::build_part_views(
        g, partition::multilevel_partition(g, 1));
    const auto tables1 =
        core::build_rand_tables(views1, q->seed, q->k, q->rounds(), f);

    core::MidasOptions opt = engine_options(*q);
    opt.rand_tables = &tables;
    // Repeat small calls so each median rests on >= ~0.2 s of work.
    const double once = median_ms(1, [&] {
      (void)core::midas_kpath_views(views, opt, f);
    });
    const int reps = std::clamp(static_cast<int>(200.0 / (once + 1e-3)), 1, 9);
    auto timed = [&](core::Kernel kernel, int n_ranks, bool single) {
      core::MidasOptions o = opt;
      o.kernel = kernel;
      o.n_ranks = single ? 1 : n_ranks;
      o.n1 = single ? 1 : q->n1;
      o.rand_tables = single ? &tables1 : &tables;
      const auto& v = single ? views1 : views;
      return median_ms(reps, [&] { (void)core::midas_kpath_views(v, o, f); });
    };
    p.scalar_ms += timed(core::Kernel::kScalar, q->n_ranks, false);
    p.bitsliced_ms += timed(core::Kernel::kBitsliced, q->n_ranks, false);
    p.n1_ms += timed(q->kernel, 1, true);
    p.n4_ms += timed(q->kernel, 4, false);

    // Halo transposes: boundary blocks unpacked on send, ghost blocks
    // packed on receive, at this query's batch width.
    const midas::gf::BitslicedGF bs(f);
    const int lanes = static_cast<int>(std::min<std::uint64_t>(
        {q->n2, std::uint64_t{1} << q->k, 64}));
    std::size_t send = 0, recv = 0;
    for (const auto& v : views) {
      send += v.boundary.size();
      recv += v.num_ghosts();
    }
    std::vector<std::uint64_t> blocks((send + recv) * 8, 0x5555);
    std::vector<std::uint8_t> vals((send + recv) * 64, 0x3c);
    const double values = static_cast<double>((send + recv) * lanes);
    int rounds = 0;
    const auto t0 = Clock::now();
    do {
      for (std::size_t b = 0; b < send; ++b)
        bs.unpack_lanes(vals.data() + b * 64, blocks.data() + b * 8, lanes);
      for (std::size_t b = send; b < send + recv; ++b)
        bs.pack_lanes(blocks.data() + b * 8, vals.data() + b * 64, lanes);
      ++rounds;
    } while (ms_since(t0) < 20.0);
    transpose_ns += ms_since(t0) * 1e6;
    transpose_values += values * rounds;
  }
  p.sample = sample.size();
  if (!sample.empty()) {
    const double n = static_cast<double>(sample.size());
    p.scalar_ms /= n;
    p.bitsliced_ms /= n;
    p.n1_ms /= n;
    p.n4_ms /= n;
    p.transpose_ns = transpose_ns / transpose_values;
  }

  double live = 0.0, slots = 0.0;
  for (const auto& q : w.distinct) {
    const auto [l, s] = lanes_of(q);
    live += l;
    slots += s;
  }
  p.lane_fill = live / slots;

  // Codec: the workload's own queries and answers through the wire codecs.
  std::size_t calls = 0;
  const auto t0 = Clock::now();
  do {
    for (std::size_t i = 0; i < w.distinct.size(); ++i) {
      if (!answers.have[i]) continue;
      midas::net::WireWriter qw;
      midas::net::encode_query(qw, w.distinct[i]);
      midas::net::WireReader qr(qw.bytes().data(), qw.bytes().size());
      (void)midas::net::decode_query(qr);
      midas::net::WireWriter rw;
      midas::net::encode_result(rw, answers.result[i]);
      midas::net::WireReader rr(rw.bytes().data(), rw.bytes().size());
      (void)midas::net::decode_result(rr);
      ++calls;
    }
  } while (ms_since(t0) < 30.0 && calls > 0);
  if (calls > 0) p.codec_us = ms_since(t0) * 1e3 / static_cast<double>(calls);
  return p;
}

}  // namespace perfbench
