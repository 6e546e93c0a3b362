// Microbenchmark: scalar vs bit-sliced detection kernels.
//
// Sequential rows run the k-path detector once per (field, k, kernel) on
// the same ER graph and report ns per (iteration x vertex) — the unit the
// bit-sliced engine improves, since it evaluates 64 iterations per block
// (see src/gf/bitsliced.hpp and docs/ALGORITHM.md section 6). Both kernels
// are cross-checked for bit-identical round accumulators before timing is
// reported, so a speedup can never come from computing something else.
//
// Distributed rows run whole engines — leaf init, level folds, plane-native
// halo exchanges, accumulate — at N = 4, N1 = 2 for N2 in {32, 64, 256,
// 1024} on an ER graph of 32 * n vertices over GF(2^8), the service
// default: midas_kpath at k = 8, midas_motif at k = 6 (colors from a
// palette of 3, motif {0, 0, 1, 1, 2, 2}) and midas_scan at k = 3 (weights
// 0..4). N2 is clamped to the 2^k iterations, so motif runs one 64-lane
// phase and scan one 8-lane phase at every N2 >= 64. Each row reports the
// median host wall milliseconds of --reps runs per kernel; bit_exact means
// equal answers (scan: tables), virtual clocks, message counts and halo
// bytes.
//
//   ./bench_bitsliced_kernels [--n=128] [--kmax=16] [--seed=1] [--reps=5]
//                             [--json=BENCH_kernels.json]
//
// The JSON file is the committed baseline at the repo root, with the
// machine record it was taken on; regenerate it from a quiet machine when
// the kernels or the halo format change.
#include <cpuid.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "core/detect_par.hpp"
#include "core/detect_seq.hpp"
#include "gf/gf256.hpp"
#include "gf/gfsmall.hpp"
#include "partition/multilevel.hpp"
#include "partition/partitioned_graph.hpp"
#include "util/args.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

struct Row {
  std::string field;
  int bits;
  int k;
  double scalar_ns;     // ns per (iteration x vertex), scalar kernel
  double bitsliced_ns;  // ns per (iteration x vertex), bit-sliced kernel
  double speedup;
  bool exact;  // round accumulators matched bit-for-bit
  const char* auto_kernel;  // what --kernel=auto resolves to for this field
};

struct DistRow {
  const char* engine;
  int k;
  std::uint32_t n2;
  double scalar_ms;     // median host wall ms, scalar kernel
  double bitsliced_ms;  // median host wall ms, bit-sliced kernel
  double speedup;
  bool exact;  // answers, vclocks, messages and bytes matched
};

template <typename F>
double time_kernel(const midas::graph::Graph& g,
                   const midas::core::DetectOptions& opt, const F& f,
                   std::vector<std::uint64_t>* totals) {
  using namespace midas;
  // One warm-up round (tables, page faults), then the timed run.
  core::DetectOptions warm = opt;
  warm.max_rounds = 1;
  (void)core::detect_kpath_seq(g, warm, f);
  Timer t;
  const auto res = core::detect_kpath_seq(g, opt, f);
  const double ns = t.elapsed_s() * 1e9;
  *totals = res.round_totals;
  const double work = static_cast<double>(res.iterations) *
                      static_cast<double>(g.num_vertices());
  return ns / work;
}

template <typename F>
Row run_pair(const midas::graph::Graph& g, const std::string& name, int bits,
             int k, std::uint64_t seed, const F& f) {
  using namespace midas;
  core::DetectOptions opt;
  opt.k = k;
  opt.seed = seed;
  opt.max_rounds = 1;
  opt.early_exit = false;
  std::vector<std::uint64_t> ts, tb;
  opt.kernel = core::Kernel::kScalar;
  const double s = time_kernel(g, opt, f, &ts);
  opt.kernel = core::Kernel::kBitsliced;
  const double b = time_kernel(g, opt, f, &tb);
  return {name,  bits, k, s, b, s / b, ts == tb,
          core::kernel_name(f, core::Kernel::kAuto)};
}

constexpr int kDistRanks = 4;
constexpr int kDistN1 = 2;

/// What one distributed run exposes for the cross-kernel comparison.
struct DistRun {
  std::vector<std::uint64_t> answer;  // engine-specific decision encoding
  double wall_s = 0.0;
  std::vector<double> vclocks;
  midas::runtime::CommStats stats;
};

DistRun dist_run(const midas::core::MidasResult& r) {
  return {{r.found ? 1u : 0u, static_cast<std::uint64_t>(r.found_round),
           static_cast<std::uint64_t>(r.rounds_run)},
          r.wall_s, r.vclocks, r.total_stats};
}

DistRun dist_run(const midas::core::MidasScanResult& r) {
  DistRun out{{}, r.wall_s, r.vclocks, r.total_stats};
  for (const auto& row : r.table.feasible)
    for (const bool cell : row) out.answer.push_back(cell ? 1 : 0);
  return out;
}

/// One distributed row: `run(opt)` under both kernels `reps` times each,
/// alternating so machine drift hits both sides alike.
template <typename RunFn>
DistRow run_dist(const char* engine, int k, std::uint32_t n2,
                 std::uint64_t seed, int reps, RunFn&& run) {
  using namespace midas;
  core::MidasOptions opt;
  opt.k = k;
  opt.seed = seed;
  opt.n_ranks = kDistRanks;
  opt.n1 = kDistN1;
  opt.n2 = n2;
  opt.max_rounds = 2;
  opt.early_exit = false;
  std::vector<double> ms[2];
  DistRun res[2];
  for (int rep = -1; rep < reps; ++rep)  // rep -1 warms both kernels up
    for (int b = 0; b < 2; ++b) {
      opt.kernel = b == 0 ? core::Kernel::kScalar : core::Kernel::kBitsliced;
      res[b] = run(opt);
      if (rep >= 0) ms[b].push_back(res[b].wall_s * 1e3);
    }
  auto median = [](std::vector<double> xs) {
    std::sort(xs.begin(), xs.end());
    return xs[xs.size() / 2];
  };
  const double s = median(ms[0]);
  const double b = median(ms[1]);
  const bool exact =
      res[0].answer == res[1].answer && res[0].vclocks == res[1].vclocks &&
      res[0].stats.messages_sent == res[1].stats.messages_sent &&
      res[0].stats.bytes_sent == res[1].stats.bytes_sent;
  return {engine, k, n2, s, b, s / b, exact};
}

std::string cpu_model() {
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned int i = 0; i < 3; ++i)
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  std::string s(reinterpret_cast<const char*>(regs), sizeof(regs));
  s = s.c_str();
  const auto b = s.find_first_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b);
}

void write_json(const std::string& path, midas::graph::VertexId n,
                std::uint64_t seed, int reps, const std::vector<Row>& rows,
                midas::graph::VertexId dist_n,
                const std::vector<DistRow>& dist) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return;
  }
  std::fprintf(out, "{\n  \"bench\": \"bitsliced_kernels\",\n");
  std::fprintf(out, "  \"unit\": \"ns per (iteration x vertex)\",\n");
  std::fprintf(out, "  \"n\": %llu,\n  \"seed\": %llu,\n  \"results\": [\n",
               static_cast<unsigned long long>(n),
               static_cast<unsigned long long>(seed));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(out,
                 "    {\"field\": \"%s\", \"bits\": %d, \"k\": %d, "
                 "\"scalar_ns\": %.4f, \"bitsliced_ns\": %.4f, "
                 "\"speedup\": %.2f, \"bit_exact\": %s, "
                 "\"auto_kernel\": \"%s\"}%s\n",
                 r.field.c_str(), r.bits, r.k, r.scalar_ns, r.bitsliced_ns,
                 r.speedup, r.exact ? "true" : "false", r.auto_kernel,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out,
               "  \"distributed\": {\"field\": \"GF256\", \"N\": %d, "
               "\"N1\": %d, \"n\": %llu, \"rounds\": 2, \"reps\": %d, "
               "\"unit\": \"median host wall ms\", \"rows\": [\n",
               kDistRanks, kDistN1, static_cast<unsigned long long>(dist_n),
               reps);
  for (std::size_t i = 0; i < dist.size(); ++i) {
    const DistRow& r = dist[i];
    std::fprintf(out,
                 "    {\"engine\": \"%s\", \"k\": %d, \"n2\": %u, "
                 "\"scalar_ms\": %.3f, \"bitsliced_ms\": %.3f, "
                 "\"speedup\": %.2f, \"bit_exact\": %s}%s\n",
                 r.engine, r.k, r.n2, r.scalar_ms, r.bitsliced_ms, r.speedup,
                 r.exact ? "true" : "false", i + 1 < dist.size() ? "," : "");
  }
  std::fprintf(out, "  ]},\n");
#if defined(__AVX512F__)
  const char* simd = "avx512f+avx2";
#elif defined(__AVX2__)
  const char* simd = "avx2";
#else
  const char* simd = "none (portable x86-64)";
#endif
  std::fprintf(out,
               "  \"record\": {\"hardware_threads\": %u, \"cpu\": \"%s\", "
               "\"simd_build\": \"%s\", \"cpu_avx2\": %s, "
               "\"cpu_avx512f\": %s, \"build_type\": \"%s\", "
               "\"compiler\": \"%s\"}\n}\n",
               std::thread::hardware_concurrency(), cpu_model().c_str(), simd,
               __builtin_cpu_supports("avx2") ? "true" : "false",
               __builtin_cpu_supports("avx512f") ? "true" : "false",
               MIDAS_BUILD_TYPE, __VERSION__);
  std::fclose(out);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace midas;
  const Args args(argc, argv);
  const auto n = static_cast<graph::VertexId>(args.get_int("n", 128));
  const int kmax = static_cast<int>(args.get_int("kmax", 16));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const int reps = std::max(1, static_cast<int>(args.get_int("reps", 5)));
  const std::string json = args.get("json", "BENCH_kernels.json");

  bench::print_figure_header(
      "Bit-sliced kernel speedup",
      "scalar vs 64-lane bit-sliced k-path inner loop");
  std::printf("auto kernel: GFSmall(7) -> %s (l=7), GF256 -> %s (l=8)\n\n",
              core::kernel_name(gf::GFSmall(7), core::Kernel::kAuto),
              core::kernel_name(gf::GF256{}, core::Kernel::kAuto));
  const auto ds = bench::make_dataset("random", n, seed);

  std::vector<Row> rows;
  for (const int k : {8, 12, 16}) {
    if (k > kmax) continue;
    // The paper's width for this k is l = 3 + ceil(log2 k); k = 12 lands
    // on l = 7, the acceptance point for the >= 5x kernel speedup.
    rows.push_back(run_pair(ds.graph, "GFSmall(7)", 7, k, seed,
                            gf::GFSmall(7)));
    rows.push_back(run_pair(ds.graph, "GF256", 8, k, seed, gf::GF256{}));
  }

  Table table({"field", "k", "scalar_ns", "bitsliced_ns", "speedup",
               "bit_exact"});
  for (const Row& r : rows)
    table.add_row({r.field, Table::cell(std::int64_t{r.k}),
                   Table::cell(r.scalar_ns, 4), Table::cell(r.bitsliced_ns, 4),
                   Table::cell(r.speedup, 2), r.exact ? "yes" : "NO"});
  table.print("sequential k-path, one round; ns per (iteration x vertex), "
              "lower is better");

  const auto dist_n = static_cast<graph::VertexId>(32 * n);
  const auto big = bench::make_dataset("random", dist_n, seed);
  const auto views = partition::build_part_views(
      big.graph, partition::multilevel_partition(big.graph, kDistN1));
  Xoshiro256 rng(seed * 977 + 3);
  std::vector<std::uint32_t> colors(dist_n), weights(dist_n);
  for (auto& c : colors) c = static_cast<std::uint32_t>(rng.below(3));
  for (auto& w : weights) w = static_cast<std::uint32_t>(rng.below(5));
  const std::vector<std::uint32_t> motif{0, 0, 1, 1, 2, 2};
  const gf::GF256 f;
  // N2 = 16 is the service default: one 16-lane block per phase.
  std::vector<DistRow> dist;
  for (const std::uint32_t n2 : {16u, 32u, 64u, 256u, 1024u})
    dist.push_back(run_dist("midas_kpath", 8, n2, seed, reps,
                            [&](const core::MidasOptions& o) {
                              return dist_run(
                                  core::midas_kpath_views(views, o, f));
                            }));
  for (const std::uint32_t n2 : {16u, 32u, 64u, 256u, 1024u})
    dist.push_back(run_dist("midas_motif", 6, n2, seed, reps,
                            [&](const core::MidasOptions& o) {
                              return dist_run(core::midas_motif_views(
                                  views, colors, motif, o, f));
                            }));
  for (const std::uint32_t n2 : {32u, 64u, 256u, 1024u})
    dist.push_back(run_dist("midas_scan", 3, n2, seed, reps,
                            [&](const core::MidasOptions& o) {
                              return dist_run(core::midas_scan_views(
                                  views, weights, o, f));
                            }));
  Table dtable({"engine", "k", "N2", "scalar_ms", "bitsliced_ms", "speedup",
                "bit_exact"});
  for (const DistRow& r : dist)
    dtable.add_row({r.engine, Table::cell(std::int64_t{r.k}),
                    Table::cell(std::int64_t{r.n2}),
                    Table::cell(r.scalar_ms, 3), Table::cell(r.bitsliced_ms, 3),
                    Table::cell(r.speedup, 2), r.exact ? "yes" : "NO"});
  std::printf("\n");
  dtable.print(("distributed engines, N=4 N1=2 GF(2^8), n=" +
                std::to_string(dist_n) + ", 2 rounds; median of " +
                std::to_string(reps) + " host wall ms, lower is better")
                   .c_str());
  write_json(json, n, seed, reps, rows, dist_n, dist);
  return 0;
}
