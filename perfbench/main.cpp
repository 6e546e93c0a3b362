// midas_perfbench — the repo benchmark of the served query path.
//
//   midas_perfbench --workload=wire-small|engine-large|cold-churn --seed=N
//                   --seconds=S --trace=0|1 [--out=DIR] [--expect-digest=D]
//                   [--source-id=ID]
//
// Each run starts an in-process net::Server + DetectionService on a
// loopback port (set up several times; setup_s is the median set-up CPU
// time), drives the workload's seeded traffic over real TCP from one
// generator thread, and checks every answer: repeats of a query must agree,
// and the digest over the distinct queries must equal the digest of direct
// engine calls on the same inputs (and --expect-digest when given).
//
// --trace=0 prints the end-to-end metrics; --trace=1 runs the traffic
// twice (untraced, then traced, half the seconds each), replays the inputs
// by direct calls with one span per call, runs fixed-sample layer probes,
// writes a Chrome trace and prints the per-layer metrics. The last stdout
// line is always the JSON result.
#include <cpuid.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "loadgen.hpp"
#include "net/server.hpp"
#include "replay.hpp"
#include "service/service.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "util/args.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace perfbench;
namespace net = midas::net;
namespace service = midas::service;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One served instance: service, TCP server and the generator's sockets.
/// Members are destroyed in reverse order: sockets, then server, then
/// service.
struct Served {
  std::unique_ptr<service::DetectionService> svc;
  std::unique_ptr<net::Server> server;
  std::unique_ptr<LoadGen> gen;

  void tear_down() {
    gen.reset();
    server.reset();
    svc.reset();
  }
};

/// First answer digest of each distinct query; every later answer must
/// match it.
struct AnswerBook {
  std::vector<std::uint64_t> digest;
  std::vector<bool> have;
  std::size_t mismatches = 0;

  explicit AnswerBook(std::size_t n) : digest(n), have(n) {}
  void add(const Pass& p) {
    for (const Sample& s : p.samples) {
      if (!s.ok) continue;
      if (!have[s.query]) {
        have[s.query] = true;
        digest[s.query] = s.digest;
      } else if (digest[s.query] != s.digest) {
        ++mismatches;
      }
    }
  }
  [[nodiscard]] std::vector<std::uint32_t> missing() const {
    std::vector<std::uint32_t> out;
    for (std::size_t i = 0; i < have.size(); ++i)
      if (!have[i]) out.push_back(static_cast<std::uint32_t>(i));
    return out;
  }
};

Served set_up(const Workload& w, Clock::time_point epoch, AnswerBook& book) {
  Served s;
  s.svc = std::make_unique<service::DetectionService>();
  s.server = std::make_unique<net::Server>(*s.svc);
  s.server->start();
  s.gen = std::make_unique<LoadGen>(s.server->port(), w.connections, epoch);
  s.gen->register_graphs(w.graphs);
  book.add(s.gen->run_sequential(w, w.warmup));
  return s;
}

Pass drive(const Workload& w, LoadGen& gen, std::uint64_t seed,
           double seconds, std::size_t first, SpanLog* spans) {
  if (w.loop == Loop::kOpen)
    return gen.run_open(w, poisson_schedule(seed, w.rate_qps, seconds),
                        first, spans);
  return gen.run_closed(w, seconds, first, spans);
}

/// End-to-end view of one pass.
struct Traffic {
  std::size_t attempted = 0;
  std::size_t completed = 0;
  std::size_t failed = 0;  // refused, failed, deadline — never retried
  double qps = 0.0;
  std::vector<double> latency_ms, interactive_ms, late_ms;
  std::vector<double> wire_ms, queue_ms, overhead_ms;
  std::map<std::string, std::vector<double>> by_type;  // latency per query type
};

Traffic summarize(const Workload& w, const Pass& p) {
  Traffic t;
  t.attempted = p.samples.size();
  for (const Sample& s : p.samples) {
    t.late_ms.push_back((s.sent_s - s.due_s) * 1e3);
    if (!s.ok) {
      ++t.failed;
      continue;
    }
    ++t.completed;
    // Open loop: from the due time; closed loop: from the send time.
    const double from = w.loop == Loop::kOpen ? s.due_s : s.sent_s;
    const double lat = (s.done_s - from) * 1e3;
    t.latency_ms.push_back(lat);
    if (s.lane == service::Lane::kInteractive) t.interactive_ms.push_back(lat);
    t.by_type[service::to_string(w.distinct[s.query].type)].push_back(lat);
    t.wire_ms.push_back(((s.done_s - s.sent_s) - s.total_s) * 1e3);
    t.queue_ms.push_back(s.queue_s * 1e3);
    t.overhead_ms.push_back((s.total_s - s.queue_s - s.engine_s) * 1e3);
  }
  t.qps = p.window_s > 0 ? static_cast<double>(t.completed) / p.window_s : 0;
  return t;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

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

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

void print_quantiles(const char* name, const std::vector<double>& xs) {
  if (xs.empty()) {
    std::printf("  %-22s n=0\n", name);
    return;
  }
  const Quantile med = quantile(xs, 50.0);
  const Quantile t = tail(xs);
  std::printf("  %-22s p50=%.4f", name, med.value);
  if (t.p != med.p) std::printf(" %s=%.4f", t.label().c_str(), t.value);
  std::printf(" (n=%zu)\n", xs.size());
}

double cpu_clock(clockid_t clock) {
  timespec t{};
  clock_gettime(clock, &t);
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) * 1e-9;
}

/// CPU seconds (user + system) of every thread of the process so far.
/// Unlike wall time, this is not charged for time the host steals from the
/// guest's vCPUs.
double process_cpu_s() { return cpu_clock(CLOCK_PROCESS_CPUTIME_ID); }

/// Process CPU minus the calling thread's: the service's and server's CPU
/// when the caller is the load generator.
double served_cpu_s() {
  return process_cpu_s() - cpu_clock(CLOCK_THREAD_CPUTIME_ID);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double layer_mean_ms(const std::map<std::string, LayerRow>& rows,
                     const std::string& name) {
  const auto it = rows.find(name);
  if (it == rows.end() || it->second.count == 0) return 0.0;
  return it->second.total_s * 1e3 / static_cast<double>(it->second.count);
}

double layer_self(const std::map<std::string, LayerRow>& rows,
                  const std::string& name) {
  const auto it = rows.find(name);
  return it == rows.end() ? 0.0 : it->second.self_s;
}

int run(const midas::Args& args, Clock::time_point process_start) {
  const std::string name = args.get("workload", "");
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const double seconds = args.get_double("seconds", 10.0);
  const bool traced = args.get_int("trace", 0) != 0;
  const std::string out_dir = args.get("out", ".bench_out");
  const Workload w = make_workload(name, seed);
  const Clock::time_point epoch = process_start;

  // -- set-up, several times; the last instance serves the timed traffic --
  AnswerBook book(w.distinct.size());
  // Set-up cost is taken in CPU seconds of the whole process (the first
  // from process start); wall seconds are reported beside it.
  std::vector<double> setup_cpu_s, setup_wall_s;
  Served served;
  for (int i = 0; i < w.setups; ++i) {
    served.tear_down();
    const Clock::time_point t0 = i == 0 ? process_start : Clock::now();
    const double c0 = i == 0 ? 0.0 : process_cpu_s();
    served = set_up(w, epoch, book);
    setup_cpu_s.push_back(process_cpu_s() - c0);
    setup_wall_s.push_back(seconds_since(t0));
  }

  // -- timed traffic --------------------------------------------------------
  SpanLog spans(epoch);
  std::size_t first = 0;
  Pass untraced_pass;
  const double pass_s = traced ? seconds / 2 : seconds;
  if (traced) {
    untraced_pass = drive(w, *served.gen, seed, pass_s, first, nullptr);
    first += untraced_pass.samples.size();
    book.add(untraced_pass);
  }
  const service::ServiceStats svc0 = served.svc->stats();
  const net::Server::Stats net0 = served.server->stats();
  const double cpu0 = served_cpu_s();
  const Pass pass =
      drive(w, *served.gen, seed, pass_s, first, traced ? &spans : nullptr);
  const double cpu_s = served_cpu_s() - cpu0;
  const service::ServiceStats svc1 = served.svc->stats();
  const net::Server::Stats net1 = served.server->stats();
  const double rss_mb = peak_rss_mb();
  book.add(pass);
  const Traffic tr = summarize(w, pass);

  // Distinct queries the traffic never reached are answered once, untimed,
  // so the digest always covers the whole workload.
  book.add(served.gen->run_sequential(w, book.missing()));
  served.tear_down();

  // -- reference answers by direct calls ------------------------------------
  std::vector<std::uint32_t> order;
  if (traced) {
    // The warm-up, then the traced pass's own requests (up to one per
    // distinct query), so builds and hits follow the served sequence.
    order = w.warmup;
    for (std::size_t i = 0;
         i < pass.samples.size() && i < w.distinct.size(); ++i)
      order.push_back(pass.samples[i].query);
  }
  ReplayOut direct = replay(w, order, traced ? &spans : nullptr);
  std::vector<std::uint32_t> rest;
  for (std::size_t i = 0; i < w.distinct.size(); ++i)
    if (!direct.have[i]) rest.push_back(static_cast<std::uint32_t>(i));
  if (!rest.empty()) {
    const ReplayOut more = replay(w, rest, nullptr);
    for (std::uint32_t i : rest) {
      direct.digest[i] = more.digest[i];
      direct.result[i] = more.result[i];
      direct.have[i] = true;
    }
  }

  // -- answer check ---------------------------------------------------------
  const std::uint64_t wire_digest = fold_digests(book.digest);
  const std::uint64_t direct_digest = fold_digests(direct.digest);
  std::size_t wrong = book.mismatches;
  for (std::size_t i = 0; i < w.distinct.size(); ++i)
    if (!book.have[i] || book.digest[i] != direct.digest[i]) ++wrong;
  const std::string expect = args.get("expect-digest", "");
  const bool expect_ok =
      expect.empty() || expect == std::to_string(direct_digest);
  const bool correct = wrong == 0 && expect_ok;

  // -- report ---------------------------------------------------------------
  const double setup_med = midas::percentile(setup_cpu_s, 50.0);
  const double cpu_ms_per_query =
      cpu_s * 1e3 / static_cast<double>(std::max<std::size_t>(tr.completed, 1));
  std::printf("workload %s seed %llu: %s loop, %s, %d connection(s)%s\n",
              w.name.c_str(), static_cast<unsigned long long>(seed),
              w.loop == Loop::kOpen ? "open" : "closed",
              w.loop == Loop::kOpen
                  ? ("Poisson " + std::to_string(w.rate_qps) + " q/s").c_str()
                  : ("window " + std::to_string(w.window)).c_str(),
              w.connections, traced ? ", traced" : "");
  std::printf("  why: %s\n  stresses: %s\n  bypasses: %s\n", w.why.c_str(),
              w.stresses.c_str(), w.bypasses.c_str());
  std::printf("  setup cpu_s:");
  for (double s : setup_cpu_s) std::printf(" %.4f", s);
  std::printf("\n  setup wall_s:");
  for (double s : setup_wall_s) std::printf(" %.4f", s);
  std::printf("\n  attempted=%zu completed=%zu failed=%zu window=%.3fs\n",
              tr.attempted, tr.completed, tr.failed, pass.window_s);
  for (const auto& [type, xs] : tr.by_type)
    print_quantiles(("latency_ms." + type).c_str(), xs);
  std::printf("  digest wire=%llu direct=%llu expected=%s distinct=%zu "
              "repeat_mismatches=%zu wrong=%zu -> %s\n",
              static_cast<unsigned long long>(wire_digest),
              static_cast<unsigned long long>(direct_digest),
              expect.empty() ? "-" : expect.c_str(), w.distinct.size(),
              book.mismatches, wrong, correct ? "OK" : "MISMATCH");

  // Machine record: where and how these numbers were taken.
#if defined(__AVX512F__)
  const char* simd = "avx512f+avx2";
#elif defined(__AVX2__)
  const char* simd = "avx2";
#else
  const char* simd = "none (portable x86-64)";
#endif
  std::printf(
      "record: {\"hardware_threads\": %u, \"cpu\": \"%s\", "
      "\"simd_build\": \"%s\", \"cpu_avx2\": %s, \"cpu_avx512f\": %s, "
      "\"build_type\": \"%s\", \"compiler\": \"%s\", \"source\": \"%s\", "
      "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %.3f, "
      "\"trace\": %d, \"setups\": %d, \"latency_samples\": %zu, "
      "\"interactive_samples\": %zu, \"loop\": \"%s\", \"rate_qps\": %.1f, "
      "\"connections\": %d, \"window\": %d}\n",
      std::thread::hardware_concurrency(), json_escape(cpu_model()).c_str(),
      simd, __builtin_cpu_supports("avx2") ? "true" : "false",
      __builtin_cpu_supports("avx512f") ? "true" : "false",
      PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
      json_escape(args.get("source-id", "unknown")).c_str(), w.name.c_str(),
      static_cast<unsigned long long>(seed), seconds, traced ? 1 : 0, w.setups,
      tr.latency_ms.size(), tr.interactive_ms.size(),
      w.loop == Loop::kOpen ? "open" : "closed", w.rate_qps, w.connections,
      w.window);

  if (tr.latency_ms.empty()) {
    std::fprintf(stderr, "no query completed\n");
    return 1;
  }
  // Every end-to-end figure, by name and unit. Percentiles appear only
  // where at least ten samples lie beyond them.
  std::vector<Metric> report = {
      {"setup_s", setup_med, "s"},
      {"setup_wall_s", midas::percentile(setup_wall_s, 50.0), "s"},
      {"qps", tr.qps, "1/s"},
      {"latency_p50_ms", quantile(tr.latency_ms, 50.0).value, "ms"},
  };
  for (double p : {90.0, 99.0})
    if (percentile_supported(tr.latency_ms.size(), p))
      report.push_back({"latency_" + quantile(tr.latency_ms, p).label() +
                            "_ms",
                        quantile(tr.latency_ms, p).value, "ms"});
  if (!tr.interactive_ms.empty()) {
    report.push_back({"interactive_p50_ms",
                      quantile(tr.interactive_ms, 50.0).value, "ms"});
    if (percentile_supported(tr.interactive_ms.size(), 99.0))
      report.push_back({"interactive_p99_ms",
                        quantile(tr.interactive_ms, 99.0).value, "ms"});
  }
  report.push_back({"error_ratio",
                    static_cast<double>(tr.failed) /
                        static_cast<double>(std::max<std::size_t>(tr.attempted, 1)),
                    "ratio"});
  report.push_back({"cpu_ms_per_query", cpu_ms_per_query, "ms"});
  report.push_back({"peak_rss_mb", rss_mb, "MiB"});
  for (const Metric& m : report)
    std::printf("  %-22s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());

  std::vector<Metric> metrics;
  if (!traced) {
    metrics = {
        {"setup_s", setup_med, "s"},
        {"cpu_ms_per_query", cpu_ms_per_query, "ms"},
        {"peak_rss_mb", rss_mb, "MiB"},
    };
  } else {
    // Per-layer metrics from the traced pass, the replay and the probes.
    const Probes pr = run_probes(w, direct, w.loop == Loop::kOpen ? 2 : 1);
    std::map<std::string, LayerRow> rows;
    for (LayerRow& r : self_times(spans.spans())) rows[r.name] = r;

    const double q = static_cast<double>(std::max<std::size_t>(tr.completed, 1));
    const auto& c0 = svc0.cache;
    const auto& c1 = svc1.cache;
    const double lookups =
        static_cast<double>((c1.hits - c0.hits) + (c1.misses - c0.misses));
    const double calls = static_cast<double>(std::max<std::size_t>(direct.engine_calls, 1));
    double engine_ms = 0.0;
    double engine_n = 0.0;
    for (const auto& [n, r] : rows)
      if (n.rfind("core.engine.", 0) == 0) {
        engine_ms += r.total_s * 1e3;
        engine_n += static_cast<double>(r.count);
      }
    const double client_total =
        rows.count("client") ? rows.at("client").total_s : 0.0;
    const double net_service = layer_self(rows, "net") +
                               layer_self(rows, "service.queue") +
                               layer_self(rows, "service.other");
    // Every span that is not part of a served request's tree is a replay
    // span (direct calls).
    const std::set<std::string> served_spans = {
        "request", "loadgen.late", "client",       "net",
        "service.queue", "core.engine", "service.other"};
    double replay_self = 0.0;
    for (const auto& [n, r] : rows)
      if (served_spans.count(n) == 0) replay_self += r.self_s;
    const double partition_self = layer_self(rows, "partition.multilevel") +
                                  layer_self(rows, "partition.views");
    const Traffic base = summarize(w, untraced_pass);
    const double p50_base = quantile(base.latency_ms, 50.0).value;
    const double p50_traced = quantile(tr.latency_ms, 50.0).value;

    metrics = {
        {"loadgen.late_ms_tail", tail(tr.late_ms).value, "ms"},
        {"net.wire_ms_p50", quantile(tr.wire_ms, 50.0).value, "ms"},
        {"net.codec_us", pr.codec_us, "us"},
        {"net.bytes_per_query",
         static_cast<double>((net1.rx_bytes - net0.rx_bytes) +
                             (net1.tx_bytes - net0.tx_bytes)) / q,
         "bytes"},
        {"service.queue_ms_p50", quantile(tr.queue_ms, 50.0).value, "ms"},
        {"service.queue_ms_tail", tail(tr.queue_ms).value, "ms"},
        {"service.overhead_ms_p50", quantile(tr.overhead_ms, 50.0).value,
         "ms"},
        {"service.cache_hit_ratio",
         lookups > 0 ? static_cast<double>(c1.hits - c0.hits) / lookups : 0.0,
         "ratio"},
        {"service.builds_per_query",
         static_cast<double>(c1.builds - c0.builds) / q, "count"},
        {"service.evictions_per_query",
         static_cast<double>(c1.evictions - c0.evictions) / q, "count"},
        {"service.pool_reuse_ratio",
         svc1.executed > svc0.executed
             ? static_cast<double>(svc1.pool_reuse - svc0.pool_reuse) /
                   static_cast<double>(svc1.executed - svc0.executed)
             : 0.0,
         "ratio"},
        {"graph.build_ms", layer_mean_ms(rows, "graph.build"), "ms"},
        {"partition.multilevel_ms", layer_mean_ms(rows, "partition.multilevel"),
         "ms"},
        {"partition.views_ms", layer_mean_ms(rows, "partition.views"), "ms"},
        {"partition.halo_values",
         direct.view_builds ? static_cast<double>(direct.halo_values) /
                                  static_cast<double>(direct.view_builds)
                            : 0.0,
         "count"},
        {"core.rand_tables_ms", layer_mean_ms(rows, "core.rand_tables"), "ms"},
        {"core.engine_ms", engine_n > 0 ? engine_ms / engine_n : 0.0, "ms"},
        {"core.engine_ms.path", layer_mean_ms(rows, "core.engine.path"), "ms"},
        {"core.engine_ms.tree", layer_mean_ms(rows, "core.engine.tree"), "ms"},
        {"core.vtime_ms", direct.vtime_s * 1e3 / calls, "model_ms"},
        {"core.rounds_per_query", static_cast<double>(direct.rounds) / calls,
         "count"},
        {"core.certify_ms",
         layer_self(rows, "core.certify") * 1e3 /
             static_cast<double>(std::max<std::size_t>(direct.queries, 1)),
         "ms"},
        {"core.speedup_n4", pr.n4_ms > 0 ? pr.n1_ms / pr.n4_ms : 0.0, "ratio"},
        {"gf.scalar_ms", pr.scalar_ms, "ms"},
        {"gf.bitsliced_ms", pr.bitsliced_ms, "ms"},
        {"gf.bitsliced_speedup",
         pr.bitsliced_ms > 0 ? pr.scalar_ms / pr.bitsliced_ms : 0.0, "ratio"},
        {"gf.lane_fill", pr.lane_fill, "ratio"},
        {"gf.transpose_ns", pr.transpose_ns, "ns"},
        {"runtime.messages_per_query",
         static_cast<double>(direct.messages) / calls, "count"},
        {"runtime.bytes_per_query", static_cast<double>(direct.bytes) / calls,
         "bytes"},
        {"runtime.wait_ms", direct.wait_s * 1e3 / calls, "model_ms"},
        {"layer.net_service_pct",
         client_total > 0 ? 100.0 * net_service / client_total : 0.0, "%"},
        {"layer.partition_pct",
         replay_self > 0 ? 100.0 * partition_self / replay_self : 0.0, "%"},
        {"trace.overhead_pct", 100.0 * (p50_traced - p50_base) / p50_base,
         "%"},
    };

    std::printf("  untraced pass: p50=%.4f ms (n=%zu); traced pass: p50=%.4f "
                "ms (n=%zu); tracing overhead %+.2f%%\n",
                p50_base, base.latency_ms.size(), p50_traced,
                tr.latency_ms.size(), 100.0 * (p50_traced - p50_base) / p50_base);
    print_quantiles("loadgen.late_ms", tr.late_ms);
    print_quantiles("net.wire_ms", tr.wire_ms);
    print_quantiles("service.queue_ms", tr.queue_ms);
    print_quantiles("service.overhead_ms", tr.overhead_ms);
    std::printf("  probes: k-path sample of %zu; scalar %.3f ms, bit-sliced "
                "%.3f ms, N=N1=1 %.3f ms, N=4 %.3f ms (gf.lane_fill is "
                "computed)\n",
                pr.sample, pr.scalar_ms, pr.bitsliced_ms, pr.n1_ms, pr.n4_ms);
    std::printf("  self-time table (served path from returned fields; replay "
                "from direct calls):\n");
    std::printf("    %-24s %8s %12s %12s\n", "span", "count", "total_ms",
                "self_ms");
    for (const LayerRow& r : self_times(spans.spans()))
      std::printf("    %-24s %8zu %12.3f %12.3f\n", r.name.c_str(), r.count,
                  r.total_s * 1e3, r.self_s * 1e3);
    std::filesystem::create_directories(out_dir);
    const std::string trace_path = out_dir + "/trace-" + w.name + "-seed" +
                                   std::to_string(seed) + ".json";
    write_chrome_trace(trace_path, spans.spans());
    std::printf("  chrome trace: %s (%zu spans)\n", trace_path.c_str(),
                spans.spans().size());
  }

  if (traced)
    for (const Metric& m : metrics)
      std::printf("  %-28s %.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", tr.attempted, tr.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  try {
    const midas::Args args(argc, argv);
    if (args.get("workload", "").empty()) {
      std::fprintf(stderr,
                   "usage: midas_perfbench --workload=NAME --seed=N "
                   "--seconds=S --trace=0|1\n");
      return 2;
    }
    return run(args, process_start);
  } catch (const net::NetError& e) {
    std::fprintf(stderr, "transport failure: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
