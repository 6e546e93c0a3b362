// DetectionService — the batched multi-query front end of the MIDAS engine
// (docs/SERVICE.md).
//
// The engine answers one k-MLD query per run; real deployments (motif
// discovery sweeps, scan-statistic monitoring) issue *many* queries against
// the same graph. The service accepts heterogeneous queries (k-path,
// k-tree, scan; any kernel; any field width) as futures, runs them on a
// fixed-size worker pool, and amortizes per-graph setup through a
// single-flight striped-LRU artifact cache (partition + halo schedule
// views, per-(seed, k) randomness tables):
//
//  * Admission control: each priority lane (interactive, batch) holds at
//    most queue_capacity queries; past that submit() throws a typed
//    ServiceOverloadError (carrying both lanes' depths and the shed
//    policy) without touching in-flight work. Workers always drain the
//    interactive lane first. When shedding is enabled, a query whose
//    deadline is already infeasible given the estimated queue wait is
//    rejected up front with DeadlineInfeasibleError.
//  * Core budgeting + sharded dispatch: the pool is sized by an explicit
//    CPU budget (workers x ranks_per_worker ~ cores, auto-derived from
//    hardware_concurrency unless overridden), each worker owns a
//    persistent runtime::RankPool its queries' SPMD gangs reuse across
//    queries (park/wake, not spawn/join), and each worker owns a queue
//    shard: submit() estimates the query's cost from the alpha-beta model
//    and places it on the least-loaded shard; idle workers steal from the
//    most-loaded one, so skew never strands a core.
//  * Dedup: identical in-flight queries (same fingerprint — graph, params,
//    seed) share one execution and one result future. A retried execution
//    keeps the shared future open: dedup waiters ride the retry.
//  * Deadlines: a query whose timeout expires while still queued completes
//    with DeadlineExceededError; the worker pool is never poisoned. A
//    query that starts before its deadline runs to completion.
//  * Resilience (service/resilience.hpp, docs/RESILIENCE.md §7): failures
//    classified retryable are re-enqueued under the query's RetryPolicy
//    (exponential backoff, deterministic seeded jitter) instead of
//    settling the future; a per-graph circuit breaker fast-fails queries
//    while artifact builds are down (half-open probe after cooldown);
//    executions straggling past hedge_multiplier x their lane's rolling
//    p99 are hedged — a second attempt races the straggler and the first
//    completion wins; a worker thread that dies on an unexpected
//    exception is logged, counted, and replaced, never shrinking the
//    pool. The seeded chaos harness (ServiceOptions::chaos) makes all of
//    it testable end-to-end.
//  * Integrity (service/integrity.hpp, docs/INTEGRITY.md): cached
//    artifacts are checksummed at publish and re-verified on read
//    (corrupted entries quarantined and rebuilt, never consumed); certify
//    mode backs every "yes" with an exactly validated witness; results
//    carry their target and achieved error bounds, with optional adaptive
//    re-amplification of under-amplified "no" answers; a background audit
//    sampler re-executes settled queries under the alternate kernel and a
//    fresh seed, quarantining on provable mismatches.
//  * Every answer is bit-identical to a direct single-query engine run
//    with the same parameters (the soak suites enforce this, including
//    under chaos), because the cache only stores state the engine would
//    have derived identically and retried/hedged attempts re-run the same
//    pure computation.
//
// Instrumentation (runtime/trace.hpp, when the tracer is armed):
// service.query spans, service.queue_depth gauge, service.cache.* and
// service.* counters (retries, hedges, shed, breaker_trips,
// worker_restarts), service.breaker_state gauge,
// service.query_latency_ns histogram. stats() works with the tracer
// disarmed.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "graph/csr.hpp"
#include "runtime/trace.hpp"
#include "service/artifact_cache.hpp"
#include "service/integrity.hpp"
#include "service/query.hpp"
#include "service/resilience.hpp"

namespace midas::runtime {
class RankPool;
}  // namespace midas::runtime

namespace midas::service {

/// Resolved CPU allocation for a service instance: how many workers run
/// concurrently and how many persistent rank threads each worker's pool
/// starts with, chosen so workers x ranks_per_worker ~ cores. See
/// resolve_core_budget().
struct CoreBudget {
  int cores = 1;            // CPU budget the sizing used
  int workers = 1;          // resolved worker-thread count
  int ranks_per_worker = 1; // initial RankPool threads per worker
};

/// Derive a CoreBudget. `workers` > 0 pins the worker count; 0 derives it
/// as cores / ranks_hint (clamped to [1, 16]) so the steady state runs
/// ~one rank thread per core instead of oversubscribing (EXPERIMENTS.md
/// "Profiling the service under load"). `cores` = 0 reads
/// std::thread::hardware_concurrency(). Each worker's pool starts at
/// max(ranks_hint, cores / workers) threads and grows on demand for
/// wider queries.
[[nodiscard]] CoreBudget resolve_core_budget(int workers, int cores,
                                             int ranks_hint);

/// Estimated execution cost (model seconds) of one query against a graph
/// with `vertices`/`edges`, from the alpha-beta cost model and the
/// schedule arithmetic (rounds x k x per-rank slice x iteration lanes,
/// plus one halo exchange per phase). Only *relative* accuracy matters:
/// the dispatcher uses it to rank shards by load, millisort-style, so a
/// k=8 scan and a k=3 path land on different scales and skew evens out.
[[nodiscard]] double estimate_query_cost(const QuerySpec& q,
                                         std::uint64_t vertices,
                                         std::uint64_t edges);

struct ServiceOptions {
  /// Worker pool size; 0 (the default) derives it from the core budget —
  /// see resolve_core_budget().
  int workers = 0;
  /// CPU budget for auto-sizing; 0 = std::thread::hardware_concurrency().
  int cores = 0;
  /// Expected n_ranks of a typical query; sizes each worker's rank pool
  /// and the workers-from-cores derivation.
  int ranks_hint = 2;
  std::size_t queue_capacity = 64; // admission bound per lane
  std::size_t cache_capacity = 16; // resident artifact cache entries
  bool cache_enabled = true;       // false = rebuild artifacts per query
  std::size_t cache_shards = 16;   // lock stripes in the artifact cache

  // -- resilience (service/resilience.hpp) --------------------------------
  /// Default retry policy for queries that do not set their own
  /// (QuerySpec::retry.max_attempts == 0). max_attempts = 1 disables
  /// retries service-wide.
  RetryPolicy retry{.max_attempts = 3};
  /// Deadline-aware admission: shed queries whose timeout budget is
  /// already smaller than the estimated queue wait (lane rolling mean
  /// execution time x queued-ahead / workers). Sheds only once
  /// shed_min_samples executions have been observed.
  bool shed_enabled = true;
  std::size_t shed_min_samples = 8;
  /// Hedged re-execution: > 0 arms the straggler watchdog — an execution
  /// running longer than hedge_multiplier x its lane's rolling p99 (once
  /// hedge_min_samples executions are observed; never below hedge_min_s)
  /// gets a second attempt, and the first completion settles the future.
  double hedge_multiplier = 0.0;
  std::size_t hedge_min_samples = 16;
  double hedge_min_s = 0.005;
  /// Per-graph circuit breaker on artifact-build failures.
  CircuitBreaker::Config breaker{};

  // -- answer integrity (service/integrity.hpp, docs/INTEGRITY.md) --------
  /// Read-time checksum verification of cached artifacts. kFull verifies
  /// every read (the zero-escape guarantee the chaos soak proves);
  /// kSampled verifies 1 in verify_sample_period reads (bounded detection
  /// latency at near-zero hit cost); kOff trusts memory.
  ArtifactCache::Verify verify = ArtifactCache::Verify::kOff;
  std::size_t verify_sample_period = 16;
  /// Background audit sampler: fraction of settled queries re-executed
  /// under the alternate kernel (decision mismatch = proof of corruption,
  /// quarantines the graph) and a fresh seed (missed-"yes" ledger).
  /// 0 disables the sampler thread entirely.
  double audit_rate = 0.0;
  std::uint64_t audit_seed = 0xA0D17ULL;

  /// Chaos harness (tests / `midas_cli serve --fault-*` only).
  ServiceFaultPlan chaos{};
  /// Supervisor poll period (retry timers, hedge watchdog).
  double supervisor_poll_s = 0.002;

  /// Test seam: runs on the worker thread after a query is dequeued and
  /// has passed its deadline check, before execution. Lets tests hold the
  /// pool at a deterministic point; never set in production.
  std::function<void(const QuerySpec&)> before_execute{};
};

struct ServiceStats {
  std::uint64_t submitted = 0;          // accepted into a queue
  std::uint64_t executed = 0;           // execution attempts that completed
  std::uint64_t deduped = 0;            // shared an in-flight execution
  std::uint64_t rejected = 0;           // ServiceOverloadError at admission
  std::uint64_t shed = 0;               // DeadlineInfeasibleError at admission
  std::uint64_t deadline_exceeded = 0;  // expired while queued
  std::uint64_t failed = 0;             // settled with an error (permanent)
  std::uint64_t attempt_failures = 0;   // execution attempts that raised
  std::uint64_t retried = 0;            // retries scheduled
  std::uint64_t hedges = 0;             // hedged re-executions launched
  std::uint64_t hedge_wins = 0;         // answers produced by a hedge
  std::uint64_t worker_restarts = 0;    // dead workers replaced
  std::uint64_t breaker_trips = 0;      // circuit-open transitions
  std::uint64_t breaker_fastfail = 0;   // queries fast-failed on open circuit
  std::uint64_t chaos_engine_faults = 0;  // attempts with injected faults
  std::uint64_t chaos_build_failures = 0; // forced artifact-build failures
  std::uint64_t chaos_artifact_flips = 0; // injected artifact bit-flips

  // -- answer integrity (service/integrity.hpp) ---------------------------
  std::uint64_t certified = 0;          // "yes" answers backed by a witness
  std::uint64_t cert_failures = 0;      // certification could not back a "yes"
  std::uint64_t reamplified = 0;        // "no" answers topped up with rounds
  std::uint64_t audits_scheduled = 0;   // settled answers queued for audit
  std::uint64_t audits_completed = 0;
  std::uint64_t audit_mismatches = 0;   // alternate-kernel decision mismatch
  std::uint64_t audit_missed_yes = 0;   // fresh-seed probe beat a "no"
  std::uint64_t integrity_quarantines = 0;  // graphs force-opened + flushed

  std::size_t workers_alive = 0;        // current pool size (never shrinks)
  std::size_t breaker_open = 0;         // graphs currently fast-failing
  std::size_t queued_interactive = 0;   // across all shards
  std::size_t queued_batch = 0;         // across all shards
  std::size_t retry_pending = 0;        // waiting out a backoff
  std::size_t inflight = 0;             // dequeued, still executing

  // -- core budget + sharded execution ------------------------------------
  int workers = 0;                      // resolved worker count
  int cores = 0;                        // CPU budget the sizing used
  int ranks_per_worker = 0;             // initial pool threads per worker
  std::uint64_t pool_reuse = 0;         // SPMD gangs served by a warm pool
  std::uint64_t steals = 0;             // tickets taken from another shard
  std::vector<double> shard_load;       // estimated cost pending per shard
  std::vector<std::size_t> shard_queued;  // tickets queued per shard

  ArtifactCache::Stats cache;
};

class DetectionService {
 public:
  explicit DetectionService(ServiceOptions opt = {});
  ~DetectionService();

  DetectionService(const DetectionService&) = delete;
  DetectionService& operator=(const DetectionService&) = delete;

  /// Register (or replace) a graph under `name`. Replacing a graph does
  /// not invalidate cache entries built from the old one; use distinct
  /// names for distinct graphs.
  void add_graph(const std::string& name, graph::Graph g);
  [[nodiscard]] std::shared_ptr<const graph::Graph> graph(
      const std::string& name) const;

  /// Admit a query. Returns a future that completes with the result, or
  /// with DeadlineExceededError / ServiceShutdownError / the engine's
  /// error (after the retry budget for retryable failures). Throws
  /// ServiceOverloadError (lane full), DeadlineInfeasibleError (shed),
  /// CircuitOpenError (graph's breaker open), UnknownGraphError, or
  /// QueryValidationError (malformed spec, carrying the offending field
  /// name) — all before enqueueing.
  std::shared_future<QueryResult> submit(const QuerySpec& spec);

  /// Block until both lanes are empty, no retry is pending, and no query
  /// is executing.
  void drain();

  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] ArtifactCache& cache() noexcept { return cache_; }

 private:
  using Clock = std::chrono::steady_clock;

  /// One admitted query. Shared by the queue, the dedup map, retries and
  /// hedges: the promise settles exactly once, at the final outcome, so
  /// dedup waiters transparently ride retried executions.
  struct Ticket {
    QuerySpec spec;
    std::uint64_t fingerprint = 0;
    double cost = 0.0;  // estimate_query_cost at admission (load unit)
    int shard = 0;      // worker shard currently charged for this ticket
    RetryPolicy retry;  // resolved (spec override or service default)
    std::promise<QueryResult> promise;
    Clock::time_point submitted_at;
    Clock::time_point deadline;  // valid if has_deadline
    bool has_deadline = false;

    int attempts_started = 0;   // execution starts (retries + hedges)
    int outstanding = 0;        // executions in flight right now
    int worker_kills = 0;       // chaos worker kills absorbed (bounded)
    bool settled = false;
    bool retry_pending = false; // sitting in the retry heap
    bool hedged = false;        // hedge launched for the current attempt
    bool breaker_probe = false; // holds the graph's half-open probe slot
    Clock::time_point exec_started;  // current primary attempt's start
    std::exception_ptr last_error;
  };

  struct RetryEntry {
    Clock::time_point due;
    std::shared_ptr<Ticket> ticket;
    bool operator>(const RetryEntry& o) const noexcept { return due > o.due; }
  };

  /// One worker's slice of the admission queues plus its estimated load
  /// (alpha-beta cost of everything queued on it or executing charged to
  /// it). Guarded by m_.
  struct WorkerShard {
    std::deque<std::shared_ptr<Ticket>> interactive, batch;
    double load = 0.0;
  };

  /// Per-attempt execution context: the worker's persistent rank pool and
  /// tracer lane block, and the shard whose load this attempt is charged
  /// against. Default-constructed for out-of-band runs (audit probes):
  /// those spawn/join and trace on the host lanes.
  struct ExecContext {
    runtime::RankPool* pool = nullptr;
    int lane_base = 0;  // SPMD rank r traces on lane lane_base + r
    int shard = -1;     // -1 = no load charged
  };

  void worker_main(int w);
  void worker_loop(int w, runtime::RankPool& pool);
  void supervisor_loop();
  /// Runs the engine for one spec through the artifact cache, then the
  /// integrity passes (epsilon accounting, reamplify, certify). Fills the
  /// serving telemetry fields except queue_s/total_s (the worker does).
  QueryResult execute(const QuerySpec& spec, std::uint64_t fingerprint,
                      int attempt, const ExecContext& ctx);
  /// One engine run against cached artifacts — the inner piece of
  /// execute(), reused bit-identically by the reamplify top-up.
  QueryResult run_engine(const QuerySpec& spec,
                         const GraphArtifacts& artifacts,
                         core::MidasOptions opt);
  /// Integrity quarantine of a whole graph: force the breaker open and
  /// flush every cached artifact built from it (an audit decision mismatch
  /// or failed certification is proof of corruption, not a trend).
  void quarantine_graph(const std::string& graph_name);
  /// Runs one execution attempt and applies the outcome to the ticket:
  /// settle, schedule a retry, or defer to a still-outstanding attempt.
  void run_attempt(const std::shared_ptr<Ticket>& t, bool is_hedge,
                   int attempt, Clock::time_point started,
                   const ExecContext& ctx);
  /// Failure bookkeeping shared by run_attempt and the worker's
  /// last-resort catch: under m_, decides retry vs. settle-with-error.
  void complete_failure(const std::shared_ptr<Ticket>& t,
                        std::exception_ptr error);
  void settle_value(const std::shared_ptr<Ticket>& t, QueryResult&& r,
                    bool is_hedge);
  void settle_error(const std::shared_ptr<Ticket>& t,
                    std::exception_ptr error);
  /// Chaos + bookkeeping at the start of an artifact build: bumps the
  /// per-key build index and throws InjectedBuildFailureError when the
  /// chaos plan forces this build to fail.
  void guard_build(const std::string& key, const std::string& graph_name);
  void note_build_success(const std::string& graph_name);
  void note_build_failure(const std::string& graph_name);
  void note_build_failure_locked(const std::string& graph_name);
  void validate(const QuerySpec& spec, const graph::Graph& g) const;
  void update_queue_gauge() const;
  void update_breaker_gauge();
  [[nodiscard]] double now_s() const;

  // -- sharded dispatch (all under m_) ------------------------------------
  [[nodiscard]] std::size_t queued_locked(Lane lane) const;
  [[nodiscard]] bool queues_empty_locked() const;
  /// Least-loaded shard — where submit/retry place the next ticket.
  [[nodiscard]] int pick_shard_locked() const;
  /// Push `t` onto its shard's lane queue and charge the shard's load.
  void enqueue_locked(const std::shared_ptr<Ticket>& t, bool front = false);
  /// Pop the next lane ticket for worker `w`: own interactive, stolen
  /// interactive, own batch, stolen batch (lane priority stays global).
  /// A steal moves the ticket's charge onto shard `w`. Null when every
  /// lane queue is empty.
  [[nodiscard]] std::shared_ptr<Ticket> dequeue_locked(int w);
  /// Remove `cost` from a shard's load (attempt finished / ticket dropped).
  void release_charge_locked(int shard, double cost);
  void update_shard_gauges_locked() const;

  ServiceOptions opt_;
  ServiceFaultInjector chaos_;
  ArtifactCache cache_;

  mutable std::mutex graphs_m_;  // graphs_ only: keeps execute() off m_
  std::unordered_map<std::string, std::shared_ptr<const graph::Graph>>
      graphs_;

  mutable std::mutex m_;
  std::condition_variable work_cv_;   // workers: work available / stopping
  std::condition_variable drain_cv_;  // drain(): everything idle
  std::condition_variable sup_cv_;    // supervisor: retry due / exec started
  std::vector<WorkerShard> shards_;   // one per worker (fixed at ctor)
  std::deque<std::shared_ptr<Ticket>> hedge_;  // global; drained first
  std::vector<RetryEntry> retry_heap_;         // min-heap by due time
  std::unordered_map<Ticket*, std::shared_ptr<Ticket>> executing_tickets_;
  std::unordered_map<std::uint64_t, std::shared_future<QueryResult>>
      inflight_by_key_;
  CircuitBreaker breaker_;
  RollingWindow exec_window_[2];  // per-lane execution seconds
  bool stopping_ = false;
  std::size_t executing_ = 0;     // busy workers
  std::size_t workers_alive_ = 0;
  std::uint64_t dequeues_ = 0;    // chaos worker-kill decision index
  // Chaos build draws per key: failed builds so far, or kBuildSettled
  // once the key has built clean (see guard_build).
  static constexpr std::uint64_t kBuildSettled = ~std::uint64_t{0};
  std::unordered_map<std::string, std::uint64_t> build_attempts_;
  std::unordered_map<std::string, std::uint64_t> flip_attempts_;
  std::uint64_t submitted_ = 0, executed_ = 0, deduped_ = 0, rejected_ = 0,
                shed_ = 0, deadline_exceeded_ = 0, failed_ = 0,
                attempt_failures_ = 0, retried_ = 0, hedges_ = 0,
                hedge_wins_ = 0, worker_restarts_ = 0,
                breaker_fastfail_ = 0, chaos_engine_faults_ = 0,
                chaos_build_failures_ = 0, chaos_artifact_flips_ = 0,
                certified_ = 0, cert_failures_ = 0, reamplified_ = 0,
                integrity_quarantines_ = 0, pool_reuse_ = 0, steals_ = 0;

  CoreBudget budget_;  // resolved at construction, immutable after
  /// Cached gauge handles ("service.shard_load.<i>", model-microseconds),
  /// one per shard — resolved once so the hot path never does the
  /// name-lookup under the registry mutex.
  std::vector<runtime::MetricsRegistry::Gauge*> shard_gauges_;

  const Clock::time_point epoch_ = Clock::now();

  std::unique_ptr<AuditSampler> auditor_;  // armed when audit_rate > 0
  std::thread supervisor_;
  std::vector<std::thread> workers_;  // last member: joins before teardown
};

}  // namespace midas::service
