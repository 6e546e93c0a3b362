// Service-level resilience for the DetectionService (docs/RESILIENCE.md §7,
// docs/SERVICE.md "Failure semantics").
//
// The engine already survives injected faults (failover, checkpoint/restart,
// watchdog speculation); this header gives the *query front end* the same
// story. Four pieces:
//
//  * Fault classification — classify_failure() splits every error a query
//    execution can raise into retryable (rank deaths, world aborts,
//    timeouts, injected/transient artifact-build failures) vs. fatal
//    (validation bugs, unknown graphs, open circuits). Retryable failures
//    are re-enqueued under the query's RetryPolicy instead of poisoning its
//    future — and dedup waiters ride the retry.
//
//  * backoff_s() — exponential backoff with deterministic seeded jitter:
//    a pure function of (policy, query fingerprint, attempt), so a query's
//    retry schedule is bit-identical across reruns, which is what lets the
//    chaos suite assert schedules instead of sleeping and hoping.
//
//  * CircuitBreaker — per-key (per-graph) consecutive-failure breaker with
//    the classic closed -> open -> half-open probe cycle. While open,
//    queries fast-fail with CircuitOpenError instead of queueing behind a
//    build that cannot succeed.
//
//  * ServiceFaultPlan / ServiceFaultInjector — the chaos harness. Extends
//    the PR-1 engine FaultPlan to the service layer: per-query-attempt rank
//    kills and message corruption injected into the engine run's fault
//    plan, forced artifact-build failures, and worker-thread kills at
//    dequeue. Every decision is a pure function of (plan seed, fingerprint
//    or key, attempt), and attempts past max_faulty_attempts are always
//    clean, so chaos runs are reproducible and always terminate.
//
// RollingWindow is the small latency sketch behind hedging (lane p99) and
// deadline-aware admission (lane mean); it is deliberately unlocked — the
// service guards it with its own mutex.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/detect_par.hpp"
#include "runtime/fault.hpp"
#include "service/query.hpp"

namespace midas::service {

// ---------------------------------------------------------------------------
// Chaos-only errors
// ---------------------------------------------------------------------------

/// A forced artifact-build failure injected by the chaos harness. Transient
/// by construction (the injector stops failing a key after
/// max_faulty_attempts builds), so it is classified retryable.
class InjectedBuildFailureError : public ServiceError {
 public:
  InjectedBuildFailureError(const std::string& key, std::uint64_t build)
      : ServiceError("injected artifact-build failure: key '" + key +
                     "' build #" + std::to_string(build)) {}
};

/// A worker-thread kill injected by the chaos harness at dequeue. The work
/// item is re-enqueued before the throw, the dying worker is replaced
/// (DetectionService self-healing), and the query retries transparently.
class WorkerKilledFault : public ServiceError {
 public:
  explicit WorkerKilledFault(std::uint64_t dequeue)
      : ServiceError("service worker killed by chaos plan at dequeue #" +
                     std::to_string(dequeue)) {}
};

// ---------------------------------------------------------------------------
// Fault classification
// ---------------------------------------------------------------------------

enum class FaultClass {
  kRetryable,  // transient: re-enqueue under the RetryPolicy
  kFatal,      // deterministic: settle the future with the error
};

/// Classify one execution failure. Retryable: the runtime fault family
/// (rank kills/failures, world aborts, timeouts, unrecoverable-this-run
/// failover exhaustion — the next attempt draws a different fault schedule)
/// plus the chaos harness's injected build failures and worker kills.
/// Everything else — validation errors, unknown graphs, open circuits,
/// exhausted memory, unknown exceptions — is fatal: retrying a caller bug
/// or an unknown failure mode just burns the pool.
[[nodiscard]] FaultClass classify_failure(
    const std::exception_ptr& error) noexcept;

/// Human-readable class name ("retryable" / "fatal") for logs and traces.
[[nodiscard]] const char* to_string(FaultClass c) noexcept;

// ---------------------------------------------------------------------------
// Retry backoff
// ---------------------------------------------------------------------------

/// Backoff before retry number `attempt` (1 = first retry) of the query
/// with fingerprint `key`: exponential in the attempt, scaled by a
/// deterministic jitter in [1 - jitter, 1 + jitter] drawn from (key,
/// attempt). Pure function — rerunning a workload reproduces every retry
/// schedule exactly.
[[nodiscard]] double backoff_s(const RetryPolicy& policy, std::uint64_t key,
                               int attempt) noexcept;

// ---------------------------------------------------------------------------
// Rolling latency window
// ---------------------------------------------------------------------------

/// Fixed-capacity ring of the most recent samples with mean and quantile
/// digests. NOT internally synchronized: the service updates and reads it
/// under its own mutex.
class RollingWindow {
 public:
  explicit RollingWindow(std::size_t capacity = 128)
      : buf_(capacity > 0 ? capacity : 1) {}

  void add(double v) noexcept {
    buf_[next_] = v;
    next_ = (next_ + 1) % buf_.size();
    if (n_ < buf_.size()) ++n_;
  }
  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept;
  /// q in [0, 100]; returns 0 when empty.
  [[nodiscard]] double quantile(double q) const;

 private:
  std::vector<double> buf_;
  std::size_t next_ = 0;
  std::size_t n_ = 0;
};

// ---------------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------------

/// Per-key consecutive-failure circuit breaker (key = graph name in the
/// service). Closed until `failure_threshold` consecutive recorded
/// failures; then open for `cooldown_s`, during which admit() fast-fails;
/// after the cooldown exactly one caller is granted a half-open probe —
/// its success closes the circuit, its failure re-opens it for another
/// cooldown. All methods are unsynchronized: callers (the service) hold
/// their own lock.
class CircuitBreaker {
 public:
  struct Config {
    int failure_threshold = 3;  // consecutive failures that trip the breaker
    double cooldown_s = 5.0;    // open duration before the half-open probe
    bool enabled = true;
  };

  enum class State { kClosed, kHalfOpen, kOpen };

  CircuitBreaker() = default;
  explicit CircuitBreaker(const Config& cfg) : cfg_(cfg) {}

  /// Gate one call on `key` at time `now_s` (any monotonic seconds source).
  /// kClosed / kHalfOpen mean proceed (kHalfOpen: this caller holds the
  /// only probe); kOpen means fast-fail.
  [[nodiscard]] State admit(const std::string& key, double now_s);

  void record_success(const std::string& key);
  /// Returns true when this failure tripped the breaker open (either the
  /// threshold was crossed or a half-open probe failed).
  bool record_failure(const std::string& key, double now_s);
  /// Trip the breaker open immediately, regardless of the consecutive-
  /// failure count — the integrity layer's quarantine path (an audit
  /// decision mismatch is proof of corruption, not a trend to average).
  void force_open(const std::string& key, double now_s);
  /// Give back an unused half-open probe slot (the probing caller went
  /// away without reaching a build), so a later caller can probe instead.
  void release_probe(const std::string& key);

  [[nodiscard]] State state(const std::string& key, double now_s) const;
  /// Seconds until the next half-open probe is allowed (0 when not open).
  [[nodiscard]] double retry_after_s(const std::string& key,
                                     double now_s) const;
  [[nodiscard]] std::uint64_t trips() const noexcept { return trips_; }
  [[nodiscard]] std::size_t open_count(double now_s) const;
  [[nodiscard]] const Config& config() const noexcept { return cfg_; }

 private:
  struct Entry {
    int consecutive_failures = 0;
    double open_until_s = 0.0;
    bool open = false;
    bool probe_inflight = false;
  };

  Config cfg_;
  std::unordered_map<std::string, Entry> entries_;
  std::uint64_t trips_ = 0;
};

// ---------------------------------------------------------------------------
// Chaos harness
// ---------------------------------------------------------------------------

/// Seeded description of what the chaos harness breaks at the service
/// layer. Probabilities are per decision point; every decision is a pure
/// function of (seed, identity, attempt), never of wall time or thread
/// scheduling. Attempts and per-key builds at index >= max_faulty_attempts
/// are always clean, bounding the blast radius so every retryable query
/// completes within a finite retry budget. A key's build index counts its
/// failed builds before its first clean one; rebuilds after that (cache
/// evictions, whose timing follows scheduling) are never failed.
struct ServiceFaultPlan {
  std::uint64_t seed = 0xC4A05C4A05ULL;
  double query_kill_p = 0.0;     // inject a rank kill into an attempt's run
  double query_corrupt_p = 0.0;  // arm message corruption for an attempt
  double corrupt_channel_p = 0.05;  // per-delivery corruption prob when armed
  double build_fail_p = 0.0;     // force an artifact build to throw
  double worker_kill_p = 0.0;    // kill the worker thread at dequeue
  /// Flip one bit of a freshly built cached artifact AFTER its checksum
  /// was taken — an in-memory silent corruption the read-path verifier
  /// (ArtifactCache Verify) must catch. Per-key publish index bounded by
  /// max_faulty_attempts, so quarantine + rebuild always converges.
  double artifact_flip_p = 0.0;
  int max_faulty_attempts = 2;   // attempts/builds past this are clean

  [[nodiscard]] bool empty() const noexcept {
    return query_kill_p <= 0.0 && query_corrupt_p <= 0.0 &&
           build_fail_p <= 0.0 && worker_kill_p <= 0.0 &&
           artifact_flip_p <= 0.0;
  }
};

/// Deterministic evaluator of a ServiceFaultPlan; safe to share across
/// worker threads (every method is a pure function of its arguments).
class ServiceFaultInjector {
 public:
  explicit ServiceFaultInjector(ServiceFaultPlan plan);

  [[nodiscard]] const ServiceFaultPlan& plan() const noexcept {
    return plan_;
  }
  [[nodiscard]] bool armed() const noexcept { return !plan_.empty(); }

  /// Inject engine-level faults (rank kill, message corruption) into the
  /// options of execution attempt `attempt` of the query with fingerprint
  /// `fp`. Injected kills are masked by the engines' failover when an
  /// intact phase group survives and surface as retryable typed errors
  /// otherwise;
  /// corruption is always masked by checksum retransmission (it costs
  /// modeled time, never data). Returns true when anything was injected.
  bool apply_engine_faults(core::MidasOptions& opt, std::uint64_t fp,
                           int attempt) const;

  /// Should build number `build_index` (0-based, per key) of artifact
  /// `key` be forced to fail?
  [[nodiscard]] bool should_fail_build(const std::string& key,
                                       std::uint64_t build_index) const;

  /// Should the worker die at global dequeue number `dequeue_index`?
  [[nodiscard]] bool should_kill_worker(std::uint64_t dequeue_index) const;

  /// Should publish number `publish_index` (0-based, per key) of artifact
  /// `key` be bit-flipped after checksumming?
  [[nodiscard]] bool should_flip_artifact(const std::string& key,
                                          std::uint64_t publish_index) const;

  /// Deterministic bit selector for the flip injected at (key,
  /// publish_index) — feeds ArtifactIntegrity<T>::flip_bit.
  [[nodiscard]] std::uint64_t artifact_flip_pick(
      const std::string& key, std::uint64_t publish_index) const;

 private:
  [[nodiscard]] std::uint64_t mix(std::uint64_t a, std::uint64_t b,
                                  std::uint64_t tag) const noexcept;

  ServiceFaultPlan plan_;
};

}  // namespace midas::service
