#include "service/service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <utility>

#include "core/tree_template.hpp"
#include "gf/gf256.hpp"
#include "gf/gfsmall.hpp"
#include "partition/multilevel.hpp"
#include "runtime/cost_model.hpp"
#include "runtime/rank_pool.hpp"
#include "runtime/trace.hpp"
#include "util/log.hpp"

namespace midas::service {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

Clock::duration to_duration(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

/// Run `fn` with the field instance matching `l` bits. GF(2^8) has the
/// table-driven implementation; every other width uses GFSmall.
template <typename Fn>
decltype(auto) with_field(int l, Fn&& fn) {
  if (l == 8) return fn(gf::GF256{});
  return fn(gf::GFSmall(l));
}

core::MidasOptions engine_options(const QuerySpec& spec) {
  core::MidasOptions opt;
  opt.k = spec.k;
  opt.epsilon = spec.epsilon;
  opt.seed = spec.seed;
  opt.n_ranks = spec.n_ranks;
  opt.n1 = spec.n1;
  opt.n2 = spec.n2;
  opt.max_rounds = spec.max_rounds;
  opt.early_exit = spec.early_exit;
  opt.kernel = spec.kernel;
  return opt;
}

std::string views_key(const QuerySpec& spec) {
  return "views/" + spec.graph + "/n1=" + std::to_string(spec.n1);
}

std::string rand_key(const QuerySpec& spec) {
  return "rand/" + spec.graph + "/n1=" + std::to_string(spec.n1) +
         "/l=" + std::to_string(spec.field_bits) +
         "/seed=" + std::to_string(spec.seed) +
         "/k=" + std::to_string(spec.k) +
         "/rounds=" + std::to_string(spec.rounds());
}

std::size_t lane_index(Lane l) noexcept {
  return l == Lane::kInteractive ? 0 : 1;
}

/// Tracer lane block per worker: worker w's SPMD ranks trace on lanes
/// [w * stride, w * stride + n_ranks) and the worker thread itself on the
/// block's last lane, so a Chrome trace shows one band per worker.
/// Standalone engine runs keep lane_base 0 — their lane layout (and the
/// CI assertions on it) are unchanged.
constexpr int kWorkerLaneStride = 64;

}  // namespace

CoreBudget resolve_core_budget(int workers, int cores, int ranks_hint) {
  CoreBudget b;
  if (cores > 0) {
    b.cores = cores;
  } else {
    const unsigned hw = std::thread::hardware_concurrency();
    b.cores = hw > 0 ? static_cast<int>(hw) : 1;
  }
  const int hint = std::max(1, ranks_hint);
  // Auto mode targets ~one resident rank thread per core: more workers
  // than cores/ranks just time-slice (EXPERIMENTS.md measured 4 workers x
  // 2 ranks on one core at 3.6x the per-query rank time of 1 worker).
  // Capped at 16 so a huge machine still leaves cores for builds/audits.
  b.workers = workers > 0 ? workers
                          : std::clamp(b.cores / hint, 1, 16);
  b.ranks_per_worker = std::max(hint, b.cores / b.workers);
  return b;
}

double estimate_query_cost(const QuerySpec& q, std::uint64_t vertices,
                           std::uint64_t edges) {
  const runtime::CostModel m{};
  const double iters = std::ldexp(1.0, std::clamp(q.k, 1, 30));  // 2^k
  const double rounds = static_cast<double>(q.rounds());
  const double n1 = static_cast<double>(std::max(1, q.n1));
  const double part_edges = static_cast<double>(edges) / n1 + 1.0;
  const double part_verts = static_cast<double>(vertices) / n1 + 1.0;
  // Bit-sliced kernels pack 64 iterations per plane word across
  // field_bits planes; the scalar kernel pays one field op per iteration.
  const bool scalar = q.kernel == core::Kernel::kScalar;
  const double lane_words =
      scalar ? iters : (iters / 64.0 + 1.0) * static_cast<double>(q.field_bits);
  const double compute =
      m.compute_cost(static_cast<std::uint64_t>(
          rounds * q.k * (part_edges + part_verts) * lane_words));
  // One batched halo exchange per (round, k-level, phase).
  const double phases = iters / static_cast<double>(std::max<std::uint32_t>(
                                    1, q.n2)) + 1.0;
  // Both kernels ship halos plane-native: per part vertex, field_bits
  // planes of one phase's min(N2, 2^k) lanes, so the term ignores q.kernel.
  const double batch =
      std::min(iters, static_cast<double>(std::max<std::uint32_t>(1, q.n2)));
  const double halo_bytes = part_verts * std::ceil(q.field_bits * batch / 8.0);
  const double comm =
      rounds * q.k * phases *
      m.message_cost(static_cast<std::uint64_t>(halo_bytes));
  return compute + comm;
}

DetectionService::DetectionService(ServiceOptions opt)
    : opt_(std::move(opt)),
      chaos_(opt_.chaos),
      cache_(opt_.cache_capacity, opt_.cache_enabled, opt_.cache_shards),
      breaker_(opt_.breaker) {
  if (opt_.workers < 0)
    throw std::invalid_argument("workers must be >= 0 (0 = auto)");
  if (opt_.cores < 0)
    throw std::invalid_argument("cores must be >= 0 (0 = hardware)");
  if (opt_.ranks_hint < 1)
    throw std::invalid_argument("ranks_hint must be >= 1");
  if (opt_.queue_capacity < 1)
    throw std::invalid_argument("service needs queue_capacity >= 1");
  if (opt_.supervisor_poll_s <= 0.0)
    throw std::invalid_argument("supervisor_poll_s must be > 0");
  budget_ = resolve_core_budget(opt_.workers, opt_.cores, opt_.ranks_hint);
  shards_.resize(static_cast<std::size_t>(budget_.workers));
  shard_gauges_.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i)
    shard_gauges_.push_back(&runtime::tracer().metrics().gauge(
        "service.shard_load." + std::to_string(i)));

  // -- integrity wiring (service/integrity.hpp) ---------------------------
  cache_.set_verify(opt_.verify, opt_.verify_sample_period);
  cache_.set_on_corruption([this](const std::string& key) {
    // Keys are "views/<graph>/..." or "rand/<graph>/...": the corruption
    // feeds the graph's breaker like a build failure — repeated silent
    // corruption of one graph's artifacts trips it open.
    const auto a = key.find('/');
    const auto b = key.find('/', a + 1);
    const std::string graph_name =
        (a == std::string::npos || b == std::string::npos)
            ? key
            : key.substr(a + 1, b - a - 1);
    log_warn("artifact checksum mismatch quarantined key '", key, "'");
    note_build_failure(graph_name);
  });
  if (chaos_.armed() && opt_.chaos.artifact_flip_p > 0.0) {
    cache_.set_chaos_flip_hook(
        [this](const std::string& key, std::uint64_t& pick) {
          std::uint64_t idx = 0;
          {
            std::lock_guard lock(m_);
            idx = flip_attempts_[key]++;
          }
          if (!chaos_.should_flip_artifact(key, idx)) return false;
          pick = chaos_.artifact_flip_pick(key, idx);
          {
            std::lock_guard lock(m_);
            ++chaos_artifact_flips_;
          }
          MIDAS_TRACE_COUNT("service.chaos_artifact_flips", 1);
          return true;
        });
  }
  if (opt_.audit_rate > 0.0) {
    auditor_ = std::make_unique<AuditSampler>(
        AuditSampler::Options{opt_.audit_rate, opt_.audit_seed},
        // Probes run the normal execute path (cached artifacts) at an
        // attempt index past max_faulty_attempts, so chaos never faults
        // the audit itself.
        [this](const QuerySpec& s) {
          return execute(s, query_fingerprint(s),
                         opt_.chaos.max_faulty_attempts, ExecContext{});
        },
        [this](const std::string& g) { quarantine_graph(g); },
        /*on_missed_yes=*/nullptr);
  }

  {
    std::lock_guard lock(m_);
    workers_.reserve(static_cast<std::size_t>(budget_.workers) * 2);
    for (int i = 0; i < budget_.workers; ++i) {
      workers_.emplace_back([this, i] { worker_main(i); });
      ++workers_alive_;
    }
  }
  supervisor_ = std::thread([this] { supervisor_loop(); });
}

DetectionService::~DetectionService() {
  // Stop the audit sampler first: its probes call execute(), which needs
  // the cache, graphs, and chaos state all still alive.
  auditor_.reset();
  std::vector<std::shared_ptr<Ticket>> orphans;
  {
    std::lock_guard lock(m_);
    stopping_ = true;
    for (WorkerShard& s : shards_) {
      for (auto& t : s.interactive) orphans.push_back(std::move(t));
      s.interactive.clear();
      for (auto& t : s.batch) orphans.push_back(std::move(t));
      s.batch.clear();
      s.load = 0.0;
    }
    for (auto& t : hedge_) orphans.push_back(std::move(t));
    hedge_.clear();
    for (auto& e : retry_heap_) orphans.push_back(std::move(e.ticket));
    retry_heap_.clear();
  }
  work_cv_.notify_all();
  sup_cv_.notify_all();
  if (supervisor_.joinable()) supervisor_.join();
  // workers_ can grow while self-healing spawns replacements, but never
  // after stopping_ is set (worker_main checks it under m_), so indexed
  // iteration with a re-checked bound joins every thread exactly once.
  for (std::size_t i = 0;; ++i) {
    std::thread t;
    {
      std::lock_guard lock(m_);
      if (i >= workers_.size()) break;
      t = std::move(workers_[i]);
    }
    if (t.joinable()) t.join();
  }
  // Settled after every thread is gone: no attempt can race these promises.
  for (auto& t : orphans) {
    if (!t || t->settled) continue;
    t->settled = true;
    t->promise.set_exception(std::make_exception_ptr(ServiceShutdownError()));
  }
}

void DetectionService::add_graph(const std::string& name, graph::Graph g) {
  auto ptr = std::make_shared<const graph::Graph>(std::move(g));
  std::lock_guard lock(graphs_m_);
  graphs_[name] = std::move(ptr);
}

std::shared_ptr<const graph::Graph> DetectionService::graph(
    const std::string& name) const {
  std::lock_guard lock(graphs_m_);
  auto it = graphs_.find(name);
  return it == graphs_.end() ? nullptr : it->second;
}

void DetectionService::validate(const QuerySpec& spec,
                                const graph::Graph& g) const {
  if (spec.k < 1) throw QueryValidationError("k", "must be >= 1");
  if (spec.field_bits < 2 || spec.field_bits > 16)
    throw QueryValidationError("field_bits", "must be in [2, 16]");
  // epsilon feeds rounds_for_epsilon (log of its reciprocal) even when
  // max_rounds overrides the round count — reject the nonsense up front.
  if (!(spec.epsilon > 0.0) || !(spec.epsilon < 1.0))
    throw QueryValidationError("epsilon", "must be in (0, 1)");
  if (spec.max_rounds < 0)
    throw QueryValidationError("max_rounds", "must be >= 0");
  if (spec.n1 < 1 || spec.n_ranks < spec.n1 || spec.n_ranks % spec.n1 != 0)
    throw QueryValidationError("n1", "N1 must divide N");
  if (spec.n2 < 1) throw QueryValidationError("n2", "N2 must be >= 1");
  if (spec.type == QueryType::kTree &&
      spec.tree_edges.size() + 1 != static_cast<std::size_t>(spec.k))
    throw QueryValidationError("tree_edges",
                               "tree template needs exactly k-1 edges");
  if (spec.type == QueryType::kScan &&
      spec.weights.size() != static_cast<std::size_t>(g.num_vertices()))
    throw QueryValidationError("weights",
                               "scan needs one weight per graph vertex");
  if (spec.type == QueryType::kMotif) {
    if (spec.colors.size() != static_cast<std::size_t>(g.num_vertices()))
      throw QueryValidationError("colors",
                                 "motif needs one color per graph vertex");
    if (spec.motif.empty())
      throw QueryValidationError("motif", "motif multiset must be nonempty");
    if (spec.motif.size() != static_cast<std::size_t>(spec.k))
      throw QueryValidationError("motif",
                                 "k must equal the motif multiset size");
    // A queried color no vertex carries makes the answer a static "no" —
    // that is a client bug (wrong color ids), not a detection result.
    for (std::uint32_t c : spec.motif) {
      bool present = false;
      for (std::uint32_t x : spec.colors)
        if (x == c) {
          present = true;
          break;
        }
      if (!present)
        throw QueryValidationError("motif",
                                   "motif color " + std::to_string(c) +
                                       " is absent from the graph coloring");
    }
    // The (4/5)^rounds amplification behind rounds_for_epsilon is valid
    // only while the constrained sieve's per-round Schwartz–Zippel failure
    // (2k-1)/2^l stays <= 4/5, i.e. 2^l >= 5(2k-1)/4.
    const std::uint64_t need =
        5ull * (2ull * static_cast<std::uint64_t>(spec.k) - 1ull);
    if ((std::uint64_t{1} << spec.field_bits) * 4ull < need)
      throw QueryValidationError(
          "field_bits",
          "2^l must be >= 5(2k-1)/4 for the motif error amplification");
  }
}

double DetectionService::now_s() const {
  return seconds_since(epoch_, Clock::now());
}

std::shared_future<QueryResult> DetectionService::submit(
    const QuerySpec& spec) {
  const std::uint64_t key = query_fingerprint(spec);
  std::shared_ptr<const graph::Graph> g = graph(spec.graph);
  if (!g) throw UnknownGraphError(spec.graph);
  validate(spec, *g);

  std::unique_lock lock(m_);
  if (stopping_) throw ServiceShutdownError();

  if (auto it = inflight_by_key_.find(key); it != inflight_by_key_.end()) {
    ++deduped_;
    MIDAS_TRACE_COUNT("service.deduped", 1);
    return it->second;
  }

  // Circuit breaker: fast-fail while the graph's artifact builds are known
  // bad. A half-open admit makes this query the probe — it carries the
  // breaker_probe flag so the probe slot is released if the query never
  // reaches a build outcome.
  const CircuitBreaker::State breaker_state =
      breaker_.admit(spec.graph, now_s());
  if (breaker_state == CircuitBreaker::State::kOpen) {
    ++breaker_fastfail_;
    MIDAS_TRACE_COUNT("service.breaker_fastfail", 1);
    throw CircuitOpenError(spec.graph,
                           breaker_.retry_after_s(spec.graph, now_s()));
  }
  const bool is_probe = breaker_state == CircuitBreaker::State::kHalfOpen;

  const std::size_t q_int = queued_locked(Lane::kInteractive);
  const std::size_t q_bat = queued_locked(Lane::kBatch);
  const std::size_t q_lane = spec.lane == Lane::kInteractive ? q_int : q_bat;
  if (q_lane >= opt_.queue_capacity) {
    if (is_probe) breaker_.release_probe(spec.graph);
    ++rejected_;
    MIDAS_TRACE_COUNT("service.rejected", 1);
    throw ServiceOverloadError(
        to_string(spec.lane), q_int, q_bat, opt_.queue_capacity,
        opt_.shed_enabled ? "deadline-aware" : "none");
  }

  // Deadline-aware shedding: if the lane's rolling mean execution time says
  // the queue wait alone already exceeds the timeout budget, reject now
  // instead of letting the deadline expire in the queue. Workers drain the
  // interactive lane first, so batch queries wait behind both lanes.
  if (opt_.shed_enabled && spec.timeout_s > 0.0) {
    const RollingWindow& w = exec_window_[lane_index(spec.lane)];
    if (w.count() >= opt_.shed_min_samples) {
      const std::size_t ahead =
          spec.lane == Lane::kInteractive ? q_int : q_int + q_bat;
      const double eta =
          w.mean() * static_cast<double>(ahead) /
          static_cast<double>(std::max<std::size_t>(1, workers_alive_));
      if (eta > spec.timeout_s) {
        if (is_probe) breaker_.release_probe(spec.graph);
        ++shed_;
        MIDAS_TRACE_COUNT("service.shed", 1);
        throw DeadlineInfeasibleError(eta, spec.timeout_s);
      }
    }
  }

  auto t = std::make_shared<Ticket>();
  t->spec = spec;
  t->fingerprint = key;
  // Cost-aware dispatch: place the ticket on the least-loaded worker
  // shard, weighted by the alpha-beta estimate of this query's work, so
  // a mix of heavy scans and light paths spreads by cost, not count.
  t->cost = estimate_query_cost(spec, g->num_vertices(), g->num_edges());
  t->shard = pick_shard_locked();
  t->retry = spec.retry.inherits() ? opt_.retry : spec.retry;
  if (t->retry.max_attempts < 1) t->retry.max_attempts = 1;
  t->breaker_probe = is_probe;
  t->submitted_at = Clock::now();
  if (spec.timeout_s > 0.0) {
    t->has_deadline = true;
    t->deadline = t->submitted_at + to_duration(spec.timeout_s);
  }
  std::shared_future<QueryResult> fut = t->promise.get_future().share();
  inflight_by_key_.emplace(key, fut);
  enqueue_locked(t);
  ++submitted_;
  MIDAS_TRACE_COUNT("service.submitted", 1);
  update_queue_gauge();
  lock.unlock();
  work_cv_.notify_one();
  return fut;
}

std::size_t DetectionService::queued_locked(Lane lane) const {
  std::size_t n = 0;
  for (const WorkerShard& s : shards_)
    n += lane == Lane::kInteractive ? s.interactive.size() : s.batch.size();
  return n;
}

bool DetectionService::queues_empty_locked() const {
  for (const WorkerShard& s : shards_)
    if (!s.interactive.empty() || !s.batch.empty()) return false;
  return true;
}

int DetectionService::pick_shard_locked() const {
  int best = 0;
  for (int i = 1; i < static_cast<int>(shards_.size()); ++i)
    if (shards_[i].load < shards_[best].load) best = i;
  return best;
}

void DetectionService::enqueue_locked(const std::shared_ptr<Ticket>& t,
                                      bool front) {
  WorkerShard& s = shards_[static_cast<std::size_t>(t->shard)];
  auto& lane = t->spec.lane == Lane::kInteractive ? s.interactive : s.batch;
  if (front)
    lane.push_front(t);
  else
    lane.push_back(t);
  s.load += t->cost;
  update_shard_gauges_locked();
}

std::shared_ptr<DetectionService::Ticket> DetectionService::dequeue_locked(
    int w) {
  // Lane priority stays global: every queued interactive ticket beats
  // every batch ticket, even across shards. Within a lane, own shard
  // first; otherwise steal from the most-loaded shard that has one
  // queued (millisort-style rebalancing of a skewed initial placement).
  const auto lane_of = [](WorkerShard& s, Lane l)
      -> std::deque<std::shared_ptr<Ticket>>& {
    return l == Lane::kInteractive ? s.interactive : s.batch;
  };
  for (Lane l : {Lane::kInteractive, Lane::kBatch}) {
    auto& own = lane_of(shards_[static_cast<std::size_t>(w)], l);
    if (!own.empty()) {
      auto t = own.front();
      own.pop_front();
      return t;
    }
    int victim = -1;
    for (int i = 0; i < static_cast<int>(shards_.size()); ++i) {
      if (i == w || lane_of(shards_[static_cast<std::size_t>(i)], l).empty())
        continue;
      if (victim < 0 ||
          shards_[static_cast<std::size_t>(i)].load >
              shards_[static_cast<std::size_t>(victim)].load)
        victim = i;
    }
    if (victim >= 0) {
      auto& q = lane_of(shards_[static_cast<std::size_t>(victim)], l);
      auto t = q.front();
      q.pop_front();
      // The steal moves the ticket's charge: it will execute on w's
      // cores, so w's shard is what its cost now loads.
      release_charge_locked(t->shard, t->cost);
      t->shard = w;
      shards_[static_cast<std::size_t>(w)].load += t->cost;
      ++steals_;
      MIDAS_TRACE_COUNT("service.steals", 1);
      update_shard_gauges_locked();
      return t;
    }
  }
  return nullptr;
}

void DetectionService::release_charge_locked(int shard, double cost) {
  if (shard < 0 || shard >= static_cast<int>(shards_.size())) return;
  WorkerShard& s = shards_[static_cast<std::size_t>(shard)];
  s.load = std::max(0.0, s.load - cost);
  update_shard_gauges_locked();
}

void DetectionService::update_shard_gauges_locked() const {
  for (std::size_t i = 0; i < shards_.size(); ++i)
    shard_gauges_[i]->set(
        static_cast<std::int64_t>(shards_[i].load * 1e6));  // model-us
}

void DetectionService::update_queue_gauge() const {
  // m_ held by the caller.
  runtime::tracer().metrics().gauge("service.queue_depth")
      .set(static_cast<std::int64_t>(queued_locked(Lane::kInteractive) +
                                     queued_locked(Lane::kBatch) +
                                     hedge_.size()));
}

void DetectionService::update_breaker_gauge() {
  // m_ held by the caller.
  runtime::tracer().metrics().gauge("service.breaker_state")
      .set(static_cast<std::int64_t>(breaker_.open_count(now_s())));
}

void DetectionService::worker_main(int w) {
  // The worker's persistent rank pool: every SPMD gang this worker runs
  // parks/wakes these threads instead of spawning fresh ones. Sized by
  // the core budget, grown on demand for wider queries; destroyed (and
  // rebuilt by the replacement) when the worker dies, so a wedged rank
  // thread cannot outlive its worker.
  runtime::RankPool pool(budget_.ranks_per_worker);
  MIDAS_TRACE_SET_LANE(w * kWorkerLaneStride + kWorkerLaneStride - 1);
  try {
    worker_loop(w, pool);
    return;  // clean shutdown
  } catch (const std::exception& e) {
    log_warn("service worker died (", e.what(), "); replacing");
  } catch (...) {
    log_warn("service worker died on an unknown exception; replacing");
  }
  // Self-healing: the dying thread spawns its own replacement (inheriting
  // its shard index), so the pool never shrinks. The dead std::thread
  // object stays in workers_ for the destructor to join.
  std::lock_guard lock(m_);
  --workers_alive_;
  if (stopping_) return;
  ++worker_restarts_;
  MIDAS_TRACE_COUNT("service.worker_restarts", 1);
  workers_.emplace_back([this, w] { worker_main(w); });
  ++workers_alive_;
}

void DetectionService::worker_loop(int w, runtime::RankPool& pool) {
  for (;;) {
    std::shared_ptr<Ticket> t;
    bool is_hedge = false;
    int attempt = 0;
    Clock::time_point started;
    ExecContext ctx{&pool, w * kWorkerLaneStride, w};
    {
      std::unique_lock lock(m_);
      work_cv_.wait(lock, [this] {
        return stopping_ || !hedge_.empty() || !queues_empty_locked();
      });
      if (stopping_) return;
      if (!hedge_.empty()) {
        t = hedge_.front();
        hedge_.pop_front();
        is_hedge = true;
      } else {
        t = dequeue_locked(w);
        if (!t) continue;  // another worker stole the wakeup's work
      }
      const std::uint64_t dq = ++dequeues_;

      // Chaos: kill this worker thread at dequeue. The ticket goes back to
      // the front of its shard's lane first (charge intact), so the query
      // just sees a delay while the pool self-heals. Bounded per ticket so
      // chaos runs terminate.
      if (!is_hedge && chaos_.armed() &&
          t->worker_kills < chaos_.plan().max_faulty_attempts &&
          chaos_.should_kill_worker(dq)) {
        ++t->worker_kills;
        enqueue_locked(t, /*front=*/true);
        release_charge_locked(t->shard, t->cost);  // enqueue re-charged it
        update_queue_gauge();
        work_cv_.notify_one();
        throw WorkerKilledFault(dq);
      }

      if (t->settled) {
        // A queued hedge whose primary already finished: drop it. (Only
        // hedges can be settled while queued; they carry no queue charge.)
        if (!is_hedge) release_charge_locked(t->shard, t->cost);
        update_queue_gauge();
        drain_cv_.notify_all();
        continue;
      }

      started = Clock::now();
      if (!is_hedge && t->has_deadline && started >= t->deadline) {
        ++deadline_exceeded_;
        MIDAS_TRACE_COUNT("service.deadline_exceeded", 1);
        MIDAS_TRACE_INSTANT("service.query.deadline");
        t->settled = true;
        if (t->breaker_probe) breaker_.release_probe(t->spec.graph);
        t->promise.set_exception(
            std::make_exception_ptr(DeadlineExceededError()));
        inflight_by_key_.erase(t->fingerprint);
        release_charge_locked(t->shard, t->cost);
        update_queue_gauge();
        drain_cv_.notify_all();
        continue;
      }

      // Load accounting: a primary keeps the charge its submit placed on
      // t->shard (moved here by a steal) until run_attempt finishes; a
      // hedge is an extra concurrent attempt, so it charges this worker's
      // shard for its duration.
      if (is_hedge) {
        ctx.shard = w;
        shards_[static_cast<std::size_t>(w)].load += t->cost;
        update_shard_gauges_locked();
      } else {
        ctx.shard = t->shard;
      }

      attempt = t->attempts_started++;
      ++t->outstanding;
      executing_tickets_[t.get()] = t;
      if (!is_hedge) {
        t->exec_started = started;
        t->hedged = false;
      }
      ++executing_;
      update_queue_gauge();
      sup_cv_.notify_one();  // hedge watchdog: a new execution to watch
    }

    if (opt_.before_execute) opt_.before_execute(t->spec);
    run_attempt(t, is_hedge, attempt, started, ctx);
  }
}

void DetectionService::run_attempt(const std::shared_ptr<Ticket>& t,
                                   bool is_hedge, int attempt,
                                   Clock::time_point started,
                                   const ExecContext& ctx) {
  // Warm-pool accounting: gangs run while the pool has already served at
  // least one gang are reuses (park/wake, no thread spawned). Only this
  // worker runs gangs on its pool, so the before/after read is stable.
  const std::uint64_t gangs_before = ctx.pool ? ctx.pool->gangs() : 0;
  QueryResult result;
  std::exception_ptr error;
  {
    MIDAS_TRACE_SPAN("service.query",
                     {"type", static_cast<int>(t->spec.type)},
                     {"attempt", attempt});
    try {
      result = execute(t->spec, t->fingerprint, attempt, ctx);
    } catch (...) {
      error = std::current_exception();
    }
  }
  const auto done = Clock::now();
  result.queue_s = seconds_since(t->submitted_at, started);
  result.total_s = seconds_since(t->submitted_at, done);

  std::lock_guard lock(m_);
  if (ctx.pool && gangs_before > 0) {
    const std::uint64_t reused = ctx.pool->gangs() - gangs_before;
    pool_reuse_ += reused;
    MIDAS_TRACE_COUNT("service.pool_reuse", reused);
  }
  release_charge_locked(ctx.shard, t->cost);
  ++executed_;
  MIDAS_TRACE_COUNT("service.executed", 1);
  exec_window_[lane_index(t->spec.lane)].add(seconds_since(started, done));
  --t->outstanding;
  if (t->outstanding == 0) executing_tickets_.erase(t.get());
  if (!error) {
    // Audit sampling happens here, before --executing_ below: drain()
    // cannot observe "everything idle" between an answer settling and its
    // audit being queued. The decision copy is taken before settle_value
    // moves the result into the promise. Lock order: m_ -> sampler lock.
    if (auditor_ && !t->settled && !stopping_ &&
        auditor_->should_audit(t->fingerprint))
      auditor_->enqueue(t->spec, t->fingerprint, result);
    settle_value(t, std::move(result), is_hedge);
  } else {
    ++attempt_failures_;
    MIDAS_TRACE_COUNT("service.attempt_failures", 1);
    t->last_error = error;
    complete_failure(t, std::move(error));
  }
  --executing_;
  drain_cv_.notify_all();
}

void DetectionService::settle_value(const std::shared_ptr<Ticket>& t,
                                    QueryResult&& r, bool is_hedge) {
  // m_ held by the caller.
  if (t->settled) return;  // the sibling attempt won the race
  t->settled = true;
  r.attempts = t->attempts_started;
  r.hedge_won = is_hedge;
  if (is_hedge) {
    ++hedge_wins_;
    MIDAS_TRACE_COUNT("service.hedge_wins", 1);
  }
  MIDAS_TRACE_OBSERVE("service.query_latency_ns",
                      static_cast<std::uint64_t>(r.total_s * 1e9));
  // Any fully successful query proves the graph's artifact path works —
  // this also resolves a half-open probe whose artifacts were all cache
  // hits (no build ran to report success).
  breaker_.record_success(t->spec.graph);
  update_breaker_gauge();
  t->promise.set_value(std::move(r));
  inflight_by_key_.erase(t->fingerprint);
}

void DetectionService::settle_error(const std::shared_ptr<Ticket>& t,
                                    std::exception_ptr error) {
  // m_ held by the caller.
  if (t->settled) return;
  t->settled = true;
  if (t->breaker_probe) breaker_.release_probe(t->spec.graph);
  ++failed_;
  MIDAS_TRACE_COUNT("service.failed", 1);
  t->promise.set_exception(std::move(error));
  inflight_by_key_.erase(t->fingerprint);
}

void DetectionService::complete_failure(const std::shared_ptr<Ticket>& t,
                                        std::exception_ptr error) {
  // m_ held by the caller.
  if (t->settled) return;        // sibling already produced the answer
  if (t->outstanding > 0) return;  // let the still-running attempt decide
  if (t->retry_pending) return;  // a retry is already waiting out backoff
  const FaultClass cls = classify_failure(error);
  if (cls == FaultClass::kRetryable &&
      t->attempts_started < t->retry.max_attempts && !stopping_) {
    // Re-enqueue after backoff; the future (and its dedup waiters) stays
    // open. Retry number n = attempts already consumed.
    const double delay =
        backoff_s(t->retry, t->fingerprint, t->attempts_started);
    t->retry_pending = true;
    t->hedged = false;
    ++retried_;
    MIDAS_TRACE_COUNT("service.retries", 1);
    retry_heap_.push_back({Clock::now() + to_duration(delay), t});
    std::push_heap(retry_heap_.begin(), retry_heap_.end(),
                   std::greater<>{});
    sup_cv_.notify_one();
    return;
  }
  settle_error(t, std::move(error));
}

void DetectionService::supervisor_loop() {
  std::unique_lock lock(m_);
  while (!stopping_) {
    const auto now = Clock::now();

    // Fire due retries back into their lanes.
    while (!retry_heap_.empty() && retry_heap_.front().due <= now) {
      std::pop_heap(retry_heap_.begin(), retry_heap_.end(),
                    std::greater<>{});
      std::shared_ptr<Ticket> t = std::move(retry_heap_.back().ticket);
      retry_heap_.pop_back();
      t->retry_pending = false;
      if (t->settled) {
        // A sibling attempt settled the ticket while this retry waited out
        // its backoff (hedge/retry overlap can double-schedule). Discarding
        // it can empty the heap, so drain() waiters must be woken.
        drain_cv_.notify_all();
        continue;
      }
      // Re-dispatch like a fresh submit: the load picture has moved since
      // admission, so the retry goes to whichever shard is lightest now.
      t->shard = pick_shard_locked();
      enqueue_locked(t);
      update_queue_gauge();
      work_cv_.notify_one();
    }

    // Hedge watchdog: launch a racing attempt for any execution straggling
    // past hedge_multiplier x its lane's rolling p99.
    if (opt_.hedge_multiplier > 0.0) {
      for (auto& [ptr, t] : executing_tickets_) {
        if (t->settled || t->hedged || t->retry_pending ||
            t->outstanding != 1)
          continue;
        const RollingWindow& w = exec_window_[lane_index(t->spec.lane)];
        if (w.count() < opt_.hedge_min_samples) continue;
        const double threshold = std::max(
            opt_.hedge_min_s, opt_.hedge_multiplier * w.quantile(99.0));
        if (seconds_since(t->exec_started, now) <= threshold) continue;
        t->hedged = true;
        ++hedges_;
        MIDAS_TRACE_COUNT("service.hedges", 1);
        MIDAS_TRACE_INSTANT("service.hedge_launched");
        hedge_.push_back(t);
        update_queue_gauge();
        work_cv_.notify_one();
      }
    }

    auto wake = now + to_duration(opt_.supervisor_poll_s);
    if (!retry_heap_.empty()) wake = std::min(wake, retry_heap_.front().due);
    sup_cv_.wait_until(lock, wake);
  }
}

void DetectionService::guard_build(const std::string& key,
                                   const std::string& graph_name) {
  if (!chaos_.armed()) return;
  std::uint64_t index = 0;
  bool fail = false;
  {
    std::lock_guard lock(m_);
    // The draws of a key stop at its first clean build. A rebuild after an
    // LRU eviction happens or not as the workers happen to be scheduled, so
    // drawing on it would make the injected failures depend on scheduling.
    // Single-flight makes the failed builds before the first clean one a
    // sequence per key: build `index` is the key's index-th draw.
    std::uint64_t& draws = build_attempts_[key];
    index = draws;
    fail = index != kBuildSettled && chaos_.should_fail_build(key, index);
    draws = fail ? index + 1 : kBuildSettled;
    if (fail) {
      ++chaos_build_failures_;
      note_build_failure_locked(graph_name);
    }
  }
  if (fail) {
    MIDAS_TRACE_COUNT("service.chaos_build_failures", 1);
    throw InjectedBuildFailureError(key, index);
  }
}

void DetectionService::note_build_failure_locked(
    const std::string& graph_name) {
  // m_ held by the caller.
  if (breaker_.record_failure(graph_name, now_s())) {
    log_warn("service circuit breaker tripped for graph '", graph_name,
             "'");
    MIDAS_TRACE_COUNT("service.breaker_trips", 1);
  }
  update_breaker_gauge();
}

void DetectionService::note_build_failure(const std::string& graph_name) {
  std::lock_guard lock(m_);
  note_build_failure_locked(graph_name);
}

void DetectionService::note_build_success(const std::string& graph_name) {
  std::lock_guard lock(m_);
  breaker_.record_success(graph_name);
  update_breaker_gauge();
}

QueryResult DetectionService::run_engine(const QuerySpec& spec,
                                         const GraphArtifacts& artifacts,
                                         core::MidasOptions opt) {
  QueryResult qr;
  switch (spec.type) {
    case QueryType::kPath: {
      // k-path additionally caches the per-(seed, k, rounds) randomness
      // tables; the engine consumes them bit-identically to hashing.
      with_field(spec.field_bits, [&](const auto& f) {
        const std::string rkey = rand_key(spec);
        auto tables = cache_.get_or_build<core::RandTables>(rkey, [&] {
          guard_build(rkey, spec.graph);
          MIDAS_TRACE_SPAN("service.build_rand_tables", {"k", spec.k});
          try {
            auto t = core::build_rand_tables(artifacts.views, spec.seed,
                                             spec.k, spec.rounds(), f);
            note_build_success(spec.graph);
            return t;
          } catch (...) {
            note_build_failure(spec.graph);
            throw;
          }
        });
        opt.rand_tables = tables.get();
        core::MidasResult r =
            core::midas_kpath_views(artifacts.views, opt, f);
        qr.found = r.found;
        qr.rounds_run = r.rounds_run;
        qr.found_round = r.found_round;
        qr.vtime = r.vtime;
        qr.engine_wall_s = r.wall_s;
      });
      break;
    }
    case QueryType::kTree: {
      graph::GraphBuilder tb(static_cast<graph::VertexId>(spec.k));
      for (const auto& [a, b] : spec.tree_edges) tb.add_edge(a, b);
      const graph::Graph tmpl = tb.build();
      const core::TreeDecomposition td(tmpl, spec.tree_root);
      with_field(spec.field_bits, [&](const auto& f) {
        core::MidasResult r =
            core::midas_ktree_views(artifacts.views, td, opt, f);
        qr.found = r.found;
        qr.rounds_run = r.rounds_run;
        qr.found_round = r.found_round;
        qr.vtime = r.vtime;
        qr.engine_wall_s = r.wall_s;
      });
      break;
    }
    case QueryType::kScan: {
      with_field(spec.field_bits, [&](const auto& f) {
        core::MidasScanResult r =
            core::midas_scan_views(artifacts.views, spec.weights, opt, f);
        qr.table = std::move(r.table);
        qr.rounds_run = spec.rounds();
        qr.vtime = r.vtime;
        qr.engine_wall_s = r.wall_s;
      });
      break;
    }
    case QueryType::kMotif: {
      with_field(spec.field_bits, [&](const auto& f) {
        core::MidasResult r = core::midas_motif_views(
            artifacts.views, spec.colors, spec.motif, opt, f);
        qr.found = r.found;
        qr.rounds_run = r.rounds_run;
        qr.found_round = r.found_round;
        qr.vtime = r.vtime;
        qr.engine_wall_s = r.wall_s;
      });
      break;
    }
  }
  return qr;
}

QueryResult DetectionService::execute(const QuerySpec& spec,
                                      std::uint64_t fingerprint,
                                      int attempt, const ExecContext& ctx) {
  std::shared_ptr<const graph::Graph> g = graph(spec.graph);
  if (!g) throw UnknownGraphError(spec.graph);

  const std::string vkey = views_key(spec);
  auto artifacts = cache_.get_or_build<GraphArtifacts>(vkey, [&] {
    guard_build(vkey, spec.graph);
    MIDAS_TRACE_SPAN("service.build_artifacts", {"n1", spec.n1});
    try {
      GraphArtifacts a;
      a.part = partition::multilevel_partition(*g, spec.n1);
      a.views = partition::build_part_views(*g, a.part);
      note_build_success(spec.graph);
      return a;
    } catch (...) {
      note_build_failure(spec.graph);
      throw;
    }
  });

  core::MidasOptions opt = engine_options(spec);
  // Pooled execution: the gang reuses the worker's persistent rank
  // threads. Placement-only — the rank bodies, vclock charges and answers
  // are bit-exact with spawn/join (the pool never enters a fingerprint or
  // cache key). Audit probes arrive with a default ctx and spawn/join.
  opt.spmd.pool = ctx.pool;
  opt.spmd.trace_lane_base = ctx.lane_base;
  // Chaos: seeded per-(query, attempt) rank kills and message corruption,
  // injected into the engine run's fault plan. The fault-free path leaves
  // opt untouched, so fault-free answers (including vtime) are bit-exact
  // with direct engine runs.
  if (chaos_.armed() && chaos_.apply_engine_faults(opt, fingerprint, attempt)) {
    {
      std::lock_guard lock(m_);
      ++chaos_engine_faults_;
    }
    MIDAS_TRACE_COUNT("service.chaos_engine_faults", 1);
  }

  QueryResult qr = run_engine(spec, *artifacts, opt);

  // -- honest error accounting (service/integrity.hpp) --------------------
  // Only rounds of THIS successful attempt count toward the claimed bound;
  // a faulted attempt's rounds died with its exception and never reach
  // here, so they can never inflate achieved_epsilon.
  qr.target_epsilon = spec.epsilon;
  const int target_rounds = core::rounds_for_epsilon(spec.epsilon);

  // Adaptive re-amplification: a "no" whose run was capped short of its
  // epsilon target (max_rounds) gets the missing rounds under a derived
  // seed, reusing the cached views. Can flip "no" to "yes" — which is why
  // reamplify is part of the answer fingerprint.
  const bool wants_reamp =
      spec.reamplify && qr.rounds_run < target_rounds &&
      (spec.type == QueryType::kScan || !qr.found);
  if (wants_reamp) {
    QuerySpec topup = spec;
    topup.seed = runtime::fault_mix(spec.seed ^ 0x7EA3ULL);
    topup.max_rounds = target_rounds - qr.rounds_run;
    topup.certify = false;
    topup.reamplify = false;
    core::MidasOptions topup_opt = engine_options(topup);
    topup_opt.spmd.pool = ctx.pool;
    topup_opt.spmd.trace_lane_base = ctx.lane_base;
    QueryResult extra = run_engine(topup, *artifacts, topup_opt);
    qr.reamp_rounds = extra.rounds_run;
    qr.vtime += extra.vtime;
    qr.engine_wall_s += extra.engine_wall_s;
    if (spec.type == QueryType::kScan) {
      // OR-merge: a cell feasible in either run is feasible ("yes" entries
      // are always correct; the merge only removes false "no"s).
      for (std::size_t j = 0; j < qr.table.feasible.size() &&
                              j < extra.table.feasible.size(); ++j)
        for (std::size_t z = 0; z < qr.table.feasible[j].size() &&
                                z < extra.table.feasible[j].size(); ++z)
          if (extra.table.feasible[j][z]) qr.table.feasible[j][z] = true;
    } else if (extra.found) {
      qr.found = true;
      qr.found_round = qr.rounds_run + extra.found_round;
    }
    {
      std::lock_guard lock(m_);
      ++reamplified_;
    }
    MIDAS_TRACE_COUNT("service.integrity_reamplified", 1);
  }
  qr.achieved_epsilon =
      achieved_epsilon(qr.found, qr.rounds_run + qr.reamp_rounds);

  // -- certified positives -------------------------------------------------
  if (spec.certify) {
    if (certify_result(*g, spec, qr)) {
      if (qr.certified) {
        {
          std::lock_guard lock(m_);
          ++certified_;
        }
        MIDAS_TRACE_COUNT("service.integrity_certified", 1);
      }
    } else {
      // Peeling cannot lose a witness the graph contains, so failing to
      // back this "yes" proves the decision itself was corrupt. Flag the
      // answer (certified stays false beside found == true), count it,
      // and quarantine the graph's cached state.
      {
        std::lock_guard lock(m_);
        ++cert_failures_;
      }
      MIDAS_TRACE_COUNT("service.integrity_cert_failures", 1);
      log_warn("certification FAILED for a 'yes' on graph '", spec.graph,
               "' — quarantining");
      quarantine_graph(spec.graph);
    }
  }
  return qr;
}

void DetectionService::quarantine_graph(const std::string& graph_name) {
  {
    std::lock_guard lock(m_);
    ++integrity_quarantines_;
    breaker_.force_open(graph_name, now_s());
    update_breaker_gauge();
  }
  MIDAS_TRACE_COUNT("service.integrity_quarantines", 1);
  // Flush outside m_ (erase_prefix takes the cache shard locks).
  cache_.erase_prefix("views/" + graph_name + "/");
  cache_.erase_prefix("rand/" + graph_name + "/");
}

void DetectionService::drain() {
  {
    std::unique_lock lock(m_);
    drain_cv_.wait(lock, [this] {
      return queues_empty_locked() && hedge_.empty() &&
             retry_heap_.empty() && executing_ == 0;
    });
  }
  // Lanes idle: every settled answer has already enqueued its audit (the
  // enqueue happens before --executing_), so this wait is complete.
  if (auditor_) auditor_->drain();
}

ServiceStats DetectionService::stats() const {
  ServiceStats s;
  {
    std::lock_guard lock(m_);
    s.submitted = submitted_;
    s.executed = executed_;
    s.deduped = deduped_;
    s.rejected = rejected_;
    s.shed = shed_;
    s.deadline_exceeded = deadline_exceeded_;
    s.failed = failed_;
    s.attempt_failures = attempt_failures_;
    s.retried = retried_;
    s.hedges = hedges_;
    s.hedge_wins = hedge_wins_;
    s.worker_restarts = worker_restarts_;
    s.breaker_trips = breaker_.trips();
    s.breaker_fastfail = breaker_fastfail_;
    s.chaos_engine_faults = chaos_engine_faults_;
    s.chaos_build_failures = chaos_build_failures_;
    s.chaos_artifact_flips = chaos_artifact_flips_;
    s.certified = certified_;
    s.cert_failures = cert_failures_;
    s.reamplified = reamplified_;
    s.integrity_quarantines = integrity_quarantines_;
    s.workers_alive = workers_alive_;
    s.breaker_open = breaker_.open_count(
        seconds_since(epoch_, Clock::now()));
    s.queued_interactive = queued_locked(Lane::kInteractive);
    s.queued_batch = queued_locked(Lane::kBatch);
    s.retry_pending = retry_heap_.size();
    s.inflight = executing_;
    s.workers = budget_.workers;
    s.cores = budget_.cores;
    s.ranks_per_worker = budget_.ranks_per_worker;
    s.pool_reuse = pool_reuse_;
    s.steals = steals_;
    s.shard_load.reserve(shards_.size());
    s.shard_queued.reserve(shards_.size());
    for (const WorkerShard& sh : shards_) {
      s.shard_load.push_back(sh.load);
      s.shard_queued.push_back(sh.interactive.size() + sh.batch.size());
    }
  }
  if (auditor_) {
    const AuditSampler::Counters a = auditor_->counters();
    s.audits_scheduled = a.scheduled;
    s.audits_completed = a.completed;
    s.audit_mismatches = a.mismatches;
    s.audit_missed_yes = a.missed_yes;
  }
  s.cache = cache_.stats();
  return s;
}

}  // namespace midas::service
