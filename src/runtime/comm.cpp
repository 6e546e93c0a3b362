#include "runtime/comm.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <thread>
#include <tuple>

#include "runtime/rank_pool.hpp"
#include "util/require.hpp"

namespace midas::runtime {

namespace {
struct Message {
  std::vector<std::byte> data;       // the payload as the sender meant it
  std::vector<std::byte> wire;       // corrupted on-the-wire copy, if any
  std::uint64_t checksum = 0;        // fnv1a of `data`, verified at recv
  double send_clock = 0.0;  // sender's virtual clock at delivery time
};

using SteadyClock = std::chrono::steady_clock;

/// Deterministic single-bit flip used to materialize a corruption decision.
void flip_one_bit(std::vector<std::byte>& bytes, std::uint64_t key) {
  if (bytes.empty()) return;
  const std::uint64_t bit = fault_mix(key) % (bytes.size() * 8);
  bytes[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
}
}  // namespace

/// Shared state of one communicator (world or split sub-group).
class Group {
 public:
  Group(World* world, int id, std::vector<int> members)
      : world_(world), id_(id), members_(std::move(members)) {
    stage_bytes_.resize(members_.size());
    stage_lists_.resize(members_.size());
    split_colors_.assign(members_.size(), {0, 0});
    arrived_mask_.assign(members_.size(), 0);
    snapshot_mask_.assign(members_.size(), 1);
    boxes_ = std::vector<MailboxShard>(members_.size());
  }

  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(members_.size());
  }
  [[nodiscard]] int world_rank_of(int r) const noexcept {
    return members_[static_cast<std::size_t>(r)];
  }
  [[nodiscard]] int id() const noexcept { return id_; }

  /// Generation barrier, failure-aware. Completes when every member has
  /// either arrived or failed (kShrink; kAbort trivially — nobody can fail
  /// without aborting the world). Under kThrow, raises RankFailedError as
  /// soon as a member of the communicator is known dead. `completion` (if
  /// any) runs on the completing rank while all others are blocked — safe
  /// for cross-rank bookkeeping. Returns the generation this barrier
  /// completed (a deterministic per-group collective sequence number).
  /// `charge = false` (snapshot rendezvous) skips all clock/stat updates:
  /// the barrier synchronizes threads but leaves virtual time untouched.
  std::uint64_t barrier_sync(int rank, FailPolicy policy,
                             const std::function<void()>& completion = {},
                             bool charge = true);

  // Staging area for collectives. Ranks publish a *copy* into group-owned
  // storage (never a pointer into their own stack): a rank that aborts out
  // of a collective unwinds and frees its local buffers while slower peers
  // may still be reading its contribution, so staged data must outlive the
  // publishing rank's frame. Valid between the surrounding barrier_syncs.
  void publish(int rank, const void* p, std::size_t n) {
    auto& slot = stage_bytes_[static_cast<std::size_t>(rank)];
    slot.resize(n);
    if (n > 0) std::memcpy(slot.data(), p, n);
  }
  [[nodiscard]] const std::vector<std::byte>& staged_bytes(int rank) const {
    return stage_bytes_[static_cast<std::size_t>(rank)];
  }
  void publish_list(int rank, std::vector<std::vector<std::byte>> payloads) {
    stage_lists_[static_cast<std::size_t>(rank)] = std::move(payloads);
  }
  [[nodiscard]] const std::vector<std::vector<std::byte>>& staged_list(
      int rank) const {
    return stage_lists_[static_cast<std::size_t>(rank)];
  }
  /// The payload `rank` staged for `receiver`. Only `receiver` touches this
  /// slot, so it may move the payload out once it has read it.
  [[nodiscard]] std::vector<std::byte>& staged_slot(int rank, int receiver) {
    return stage_lists_[static_cast<std::size_t>(rank)]
                       [static_cast<std::size_t>(receiver)];
  }
  /// Did `rank` arrive at the barrier generation that just completed?
  /// (Members that had failed are absent; collectives must skip their
  /// stale staging slots.) Stable until the next barrier completes.
  [[nodiscard]] bool arrived_in_snapshot(int rank) const {
    return snapshot_mask_[static_cast<std::size_t>(rank)] != 0;
  }

  // Split bookkeeping (guarded by the barrier protocol).
  void publish_split(int rank, int color, int key) {
    split_colors_[static_cast<std::size_t>(rank)] = {color, key};
  }
  [[nodiscard]] std::pair<int, int> split_choice(int rank) const {
    return split_colors_[static_cast<std::size_t>(rank)];
  }
  std::map<int, std::shared_ptr<Group>> split_groups_;

  // Point-to-point mailboxes, one shard per receiver rank in this group.
  struct MailboxShard {
    std::mutex m;
    std::condition_variable cv;
    std::map<std::pair<int, int>, std::deque<Message>> queues;  // (src,tag)

    MailboxShard() = default;
    MailboxShard(const MailboxShard&) {}  // shards are never copied live
  };
  std::vector<MailboxShard> boxes_;

  /// Wake everything blocked on this group (barrier + mailboxes); called
  /// by the world when a rank fails or the run aborts.
  void wake_all() {
    {
      std::lock_guard lk(m_);
      cv_.notify_all();
    }
    for (auto& box : boxes_) {
      std::lock_guard lk(box.m);
      box.cv.notify_all();
    }
  }

  World* world_;

 private:
  [[nodiscard]] bool live_arrivals_complete() const;
  void complete_generation(const std::function<void()>& completion,
                           bool charge);

  int id_;
  std::vector<int> members_;
  std::mutex m_;
  std::condition_variable cv_;
  int arrived_ = 0;
  std::uint64_t generation_ = 0;
  std::vector<std::vector<std::byte>> stage_bytes_;
  std::vector<std::vector<std::vector<std::byte>>> stage_lists_;
  std::vector<std::pair<int, int>> split_colors_;
  std::vector<char> arrived_mask_;   // per member, current generation
  std::vector<char> snapshot_mask_;  // arrivals of the last completed gen
};

/// Whole-program state shared by all ranks.
class World {
 public:
  World(int size, const CostModel& model, const SpmdOptions& opts)
      : size_(size),
        model_(model),
        opts_(opts),
        injector_(opts.faults),
        clocks_(static_cast<std::size_t>(size), 0.0),
        stats_(static_cast<std::size_t>(size)),
        events_(static_cast<std::size_t>(size), 0),
        p2p_seq_(static_cast<std::size_t>(size)),
        failed_(new std::atomic<bool>[static_cast<std::size_t>(size)]) {
    for (int r = 0; r < size; ++r)
      failed_[static_cast<std::size_t>(r)].store(false,
                                                 std::memory_order_relaxed);
    if (!opts_.resume.empty()) {
      // Resume from a checkpoint: clocks, event counters and stats pick up
      // exactly where the snapshot froze them, so both the cost model and
      // the (event, vclock)-keyed fault plan continue as if uninterrupted.
      // Setup collectives (e.g. the phase-group split) will advance this
      // state again; Comm::resume_sync() re-applies it once setup is done,
      // since the snapshot values already include the setup charges.
      MIDAS_REQUIRE(
          opts_.resume.vclocks.size() == static_cast<std::size_t>(size) &&
              opts_.resume.events.size() == static_cast<std::size_t>(size) &&
              opts_.resume.stats.size() == static_cast<std::size_t>(size),
          "resume state arity != rank count");
      apply_resume();
    }
  }

  /// Overwrite per-rank clocks, event counters and stats with the resume
  /// state. Caller must guarantee quiescence (ctor, or a rendezvous
  /// completion callback with every peer parked).
  void apply_resume() {
    clocks_ = opts_.resume.vclocks;
    events_ = opts_.resume.events;
    stats_ = opts_.resume.stats;
  }

  [[nodiscard]] int size() const noexcept { return size_; }
  [[nodiscard]] const CostModel& model() const noexcept { return model_; }
  [[nodiscard]] const SpmdOptions& opts() const noexcept { return opts_; }
  [[nodiscard]] const FaultInjector& injector() const noexcept {
    return injector_;
  }
  [[nodiscard]] bool faults_armed() const noexcept {
    return injector_.armed();
  }
  [[nodiscard]] bool supervised() const noexcept { return opts_.supervise; }

  double& clock(int world_rank) {
    return clocks_[static_cast<std::size_t>(world_rank)];
  }
  CommStats& stats(int world_rank) {
    return stats_[static_cast<std::size_t>(world_rank)];
  }
  [[nodiscard]] const std::vector<double>& clocks() const noexcept {
    return clocks_;
  }
  [[nodiscard]] const std::vector<CommStats>& all_stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& events() const noexcept {
    return events_;
  }

  /// Per-rank communication event counter (only the rank itself touches
  /// its slot) — the clock faults are keyed to.
  std::uint64_t& event_counter(int world_rank) {
    return events_[static_cast<std::size_t>(world_rank)];
  }
  /// Per-sender point-to-point sequence numbers, keyed by (dest, tag);
  /// only the sender's thread touches its own map.
  std::uint64_t next_p2p_seq(int src_wr, int dst_wr, int tag) {
    return p2p_seq_[static_cast<std::size_t>(src_wr)][{dst_wr, tag}]++;
  }

  int next_group_id() { return group_counter_.fetch_add(1) + 1; }

  void register_group(const std::shared_ptr<Group>& g) {
    std::lock_guard lk(groups_m_);
    groups_.push_back(g);
  }

  // -- failure state --------------------------------------------------------
  [[nodiscard]] bool is_failed(int world_rank) const noexcept {
    return failed_[static_cast<std::size_t>(world_rank)].load(
        std::memory_order_acquire);
  }
  [[nodiscard]] bool any_failed() const noexcept {
    return failed_count_.load(std::memory_order_acquire) > 0;
  }
  [[nodiscard]] int failed_count() const noexcept {
    return failed_count_.load(std::memory_order_acquire);
  }
  [[nodiscard]] bool aborted() const noexcept {
    return aborted_.load(std::memory_order_acquire);
  }

  /// Record a rank's death and wake every blocked peer so nothing waits on
  /// it forever. Idempotent.
  void mark_failed(int world_rank) {
    bool expected = false;
    if (!failed_[static_cast<std::size_t>(world_rank)]
             .compare_exchange_strong(expected, true,
                                      std::memory_order_acq_rel))
      return;
    failed_count_.fetch_add(1, std::memory_order_acq_rel);
    wake_everything();
  }

  /// Unsupervised teardown: every blocking call raises WorldAbortError.
  void request_abort() {
    aborted_.store(true, std::memory_order_release);
    wake_everything();
  }

 private:
  void wake_everything() {
    std::vector<std::shared_ptr<Group>> groups;
    {
      std::lock_guard lk(groups_m_);
      groups.reserve(groups_.size());
      for (auto& w : groups_)
        if (auto g = w.lock()) groups.push_back(std::move(g));
    }
    for (auto& g : groups) g->wake_all();
  }

  int size_;
  CostModel model_;
  SpmdOptions opts_;
  FaultInjector injector_;
  std::vector<double> clocks_;
  std::vector<CommStats> stats_;
  std::vector<std::uint64_t> events_;
  std::vector<std::map<std::pair<int, int>, std::uint64_t>> p2p_seq_;
  std::unique_ptr<std::atomic<bool>[]> failed_;
  std::atomic<int> failed_count_{0};
  std::atomic<bool> aborted_{false};
  std::atomic<int> group_counter_{0};
  std::mutex groups_m_;
  std::vector<std::weak_ptr<Group>> groups_;
};

bool Group::live_arrivals_complete() const {
  if (arrived_ == size()) return true;
  if (!world_->any_failed()) return false;
  for (int r = 0; r < size(); ++r)
    if (!arrived_mask_[static_cast<std::size_t>(r)] &&
        !world_->is_failed(world_rank_of(r)))
      return false;
  return true;
}

void Group::complete_generation(const std::function<void()>& completion,
                                bool charge) {
  // Synchronize the arrived members' virtual clocks to their max plus the
  // barrier cost; each member's catch-up is accounted as barrier wait.
  // Failed members are excluded: their clocks stay frozen at death.
  // A non-charging (snapshot) rendezvous only rotates the generation.
  if (charge) {
    double mn = 0.0, mx = 0.0;
    bool first = true;
    for (int r = 0; r < size(); ++r)
      if (arrived_mask_[static_cast<std::size_t>(r)]) {
        const double c = world_->clock(world_rank_of(r));
        mn = first ? c : std::min(mn, c);
        mx = std::max(first ? c : mx, c);
        first = false;
      }
    // Watchdog classification happens on the pre-sync clocks: a member
    // whose arrival clock lags the earliest one past the deadline was the
    // straggler everyone else waited for at this collective.
    const double wd = world_->opts().watchdog.deadline_s;
    if (wd > 0.0) {
      for (int r = 0; r < size(); ++r) {
        if (!arrived_mask_[static_cast<std::size_t>(r)]) continue;
        const double lag = world_->clock(world_rank_of(r)) - mn;
        if (lag > wd) {
          auto& st = world_->stats(world_rank_of(r));
          st.stragglers_flagged++;
          st.t_straggle += lag - wd;
          MIDAS_TRACE_INSTANT_ON(
              world_rank_of(r), "watchdog.straggler",
              {"lag_ns", static_cast<std::int64_t>((lag - wd) * 1e9)});
          MIDAS_TRACE_COUNT("watchdog.stragglers_flagged", 1);
        }
      }
    }
    const double cost = world_->model().barrier_cost(size());
    for (int r = 0; r < size(); ++r) {
      if (!arrived_mask_[static_cast<std::size_t>(r)]) continue;
      auto& st = world_->stats(world_rank_of(r));
      st.t_wait += mx - world_->clock(world_rank_of(r));
      st.t_comm += cost;
      world_->clock(world_rank_of(r)) = mx + cost;
    }
  }
  snapshot_mask_.assign(arrived_mask_.begin(), arrived_mask_.end());
  if (completion) completion();
  arrived_ = 0;
  std::fill(arrived_mask_.begin(), arrived_mask_.end(), 0);
  ++generation_;
  cv_.notify_all();
}

std::uint64_t Group::barrier_sync(int rank, FailPolicy policy,
                                  const std::function<void()>& completion,
                                  bool charge) {
  std::unique_lock lk(m_);
  if (world_->aborted()) throw WorldAbortError();
  if (policy == FailPolicy::kThrow && world_->any_failed()) {
    for (int r = 0; r < size(); ++r)
      if (r != rank && world_->is_failed(world_rank_of(r)))
        throw RankFailedError(world_rank_of(r),
                              "peer died before a collective");
  }

  const std::uint64_t gen = generation_;
  arrived_mask_[static_cast<std::size_t>(rank)] = 1;
  ++arrived_;
  if (live_arrivals_complete()) {
    complete_generation(completion, charge);
    return gen;
  }

  const bool guard = world_->supervised();
  const auto deadline =
      SteadyClock::now() +
      std::chrono::duration<double>(world_->opts().timeout_s);
  // Armed watchdog: slice the supervised wait into poll-length heartbeats
  // so a blocked rank keeps proving liveness (counted per slice) instead
  // of sleeping the whole guard away.
  const double poll_s = world_->opts().watchdog.poll_s;
  const bool heartbeat = guard && charge &&
                         world_->opts().watchdog.deadline_s > 0.0 &&
                         poll_s > 0.0;
  auto unarrive = [&] {
    arrived_mask_[static_cast<std::size_t>(rank)] = 0;
    --arrived_;
  };
  while (generation_ == gen) {
    if (world_->aborted()) {
      unarrive();
      throw WorldAbortError();
    }
    if (policy == FailPolicy::kThrow && world_->any_failed()) {
      for (int r = 0; r < size(); ++r)
        if (r != rank && world_->is_failed(world_rank_of(r))) {
          unarrive();
          throw RankFailedError(world_rank_of(r),
                                "peer died during a collective");
        }
    }
    // A peer's death may have made the arrived set complete; any waiter
    // may take over the completion role.
    if (live_arrivals_complete()) {
      complete_generation(completion, charge);
      return gen;
    }
    if (guard) {
      auto slice = deadline;
      if (heartbeat) {
        const auto next_beat =
            SteadyClock::now() + std::chrono::duration<double>(poll_s);
        slice = std::min(slice, next_beat);
      }
      if (cv_.wait_until(lk, slice) == std::cv_status::timeout) {
        if (SteadyClock::now() >= deadline && generation_ == gen) {
          unarrive();
          throw TimeoutError("collective exceeded the supervision guard");
        }
        if (heartbeat && generation_ == gen)
          world_->stats(world_rank_of(rank)).watchdog_heartbeats++;
      }
    } else {
      cv_.wait(lk);
    }
  }
  return gen;
}

// ---------------------------------------------------------------------------
// Comm
// ---------------------------------------------------------------------------

int Comm::size() const noexcept { return group_->size(); }

bool Comm::peer_failed(int rank) const noexcept {
  return world_->is_failed(group_->world_rank_of(rank));
}

bool Comm::any_peer_failed() const noexcept {
  if (!world_->any_failed()) return false;
  for (int r = 0; r < size(); ++r)
    if (world_->is_failed(group_->world_rank_of(r))) return true;
  return false;
}

int Comm::live_size() const noexcept {
  int n = 0;
  for (int r = 0; r < size(); ++r)
    if (!world_->is_failed(group_->world_rank_of(r))) ++n;
  return n;
}

std::vector<int> Comm::failed_world_ranks() const {
  std::vector<int> out;
  for (int wr = 0; wr < world_->size(); ++wr)
    if (world_->is_failed(wr)) out.push_back(wr);
  return out;
}

bool Comm::supervised() const noexcept { return world_->supervised(); }

void Comm::fault_event() {
  if (world_->aborted()) throw WorldAbortError();
  if (!world_->faults_armed()) return;
  const std::uint64_t event = world_->event_counter(world_rank_)++;
  if (world_->injector().should_kill(world_rank_, event,
                                     world_->clock(world_rank_))) {
    world_->mark_failed(world_rank_);
    throw RankKilledFault(world_rank_);
  }
}

void Comm::send(int dest, int tag, std::span<const std::byte> data) {
  MIDAS_REQUIRE(dest >= 0 && dest < size(), "send: bad destination rank");
  fault_event();
  auto& my_clock = world_->clock(world_rank_);
  my_clock += world_->model().message_cost(data.size());
  auto& st = world_->stats(world_rank_);
  st.t_comm += world_->model().message_cost(data.size());
  st.messages_sent++;
  st.bytes_sent += data.size();
  MIDAS_TRACE_COUNT("comm.messages_sent", 1);
  MIDAS_TRACE_COUNT("comm.bytes_sent", data.size());

  Message msg{std::vector<std::byte>(data.begin(), data.end()),
              {},
              fnv1a(data),
              0.0};

  if (world_->faults_armed()) {
    const int dst_wr = group_->world_rank_of(dest);
    const std::uint64_t seq =
        world_->next_p2p_seq(world_rank_, dst_wr, tag);
    const MessageFate fate =
        world_->injector().message_fate(world_rank_, dst_wr, seq);
    if (!fate.clean()) {
      // Transient faults become deterministic virtual time: the sender
      // pays timeout + retransmission for every lost/garbled attempt and
      // the delivery lands late; the payload always arrives intact
      // (corruption is caught by the checksum and retransmitted).
      const double penalty =
          world_->model().retry_cost(fate.retries(), data.size()) +
          fate.delay_s;
      my_clock += penalty;
      st.t_fault += penalty;
      st.messages_dropped += fate.drops;
      st.retransmissions += fate.retries();
      if (fate.delay_s > 0.0) st.messages_delayed++;
      if (fate.corruptions > 0) {
        msg.wire = msg.data;
        flip_one_bit(msg.wire,
                     world_->injector().plan().seed ^ seq ^
                         static_cast<std::uint64_t>(dst_wr));
      }
    }
  }

  msg.send_clock = my_clock;
  auto& box = group_->boxes_[static_cast<std::size_t>(dest)];
  {
    std::lock_guard lk(box.m);
    box.queues[{rank_, tag}].push_back(std::move(msg));
  }
  box.cv.notify_all();
}

std::vector<std::byte> Comm::recv(int src, int tag) {
  MIDAS_REQUIRE(src >= 0 && src < size(), "recv: bad source rank");
  MIDAS_TRACE_SPAN("comm.recv", {"src", src});
  fault_event();
  auto& box = group_->boxes_[static_cast<std::size_t>(rank_)];
  const int src_wr = group_->world_rank_of(src);
  const bool guard = world_->supervised();
  const auto deadline =
      SteadyClock::now() +
      std::chrono::duration<double>(world_->opts().timeout_s);
  Message msg;
  {
    std::unique_lock lk(box.m);
    auto& q = box.queues[{src, tag}];
    while (q.empty()) {
      if (world_->aborted()) throw WorldAbortError();
      if (world_->is_failed(src_wr))
        throw RankFailedError(src_wr, "recv source died with no message");
      if (guard) {
        if (box.cv.wait_until(lk, deadline) == std::cv_status::timeout &&
            SteadyClock::now() >= deadline && q.empty())
          throw TimeoutError("recv exceeded the supervision guard");
      } else {
        box.cv.wait(lk);
      }
    }
    msg = std::move(q.front());
    q.pop_front();
  }
  auto& my_clock = world_->clock(world_rank_);
  auto& st = world_->stats(world_rank_);
  if (!msg.wire.empty()) {
    // The on-the-wire copy was corrupted; the checksum must catch it, and
    // the retransmitted (clean) payload must verify.
    MIDAS_ASSERT(fnv1a(msg.wire) != msg.checksum,
                 "bit-flip fault escaped the payload checksum");
    st.messages_corrupted++;
  }
  MIDAS_ASSERT(fnv1a(msg.data) == msg.checksum,
               "delivered payload failed checksum verification");
  if (msg.send_clock > my_clock) {
    st.t_wait += msg.send_clock - my_clock;
    my_clock = msg.send_clock;
  }
  st.messages_received++;
  st.bytes_received += msg.data.size();
  MIDAS_TRACE_COUNT("comm.bytes_received", msg.data.size());
  return std::move(msg.data);
}

void Comm::barrier() {
  MIDAS_TRACE_SPAN("comm.barrier");
  fault_event();
  world_->stats(world_rank_).barriers++;
  group_->barrier_sync(rank_, fail_policy_);
}

void Comm::allreduce_raw(
    void* data, std::size_t elem_size, std::size_t count,
    const std::function<void(void*, const void*)>& combine) {
  MIDAS_TRACE_SPAN("comm.allreduce",
                   {"bytes", static_cast<std::int64_t>(elem_size * count)});
  MIDAS_TRACE_COUNT("comm.allreduce_bytes", elem_size * count);
  fault_event();
  const std::size_t bytes = elem_size * count;
  world_->stats(world_rank_).allreduces++;
  world_->stats(world_rank_).t_comm +=
      world_->model().allreduce_cost(size(), bytes);
  world_->clock(world_rank_) +=
      world_->model().allreduce_cost(size(), bytes);

  group_->publish(rank_, data, bytes);
  group_->barrier_sync(rank_, fail_policy_);
  // Reduce every arrived rank's contribution, in rank order, into a
  // private buffer. Members that died before this collective are skipped —
  // their staging slots are stale.
  std::vector<std::byte> acc(bytes);
  int first = -1;
  for (int r = 0; r < size(); ++r) {
    if (!group_->arrived_in_snapshot(r)) continue;
    const std::byte* src = group_->staged_bytes(r).data();
    if (first < 0) {
      first = r;
      std::memcpy(acc.data(), src, bytes);
      continue;
    }
    for (std::size_t i = 0; i < count; ++i)
      combine(acc.data() + i * elem_size, src + i * elem_size);
  }
  group_->barrier_sync(rank_, fail_policy_);  // staged inputs all read
  std::memcpy(data, acc.data(), bytes);
}

void Comm::reduce_raw(
    int root, void* data, std::size_t elem_size, std::size_t count,
    const std::function<void(void*, const void*)>& combine) {
  MIDAS_REQUIRE(root >= 0 && root < size(), "reduce: bad root");
  MIDAS_TRACE_SPAN("comm.reduce",
                   {"bytes", static_cast<std::int64_t>(elem_size * count)});
  fault_event();
  const std::size_t bytes = elem_size * count;
  world_->stats(world_rank_).allreduces++;
  world_->stats(world_rank_).t_comm +=
      world_->model().allreduce_cost(size(), bytes);
  world_->clock(world_rank_) += world_->model().allreduce_cost(size(),
                                                               bytes);
  group_->publish(rank_, data, bytes);
  group_->barrier_sync(rank_, fail_policy_);
  if (rank_ == root) {
    std::vector<std::byte> acc(bytes);
    int first = -1;
    for (int r = 0; r < size(); ++r) {
      if (!group_->arrived_in_snapshot(r)) continue;
      const std::byte* src = group_->staged_bytes(r).data();
      if (first < 0) {
        first = r;
        std::memcpy(acc.data(), src, bytes);
        continue;
      }
      for (std::size_t i = 0; i < count; ++i)
        combine(acc.data() + i * elem_size, src + i * elem_size);
    }
    group_->barrier_sync(rank_, fail_policy_);
    std::memcpy(data, acc.data(), bytes);
  } else {
    group_->barrier_sync(rank_, fail_policy_);
  }
}

std::vector<std::byte> Comm::scatter(
    int root, const std::vector<std::vector<std::byte>>& chunks) {
  MIDAS_REQUIRE(root >= 0 && root < size(), "scatter: bad root");
  if (rank_ == root)
    MIDAS_REQUIRE(static_cast<int>(chunks.size()) == size(),
                  "scatter: root must provide one chunk per rank");
  MIDAS_TRACE_SPAN("comm.scatter");
  fault_event();
  group_->publish_list(rank_, rank_ == root ? chunks
                                            : std::vector<std::vector<std::byte>>{});
  group_->barrier_sync(rank_, fail_policy_);
  if (!group_->arrived_in_snapshot(root))
    throw RankFailedError(group_->world_rank_of(root),
                          "scatter root died");
  std::vector<std::byte> mine =
      group_->staged_list(root)[static_cast<std::size_t>(rank_)];
  auto& st = world_->stats(world_rank_);
  if (rank_ != root && !mine.empty()) {
    world_->clock(world_rank_) += world_->model().message_cost(mine.size());
    st.t_comm += world_->model().message_cost(mine.size());
    st.messages_received++;
    st.bytes_received += mine.size();
  } else if (rank_ == root) {
    double send_time = 0;
    for (int d = 0; d < size(); ++d) {
      if (d == root || chunks[static_cast<std::size_t>(d)].empty())
        continue;
      send_time +=
          world_->model().message_cost(chunks[static_cast<std::size_t>(d)]
                                           .size());
      st.messages_sent++;
      st.bytes_sent += chunks[static_cast<std::size_t>(d)].size();
    }
    world_->clock(world_rank_) += send_time;
    st.t_comm += send_time;
  }
  group_->barrier_sync(rank_, fail_policy_);
  return mine;
}

std::vector<std::byte> Comm::sendrecv(int dest, int src, int tag,
                                      std::span<const std::byte> data) {
  send(dest, tag, data);
  return recv(src, tag);
}

void Comm::allreduce_sum(std::span<std::uint64_t> inout) {
  allreduce<std::uint64_t>(
      inout, [](std::uint64_t& a, const std::uint64_t& b) { a += b; });
}

void Comm::allreduce_xor(std::span<std::uint8_t> inout) {
  allreduce<std::uint8_t>(
      inout, [](std::uint8_t& a, const std::uint8_t& b) { a ^= b; });
}

std::vector<std::vector<std::byte>> Comm::alltoallv(
    std::vector<std::vector<std::byte>> send) {
  MIDAS_REQUIRE(static_cast<int>(send.size()) == size(),
                "alltoallv: send vector arity != communicator size");
  MIDAS_TRACE_SPAN("comm.alltoallv");
  fault_event();
  auto& st = world_->stats(world_rank_);
  const auto& model = world_->model();

  // Charge the duplex max of send and receive volumes; receive volume is
  // known only after staging, so charge sends now and top up below.
  double send_time = 0.0;
  for (int d = 0; d < size(); ++d) {
    if (d == rank_ || send[static_cast<std::size_t>(d)].empty()) continue;
    send_time += model.message_cost(send[static_cast<std::size_t>(d)].size());
    st.messages_sent++;
    st.bytes_sent += send[static_cast<std::size_t>(d)].size();
    MIDAS_TRACE_COUNT("comm.messages_sent", 1);
    MIDAS_TRACE_COUNT("comm.bytes_sent",
                      send[static_cast<std::size_t>(d)].size());
  }

  // The staged lists are group-owned, so they outlive this rank's frame.
  group_->publish_list(rank_, std::move(send));
  const std::uint64_t gen = group_->barrier_sync(rank_, fail_policy_);
  // Deterministic per-collective fault key: every member derives the same
  // value from (group id, completed generation), independent of thread
  // timing.
  const std::uint64_t fault_key =
      (static_cast<std::uint64_t>(static_cast<unsigned>(group_->id()))
       << 40) ^
      gen;

  std::vector<std::vector<std::byte>> out(static_cast<std::size_t>(size()));
  double recv_time = 0.0;
  double fault_time = 0.0;
  for (int s = 0; s < size(); ++s) {
    if (!group_->arrived_in_snapshot(s)) continue;  // dead peer: no payload
    auto& payload = group_->staged_slot(s, rank_);
    if (s != rank_ && !payload.empty()) {
      if (world_->faults_armed()) {
        const MessageFate fate = world_->injector().message_fate(
            group_->world_rank_of(s), world_rank_, fault_key);
        if (!fate.clean()) {
          fault_time +=
              model.retry_cost(fate.retries(), payload.size()) +
              fate.delay_s;
          st.messages_dropped += fate.drops;
          st.retransmissions += fate.retries();
          if (fate.delay_s > 0.0) st.messages_delayed++;
          if (fate.corruptions > 0) {
            // Materialize the bit flip and prove the checksum catches it;
            // the retransmitted clean copy is what lands in `out`.
            [[maybe_unused]] const std::uint64_t sum =
                fnv1a(std::span<const std::byte>(payload));
            std::vector<std::byte> wire = payload;
            flip_one_bit(wire, world_->injector().plan().seed ^ fault_key ^
                                   static_cast<std::uint64_t>(s));
            MIDAS_ASSERT(fnv1a(std::span<const std::byte>(wire)) != sum,
                         "bit-flip fault escaped the payload checksum");
            st.messages_corrupted += fate.corruptions;
          }
        }
      }
      recv_time += model.message_cost(payload.size());
      st.messages_received++;
      st.bytes_received += payload.size();
      MIDAS_TRACE_COUNT("comm.bytes_received", payload.size());
    }
    // Faults and checksums are handled; this rank is the slot's only
    // reader, so the payload moves out of staging.
    out[static_cast<std::size_t>(s)] = std::move(payload);
  }
  world_->clock(world_rank_) += std::max(send_time, recv_time) + fault_time;
  st.t_comm += std::max(send_time, recv_time);
  st.t_fault += fault_time;
  group_->barrier_sync(rank_, fail_policy_);  // staged buffers all read
  return out;
}

std::vector<std::vector<std::byte>> Comm::gather(
    int root, std::span<const std::byte> data) {
  MIDAS_REQUIRE(root >= 0 && root < size(), "gather: bad root");
  MIDAS_TRACE_SPAN("comm.gather");
  fault_event();
  auto& st = world_->stats(world_rank_);
  const auto& model = world_->model();
  group_->publish(rank_, data.data(), data.size());
  group_->barrier_sync(rank_, fail_policy_);
  std::vector<std::vector<std::byte>> out;
  if (rank_ == root) {
    out.resize(static_cast<std::size_t>(size()));
    double recv_time = 0.0;
    for (int s = 0; s < size(); ++s) {
      if (!group_->arrived_in_snapshot(s)) continue;
      const auto& staged = group_->staged_bytes(s);
      const std::size_t n = staged.size();
      out[static_cast<std::size_t>(s)] = staged;
      if (s != rank_ && n > 0) {
        recv_time += model.message_cost(n);
        st.messages_received++;
        st.bytes_received += n;
      }
    }
    world_->clock(world_rank_) += recv_time;
    st.t_comm += recv_time;
  } else if (!data.empty()) {
    world_->clock(world_rank_) += model.message_cost(data.size());
    st.t_comm += model.message_cost(data.size());
    st.messages_sent++;
    st.bytes_sent += data.size();
  }
  group_->barrier_sync(rank_, fail_policy_);
  return out;
}

void Comm::bcast(int root, std::span<std::byte> data) {
  MIDAS_REQUIRE(root >= 0 && root < size(), "bcast: bad root");
  MIDAS_TRACE_SPAN("comm.bcast",
                   {"bytes", static_cast<std::int64_t>(data.size())});
  fault_event();
  group_->publish(rank_, rank_ == root ? data.data() : nullptr,
                  rank_ == root ? data.size() : 0);
  group_->barrier_sync(rank_, fail_policy_);
  if (!group_->arrived_in_snapshot(root))
    throw RankFailedError(group_->world_rank_of(root), "bcast root died");
  if (rank_ != root) {
    const auto& staged = group_->staged_bytes(root);
    MIDAS_REQUIRE(staged.size() == data.size(),
                  "bcast: buffer size mismatch across ranks");
    std::memcpy(data.data(), staged.data(), data.size());
    world_->stats(world_rank_).messages_received++;
    world_->stats(world_rank_).bytes_received += data.size();
  }
  // A tree broadcast costs log2(P) message times on every rank.
  world_->clock(world_rank_) +=
      world_->model().allreduce_cost(size(), data.size());
  world_->stats(world_rank_).t_comm +=
      world_->model().allreduce_cost(size(), data.size());
  group_->barrier_sync(rank_, fail_policy_);
}

Comm Comm::split(int color, int key) {
  MIDAS_TRACE_SPAN("comm.split", {"color", color});
  fault_event();
  group_->publish_split(rank_, color, key);
  Group* g = group_.get();
  World* w = world_;
  g->barrier_sync(rank_, fail_policy_, [g, w] {
    // Runs on the completing rank while everyone else is blocked. Members
    // that died before the split are simply absent from every subgroup.
    g->split_groups_.clear();
    std::map<int, std::vector<std::tuple<int, int, int>>> by_color;
    for (int r = 0; r < g->size(); ++r) {
      if (!g->arrived_in_snapshot(r)) continue;
      auto [color_r, key_r] = g->split_choice(r);
      by_color[color_r].emplace_back(key_r, r, g->world_rank_of(r));
    }
    for (auto& [c, tuples] : by_color) {
      std::sort(tuples.begin(), tuples.end());
      std::vector<int> members;
      members.reserve(tuples.size());
      for (auto& [key_r, r, wr] : tuples) members.push_back(wr);
      auto sub =
          std::make_shared<Group>(w, w->next_group_id(), std::move(members));
      w->register_group(sub);
      g->split_groups_[c] = std::move(sub);
    }
  });
  std::shared_ptr<Group> mine = group_->split_groups_.at(color);
  int new_rank = -1;
  for (int r = 0; r < mine->size(); ++r) {
    if (mine->world_rank_of(r) == world_rank_) {
      new_rank = r;
      break;
    }
  }
  MIDAS_ASSERT(new_rank >= 0, "rank missing from its own split group");
  group_->barrier_sync(rank_, fail_policy_);  // everyone picked up their group
  // Children default to the conservative policy: supervised communicators
  // throw on a dead member until the caller opts into shrinking.
  const FailPolicy child_policy =
      world_->supervised() ? FailPolicy::kThrow : FailPolicy::kAbort;
  return Comm(world_, std::move(mine), new_rank, world_rank_, child_policy);
}

void Comm::charge_compute(std::uint64_t ops) {
  MIDAS_TRACE_COUNT("gf.ops", ops);
  world_->clock(world_rank_) += world_->model().compute_cost(ops);
  world_->stats(world_rank_).compute_ops += ops;
  world_->stats(world_rank_).t_compute += world_->model().compute_cost(ops);
}

void Comm::charge_memory(std::uint64_t bytes, std::uint64_t working_set) {
  const double cost = world_->model().memory_cost(bytes, working_set);
  world_->clock(world_rank_) += cost;
  world_->stats(world_rank_).mem_bytes_streamed += bytes;
  world_->stats(world_rank_).t_memory += cost;
}

void Comm::snapshot_sync(const std::function<void()>& fn) {
  MIDAS_TRACE_SPAN("comm.snapshot_sync");
  // Deliberately no fault_event() and no charging: a snapshot rendezvous
  // must be invisible to both the virtual clocks and the (event, vclock)-
  // keyed fault schedule, or checkpointed runs would diverge from
  // uncheckpointed ones. Abort/death wakeups still apply (barrier_sync
  // honors the fail policy), so a dying world cannot hang here.
  group_->barrier_sync(rank_, fail_policy_, fn, /*charge=*/false);
}

void Comm::resume_sync() {
  if (world_->opts().resume.empty()) return;
  // The restored clocks/events/stats were captured after the original
  // run's setup; the resumed run just re-ran (and re-charged) that setup,
  // so overwrite its state with the snapshot values wholesale. One rank
  // performs the writes while every peer is parked in the rendezvous.
  group_->barrier_sync(
      rank_, fail_policy_, [this] { world_->apply_resume(); },
      /*charge=*/false);
}

std::vector<double> Comm::world_vclocks() const { return world_->clocks(); }

std::vector<std::uint64_t> Comm::world_event_counts() const {
  return world_->events();
}

std::vector<CommStats> Comm::world_stats_snapshot() const {
  return world_->all_stats();
}

std::vector<int> Comm::straggling_groups(int n1, double deadline_s) {
  MIDAS_REQUIRE(n1 >= 1 && size() % n1 == 0,
                "straggling_groups: N1 must divide the communicator size");
  const int groups = size() / n1;
  // Publish my group's slot with my clock; the max-allreduce leaves each
  // slot at the group's slowest member. Dead groups keep the sentinel.
  std::vector<double> slot(static_cast<std::size_t>(groups), -1.0);
  slot[static_cast<std::size_t>(rank_ / n1)] = vclock();
  allreduce<double>(std::span<double>(slot),
                    [](double& a, const double& b) { a = std::max(a, b); });
  std::vector<int> out;
  if (deadline_s <= 0.0) return out;
  double fastest = -1.0;
  for (double s : slot)
    if (s >= 0.0 && (fastest < 0.0 || s < fastest)) fastest = s;
  if (fastest < 0.0) return out;
  for (int g = 0; g < groups; ++g)
    if (slot[static_cast<std::size_t>(g)] >= 0.0 &&
        slot[static_cast<std::size_t>(g)] > fastest + deadline_s)
      out.push_back(g);
  return out;
}

double Comm::vclock() const noexcept { return world_->clock(world_rank_); }

const CommStats& Comm::stats() const noexcept {
  return world_->stats(world_rank_);
}

const CostModel& Comm::model() const noexcept { return world_->model(); }

// ---------------------------------------------------------------------------
// run_spmd
// ---------------------------------------------------------------------------

SpmdResult run_spmd(int nranks, const CostModel& model,
                    const SpmdOptions& opts,
                    const std::function<void(Comm&)>& body) {
  MIDAS_REQUIRE(nranks >= 1, "run_spmd requires at least one rank");
  // Arm the global tracer for the duration of the run (unless a caller —
  // e.g. the CLI — already armed it; then leave its session running).
  Tracer& tr = tracer();
  const bool armed_here = opts.trace.enabled && !tr.enabled();
  if (armed_here) tr.enable();
  if (tr.enabled()) tr.metrics().gauge("spmd.ranks").set(nranks);
  World world(nranks, model, opts);
  std::vector<int> members(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) members[static_cast<std::size_t>(r)] = r;
  auto root = std::make_shared<Group>(&world, 0, std::move(members));
  world.register_group(root);

  const FailPolicy root_policy =
      opts.supervise ? FailPolicy::kThrow : FailPolicy::kAbort;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nranks));
  std::vector<Comm> comms;
  comms.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r)
    comms.push_back(Comm(&world, root, r, r, root_policy));
  // One body per rank; never throws (every exception lands in errors[r]).
  // Shared verbatim between the spawn and pool paths below, which is what
  // keeps pooled execution bit-exact with fresh-spawn: only the thread
  // placement differs, never the work or the error semantics.
  const auto rank_body = [&](int r) {
    MIDAS_TRACE_SET_LANE(opts.trace_lane_base + r);
    Comm& comm = comms[static_cast<std::size_t>(r)];
    try {
      MIDAS_TRACE_SPAN("spmd.rank");
      body(comm);
    } catch (...) {
      MIDAS_TRACE_INSTANT("spmd.rank_failed");
      errors[static_cast<std::size_t>(r)] = std::current_exception();
      // Record the death first so peers blocked on this rank wake up and
      // observe it (RankFailedError / shrink) instead of hanging, then —
      // unsupervised — take the whole world down.
      world.mark_failed(r);
      if (!opts.supervise) world.request_abort();
    }
  };
  if (opts.pool != nullptr) {
    opts.pool->run_gang(nranks, rank_body);
    MIDAS_TRACE_COUNT("spmd.pool_runs", 1);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r)
      threads.emplace_back([&rank_body, r] { rank_body(r); });
    for (auto& t : threads) t.join();
  }

  SpmdResult result;
  if (opts.supervise) {
    // Fault-class failures are data, not exceptions: report them in the
    // result. Anything else is a bug in the body and still propagates.
    for (int r = 0; r < nranks; ++r) {
      const auto& e = errors[static_cast<std::size_t>(r)];
      if (!e) continue;
      try {
        std::rethrow_exception(e);
      } catch (const FaultError&) {
        result.failed_ranks.push_back(r);
        if (!result.first_error) result.first_error = e;
      }
      // non-FaultError: fall through to the rethrow below
    }
    for (int r = 0; r < nranks; ++r) {
      const auto& e = errors[static_cast<std::size_t>(r)];
      if (!e) continue;
      try {
        std::rethrow_exception(e);
      } catch (const FaultError&) {
        // captured above
      } catch (...) {
        throw;
      }
    }
  } else {
    // Rethrow the first causal error; WorldAbortError is only the echo of
    // some other rank's failure, so prefer any non-abort exception.
    std::exception_ptr first_abort;
    for (auto& e : errors) {
      if (!e) continue;
      try {
        std::rethrow_exception(e);
      } catch (const WorldAbortError&) {
        if (!first_abort) first_abort = e;
      } catch (...) {
        throw;
      }
    }
    if (first_abort) std::rethrow_exception(first_abort);
  }

  result.stats = world.all_stats();
  result.vclocks = world.clocks();
  result.events = world.events();
  for (double c : result.vclocks)
    result.makespan = std::max(result.makespan, c);
  for (const auto& s : result.stats) result.total += s;
  if (armed_here) tr.disable();
  if (!opts.trace.trace_path.empty())
    tr.write_chrome_json(opts.trace.trace_path);
  if (!opts.trace.metrics_path.empty())
    tr.write_metrics(opts.trace.metrics_path);
  return result;
}

SpmdResult run_spmd(int nranks, const CostModel& model,
                    const std::function<void(Comm&)>& body) {
  return run_spmd(nranks, model, SpmdOptions{}, body);
}

SpmdResult run_spmd(int nranks, const std::function<void(Comm&)>& body) {
  return run_spmd(nranks, CostModel{}, SpmdOptions{}, body);
}

}  // namespace midas::runtime
