// The benchmark's load generator: one thread, a few TCP connections, and
// its own epoll loop speaking the public net:: frame API, so every
// response is timestamped the moment it is parsed. (net::Client hands back
// futures, which would time the future's consumer, not the wire.)
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/protocol.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

/// One request's life as the client saw it. Times are seconds since the
/// generator's epoch.
struct Sample {
  std::uint32_t query = 0;  // index into Workload::distinct
  midas::service::Lane lane = midas::service::Lane::kBatch;
  double due_s = 0.0;   // open loop: scheduled send; closed: ready to send
  double sent_s = 0.0;
  double done_s = 0.0;
  bool ok = false;
  midas::net::ErrorCode error = midas::net::ErrorCode::kInternal;
  double queue_s = 0.0;   // QueryResult::queue_s
  double engine_s = 0.0;  // QueryResult::engine_wall_s
  double total_s = 0.0;   // QueryResult::total_s
  std::uint64_t digest = 0;  // answer_digest of the returned answer
  std::uint64_t id = 0;      // msg_id: the query id of its spans
};

/// Traffic outcome: every request sent, and the timed window.
struct Pass {
  std::vector<Sample> samples;
  double window_s = 0.0;  // first due time to last completion
};

class LoadGen {
 public:
  using Clock = std::chrono::steady_clock;

  /// Connect `connections` sockets to 127.0.0.1:port. Throws
  /// net::TransportError when a connection cannot be made.
  LoadGen(std::uint16_t port, int connections, Clock::time_point epoch);
  ~LoadGen();
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Register the workload's graphs over the wire (kGraphReq), one at a
  /// time. Throws on an error frame or a transport failure.
  void register_graphs(const std::vector<midas::service::GraphSpec>& graphs);

  /// Send `queries` one at a time on the first connection (warm-up, and
  /// the untimed fill of distinct queries the timed traffic missed).
  Pass run_sequential(const Workload& w,
                      const std::vector<std::uint32_t>& queries);

  /// Open loop: request i is due at start + due[i] and goes to connection
  /// i % connections, carrying w.cycle[(first + i) % cycle size].
  Pass run_open(const Workload& w, const std::vector<double>& due,
                std::size_t first, SpanLog* spans);

  /// Closed loop: every connection keeps w.window requests in flight and
  /// sends its next request as soon as a response arrives, until `seconds`
  /// have passed (and, with w.whole_cycles, the cycle is complete).
  Pass run_closed(const Workload& w, double seconds, std::size_t first,
                  SpanLog* spans);

 private:
  struct Conn {
    int fd = -1;
    std::vector<std::uint8_t> rx;
    std::vector<std::uint8_t> tx;
    std::size_t tx_off = 0;
    bool want_write = false;  // EPOLLOUT armed
  };

  void send_query(const Workload& w, int conn, const Request& r, double due_s,
                  std::vector<Sample>& out);
  void send_frame(int conn, std::vector<std::uint8_t> frame);
  /// Wait until `deadline` or until frames arrive; each completed request
  /// is appended to `done` as (sample index, connection). Throws
  /// net::TransportError when a connection fails.
  void poll(Clock::time_point deadline, const Workload* w,
            std::vector<Sample>& samples,
            std::vector<std::pair<std::size_t, int>>& done);
  void flush(int conn);
  void read_frames(int conn, const Workload* w, std::vector<Sample>& samples,
                   std::vector<std::pair<std::size_t, int>>& done);
  static void record_spans(SpanLog* spans, const Sample& s, int conn);
  [[nodiscard]] double since_epoch(Clock::time_point t) const {
    return std::chrono::duration<double>(t - epoch_).count();
  }

  Clock::time_point epoch_;
  int epoll_fd_ = -1;
  std::vector<Conn> conns_;
  std::unordered_map<std::uint64_t, std::size_t> pending_;  // msg_id -> sample
  std::uint64_t next_id_ = 1;
  std::size_t graph_acks_ = 0;
};

}  // namespace perfbench
