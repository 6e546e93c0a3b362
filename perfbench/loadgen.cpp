#include "loadgen.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>

namespace perfbench {

namespace net = midas::net;
namespace service = midas::service;

namespace {

constexpr std::size_t kGraphAck = std::numeric_limits<std::size_t>::max();
/// A response that has not arrived this long after the last send is a
/// transport failure, not a slow query.
constexpr double kDrainTimeoutS = 60.0;

[[noreturn]] void fail(const std::string& what) {
  throw net::TransportError(what + ": " + std::strerror(errno));
}

LoadGen::Clock::time_point after(LoadGen::Clock::time_point t, double s) {
  return t + std::chrono::duration_cast<LoadGen::Clock::duration>(
                 std::chrono::duration<double>(s));
}

}  // namespace

LoadGen::LoadGen(std::uint16_t port, int connections,
                 Clock::time_point epoch)
    : epoch_(epoch) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) fail("epoll_create1");
  conns_.resize(static_cast<std::size_t>(connections));
  for (int i = 0; i < connections; ++i) {
    Conn& c = conns_[static_cast<std::size_t>(i)];
    c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (c.fd < 0) fail("socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0)
      fail("connect");
    const int one = 1;
    ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // Non-blocking from here on: the epoll loop owns the socket.
    if (::fcntl(c.fd, F_SETFL, O_NONBLOCK) != 0) fail("fcntl");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u32 = static_cast<std::uint32_t>(i);
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, c.fd, &ev) != 0)
      fail("epoll_ctl");
  }
}

LoadGen::~LoadGen() {
  for (Conn& c : conns_)
    if (c.fd >= 0) ::close(c.fd);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void LoadGen::flush(int conn) {
  Conn& c = conns_[static_cast<std::size_t>(conn)];
  while (c.tx_off < c.tx.size()) {
    const ssize_t n = ::send(c.fd, c.tx.data() + c.tx_off,
                             c.tx.size() - c.tx_off, MSG_NOSIGNAL);
    if (n > 0) {
      c.tx_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    fail("send");
  }
  if (c.tx_off == c.tx.size()) {
    c.tx.clear();
    c.tx_off = 0;
  }
  const bool want = !c.tx.empty();
  if (want != c.want_write) {
    epoll_event ev{};
    ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
    ev.data.u32 = static_cast<std::uint32_t>(conn);
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev) != 0)
      fail("epoll_ctl");
    c.want_write = want;
  }
}

void LoadGen::send_frame(int conn, std::vector<std::uint8_t> frame) {
  Conn& c = conns_[static_cast<std::size_t>(conn)];
  c.tx.insert(c.tx.end(), frame.begin(), frame.end());
  flush(conn);
}

void LoadGen::send_query(const Workload& w, int conn, const Request& r,
                         double due_s, std::vector<Sample>& out) {
  service::QuerySpec q = w.distinct.at(r.query);
  q.lane = r.lane;
  net::WireWriter body;
  net::encode_query(body, q);
  const std::uint64_t id = next_id_++;
  Sample s;
  s.query = r.query;
  s.lane = r.lane;
  s.due_s = due_s;
  s.id = id;
  s.sent_s = since_epoch(Clock::now());
  pending_.emplace(id, out.size());
  out.push_back(s);
  send_frame(conn, net::make_frame(net::FrameType::kQueryReq, id, 0,
                                   body.bytes()));
}

void LoadGen::read_frames(int conn, const Workload* w,
                          std::vector<Sample>& samples,
                          std::vector<std::pair<std::size_t, int>>& done) {
  Conn& c = conns_[static_cast<std::size_t>(conn)];
  std::uint8_t buf[1 << 16];
  for (;;) {
    const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      c.rx.insert(c.rx.end(), buf, buf + n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n == 0) {
      errno = ECONNRESET;
      fail("server closed the connection");
    }
    fail("recv");
  }
  const double now = since_epoch(Clock::now());
  std::size_t off = 0;
  while (c.rx.size() - off >= net::kHeaderSize) {
    const net::FrameHeader h = net::decode_header(c.rx.data() + off);
    net::validate_header(h, net::kMaxBody);
    if (c.rx.size() - off - net::kHeaderSize < h.body_len) break;
    const std::uint8_t* body = c.rx.data() + off + net::kHeaderSize;
    off += net::kHeaderSize + h.body_len;
    auto it = pending_.find(h.msg_id);
    if (it == pending_.end())
      throw net::ProtocolError("response for unknown msg_id " +
                               std::to_string(h.msg_id));
    const std::size_t idx = it->second;
    pending_.erase(it);
    net::WireReader r(body, h.body_len);
    if (idx == kGraphAck) {
      if (h.type != static_cast<std::uint16_t>(net::FrameType::kGraphResp))
        net::throw_error(net::decode_error(r));
      ++graph_acks_;
      continue;
    }
    Sample& s = samples[idx];
    s.done_s = now;
    if (h.type == static_cast<std::uint16_t>(net::FrameType::kQueryResp)) {
      const service::QueryResult res = net::decode_result(r);
      s.ok = true;
      s.queue_s = res.queue_s;
      s.engine_s = res.engine_wall_s;
      s.total_s = res.total_s;
      s.digest = answer_digest(w->distinct[s.query], res);
    } else if (h.type == static_cast<std::uint16_t>(net::FrameType::kError)) {
      s.error = net::decode_error(r).code;
    } else {
      throw net::ProtocolError("unexpected frame type " +
                               std::to_string(h.type));
    }
    done.emplace_back(idx, conn);
  }
  c.rx.erase(c.rx.begin(), c.rx.begin() + static_cast<std::ptrdiff_t>(off));
}

void LoadGen::poll(Clock::time_point deadline, const Workload* w,
                   std::vector<Sample>& samples,
                   std::vector<std::pair<std::size_t, int>>& done) {
  epoll_event evs[16];
  const auto left = std::max(Clock::duration::zero(), deadline - Clock::now());
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(left).count();
  timespec ts{static_cast<time_t>(ns / 1000000000),
              static_cast<long>(ns % 1000000000)};
  const int n = ::epoll_pwait2(epoll_fd_, evs, 16, &ts, nullptr);
  if (n < 0) {
    if (errno == EINTR) return;
    fail("epoll_pwait2");
  }
  for (int i = 0; i < n; ++i) {
    const int conn = static_cast<int>(evs[i].data.u32);
    if (evs[i].events & (EPOLLERR | EPOLLHUP)) {
      errno = ECONNRESET;
      fail("connection error");
    }
    if (evs[i].events & EPOLLOUT) flush(conn);
    if (evs[i].events & EPOLLIN) read_frames(conn, w, samples, done);
  }
}

void LoadGen::register_graphs(
    const std::vector<service::GraphSpec>& graphs) {
  std::vector<Sample> none;
  std::vector<std::pair<std::size_t, int>> done;
  for (const service::GraphSpec& g : graphs) {
    net::WireWriter body;
    net::encode_graph_spec(body, g);
    const std::uint64_t id = next_id_++;
    pending_.emplace(id, kGraphAck);
    const std::size_t before = graph_acks_;
    send_frame(0, net::make_frame(net::FrameType::kGraphReq, id, 0,
                                  body.bytes()));
    const auto deadline = after(Clock::now(), kDrainTimeoutS);
    while (graph_acks_ == before) {
      if (Clock::now() > deadline)
        throw net::TransportError("no answer to graph registration");
      poll(deadline, nullptr, none, done);
    }
  }
}

Pass LoadGen::run_sequential(const Workload& w,
                             const std::vector<std::uint32_t>& queries) {
  Pass p;
  std::vector<std::pair<std::size_t, int>> done;
  const double start = since_epoch(Clock::now());
  for (std::uint32_t q : queries) {
    send_query(w, 0, {q, service::Lane::kBatch}, since_epoch(Clock::now()),
               p.samples);
    const auto deadline = after(Clock::now(), kDrainTimeoutS);
    done.clear();
    while (done.empty()) {
      if (Clock::now() > deadline)
        throw net::TransportError("no answer within the drain timeout");
      poll(deadline, &w, p.samples, done);
    }
  }
  p.window_s = since_epoch(Clock::now()) - start;
  return p;
}

void LoadGen::record_spans(SpanLog* spans, const Sample& s, int conn) {
  const std::uint64_t id = s.id;
  const std::int64_t root =
      spans->add("request", s.due_s, s.done_s, -1, id, conn);
  spans->add("loadgen.late", s.due_s, s.sent_s, root, id, conn);
  const std::int64_t client =
      spans->add("client", s.sent_s, s.done_s, root, id, conn);
  if (!s.ok) return;
  // Server-side intervals laid out from the returned durations: half the
  // wire time on each side of the server's total.
  const double net = std::max(0.0, (s.done_s - s.sent_s) - s.total_s);
  double t = s.sent_s;
  auto child = [&](const char* name, double dur) {
    spans->add(name, t, t + dur, client, id, conn);
    t += dur;
  };
  child("net", net / 2);
  child("service.queue", s.queue_s);
  child("core.engine", s.engine_s);
  child("service.other", std::max(0.0, s.total_s - s.queue_s - s.engine_s));
  child("net", net / 2);
}

Pass LoadGen::run_open(const Workload& w, const std::vector<double>& due,
                       std::size_t first, SpanLog* spans) {
  Pass p;
  p.samples.reserve(due.size());
  std::vector<std::pair<std::size_t, int>> done;
  const int nconn = static_cast<int>(conns_.size());
  const auto t0 = after(Clock::now(), 0.002);
  const double base = since_epoch(t0);
  std::size_t next = 0;
  std::size_t completed = 0;
  for (;;) {
    const auto now = Clock::now();
    while (next < due.size() && after(t0, due[next]) <= now) {
      const Request& r = w.cycle[(first + next) % w.cycle.size()];
      send_query(w, static_cast<int>(next % static_cast<std::size_t>(nconn)),
                 r, base + due[next], p.samples);
      ++next;
    }
    if (next == due.size() && completed == due.size()) break;
    const auto deadline =
        next < due.size() ? after(t0, due[next])
                          : after(t0, due.back() + kDrainTimeoutS);
    if (next == due.size() && now > deadline)
      throw net::TransportError("responses missing after the drain timeout");
    done.clear();
    poll(deadline, &w, p.samples, done);
    completed += done.size();
    if (spans != nullptr)
      for (const auto& [idx, conn] : done)
        record_spans(spans, p.samples[idx], conn);
  }
  double last = base;
  for (const Sample& s : p.samples) last = std::max(last, s.done_s);
  p.window_s = last - base;
  return p;
}

Pass LoadGen::run_closed(const Workload& w, double seconds, std::size_t first,
                         SpanLog* spans) {
  Pass p;
  std::vector<std::pair<std::size_t, int>> done;
  const auto t0 = Clock::now();
  const auto stop = after(t0, seconds);
  const double base = since_epoch(t0);
  std::size_t sent = 0;
  std::size_t completed = 0;
  auto send_next = [&](int conn, double ready_s) {
    const Request& r = w.cycle[(first + sent) % w.cycle.size()];
    send_query(w, conn, r, ready_s, p.samples);
    ++sent;
  };
  auto keep_going = [&] {
    if (Clock::now() < stop) return true;
    return w.whole_cycles && sent % w.cycle.size() != 0;
  };
  for (int c = 0; c < static_cast<int>(conns_.size()); ++c)
    for (int k = 0; k < w.window; ++k) send_next(c, since_epoch(Clock::now()));
  while (completed < sent) {
    const auto deadline = after(Clock::now(), kDrainTimeoutS);
    done.clear();
    while (done.empty()) {
      if (Clock::now() > deadline)
        throw net::TransportError("responses missing after the drain timeout");
      poll(deadline, &w, p.samples, done);
    }
    completed += done.size();
    for (const auto& [idx, conn] : done) {
      if (spans != nullptr) record_spans(spans, p.samples[idx], conn);
      // The next request is ready the moment this response arrived.
      if (keep_going()) send_next(conn, p.samples[idx].done_s);
    }
  }
  double last = base;
  for (const Sample& s : p.samples) last = std::max(last, s.done_s);
  p.window_s = last - base;
  return p;
}

}  // namespace perfbench
