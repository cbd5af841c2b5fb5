#include "server/prague_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>

#include "obs/labels.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "query/pattern_parser.h"
#include "server/wire.h"
#include "util/bytes.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace prague {

namespace {

// Edge identity on the wire is the unordered pair of node handles.
std::pair<uint32_t, uint32_t> EdgeKey(uint32_t u, uint32_t v) {
  return {std::min(u, v), std::max(u, v)};
}

// Per-command frame counter (obs/metrics.h).
obs::Counter* CommandCounter(CommandKind kind) {
  obs::ServerMetrics& sm = obs::ServerMetrics::Get();
  switch (kind) {
    case CommandKind::kOpen:
      return sm.cmd_open_total;
    case CommandKind::kAddEdge:
      return sm.cmd_add_edge_total;
    case CommandKind::kDeleteEdge:
      return sm.cmd_delete_edge_total;
    case CommandKind::kRun:
      return sm.cmd_run_total;
    case CommandKind::kBatchRun:
      return sm.cmd_batch_run_total;
    case CommandKind::kAppend:
      return sm.cmd_append_total;
    case CommandKind::kCancel:
      return sm.cmd_cancel_total;
    case CommandKind::kStats:
      return sm.cmd_stats_total;
    case CommandKind::kMetrics:
      return sm.cmd_metrics_total;
    case CommandKind::kClose:
      return sm.cmd_close_total;
  }
  return sm.cmd_close_total;
}

// Scheduler key for a run admitted now under a session budget of
// `budget_ms` (<= 0 = unbounded). Saturates instead of overflowing so a
// huge budget sorts as unbounded rather than wrapping into the past.
std::chrono::steady_clock::time_point RunDeadlineKey(int64_t budget_ms) {
  using Clock = std::chrono::steady_clock;
  if (budget_ms <= 0) return Clock::time_point::max();
  const auto now = Clock::now();
  const auto headroom = std::chrono::duration_cast<std::chrono::milliseconds>(
      Clock::time_point::max() - now);
  if (budget_ms >= headroom.count()) return Clock::time_point::max();
  return now + std::chrono::milliseconds(budget_ms);
}

// Admission cost of a run body: the bytes the server must hold while the
// run is queued or executing. Patterns dominate; the constant covers the
// ticket bookkeeping itself.
size_t RunCostBytes(const WireCommand& cmd) {
  size_t cost = 64;
  for (const std::string& pattern : cmd.batch_patterns) {
    cost += pattern.size();
  }
  return cost;
}

}  // namespace

// Per-connection state, shared between the owning event loop (read/session
// state) and executor-pool tasks (run tickets, reply writes). Lifetime is
// by shared_ptr: the loop's registry and any in-flight pool task each hold
// one, so the struct outlives the socket.
struct PragueServer::Connection
    : public std::enable_shared_from_this<PragueServer::Connection> {
  PragueServer* server = nullptr;
  EventLoop* loop = nullptr;

  // ---- write side; write_mu guards everything in this block, including
  // fd teardown, so a pool thread mid-send can never race a close().
  std::mutex write_mu;
  int fd = -1;
  bool closed = false;            // fd is gone; drop further replies
  bool want_write = false;        // EPOLLOUT armed (or arm requested)
  bool close_after_flush = false; // CLOSE acked; close once outq drains
  std::deque<std::string> outq;   // encoded frames; front may be partial
  size_t outq_bytes = 0;          // sum of outq frame bytes (cap enforcement)
  bool overflowed = false;        // outq cap tripped; connection is doomed

  // ---- read + session state: owning loop thread only.
  std::string inbuf;
  bool draining = false;  // CLOSE seen; ignore any further inbound frames
  std::shared_ptr<ManagedSession> session;
  // Admission group this connection's OPEN joined ("conn-<n>" when the
  // client named none) and whether AdmitSession succeeded (so the slot is
  // released exactly once at close).
  std::string tenant;
  bool session_admitted = false;
  // Per-tenant series, interned once at OPEN (bounded cardinality: past
  // the family cap every tenant shares the "other" series).
  obs::Histogram* tenant_run_latency = nullptr;
  obs::Counter* tenant_runs_truncated = nullptr;
  // Effective Run() budget of the session (ms; <= 0 = unbounded), kept
  // here so the scheduler can derive each run's deadline key.
  int64_t run_budget_ms = 0;
  // Client node handle -> session node, plus the label each handle was
  // created with (a handle cannot be silently relabeled).
  std::unordered_map<uint32_t, NodeId> nodes;
  std::unordered_map<uint32_t, std::string> node_labels;
  // Unordered handle pair -> formulation id of the edge between them.
  std::map<std::pair<uint32_t, uint32_t>, FormulationId> edges;

  // ---- run pipeline; run_mu guards the ticket structures and serializes
  // cancellation against ticket claim, which is what makes CANCEL-by-id
  // race-free: a ticket is marked cancelled and, iff it is the active one,
  // the session token is tripped — both under the same lock the worker
  // holds while it resets the token and claims the next ticket.
  struct RunTicket {
    explicit RunTicket(WireCommand c) : cmd(std::move(c)) {}
    WireCommand cmd;
    bool cancelled = false;
    // Deadline key (admission time + session budget; max() = unbounded)
    // and the admission reservation to release in OnRunFinished.
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max();
    size_t cost_bytes = 0;
    std::string tenant;
  };
  std::mutex run_mu;
  std::deque<std::shared_ptr<RunTicket>> run_queue;
  std::unordered_map<uint64_t, std::shared_ptr<RunTicket>> inflight;
  std::shared_ptr<RunTicket> active_run;
  bool run_task_active = false;  // a scheduler worker is executing this conn
  bool sched_queued = false;     // conn is sitting in the server's ready_

  // The earliest deadline among queued tickets (call under run_mu with a
  // non-empty queue) — the key this connection competes with in the
  // scheduler's ready queue.
  std::chrono::steady_clock::time_point EarliestQueuedDeadline() const {
    auto key = std::chrono::steady_clock::time_point::max();
    for (const auto& ticket : run_queue) key = std::min(key, ticket->deadline);
    return key;
  }

  // Sends one response frame from any thread. Fast path: when the queue
  // is empty the frame is written straight to the (non-blocking) socket;
  // whatever does not fit is queued and the owning loop is asked to arm
  // EPOLLOUT. Per-connection frame order is preserved either way.
  void SendReply(std::string payload);
};


// One reactor thread: an epoll instance multiplexing its share of the
// connections, plus an eventfd other threads use to hand it work (new
// connections from the acceptor, EPOLLOUT arm requests from pool threads).
// Loop 0 additionally owns the listening socket.
class PragueServer::EventLoop {
 public:
  EventLoop(PragueServer* server, size_t index)
      : server_(server), index_(index) {}

  ~EventLoop() {
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
  }

  Status Init() {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) {
      return Status::IOError(std::string("epoll_create1: ") +
                             std::strerror(errno));
    }
    wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (wake_fd_ < 0) {
      return Status::IOError(std::string("eventfd: ") + std::strerror(errno));
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = wake_fd_;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) < 0) {
      return Status::IOError(std::string("epoll_ctl(wake): ") +
                             std::strerror(errno));
    }
    if (index_ == 0) {
      epoll_event lev{};
      lev.events = EPOLLIN;
      lev.data.fd = server_->listen_fd_;
      if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, server_->listen_fd_, &lev) <
          0) {
        return Status::IOError(std::string("epoll_ctl(listen): ") +
                               std::strerror(errno));
      }
    }
    return Status::OK();
  }

  void StartThread() {
    thread_ = std::thread([this] { Loop(); });
  }

  // Registers this loop with the watchdog. The wake pings our eventfd so
  // a loop parked in epoll_wait (infinite timeout) still beats every tick.
  void AttachWatchdog(obs::Watchdog* watchdog) {
    watchdog_ = watchdog;
    heartbeat_ = watchdog->RegisterHeartbeat(
        "loop-" + std::to_string(index_), [this] { Wake(); });
  }

  // Must run after Join(): once unregistered the wake lambda (which
  // captures `this`) is never invoked again, making ~EventLoop safe.
  void DetachWatchdog() {
    if (watchdog_ != nullptr && heartbeat_ != nullptr) {
      watchdog_->UnregisterHeartbeat(heartbeat_);
    }
    watchdog_ = nullptr;
    heartbeat_ = nullptr;
  }

  void RequestStop() {
    stop_.store(true, std::memory_order_release);
    Wake();
  }

  void Join() {
    if (thread_.joinable()) thread_.join();
  }

  // Hands a freshly accepted connection to this loop (any thread).
  void Adopt(std::shared_ptr<Connection> conn) {
    {
      std::lock_guard<std::mutex> lock(pending_mu_);
      pending_adopt_.push_back(std::move(conn));
    }
    Wake();
  }

  // Asks this loop to arm EPOLLOUT for a connection whose reply did not
  // fit in the socket buffer (any thread).
  void RequestWriteArm(std::shared_ptr<Connection> conn) {
    {
      std::lock_guard<std::mutex> lock(pending_mu_);
      pending_write_.push_back(std::move(conn));
    }
    Wake();
  }

  // Tears a connection down: closes the socket (under write_mu, so no
  // pool thread can be mid-send), unregisters it, and cancels its run
  // pipeline so in-flight pool work drains promptly. Loop thread only.
  void CloseConnection(const std::shared_ptr<Connection>& conn) {
    int fd;
    {
      std::lock_guard<std::mutex> lock(conn->write_mu);
      if (conn->closed) return;
      conn->closed = true;
      fd = conn->fd;
      conn->fd = -1;
      conn->outq.clear();
      conn->outq_bytes = 0;
    }
    conn->draining = true;
    if (fd >= 0) {
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
      conns_.erase(fd);
      ::close(fd);
    }
    obs::ServerMetrics::Get().connections_open->Add(-1);
    {
      std::lock_guard<std::mutex> lock(conn->run_mu);
      for (auto& ticket : conn->run_queue) ticket->cancelled = true;
      if (conn->active_run != nullptr) conn->active_run->cancelled = true;
      if (conn->session != nullptr && conn->run_task_active) {
        conn->session->Cancel();
      }
    }
    // Release the tenant's session slot exactly once (guarded by the
    // closed flag flip above — CloseConnection is loop-thread-only).
    if (conn->session_admitted) {
      conn->session_admitted = false;
      server_->manager_->admission().OnSessionClosed(conn->tenant);
    }
  }

 private:
  void Wake() {
    uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  }

  void Loop() {
    constexpr int kMaxEvents = 128;
    epoll_event events[kMaxEvents];
    while (!stop_.load(std::memory_order_acquire)) {
      if (heartbeat_ != nullptr) heartbeat_->Beat();
      int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, -1);
      if (n < 0) {
        if (errno == EINTR) continue;
        PRAGUE_SLOG_EVERY(Warning, 2.0, 8)
                .Field("loop", static_cast<uint64_t>(index_))
                .Field("errno", std::strerror(errno))
            << "epoll_wait failed; stopping event loop";
        break;
      }
      for (int i = 0; i < n && !stop_.load(std::memory_order_acquire); ++i) {
        int fd = events[i].data.fd;
        uint32_t mask = events[i].events;
        if (fd == wake_fd_) {
          DrainWake();
          ProcessPending();
          continue;
        }
        if (index_ == 0 && fd == server_->listen_fd_) {
          HandleAccept();
          continue;
        }
        auto it = conns_.find(fd);
        if (it == conns_.end()) continue;  // closed earlier in this batch
        std::shared_ptr<Connection> conn = it->second;
        if (mask & (EPOLLHUP | EPOLLERR)) {
          CloseConnection(conn);
          continue;
        }
        if (mask & EPOLLOUT) HandleWritable(conn);
        if (mask & EPOLLIN) HandleReadable(conn);
      }
    }
    // Teardown: every connection this loop owns (or was about to own)
    // goes down, cancelling in-flight runs as it does.
    std::vector<std::shared_ptr<Connection>> pending;
    {
      std::lock_guard<std::mutex> lock(pending_mu_);
      pending.swap(pending_adopt_);
      pending_write_.clear();
    }
    for (const auto& conn : pending) CloseConnection(conn);
    std::vector<std::shared_ptr<Connection>> live;
    live.reserve(conns_.size());
    for (const auto& [fd, conn] : conns_) live.push_back(conn);
    for (const auto& conn : live) CloseConnection(conn);
    conns_.clear();
  }

  void DrainWake() {
    uint64_t buf;
    while (::read(wake_fd_, &buf, sizeof(buf)) > 0) {
    }
    obs::ServerMetrics::Get().event_loop_wakeups_total->Increment();
  }

  void ProcessPending() {
    std::vector<std::shared_ptr<Connection>> adopt, arm;
    {
      std::lock_guard<std::mutex> lock(pending_mu_);
      adopt.swap(pending_adopt_);
      arm.swap(pending_write_);
    }
    for (auto& conn : adopt) Register(std::move(conn));
    for (const auto& conn : arm) ArmWrite(conn);
  }

  void Register(std::shared_ptr<Connection> conn) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = conn->fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn->fd, &ev) < 0) {
      PRAGUE_SLOG_EVERY(Warning, 2.0, 8)
              .Field("errno", std::strerror(errno))
          << "epoll_ctl(add conn) failed; dropping connection";
      CloseConnection(conn);
      return;
    }
    int fd = conn->fd;
    conns_[fd] = std::move(conn);
  }

  void ArmWrite(const std::shared_ptr<Connection>& conn) {
    int fd;
    {
      std::lock_guard<std::mutex> lock(conn->write_mu);
      if (conn->closed || !conn->want_write) return;
      fd = conn->fd;
    }
    if (conns_.find(fd) == conns_.end()) return;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLOUT;
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
  }

  // accept(2) hit EMFILE/ENFILE. Simply returning would busy-spin: the
  // listen fd is level-triggered, so the still-pending connection re-fires
  // epoll_wait immediately, forever, pinning a core and flooding the log.
  // Instead, briefly close the spare descriptor the server holds for
  // exactly this moment, use the freed slot to accept-and-close one
  // pending connection (the peer sees a clean EOF, not a hang), and
  // re-arm the spare. Returns true when one connection was drained and
  // the backlog may hold more.
  bool ShedAccept() {
    if (server_->spare_fd_ < 0) return false;
    ::close(server_->spare_fd_);
    server_->spare_fd_ = -1;
    int victim = ::accept4(server_->listen_fd_, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
    bool drained = victim >= 0;
    if (drained) {
      // Counted before the close: the peer observes the close, and the
      // counter must already reflect the shed by then.
      obs::ServerMetrics::Get().accepts_shed_total->Increment();
      ::close(victim);
    }
    server_->spare_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
    if (drained) {
      // Bounded logging: power-of-two sheds only, so a connect storm
      // cannot turn into a log storm.
      uint64_t n = ++sheds_;
      if ((n & (n - 1)) == 0) {
        PRAGUE_SLOG(Warning).Field("total_shed", n)
            << "out of file descriptors; shed pending connection";
      }
    }
    return drained;
  }

  void HandleAccept() {
    for (;;) {
      int fd = ::accept4(server_->listen_fd_, nullptr, nullptr,
                         SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR || errno == ECONNABORTED) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EMFILE || errno == ENFILE) {
          if (ShedAccept()) continue;  // keep draining the backlog
          return;
        }
        if (server_->running_.load()) {
          PRAGUE_SLOG_EVERY(Warning, 2.0, 8)
                  .Field("errno", std::strerror(errno))
              << "accept failed";
        }
        return;
      }
      if (!server_->running_.load()) {
        ::close(fd);
        return;
      }
      server_->connections_accepted_.fetch_add(1);
      obs::ServerMetrics& sm = obs::ServerMetrics::Get();
      sm.connections_total->Increment();
      sm.connections_open->Add(1);
      // Frames are tiny and latency-bound; Nagle + delayed ACK would park
      // back-to-back commands (e.g. RUN then CANCEL) in the peer's kernel
      // buffer for tens of milliseconds.
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      auto conn = std::make_shared<Connection>();
      conn->server = server_;
      conn->fd = fd;
      size_t target_index = server_->next_loop_.fetch_add(1) %
                            server_->loops_.size();
      EventLoop* target = server_->loops_[target_index].get();
      conn->loop = target;
      if (target == this) {
        Register(std::move(conn));
      } else {
        target->Adopt(std::move(conn));
      }
    }
  }

  void HandleReadable(const std::shared_ptr<Connection>& conn) {
    obs::ServerMetrics& sm = obs::ServerMetrics::Get();
    bool eof = false;
    char buf[16384];
    for (;;) {
      ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
      if (n > 0) {
        conn->inbuf.append(buf, static_cast<size_t>(n));
        if (static_cast<size_t>(n) < sizeof(buf)) break;
        continue;
      }
      if (n == 0) {
        eof = true;
        break;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      PRAGUE_SLOG_EVERY(Warning, 2.0, 8)
              .Field("errno", std::strerror(errno))
          << "connection dropped: recv failed";
      CloseConnection(conn);
      return;
    }
    size_t pos = 0;
    while (!conn->draining && conn->fd >= 0) {
      size_t avail = conn->inbuf.size() - pos;
      if (avail < kFrameHeaderBytes) break;
      Result<FrameHeader> header = DecodeFrameHeader(
          reinterpret_cast<const uint8_t*>(conn->inbuf.data()) + pos, avail);
      if (!header.ok()) {
        sm.protocol_errors_total->Increment();
        conn->SendReply(EncodeErrorReply(header.status()));
        CloseConnection(conn);
        return;
      }
      if (avail < kFrameHeaderBytes + header->payload_length) break;
      sm.frames_total->Increment();
      if (header->type != static_cast<uint8_t>(FrameType::kRequest)) {
        sm.protocol_errors_total->Increment();
        Status st =
            header->type == static_cast<uint8_t>(FrameType::kResponse)
                ? Status::Corruption("expected a request frame")
                : Status::Corruption("unknown frame type byte " +
                                     std::to_string(header->type));
        conn->SendReply(EncodeErrorReply(st));
        CloseConnection(conn);
        return;
      }
      std::string_view payload(conn->inbuf.data() + pos + kFrameHeaderBytes,
                               header->payload_length);
      pos += kFrameHeaderBytes + header->payload_length;
      server_->DispatchFrame(conn, payload);
    }
    if (conn->fd >= 0 && pos > 0) conn->inbuf.erase(0, pos);
    if (eof && conn->fd >= 0) {
      if (!conn->inbuf.empty() && !conn->draining) {
        sm.protocol_errors_total->Increment();
        PRAGUE_SLOG_EVERY(Warning, 2.0, 8)
                .Field("buffered_bytes",
                       static_cast<uint64_t>(conn->inbuf.size()))
            << "connection dropped: closed mid frame";
      }
      CloseConnection(conn);
    }
  }

  void HandleWritable(const std::shared_ptr<Connection>& conn) {
    bool fatal = false, disarm = false, close_now = false;
    int fd = -1;
    {
      std::lock_guard<std::mutex> lock(conn->write_mu);
      if (conn->closed) return;
      fd = conn->fd;
      bool blocked = false;
      while (!conn->outq.empty() && !fatal && !blocked) {
        std::string& frame = conn->outq.front();
        size_t off = 0;
        while (off < frame.size()) {
          ssize_t n = ::send(fd, frame.data() + off, frame.size() - off,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
          if (n >= 0) {
            off += static_cast<size_t>(n);
            continue;
          }
          if (errno == EINTR) continue;
          if (errno == EAGAIN || errno == EWOULDBLOCK) {
            blocked = true;
            break;
          }
          fatal = true;
          break;
        }
        if (off == frame.size()) {
          conn->outq_bytes -= frame.size();
          conn->outq.pop_front();
        } else if (off > 0) {
          conn->outq_bytes -= off;
          frame.erase(0, off);
        }
      }
      if (!fatal && conn->outq.empty()) {
        conn->want_write = false;
        disarm = true;
        close_now = conn->close_after_flush;
      }
    }
    if (fatal) {
      CloseConnection(conn);
      return;
    }
    if (close_now) {
      CloseConnection(conn);
      return;
    }
    if (disarm) {
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = fd;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
    }
  }

  PragueServer* server_;
  size_t index_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  obs::Watchdog* watchdog_ = nullptr;
  obs::WatchdogHeartbeat* heartbeat_ = nullptr;
  std::mutex pending_mu_;
  std::vector<std::shared_ptr<Connection>> pending_adopt_;
  std::vector<std::shared_ptr<Connection>> pending_write_;
  uint64_t sheds_ = 0;  // accept sheds on this loop (loop 0 only; logging)
  // fd -> connection; loop thread only.
  std::unordered_map<int, std::shared_ptr<Connection>> conns_;
};

void PragueServer::Connection::SendReply(std::string payload) {
  if (payload.size() > kMaxFramePayload) {
    PRAGUE_LOG(Debug) << "dropping oversized reply (" << payload.size()
                      << " bytes)";
    return;
  }
  FrameHeader header;
  header.payload_length = static_cast<uint32_t>(payload.size());
  header.type = static_cast<uint8_t>(FrameType::kResponse);
  std::string frame(kFrameHeaderBytes, '\0');
  EncodeFrameHeader(header, reinterpret_cast<uint8_t*>(frame.data()));
  frame += payload;
  bool arm = false;
  {
    std::lock_guard<std::mutex> lock(write_mu);
    if (closed || overflowed) return;
    if (outq.empty() && !want_write) {
      size_t off = 0;
      while (off < frame.size()) {
        ssize_t n = ::send(fd, frame.data() + off, frame.size() - off,
                           MSG_NOSIGNAL | MSG_DONTWAIT);
        if (n >= 0) {
          off += static_cast<size_t>(n);
          continue;
        }
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        // The client is gone; the loop will notice on its next poll.
        PRAGUE_LOG(Debug) << "dropping reply: send: " << std::strerror(errno);
        return;
      }
      if (off < frame.size()) {
        frame.erase(0, off);
        outq_bytes += frame.size();
        outq.push_back(std::move(frame));
      }
    } else {
      outq_bytes += frame.size();
      outq.push_back(std::move(frame));
    }
    obs::ServerMetrics::Get().write_queue_depth->Record(outq.size());
    const size_t cap = server->options_.max_outbound_bytes;
    if (cap > 0 && outq_bytes > cap) {
      // A reader this slow is never catching up: unbounded queueing here
      // is how a STATS/METRICS-spamming client that never reads would run
      // the server out of memory. Keep the (possibly partially written)
      // front frame for stream integrity, drop the rest, append one typed
      // error so the peer learns why, and close once it flushes.
      overflowed = true;
      size_t dropped = outq.size() > 1 ? outq.size() - 1 : 0;
      while (outq.size() > 1) {
        outq_bytes -= outq.back().size();
        outq.pop_back();
      }
      Status reason = Status::FailedPrecondition(
          "outbound queue exceeded " + std::to_string(cap) +
          " bytes (slow reader); closing");
      std::string err_payload = EncodeErrorReply(reason);
      FrameHeader err_header;
      err_header.payload_length = static_cast<uint32_t>(err_payload.size());
      err_header.type = static_cast<uint8_t>(FrameType::kResponse);
      std::string err_frame(kFrameHeaderBytes, '\0');
      EncodeFrameHeader(err_header,
                        reinterpret_cast<uint8_t*>(err_frame.data()));
      err_frame += err_payload;
      outq_bytes += err_frame.size();
      outq.push_back(std::move(err_frame));
      close_after_flush = true;
      obs::ServerMetrics::Get().write_queue_drops_total->Increment();
      PRAGUE_SLOG_EVERY(Warning, 2.0, 8)
              .Field("dropped_replies", static_cast<uint64_t>(dropped))
              .Field("cap_bytes", static_cast<uint64_t>(cap))
          << "dropping slow reader over the outbound cap";
    }
    if (!outq.empty() && !want_write) {
      want_write = true;
      arm = true;
    }
  }
  if (arm) loop->RequestWriteArm(shared_from_this());
}

PragueServer::PragueServer(SessionManager* manager,
                           PragueServerOptions options)
    : manager_(manager), options_(options) {}

PragueServer::~PragueServer() { Stop(); }

Status PragueServer::Start() {
  if (running_.load()) {
    return Status::FailedPrecondition("server already running");
  }
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(options_.port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status st = Status::IOError("bind to port " +
                                std::to_string(options_.port) + ": " +
                                std::strerror(errno));
    ::close(fd);
    return st;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    Status st = Status::IOError(std::string("getsockname: ") +
                                std::strerror(errno));
    ::close(fd);
    return st;
  }
  if (::listen(fd, options_.backlog) < 0) {
    Status st = Status::IOError(std::string("listen: ") +
                                std::strerror(errno));
    ::close(fd);
    return st;
  }
  listen_fd_ = fd;
  port_ = ntohs(addr.sin_port);
  size_t hw = std::max<size_t>(1, std::thread::hardware_concurrency());
  size_t workers = options_.worker_threads != 0 ? options_.worker_threads
                                                : std::max<size_t>(2, hw);
  size_t nloops = options_.event_loop_threads != 0
                      ? options_.event_loop_threads
                      : std::clamp<size_t>(hw / 4, 1, 4);
  loops_.clear();
  for (size_t i = 0; i < nloops; ++i) {
    loops_.push_back(std::make_unique<EventLoop>(this, i));
  }
  for (auto& loop : loops_) {
    if (Status st = loop->Init(); !st.ok()) {
      loops_.clear();
      ::close(listen_fd_);
      listen_fd_ = -1;
      return st;
    }
  }
  pool_ = std::make_unique<ThreadPool>(workers);
  sched_worker_limit_ = workers;
  // The reserve descriptor HandleAccept releases to drain-and-close
  // pending connections under EMFILE. Failure to open it is survivable
  // (shedding just degrades to the old busy loop), so it is not fatal.
  spare_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  AdmissionOptions admission;
  admission.tenant_rate = options_.tenant_rate;
  admission.max_concurrent_runs = options_.max_runs_per_conn;
  admission.max_queued_bytes = options_.max_queued_bytes;
  admission.max_sessions = options_.max_sessions_per_tenant;
  manager_->ConfigureAdmission(admission);
  connections_accepted_.store(0);
  next_loop_.store(0);
  running_.store(true);
  for (auto& loop : loops_) {
    if (options_.watchdog != nullptr) {
      loop->AttachWatchdog(options_.watchdog);
    }
    loop->StartThread();
  }
  PRAGUE_LOG(Info) << "serving on port " << port_ << " with " << nloops
                   << " event loop(s) and " << workers << " query workers";
  return Status::OK();
}

void PragueServer::Stop() {
  if (!running_.exchange(false)) return;
  for (auto& loop : loops_) loop->RequestStop();
  // Each loop closes its connections on the way out, cancelling in-flight
  // runs, so the pool drains promptly.
  for (auto& loop : loops_) loop->Join();
  // After Join the loops no longer beat; unregister before destroying them
  // so a concurrent watchdog tick cannot ping a dead loop's eventfd.
  for (auto& loop : loops_) loop->DetachWatchdog();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (pool_ != nullptr) {
    pool_->Wait();
    pool_.reset();
  }
  loops_.clear();
  if (spare_fd_ >= 0) {
    ::close(spare_fd_);
    spare_fd_ = -1;
  }
  PRAGUE_LOG(Info) << "server on port " << port_ << " stopped";
}

void PragueServer::DispatchFrame(const std::shared_ptr<Connection>& conn,
                                 std::string_view payload) {
  obs::ServerMetrics& sm = obs::ServerMetrics::Get();
  Result<std::pair<uint64_t, std::string_view>> split = SplitFrameId(payload);
  if (!split.ok()) {
    sm.protocol_errors_total->Increment();
    conn->SendReply(EncodeErrorReply(split.status()));
    return;
  }
  Result<WireCommand> cmd = ParseCommand(payload);
  if (!cmd.ok()) {
    sm.protocol_errors_total->Increment();
    conn->SendReply(PrependFrameId(split->first,
                                   EncodeErrorReply(cmd.status())));
    return;
  }
  CommandCounter(cmd->kind)->Increment();
  HandleCommand(conn, *cmd);
}

void PragueServer::HandleCancel(const std::shared_ptr<Connection>& conn,
                                const WireCommand& cmd) {
  std::lock_guard<std::mutex> lock(conn->run_mu);
  if (conn->session == nullptr) return;
  if (cmd.cancel_id == 0) {
    for (auto& ticket : conn->run_queue) ticket->cancelled = true;
    if (conn->active_run != nullptr) {
      conn->active_run->cancelled = true;
      conn->session->Cancel();
    }
    return;
  }
  auto it = conn->inflight.find(cmd.cancel_id);
  if (it == conn->inflight.end()) return;  // already done — fire and forget
  it->second->cancelled = true;
  if (conn->active_run == it->second) conn->session->Cancel();
}

void PragueServer::HandleCommand(const std::shared_ptr<Connection>& conn,
                                 const WireCommand& cmd) {
  // CANCEL is fire-and-forget and valid mid-RUN — that is its purpose.
  if (cmd.kind == CommandKind::kCancel) {
    HandleCancel(conn, cmd);
    return;
  }
  bool busy;
  {
    std::lock_guard<std::mutex> lock(conn->run_mu);
    busy = conn->run_task_active || !conn->run_queue.empty();
  }
  if (busy) {
    // Pipelining: further id-carrying runs may pile up behind the one in
    // flight; everything else keeps the pre-reactor lock-step contract.
    if ((cmd.kind == CommandKind::kRun ||
         cmd.kind == CommandKind::kBatchRun) &&
        cmd.request_id != 0) {
      EnqueueRun(conn, cmd);
      return;
    }
    conn->SendReply(PrependFrameId(
        cmd.request_id,
        EncodeErrorReply(Status::FailedPrecondition(
            "a RUN is in flight on this connection; only CANCEL and "
            "id-carrying RUN/BATCH_RUN are accepted"))));
    return;
  }

  switch (cmd.kind) {
    case CommandKind::kOpen: {
      if (conn->session != nullptr) {
        conn->SendReply(PrependFrameId(
            cmd.request_id,
            EncodeErrorReply(Status::FailedPrecondition(
                "a session is already open on this connection"))));
        return;
      }
      std::string tenant =
          !cmd.tenant.empty()
              ? cmd.tenant
              : "conn-" + std::to_string(anon_tenants_.fetch_add(1) + 1);
      AdmissionDecision admit = manager_->admission().AdmitSession(tenant);
      if (!admit.admitted) {
        obs::ServerMetrics::Get().admission_shed_total->Increment();
        conn->SendReply(PrependFrameId(
            cmd.request_id, FormatBusyReply(admit.retry_after_ms)));
        return;
      }
      conn->tenant = std::move(tenant);
      conn->session_admitted = true;
      {
        obs::ServerMetrics& smx = obs::ServerMetrics::Get();
        conn->tenant_run_latency =
            smx.tenant_run_latency_us->WithLabel(conn->tenant);
        conn->tenant_runs_truncated =
            smx.tenant_truncated_total->WithLabel(conn->tenant);
      }
      int64_t budget_ms = cmd.timeout_ms >= 0
                              ? cmd.timeout_ms
                              : options_.default_run_deadline_ms;
      conn->session = budget_ms >= 0 ? manager_->OpenWithDeadline(budget_ms)
                                     : manager_->Open();
      // Effective budget for the deadline scheduler: an explicit or
      // server-default budget, else whatever the manager default is
      // (0 = unbounded either way).
      conn->run_budget_ms = budget_ms >= 0
                                ? budget_ms
                                : manager_->DefaultRunDeadlineMillis();
      conn->SendReply(PrependFrameId(
          cmd.request_id,
          FormatOpenReply(conn->session->id(), conn->session->version())));
      return;
    }
    case CommandKind::kAddEdge:
    case CommandKind::kDeleteEdge: {
      if (conn->session == nullptr) {
        conn->SendReply(PrependFrameId(
            cmd.request_id,
            EncodeErrorReply(Status::FailedPrecondition(
                "no session on this connection (send OPEN first)"))));
        return;
      }
      std::string reply;
      if (cmd.kind == CommandKind::kAddEdge) {
        reply = conn->session->With([&](PragueSession& s) -> std::string {
          NodeId endpoints[2];
          const std::pair<uint32_t, const std::string*> wanted[2] = {
              {cmd.u, &cmd.u_label}, {cmd.v, &cmd.v_label}};
          for (int i = 0; i < 2; ++i) {
            auto [handle, label] = wanted[i];
            auto it = conn->nodes.find(handle);
            if (it != conn->nodes.end()) {
              if (conn->node_labels[handle] != *label) {
                return EncodeErrorReply(Status::InvalidArgument(
                    "node handle " + std::to_string(handle) +
                    " already has label '" + conn->node_labels[handle] +
                    "'"));
              }
              endpoints[i] = it->second;
            } else {
              Result<NodeId> added = s.AddNodeByName(*label);
              if (!added.ok()) return EncodeErrorReply(added.status());
              conn->nodes[handle] = *added;
              conn->node_labels[handle] = *label;
              endpoints[i] = *added;
            }
          }
          Result<StepReport> step =
              s.AddEdge(endpoints[0], endpoints[1], cmd.edge_label);
          if (!step.ok()) return EncodeErrorReply(step.status());
          conn->edges[EdgeKey(cmd.u, cmd.v)] = step->edge;
          return FormatStepReply(*step);
        });
      } else {
        auto it = conn->edges.find(EdgeKey(cmd.u, cmd.v));
        if (it == conn->edges.end()) {
          conn->SendReply(PrependFrameId(
              cmd.request_id,
              EncodeErrorReply(Status::NotFound(
                  "no edge between node handles " + std::to_string(cmd.u) +
                  " and " + std::to_string(cmd.v)))));
          return;
        }
        FormulationId ell = it->second;
        reply = conn->session->With([&](PragueSession& s) -> std::string {
          Result<StepReport> step = s.DeleteEdge(ell);
          if (!step.ok()) return EncodeErrorReply(step.status());
          conn->edges.erase(it);
          return FormatStepReply(*step);
        });
      }
      conn->SendReply(PrependFrameId(cmd.request_id, std::move(reply)));
      return;
    }
    case CommandKind::kRun:
    case CommandKind::kBatchRun:
    // APPEND rides the run queue: its body (index maintenance + WAL
    // fsync) must not block the event loop, and queueing it keeps the
    // one-reply-in-flight contract for lock-step clients.
    case CommandKind::kAppend: {
      EnqueueRun(conn, cmd);
      return;
    }
    case CommandKind::kStats: {
      conn->SendReply(PrependFrameId(cmd.request_id,
                                     FormatStatsReply(manager_->Stats())));
      return;
    }
    case CommandKind::kMetrics: {
      // Snapshot + render on the pool, not here: this handler runs on an
      // event-loop thread, and the exposition walks the whole registry
      // under its mutex — milliseconds at high series counts, which would
      // stall framing for every connection this loop owns.
      pool_->Submit([conn, id = cmd.request_id] {
        conn->SendReply(PrependFrameId(
            id, FormatMetricsReply(obs::RenderPrometheusText(
                    obs::MetricsRegistry::Global().Snapshot()))));
      });
      return;
    }
    case CommandKind::kClose: {
      conn->SendReply(PrependFrameId(cmd.request_id, "OK bye"));
      conn->draining = true;
      bool close_now = false;
      {
        std::lock_guard<std::mutex> lock(conn->write_mu);
        if (conn->outq.empty()) {
          close_now = true;
        } else {
          conn->close_after_flush = true;
        }
      }
      if (close_now) conn->loop->CloseConnection(conn);
      return;
    }
    case CommandKind::kCancel:
      return;  // handled above
  }
}

void PragueServer::EnqueueRun(const std::shared_ptr<Connection>& conn,
                              const WireCommand& cmd) {
  if (conn->session == nullptr) {
    conn->SendReply(PrependFrameId(
        cmd.request_id,
        EncodeErrorReply(Status::FailedPrecondition(
            "no session on this connection (send OPEN first)"))));
    return;
  }
  obs::ServerMetrics& sm = obs::ServerMetrics::Get();
  Status reject = Status::OK();
  bool schedule = false;
  std::chrono::steady_clock::time_point key;
  int64_t retry_after_ms = 0;
  {
    std::lock_guard<std::mutex> lock(conn->run_mu);
    if (cmd.request_id != 0 &&
        conn->inflight.find(cmd.request_id) != conn->inflight.end()) {
      reject = Status::ProtocolError(
          "request id " + std::to_string(cmd.request_id) +
          " is already in flight on this connection");
    } else if (cmd.request_id != 0 &&
               conn->inflight.size() >= options_.max_pipelined_runs) {
      reject = Status::FailedPrecondition(
          "pipeline is full (" + std::to_string(options_.max_pipelined_runs) +
          " runs in flight)");
    } else {
      // Admission last, after the free rejections: a duplicate id or a
      // full pipeline must not drain the tenant's bucket.
      const size_t cost = RunCostBytes(cmd);
      AdmissionDecision admit =
          manager_->admission().AdmitRun(conn->tenant, cost);
      if (!admit.admitted) {
        retry_after_ms = admit.retry_after_ms;
      } else {
        sm.admission_admitted_total->Increment();
        auto ticket = std::make_shared<Connection::RunTicket>(cmd);
        ticket->deadline = RunDeadlineKey(conn->run_budget_ms);
        ticket->cost_bytes = cost;
        ticket->tenant = conn->tenant;
        conn->run_queue.push_back(ticket);
        if (cmd.request_id != 0) conn->inflight[cmd.request_id] = ticket;
        // Hand the connection to the scheduler unless it is already in
        // the ready queue or a worker is on it (the worker re-queues it).
        if (!conn->run_task_active && !conn->sched_queued) {
          conn->sched_queued = true;
          key = conn->EarliestQueuedDeadline();
          schedule = true;
        }
      }
    }
  }
  if (retry_after_ms > 0) {
    sm.admission_shed_total->Increment();
    conn->SendReply(
        PrependFrameId(cmd.request_id, FormatBusyReply(retry_after_ms)));
    return;
  }
  if (!reject.ok()) {
    if (reject.code() == Status::Code::kProtocolError) {
      sm.protocol_errors_total->Increment();
    }
    conn->SendReply(PrependFrameId(cmd.request_id, EncodeErrorReply(reject)));
    return;
  }
  if (schedule) ScheduleConnection(conn, key);
}

void PragueServer::ScheduleConnection(
    const std::shared_ptr<Connection>& conn,
    std::chrono::steady_clock::time_point key) {
  bool spawn = false;
  {
    std::lock_guard<std::mutex> lock(sched_mu_);
    ready_.Push(key, conn);
    obs::ServerMetrics::Get().sched_queue_depth->Record(ready_.size());
    if (sched_workers_ < sched_worker_limit_) {
      ++sched_workers_;
      spawn = true;
    }
  }
  // A surplus worker (the queue drained before it ran) just exits, so
  // over-spawning is harmless; under-spawning would strand work.
  if (spawn) pool_->Submit([this] { SchedulerWorker(); });
}

void PragueServer::SchedulerWorker() {
  for (;;) {
    std::shared_ptr<Connection> conn;
    {
      std::lock_guard<std::mutex> lock(sched_mu_);
      if (ready_.empty()) {
        --sched_workers_;
        return;
      }
      conn = ready_.Pop();
    }
    std::shared_ptr<Connection::RunTicket> ticket;
    {
      std::lock_guard<std::mutex> lock(conn->run_mu);
      conn->sched_queued = false;
      // run_task_active cannot be set here — a connection is inserted
      // into ready_ only when both flags are clear, and the executing
      // worker re-inserts only after clearing it.
      if (!conn->run_queue.empty() && conn->session != nullptr) {
        // Earliest-deadline ticket first, not FIFO: within one
        // connection's pipeline the tightest budget runs next, matching
        // the cross-connection policy.
        auto best = conn->run_queue.begin();
        for (auto it = std::next(best); it != conn->run_queue.end(); ++it) {
          if ((*it)->deadline < (*best)->deadline) best = it;
        }
        ticket = *best;
        conn->run_queue.erase(best);
        conn->run_task_active = true;
        conn->active_run = ticket;
        // Re-arm the token so a stale CANCEL (one that raced the end of
        // the previous run) cannot poison this run; then apply any
        // cancellation that targeted this ticket while it was still
        // queued. Both under run_mu, the same lock HandleCancel trips
        // the token under.
        conn->session->ResetCancellation();
        if (ticket->cancelled) conn->session->Cancel();
      }
    }
    if (ticket == nullptr) continue;
    obs::Watchdog* watchdog = options_.watchdog;
    const uint64_t watch_token =
        watchdog != nullptr
            ? watchdog->OnRunStarted(ticket->tenant, conn->run_budget_ms)
            : 0;
    std::string reply;
    switch (ticket->cmd.kind) {
      case CommandKind::kRun:
        reply = ExecuteRun(*conn, ticket->cmd);
        break;
      case CommandKind::kBatchRun:
        reply = ExecuteBatchRun(*conn, ticket->cmd);
        break;
      default:
        reply = ExecuteAppend(*conn, ticket->cmd);
        break;
    }
    if (watchdog != nullptr) watchdog->OnRunFinished(watch_token);
    bool requeue = false;
    std::chrono::steady_clock::time_point key;
    {
      std::lock_guard<std::mutex> lock(conn->run_mu);
      conn->active_run = nullptr;
      if (ticket->cmd.request_id != 0) {
        conn->inflight.erase(ticket->cmd.request_id);
      }
      // Clear the flag before replying so a lock-step client's next
      // command (sent only after it reads this reply) is never bounced as
      // "busy". A pipelined client may enqueue again the instant the flag
      // drops; its insertion and this worker's re-insertion are mutually
      // exclusive via sched_queued under this same lock.
      conn->run_task_active = false;
      if (!conn->run_queue.empty() && !conn->sched_queued) {
        conn->sched_queued = true;
        key = conn->EarliestQueuedDeadline();
        requeue = true;
      }
    }
    conn->SendReply(
        PrependFrameId(ticket->cmd.request_id, std::move(reply)));
    manager_->admission().OnRunFinished(ticket->tenant, ticket->cost_bytes);
    if (requeue) ScheduleConnection(conn, key);
  }
}

std::string PragueServer::ExecuteRun(Connection& conn,
                                     const WireCommand& cmd) {
  obs::ServerMetrics& sm = obs::ServerMetrics::Get();
  Stopwatch timer;
  obs::RunTrace trace;
  bool ran = false;
  std::string reply =
      conn.session->With([&](PragueSession& s) -> std::string {
        RunStats stats;
        Result<QueryResults> results = s.Run(&stats);
        if (!results.ok()) return EncodeErrorReply(results.status());
        trace = s.last_run_trace();
        ran = true;
        return FormatRunReply(*results, stats, cmd.limit);
      });
  double elapsed_ms = timer.ElapsedMillis();
  const auto elapsed_us = static_cast<uint64_t>(elapsed_ms * 1000 + 0.5);
  sm.run_latency_us->Record(elapsed_us);
  if (conn.tenant_run_latency != nullptr) {
    conn.tenant_run_latency->Record(elapsed_us);
  }
  if (ran && trace.truncated) {
    sm.runs_truncated_total->Increment();
    if (conn.tenant_runs_truncated != nullptr) {
      conn.tenant_runs_truncated->Increment();
    }
  }
  if (ran && options_.slow_query_ms >= 0 &&
      elapsed_ms >= static_cast<double>(options_.slow_query_ms)) {
    sm.slow_queries_total->Increment();
    PRAGUE_SLOG(Warning)
            .Field("tenant", conn.tenant)
            .Field("elapsed_ms", elapsed_ms)
        << "slow query: " << trace.ToString();
  }
  return reply;
}

std::string PragueServer::ExecuteBatchRun(Connection& conn,
                                          const WireCommand& cmd) {
  obs::ServerMetrics& sm = obs::ServerMetrics::Get();
  Stopwatch timer;
  sm.batch_size->Record(cmd.batch_patterns.size());
  std::vector<std::string> members;
  members.reserve(cmd.batch_patterns.size());
  conn.session->With([&](PragueSession& s) {
    // Each member formulates and runs on a fresh engine session pinned to
    // this connection's snapshot, inheriting the session's config — so the
    // run budget, σ, and crucially the cancellation token all apply: a
    // CANCEL truncates the member in flight and fails the rest fast.
    const PragueConfig config = s.config();
    const LabelDictionary& labels = s.snapshot()->labels();
    for (const std::string& text : cmd.batch_patterns) {
      Result<ParsedPattern> parsed = ParsePatternStrict(text, labels);
      if (!parsed.ok()) {
        members.push_back(EncodeErrorReply(parsed.status()));
        continue;
      }
      PragueSession member(s.snapshot(), config);
      std::vector<NodeId> ids;
      ids.reserve(parsed->graph.NodeCount());
      for (NodeId n = 0; n < parsed->graph.NodeCount(); ++n) {
        ids.push_back(member.AddNode(parsed->graph.NodeLabel(n)));
      }
      Status failed = Status::OK();
      for (EdgeId e : parsed->sequence) {
        const Edge& edge = parsed->graph.GetEdge(e);
        Result<StepReport> step =
            member.AddEdge(ids[edge.u], ids[edge.v], edge.label);
        if (!step.ok()) {
          failed = step.status();
          break;
        }
      }
      if (!failed.ok()) {
        members.push_back(EncodeErrorReply(failed));
        continue;
      }
      RunStats stats;
      Result<QueryResults> results = member.Run(&stats);
      members.push_back(results.ok()
                            ? FormatRunReply(*results, stats, cmd.limit)
                            : EncodeErrorReply(results.status()));
    }
  });
  sm.batch_latency_us->Record(
      static_cast<uint64_t>(timer.ElapsedMillis() * 1000 + 0.5));
  return FormatBatchRunReply(members);
}

std::string PragueServer::ExecuteAppend(Connection& conn,
                                        const WireCommand& cmd) {
  (void)conn;
  MaintenanceOptions options;
  options.alpha =
      cmd.append_alpha > 0 ? cmd.append_alpha : options_.default_append_alpha;
  options.reclassify = cmd.append_reclassify >= 0
                           ? cmd.append_reclassify != 0
                           : options_.append_reclassify;
  // APPEND graphs may introduce labels the snapshot has never seen, so the
  // batch parses against a private dictionary that Append() merges into the
  // successor snapshot (ParsePatternStrict would reject them).
  LabelDictionary batch_labels;
  std::vector<Graph> graphs;
  graphs.reserve(cmd.batch_patterns.size());
  for (const std::string& text : cmd.batch_patterns) {
    Result<ParsedPattern> parsed = ParsePattern(text, &batch_labels);
    if (!parsed.ok()) return EncodeErrorReply(parsed.status());
    graphs.push_back(std::move(parsed->graph));
  }
  Result<MaintenanceReport> report =
      manager_->Append(std::move(graphs), options, &batch_labels);
  if (!report.ok()) return EncodeErrorReply(report.status());
  return FormatAppendReply(*report);
}

}  // namespace prague
