#include "src/net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <optional>
#include <unordered_map>
#include <utility>

#include "src/io/workflow_xml.h"
#include "src/replication/oplog.h"

namespace skl {

namespace {

using Clock = std::chrono::steady_clock;

std::string Errno(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

/// Varint argument that must fit a 32-bit id (VertexId / DataItemId).
Result<uint32_t> ReadU32(PayloadReader& reader, const char* what) {
  SKL_ASSIGN_OR_RETURN(uint64_t raw, reader.U64());
  if (raw > UINT32_MAX) {
    return Status::InvalidArgument(std::string(what) +
                                   " does not fit 32 bits");
  }
  return static_cast<uint32_t>(raw);
}

/// epoll user-data tags for the two non-connection fds each reactor thread
/// watches; connection events carry the Conn* instead (never 0/1).
constexpr uint64_t kEventFdTag = 0;
constexpr uint64_t kListenFdTag = 1;

/// Flush responses once this much is buffered even mid-batch, so pipelined
/// replies still leave in large sends without the buffer ballooning.
constexpr size_t kFlushChunkBytes = 64u << 10;

int64_t MsUntil(Clock::time_point t) {
  const auto d = t - Clock::now();
  const int64_t ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(d).count();
  return ms < 0 ? 0 : ms + 1;  // round up: never wake before the deadline
}

uint64_t UsBetween(Clock::time_point from, Clock::time_point to) {
  const int64_t us =
      std::chrono::duration_cast<std::chrono::microseconds>(to - from)
          .count();
  return us < 0 ? 0 : static_cast<uint64_t>(us);
}

/// Best-effort run id for the slow-query log: the opcodes that name a run
/// carry it as the first payload varint. 0 for run-less opcodes or when
/// the payload is too malformed to read one (the dispatch error already
/// describes that).
uint64_t PeekRunId(const Frame& frame) {
  const OpcodeInfo* op = FindOpcode(static_cast<uint8_t>(frame.type));
  if (op == nullptr || !op->names_run) return 0;
  PayloadReader reader(frame.payload);
  Result<uint64_t> run = reader.U64();
  return run.ok() ? *run : 0;
}

}  // namespace

/// Per-connection state. The owning I/O thread is the only one that reads
/// the socket, touches the decoder, or registers/closes the fd; everything
/// under `mu` is shared with the dispatch pool task. Writes to the socket
/// happen under `mu` (from whichever thread flushes), and the fd is closed
/// under `mu` with `closed` set — so no thread can write a stale fd.
struct ProvenanceServer::Conn {
  Conn(int fd_in, size_t io, size_t max_frame)
      : fd(fd_in), io_index(io), decoder(max_frame) {}

  /// A decoded request stamped with its decode time, so dispatch can split
  /// total latency into queue-wait (decoded -> dequeued) and execute.
  struct PendingFrame {
    Frame frame;
    Clock::time_point enqueued;
  };

  const int fd;
  const size_t io_index;  ///< owning reactor thread

  // --- owner I/O thread only ---
  FrameDecoder decoder;
  bool in_epoll = false;

  std::mutex mu;  // guards everything below
  std::deque<PendingFrame> pending;  ///< decoded, not yet dispatched (FIFO)
  std::optional<Status> terminal;  ///< decoder poison: error-then-close
  bool terminal_encoded = false;
  bool task_active = false;  ///< at most one pool task per connection
  std::vector<uint8_t> wbuf;
  size_t woff = 0;           ///< flushed prefix of wbuf
  bool want_write = false;   ///< partial flush: needs EPOLLOUT
  bool epollout_armed = false;
  bool paused = false;          ///< backpressure: reads+dispatch suspended
  bool read_throttled = false;  ///< kMaxPendingFrames cap hit
  bool read_closed = false;
  bool close_after_flush = false;
  bool shutdown_after_flush = false;  ///< kShutdown: reply out, then drain
  bool io_error = false;  ///< transport dead; close without flushing
  bool closed = false;    ///< fd closed; no socket use past this
  Clock::time_point last_activity{};
};

/// Per-reactor-thread state. `conns`/`retired` and the accept/idle
/// deadlines belong to the owning thread; `nudges` is the cross-thread
/// mailbox (paired with an eventfd write).
struct ProvenanceServer::IoThread {
  ~IoThread() {
    if (epoll_fd >= 0) ::close(epoll_fd);
    if (event_fd >= 0) ::close(event_fd);
  }

  size_t index = 0;
  int epoll_fd = -1;
  int event_fd = -1;
  std::thread thread;

  std::mutex nudge_mu;
  std::vector<std::shared_ptr<Conn>> nudges;

  // --- owner thread only ---
  std::unordered_map<int, std::shared_ptr<Conn>> conns;
  /// Closed this loop turn: keeps Conn* in already-harvested epoll events
  /// valid until the turn ends (the map entry is erased immediately so the
  /// fd number can be reused by a fresh accept).
  std::vector<std::shared_ptr<Conn>> retired;
  bool accept_retry_armed = false;
  Clock::time_point accept_retry_at{};
  uint32_t accept_backoff_ms = 0;
  Clock::time_point next_idle_scan{};
  bool stop_seen = false;
  Clock::time_point drain_deadline{};
};

ProvenanceServer::ProvenanceServer(ProvenanceService service, Options options)
    : options_(std::move(options)),
      service_(std::move(service)),
      pool_(ThreadPool::Resolve(options_.num_threads)) {}

Result<std::unique_ptr<ProvenanceServer>> ProvenanceServer::Start(
    ProvenanceService service, Options options) {
  if (options.oplog != nullptr) {
    // Attach before the first frame can arrive: a mutation that slipped in
    // unlogged would be invisible to replicas and to crash recovery.
    service.AttachOpLog(options.oplog);
  }
  std::unique_ptr<ProvenanceServer> server(
      new ProvenanceServer(std::move(service), std::move(options)));
  server->RegisterMetrics();  // before any frame can record
  SKL_RETURN_NOT_OK(server->Listen());
  SKL_RETURN_NOT_OK(server->StartIoThreads());
  return server;
}

ProvenanceServer::~ProvenanceServer() { Shutdown(); }

Status ProvenanceServer::Listen() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Status::Unavailable(Errno("socket()"));
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return Status::InvalidArgument(
        "bind_address must be a numeric IPv4 address, got '" +
        options_.bind_address + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Status::Unavailable(
        Errno(("bind " + options_.bind_address + ":" +
               std::to_string(options_.port))
                  .c_str()));
  }
  if (::listen(listen_fd_, 128) != 0) {
    return Status::Unavailable(Errno("listen()"));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    return Status::Unavailable(Errno("getsockname()"));
  }
  port_ = ntohs(bound.sin_port);
  return Status::OK();
}

Status ProvenanceServer::StartIoThreads() {
  const unsigned requested =
      options_.num_io_threads == 0 ? 1u : options_.num_io_threads;
  const size_t n = std::min(requested, 64u);
  for (size_t i = 0; i < n; ++i) {
    auto io = std::make_unique<IoThread>();
    io->index = i;
    io->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (io->epoll_fd < 0) return Status::Unavailable(Errno("epoll_create1()"));
    io->event_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (io->event_fd < 0) return Status::Unavailable(Errno("eventfd()"));
    epoll_event ev{};
    ev.events = EPOLLIN;  // level-triggered is right for a wakeup counter
    ev.data.u64 = kEventFdTag;
    if (::epoll_ctl(io->epoll_fd, EPOLL_CTL_ADD, io->event_fd, &ev) != 0) {
      return Status::Unavailable(Errno("epoll_ctl(eventfd)"));
    }
    io_threads_.push_back(std::move(io));
  }
  // The listener lives in thread 0's epoll, edge-triggered: DoAccept drains
  // to EAGAIN, and the fd-exhaustion retry path re-polls it by deadline.
  const int flags = ::fcntl(listen_fd_, F_GETFL, 0);
  if (flags < 0 || ::fcntl(listen_fd_, F_SETFL, flags | O_NONBLOCK) != 0) {
    return Status::Unavailable(Errno("fcntl(listen, O_NONBLOCK)"));
  }
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLET;
  ev.data.u64 = kListenFdTag;
  if (::epoll_ctl(io_threads_[0]->epoll_fd, EPOLL_CTL_ADD, listen_fd_, &ev) !=
      0) {
    return Status::Unavailable(Errno("epoll_ctl(listen)"));
  }
  for (auto& io : io_threads_) {
    io->thread = std::thread([this, p = io.get()] { IoLoop(p->index); });
  }
  return Status::OK();
}

int ProvenanceServer::LoopTimeoutMs(const IoThread& io) const {
  int64_t timeout = -1;  // block until an event or a nudge
  auto consider = [&](int64_t ms) {
    if (timeout < 0 || ms < timeout) timeout = ms;
  };
  if (options_.idle_timeout_ms > 0 && !io.conns.empty()) {
    consider(MsUntil(io.next_idle_scan));
  }
  if (io.accept_retry_armed) consider(MsUntil(io.accept_retry_at));
  if (io.stop_seen && !io.conns.empty()) consider(50);  // drain-grace ticks
  if (timeout > 60000) timeout = 60000;
  return static_cast<int>(timeout);
}

void ProvenanceServer::IoLoop(size_t index) {
  IoThread& io = *io_threads_[index];
  const uint32_t idle_scan_ms =
      options_.idle_timeout_ms > 0
          ? std::clamp(options_.idle_timeout_ms / 4, 10u, 1000u)
          : 0;
  io.next_idle_scan = Clock::now() + std::chrono::milliseconds(idle_scan_ms);
  std::array<epoll_event, 128> events;
  for (;;) {
    const int n = ::epoll_wait(io.epoll_fd, events.data(),
                               static_cast<int>(events.size()),
                               LoopTimeoutMs(io));
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll itself failed; nothing sane left to do
    }
    epoll_wakeups_.fetch_add(1, std::memory_order_relaxed);
    bool accept_ready = false;
    for (int i = 0; i < n; ++i) {
      const epoll_event& ev = events[i];
      if (ev.data.u64 == kEventFdTag) {
        uint64_t drained;
        while (::read(io.event_fd, &drained, sizeof(drained)) > 0) {
        }
      } else if (ev.data.u64 == kListenFdTag) {
        accept_ready = true;
      } else {
        // Closed-this-turn conns were erased from the map but their
        // pointers stay valid via `retired`; the lookup filters them out.
        // New fds are only adopted after this event sweep, so an entry
        // found under this fd is the event's connection.
        auto it = io.conns.find(static_cast<Conn*>(ev.data.ptr)->fd);
        if (it == io.conns.end() ||
            it->second.get() != static_cast<Conn*>(ev.data.ptr)) {
          continue;
        }
        std::shared_ptr<Conn> c = it->second;
        if (ev.events & EPOLLOUT) HandleWritable(io, c);
        if (ev.events & (EPOLLIN | EPOLLERR | EPOLLHUP)) ReadFrom(io, c);
        TryClose(io, c, /*force=*/false);
      }
    }
    std::vector<std::shared_ptr<Conn>> nudged;
    {
      std::lock_guard lock(io.nudge_mu);
      nudged.swap(io.nudges);
    }
    for (const auto& c : nudged) {
      if (!c->in_epoll) {
        AdoptConn(io, c);
      } else {
        ServiceNudge(io, c);
      }
    }
    if (stop_.load(std::memory_order_acquire)) {
      if (!io.stop_seen) {
        io.stop_seen = true;
        {
          std::lock_guard lock(state_mu_);
          io.drain_deadline =
              stop_time_ + std::chrono::milliseconds(options_.drain_grace_ms);
        }
        // Half-close every connection: already-decoded requests finish and
        // flush, idle ones close right away.
        std::vector<std::shared_ptr<Conn>> open;
        open.reserve(io.conns.size());
        for (const auto& [fd, c] : io.conns) open.push_back(c);
        for (const auto& c : open) {
          {
            std::lock_guard lock(c->mu);
            if (!c->closed && !c->read_closed) {
              ::shutdown(c->fd, SHUT_RD);
              c->read_closed = true;
            }
          }
          MaybeDispatch(c);
          TryClose(io, c, /*force=*/false);
        }
      } else if (!io.conns.empty() && Clock::now() >= io.drain_deadline) {
        // A peer that will not drain its responses must not wedge the
        // shutdown: past the grace window, close it mid-buffer.
        std::vector<std::shared_ptr<Conn>> open;
        open.reserve(io.conns.size());
        for (const auto& [fd, c] : io.conns) open.push_back(c);
        for (const auto& c : open) TryClose(io, c, /*force=*/true);
      }
    }
    if (io.index == 0 && !stop_.load(std::memory_order_acquire)) {
      const bool retry_due =
          io.accept_retry_armed && Clock::now() >= io.accept_retry_at;
      if (accept_ready || retry_due) DoAccept(io);
    }
    if (idle_scan_ms > 0 && Clock::now() >= io.next_idle_scan) {
      io.next_idle_scan =
          Clock::now() + std::chrono::milliseconds(idle_scan_ms);
      const auto cutoff =
          Clock::now() - std::chrono::milliseconds(options_.idle_timeout_ms);
      std::vector<std::shared_ptr<Conn>> expired;
      for (const auto& [fd, c] : io.conns) {
        std::lock_guard lock(c->mu);
        // "Idle" means nothing anywhere: no unread request, no running
        // dispatch, no unflushed response, and no socket bytes either way
        // since the cutoff. A half-received frame keeps a connection alive
        // exactly as long as bytes keep trickling in.
        if (!c->closed && !c->task_active && c->pending.empty() &&
            !c->terminal.has_value() && c->wbuf.size() == c->woff &&
            c->last_activity < cutoff) {
          expired.push_back(c);
        }
      }
      for (const auto& c : expired) {
        timed_out_total_.fetch_add(1, std::memory_order_relaxed);
        TryClose(io, c, /*force=*/true);
      }
    }
    io.retired.clear();
    if (stop_.load(std::memory_order_acquire) && io.conns.empty()) break;
  }
}

void ProvenanceServer::DoAccept(IoThread& io) {
  io.accept_retry_armed = false;
  for (;;) {
    if (stop_.load(std::memory_order_acquire)) return;
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        // fd exhaustion is transient: pending handshakes keep waiting in
        // the listen backlog, so back off and retry by deadline instead of
        // abandoning the accept path (the edge-triggered event is spent).
        accept_backoffs_.fetch_add(1, std::memory_order_relaxed);
        io.accept_backoff_ms =
            io.accept_backoff_ms == 0
                ? 10
                : std::min(io.accept_backoff_ms * 2, 1000u);
        io.accept_retry_armed = true;
        io.accept_retry_at =
            Clock::now() + std::chrono::milliseconds(io.accept_backoff_ms);
        return;
      }
      return;  // listener shut down (EINVAL after BeginShutdown) or fatal
    }
    io.accept_backoff_ms = 0;
    // Responses are small frames; without TCP_NODELAY, Nagle holds each one
    // back waiting for the peer's (delayed) ACK and pipelined throughput
    // collapses to the 40ms delayed-ACK clock.
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (!RegisterConnection()) {
      ::close(fd);  // raced a shutdown: refuse politely
      continue;
    }
    accepted_total_.fetch_add(1, std::memory_order_relaxed);
    const size_t target =
        next_io_.fetch_add(1, std::memory_order_relaxed) % io_threads_.size();
    auto conn = std::make_shared<Conn>(fd, target, options_.max_frame_bytes);
    conn->last_activity = Clock::now();
    if (target == io.index) {
      AdoptConn(io, conn);
    } else {
      NudgeOwner(conn);  // the owner adopts it on its next loop turn
    }
  }
}

void ProvenanceServer::AdoptConn(IoThread& io,
                                 const std::shared_ptr<Conn>& conn) {
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLET;
  ev.data.ptr = conn.get();
  if (::epoll_ctl(io.epoll_fd, EPOLL_CTL_ADD, conn->fd, &ev) != 0) {
    {
      std::lock_guard lock(conn->mu);
      conn->closed = true;
      ::close(conn->fd);
    }
    UnregisterConnection();
    return;
  }
  conn->in_epoll = true;
  io.conns.emplace(conn->fd, conn);
  if (stop_.load(std::memory_order_acquire)) {
    // Raced BeginShutdown after registration: this thread's half-close
    // sweep already ran, so apply it here.
    std::lock_guard lock(conn->mu);
    if (!conn->read_closed) {
      ::shutdown(conn->fd, SHUT_RD);
      conn->read_closed = true;
    }
  }
  // Edge-triggered: bytes may have arrived before the ADD; read them now.
  ReadFrom(io, conn);
  TryClose(io, conn, /*force=*/false);
}

void ProvenanceServer::ReadFrom(IoThread& io, const std::shared_ptr<Conn>& c) {
  (void)io;
  uint8_t buf[65536];
  bool progress = false;
  for (;;) {
    {
      std::lock_guard lock(c->mu);
      if (c->closed || c->read_closed || c->paused || c->read_throttled) {
        break;
      }
    }
    // Drain frames already buffered in the decoder before touching the
    // socket: the pending-frame throttle can trip mid-chunk, leaving
    // complete frames behind in the decoder with the socket already
    // empty — no readability edge will ever revisit them, so the resume
    // path must decode first, recv second.
    bool poisoned = false;
    bool throttled = false;
    for (;;) {
      Result<std::optional<Frame>> next = c->decoder.Next();
      if (!next.ok()) {
        // Frame desynchronization (corrupted header): queue one
        // best-effort error — emitted after the replies to frames that
        // did decode — then drop the connection; its byte stream can no
        // longer be trusted to contain frame boundaries.
        std::lock_guard lock(c->mu);
        c->terminal = next.status();
        c->read_closed = true;
        poisoned = true;
        break;
      }
      if (!next->has_value()) break;  // incomplete: read more
      progress = true;
      std::lock_guard lock(c->mu);
      c->pending.push_back({std::move(**next), Clock::now()});
      if (c->pending.size() >= kMaxPendingFrames) {
        c->read_throttled = true;  // dispatch drains it, then reads resume
        throttled = true;
        break;
      }
    }
    if (poisoned || throttled) break;
    const ssize_t n = ::recv(c->fd, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      std::lock_guard lock(c->mu);
      c->io_error = true;  // transport dead; responses are undeliverable
      c->read_closed = true;
      break;
    }
    if (n == 0) {
      std::lock_guard lock(c->mu);
      c->read_closed = true;  // peer half-closed (or our shutdown sweep)
      break;
    }
    progress = true;
    c->decoder.Feed({buf, static_cast<size_t>(n)});
  }
  if (progress) {
    std::lock_guard lock(c->mu);
    c->last_activity = Clock::now();
  }
  MaybeDispatch(c);
}

void ProvenanceServer::MaybeDispatch(const std::shared_ptr<Conn>& c) {
  {
    std::lock_guard lock(c->mu);
    if (c->closed || c->task_active || c->paused) return;
    const bool work = !c->pending.empty() ||
                      (c->terminal.has_value() && !c->terminal_encoded);
    if (!work) return;
    c->task_active = true;
  }
  try {
    pool_.Submit([this, c] { DispatchLoop(c); });
  } catch (...) {
    std::lock_guard lock(c->mu);
    c->task_active = false;
    c->io_error = true;  // cannot serve it; the owner will close
  }
}

void ProvenanceServer::DispatchLoop(std::shared_ptr<Conn> c) {
  for (;;) {
    Conn::PendingFrame pending;
    bool resume_read = false;
    {
      std::lock_guard lock(c->mu);
      if (c->closed ||
          c->wbuf.size() - c->woff > options_.max_write_buffer_bytes) {
        if (!c->closed && !c->paused) {
          // Peer stopped draining: suspend this connection's reads and
          // dispatch until the buffer empties below half (FlushAndSettle
          // resumes us). Bounds memory per connection.
          c->paused = true;
          backpressured_total_.fetch_add(1, std::memory_order_relaxed);
        }
        c->task_active = false;
        break;
      }
      if (c->pending.empty()) {
        if (c->terminal.has_value() && !c->terminal_encoded) {
          Frame err;
          err.type = MsgType::kError;
          err.request_id = 0;
          err.payload = EncodeErrorPayload(*c->terminal, /*trace_id=*/0);
          EncodeFrame(err, &c->wbuf);
          c->terminal_encoded = true;
          c->close_after_flush = true;
        }
        c->task_active = false;
        break;
      }
      pending = std::move(c->pending.front());
      c->pending.pop_front();
      if (c->read_throttled && c->pending.size() <= kMaxPendingFrames / 2) {
        c->read_throttled = false;
        resume_read = true;
      }
    }
    if (resume_read) NudgeOwner(c);
    const Frame& frame = pending.frame;
    std::vector<uint8_t> out;
    bool shutdown_after_reply = false;
    uint64_t trace_id = 0;
    const auto exec_start = Clock::now();
    HandleFrame(frame, &out, &shutdown_after_reply, &trace_id);
    RecordFrameTiming(frame, trace_id,
                      UsBetween(pending.enqueued, exec_start),
                      UsBetween(exec_start, Clock::now()));
    bool flush_now;
    {
      std::lock_guard lock(c->mu);
      c->wbuf.insert(c->wbuf.end(), out.begin(), out.end());
      if (shutdown_after_reply) c->shutdown_after_flush = true;
      // Batch small pipelined replies into large sends; flush eagerly once
      // a chunk has built up (or a shutdown reply must get out).
      flush_now = c->wbuf.size() - c->woff >= kFlushChunkBytes ||
                  c->shutdown_after_flush;
    }
    if (flush_now) FlushAndSettle(c);
  }
  FlushAndSettle(c);
}

void ProvenanceServer::FlushAndSettle(const std::shared_ptr<Conn>& c) {
  bool begin_shutdown = false;
  bool redispatch = false;
  bool nudge = false;
  {
    std::lock_guard lock(c->mu);
    if (c->closed) return;
    if (!c->io_error) {
      while (c->woff < c->wbuf.size()) {
        const ssize_t n =
            ::send(c->fd, c->wbuf.data() + c->woff, c->wbuf.size() - c->woff,
                   MSG_NOSIGNAL | MSG_DONTWAIT);
        if (n < 0) {
          if (errno == EINTR) continue;
          if (errno == EAGAIN || errno == EWOULDBLOCK) {
            c->want_write = true;  // socket full: EPOLLOUT finishes the job
            break;
          }
          c->io_error = true;  // peer gone mid-response
          break;
        }
        c->woff += static_cast<size_t>(n);
        c->last_activity = Clock::now();
      }
      if (c->woff == c->wbuf.size()) {
        c->wbuf.clear();
        c->woff = 0;
        c->want_write = false;
      } else if (c->woff >= kFlushChunkBytes) {
        c->wbuf.erase(c->wbuf.begin(),
                      c->wbuf.begin() + static_cast<ptrdiff_t>(c->woff));
        c->woff = 0;
      }
    }
    const size_t backlog = c->wbuf.size() - c->woff;
    if (c->io_error) {
      nudge = true;  // owner force-closes
    } else {
      if (backlog == 0 && c->shutdown_after_flush) {
        c->shutdown_after_flush = false;
        begin_shutdown = true;  // the OK reply is out first
      }
      if (c->paused && backlog <= options_.max_write_buffer_bytes / 2) {
        c->paused = false;  // peer drained: resume dispatch and reads
        redispatch = true;
        nudge = true;
      }
      if (c->want_write && !c->epollout_armed) nudge = true;
      if (backlog == 0 && (c->close_after_flush || c->read_closed) &&
          !c->task_active && c->pending.empty() &&
          !(c->terminal.has_value() && !c->terminal_encoded)) {
        nudge = true;  // nothing left: owner closes
      }
    }
  }
  if (begin_shutdown) BeginShutdown();
  if (redispatch) MaybeDispatch(c);
  if (nudge) NudgeOwner(c);
}

void ProvenanceServer::HandleWritable(IoThread& io,
                                      const std::shared_ptr<Conn>& c) {
  FlushAndSettle(c);
  std::lock_guard lock(c->mu);
  if (c->closed) return;
  if (!c->want_write && c->epollout_armed) {
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLET;
    ev.data.ptr = c.get();
    ::epoll_ctl(io.epoll_fd, EPOLL_CTL_MOD, c->fd, &ev);
    c->epollout_armed = false;
  }
}

void ProvenanceServer::ServiceNudge(IoThread& io,
                                    const std::shared_ptr<Conn>& c) {
  bool arm = false;
  bool read_more = false;
  {
    std::lock_guard lock(c->mu);
    if (c->closed) return;
    if (c->want_write && !c->epollout_armed) {
      // EPOLL_CTL_MOD re-arms the edge: if the socket is already writable
      // again, the event fires immediately — no stall window.
      epoll_event ev{};
      ev.events = EPOLLIN | EPOLLOUT | EPOLLET;
      ev.data.ptr = c.get();
      if (::epoll_ctl(io.epoll_fd, EPOLL_CTL_MOD, c->fd, &ev) == 0) {
        c->epollout_armed = true;
      }
      arm = true;
    }
    read_more = !c->read_closed && !c->paused && !c->read_throttled;
  }
  (void)arm;
  // A nudge can mean "resume reading" (backpressure lifted, throttle
  // cleared): the data's edge was consumed long ago, so read explicitly.
  if (read_more) ReadFrom(io, c);
  MaybeDispatch(c);
  TryClose(io, c, /*force=*/false);
}

void ProvenanceServer::TryClose(IoThread& io, const std::shared_ptr<Conn>& c,
                                bool force) {
  {
    std::lock_guard lock(c->mu);
    if (c->closed) return;
    if (!force && !c->io_error) {
      const size_t backlog = c->wbuf.size() - c->woff;
      const bool work_left =
          c->task_active || !c->pending.empty() ||
          (c->terminal.has_value() && !c->terminal_encoded) || backlog != 0;
      const bool done =
          (c->read_closed || c->close_after_flush) && !work_left;
      if (!done) return;
    }
    c->closed = true;
    ::close(c->fd);  // under mu: every socket write checks `closed` first
  }
  io.conns.erase(c->fd);
  io.retired.push_back(c);  // keep Conn* in this turn's events valid
  UnregisterConnection();
}

void ProvenanceServer::NudgeOwner(const std::shared_ptr<Conn>& c) {
  IoThread& io = *io_threads_[c->io_index];
  {
    std::lock_guard lock(io.nudge_mu);
    io.nudges.push_back(c);
  }
  const uint64_t one = 1;
  [[maybe_unused]] ssize_t n =
      ::write(io.event_fd, &one, sizeof(one));  // EAGAIN (counter full) is
                                                // fine: a wakeup is pending
}

bool ProvenanceServer::RegisterConnection() {
  std::lock_guard lock(state_mu_);
  if (stop_.load(std::memory_order_acquire)) return false;
  ++open_connections_;
  return true;
}

void ProvenanceServer::UnregisterConnection() {
  std::lock_guard lock(state_mu_);
  if (--open_connections_ == 0) drained_cv_.notify_all();
}

ReactorStats ProvenanceServer::reactor_stats() const {
  ReactorStats s;
  {
    std::lock_guard lock(state_mu_);
    s.connections_open = open_connections_;
  }
  s.connections_accepted = accepted_total_.load(std::memory_order_relaxed);
  s.connections_timed_out = timed_out_total_.load(std::memory_order_relaxed);
  s.connections_backpressured =
      backpressured_total_.load(std::memory_order_relaxed);
  s.epoll_wakeups = epoll_wakeups_.load(std::memory_order_relaxed);
  s.accept_backoffs = accept_backoffs_.load(std::memory_order_relaxed);
  return s;
}

void ProvenanceServer::RegisterMetrics() {
  // Two passes so each histogram family's per-opcode series are registered
  // contiguously — the exposition emits one # HELP/# TYPE header per
  // family, and Prometheus requires a family's samples to be adjacent.
  for (int pass = 0; pass < 2; ++pass) {
    for (const OpcodeInfo& row : OpcodeTable()) {
      if (!row.is_request) continue;
      const uint8_t op = static_cast<uint8_t>(row.type);
      const std::string labels = std::string("op=\"") + row.name + "\"";
      if (pass == 0) {
        queue_hist_[op] = metrics_.AddHistogram(
            "skl_server_queue_wait_us",
            "Microseconds a decoded request waited before dispatch", labels);
      } else {
        exec_hist_[op] = metrics_.AddHistogram(
            "skl_server_execute_us",
            "Microseconds spent dispatching a request and encoding its reply",
            labels);
      }
    }
  }
  // Replication lag at scrape time: on a primary applied == target (the
  // op-log head); on a replica the tailer-reported pair, clamped so a
  // freshly updated applied LSN never reads as ahead of a stale target.
  auto target = [this] {
    const uint64_t applied = CurrentAppliedLsn();
    const uint64_t t = options_.oplog != nullptr
                           ? options_.oplog->last_lsn()
                           : target_lsn_.load(std::memory_order_acquire);
    return std::max(t, applied);
  };
  metrics_.AddCallbackGauge("skl_replication_applied_lsn",
                            "Last op-log LSN applied by this server", "",
                            [this] { return CurrentAppliedLsn(); });
  metrics_.AddCallbackGauge(
      "skl_replication_target_lsn",
      "Primary's last known op-log LSN (apply-lag denominator)", "", target);
  metrics_.AddCallbackGauge(
      "skl_replication_apply_lag",
      "Ops the primary has logged that this server has not yet applied", "",
      [this, target] { return target() - CurrentAppliedLsn(); });
}

const LatencyHistogram* ProvenanceServer::queue_wait_histogram(
    MsgType type) const {
  const size_t op = static_cast<uint8_t>(type);
  return op < kOpcodeSlots ? queue_hist_[op] : nullptr;
}

const LatencyHistogram* ProvenanceServer::execute_histogram(
    MsgType type) const {
  const size_t op = static_cast<uint8_t>(type);
  return op < kOpcodeSlots ? exec_hist_[op] : nullptr;
}

std::vector<SlowQueryEntry> ProvenanceServer::slow_queries() const {
  std::lock_guard lock(slow_mu_);
  return {slow_queries_.begin(), slow_queries_.end()};
}

void ProvenanceServer::RecordFrameTiming(const Frame& frame,
                                         uint64_t trace_id, uint64_t queue_us,
                                         uint64_t exec_us) {
  const size_t op = static_cast<uint8_t>(frame.type);
  if (op >= kOpcodeSlots || queue_hist_[op] == nullptr) return;
  queue_hist_[op]->Record(queue_us);
  exec_hist_[op]->Record(exec_us);
  const uint32_t threshold = options_.slow_query_threshold_us;
  if (threshold == 0 || queue_us + exec_us <= threshold) return;
  SlowQueryEntry entry;
  entry.trace_id = trace_id;
  entry.opcode = static_cast<uint8_t>(frame.type);
  entry.run_id = PeekRunId(frame);
  if (entry.run_id != 0) {
    // Slow path only: a brief shared service lock to resolve the owning
    // shard (the registry can be swapped by kLoadSnapshot/ReplaceService).
    std::shared_lock service_lock(service_mu_);
    entry.shard = service_.shard_of(RunId::FromValue(entry.run_id));
  }
  entry.queue_us = queue_us;
  entry.exec_us = exec_us;
  std::lock_guard lock(slow_mu_);
  if (slow_queries_.size() >= kSlowQueryLogCapacity) {
    slow_queries_.pop_front();  // ring: newest kSlowQueryLogCapacity win
  }
  slow_queries_.push_back(entry);
}

std::string ProvenanceServer::RenderMetricsLocked() {
  std::string text = metrics_.RenderPrometheus();
  text += service_.metrics().RenderPrometheus();
  if (options_.oplog != nullptr) {
    text +=
        "# HELP skl_oplog_append_us Microseconds per op-log append "
        "(serialize+write+flush, fsync included)\n"
        "# TYPE skl_oplog_append_us histogram\n";
    RenderHistogramPrometheus(options_.oplog->append_histogram(),
                              "skl_oplog_append_us", "", &text);
    text +=
        "# HELP skl_oplog_fsync_us Microseconds per op-log fsync\n"
        "# TYPE skl_oplog_fsync_us histogram\n";
    RenderHistogramPrometheus(options_.oplog->fsync_histogram(),
                              "skl_oplog_fsync_us", "", &text);
  }
  return text;
}

std::string ProvenanceServer::RenderMetricsText() {
  std::shared_lock lock(service_mu_);
  return RenderMetricsLocked();
}

void ProvenanceServer::HandleFrame(const Frame& frame,
                                   std::vector<uint8_t>* out,
                                   bool* shutdown_after_reply,
                                   uint64_t* trace_id) {
  *trace_id = 0;
  MsgType reply_type = MsgType::kReply;
  Result<std::vector<uint8_t>> payload = [&]() -> Result<std::vector<uint8_t>> {
    if (frame.version != kProtocolVersion) {
      // Name both versions so a mismatched peer's log says exactly which
      // side must upgrade (asserted by net_server_test).
      return Status::InvalidArgument(
          "unsupported protocol version " + std::to_string(frame.version) +
          "; this server speaks only version " +
          std::to_string(kProtocolVersion) + ", upgrade the older side");
    }
    const OpcodeInfo* op = FindOpcode(static_cast<uint8_t>(frame.type));
    if (op == nullptr || !op->is_request) {
      return Status::InvalidArgument(
          "opcode " + std::to_string(static_cast<uint8_t>(frame.type)) +
          " is not a request");
    }
    if (options_.read_only && op->mutates) {
      return Status::InvalidArgument(
          "read-only replica; writes must go to the primary");
    }
    if (frame.type == MsgType::kLoadSnapshot) {
      // The one request that replaces the service object outright: exclude
      // every other in-flight dispatch for its duration.
      std::unique_lock lock(service_mu_);
      return Dispatch(frame, shutdown_after_reply, &reply_type, trace_id);
    }
    std::shared_lock lock(service_mu_);
    return Dispatch(frame, shutdown_after_reply, &reply_type, trace_id);
  }();

  Frame reply;
  reply.request_id = frame.request_id;
  if (payload.ok()) {
    reply.type = reply_type;
    reply.payload = std::move(payload).value();
  } else {
    reply.type = MsgType::kError;
    // Name the failing request so client-side logs are self-explanatory.
    Status named(payload.status().code(),
                 std::string(MsgTypeName(frame.type)) + ": " +
                     payload.status().message());
    // Echo the request's trace id (0 when the payload never got as far as
    // the trace field).
    reply.payload = EncodeErrorPayload(named, *trace_id);
  }
  EncodeFrame(reply, out);
}

Result<std::vector<uint8_t>> ProvenanceServer::Dispatch(
    const Frame& frame, bool* shutdown_after_reply, MsgType* reply_type,
    uint64_t* trace_id) {
  PayloadReader reader(frame.payload);
  PayloadWriter out;
  // Every request payload ends with a client-generated trace-id varint
  // (docs/OBSERVABILITY.md), after the read token on reads. Every case ends
  // its payload through here.
  auto end_request = [&](PayloadReader& r) -> Status {
    Result<uint64_t> trace = r.U64();
    if (!trace.ok()) return trace.status();
    *trace_id = *trace;
    return r.ExpectEnd();
  };
  // Read payloads additionally carry a min-LSN token before the trace id
  // (read-your-writes, docs/REPLICATION.md): if this server has not applied
  // that far yet, the request bounces as kRetryAt carrying the applied LSN
  // instead of answering from a stale registry. A primary never bounces —
  // appends ack only after the log holds the op, so its applied LSN covers
  // every token a client can legitimately hold.
  bool bounce = false;
  uint64_t bounce_applied = 0;
  auto end_read = [&](PayloadReader& r) -> Status {
    Result<uint64_t> min_lsn = r.U64();
    if (!min_lsn.ok()) return min_lsn.status();
    SKL_RETURN_NOT_OK(end_request(r));
    const uint64_t applied = CurrentAppliedLsn();
    if (*min_lsn > applied) {
      bounce = true;
      bounce_applied = applied;
    }
    return Status::OK();
  };
  switch (frame.type) {
    case MsgType::kPing: {
      SKL_RETURN_NOT_OK(end_request(reader));
      break;
    }
    case MsgType::kShutdown: {
      SKL_RETURN_NOT_OK(end_request(reader));
      *shutdown_after_reply = true;  // reply first, then drain
      break;
    }
    case MsgType::kReaches: {
      SKL_ASSIGN_OR_RETURN(uint64_t run, reader.U64());
      SKL_ASSIGN_OR_RETURN(VertexId v, ReadU32(reader, "vertex id"));
      SKL_ASSIGN_OR_RETURN(VertexId w, ReadU32(reader, "vertex id"));
      SKL_RETURN_NOT_OK(end_read(reader));
      if (bounce) break;
      SKL_ASSIGN_OR_RETURN(bool answer,
                           service_.Reaches(RunId::FromValue(run), v, w));
      out.Boolean(answer);
      break;
    }
    case MsgType::kReachesBatch: {
      SKL_ASSIGN_OR_RETURN(uint64_t run, reader.U64());
      SKL_ASSIGN_OR_RETURN(uint64_t count, reader.U64());
      std::vector<VertexPair> pairs;
      for (uint64_t i = 0; i < count; ++i) {  // reads bound the allocation
        SKL_ASSIGN_OR_RETURN(VertexId v, ReadU32(reader, "vertex id"));
        SKL_ASSIGN_OR_RETURN(VertexId w, ReadU32(reader, "vertex id"));
        pairs.push_back({v, w});
      }
      SKL_RETURN_NOT_OK(end_read(reader));
      if (bounce) break;
      SKL_ASSIGN_OR_RETURN(
          std::vector<bool> answers,
          service_.ReachesBatch(RunId::FromValue(run), pairs));
      out.U64(answers.size());
      for (bool answer : answers) out.Boolean(answer);
      break;
    }
    case MsgType::kDependsOn: {
      SKL_ASSIGN_OR_RETURN(uint64_t run, reader.U64());
      SKL_ASSIGN_OR_RETURN(DataItemId x, ReadU32(reader, "item id"));
      SKL_ASSIGN_OR_RETURN(DataItemId x_from, ReadU32(reader, "item id"));
      SKL_RETURN_NOT_OK(end_read(reader));
      if (bounce) break;
      SKL_ASSIGN_OR_RETURN(
          bool answer, service_.DependsOn(RunId::FromValue(run), x, x_from));
      out.Boolean(answer);
      break;
    }
    case MsgType::kDependsOnBatch: {
      SKL_ASSIGN_OR_RETURN(uint64_t run, reader.U64());
      SKL_ASSIGN_OR_RETURN(uint64_t count, reader.U64());
      std::vector<ItemPair> pairs;
      for (uint64_t i = 0; i < count; ++i) {
        SKL_ASSIGN_OR_RETURN(DataItemId x, ReadU32(reader, "item id"));
        SKL_ASSIGN_OR_RETURN(DataItemId x_from, ReadU32(reader, "item id"));
        pairs.push_back({x, x_from});
      }
      SKL_RETURN_NOT_OK(end_read(reader));
      if (bounce) break;
      SKL_ASSIGN_OR_RETURN(
          std::vector<bool> answers,
          service_.DependsOnBatch(RunId::FromValue(run), pairs));
      out.U64(answers.size());
      for (bool answer : answers) out.Boolean(answer);
      break;
    }
    case MsgType::kModuleDependsOnData: {
      SKL_ASSIGN_OR_RETURN(uint64_t run, reader.U64());
      SKL_ASSIGN_OR_RETURN(VertexId v, ReadU32(reader, "vertex id"));
      SKL_ASSIGN_OR_RETURN(DataItemId x, ReadU32(reader, "item id"));
      SKL_RETURN_NOT_OK(end_read(reader));
      if (bounce) break;
      SKL_ASSIGN_OR_RETURN(
          bool answer,
          service_.ModuleDependsOnData(RunId::FromValue(run), v, x));
      out.Boolean(answer);
      break;
    }
    case MsgType::kDataDependsOnModule: {
      SKL_ASSIGN_OR_RETURN(uint64_t run, reader.U64());
      SKL_ASSIGN_OR_RETURN(DataItemId x, ReadU32(reader, "item id"));
      SKL_ASSIGN_OR_RETURN(VertexId v, ReadU32(reader, "vertex id"));
      SKL_RETURN_NOT_OK(end_read(reader));
      if (bounce) break;
      SKL_ASSIGN_OR_RETURN(
          bool answer,
          service_.DataDependsOnModule(RunId::FromValue(run), x, v));
      out.Boolean(answer);
      break;
    }
    case MsgType::kAddRun: {
      SKL_ASSIGN_OR_RETURN(std::string xml, reader.Str());
      SKL_RETURN_NOT_OK(end_request(reader));
      SKL_ASSIGN_OR_RETURN(::skl::Run run, ReadRunXml(xml));
      SKL_ASSIGN_OR_RETURN(RunId id, service_.AddRun(run));
      out.U64(id.value());
      // Mutating replies carry an ack LSN >= the op's own: the token a
      // client pins later replica reads with (read-your-writes).
      out.U64(service_.replication_lsn());
      break;
    }
    case MsgType::kImportRun: {
      SKL_ASSIGN_OR_RETURN(std::span<const uint8_t> blob, reader.Bytes());
      SKL_RETURN_NOT_OK(end_request(reader));
      SKL_ASSIGN_OR_RETURN(
          RunId id,
          service_.ImportRun(std::vector<uint8_t>(blob.begin(), blob.end())));
      out.U64(id.value());
      out.U64(service_.replication_lsn());
      break;
    }
    case MsgType::kExportRun: {
      SKL_ASSIGN_OR_RETURN(uint64_t run, reader.U64());
      SKL_RETURN_NOT_OK(end_read(reader));
      if (bounce) break;
      SKL_ASSIGN_OR_RETURN(std::vector<uint8_t> blob,
                           service_.ExportRun(RunId::FromValue(run)));
      out.Bytes(blob);
      break;
    }
    case MsgType::kRemoveRun: {
      SKL_ASSIGN_OR_RETURN(uint64_t run, reader.U64());
      SKL_RETURN_NOT_OK(end_request(reader));
      SKL_RETURN_NOT_OK(service_.RemoveRun(RunId::FromValue(run)));
      out.U64(service_.replication_lsn());
      break;
    }
    case MsgType::kListRuns: {
      SKL_RETURN_NOT_OK(end_read(reader));
      if (bounce) break;
      const std::vector<RunId> ids = service_.ListRuns();
      out.U64(ids.size());
      for (RunId id : ids) out.U64(id.value());
      break;
    }
    case MsgType::kRunStats: {
      SKL_ASSIGN_OR_RETURN(uint64_t run, reader.U64());
      SKL_RETURN_NOT_OK(end_read(reader));
      if (bounce) break;
      SKL_ASSIGN_OR_RETURN(RunStats stats,
                           service_.Stats(RunId::FromValue(run)));
      out.U64(stats.num_vertices);
      out.U64(stats.num_items);
      out.U64(stats.label_bits);
      out.U64(stats.context_bits);
      out.U64(stats.origin_bits);
      out.U64(stats.num_nonempty_plus);
      out.Boolean(stats.imported);
      break;
    }
    case MsgType::kServiceStats: {
      SKL_RETURN_NOT_OK(end_request(reader));
      const ServiceStats stats = service_.service_stats();
      out.U64(stats.num_runs);
      out.U64(stats.reaches_queries);
      out.U64(stats.depends_on_queries);
      out.U64(stats.module_data_queries);
      out.U64(stats.data_module_queries);
      out.U64(stats.batch_calls);
      out.U64(stats.runs_ingested);
      out.U64(stats.runs_imported);
      out.U64(stats.runs_removed);
      out.U64(stats.bulk_batches);
      out.U64(stats.snapshot_saves);
      out.U64(stats.cache_hits);
      out.U64(stats.cache_misses);
      // Applied/target LSN pair: equal on a primary, the lag
      // numerator/denominator on a replica. Clamped so a freshly updated
      // applied LSN never reads as ahead of a stale target.
      const uint64_t applied = CurrentAppliedLsn();
      uint64_t target = options_.oplog != nullptr
                            ? options_.oplog->last_lsn()
                            : target_lsn_.load(std::memory_order_acquire);
      target = std::max(target, applied);
      out.U64(applied);
      out.U64(target);
      // Reactor counters (docs/NETWORK.md): these describe the server
      // process, not the registry — they do NOT reset on kLoadSnapshot.
      const ReactorStats rs = reactor_stats();
      out.U64(rs.connections_open);
      out.U64(rs.connections_accepted);
      out.U64(rs.connections_timed_out);
      out.U64(rs.connections_backpressured);
      out.U64(rs.epoll_wakeups);
      out.U64(rs.accept_backoffs);
      out.U64(stats.spec_epoch);
      break;
    }
    case MsgType::kSnapshotFetch: {
      SKL_RETURN_NOT_OK(end_request(reader));
      if (options_.oplog == nullptr) {
        return Status::InvalidArgument(
            "server has no replication log attached; start it with an "
            "op-log (e.g. sklctl serve --oplog=...) to serve replicas");
      }
      // Read the LSN *before* composing the snapshot: the bytes then
      // contain every op <= lsn (append-before-ack), and ops > lsn may
      // appear in both snapshot and stream — which is why replica apply is
      // idempotent.
      const uint64_t lsn = options_.oplog->last_lsn();
      SKL_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                           service_.SnapshotBytes());
      out.U64(lsn);
      out.Bytes(bytes);
      break;
    }
    case MsgType::kSubscribe: {
      SKL_ASSIGN_OR_RETURN(uint64_t after_lsn, reader.U64());
      SKL_ASSIGN_OR_RETURN(uint64_t max_ops, reader.U64());
      SKL_RETURN_NOT_OK(end_request(reader));
      if (options_.oplog == nullptr) {
        return Status::InvalidArgument(
            "server has no replication log attached; start it with an "
            "op-log (e.g. sklctl serve --oplog=...) to serve replicas");
      }
      // Cap the batch so one subscribe cannot ask for an unbounded reply
      // frame; the tailer just comes back for the rest.
      const size_t capped =
          static_cast<size_t>(std::min<uint64_t>(max_ops, 4096));
      const std::vector<LogOp> ops =
          options_.oplog->ReadFrom(after_lsn, capped);
      *reply_type = MsgType::kLogEntries;
      out.U64(ops.size());
      for (const LogOp& op : ops) out.Bytes(SerializeLogOp(op));
      out.U64(options_.oplog->last_lsn());
      break;
    }
    case MsgType::kSaveSnapshot: {
      SKL_ASSIGN_OR_RETURN(std::string path, reader.Str());
      SKL_RETURN_NOT_OK(end_request(reader));
      SKL_RETURN_NOT_OK(service_.SaveSnapshot(path));
      break;
    }
    case MsgType::kLoadSnapshot: {
      // Caller holds service_mu_ exclusively (see HandleFrame). The swap
      // replaces the whole service — sharded registry, spec memos and
      // ServiceStats counters included. Counters RESET on load by
      // contract: they describe the served lifetime of a registry, not the
      // process (asserted by net_server_test, documented in
      // docs/NETWORK.md). Runtime knobs (threads, shards) are not part of
      // the snapshot and carry over from the old service.
      SKL_ASSIGN_OR_RETURN(std::string path, reader.Str());
      SKL_RETURN_NOT_OK(end_request(reader));
      SKL_ASSIGN_OR_RETURN(
          ProvenanceService loaded,
          ProvenanceService::LoadSnapshot(
              path, service_.options(),
              {.use_mmap = options_.mmap_snapshots}));
      service_ = std::move(loaded);
      if (options_.oplog != nullptr) {
        // The swap dropped the old service's attachment; re-attach and
        // append a barrier so recovery and replicas know the registry was
        // replaced wholesale at this LSN (they chain through the snapshot
        // rather than replaying across it).
        service_.AttachOpLog(options_.oplog);
        LogOp barrier;
        barrier.kind = LogOp::Kind::kSnapshotBarrier;
        barrier.blob.assign(path.begin(), path.end());
        Result<uint64_t> appended =
            options_.oplog->Append(std::move(barrier));
        if (!appended.ok()) {
          return Status::Internal(
              "snapshot loaded but the op-log barrier append failed (" +
              appended.status().message() +
              "); the service is ahead of its replication log");
        }
      }
      break;
    }
    case MsgType::kMetrics: {
      SKL_RETURN_NOT_OK(end_request(reader));
      // service_mu_ is already held (shared) by HandleFrame, so render
      // through the lock-free body, not the public re-locking wrapper.
      out.Str(RenderMetricsLocked());
      break;
    }
    case MsgType::kSlowQueries: {
      SKL_RETURN_NOT_OK(end_request(reader));
      const std::vector<SlowQueryEntry> entries = slow_queries();
      out.U64(entries.size());
      for (const SlowQueryEntry& e : entries) {
        out.U64(e.trace_id);
        out.U64(e.opcode);
        out.U64(e.run_id);
        out.U64(e.shard);
        out.U64(e.queue_us);
        out.U64(e.exec_us);
      }
      break;
    }
    case MsgType::kApplySpecDelta: {
      SKL_ASSIGN_OR_RETURN(std::span<const uint8_t> blob, reader.Bytes());
      SKL_RETURN_NOT_OK(end_request(reader));
      SKL_ASSIGN_OR_RETURN(SpecDelta delta, DeserializeSpecDelta(blob));
      // Internally synchronized (the service's epoch mutex): the shared
      // service_mu_ held by HandleFrame is enough, exactly as for AddRun.
      SKL_ASSIGN_OR_RETURN(uint64_t epoch, service_.ApplySpecDelta(delta));
      out.U64(epoch);
      out.U64(service_.replication_lsn());
      break;
    }
    default:
      return Status::InvalidArgument(
          "opcode " + std::to_string(static_cast<uint8_t>(frame.type)) +
          " is not dispatchable");
  }
  if (bounce) {
    *reply_type = MsgType::kRetryAt;
    PayloadWriter behind;
    behind.U64(bounce_applied);
    return std::move(behind).Finish();
  }
  return std::move(out).Finish();
}

uint64_t ProvenanceServer::CurrentAppliedLsn() const {
  return options_.oplog != nullptr
             ? options_.oplog->last_lsn()
             : applied_lsn_.load(std::memory_order_acquire);
}

void ProvenanceServer::SetReplicationLsns(uint64_t applied_lsn,
                                          uint64_t target_lsn) {
  applied_lsn_.store(applied_lsn, std::memory_order_release);
  target_lsn_.store(target_lsn, std::memory_order_release);
}

void ProvenanceServer::ReplaceService(ProvenanceService service) {
  std::unique_lock lock(service_mu_);
  service_ = std::move(service);
  if (options_.oplog != nullptr) service_.AttachOpLog(options_.oplog);
}

void ProvenanceServer::WithServiceShared(
    const std::function<void(ProvenanceService&)>& fn) {
  std::shared_lock lock(service_mu_);
  fn(service_);
}

void ProvenanceServer::BeginShutdown() {
  {
    std::lock_guard lock(state_mu_);
    if (stop_.load(std::memory_order_acquire)) return;
    stop_time_ = Clock::now();
    stop_.store(true, std::memory_order_release);
    // Refuse new connections immediately (shutdown on a listening socket
    // makes connects fail); the fd itself is closed after the join in
    // Wait().
    if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
    drained_cv_.notify_all();
  }
  // Wake every reactor thread: each runs its half-close sweep and winds
  // down once its connections drain.
  for (const auto& io : io_threads_) {
    const uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(io->event_fd, &one, sizeof(one));
  }
}

void ProvenanceServer::Wait() {
  {
    std::unique_lock lock(state_mu_);
    drained_cv_.wait(lock, [&] {
      return stop_.load(std::memory_order_acquire) && open_connections_ == 0;
    });
  }
  std::lock_guard join_lock(join_mu_);
  for (const auto& io : io_threads_) {
    if (io->thread.joinable()) io->thread.join();
  }
  std::lock_guard lock(state_mu_);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void ProvenanceServer::Shutdown() {
  BeginShutdown();
  Wait();
}

}  // namespace skl
