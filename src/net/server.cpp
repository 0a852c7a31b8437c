#include "puppies/net/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <deque>
#include <limits>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "puppies/exec/pool.h"
#include "puppies/exec/task_queue.h"
#include "puppies/fault/fault.h"
#include "puppies/jpeg/codec.h"
#include "puppies/metrics/metrics.h"

namespace puppies::net {

namespace {

using Clock = std::chrono::steady_clock;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

metrics::Histogram& op_histogram(Op op) {
  switch (op) {
    case Op::kUpload: return metrics::histogram("net.op.upload_ms");
    case Op::kApply: return metrics::histogram("net.op.apply_ms");
    case Op::kDownload: return metrics::histogram("net.op.download_ms");
    case Op::kStats: return metrics::histogram("net.op.stats_ms");
  }
  return metrics::histogram("net.op.unknown_ms");
}

}  // namespace

std::size_t resolve_max_request_bytes(const ServerConfig& config) {
  if (config.max_request_bytes > 0) return config.max_request_bytes;
  // Derivation: the decoder rejects any SOF past max_decode_pixels() before
  // sizing a buffer, so a servable upload cannot usefully exceed ~3 bytes
  // per admissible pixel; 1 MiB covers public parameters and codec framing.
  const std::uint64_t derived =
      static_cast<std::uint64_t>(jpeg::max_decode_pixels()) * 3 +
      (1ull << 20);
  return static_cast<std::size_t>(std::min<std::uint64_t>(
      derived, std::numeric_limits<std::uint32_t>::max()));
}

struct Server::Impl {
  explicit Impl(Server& server) : server(server) {}

  Server& server;
  std::size_t max_request_bytes = 0;

  int listen_fd = -1;
  int wake_rd = -1;
  int wake_wr = -1;

  struct PendingWrite {
    Bytes data;
    std::size_t off = 0;
    Clock::time_point enqueued;
  };
  struct Connection {
    int fd = -1;
    FrameAssembler assembler;
    std::deque<PendingWrite> writes;
    explicit Connection(std::size_t max_payload) : assembler(max_payload) {}
  };
  /// Connections keyed by a monotonic id: a response finished after its
  /// connection died must not hit a recycled fd, so completions address
  /// connections by id, never by fd.
  std::map<std::uint64_t, Connection> conns;
  std::uint64_t next_conn_id = 1;

  struct Request {
    std::uint64_t conn_id = 0;
    Op op = Op::kStats;
    std::uint64_t request_id = 0;
    Bytes payload;
    Clock::time_point arrival;
    Clock::time_point deadline;
  };
  struct Completion {
    std::uint64_t conn_id = 0;
    Bytes frame;
  };
  std::mutex completion_mu;
  std::vector<Completion> completions;

  std::unique_ptr<exec::TaskQueue> dispatcher;

  std::atomic<std::size_t> inflight{0};
  std::atomic<std::uint64_t> requests_seen{0};
  std::atomic<bool> draining{false};
  Clock::time_point drain_start;

  std::mutex shutdown_mu;
  bool shut_down = false;

  // ---- event-loop side --------------------------------------------------

  void wake() {
    const char b = 1;
    // A full pipe already guarantees a pending wakeup; EAGAIN is success.
    [[maybe_unused]] const ssize_t n = ::write(wake_wr, &b, 1);
  }

  void close_conn(std::uint64_t id) {
    auto it = conns.find(id);
    if (it == conns.end()) return;
    ::close(it->second.fd);
    conns.erase(it);
    metrics::gauge("net.connections").set(static_cast<std::int64_t>(conns.size()));
  }

  void queue_reply(Connection& c, std::uint8_t type, std::uint64_t request_id,
                   std::span<const std::uint8_t> payload) {
    PendingWrite w;
    w.data = encode_frame(type, request_id, 0, payload);
    w.enqueued = Clock::now();
    c.writes.push_back(std::move(w));
  }

  void queue_status(Connection& c, Status s, std::uint64_t request_id,
                    std::string_view message = {}) {
    const Bytes payload = message.empty() ? Bytes{} : encode_text(message);
    queue_reply(c, static_cast<std::uint8_t>(s), request_id, payload);
  }

  /// Returns false when the connection must close (write error).
  bool flush_writes(Connection& c) {
    while (!c.writes.empty()) {
      if (fault::point("net.write.fail")) {
        metrics::counter("net.fault.write").add();
        return false;
      }
      PendingWrite& w = c.writes.front();
      std::size_t cap = w.data.size() - w.off;
      if (fault::point("net.write.short")) cap = 1;  // partial-write stress
      // MSG_NOSIGNAL: a peer that vanished mid-response must surface as
      // EPIPE on this connection, not SIGPIPE for the process.
      const ssize_t n =
          ::send(c.fd, w.data.data() + w.off, cap, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return true;  // POLLOUT
        if (errno == EINTR) continue;
        return false;
      }
      w.off += static_cast<std::size_t>(n);
      if (w.off == w.data.size()) {
        metrics::histogram("net.write_flush_ms").observe(ms_since(w.enqueued));
        c.writes.pop_front();
      } else if (static_cast<std::size_t>(n) < cap) {
        return true;  // kernel buffer full; resume on POLLOUT
      }
    }
    return true;
  }

  void admit_frame(std::uint64_t conn_id, Connection& c, Frame&& f) {
    requests_seen.fetch_add(1, std::memory_order_relaxed);
    metrics::counter("net.requests").add();
    const std::uint64_t rid = f.header.request_id;
    if (f.oversized) {
      metrics::counter("net.too_large").add();
      queue_status(c, Status::kTooLarge, rid,
                   "payload of " + std::to_string(f.header.payload_len) +
                       " bytes exceeds the request cap of " +
                       std::to_string(max_request_bytes) +
                       " bytes (--max-request-bytes)");
      return;
    }
    const std::uint8_t t = f.header.type;
    if (t != static_cast<std::uint8_t>(Op::kUpload) &&
        t != static_cast<std::uint8_t>(Op::kApply) &&
        t != static_cast<std::uint8_t>(Op::kDownload) &&
        t != static_cast<std::uint8_t>(Op::kStats)) {
      metrics::counter("net.bad_request").add();
      queue_status(c, Status::kBadRequest, rid,
                   "unknown request op " + std::to_string(t));
      return;
    }
    // Admission control: the refusal is immediate and cheap — the payload
    // buffer is dropped right here, so saturation never accumulates memory.
    std::size_t current = inflight.load(std::memory_order_relaxed);
    const std::size_t cap =
        static_cast<std::size_t>(server.config_.max_inflight);
    if (current >= cap) {
      metrics::counter("net.busy").add();
      queue_status(c, Status::kBusy, rid);
      return;
    }
    inflight.fetch_add(1, std::memory_order_relaxed);
    metrics::gauge("net.inflight")
        .set(static_cast<std::int64_t>(inflight.load(std::memory_order_relaxed)));

    auto req = std::make_shared<Request>();
    req->conn_id = conn_id;
    req->op = static_cast<Op>(t);
    req->request_id = rid;
    req->payload = std::move(f.payload);
    req->arrival = Clock::now();
    const std::uint32_t budget_ms =
        f.header.deadline_ms
            ? f.header.deadline_ms
            : static_cast<std::uint32_t>(server.config_.deadline_ms);
    req->deadline = req->arrival + std::chrono::milliseconds(budget_ms);
    if (!dispatcher->try_submit([this, req] { execute(*req); })) {
      // The queue capacity matches max_inflight, so this only races a
      // concurrent drain; it is still a BUSY, not a drop.
      inflight.fetch_sub(1, std::memory_order_relaxed);
      metrics::counter("net.busy").add();
      queue_status(c, Status::kBusy, rid);
    }
  }

  /// Reads everything available; returns false when the connection must
  /// close (EOF, error, injected fault, or garbage framing).
  bool read_conn(std::uint64_t conn_id, Connection& c) {
    std::uint8_t buf[64 * 1024];
    for (;;) {
      if (fault::point("net.read.fail")) {
        metrics::counter("net.fault.read").add();
        return false;
      }
      std::size_t cap = sizeof(buf);
      if (fault::point("net.read.short")) cap = 1;  // reassembly stress
      const ssize_t n = ::read(c.fd, buf, cap);
      if (n == 0) return false;  // peer closed
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
        if (errno == EINTR) continue;
        return false;
      }
      try {
        c.assembler.feed({buf, static_cast<std::size_t>(n)});
      } catch (const ProtocolError&) {
        metrics::counter("net.protocol_error").add();
        return false;
      }
      while (auto f = c.assembler.take())
        admit_frame(conn_id, c, std::move(*f));
      if (static_cast<std::size_t>(n) < cap) return true;  // drained socket
    }
  }

  void accept_ready() {
    for (;;) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        return;  // EAGAIN or a transient accept error: try again on POLLIN
      }
      if (fault::point("net.accept")) {
        metrics::counter("net.fault.accept").add();
        ::close(fd);
        continue;
      }
      if (conns.size() >=
          static_cast<std::size_t>(server.config_.max_connections)) {
        metrics::counter("net.conn_refused").add();
        ::close(fd);
        continue;
      }
      set_nonblocking(fd);
      metrics::counter("net.conn_accepted").add();
      conns.emplace(next_conn_id++, Connection(max_request_bytes))
          .first->second.fd = fd;
      metrics::gauge("net.connections")
          .set(static_cast<std::int64_t>(conns.size()));
    }
  }

  void drain_completions() {
    std::vector<Completion> batch;
    {
      std::lock_guard lock(completion_mu);
      batch.swap(completions);
    }
    for (Completion& done : batch) {
      auto it = conns.find(done.conn_id);
      if (it == conns.end()) {
        metrics::counter("net.orphan_response").add();
        continue;
      }
      PendingWrite w;
      w.data = std::move(done.frame);
      w.enqueued = Clock::now();
      it->second.writes.push_back(std::move(w));
    }
  }

  void event_loop() {
    std::vector<pollfd> fds;
    std::vector<std::uint64_t> ids;  // ids[i] maps fds[i] to a connection
    for (;;) {
      const bool drain = draining.load(std::memory_order_acquire);
      fds.clear();
      ids.clear();
      fds.push_back({wake_rd, POLLIN, 0});
      ids.push_back(0);
      if (!drain && listen_fd >= 0) {
        fds.push_back({listen_fd, POLLIN, 0});
        ids.push_back(0);
      }
      for (auto& [id, c] : conns) {
        short events = 0;
        // During drain no new request bytes are read: admitted work
        // finishes, half-received frames never complete.
        if (!drain) events |= POLLIN;
        if (!c.writes.empty()) events |= POLLOUT;
        fds.push_back({c.fd, events, 0});
        ids.push_back(id);
      }
      ::poll(fds.data(), fds.size(), drain ? 20 : 250);

      if (fds[0].revents & POLLIN) {  // wake pipe: drain it
        std::uint8_t sink[256];
        while (::read(wake_rd, sink, sizeof(sink)) > 0) {
        }
      }
      drain_completions();

      std::vector<std::uint64_t> dead;
      for (std::size_t i = 1; i < fds.size(); ++i) {
        if (ids[i] == 0) {
          if (fds[i].revents & POLLIN) accept_ready();
          continue;
        }
        auto it = conns.find(ids[i]);
        if (it == conns.end()) continue;
        Connection& c = it->second;
        bool alive = true;
        if (fds[i].revents & (POLLERR | POLLNVAL))
          alive = false;
        if (alive && (fds[i].revents & POLLIN)) alive = read_conn(ids[i], c);
        // POLLHUP with readable data still delivers the data above; a
        // hangup only kills the connection once nothing is left to write.
        if (alive && (fds[i].revents & POLLHUP) && c.writes.empty())
          alive = false;
        if (alive && !c.writes.empty()) alive = flush_writes(c);
        if (!alive) dead.push_back(ids[i]);
      }
      for (const std::uint64_t id : dead) close_conn(id);

      if (drain) {
        bool flushed = inflight.load(std::memory_order_acquire) == 0;
        if (flushed) {
          std::lock_guard lock(completion_mu);
          flushed = completions.empty();
        }
        if (flushed)
          for (auto& [id, c] : conns)
            if (!c.writes.empty()) {
              flushed = false;
              break;
            }
        if (flushed || ms_since(drain_start) >
                           static_cast<double>(server.config_.drain_ms)) {
          if (!flushed) metrics::counter("net.drain_timeout").add();
          break;
        }
      }
    }
    for (auto& [id, c] : conns) ::close(c.fd);
    conns.clear();
    metrics::gauge("net.connections").set(0);
  }

  // ---- dispatcher side --------------------------------------------------

  void complete(std::uint64_t conn_id, Bytes frame) {
    {
      std::lock_guard lock(completion_mu);
      completions.push_back(Completion{conn_id, std::move(frame)});
    }
    // Decrement strictly after the completion is visible: the drain exit
    // check tests inflight first, completions second, so the response can
    // never fall between the two.
    inflight.fetch_sub(1, std::memory_order_release);
    metrics::gauge("net.inflight")
        .set(static_cast<std::int64_t>(inflight.load(std::memory_order_relaxed)));
    wake();
  }

  void execute(Request& req) {
    Status status = Status::kOk;
    Bytes payload;
    if (Clock::now() > req.deadline) {
      metrics::counter("net.deadline_expired").add();
      status = Status::kDeadlineExceeded;
    } else if (fault::point("net.dispatch")) {
      metrics::counter("net.fault.dispatch").add();
      status = Status::kError;
      payload = encode_text("injected: net.dispatch");
    } else {
      if (fault::point("net.dispatch.stall"))
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      try {
        payload = run_op(req);
      } catch (const InvalidArgument& e) {
        status = Status::kBadRequest;
        payload = encode_text(e.what());
      } catch (const ParseError& e) {
        status = Status::kBadRequest;
        payload = encode_text(e.what());
      } catch (const std::exception& e) {
        status = Status::kError;
        payload = encode_text(e.what());
      }
      if (status != Status::kOk) metrics::counter("net.op_failed").add();
    }
    op_histogram(req.op).observe(ms_since(req.arrival));
    complete(req.conn_id,
             encode_frame(static_cast<std::uint8_t>(status), req.request_id,
                          0, payload));
  }

  Bytes run_op(const Request& req) {
    psp::PspService& psp = *server.service_;
    switch (req.op) {
      case Op::kUpload: {
        const UploadRequest u = parse_upload(req.payload);
        return encode_text(psp.upload(u.jfif, u.public_params));
      }
      case Op::kApply: {
        const ApplyRequest a = parse_apply(req.payload);
        psp.apply_transform(a.id, a.chain, a.mode, a.quality);
        return {};
      }
      case Op::kDownload: {
        const DownloadRequest d = parse_download(req.payload);
        return encode_download_reply(psp.download(d.id));
      }
      case Op::kStats:
        return encode_text(metrics::dump_json());
    }
    throw InvalidArgument("unknown op");  // unreachable: admission filtered
  }
};

Server::Server(const ServerConfig& config)
    : config_(config),
      service_(std::make_unique<psp::PspService>(config.psp)),
      impl_(std::make_unique<Impl>(*this)) {}

Server::~Server() { shutdown(); }

void Server::start() {
  require(!running_.load(std::memory_order_acquire), "server already started");
  impl_->max_request_bytes = resolve_max_request_bytes(config_);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw TransientError("socket: " + std::string(strerror(errno)));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw InvalidArgument("bad host (IPv4 dotted quad expected): " +
                          config_.host);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 128) < 0) {
    const std::string err = strerror(errno);
    ::close(fd);
    throw TransientError("bind/listen on " + config_.host + ":" +
                         std::to_string(config_.port) + ": " + err);
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  set_nonblocking(fd);
  impl_->listen_fd = fd;

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    ::close(fd);
    impl_->listen_fd = -1;
    throw TransientError("pipe: " + std::string(strerror(errno)));
  }
  set_nonblocking(pipe_fds[0]);
  set_nonblocking(pipe_fds[1]);
  impl_->wake_rd = pipe_fds[0];
  impl_->wake_wr = pipe_fds[1];

  const int threads =
      config_.threads > 0 ? config_.threads : exec::thread_count();
  impl_->dispatcher = std::make_unique<exec::TaskQueue>(
      threads, static_cast<std::size_t>(config_.max_inflight));
  metrics::gauge("net.dispatch_threads").set(threads);

  running_.store(true, std::memory_order_release);
  loop_ = std::thread([this] { impl_->event_loop(); });
}

void Server::shutdown() {
  {
    std::lock_guard lock(impl_->shutdown_mu);
    if (impl_->shut_down) return;
    impl_->shut_down = true;
  }
  if (!running_.load(std::memory_order_acquire)) return;
  impl_->drain_start = Clock::now();
  impl_->draining.store(true, std::memory_order_release);
  impl_->wake();
  // Run every admitted request to completion; completions stream to the
  // (still running) event loop, which keeps flushing response bytes.
  impl_->dispatcher->drain();
  loop_.join();
  running_.store(false, std::memory_order_release);
  if (impl_->listen_fd >= 0) ::close(impl_->listen_fd);
  if (impl_->wake_rd >= 0) ::close(impl_->wake_rd);
  if (impl_->wake_wr >= 0) ::close(impl_->wake_wr);
  impl_->listen_fd = impl_->wake_rd = impl_->wake_wr = -1;
}

std::size_t Server::inflight() const {
  return impl_->inflight.load(std::memory_order_acquire);
}

std::uint64_t Server::requests_seen() const {
  return impl_->requests_seen.load(std::memory_order_acquire);
}

}  // namespace puppies::net
