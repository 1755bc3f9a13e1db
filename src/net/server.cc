#include "net/server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <deque>
#include <unordered_map>

#include "net/wire.h"
#include "util/log.h"

namespace mcfs::net {

namespace {
// Read chunk per connection per readiness event.
constexpr std::size_t kReadChunk = 64 * 1024;

// epoll_event user-data sentinels for the shard's own fds; connection
// ids start at 1 and never reach these.
constexpr std::uint64_t kWakeData = ~std::uint64_t{0};
constexpr std::uint64_t kListenData = ~std::uint64_t{0} - 1;

Bytes EncodeReply(const Result<Frame>& reply) {
  if (reply.ok()) {
    return EncodeFrame(reply.value().type, reply.value().flags,
                       reply.value().payload);
  }
  return EncodeFrame(FrameType::kError, 0, EncodeError(reply.error()));
}
}  // namespace

namespace internal {

// One FIFO reply slot: requests enter in arrival order; the slot holds
// the (possibly later-arriving) reply until every earlier slot has been
// encoded, so deferred completion can never reorder a connection's
// replies.
struct PendingReply {
  std::uint64_t slot = 0;
  bool done = false;
  Result<Frame> reply = Errno::kEIO;
};

struct Conn {
  std::uint64_t id = 0;
  Socket socket;
  FrameDecoder decoder;
  std::deque<PendingReply> pending;
  std::uint64_t next_slot = 1;
  Bytes outbuf;              // encoded replies not yet accepted by the kernel
  std::size_t out_off = 0;   // consumed prefix of outbuf
  std::uint32_t events = 0;  // epoll interest currently registered
  bool read_paused = false;  // backpressure: EPOLLIN dropped
  bool draining = false;     // poisoned stream: close once replies flush
};

// A completed deferred reply in flight back to its owning shard.
struct Completion {
  std::uint64_t conn_id = 0;
  std::uint64_t slot = 0;
  Result<Frame> reply = Errno::kEIO;
};

struct ReactorShard : std::enable_shared_from_this<ReactorShard> {
  FrameServer* server = nullptr;
  std::vector<FrameService*> services;
  ServerOptions options;
  bool owns_listener = false;  // shard 0 runs the accept path

  int epfd = -1;
  int wakefd = -1;
  std::thread thread;
  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns;

  std::mutex mu;  // guards the cross-thread inboxes below
  std::vector<Completion> completions;
  std::vector<std::pair<std::uint64_t, Socket>> incoming;
  bool stop_requested = false;

  ~ReactorShard() {
    if (epfd >= 0) ::close(epfd);
    if (wakefd >= 0) ::close(wakefd);
  }

  Status Init() {
    epfd = ::epoll_create1(0);
    if (epfd < 0) return Errno::kEIO;
    wakefd = ::eventfd(0, EFD_NONBLOCK);
    if (wakefd < 0) return Errno::kEIO;
    struct epoll_event ev = {};
    ev.events = EPOLLIN;
    ev.data.u64 = kWakeData;
    if (::epoll_ctl(epfd, EPOLL_CTL_ADD, wakefd, &ev) < 0) return Errno::kEIO;
    return Status::Ok();
  }

  void Wake() {
    const std::uint64_t one = 1;
    (void)!::write(wakefd, &one, sizeof(one));
  }

  void EnqueueCompletion(Completion completion) {
    {
      std::lock_guard<std::mutex> lock(mu);
      completions.push_back(std::move(completion));
    }
    Wake();
  }

  void AssignConn(std::uint64_t conn_id, Socket socket) {
    {
      std::lock_guard<std::mutex> lock(mu);
      incoming.emplace_back(conn_id, std::move(socket));
    }
    Wake();
  }

  void RequestStop() {
    {
      std::lock_guard<std::mutex> lock(mu);
      stop_requested = true;
    }
    Wake();
  }

  void Loop();

 private:
  void UpdateInterest(Conn& conn) {
    std::uint32_t want = 0;
    if (!conn.read_paused && !conn.draining) want |= EPOLLIN;
    if (conn.out_off < conn.outbuf.size()) want |= EPOLLOUT;
    if (want == conn.events) return;
    struct epoll_event ev = {};
    ev.events = want;
    ev.data.u64 = conn.id;
    (void)::epoll_ctl(epfd, EPOLL_CTL_MOD, conn.socket.fd(), &ev);
    conn.events = want;
  }

  void RegisterConn(std::uint64_t conn_id, Socket socket) {
    auto conn = std::make_unique<Conn>();
    conn->id = conn_id;
    conn->socket = std::move(socket);
    struct epoll_event ev = {};
    ev.events = EPOLLIN;
    ev.data.u64 = conn_id;
    if (::epoll_ctl(epfd, EPOLL_CTL_ADD, conn->socket.fd(), &ev) < 0) {
      for (FrameService* s : services) s->OnDisconnect(conn_id);
      return;
    }
    conn->events = EPOLLIN;
    conns.emplace(conn_id, std::move(conn));
  }

  // Removes the connection and fires OnDisconnect. Erase-before-notify:
  // a service completing parked tokens from OnDisconnect must find the
  // connection gone so those completions drop instead of reviving it.
  void CloseConn(std::uint64_t conn_id) {
    auto it = conns.find(conn_id);
    if (it == conns.end()) return;
    std::unique_ptr<Conn> conn = std::move(it->second);
    conns.erase(it);
    (void)::epoll_ctl(epfd, EPOLL_CTL_DEL, conn->socket.fd(), nullptr);
    for (FrameService* s : services) s->OnDisconnect(conn_id);
  }

  // Encodes every completed head slot, pushes bytes to the kernel, and
  // recomputes interest + backpressure. Returns false if the peer died.
  bool Flush(Conn& conn) {
    while (!conn.pending.empty() && conn.pending.front().done) {
      const Bytes bytes = EncodeReply(conn.pending.front().reply);
      conn.outbuf.insert(conn.outbuf.end(), bytes.begin(), bytes.end());
      conn.pending.pop_front();
    }
    if (conn.out_off < conn.outbuf.size()) {
      auto sent = conn.socket.SendSome(
          ByteView(conn.outbuf.data() + conn.out_off,
                   conn.outbuf.size() - conn.out_off));
      if (!sent.ok()) return false;
      conn.out_off += sent.value();
      if (conn.out_off == conn.outbuf.size()) {
        conn.outbuf.clear();
        conn.out_off = 0;
      } else if (conn.out_off > kReadChunk) {
        // Compact occasionally so a slow-draining peer's buffer does
        // not keep its consumed prefix alive forever.
        conn.outbuf.erase(conn.outbuf.begin(),
                          conn.outbuf.begin() +
                              static_cast<std::ptrdiff_t>(conn.out_off));
        conn.out_off = 0;
      }
    }
    const std::size_t backlog = conn.outbuf.size() - conn.out_off;
    if (!conn.read_paused && backlog > options.max_write_buffer) {
      conn.read_paused = true;
    } else if (conn.read_paused && backlog < options.max_write_buffer / 2) {
      conn.read_paused = false;
    }
    if (conn.draining && conn.pending.empty() && backlog == 0) {
      return false;  // poisoned stream fully answered: drop it
    }
    UpdateInterest(conn);
    return true;
  }

  void Dispatch(Conn& conn, const Frame& request) {
    FrameService* service = nullptr;
    for (FrameService* s : services) {
      if (s->Handles(request.type)) {
        service = s;
        break;
      }
    }
    PendingReply slot;
    slot.slot = conn.next_slot++;
    if (service == nullptr) {
      slot.done = true;
      slot.reply = Errno::kENOTSUP;
      conn.pending.push_back(std::move(slot));
      return;
    }
    conn.pending.push_back(std::move(slot));
    auto token = std::make_shared<ReplyToken>(weak_from_this(), conn.id,
                                              conn.next_slot - 1);
    service->HandleAsync(request, conn.id, std::move(token));
  }

  // Reads once, decodes every complete frame, dispatches them. Returns
  // false when the connection should close now.
  bool Read(Conn& conn) {
    std::uint8_t buf[kReadChunk];
    auto n = conn.socket.RecvSome(buf, sizeof(buf), /*timeout_ms=*/0);
    if (!n.ok()) return n.error() == Errno::kEAGAIN;
    if (n.value() == 0) return false;  // orderly EOF
    conn.decoder.Feed(ByteView(buf, n.value()));
    for (;;) {
      auto next = conn.decoder.Next();
      if (!next.ok()) {
        // Corrupt stream (bad magic / oversized length): answer every
        // already-decoded request, then one kError, then drop — there
        // is no way to resynchronize.
        PendingReply poison;
        poison.slot = conn.next_slot++;
        poison.done = true;
        poison.reply = next.error();
        conn.pending.push_back(std::move(poison));
        conn.draining = true;
        return true;
      }
      if (!next.value().has_value()) return true;  // need more bytes
      Dispatch(conn, *next.value());
    }
  }

  void HandleConnEvent(std::uint64_t conn_id, std::uint32_t events) {
    auto it = conns.find(conn_id);
    if (it == conns.end()) return;  // closed earlier in this batch
    Conn& conn = *it->second;
    if ((events & (EPOLLERR | EPOLLHUP)) != 0 && (events & EPOLLIN) == 0) {
      CloseConn(conn_id);
      return;
    }
    if ((events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0) {
      if (!Read(conn)) {
        CloseConn(conn_id);
        return;
      }
    }
    if (!Flush(conn)) CloseConn(conn_id);
  }

  void ApplyCompletion(Completion&& completion) {
    auto it = conns.find(completion.conn_id);
    if (it == conns.end()) return;  // connection died while deferred
    Conn& conn = *it->second;
    for (PendingReply& slot : conn.pending) {
      if (slot.slot == completion.slot) {
        if (!slot.done) {
          slot.done = true;
          slot.reply = std::move(completion.reply);
        }
        break;
      }
    }
    if (!Flush(conn)) CloseConn(completion.conn_id);
  }

  // Drains the cross-thread inboxes. Returns false once stop was
  // requested.
  bool DrainInbox() {
    std::uint64_t counter = 0;
    (void)!::read(wakefd, &counter, sizeof(counter));
    std::vector<Completion> ready;
    std::vector<std::pair<std::uint64_t, Socket>> fresh;
    bool stop = false;
    {
      std::lock_guard<std::mutex> lock(mu);
      ready.swap(completions);
      fresh.swap(incoming);
      stop = stop_requested;
    }
    for (auto& [conn_id, socket] : fresh) {
      RegisterConn(conn_id, std::move(socket));
    }
    for (Completion& completion : ready) {
      ApplyCompletion(std::move(completion));
    }
    return !stop;
  }

  void Accept();
};

void ReactorShard::Accept() {
  for (;;) {
    auto conn = server->listener_.Accept(/*timeout_ms=*/0);
    if (!conn.ok()) return;  // kEAGAIN (drained) or listener closed
    const std::uint64_t conn_id =
        server->next_conn_id_.fetch_add(1, std::memory_order_relaxed);
    server->accepted_.fetch_add(1, std::memory_order_relaxed);
    auto& shards = server->shards_;
    ReactorShard* target =
        shards[static_cast<std::size_t>(conn_id) % shards.size()].get();
    if (target == this) {
      RegisterConn(conn_id, std::move(conn.value()));
    } else {
      target->AssignConn(conn_id, std::move(conn.value()));
    }
  }
}

void ReactorShard::Loop() {
  using Clock = std::chrono::steady_clock;
  if (owns_listener) {
    struct epoll_event ev = {};
    ev.events = EPOLLIN;
    ev.data.u64 = kListenData;
    (void)::epoll_ctl(epfd, EPOLL_CTL_ADD, server->listener_.fd(), &ev);
  }
  auto last_tick = Clock::now();
  std::vector<struct epoll_event> events(64);
  for (;;) {
    if (!DrainInbox()) break;
    const auto now = Clock::now();
    if (now - last_tick >= std::chrono::milliseconds(options.tick_ms)) {
      last_tick = now;
      for (FrameService* s : services) s->OnTick();
    }
    const int n = ::epoll_wait(epfd, events.data(),
                               static_cast<int>(events.size()),
                               options.tick_ms);
    if (n < 0 && errno != EINTR) break;
    for (int i = 0; i < std::max(n, 0); ++i) {
      const std::uint64_t data = events[static_cast<std::size_t>(i)].data.u64;
      const std::uint32_t mask = events[static_cast<std::size_t>(i)].events;
      if (data == kWakeData) continue;  // drained at loop top
      if (data == kListenData) {
        Accept();
        continue;
      }
      HandleConnEvent(data, mask);
    }
  }
  // Teardown: close every connection with full OnDisconnect semantics.
  while (!conns.empty()) CloseConn(conns.begin()->first);
}

}  // namespace internal

ReplyToken::ReplyToken(std::weak_ptr<internal::ReactorShard> shard,
                       std::uint64_t conn_id, std::uint64_t slot)
    : shard_(std::move(shard)), conn_id_(conn_id), slot_(slot) {}

ReplyToken::~ReplyToken() {
  if (!completed_.load(std::memory_order_acquire)) {
    // A dropped request must still answer, or the FIFO pipeline behind
    // it wedges forever.
    Complete(Errno::kEIO);
  }
}

void ReplyToken::Complete(Result<Frame> reply) {
  if (completed_.exchange(true, std::memory_order_acq_rel)) return;
  auto shard = shard_.lock();
  if (!shard) return;  // server already gone; nobody to answer
  internal::Completion completion;
  completion.conn_id = conn_id_;
  completion.slot = slot_;
  completion.reply = std::move(reply);
  shard->EnqueueCompletion(std::move(completion));
}

FrameServer::FrameServer(std::vector<FrameService*> services,
                         ServerOptions options)
    : services_(std::move(services)), options_(options) {}

FrameServer::~FrameServer() { Stop(); }

Status FrameServer::Start(const Endpoint& listen) {
  auto bound = Listener::Bind(listen);
  if (!bound.ok()) return bound.error();
  listener_ = std::move(bound.value());
  endpoint_ = listener_.endpoint();
  stopping_.store(false, std::memory_order_release);

  const int shard_count = std::max(1, options_.reactor_shards);
  shards_.reserve(static_cast<std::size_t>(shard_count));
  for (int i = 0; i < shard_count; ++i) {
    auto shard = std::make_shared<internal::ReactorShard>();
    shard->server = this;
    shard->services = services_;
    shard->options = options_;
    shard->owns_listener = (i == 0);
    if (Status init = shard->Init(); !init.ok()) {
      shards_.clear();
      listener_.Close();
      return init;
    }
    shards_.push_back(std::move(shard));
  }
  for (auto& shard : shards_) {
    shard->thread = std::thread([s = shard.get()] { s->Loop(); });
  }
  running_.store(true, std::memory_order_release);
  return Status::Ok();
}

void FrameServer::Stop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) {
    // Second caller: threads are joined (or being joined) by the first;
    // nothing left to do.
    return;
  }
  for (auto& shard : shards_) shard->RequestStop();
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
  shards_.clear();  // late ReplyToken completions now no-op
  // Close only after the shards are joined: shard 0 keeps the listen fd
  // registered in its epoll set, and closing an fd another thread is
  // polling is a race (the fd number can be reused mid-epoll_ctl). The
  // reactor wakes via its eventfd, so it never needed the close to stop.
  listener_.Close();
  running_.store(false, std::memory_order_release);
}

int FrameServer::serving_threads() const {
  if (!running()) return 0;
  return static_cast<int>(shards_.size());
}

}  // namespace mcfs::net
