// FrameServer: accepts connections and dispatches decoded frames to
// registered services.
//
// Threading model (DESIGN.md §7.9): the default is an epoll *reactor* —
// one event loop thread (optionally N shards, connections round-robin)
// owning every connection: non-blocking sockets, per-connection
// incremental decode (FrameDecoder), and buffered writes with
// backpressure. A service may answer a request immediately or *defer*
// it: Handle's async form receives a ReplyToken whose Complete() can be
// called later from any thread — that is how FrontierService parks a
// StealWait on a timer instead of sleeping a per-connection thread, so
// 64 parked remote workers cost zero threads instead of 64.
//
// (A thread-per-connection model served as the connection-scaling
// baseline until the reactor's 1.42x lead at 64 clients was recorded in
// BENCH_net.json; it is gone.)
//
// Requests on one connection are handled strictly in arrival order and
// answered in that order — even when an earlier request's reply is
// deferred and a later one completes first, the later reply waits in
// its FIFO slot. This is the discipline RpcClient's pipelining relies
// on instead of request IDs.
//
// Lifecycle: Stop() (idempotent, also run by the destructor) closes the
// listener, severs every live connection, joins all threads, and fires
// FrameService::OnDisconnect for each connection so services can
// reclaim per-connection state (the frontier service cancels parked
// waits and retires leaked busy counts there).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "net/frame.h"
#include "net/socket.h"

namespace mcfs::net {

namespace internal {
struct ReactorShard;
}  // namespace internal

// One-shot completion handle for a deferred reply. Thread-safe:
// Complete() may run on any thread (a reactor tick, another shard's
// dispatch, a service's own worker); the reply is routed back to the
// owning reactor shard, which encodes it into the connection's FIFO
// slot. Completing after the connection (or server) is gone is a safe
// no-op. A token dropped without Complete() answers kEIO, so an
// abandoned request can never wedge the connection's reply pipeline.
class ReplyToken {
 public:
  ReplyToken(std::weak_ptr<internal::ReactorShard> shard,
             std::uint64_t conn_id, std::uint64_t slot);
  ~ReplyToken();

  ReplyToken(const ReplyToken&) = delete;
  ReplyToken& operator=(const ReplyToken&) = delete;

  // Delivers the reply (or an error that becomes a kError frame).
  // First call wins; later calls are ignored.
  void Complete(Result<Frame> reply);

  std::uint64_t conn_id() const { return conn_id_; }

 private:
  std::weak_ptr<internal::ReactorShard> shard_;
  const std::uint64_t conn_id_;
  const std::uint64_t slot_;
  std::atomic<bool> completed_{false};
};

using ReplyTokenPtr = std::shared_ptr<ReplyToken>;

class FrameService {
 public:
  virtual ~FrameService() = default;

  // True if this service owns `type`. Exactly one registered service
  // should claim each request type.
  virtual bool Handles(FrameType type) const = 0;

  // Synchronous form: handles one request and returns the reply frame
  // (type must be request|kReplyBit; flags per the service's
  // protocol). An error Result becomes a kError reply. `conn_id`
  // identifies the connection for per-connection state; ids are never
  // reused within one server. Used by the default HandleAsync adapter
  // below.
  virtual Result<Frame> Handle(const Frame& request, std::uint64_t conn_id) = 0;

  // Reactor form: must eventually call token->Complete(...) — either
  // inline (the common case) or later, from any thread, for requests
  // that legitimately wait (deferred replies). The default adapter
  // completes synchronously via Handle.
  virtual void HandleAsync(const Frame& request, std::uint64_t conn_id,
                           ReplyTokenPtr token) {
    token->Complete(Handle(request, conn_id));
  }

  // The connection closed (cleanly or not). Called exactly once per
  // accepted connection; services drop per-connection state and cancel
  // any deferred replies still parked for it.
  virtual void OnDisconnect(std::uint64_t conn_id) { (void)conn_id; }

  // Reactor heartbeat, called from each shard's loop roughly every
  // ServerOptions::tick_ms while the server runs. Services with parked
  // deferred replies poll their timers here.
  virtual void OnTick() {}
};

struct ServerOptions {
  // Reactor event-loop threads. Connections are assigned round-robin.
  // 1 shard serves tens of connections comfortably (the services'
  // shared structures are the scaling limit before the loop is).
  int reactor_shards = 1;

  // Backpressure: once a connection's unsent reply bytes exceed this,
  // the reactor stops *reading* from it (level-triggered EPOLLIN is
  // dropped) until the backlog drains below half. A peer that stops
  // draining its socket throttles only itself; it cannot balloon the
  // server. Crossing this threshold never reorders or drops replies.
  std::size_t max_write_buffer = 8u << 20;

  // Reactor tick cadence for service timers (parked steal-waits).
  int tick_ms = 5;
};

class FrameServer {
 public:
  // Services are borrowed, not owned; they must outlive the server.
  explicit FrameServer(std::vector<FrameService*> services,
                       ServerOptions options = {});
  ~FrameServer();

  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  // Binds and starts serving. `listen` may use port 0; the resolved
  // endpoint is available from endpoint() afterwards.
  Status Start(const Endpoint& listen);

  const Endpoint& endpoint() const { return endpoint_; }

  // Stops accepting, severs every connection, joins all threads.
  // Idempotent; safe to call while requests are in flight (workers see
  // their RPCs fail and degrade — the ISSUE's server-kill scenario).
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  // Total connections ever accepted (tests).
  std::uint64_t connections_accepted() const {
    return accepted_.load(std::memory_order_relaxed);
  }

  // Threads currently serving traffic: the reactor shards. The
  // connection-scaling requirement — 64 connections from <= 2 server
  // threads — is asserted against this.
  int serving_threads() const;

  const ServerOptions& options() const { return options_; }

 private:
  friend struct internal::ReactorShard;  // accept path + conn-id counter

  std::vector<FrameService*> services_;
  const ServerOptions options_;
  Listener listener_;
  Endpoint endpoint_;

  // Lifecycle flags. Atomic: running() and the accept/reactor loops
  // read them from other threads than Stop()'s caller (this was a data
  // race as plain bools; net_reactor_test pins the fix under TSan).
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> accepted_{0};

  std::vector<std::shared_ptr<internal::ReactorShard>> shards_;
  std::atomic<std::uint64_t> next_conn_id_{1};
};

}  // namespace mcfs::net
