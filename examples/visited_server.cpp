// Distributed-swarm state server (DESIGN.md §7.3).
//
// Hosts the shared visited store — and optionally the work-stealing
// frontier — for swarm workers running in other processes or on other
// hosts. Workers connect with --visited-server/--frontier-server (see
// swarm_explore) and speak the length-prefixed frame protocol; the
// digests land in one process-wide ShardedVisitedTable, so discovery
// credit is arbitrated across every connected worker.
//
//   ./visited_server [--listen host:port|unix:/path] [--frontier]
//                    [--workers N] [--shards N]
//
// The server is an epoll reactor (DESIGN.md §7.9): one event-loop
// thread — or N with --shards — owns every connection, and frontier
// steal-waits park on a timer instead of a thread.
//
// Prints the bound endpoint (useful with port 0) and serves until
// SIGINT/SIGTERM.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <chrono>
#include <thread>

#include "mc/frontier.h"
#include "mc/sharded_table.h"
#include "net/frontier_service.h"
#include "net/server.h"
#include "net/visited_service.h"

namespace {
volatile std::sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }
}  // namespace

int main(int argc, char** argv) {
  using namespace mcfs;

  const char* listen = "127.0.0.1:9090";
  bool serve_frontier = false;
  int workers = 16;
  net::ServerOptions server_options;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--listen") == 0 && i + 1 < argc) {
      listen = argv[++i];
    } else if (std::strcmp(argv[i], "--frontier") == 0) {
      serve_frontier = true;
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      workers = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      server_options.reactor_shards = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--listen host:port|unix:/path] [--frontier] "
                   "[--workers N] [--shards N]\n",
                   argv[0]);
      return 2;
    }
  }

  auto endpoint = net::ParseEndpoint(listen);
  if (!endpoint.ok()) {
    std::fprintf(stderr, "bad --listen endpoint '%s'\n", listen);
    return 2;
  }

  mc::ShardedVisitedTable table;
  net::VisitedService visited(&table);
  // The frontier needs an upper bound on concurrently-busy workers for
  // termination detection; remote worker slots are cheap, so size it
  // generously via --workers.
  mc::SharedFrontier frontier(workers > 0 ? workers : 16);
  net::FrontierService frontier_service(&frontier);

  std::vector<net::FrameService*> services{&visited};
  if (serve_frontier) services.push_back(&frontier_service);
  net::FrameServer server(services, server_options);
  auto started = server.Start(endpoint.value());
  if (!started.ok()) {
    std::fprintf(stderr, "failed to bind %s: %s\n",
                 endpoint.value().ToString().c_str(),
                 std::string(ErrnoName(started.error())).c_str());
    return 1;
  }

  std::printf("visited server listening on %s%s (reactor, %d thread%s)\n",
              server.endpoint().ToString().c_str(),
              serve_frontier ? " (frontier enabled)" : "",
              server.serving_threads(),
              server.serving_threads() == 1 ? "" : "s");
  std::fflush(stdout);

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }

  server.Stop();
  std::printf("shutting down: %llu states stored, %llu connections served\n",
              static_cast<unsigned long long>(table.size()),
              static_cast<unsigned long long>(server.connections_accepted()));
  return 0;
}
