// optrules_served: the resident mining service daemon.
//
// Listens on a Unix-domain socket (--socket=<path>) or a loopback TCP
// port (--port=<n>, 0 = ephemeral) and serves the serve-layer protocol:
// clients open mining sessions against partitioned tables on this
// machine, and sessions that need a counting scan and arrive within the
// coalescing window against the same table generation + options share
// ONE counting scan. A session the resident engine answers from channels
// it already counts skips the window and runs at once. Prints
//   LISTENING <address>
// once the socket is bound (what tests and the load harness parse), then
// runs until SIGTERM or SIGINT, which triggers the graceful path: stop
// accepting, drain queued sessions under --drain-ms, unblock every
// connection, release the engines. Exit code 0 on a clean drain.
// SIGUSR1 (unless --metrics-dump-on=none) dumps the process metrics
// registry to stderr in the text format and keeps serving.
//
//   optrules_served --socket=/tmp/optrules.sock --window-ms=25
//   optrules_served --port=0 --max-sessions=64
//   kill -USR1 <pid>   # print every counter/gauge/histogram to stderr

#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

#include "common/env.h"
#include "obs/metrics.h"
#include "serve/server.h"

namespace {

/// Strict non-negative integer flag value; exits with usage on garbage
/// (a daemon must not start with half-parsed limits).
uint64_t FlagValue(const char* flag, const char* text) {
  const auto parsed = optrules::env::ParseNonNegativeInt(text);
  if (!parsed.has_value()) {
    std::fprintf(stderr, "optrules_served: %s wants a non-negative integer, got \"%s\"\n",
                 flag, text);
    std::exit(2);
  }
  return *parsed;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  bool use_tcp = false;
  uint16_t port = 0;
  bool metrics_dump_on_usr1 = true;
  optrules::serve::ServerOptions options;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--socket=", 9) == 0) {
      socket_path = arg + 9;
    } else if (std::strncmp(arg, "--port=", 7) == 0) {
      use_tcp = true;
      port = static_cast<uint16_t>(FlagValue("--port", arg + 7));
    } else if (std::strncmp(arg, "--window-ms=", 12) == 0) {
      options.coalescing_window_ms =
          static_cast<int64_t>(FlagValue("--window-ms", arg + 12));
    } else if (std::strncmp(arg, "--max-sessions=", 15) == 0) {
      options.max_pending_sessions =
          static_cast<int>(FlagValue("--max-sessions", arg + 15));
    } else if (std::strncmp(arg, "--max-connections=", 18) == 0) {
      options.max_connections =
          static_cast<int>(FlagValue("--max-connections", arg + 18));
    } else if (std::strncmp(arg, "--drain-ms=", 11) == 0) {
      options.drain_deadline_ms =
          static_cast<int64_t>(FlagValue("--drain-ms", arg + 11));
    } else if (std::strncmp(arg, "--max-engines=", 14) == 0) {
      options.max_cached_engines =
          static_cast<int>(FlagValue("--max-engines", arg + 14));
    } else if (std::strncmp(arg, "--metrics-dump-on=", 18) == 0) {
      const char* value = arg + 18;
      if (std::strcmp(value, "usr1") == 0 ||
          std::strcmp(value, "SIGUSR1") == 0) {
        metrics_dump_on_usr1 = true;
      } else if (std::strcmp(value, "none") == 0) {
        metrics_dump_on_usr1 = false;
      } else {
        std::fprintf(stderr,
                     "optrules_served: --metrics-dump-on wants usr1 or "
                     "none, got \"%s\"\n",
                     value);
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: optrules_served (--socket=<path> | --port=<n>) "
                   "[--window-ms=N (coalescing window of sessions that "
                   "need a scan; 0 = off)] [--max-sessions=N] "
                   "[--max-connections=N] [--drain-ms=N] "
                   "[--max-engines=N] [--metrics-dump-on=usr1|none]\n");
      return 2;
    }
  }
  if (socket_path.empty() && !use_tcp) {
    std::fprintf(stderr,
                 "optrules_served: need --socket=<path> or --port=<n>\n");
    return 2;
  }

  // Block the waited-on signals BEFORE any thread spawns, so they are
  // delivered to this thread's sigwait and nowhere else. SIGUSR1 rides
  // the same mask: it dumps the metrics registry and keeps serving.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGTERM);
  sigaddset(&signals, SIGINT);
  if (metrics_dump_on_usr1) sigaddset(&signals, SIGUSR1);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);

  optrules::serve::MiningServer server(options);
  const optrules::Status bound = use_tcp ? server.ListenTcp(port)
                                         : server.ListenUnix(socket_path);
  if (!bound.ok()) {
    std::fprintf(stderr, "optrules_served: %s\n",
                 bound.ToString().c_str());
    return 1;
  }
  const optrules::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "optrules_served: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  std::printf("LISTENING %s\n", server.address().c_str());
  std::fflush(stdout);

  for (;;) {
    int signal_number = 0;
    if (sigwait(&signals, &signal_number) != 0) continue;
    if (signal_number == SIGUSR1) {
      // Operator-triggered dump: the full registry as text on stderr
      // (stdout is the LISTENING handshake channel). The daemon keeps
      // serving; dump as often as you like.
      const std::string text =
          optrules::obs::MetricsRegistry::Default().Snapshot().ToText();
      std::fwrite(text.data(), 1, text.size(), stderr);
      std::fflush(stderr);
      continue;
    }
    break;  // SIGTERM / SIGINT: the graceful path
  }
  server.Stop();
  return 0;
}
