// icsdivd — the persistent diversification daemon (DESIGN.md §10).
//
// Serves the icsdiv request API (optimize / evaluate / report /
// similarity / batch / metric / status / version) over a Unix or TCP
// socket with length-prefixed JSON frames, keeping compiled substrates
// and solved assignments warm across requests and coalescing identical
// concurrent queries onto single executions.
//
//   icsdivd --socket /run/icsdiv.sock [flags]
//   icsdivd --tcp 127.0.0.1:7433     [flags]
//
// Flags: --max-connections N (at least 1), --idle-timeout SECONDS,
// --max-concurrent N (0 = hardware threads), --max-queue N,
// --retry-after SECONDS, --store DIR (default on-disk artifact store for
// batch requests, DESIGN.md §13).  Any other flag is a usage error (exit 2).
//
// Fault injection: setting ICSDIV_FAILPOINTS (e.g.
// "socket.write=error(0.05);stage.solve=delay(20,0.5)") arms the
// support::failpoint registry at startup — chaos testing only, see
// DESIGN.md §11; ICSDIV_FAILPOINTS_SEED makes the draws reproducible.
//
// SIGTERM/SIGINT trigger a graceful shutdown: in-flight requests finish
// and their responses are written, every thread is joined, the socket
// file is unlinked, and the process exits 0.
#include <csignal>
#include <iostream>
#include <map>
#include <string>

#include "api/status.hpp"
#include "daemon/server.hpp"
#include "support/failpoint.hpp"
#include "support/signals.hpp"

namespace {

using namespace icsdiv;

struct Arguments {
  std::map<std::string, std::string> options;
};

Arguments parse_arguments(int argc, char** argv) {
  Arguments args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0) throw InvalidArgument("expected --flag, got: " + flag);
    if (i + 1 >= argc) throw InvalidArgument("flag needs a value: " + flag);
    args.options[flag.substr(2)] = argv[++i];
  }
  return args;
}

std::size_t parse_count(const std::string& name, const std::string& value) {
  if (value.empty() || value.find_first_not_of("0123456789") != std::string::npos) {
    throw InvalidArgument("bad --" + name + " value: " + value);
  }
  try {
    return std::stoull(value);
  } catch (const std::out_of_range&) {
    throw InvalidArgument("bad --" + name + " value: " + value);
  }
}

daemon::ServerOptions build_options(const Arguments& args) {
  daemon::ServerOptions options;
  const auto socket_it = args.options.find("socket");
  const auto tcp_it = args.options.find("tcp");
  if ((socket_it == args.options.end()) == (tcp_it == args.options.end())) {
    throw InvalidArgument("exactly one of --socket PATH or --tcp HOST:PORT is required");
  }
  options.endpoint = socket_it != args.options.end()
                         ? support::Endpoint::parse("unix:" + socket_it->second)
                         : support::Endpoint::parse("tcp:" + tcp_it->second);
  for (const auto& [name, value] : args.options) {
    if (name == "socket" || name == "tcp") continue;
    if (name == "max-connections") {
      options.max_connections = parse_count(name, value);
      // 0 would turn every client away while the daemon looks healthy.
      if (options.max_connections == 0) {
        throw InvalidArgument("--max-connections must be at least 1");
      }
    } else if (name == "idle-timeout") {
      options.idle_timeout_seconds = static_cast<double>(parse_count(name, value));
    } else if (name == "max-concurrent") {
      options.session.max_concurrent = parse_count(name, value);
    } else if (name == "max-queue") {
      options.session.max_queued = parse_count(name, value);
    } else if (name == "retry-after") {
      options.session.retry_after_seconds = static_cast<double>(parse_count(name, value));
    } else if (name == "store") {
      options.session.store_dir = value;
    } else {
      throw InvalidArgument("unknown flag: --" + name);
    }
  }
  return options;
}

void print_usage() {
  std::cerr << "usage: icsdivd (--socket PATH | --tcp HOST:PORT)\n"
            << "               [--max-connections N] [--idle-timeout SECONDS]\n"
            << "               [--max-concurrent N] [--max-queue N] [--retry-after SECONDS]\n"
            << "               [--store DIR]\n";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const daemon::ServerOptions options = build_options(parse_arguments(argc, argv));
    // Before any thread exists: termination signals go to sigwait below,
    // never to a worker; peer-dropped writes report errors, not SIGPIPE.
    support::ignore_sigpipe();
    support::block_signals({SIGINT, SIGTERM});

    if (support::failpoint::arm_from_env()) {
      std::cerr << "icsdivd: fault injection armed (ICSDIV_FAILPOINTS)\n";
    }

    daemon::Server server(options);
    server.start();
    std::cerr << "icsdivd listening on " << server.endpoint().to_string() << "\n";

    const int signal = support::wait_for_signal({SIGINT, SIGTERM});
    std::cerr << "icsdivd: received signal " << signal << ", draining\n";
    server.shutdown();
    std::cerr << "icsdivd: clean shutdown\n";
    return 0;
  } catch (const InvalidArgument& error) {
    std::cerr << "error: " << error.what() << "\n\n";
    print_usage();
    return api::exit_code(api::StatusCode::InvalidArgument);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return api::exit_code(api::status_code_for(error));
  }
}
