// daemon_loop: the shipped icsdivd on a unix socket, driven by one process
// holding a closed loop of connections (no think time).  Each connection
// repeats 4 warm : 1 cold optimize requests; warm requests hit one of 8
// pre-warmed 1000-host networks, cold ones walk 300 distinct 300-host
// networks, more than the session's solve-cache capacity of 128.
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <tuple>

#include "api/requests.hpp"
#include "api/session.hpp"
#include "bench.hpp"
#include "daemon/protocol.hpp"
#include "support/error.hpp"
#include "support/socket.hpp"

extern char** environ;

namespace perfbench {

namespace api = icsdiv::api;
namespace core = icsdiv::core;
namespace daemon = icsdiv::daemon;
namespace support = icsdiv::support;

namespace {

/// Per class: the 90th percentile then has at least ten samples beyond it.
constexpr std::size_t kMinClassSamples = 100;

/// icsdivd as a child process.  The constructor returns once the socket
/// accepts connections; stop() (or the destructor) sends SIGTERM and waits
/// for the process to end.  The daemon admits `options.threads` requests at
/// a time and each computes on its own connection thread (a library pool of
/// one runs inline), so it never has more busy compute threads than that.
class DaemonProcess {
 public:
  explicit DaemonProcess(const Options& options) {
    std::vector<std::string> args = {options.icsdivd, "--socket", options.socket,
                                     "--max-concurrent", std::to_string(options.threads)};
    std::vector<std::string> env = {"ICSDIV_THREADS=1"};
    for (char** entry = environ; *entry != nullptr; ++entry) {
      if (std::string_view(*entry).rfind("ICSDIV_THREADS=", 0) != 0) env.emplace_back(*entry);
    }
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    std::vector<char*> envp;
    for (std::string& entry : env) envp.push_back(entry.data());
    envp.push_back(nullptr);

    const pid_t parent = getpid();
    pid_ = fork();
    if (pid_ < 0) throw icsdiv::Error("fork failed");
    if (pid_ == 0) {
      // The daemon must not outlive the benchmark, however it ends.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (getppid() != parent) _exit(127);
      execve(argv[0], argv.data(), envp.data());
      _exit(127);
    }
    wait_until_listening(options.socket);
  }

  ~DaemonProcess() { (void)stop(); }
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;
  DaemonProcess(DaemonProcess&&) = delete;
  DaemonProcess& operator=(DaemonProcess&&) = delete;

  [[nodiscard]] long pid() const noexcept { return pid_; }

  /// True when the daemon exited with status 0 (or was already stopped).
  bool stop() {
    if (pid_ <= 0) return true;
    kill(pid_, SIGTERM);
    int status = 0;
    while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  void wait_until_listening(const std::string& socket) {
    const support::Endpoint endpoint = support::Endpoint::parse(socket);
    const Clock::time_point start = Clock::now();
    while (seconds_between(start, Clock::now()) < 30.0) {
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw icsdiv::Error("icsdivd exited during start-up");
      }
      try {
        (void)support::Socket::connect(endpoint, 200);
        return;
      } catch (const std::exception&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    throw icsdiv::Error("icsdivd did not start listening within 30 s");
  }

  pid_t pid_ = -1;
};

/// One client connection speaking the length-prefixed frame protocol with
/// frames encoded in advance.
class Connection {
 public:
  explicit Connection(const std::string& socket)
      : socket_(support::Socket::connect(support::Endpoint::parse(socket), 5000)) {}

  /// Sends one encoded frame and returns the reply payload.
  std::string round_trip(std::string_view frame) {
    socket_.write_all(frame);
    unsigned char header[daemon::kLengthPrefixBytes] = {};
    socket_.read_exact(reinterpret_cast<char*>(header), sizeof header);
    const std::size_t size = (std::size_t{header[0]} << 24) | (std::size_t{header[1]} << 16) |
                             (std::size_t{header[2]} << 8) | std::size_t{header[3]};
    if (size == 0 || size > daemon::kDefaultMaxFrameBytes) {
      throw icsdiv::ParseError("bad reply frame length " + std::to_string(size));
    }
    std::string payload(size, '\0');
    socket_.read_exact(payload.data(), size);
    return payload;
  }

 private:
  support::Socket socket_;
};

/// The generated networks and their encoded optimize frames.
struct Inputs {
  std::vector<std::string> warm_frames;
  std::vector<std::string> cold_frames;
  std::vector<GeneratedModel> warm_models;
  std::vector<GeneratedModel> cold_models;
  /// Checked problems per network, built on first use.
  std::map<std::pair<bool, std::size_t>, std::unique_ptr<core::DiversificationProblem>> problems;

  const core::DiversificationProblem& problem(bool warm, std::size_t index) {
    auto& slot = problems[{warm, index}];
    if (!slot) {
      const GeneratedModel& model = warm ? warm_models[index] : cold_models[index];
      slot = std::make_unique<core::DiversificationProblem>(*model.instance.network);
    }
    return *slot;
  }
};

Inputs make_inputs(std::uint64_t seed, Tracer& tracer) {
  Inputs inputs;
  for (const bool warm : {true, false}) {
    const std::size_t count = warm ? kWarmNetworks : kColdNetworks;
    auto& frames = warm ? inputs.warm_frames : inputs.cold_frames;
    auto& models = warm ? inputs.warm_models : inputs.cold_models;
    models.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
      frames.push_back(daemon_frame(seed, warm, i, tracer, &models[i]));
    }
  }
  return inputs;
}

/// Empty when `wire` is an ok optimize reply whose assignment checks out
/// against the network it was sent for; otherwise why not.
std::string check_reply(const Json& wire, Inputs& inputs, bool warm, std::size_t index) {
  const Json* status = wire.as_object().find("status");
  if (status == nullptr || !status->is_string() || status->as_string() != "ok") {
    return "reply status is not ok: " + wire.dump().substr(0, 200);
  }
  const Json& result = wire.as_object().at("result");
  if (result.as_object().contains("truncated")) return "reply is truncated";
  return check_assignment(inputs.problem(warm, index), result.as_object().at("assignment"),
                          result.as_object().at("energy").as_double());
}

/// A started daemon with every warm network solved once and its cached
/// reply recorded as the reference for later warm replies.
struct Setup {
  Inputs inputs;
  std::vector<std::string> warm_reference;
  std::unique_ptr<DaemonProcess> daemon;
};

std::unique_ptr<Setup> make_setup(const Options& options, Tracer& tracer, RawResult& result) {
  auto setup = std::make_unique<Setup>();
  setup->inputs = make_inputs(options.seed, tracer);
  setup->daemon = std::make_unique<DaemonProcess>(options);
  Connection connection(options.socket);
  for (std::size_t i = 0; i < kWarmNetworks; ++i) {
    result.attempted += 2;
    const std::string first = connection.round_trip(setup->inputs.warm_frames[i]);
    std::string second = connection.round_trip(setup->inputs.warm_frames[i]);
    const Json first_wire = Json::parse(first);
    const Json second_wire = Json::parse(second);
    std::string why = check_reply(first_wire, setup->inputs, true, i);
    if (why.empty() && comparable_reply(first_wire) != comparable_reply(second_wire)) {
      why = "repeated warm reply differs from the first";
    }
    if (why.empty() && !second_wire.as_object().at("result").as_object().at("cached").as_boolean()) {
      why = "repeated warm request was not served from the cache";
    }
    if (!why.empty()) result.fail("daemon_loop: warm-up: " + why);
    setup->warm_reference.push_back(std::move(second));
  }
  // The untimed warm-up operation of the cold class (network 0; the loop
  // starts at network 1 and reaches 0 again only after 299 evicting inserts).
  ++result.attempted;
  const std::string why =
      check_reply(Json::parse(connection.round_trip(setup->inputs.cold_frames[0])),
                  setup->inputs, false, 0);
  if (!why.empty()) result.fail("daemon_loop: warm-up: " + why);
  return setup;
}

/// Solve-cache counters from a `status` request.
JsonObject solve_cache_counts(Connection& connection) {
  const std::string frame =
      daemon::encode_frame(api::request_to_wire(api::Request(api::StatusRequest{})).dump());
  const api::Response response = api::response_from_wire(Json::parse(connection.round_trip(frame)));
  const api::StatusResponse& status = std::get<api::StatusResponse>(response);
  JsonObject counts;
  counts.set("api.solve_cache.hits", Json(status.solve_cache.hits));
  counts.set("api.solve_cache.executed", Json(status.solve_cache.executed));
  counts.set("api.solve_cache.evicted", Json(status.solve_cache.evicted));
  return counts;
}

struct ConnectionSamples {
  std::vector<double> warm_ms;
  std::vector<double> warm_done_s;  ///< completion times from the loop start
  std::vector<double> cold_ms;
  std::vector<double> cold_done_s;
  std::vector<std::size_t> cold_index;
  std::vector<std::string> cold_replies;
  std::size_t warm_failed = 0;
  std::string error;
};

void timed(const Options& options, RawResult& result) {
  Tracer tracer(false);
  std::unique_ptr<Setup> setup;
  for (std::size_t k = 0; k < kSetups; ++k) {
    setup.reset();
    const Clock::time_point start = k == 0 ? options.started : Clock::now();
    setup = make_setup(options, tracer, result);
    result.setup_s.push_back(seconds_between(start, Clock::now()));
  }

  std::atomic<std::size_t> next_cold{1};
  std::atomic<std::size_t> warm_done{0};
  std::atomic<std::size_t> cold_done{0};
  // One closed-loop connection per admitted request.
  std::vector<ConnectionSamples> samples(options.threads);
  const Clock::time_point start = Clock::now();
  const auto drive = [&](std::size_t c) {
    ConnectionSamples& mine = samples[c];
    try {
      Connection connection(options.socket);
      std::size_t warm_count = 0;
      for (std::size_t i = 0;; ++i) {
        const double elapsed = seconds_between(start, Clock::now());
        const bool enough = warm_done >= kMinClassSamples && cold_done >= kMinClassSamples;
        if ((elapsed >= options.seconds && enough) || elapsed >= 3 * options.seconds + 30) break;
        const bool cold = i % 5 == 4;
        const std::size_t index =
            cold ? next_cold++ % kColdNetworks : (c * 4 + warm_count++) % kWarmNetworks;
        const std::string& frame =
            cold ? setup->inputs.cold_frames[index] : setup->inputs.warm_frames[index];
        const Clock::time_point sent = Clock::now();
        std::string reply = connection.round_trip(frame);
        const Clock::time_point received = Clock::now();
        const double ms = seconds_between(sent, received) * 1e3;
        if (cold) {
          mine.cold_ms.push_back(ms);
          mine.cold_done_s.push_back(seconds_between(start, received));
          mine.cold_index.push_back(index);
          mine.cold_replies.push_back(std::move(reply));
          ++cold_done;
        } else if (reply == setup->warm_reference[index]) {
          mine.warm_ms.push_back(ms);
          mine.warm_done_s.push_back(seconds_between(start, received));
          ++warm_done;
        } else {
          ++mine.warm_failed;
        }
      }
    } catch (const std::exception& error) {
      mine.error = error.what();
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < samples.size(); ++c) threads.emplace_back(drive, c);
  for (std::thread& thread : threads) thread.join();

  std::vector<double> warm_ms;
  std::vector<double> cold_ms;
  std::vector<double> done_s;  ///< completion times of the replies that checked out
  for (ConnectionSamples& mine : samples) {
    if (!mine.error.empty()) result.fail("daemon_loop: connection: " + mine.error);
    result.attempted += mine.warm_ms.size() + mine.warm_failed + mine.cold_ms.size();
    warm_ms.insert(warm_ms.end(), mine.warm_ms.begin(), mine.warm_ms.end());
    done_s.insert(done_s.end(), mine.warm_done_s.begin(), mine.warm_done_s.end());
    for (std::size_t i = 0; i < mine.warm_failed; ++i) {
      result.fail("daemon_loop: warm reply differs from its set-up reply");
    }
    for (std::size_t i = 0; i < mine.cold_ms.size(); ++i) {
      std::string why;
      try {
        why = check_reply(Json::parse(mine.cold_replies[i]), setup->inputs, false,
                          mine.cold_index[i]);
      } catch (const std::exception& error) {
        why = error.what();
      }
      if (why.empty()) {
        cold_ms.push_back(mine.cold_ms[i]);
        done_s.push_back(mine.cold_done_s[i]);
      } else {
        result.fail("daemon_loop: cold reply: " + why);
      }
    }
  }

  Connection connection(options.socket);
  result.samples.set("warm_ms", number_array(warm_ms));
  result.samples.set("cold_ms", number_array(cold_ms));
  result.samples.set("done_s", number_array(done_s));
  result.samples.set("counts", Json(solve_cache_counts(connection)));
  result.peak_rss_mb = peak_rss_mb(setup->daemon->pid());
  if (!setup->daemon->stop()) result.fail("daemon_loop: icsdivd did not shut down cleanly");
}

/// One request replayed in process as the daemon serves it: parse, decode,
/// execute, encode, with a span per call.  A warm request executes on
/// `session`, where it hits the cache; a cold one runs as replay_optimize,
/// the calls a cache miss makes, so its parse and solve layers get spans.
Json replay_request(Tracer& tracer, api::Session& session, std::string_view frame, bool cold) {
  Json request_json;
  {
    const auto span = tracer.span("support.json_parse");
    request_json = Json::parse(frame.substr(daemon::kLengthPrefixBytes));
  }
  std::optional<api::Request> request;
  {
    const auto span = tracer.span("api.from_wire");
    request.emplace(api::request_from_wire(request_json));
  }
  std::optional<api::Response> response;
  {
    const auto span = tracer.span("api.execute");
    if (cold) {
      SolveWork work;
      response.emplace(replay_optimize(tracer, std::get<api::OptimizeRequest>(*request), work));
    } else {
      response.emplace(session.execute(*request));
    }
  }
  Json wire;
  {
    const auto span = tracer.span("api.to_wire");
    wire = api::response_to_wire(*response);
  }
  std::string text;
  {
    const auto span = tracer.span("support.reply_dump");
    text = wire.dump();
  }
  const auto span = tracer.span("daemon.frame");
  (void)daemon::encode_frame(text);
  return wire;
}

void traced(const Options& options, RawResult& result) {
  Tracer tracer(options.replay);
  tracer.begin_op("setup");
  const std::unique_ptr<Setup> setup = make_setup(options, tracer, result);
  tracer.end_op();
  Inputs& inputs = setup->inputs;

  // The in-process session warm replays execute on, warmed like the daemon.
  api::SessionOptions session_options;
  session_options.max_concurrent = 1;
  api::Session session(session_options);
  for (const std::string& frame : inputs.warm_frames) {
    (void)session.execute(api::request_from_wire(
        Json::parse(std::string_view(frame).substr(daemon::kLengthPrefixBytes))));
  }

  // Two cold requests per round, then the cache fill below, stay within the
  // distinct cold networks.
  if (2 * options.reps + 1 >= 160) throw icsdiv::InvalidArgument("--reps too large for daemon_loop");
  // Rounds of 4 warm + 1 cold requests, untraced, then traced, then the
  // traced calls replayed in process, so drift in machine speed reaches a
  // call, its replay and the untraced request alike.  Replies are checked
  // afterwards.
  Connection connection(options.socket);
  std::size_t next_cold = 1;
  std::vector<double> warm_ms;
  std::vector<double> cold_ms;
  std::vector<std::tuple<bool, std::size_t, std::string>> replies;
  JsonObject counts;
  for (std::size_t round = 0; round < options.reps; ++round) {
    for (const bool traced_call : {false, true}) {
      if (traced_call && !options.replay) continue;
      for (std::size_t i = 0; i < 5; ++i) {
        const bool is_cold = i == 4;
        const std::size_t index = is_cold ? next_cold++ : i;
        const std::string& frame = is_cold ? inputs.cold_frames[index] : inputs.warm_frames[index];
        const std::string cls = is_cold ? "cold" : "warm";
        ++result.attempted;
        std::string reply;
        if (traced_call) {
          tracer.begin_op(cls);
          {
            const auto span = tracer.span("daemon.call");
            reply = connection.round_trip(frame);
          }
          tracer.end_op();
          counts.set("daemon.request_bytes." + cls, Json(frame.size()));
          counts.set("daemon.reply_bytes." + cls,
                     Json(reply.size() + daemon::kLengthPrefixBytes));
        } else {
          const Clock::time_point start = Clock::now();
          reply = connection.round_trip(frame);
          (is_cold ? cold_ms : warm_ms).push_back(seconds_between(start, Clock::now()) * 1e3);
        }
        replies.emplace_back(is_cold, index, std::move(reply));
      }
    }
    if (!options.replay) continue;
    for (std::size_t k = replies.size() - 5; k < replies.size(); ++k) {
      const auto& [is_cold, index, reply] = replies[k];
      const std::string& frame = is_cold ? inputs.cold_frames[index] : inputs.warm_frames[index];
      ++result.attempted;
      tracer.begin_op(is_cold ? "cold-replay" : "warm-replay");
      const Json wire = replay_request(tracer, session, frame, is_cold);
      tracer.end_op();
      if (comparable_reply(wire) != comparable_reply(Json::parse(reply))) {
        result.fail("daemon_loop: in-process replay differs from the daemon's reply");
      }
    }
  }
  for (const auto& [is_cold, index, reply] : replies) {
    const std::string why = check_reply(Json::parse(reply), inputs, !is_cold, index);
    if (!why.empty()) result.fail("daemon_loop: call: " + why);
  }
  JsonObject e2e_ms;
  e2e_ms.set("warm", number_array(warm_ms));
  e2e_ms.set("cold", number_array(cold_ms));
  result.samples.set("e2e_ms", Json(std::move(e2e_ms)));

  if (options.replay) {
    // Session::execute dumps catalog + network for its cache key on every
    // request; time that dump alone, outside the replayed requests.
    for (std::size_t i = 0; i < kWarmNetworks; ++i) {
      const api::Request request = api::request_from_wire(
          Json::parse(std::string_view(inputs.warm_frames[i]).substr(daemon::kLengthPrefixBytes)));
      const auto& optimize = std::get<api::OptimizeRequest>(request);
      tracer.begin_op("probe");
      {
        const auto span = tracer.span("support.json_dump");
        (void)optimize.catalog.dump();
        (void)optimize.network.dump();
      }
      tracer.end_op();
    }
    result.samples.set("trace", tracer.to_json());
  }

  // Fill the daemon's solve cache past its capacity so the counters show
  // inserts and evictions, as the timed loop's cold requests do.
  while (next_cold < 160) (void)connection.round_trip(inputs.cold_frames[next_cold++]);
  for (const auto& [name, value] : solve_cache_counts(connection)) counts.set(name, value);
  result.samples.set("counts", Json(std::move(counts)));
  result.peak_rss_mb = peak_rss_mb(setup->daemon->pid());
  if (!setup->daemon->stop()) result.fail("daemon_loop: icsdivd did not shut down cleanly");
}

}  // namespace

void run_daemon_loop(const Options& options, RawResult& result) {
  if (options.mode == "timed") {
    timed(options, result);
  } else {
    traced(options, result);
  }
}

}  // namespace perfbench
