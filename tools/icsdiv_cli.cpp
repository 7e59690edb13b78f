// icsdiv command-line front end — a thin argv→api::Request adapter.
//
// Every subcommand builds a typed request and runs it through the same
// `api::execute` entry point the icsdivd daemon serves, so CLI and
// daemon behaviour cannot drift.  The CLI's own job is file I/O and
// rendering: it reads the JSON artefacts named on the command line into
// the request, and renders the typed response as tables/text (default)
// or as the wire envelope (`--format json` — the same bytes a daemon
// client would receive, machine-readable errors included).
//
//   icsdiv_cli optimize  --catalog c.json --network n.json [--out a.json]
//                        [--solver NAME]   (any mrf::SolverRegistry name)
//                        [--max-iterations N]
//   icsdiv_cli evaluate  --catalog c.json --network n.json --assignment a.json
//                        [--entry HOST --target HOST]
//   icsdiv_cli report    --catalog c.json --network n.json --assignment a.json
//   icsdiv_cli similarity --feed feed.json --cpe QUERY --cpe QUERY [...]
//   icsdiv_cli batch     --grid grid.json [--csv FILE] [--json FILE]
//                        [--threads N] [--store DIR] [--report deterministic]
//   icsdiv_cli batch     --grid grid.json --shard K/N --store DIR [--threads N]
//   icsdiv_cli version
//
// `--store DIR` layers a persistent on-disk artifact store under the
// batch (DESIGN.md §13).  `--shard K/N` computes only this process's
// share of the grid into that store and writes no report; the fleet's
// report is a final `--store DIR --report deterministic` pass over the
// store, byte-identical to a single-process run.  The store is a shard's
// only output, so a store from another format version, which the engine
// would run without, fails the shard (exit 5): before any cell runs, or
// after them when another version's binary created the store meanwhile.
// Without `--shard` such a store is only a cache and is bypassed.
//
// Every compute command accepts `--timeout-ms N`, a wall-clock deadline
// enforced by the session (DESIGN.md §11); N is at most INT64_MAX, and a
// deadline past what the clock can represent means none.  It covers
// decoding the catalog and network too: a deadline that passes before
// they are decoded fails the command with deadline_exceeded (exit 10).
// Once the solver runs, optimize returns the best assignment seen so far
// tagged `truncated`; other commands fail with deadline_exceeded.
// `--threads` is at most 256 in every batch mode.  The two local batch
// modes (`--report deterministic`, `--shard`) take neither `--timeout-ms`
// nor `--format`.  Each command and batch mode rejects any flag it does
// not read (exit 2), so a mistyped flag never silently falls back to a
// default.  Only an error in the command line itself (an unknown
// command, mode or flag, a missing flag, a malformed flag value) prints
// the usage text after its message; an error found while running, or in
// a file's content, prints its own line alone.
//
// Exit codes follow the stable api::StatusCode mapping (status.hpp):
// 0 ok, 2 invalid argument, 3 parse error, 4 not found, 5 infeasible,
// 6 logic error, 8 partial batch failure, 9 internal, 10 deadline
// exceeded, 11 cancelled.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "api/requests.hpp"
#include "api/session.hpp"
#include "api/status.hpp"
#include "mrf/registry.hpp"
#include "runner/batch_runner.hpp"
#include "runner/disk_store.hpp"
#include "runner/scenario.hpp"
#include "runner/shard.hpp"
#include "support/table.hpp"

namespace {

using namespace icsdiv;

/// An error in the command line itself: the one kind that prints the
/// usage text.  Exit code 2 like any other InvalidArgument.
class UsageError : public InvalidArgument {
 public:
  using InvalidArgument::InvalidArgument;
};

struct Arguments {
  std::string command;
  std::map<std::string, std::string> options;
  std::vector<std::string> repeated_cpes;
};

enum class OutputFormat { Text, Json };

Arguments parse_arguments(int argc, char** argv) {
  Arguments args;
  if (argc < 2) throw UsageError("missing command");
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0) throw UsageError("expected --flag, got: " + flag);
    if (i + 1 >= argc) throw UsageError("flag needs a value: " + flag);
    const std::string value = argv[++i];
    if (flag == "--cpe") {
      args.repeated_cpes.push_back(value);
    } else {
      args.options[flag.substr(2)] = value;
    }
  }
  return args;
}

// The flags each command and each batch mode reads, keyed by the mode's
// name as error messages show it.
const std::map<std::string, std::set<std::string>>& flags_by_mode() {
  static const std::map<std::string, std::set<std::string>> flags{
      {"optimize",
       {"catalog", "network", "out", "solver", "max-iterations", "timeout-ms", "format"}},
      {"evaluate",
       {"catalog", "network", "assignment", "entry", "target", "timeout-ms", "format"}},
      {"report", {"catalog", "network", "assignment", "timeout-ms", "format"}},
      {"similarity", {"feed", "cpe", "timeout-ms", "format"}},
      {"batch", {"grid", "csv", "json", "threads", "store", "timeout-ms", "format"}},
      {"batch --report deterministic", {"grid", "csv", "json", "threads", "store", "report"}},
      {"batch --shard", {"grid", "threads", "shard", "store"}},
      {"version", {"format"}},
  };
  return flags;
}

/// The command, or for `batch` the batch mode, that `args` selects.
std::string mode_of(const Arguments& args) {
  if (!flags_by_mode().contains(args.command)) {
    throw UsageError("unknown command: " + args.command);
  }
  if (args.command != "batch") return args.command;
  const auto report = args.options.find("report");
  if (report != args.options.end() && report->second != "deterministic") {
    throw UsageError("bad --report value (deterministic): " + report->second);
  }
  if (args.options.contains("shard")) return "batch --shard";
  if (report != args.options.end()) return "batch --report deterministic";
  return "batch";
}

/// Throws UsageError naming every flag `mode` does not read.
void check_flags(const Arguments& args, const std::string& mode) {
  const std::set<std::string>& known = flags_by_mode().at(mode);
  std::string unknown;
  const auto check = [&](const std::string& name) {
    if (known.contains(name)) return;
    unknown += (unknown.empty() ? "--" : ", --") + name;
  };
  for (const auto& option : args.options) check(option.first);
  if (!args.repeated_cpes.empty()) check("cpe");
  if (!unknown.empty()) throw UsageError(mode + " does not take " + unknown);
}

OutputFormat parse_format(const Arguments& args) {
  const auto it = args.options.find("format");
  if (it == args.options.end() || it->second == "text") return OutputFormat::Text;
  if (it->second == "json") return OutputFormat::Json;
  throw UsageError("bad --format value (text|json): " + it->second);
}

std::string read_file(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw NotFound("cannot open file: " + path);
  return std::string(std::istreambuf_iterator<char>(file), {});
}

support::Json read_json(const Arguments& args, const std::string& name) {
  const auto it = args.options.find(name);
  if (it == args.options.end()) throw UsageError("missing required --" + name);
  return support::Json::parse(read_file(it->second));
}

std::string option_or(const Arguments& args, const std::string& name, std::string fallback = {}) {
  const auto it = args.options.find(name);
  return it != args.options.end() ? it->second : std::move(fallback);
}

std::size_t parse_count(const std::string& flag, const std::string& value) {
  // Digits only: stoull alone would accept (and wrap) "-1".
  if (value.empty() || value.find_first_not_of("0123456789") != std::string::npos) {
    throw UsageError("bad " + flag + " value: " + value);
  }
  try {
    return std::stoull(value);
  } catch (const std::out_of_range&) {
    throw UsageError("bad " + flag + " value: " + value);
  }
}

std::size_t parse_threads(const std::string& value) { return parse_count("--threads", value); }

std::int64_t parse_timeout_ms(const Arguments& args) {
  const auto it = args.options.find("timeout-ms");
  if (it == args.options.end()) return 0;
  // The wire's timeout_ms is a signed 64-bit integer.
  const std::size_t timeout_ms = parse_count("--timeout-ms", it->second);
  if (timeout_ms > static_cast<std::size_t>(INT64_MAX)) {
    throw UsageError("bad --timeout-ms value: " + it->second);
  }
  return static_cast<std::int64_t>(timeout_ms);
}

// ---------------------------------------------------------------------------
// argv → Request.

api::Request build_request(const Arguments& args) {
  if (args.command == "optimize") {
    api::OptimizeRequest request;
    request.catalog = read_json(args, "catalog");
    request.network = read_json(args, "network");
    request.solver = option_or(args, "solver");
    if (const auto it = args.options.find("max-iterations"); it != args.options.end()) {
      request.max_iterations = parse_count("--max-iterations", it->second);
    }
    request.timeout_ms = parse_timeout_ms(args);
    return request;
  }
  if (args.command == "evaluate") {
    api::EvaluateRequest request;
    request.catalog = read_json(args, "catalog");
    request.network = read_json(args, "network");
    request.assignment = read_json(args, "assignment");
    request.entry = option_or(args, "entry");
    request.target = option_or(args, "target");
    if (request.entry.empty() != request.target.empty()) {
      throw UsageError("evaluate needs both --entry and --target, or neither");
    }
    request.timeout_ms = parse_timeout_ms(args);
    return request;
  }
  if (args.command == "report") {
    api::ReportRequest request;
    request.catalog = read_json(args, "catalog");
    request.network = read_json(args, "network");
    request.assignment = read_json(args, "assignment");
    request.timeout_ms = parse_timeout_ms(args);
    return request;
  }
  if (args.command == "similarity") {
    if (args.repeated_cpes.size() < 2) {
      throw UsageError("similarity needs at least two --cpe queries");
    }
    api::SimilarityRequest request;
    request.feed = read_json(args, "feed");
    request.cpes = args.repeated_cpes;
    request.timeout_ms = parse_timeout_ms(args);
    return request;
  }
  if (args.command == "batch") {
    api::BatchRequest request;
    request.grid = read_json(args, "grid");
    if (const auto it = args.options.find("threads"); it != args.options.end()) {
      request.threads = parse_threads(it->second);
    }
    request.timeout_ms = parse_timeout_ms(args);
    request.store_dir = option_or(args, "store");
    return request;
  }
  if (args.command == "version") return api::VersionRequest{};
  throw UsageError("unknown command: " + args.command);
}

// ---------------------------------------------------------------------------
// Output files honoured in both formats (the CLI's side of the adapter).

void write_text_file(const std::string& path, const std::string& content) {
  std::ofstream file(path);
  if (!file) throw NotFound("cannot write file: " + path);
  file << content;
  std::cerr << "wrote " << path << "\n";
}

void write_output_files(const Arguments& args, const api::Response& response) {
  if (const auto* optimize = std::get_if<api::OptimizeResponse>(&response)) {
    if (const auto it = args.options.find("out"); it != args.options.end()) {
      write_text_file(it->second, optimize->assignment.dump_pretty());
    }
  }
  if (const auto* batch = std::get_if<api::BatchResponse>(&response)) {
    if (const auto it = args.options.find("csv"); it != args.options.end()) {
      write_text_file(it->second, batch->csv);
    }
    if (const auto it = args.options.find("json"); it != args.options.end()) {
      write_text_file(it->second, batch->report.dump_pretty() + "\n");
    }
  }
}

// ---------------------------------------------------------------------------
// Text renderers, one per response type.

int render_optimize(const Arguments& args, const api::OptimizeResponse& response) {
  std::cerr << "energy " << response.energy << ", pairwise similarity "
            << response.pairwise_similarity << ", " << response.iterations << " iterations";
  if (response.truncated) std::cerr << " (truncated: deadline hit, best-so-far)";
  std::cerr << "\n";
  if (args.options.find("out") == args.options.end()) {
    std::cout << response.assignment.dump_pretty();
  }
  return 0;
}

int render_evaluate(const api::EvaluateResponse& response) {
  support::TextTable table({"metric", "value"});
  table.add_row({"edge similarity (Eq.3)", support::TextTable::num(response.edge_similarity, 3)});
  table.add_row({"avg per link-service", support::TextTable::num(response.average_similarity, 3)});
  table.add_row({"normalised effective richness",
                 support::TextTable::num(response.normalized_richness, 3)});
  if (response.pair_evaluated) {
    table.add_row({"d_bn (Def. 6)", support::TextTable::num(response.d_bn, 5)});
    table.add_row({"log10 P(target)", support::TextTable::num(response.log10_p_with, 3)});
    table.add_row({"least attack effort (exploits)",
                   response.exploit_count ? std::to_string(*response.exploit_count)
                                          : "unreachable"});
    table.add_row({"MTTC (ticks, " + std::to_string(response.mttc_runs) + " runs)",
                   support::TextTable::num(response.mttc_mean, 1)});
    if (response.mttc_censored > 0) {
      table.add_row({"MTTC censored runs", std::to_string(response.mttc_censored) + "/" +
                                               std::to_string(response.mttc_runs)});
      if (response.mttc_censored < response.mttc_runs) {
        table.add_row(
            {"MTTC uncensored mean", support::TextTable::num(response.mttc_uncensored_mean, 1)});
      }
    }
  }
  table.print(std::cout);
  return 0;
}

int render_similarity(const api::SimilarityResponse& response) {
  support::TextTable out({"a", "b", "similarity", "shared", "|Va|", "|Vb|"});
  for (const api::SimilarityResponse::Pair& pair : response.pairs) {
    out.add_row({pair.a, pair.b, support::TextTable::num(pair.similarity, 4),
                 std::to_string(pair.shared), std::to_string(pair.count_a),
                 std::to_string(pair.count_b)});
  }
  out.print(std::cout);
  return 0;
}

int render_batch(const api::BatchResponse& response) {
  const support::JsonObject& report = response.report.as_object();
  std::cerr << "\n" << response.cells - response.failed << "/" << response.cells
            << " scenarios succeeded on " << report.at("threads").as_integer() << " threads in "
            << report.at("wall_seconds").as_double() << " s\n";

  // Stage reuse: executed/planned per pipeline stage (hits are references
  // served by an already-planned execution, see BatchReport::stage_stats).
  const support::JsonObject& stats = report.at("stage_stats").as_object();
  const auto planned = [&stats](std::string_view stage) {
    return stats.at(stage).as_object().at("planned").as_integer();
  };
  const auto ratio = [&stats](std::string_view stage) {
    const support::JsonObject& counters = stats.at(stage).as_object();
    return std::to_string(counters.at("executed").as_integer()) + "/" +
           std::to_string(counters.at("planned").as_integer());
  };
  const bool attacked = planned("attack") > 0;
  const bool metered = planned("metric") > 0;
  std::cerr << "stage reuse (executed/planned): workloads " << ratio("workload") << ", problems "
            << ratio("problem") << ", solves " << ratio("solve");
  if (attacked) {
    std::cerr << ", channel pools " << ratio("channels") << ", attack evals " << ratio("attack");
  }
  if (metered) std::cerr << ", metric evals " << ratio("metric");
  std::cerr << "\n";

  std::vector<std::string> columns{"scenario", "solver", "constraints", "energy",
                                   "avg sim",  "richness", "solve s"};
  if (attacked) columns.insert(columns.end(), {"mttc", "mttc unc.", "censored"});
  if (metered) columns.insert(columns.end(), {"d_bn", "d_bn min", "pairs"});
  columns.push_back("status");
  support::TextTable table(columns);

  const auto num_or_dash = [](const support::JsonObject& object, std::string_view key,
                              int precision) {
    const support::Json* value = object.find(key);
    if (value == nullptr || value->is_null()) return std::string("-");
    return support::TextTable::num(value->as_double(), precision);
  };
  for (const support::Json& cell_json : report.at("results").as_array()) {
    const support::JsonObject& cell = cell_json.as_object();
    const support::Json* error = cell.find("error");
    const bool ok = error == nullptr;
    std::vector<std::string> row{cell.at("name").as_string(), cell.at("solver").as_string(),
                                 cell.at("constraints").as_string(),
                                 ok ? num_or_dash(cell, "energy", 3) : "-",
                                 ok ? num_or_dash(cell, "avg_similarity", 4) : "-",
                                 ok ? num_or_dash(cell, "richness", 3) : "-",
                                 ok ? num_or_dash(cell, "solve_seconds", 3) : "-"};
    if (attacked) {
      const support::Json* attack = ok ? cell.find("attack") : nullptr;
      if (attack != nullptr) {
        const support::JsonObject& block = attack->as_object();
        const auto runs = static_cast<std::size_t>(block.at("runs").as_integer());
        const auto censored = static_cast<std::size_t>(block.at("censored").as_integer());
        row.push_back(num_or_dash(block, "mttc_mean", 1));
        row.push_back(censored < runs ? num_or_dash(block, "mttc_uncensored_mean", 1) : "-");
        row.push_back(std::to_string(censored) + "/" + std::to_string(runs));
      } else {
        row.insert(row.end(), {"-", "-", "-"});
      }
    }
    if (metered) {
      const support::Json* metrics = ok ? cell.find("metrics") : nullptr;
      if (metrics != nullptr) {
        const support::JsonObject& block = metrics->as_object();
        row.push_back(num_or_dash(block, "d_bn_mean", 4));
        row.push_back(num_or_dash(block, "d_bn_min", 4));
        row.push_back(std::to_string(block.at("pairs").as_integer()));
      } else {
        row.insert(row.end(), {"-", "-", "-"});
      }
    }
    row.push_back(ok ? "ok" : error->as_string());
    table.add_row(row);
  }
  table.print(std::cout);
  return response.failed == 0 ? 0 : api::exit_code(api::StatusCode::PartialFailure);
}

int render_version(const api::VersionResponse& response) {
  const auto join = [](const std::vector<std::string>& values) {
    std::string joined;
    for (const std::string& value : values) {
      if (!joined.empty()) joined += "|";
      joined += value;
    }
    return joined;
  };
  std::cout << response.server << " (protocol " << response.protocol << ")\n"
            << "requests:           " << join(response.requests) << "\n"
            << "solvers:            " << join(response.solvers) << "\n"
            << "constraint recipes: " << join(response.constraint_recipes) << "\n";
  return 0;
}

int render_text(const Arguments& args, const api::Response& response) {
  if (const auto* typed = std::get_if<api::OptimizeResponse>(&response)) {
    return render_optimize(args, *typed);
  }
  if (const auto* typed = std::get_if<api::EvaluateResponse>(&response)) {
    return render_evaluate(*typed);
  }
  if (const auto* typed = std::get_if<api::ReportResponse>(&response)) {
    std::cout << typed->text;
    return 0;
  }
  if (const auto* typed = std::get_if<api::SimilarityResponse>(&response)) {
    return render_similarity(*typed);
  }
  if (const auto* typed = std::get_if<api::BatchResponse>(&response)) {
    return render_batch(*typed);
  }
  if (const auto* typed = std::get_if<api::VersionResponse>(&response)) {
    return render_version(*typed);
  }
  ensure(false, "render_text", "unreachable response type");
  return 0;
}

// ---------------------------------------------------------------------------
// Local batch paths (DESIGN.md §13).  `--report deterministic` and
// `--shard K/N` bypass the api session (a deterministic report is not a
// BatchResponse, and a shard writes no report at all) and drive
// BatchRunner directly, through the session's fail-fast
// runner::expand_validated.

runner::ShardSpec parse_shard_flag(const std::string& value) {
  try {
    return runner::parse_shard(value);
  } catch (const InvalidArgument& error) {
    throw UsageError(error.what());
  }
}

/// Deterministic outputs: timing-free CSV/JSON (byte-stable across runs,
/// thread counts and store temperature).  CSV goes to stdout when no
/// --csv/--json file is named.
void write_deterministic_outputs(const Arguments& args, const runner::BatchReport& report) {
  std::ostringstream csv;
  report.write_csv(csv, /*include_timings=*/false);
  bool wrote = false;
  if (const auto it = args.options.find("csv"); it != args.options.end()) {
    write_text_file(it->second, csv.str());
    wrote = true;
  }
  if (const auto it = args.options.find("json"); it != args.options.end()) {
    write_text_file(it->second, report.to_json(/*include_timings=*/false).dump_pretty() + "\n");
    wrote = true;
  }
  if (!wrote) std::cout << csv.str();
}

/// `--report deterministic` writes the grid's report; `--shard K/N`
/// computes the cells shard K owns into --store and writes no report,
/// because a final `--report deterministic` pass over the store is the
/// fleet's report.
int run_batch_local(const Arguments& args) {
  runner::BatchOptions options;
  if (const auto it = args.options.find("threads"); it != args.options.end()) {
    options.threads = parse_threads(it->second);
  }
  options.store_dir = option_or(args, "store");
  std::optional<runner::ShardSpec> shard;
  if (const auto it = args.options.find("shard"); it != args.options.end()) {
    shard = parse_shard_flag(it->second);
    if (options.store_dir.empty()) {
      throw UsageError("batch --shard needs --store DIR, where the shards' results meet");
    }
  }
  const auto grid_it = args.options.find("grid");
  if (grid_it == args.options.end()) throw UsageError("missing required --grid");
  std::vector<runner::ScenarioSpec> specs = runner::expand_validated(
      runner::ScenarioGrid::from_json(support::Json::parse(read_file(grid_it->second))));
  const std::size_t grid_cells = specs.size();
  // The engine runs without a store it cannot use, which would drop every
  // result a shard computes.  The probe creates nothing.  A MANIFEST is
  // written once, under the store's LOCK, so probing again after the run
  // also catches another format version's binary that created the store
  // while this one was starting.
  const std::string store_dir = options.store_dir;
  const auto check_store = [&store_dir] {
    const std::string reason = runner::DiskArtifactStore::unusable_reason(store_dir);
    if (!reason.empty()) throw Infeasible("batch --shard: " + reason);
  };
  if (shard) {
    std::erase_if(specs, [&shard](const runner::ScenarioSpec& spec) {
      return !runner::shard_owns(*shard, runner::scenario_solve_key(spec));
    });
    check_store();
  }
  // A shard that owns no cell runs the engine too, so every shard gets
  // the same checks (the worker ceiling among them).
  const runner::BatchReport report = runner::BatchRunner(std::move(options)).run(specs);
  if (shard) {
    check_store();
    std::cerr << "shard " << shard->index << "/" << shard->count << ": " << specs.size() << "/"
              << grid_cells << " cells, " << report.failed_count() << " failed\n";
  } else {
    write_deterministic_outputs(args, report);
  }
  return report.failed_count() == 0 ? 0 : api::exit_code(api::StatusCode::PartialFailure);
}

int dispatch(const Arguments& args, const std::string& mode, OutputFormat format) {
  if (mode == "batch --shard" || mode == "batch --report deterministic") {
    return run_batch_local(args);
  }
  const api::Request request = build_request(args);

  api::SessionOptions options;
  if (format == OutputFormat::Text && args.command == "batch") {
    options.on_batch_result = [](const runner::ScenarioResult&) { std::cerr << "." << std::flush; };
    const support::Json& grid = std::get<api::BatchRequest>(request).grid;
    const support::Json* name = grid.is_object() ? grid.as_object().find("name") : nullptr;
    std::cerr << "running grid \"" << (name != nullptr ? name->as_string() : "batch") << "\"\n";
  }
  api::Session session(options);
  const api::Response response = api::execute(request, session);
  write_output_files(args, response);
  if (format == OutputFormat::Json) {
    std::cout << api::response_to_wire(response).dump_pretty() << "\n";
    if (const auto* batch = std::get_if<api::BatchResponse>(&response)) {
      return batch->failed == 0 ? 0 : api::exit_code(api::StatusCode::PartialFailure);
    }
    return 0;
  }
  return render_text(args, response);
}

void print_usage() {
  std::cerr << "usage: icsdiv_cli <command> [flags] [--format text|json]\n\ncommands:\n"
            << "  optimize    --catalog FILE --network FILE [--out FILE] [--solver "
            << mrf::SolverRegistry::instance().names_joined() << "]\n"
            << R"(              [--max-iterations N]
  evaluate    --catalog FILE --network FILE --assignment FILE [--entry HOST --target HOST]
  report      --catalog FILE --network FILE --assignment FILE
  similarity  --feed FILE --cpe QUERY --cpe QUERY [--cpe QUERY ...]
  batch       --grid FILE [--csv FILE] [--json FILE] [--threads N]
              [--store DIR] [--report deterministic]
              (a grid may carry an "attack" block — MTTC axes — and a
               "metrics" block — d_bn entry/target sweeps; reports then
               add mttc_* and d_bn_*/p_with/p_without columns)
              --store DIR keeps stage artifacts in an on-disk store shared
              across runs and processes; --report deterministic emits
              timing-free CSV/JSON
  batch       --grid FILE --shard K/N --store DIR [--threads N]
              (computes shard K of N into the store and writes no report;
               a final --store DIR --report deterministic pass writes the
               fleet's report, byte-identical to an unsharded run)
  version     (protocol handshake, registered solvers and recipes)

Every compute command also accepts --timeout-ms N (wall-clock deadline;
optimize returns its best-so-far assignment tagged "truncated", other
commands fail with deadline_exceeded).

--format json prints the icsdivd wire envelope (machine-readable,
errors included) instead of tables.

The local batch modes (--report deterministic, --shard) take neither
--timeout-ms nor --format.  A flag the command does not read is an
error (exit 2).
)";
}

}  // namespace

int main(int argc, char** argv) {
  OutputFormat format = OutputFormat::Text;
  try {
    const Arguments args = parse_arguments(argc, argv);
    const std::string mode = mode_of(args);
    // Errors honour --format wherever the mode takes it, flag errors included.
    if (flags_by_mode().at(mode).contains("format")) format = parse_format(args);
    check_flags(args, mode);
    return dispatch(args, mode, format);
  } catch (const std::exception& error) {
    const api::ErrorBody body = api::make_error_body(error);
    if (format == OutputFormat::Json) {
      std::cout << api::error_to_wire(body).dump_pretty() << "\n";
    } else {
      std::cerr << "error: " << body.message << "\n";
      if (dynamic_cast<const UsageError*>(&error) != nullptr) {
        std::cerr << "\n";
        print_usage();
      }
    }
    return api::exit_code(body.code);
  }
}
