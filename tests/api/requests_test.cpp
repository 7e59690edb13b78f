// Wire round-trips for the typed request/response API and the stable
// error-body mapping of the icsdiv::Error hierarchy.
#include "api/requests.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <initializer_list>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "api/status.hpp"
#include "support/error.hpp"
#include "support/json.hpp"

namespace icsdiv::api {
namespace {

support::Json doc(const std::string& text) { return support::Json::parse(text); }

/// to_wire → from_wire → to_wire must be a fixed point.
void expect_request_round_trip(const Request& request) {
  const support::Json wire = request_to_wire(request);
  const Request decoded = request_from_wire(wire);
  EXPECT_EQ(request.index(), decoded.index());
  EXPECT_EQ(request_to_wire(decoded).dump(), wire.dump());
}

void expect_response_round_trip(const Response& response) {
  const support::Json wire = response_to_wire(response);
  const Response decoded = response_from_wire(wire);
  EXPECT_EQ(response.index(), decoded.index());
  EXPECT_EQ(response_to_wire(decoded).dump(), wire.dump());
}

TEST(RequestWire, RoundTripsEveryRequestType) {
  OptimizeRequest optimize;
  optimize.catalog = doc(R"({"format":"icsdiv-catalog","services":[]})");
  optimize.network = doc(R"({"format":"icsdiv-network","hosts":[],"links":[]})");
  optimize.solver = "icm";
  expect_request_round_trip(optimize);

  optimize.solver.clear();  // default solver is omitted from the wire
  EXPECT_EQ(request_to_wire(optimize).as_object().find("solver"), nullptr);
  expect_request_round_trip(optimize);

  EvaluateRequest evaluate;
  evaluate.catalog = doc("{}");
  evaluate.network = doc("{}");
  evaluate.assignment = doc(R"({"hosts":[]})");
  evaluate.entry = "h0";
  evaluate.target = "h5";
  expect_request_round_trip(evaluate);

  ReportRequest report;
  report.catalog = doc("{}");
  report.network = doc("{}");
  report.assignment = doc("{}");
  expect_request_round_trip(report);

  SimilarityRequest similarity;
  similarity.feed = doc(R"({"CVE_Items":[]})");
  similarity.cpes = {"cpe:2.3:o:a:b", "cpe:2.3:o:c:d"};
  expect_request_round_trip(similarity);

  BatchRequest batch;
  batch.grid = doc(R"({"name":"g","hosts":[8]})");
  batch.threads = 3;
  expect_request_round_trip(batch);
  batch.store_dir = "/var/cache/icsdiv/store";
  expect_request_round_trip(batch);

  MetricRequest metric;
  metric.catalog = doc("{}");
  metric.network = doc("{}");
  metric.assignment = doc("{}");
  metric.entry = "h0";
  metric.target = "h1";
  expect_request_round_trip(metric);

  expect_request_round_trip(StatusRequest{});
  expect_request_round_trip(VersionRequest{});
}

// ---------------------------------------------------------------------------
// Byte pins.  The round trips above are fixed points, so a reordered or
// renamed key would still pass them; these pin the exact bytes of a
// default and a filled instance of every wire type, key order included.

struct RequestPin {
  Request request;
  std::string_view bytes;
  bool decodes = true;  ///< false: the instance breaks a cross-field rule
};

struct ResponsePin {
  Response response;
  std::string bytes;
};

std::vector<RequestPin> request_pins() {
  OptimizeRequest optimize;
  optimize.catalog = doc(R"({"format":"icsdiv-catalog","services":[]})");
  optimize.network = doc(R"({"format":"icsdiv-network","hosts":[],"links":[]})");
  optimize.solver = "icm";
  optimize.max_iterations = 40;
  optimize.timeout_ms = 2500;

  EvaluateRequest evaluate;
  evaluate.catalog = doc("{}");
  evaluate.network = doc("{}");
  evaluate.assignment = doc(R"({"hosts":[]})");
  evaluate.entry = "h0";
  evaluate.target = "h5";
  evaluate.timeout_ms = 100;

  ReportRequest report;
  report.catalog = doc("{}");
  report.network = doc("{}");
  report.assignment = doc("{}");
  report.timeout_ms = 7;

  SimilarityRequest similarity;
  similarity.feed = doc(R"({"CVE_Items":[]})");
  similarity.cpes = {"cpe:2.3:o:a:b", "cpe:2.3:o:c:d"};
  similarity.timeout_ms = 9;

  BatchRequest batch;
  batch.grid = doc(R"({"name":"g","hosts":[8]})");
  batch.threads = 3;
  batch.timeout_ms = 250;
  batch.store_dir = "/var/cache/icsdiv/store";

  MetricRequest metric;
  metric.catalog = doc("{}");
  metric.network = doc("{}");
  metric.assignment = doc("{}");
  metric.entry = "h0";
  metric.target = "h1";
  metric.timeout_ms = 11;

  return {
      {OptimizeRequest{}, R"({"icsdivd":1,"request":"optimize","catalog":null,"network":null})"},
      {EvaluateRequest{},
       R"({"icsdivd":1,"request":"evaluate","catalog":null,"network":null,"assignment":null})"},
      {ReportRequest{},
       R"({"icsdivd":1,"request":"report","catalog":null,"network":null,"assignment":null})"},
      {SimilarityRequest{}, R"({"icsdivd":1,"request":"similarity","feed":null,"cpes":[]})",
       false},
      {BatchRequest{}, R"({"icsdivd":1,"request":"batch","grid":null})"},
      {MetricRequest{},
       R"({"icsdivd":1,"request":"metric","catalog":null,"network":null,"assignment":null,)"
       R"("entry":"","target":""})"},
      {StatusRequest{}, R"({"icsdivd":1,"request":"status"})"},
      {VersionRequest{}, R"({"icsdivd":1,"request":"version"})"},
      {optimize,
       R"({"icsdivd":1,"request":"optimize","catalog":{"format":"icsdiv-catalog","services":[]},)"
       R"("network":{"format":"icsdiv-network","hosts":[],"links":[]},"solver":"icm",)"
       R"("max_iterations":40,"timeout_ms":2500})"},
      {evaluate,
       R"({"icsdivd":1,"request":"evaluate","catalog":{},"network":{},)"
       R"("assignment":{"hosts":[]},"entry":"h0","target":"h5","timeout_ms":100})"},
      {report,
       R"({"icsdivd":1,"request":"report","catalog":{},"network":{},"assignment":{},)"
       R"("timeout_ms":7})"},
      {similarity,
       R"({"icsdivd":1,"request":"similarity","feed":{"CVE_Items":[]},)"
       R"("cpes":["cpe:2.3:o:a:b","cpe:2.3:o:c:d"],"timeout_ms":9})"},
      // timeout_ms before store_dir: the order the fields were added in.
      {batch,
       R"({"icsdivd":1,"request":"batch","grid":{"name":"g","hosts":[8]},"threads":3,)"
       R"("timeout_ms":250,"store_dir":"/var/cache/icsdiv/store"})"},
      {metric,
       R"({"icsdivd":1,"request":"metric","catalog":{},"network":{},"assignment":{},)"
       R"("entry":"h0","target":"h1","timeout_ms":11})"},
  };
}

/// The six counters of a StageCounters block, as the pins spell them.
std::string counters(int planned, int executed, int hits, int evicted, int disk_hits,
                     int disk_writes) {
  return std::string(R"({"planned":)")
      .append(std::to_string(planned))
      .append(R"(,"executed":)")
      .append(std::to_string(executed))
      .append(R"(,"hits":)")
      .append(std::to_string(hits))
      .append(R"(,"evicted":)")
      .append(std::to_string(evicted))
      .append(R"(,"disk_hits":)")
      .append(std::to_string(disk_hits))
      .append(R"(,"disk_writes":)")
      .append(std::to_string(disk_writes))
      .append("}");
}

/// {"key":value,...} from already-encoded values.
std::string object_of(std::initializer_list<std::pair<std::string_view, std::string>> entries) {
  std::string out = "{";
  for (const auto& [key, value] : entries) {
    if (out.size() > 1) out.append(",");
    out.append("\"").append(key).append("\":").append(value);
  }
  return out.append("}");
}

std::vector<ResponsePin> response_pins() {
  OptimizeResponse optimize;
  optimize.assignment = doc(R"({"hosts":[{"name":"h0"}]})");
  optimize.energy = -12.5;
  optimize.pairwise_similarity = 3.25;
  optimize.iterations = 40;
  optimize.converged = true;
  optimize.truncated = true;
  optimize.solve_seconds = 0.125;
  optimize.cached = true;

  EvaluateResponse evaluate;
  evaluate.edge_similarity = 10.5;
  evaluate.average_similarity = 0.25;
  evaluate.normalized_richness = 0.75;
  evaluate.pair_evaluated = true;
  evaluate.d_bn = 0.5;
  evaluate.log10_p_with = -3.5;
  evaluate.exploit_count = 4;
  evaluate.mttc_runs = 500;
  evaluate.mttc_mean = 17.5;
  evaluate.mttc_uncensored_mean = 16.25;
  evaluate.mttc_censored = 2;
  evaluate.cached = true;

  ReportResponse report;
  report.text = "=== report ===\n";
  report.cached = true;

  SimilarityResponse similarity;
  similarity.pairs.push_back({"a", "b", 0.125, 3, 10, 12});
  similarity.pairs.push_back({"a", "c", 0.0, 0, 10, 1});
  similarity.cached = true;

  BatchResponse batch;
  batch.report = doc(R"({"cells":2,"stage_stats":{}})");
  batch.csv = "name,energy\n";
  batch.cells = 2;
  batch.failed = 1;
  batch.cached = true;

  MetricResponse metric;
  metric.d_bn = 0.5;
  metric.p_with = 0.25;
  metric.p_without = 0.125;
  metric.cached = true;

  StatusResponse status;
  status.server = "icsdivd/test";
  status.uptime_seconds = 12.5;
  status.requests_total = 9;
  status.requests_failed = 1;
  status.requests_rejected = 2;
  status.requests_admitted = 6;
  status.requests_deadline = 1;
  status.in_flight = 3;
  status.queued = 4;
  status.solve_seconds_total = 1.5;
  status.batch_wall_seconds_total = 2.5;
  status.solve_cache = {8, 1, 7, 0, 2, 3};
  status.eval_cache.planned = 5;
  status.batch_cache.hits = 6;
  status.batch_stages.solve.executed = 2;
  status.batch_stages.metric.disk_writes = 4;

  VersionResponse version;
  version.requests = request_names();
  version.solvers = {"trws", "icm"};
  version.constraint_recipes = {"none"};

  // Non-finite doubles travel as null; an unreachable target's
  // exploit_count too.
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  OptimizeResponse optimize_non_finite;
  optimize_non_finite.energy = inf;
  optimize_non_finite.pairwise_similarity = nan;

  EvaluateResponse evaluate_non_finite;
  evaluate_non_finite.edge_similarity = nan;
  evaluate_non_finite.average_similarity = inf;
  evaluate_non_finite.normalized_richness = -inf;
  evaluate_non_finite.pair_evaluated = true;
  evaluate_non_finite.d_bn = nan;
  evaluate_non_finite.log10_p_with = -inf;
  evaluate_non_finite.mttc_runs = 500;
  evaluate_non_finite.mttc_mean = inf;
  evaluate_non_finite.mttc_uncensored_mean = nan;
  evaluate_non_finite.mttc_censored = 500;

  SimilarityResponse similarity_non_finite;
  similarity_non_finite.pairs.push_back({"a", "b", nan, 0, 0, 0});

  MetricResponse metric_non_finite;
  metric_non_finite.d_bn = nan;
  metric_non_finite.p_with = inf;
  metric_non_finite.p_without = -inf;

  const std::string zero = counters(0, 0, 0, 0, 0, 0);
  const std::string default_status =
      std::string(R"({"icsdivd":1,"status":"ok","response":"status","result":{"protocol":1,)")
          .append(R"("server":"icsdivd/1.0","uptime_seconds":0,"requests":{"total":0,)")
          .append(R"("failed":0,"rejected":0,"admitted":0,"deadline":0},"in_flight":0,)")
          .append(R"("queued":0,"solve_seconds_total":0,"batch_wall_seconds_total":0,)")
          .append(R"("stage_stats":)")
          .append(object_of({{"solve", zero}, {"eval", zero}, {"batch", zero}}))
          .append(R"(,"batch_stage_stats":)")
          .append(object_of({{"workload", zero},
                             {"problem", zero},
                             {"solve", zero},
                             {"channels", zero},
                             {"attack", zero},
                             {"metric", zero}}))
          .append("}}");
  const std::string filled_status =
      std::string(R"({"icsdivd":1,"status":"ok","response":"status","result":{"protocol":1,)")
          .append(R"("server":"icsdivd/test","uptime_seconds":12.5,"requests":{"total":9,)")
          .append(R"("failed":1,"rejected":2,"admitted":6,"deadline":1},"in_flight":3,)")
          .append(R"("queued":4,"solve_seconds_total":1.5,"batch_wall_seconds_total":2.5,)")
          .append(R"("stage_stats":)")
          .append(object_of({{"solve", counters(8, 1, 7, 0, 2, 3)},
                             {"eval", counters(5, 0, 0, 0, 0, 0)},
                             {"batch", counters(0, 0, 6, 0, 0, 0)}}))
          .append(R"(,"batch_stage_stats":)")
          .append(object_of({{"workload", zero},
                             {"problem", zero},
                             {"solve", counters(0, 2, 0, 0, 0, 0)},
                             {"channels", zero},
                             {"attack", zero},
                             {"metric", counters(0, 0, 0, 0, 0, 4)}}))
          .append("}}");

  return {
      {OptimizeResponse{},
       R"({"icsdivd":1,"status":"ok","response":"optimize","result":{"assignment":null,)"
       R"("energy":0,"pairwise_similarity":0,"iterations":0,"converged":false,)"
       R"("solve_seconds":0,"cached":false}})"},
      {EvaluateResponse{},
       R"({"icsdivd":1,"status":"ok","response":"evaluate","result":{"edge_similarity":0,)"
       R"("average_similarity":0,"normalized_richness":0,"cached":false}})"},
      {ReportResponse{},
       R"({"icsdivd":1,"status":"ok","response":"report","result":{"text":"","cached":false}})"},
      {SimilarityResponse{},
       R"({"icsdivd":1,"status":"ok","response":"similarity","result":{"pairs":[],)"
       R"("cached":false}})"},
      {BatchResponse{},
       R"({"icsdivd":1,"status":"ok","response":"batch","result":{"report":null,"csv":"",)"
       R"("cells":0,"failed":0,"cached":false}})"},
      {MetricResponse{},
       R"({"icsdivd":1,"status":"ok","response":"metric","result":{"d_bn":0,"p_with":0,)"
       R"("p_without":0,"cached":false}})"},
      {StatusResponse{}, default_status},
      {VersionResponse{},
       R"({"icsdivd":1,"status":"ok","response":"version","result":{"protocol":1,)"
       R"("server":"icsdivd/1.0","requests":[],"solvers":[],"constraint_recipes":[]}})"},
      {optimize,
       R"({"icsdivd":1,"status":"ok","response":"optimize","result":{)"
       R"("assignment":{"hosts":[{"name":"h0"}]},"energy":-12.5,"pairwise_similarity":3.25,)"
       R"("iterations":40,"converged":true,"truncated":true,"solve_seconds":0.125,)"
       R"("cached":true}})"},
      // The pair block comes before cached.
      {evaluate,
       R"({"icsdivd":1,"status":"ok","response":"evaluate","result":{"edge_similarity":10.5,)"
       R"("average_similarity":0.25,"normalized_richness":0.75,"pair":{"d_bn":0.5,)"
       R"("log10_p_with":-3.5,"exploit_count":4,"mttc_runs":500,"mttc_mean":17.5,)"
       R"("mttc_uncensored_mean":16.25,"mttc_censored":2},"cached":true}})"},
      {report,
       R"({"icsdivd":1,"status":"ok","response":"report","result":{"text":"=== report ===\n",)"
       R"("cached":true}})"},
      {similarity,
       R"({"icsdivd":1,"status":"ok","response":"similarity","result":{"pairs":[{"a":"a",)"
       R"("b":"b","similarity":0.125,"shared":3,"count_a":10,"count_b":12},{"a":"a","b":"c",)"
       R"("similarity":0,"shared":0,"count_a":10,"count_b":1}],"cached":true}})"},
      {batch,
       R"({"icsdivd":1,"status":"ok","response":"batch","result":{)"
       R"("report":{"cells":2,"stage_stats":{}},"csv":"name,energy\n","cells":2,"failed":1,)"
       R"("cached":true}})"},
      {metric,
       R"({"icsdivd":1,"status":"ok","response":"metric","result":{"d_bn":0.5,"p_with":0.25,)"
       R"("p_without":0.125,"cached":true}})"},
      {status, filled_status},
      {version,
       R"({"icsdivd":1,"status":"ok","response":"version","result":{"protocol":1,)"
       R"("server":"icsdivd/1.0","requests":["optimize","evaluate","report","similarity",)"
       R"("batch","metric","status","version"],"solvers":["trws","icm"],)"
       R"("constraint_recipes":["none"]}})"},
      {optimize_non_finite,
       R"({"icsdivd":1,"status":"ok","response":"optimize","result":{"assignment":null,)"
       R"("energy":null,"pairwise_similarity":null,"iterations":0,"converged":false,)"
       R"("solve_seconds":0,"cached":false}})"},
      {evaluate_non_finite,
       R"({"icsdivd":1,"status":"ok","response":"evaluate","result":{"edge_similarity":null,)"
       R"("average_similarity":null,"normalized_richness":null,"pair":{"d_bn":null,)"
       R"("log10_p_with":null,"exploit_count":null,"mttc_runs":500,"mttc_mean":null,)"
       R"("mttc_uncensored_mean":null,"mttc_censored":500},"cached":false}})"},
      {similarity_non_finite,
       R"({"icsdivd":1,"status":"ok","response":"similarity","result":{"pairs":[{"a":"a",)"
       R"("b":"b","similarity":null,"shared":0,"count_a":0,"count_b":0}],"cached":false}})"},
      {metric_non_finite,
       R"({"icsdivd":1,"status":"ok","response":"metric","result":{"d_bn":null,"p_with":null,)"
       R"("p_without":null,"cached":false}})"},
  };
}

TEST(WirePins, RequestBytesAreFrozen) {
  for (const RequestPin& pin : request_pins()) {
    EXPECT_EQ(request_to_wire(pin.request).dump(), pin.bytes);
    if (!pin.decodes) continue;
    // The pinned bytes decode to the same request.
    const Request decoded = request_from_wire(support::Json::parse(pin.bytes));
    EXPECT_EQ(decoded.index(), pin.request.index()) << pin.bytes;
    EXPECT_EQ(request_to_wire(decoded).dump(), pin.bytes);
  }
}

TEST(WirePins, ResponseBytesAreFrozen) {
  for (const ResponsePin& pin : response_pins()) {
    EXPECT_EQ(response_to_wire(pin.response).dump(), pin.bytes);
    const Response decoded = response_from_wire(support::Json::parse(pin.bytes));
    EXPECT_EQ(decoded.index(), pin.response.index()) << pin.bytes;
    EXPECT_EQ(response_to_wire(decoded).dump(), pin.bytes);
  }
}

// Single-fault malformed requests: the exact message and status code each
// one gets.
TEST(WirePins, MalformedRequestMessagesAreFrozen) {
  struct Case {
    std::string_view wire;
    std::string_view message;
  };
  const Case cases[] = {
      {R"({"request":"optimize","catalog":{}})", R"(missing required "network" in optimize)"},
      {R"({})", R"(missing required "request" in request envelope)"},
      {R"({"request":"version","bogus":1})", R"(unknown key "bogus" in version)"},
      {R"({"request":"report","catalog":{},"network":{},"assignment":{},"solver":"icm"})",
       R"(unknown key "solver" in report)"},
      {R"({"request":"optimize","catalog":{},"network":{},"max_iterations":-1})",
       "optimize max_iterations must be non-negative"},
      {R"({"request":"optimize","catalog":{},"network":{},"timeout_ms":-5})",
       "optimize timeout_ms must be non-negative"},
      {R"({"request":"batch","grid":{},"threads":-2})", "batch threads must be non-negative"},
      {R"({"request":"evaluate","catalog":{},"network":{},"assignment":{},"entry":"h0"})",
       "evaluate needs both entry and target, or neither"},
      {R"({"request":"similarity","feed":{},"cpes":["cpe:2.3:o:a:b"]})",
       "similarity needs at least two cpe queries"},
      {R"({"request":"metric","catalog":{},"network":{},"assignment":{},"entry":"h0"})",
       R"(missing required "target" in metric)"},
      {R"({"request":"frobnicate"})", "unknown request: frobnicate"},
      {R"({"icsdivd":2,"request":"version"})",
       "unsupported protocol version 2 (this server speaks 1)"},
      {R"([1,2,3])", "request must be a JSON object"},
      {R"({"request":7})", "Json: value is not a string"},
      {R"({"request":"optimize","catalog":{},"network":{},"solver":7})",
       "Json: value is not a string"},
      {R"({"request":"similarity","feed":{},"cpes":"cpe:2.3:o:a:b"})",
       "Json: value is not an array"},
      {R"({"request":"batch","grid":{},"threads":"4"})", "Json: value is not an integer"},
  };
  for (const Case& c : cases) {
    try {
      (void)request_from_wire(support::Json::parse(c.wire));
      ADD_FAILURE() << "accepted " << c.wire;
    } catch (const std::exception& error) {
      EXPECT_EQ(error.what(), c.message) << c.wire;
      EXPECT_EQ(status_code_for(error), StatusCode::InvalidArgument) << c.wire;
    }
  }
}

TEST(RequestWire, NamesAreStable) {
  EXPECT_EQ(request_name(Request(OptimizeRequest{})), "optimize");
  EXPECT_EQ(request_name(Request(StatusRequest{})), "status");
  EXPECT_EQ(request_names().size(), std::variant_size_v<Request>);
}

// A protocol mismatch is in the malformed-request table above; omitting
// the handshake is allowed (a lenient client).
TEST(RequestWire, HandshakeMayBeOmitted) {
  EXPECT_NO_THROW((void)request_from_wire(doc(R"({"request":"version"})")));
}

TEST(ResponseWire, RoundTripsEveryResponseType) {
  OptimizeResponse optimize;
  optimize.assignment = doc(R"({"hosts":[{"name":"h0"}]})");
  optimize.energy = -12.5;
  optimize.pairwise_similarity = 3.25;
  optimize.iterations = 40;
  optimize.converged = true;
  optimize.solve_seconds = 0.125;
  expect_response_round_trip(optimize);

  EvaluateResponse evaluate;
  evaluate.edge_similarity = 10.5;
  evaluate.average_similarity = 0.25;
  evaluate.normalized_richness = 0.75;
  evaluate.pair_evaluated = true;
  evaluate.d_bn = 0.5;
  evaluate.log10_p_with = -3.5;
  evaluate.exploit_count = 4;
  evaluate.mttc_runs = 500;
  evaluate.mttc_mean = 17.5;
  evaluate.mttc_uncensored_mean = 16.25;
  evaluate.mttc_censored = 2;
  evaluate.cached = true;
  expect_response_round_trip(evaluate);

  evaluate.exploit_count.reset();  // unreachable target → null on the wire
  expect_response_round_trip(evaluate);

  ReportResponse report;
  report.text = "=== diversification report ===\n";
  expect_response_round_trip(report);

  SimilarityResponse similarity;
  similarity.pairs.push_back({"a", "b", 0.125, 3, 10, 12});
  expect_response_round_trip(similarity);

  BatchResponse batch;
  batch.report = doc(R"({"cells":2,"stage_stats":{}})");
  batch.csv = "name,energy\n";
  batch.cells = 2;
  batch.failed = 1;
  expect_response_round_trip(batch);

  MetricResponse metric;
  metric.d_bn = 0.5;
  metric.p_with = 0.25;
  metric.p_without = 0.125;
  expect_response_round_trip(metric);

  StatusResponse status;
  status.uptime_seconds = 12.5;
  status.requests_total = 9;
  status.requests_failed = 1;
  status.requests_rejected = 2;
  status.in_flight = 3;
  status.queued = 4;
  status.solve_seconds_total = 1.5;
  status.batch_wall_seconds_total = 2.5;
  status.solve_cache.planned = 8;
  status.solve_cache.executed = 1;
  status.solve_cache.hits = 7;
  status.batch_stages.solve.executed = 2;
  expect_response_round_trip(status);

  VersionResponse version;
  version.requests = request_names();
  version.solvers = {"trws", "icm"};
  version.constraint_recipes = {"none"};
  expect_response_round_trip(version);
}

TEST(ResponseWire, StatusKeepsTheDiskTierCounters) {
  StatusResponse status;
  status.solve_cache.disk_hits = 4;
  status.solve_cache.disk_writes = 5;
  status.batch_stages.solve.disk_hits = 2;
  status.batch_stages.solve.disk_writes = 3;
  const auto decoded = std::get<StatusResponse>(response_from_wire(response_to_wire(status)));
  EXPECT_EQ(decoded.solve_cache.disk_hits, 4u);
  EXPECT_EQ(decoded.solve_cache.disk_writes, 5u);
  EXPECT_EQ(decoded.batch_stages.solve.disk_hits, 2u);
  EXPECT_EQ(decoded.batch_stages.solve.disk_writes, 3u);
}

TEST(ResponseWire, NonFiniteNumbersTravelAsNull) {
  EvaluateResponse evaluate;
  evaluate.pair_evaluated = true;
  evaluate.mttc_censored = 500;
  evaluate.mttc_runs = 500;
  evaluate.mttc_uncensored_mean = std::nan("");  // every run censored
  const support::Json wire = response_to_wire(evaluate);
  const auto& pair =
      wire.as_object().at("result").as_object().at("pair").as_object();
  EXPECT_TRUE(pair.at("mttc_uncensored_mean").is_null());
  const auto decoded = std::get<EvaluateResponse>(response_from_wire(wire));
  EXPECT_TRUE(std::isnan(decoded.mttc_uncensored_mean));
}

// A reply that does not decode throws ParseError whichever check caught
// it, with that check's message.
TEST(ResponseWire, MalformedRepliesThrowParseError) {
  struct Case {
    std::string_view wire;
    std::string_view message;
  };
  const Case cases[] = {
      {R"({"icsdivd":1,"status":"ok","response":"optimize","result":{"energy":0,)"
       R"("pairwise_similarity":0,"iterations":0,"converged":false,"solve_seconds":0,)"
       R"("cached":false}})",
       R"(missing required "assignment" in optimize)"},
      {R"({"icsdivd":1,"response":"version","result":{}})",
       R"(missing required "status" in response envelope)"},
      {R"({"icsdivd":1,"status":"ok","response":"metric","result":{"d_bn":"high",)"
       R"("p_with":0,"p_without":0,"cached":false}})",
       "Json: value is not a number"},
      {R"({"icsdivd":1,"status":"bogus"})", R"(missing required "error" in error envelope)"},
      {R"({"icsdivd":1,"status":"bogus","error":{"code":"bogus","message":"m"}})",
       "unknown status code: bogus"},
      {R"({"icsdivd":2,"status":"ok","response":"version","result":{}})",
       "unsupported protocol version 2 (this server speaks 1)"},
      {R"({"icsdivd":1,"status":"ok","response":"frobnicate","result":{}})",
       "unknown response: frobnicate"},
      {R"({"icsdivd":1,"status":"ok","response":"status","result":{"protocol":1,)"
       R"("server":"s","uptime_seconds":0,"requests":{"total":0}}})",
       R"(missing required "failed" in requests)"},
      {R"([])", "response must be a JSON object"},
  };
  for (const Case& c : cases) {
    try {
      (void)response_from_wire(support::Json::parse(c.wire));
      ADD_FAILURE() << "accepted " << c.wire;
    } catch (const ParseError& error) {
      EXPECT_EQ(error.what(), c.message) << c.wire;
    } catch (const std::exception& error) {
      ADD_FAILURE() << "not a ParseError: " << error.what() << " from " << c.wire;
    }
  }
}

TEST(ResponseWire, SuccessEnvelopeShape) {
  const support::Json wire = response_to_wire(VersionResponse{});
  const support::JsonObject& object = wire.as_object();
  EXPECT_EQ(object.at("icsdivd").as_integer(), kProtocolVersion);
  EXPECT_EQ(object.at("status").as_string(), "ok");
  EXPECT_EQ(object.at("response").as_string(), "version");
  EXPECT_NE(object.find("result"), nullptr);
}

// ---------------------------------------------------------------------------
// Status codes and error bodies.

TEST(StatusCodes, ExitCodesAreFrozen) {
  EXPECT_EQ(exit_code(StatusCode::Ok), 0);
  EXPECT_EQ(exit_code(StatusCode::InvalidArgument), 2);
  EXPECT_EQ(exit_code(StatusCode::ParseError), 3);
  EXPECT_EQ(exit_code(StatusCode::NotFound), 4);
  EXPECT_EQ(exit_code(StatusCode::Infeasible), 5);
  EXPECT_EQ(exit_code(StatusCode::LogicError), 6);
  EXPECT_EQ(exit_code(StatusCode::Saturated), 7);
  EXPECT_EQ(exit_code(StatusCode::PartialFailure), 8);
  EXPECT_EQ(exit_code(StatusCode::Internal), 9);
}

TEST(StatusCodes, NamesRoundTrip) {
  for (const StatusCode code :
       {StatusCode::Ok, StatusCode::InvalidArgument, StatusCode::ParseError, StatusCode::NotFound,
        StatusCode::Infeasible, StatusCode::LogicError, StatusCode::Saturated,
        StatusCode::PartialFailure, StatusCode::Internal}) {
    EXPECT_EQ(status_code_from_name(status_code_name(code)), code);
  }
  EXPECT_THROW((void)status_code_from_name("nope"), InvalidArgument);
}

TEST(ErrorBodies, MapEveryErrorSubclass) {
  const auto expect_mapping = [](const std::exception& error, StatusCode code,
                                 std::string_view detail) {
    EXPECT_EQ(status_code_for(error), code) << error.what();
    const ErrorBody body = make_error_body(error);
    EXPECT_EQ(body.code, code);
    EXPECT_EQ(body.message, error.what());
    EXPECT_EQ(body.detail, detail);
  };
  expect_mapping(InvalidArgument("bad flag"), StatusCode::InvalidArgument,
                 "icsdiv::InvalidArgument");
  expect_mapping(ParseError("bad json"), StatusCode::ParseError, "icsdiv::ParseError");
  expect_mapping(NotFound("no such host"), StatusCode::NotFound, "icsdiv::NotFound");
  expect_mapping(Infeasible("unsatisfiable"), StatusCode::Infeasible, "icsdiv::Infeasible");
  expect_mapping(LogicError("broken invariant"), StatusCode::LogicError, "icsdiv::LogicError");
  expect_mapping(SaturatedError("queue full", 2.5), StatusCode::Saturated,
                 "icsdiv::api::SaturatedError");
  expect_mapping(Error("plain"), StatusCode::Internal, "std::exception");
  expect_mapping(std::runtime_error("anything"), StatusCode::Internal, "std::exception");
}

TEST(ErrorBodies, ThrowRebuildsTheMatchingType) {
  EXPECT_THROW(throw_error_body(make_error_body(InvalidArgument("x"))), InvalidArgument);
  EXPECT_THROW(throw_error_body(make_error_body(ParseError("x"))), ParseError);
  EXPECT_THROW(throw_error_body(make_error_body(NotFound("x"))), NotFound);
  EXPECT_THROW(throw_error_body(make_error_body(Infeasible("x"))), Infeasible);
  EXPECT_THROW(throw_error_body(make_error_body(LogicError("x"))), LogicError);
  EXPECT_THROW(throw_error_body(make_error_body(Error("x"))), Error);
  try {
    throw_error_body(make_error_body(SaturatedError("queue full", 2.5)));
    FAIL() << "expected SaturatedError";
  } catch (const SaturatedError& error) {
    EXPECT_EQ(std::string(error.what()), "queue full");
    EXPECT_DOUBLE_EQ(error.retry_after_seconds(), 2.5);
  }
}

TEST(ErrorBodies, JsonCarriesRetryAfterOnlyWhenPresent) {
  const ErrorBody saturated = make_error_body(SaturatedError("q", 1.5));
  const support::Json with = saturated.to_json();
  EXPECT_DOUBLE_EQ(with.as_object().at("retry_after_seconds").as_double(), 1.5);

  const ErrorBody plain = make_error_body(NotFound("n"));
  const support::Json without = plain.to_json();
  EXPECT_EQ(without.as_object().find("retry_after_seconds"), nullptr);

  const ErrorBody decoded = ErrorBody::from_json(saturated.to_json());
  EXPECT_EQ(decoded.code, StatusCode::Saturated);
  EXPECT_DOUBLE_EQ(decoded.retry_after_seconds, 1.5);
}

TEST(ErrorBodies, ErrorEnvelopeRethrowsThroughResponseFromWire) {
  const support::Json wire = error_to_wire(make_error_body(NotFound("no such host: h99")));
  EXPECT_EQ(wire.as_object().at("status").as_string(), "not_found");
  try {
    (void)response_from_wire(wire);
    FAIL() << "expected NotFound";
  } catch (const NotFound& error) {
    EXPECT_EQ(std::string(error.what()), "no such host: h99");
  }
}

}  // namespace
}  // namespace icsdiv::api
