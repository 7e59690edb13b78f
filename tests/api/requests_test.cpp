// Wire round-trips for the typed request/response API and the stable
// error-body mapping of the icsdiv::Error hierarchy.
#include "api/requests.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <variant>

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

TEST(RequestWire, NamesAreStable) {
  EXPECT_EQ(request_name(Request(OptimizeRequest{})), "optimize");
  EXPECT_EQ(request_name(Request(StatusRequest{})), "status");
  EXPECT_EQ(request_names().size(), std::variant_size_v<Request>);
}

TEST(RequestWire, RejectsProtocolMismatch) {
  EXPECT_THROW((void)request_from_wire(doc(R"({"icsdivd":2,"request":"version"})")),
               InvalidArgument);
  // Omitting the handshake is allowed (a lenient client).
  EXPECT_NO_THROW((void)request_from_wire(doc(R"({"request":"version"})")));
}

TEST(RequestWire, RejectsUnknownRequestAndKeys) {
  EXPECT_THROW((void)request_from_wire(doc(R"({"request":"frobnicate"})")), InvalidArgument);
  EXPECT_THROW((void)request_from_wire(doc(R"({"request":"version","bogus":1})")),
               InvalidArgument);
  EXPECT_THROW((void)request_from_wire(doc(R"([1,2,3])")), InvalidArgument);
  EXPECT_THROW((void)request_from_wire(doc(R"({"request":"optimize","catalog":{}})")),
               InvalidArgument);  // missing network
}

TEST(RequestWire, EvaluateNeedsBothOrNeitherOfEntryTarget) {
  const char* just_entry =
      R"({"request":"evaluate","catalog":{},"network":{},"assignment":{},"entry":"h0"})";
  EXPECT_THROW((void)request_from_wire(doc(just_entry)), InvalidArgument);
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
