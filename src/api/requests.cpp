#include "api/requests.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <concepts>
#include <type_traits>
#include <utility>

namespace icsdiv::api {

namespace {

// ---------------------------------------------------------------------------
// Wire names, indexed by variant alternative.  `Request` and `Response`
// list their alternatives in this order, so a reply carries the name of
// the request it answers.

constexpr std::array<std::string_view, 8> kNames = {
    "optimize", "evaluate", "report", "similarity", "batch", "metric", "status", "version"};
static_assert(std::variant_size_v<Request> == kNames.size());
static_assert(std::variant_size_v<Response> == kNames.size());

/// The alternative a wire name selects; kNames.size() when it names none.
std::size_t name_index(std::string_view name) {
  return static_cast<std::size_t>(std::find(kNames.begin(), kNames.end(), name) -
                                  kNames.begin());
}

// ---------------------------------------------------------------------------
// Field lists (DESIGN.md §10).  Every wire type lists its fields once, in
// wire order, in `fields(Self&, Visit&&)`, where `Self` is const when
// encoding.  One encoder, one strict request decoder and one lenient reply
// decoder walk these lists.  An entry's kind and its member's type give
// the rule:
//
//   Field        always sent and required.  Documents, strings, string
//                lists, integers and bools travel as themselves; a double
//                that is not finite travels as null, and so does an empty
//                optional integer; StageCounters and StageStats use their
//                own codecs.
//   OmitDefault  sent only when it differs from its default ("", false or
//                0) and optional on the way in; an integer must be
//                non-negative.
//   Records      an array with one object per element, each element
//                walking its own field list.
//   Block        a nested object with its own field list.  Given
//                `present`, it is sent only when *present is true, and
//                decoding sets *present to whether it arrived.

template <typename T>
struct Field {
  std::string_view key;
  T& value;
};

template <typename T>
struct OmitDefault {
  std::string_view key;
  T& value;
};

template <typename T>
struct Records {
  std::string_view key;
  T& values;
};

template <typename List, typename Flag = bool>
struct Block {
  std::string_view key;
  List fields;
  Flag* present = nullptr;
};

/// `Self` is `T` or `const T`.
template <typename Self, typename T>
concept Of = std::same_as<std::remove_const_t<Self>, T>;

// Requests.  The envelope keys "icsdivd" and "request" are not fields.

void fields(Of<OptimizeRequest> auto& r, auto&& visit) {
  visit(Field{"catalog", r.catalog}, Field{"network", r.network},
        OmitDefault{"solver", r.solver}, OmitDefault{"max_iterations", r.max_iterations},
        OmitDefault{"timeout_ms", r.timeout_ms});
}

void fields(Of<EvaluateRequest> auto& r, auto&& visit) {
  visit(Field{"catalog", r.catalog}, Field{"network", r.network},
        Field{"assignment", r.assignment}, OmitDefault{"entry", r.entry},
        OmitDefault{"target", r.target}, OmitDefault{"timeout_ms", r.timeout_ms});
}

void fields(Of<ReportRequest> auto& r, auto&& visit) {
  visit(Field{"catalog", r.catalog}, Field{"network", r.network},
        Field{"assignment", r.assignment}, OmitDefault{"timeout_ms", r.timeout_ms});
}

void fields(Of<SimilarityRequest> auto& r, auto&& visit) {
  visit(Field{"feed", r.feed}, Field{"cpes", r.cpes}, OmitDefault{"timeout_ms", r.timeout_ms});
}

void fields(Of<BatchRequest> auto& r, auto&& visit) {
  visit(Field{"grid", r.grid}, OmitDefault{"threads", r.threads},
        OmitDefault{"timeout_ms", r.timeout_ms}, OmitDefault{"store_dir", r.store_dir});
}

void fields(Of<MetricRequest> auto& r, auto&& visit) {
  visit(Field{"catalog", r.catalog}, Field{"network", r.network},
        Field{"assignment", r.assignment}, Field{"entry", r.entry}, Field{"target", r.target},
        OmitDefault{"timeout_ms", r.timeout_ms});
}

void fields(Of<StatusRequest> auto&, auto&& visit) { visit(); }

void fields(Of<VersionRequest> auto&, auto&& visit) { visit(); }

// Replies.

void fields(Of<OptimizeResponse> auto& r, auto&& visit) {
  // truncated is omitted when false: complete results keep the bytes they
  // had before deadlines existed.
  visit(Field{"assignment", r.assignment}, Field{"energy", r.energy},
        Field{"pairwise_similarity", r.pairwise_similarity}, Field{"iterations", r.iterations},
        Field{"converged", r.converged}, OmitDefault{"truncated", r.truncated},
        Field{"solve_seconds", r.solve_seconds}, Field{"cached", r.cached});
}

void fields(Of<EvaluateResponse> auto& r, auto&& visit) {
  visit(Field{"edge_similarity", r.edge_similarity},
        Field{"average_similarity", r.average_similarity},
        Field{"normalized_richness", r.normalized_richness},
        Block{"pair",
              [&r](auto&& nested) {
                nested(Field{"d_bn", r.d_bn}, Field{"log10_p_with", r.log10_p_with},
                       Field{"exploit_count", r.exploit_count}, Field{"mttc_runs", r.mttc_runs},
                       Field{"mttc_mean", r.mttc_mean},
                       Field{"mttc_uncensored_mean", r.mttc_uncensored_mean},
                       Field{"mttc_censored", r.mttc_censored});
              },
              &r.pair_evaluated},
        Field{"cached", r.cached});
}

void fields(Of<ReportResponse> auto& r, auto&& visit) {
  visit(Field{"text", r.text}, Field{"cached", r.cached});
}

void fields(Of<SimilarityResponse::Pair> auto& r, auto&& visit) {
  visit(Field{"a", r.a}, Field{"b", r.b}, Field{"similarity", r.similarity},
        Field{"shared", r.shared}, Field{"count_a", r.count_a}, Field{"count_b", r.count_b});
}

void fields(Of<SimilarityResponse> auto& r, auto&& visit) {
  visit(Records{"pairs", r.pairs}, Field{"cached", r.cached});
}

void fields(Of<BatchResponse> auto& r, auto&& visit) {
  visit(Field{"report", r.report}, Field{"csv", r.csv}, Field{"cells", r.cells},
        Field{"failed", r.failed}, Field{"cached", r.cached});
}

void fields(Of<MetricResponse> auto& r, auto&& visit) {
  visit(Field{"d_bn", r.d_bn}, Field{"p_with", r.p_with}, Field{"p_without", r.p_without},
        Field{"cached", r.cached});
}

void fields(Of<StatusResponse> auto& r, auto&& visit) {
  visit(Field{"protocol", r.protocol}, Field{"server", r.server},
        Field{"uptime_seconds", r.uptime_seconds},
        Block{"requests",
              [&r](auto&& nested) {
                nested(Field{"total", r.requests_total}, Field{"failed", r.requests_failed},
                       Field{"rejected", r.requests_rejected},
                       Field{"admitted", r.requests_admitted},
                       Field{"deadline", r.requests_deadline});
              }},
        Field{"in_flight", r.in_flight}, Field{"queued", r.queued},
        Field{"solve_seconds_total", r.solve_seconds_total},
        Field{"batch_wall_seconds_total", r.batch_wall_seconds_total},
        Block{"stage_stats",
              [&r](auto&& nested) {
                nested(Field{"solve", r.solve_cache}, Field{"eval", r.eval_cache},
                       Field{"batch", r.batch_cache});
              }},
        Field{"batch_stage_stats", r.batch_stages});
}

void fields(Of<VersionResponse> auto& r, auto&& visit) {
  visit(Field{"protocol", r.protocol}, Field{"server", r.server}, Field{"requests", r.requests},
        Field{"solvers", r.solvers}, Field{"constraint_recipes", r.constraint_recipes});
}

/// A value's field list as one callable, the shape a Block holds.
template <typename T>
auto list_of(T& value) {
  return [&value](auto&& visit) { fields(value, visit); };
}

// Cross-field rules a field list cannot state, checked after the fields.

void check(const EvaluateRequest& request) {
  if (request.entry.empty() != request.target.empty()) {
    throw InvalidArgument("evaluate needs both entry and target, or neither");
  }
}

void check(const SimilarityRequest& request) {
  if (request.cpes.size() < 2) throw InvalidArgument("similarity needs at least two cpe queries");
}

void check(const auto&) {}

// ---------------------------------------------------------------------------
// Value codecs, one overload per member type.  The encoder hands each
// member over as an rvalue when the value it encodes is its own to give
// up (response_to_wire), so documents and strings move; a const member
// binds as an lvalue and is copied.  The decoder likewise moves documents
// out of the envelope it was given.

support::Json to_json(support::Json value) { return value; }
support::Json to_json(std::string value) { return support::Json(std::move(value)); }
support::Json to_json(std::int64_t value) { return support::Json(value); }
support::Json to_json(std::size_t value) { return support::Json(value); }
support::Json to_json(bool value) { return support::Json(value); }
support::Json to_json(double value) { return support::json_number(value); }
support::Json to_json(const std::optional<std::size_t>& value) {
  return value ? support::Json(*value) : support::Json(nullptr);
}
support::Json to_json(const std::vector<std::string>& values) {
  support::JsonArray array;
  for (const std::string& value : values) array.emplace_back(value);
  return support::Json(std::move(array));
}
support::Json to_json(const runner::StageCounters& value) { return value.to_json(); }
support::Json to_json(const runner::StageStats& value) { return value.to_json(); }

void from_json(support::Json& json, support::Json& value) { value = std::move(json); }
void from_json(const support::Json& json, std::string& value) { value = json.as_string(); }
void from_json(const support::Json& json, std::int64_t& value) { value = json.as_integer(); }
void from_json(const support::Json& json, std::size_t& value) {
  value = static_cast<std::size_t>(json.as_integer());
}
void from_json(const support::Json& json, bool& value) { value = json.as_boolean(); }
void from_json(const support::Json& json, double& value) {
  value = json.is_null() ? std::nan("") : json.as_double();
}
void from_json(const support::Json& json, std::optional<std::size_t>& value) {
  value.reset();
  if (!json.is_null()) value = static_cast<std::size_t>(json.as_integer());
}
void from_json(const support::Json& json, std::vector<std::string>& values) {
  values.clear();
  for (const support::Json& value : json.as_array()) values.push_back(value.as_string());
}
void from_json(const support::Json& json, runner::StageCounters& value) {
  value = runner::StageCounters::from_json(json);
}
void from_json(const support::Json& json, runner::StageStats& value) {
  value = runner::StageStats::from_json(json);
}

// ---------------------------------------------------------------------------
// The encoder: each entry puts itself into the object being built.

template <typename List>
support::Json encode(List&& list);

template <typename T>
void put(support::JsonObject& object, const Field<T>& field) {
  object.set(std::string(field.key), to_json(std::move(field.value)));
}

template <typename T>
void put(support::JsonObject& object, const OmitDefault<T>& field) {
  if (field.value != std::remove_const_t<T>{}) {
    object.set(std::string(field.key), to_json(std::move(field.value)));
  }
}

template <typename T>
void put(support::JsonObject& object, const Records<T>& field) {
  support::JsonArray array;
  for (auto& value : field.values) array.push_back(encode(list_of(value)));
  object.set(std::string(field.key), support::Json(std::move(array)));
}

template <typename List, typename Flag>
void put(support::JsonObject& object, const Block<List, Flag>& block) {
  if (block.present == nullptr || *block.present) {
    object.set(std::string(block.key), encode(block.fields));
  }
}

template <typename List>
void encode_into(support::JsonObject& object, List&& list) {
  list([&object](const auto&... entry) { (put(object, entry), ...); });
}

template <typename List>
support::Json encode(List&& list) {
  support::JsonObject object;
  encode_into(object, list);
  return support::Json(std::move(object));
}

// ---------------------------------------------------------------------------
// The decoder: each entry takes itself out of the object being read.  A
// missing required key names itself and the object (`context`: the
// request or reply name, or the key a nested object sits under).  Unknown
// keys are the strict request decoder's business (check_keys); replies
// ignore them.

struct Reader {
  support::JsonObject& object;
  std::string_view context;

  [[nodiscard]] support::Json& required(std::string_view key) const {
    support::Json* value = object.find(key);
    if (value == nullptr) {
      throw InvalidArgument(std::string("missing required \"")
                                .append(key)
                                .append("\" in ")
                                .append(context));
    }
    return *value;
  }
};

template <typename List>
void decode(const Reader& in, List&& list);

template <typename T>
void take(const Reader& in, const Field<T>& field) {
  from_json(in.required(field.key), field.value);
}

template <typename T>
void take(const Reader& in, const OmitDefault<T>& field) {
  const support::Json* json = in.object.find(field.key);
  if (json == nullptr) return;
  if constexpr (std::is_integral_v<T> && !std::is_same_v<T, bool>) {
    const std::int64_t value = json->as_integer();
    if (value < 0) {
      throw InvalidArgument(
          std::string(in.context).append(" ").append(field.key).append(" must be non-negative"));
    }
    field.value = static_cast<T>(value);
  } else {
    from_json(*json, field.value);
  }
}

template <typename T>
void take(const Reader& in, const Records<T>& field) {
  field.values.clear();
  for (support::Json& item : in.required(field.key).as_array()) {
    decode(Reader{item.as_object(), field.key}, list_of(field.values.emplace_back()));
  }
}

template <typename List, typename Flag>
void take(const Reader& in, const Block<List, Flag>& block) {
  if (block.present != nullptr) {
    *block.present = in.object.contains(block.key);
    if (!*block.present) return;
  }
  decode(Reader{in.required(block.key).as_object(), block.key}, block.fields);
}

template <typename List>
void decode(const Reader& in, List&& list) {
  list([&in](const auto&... entry) { (take(in, entry), ...); });
}

/// Requests are strict: an unknown key is an InvalidArgument (typo
/// safety), checked before any field is read.
template <typename List>
void check_keys(const support::JsonObject& object, List&& list, std::string_view name) {
  for (const auto& [key, value] : object) {
    bool known = key == "icsdivd" || key == "request";
    list([&](const auto&... entry) { known = known || ((entry.key == key) || ...); });
    if (!known) throw InvalidArgument("unknown key \"" + key + "\" in " + std::string(name));
  }
}

/// Default-constructs alternative `index` of `Variant` in place and hands
/// it to `fill`.
template <typename Variant, typename Fill>
Variant make_alternative(std::size_t index, Fill&& fill) {
  return [&]<std::size_t... I>(std::index_sequence<I...>) {
    Variant out;
    (void)((index == I && (fill(out.template emplace<I>()), true)) || ...);
    return out;
  }(std::make_index_sequence<std::variant_size_v<Variant>>{});
}

void check_protocol(const support::JsonObject& object) {
  if (const support::Json* version = object.find("icsdivd")) {
    if (version->as_integer() != kProtocolVersion) {
      throw InvalidArgument("unsupported protocol version " +
                            std::to_string(version->as_integer()) + " (this server speaks " +
                            std::to_string(kProtocolVersion) + ")");
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Envelopes.

std::string_view request_name(const Request& request) noexcept {
  return kNames[request.index()];
}

std::vector<std::string> request_names() {
  return std::vector<std::string>(kNames.begin(), kNames.end());
}

support::Json request_to_wire(const Request& request) {
  support::JsonObject object;
  object.set("icsdivd", kProtocolVersion);
  object.set("request", support::Json(request_name(request)));
  std::visit([&object](const auto& typed) { encode_into(object, list_of(typed)); }, request);
  return support::Json(std::move(object));
}

Request request_from_wire(support::Json wire) {
  if (!wire.is_object()) throw InvalidArgument("request must be a JSON object");
  support::JsonObject& object = wire.as_object();
  check_protocol(object);
  const std::string& name = Reader{object, "request envelope"}.required("request").as_string();
  const std::size_t index = name_index(name);
  if (index == kNames.size()) throw InvalidArgument("unknown request: " + name);
  return make_alternative<Request>(index, [&object, &name](auto& request) {
    check_keys(object, list_of(request), name);
    decode(Reader{object, name}, list_of(request));
    check(request);
  });
}

std::string_view response_name(const Response& response) noexcept {
  return kNames[response.index()];
}

support::Json response_to_wire(Response response) {
  support::JsonObject object;
  object.set("icsdivd", kProtocolVersion);
  object.set("status", support::Json(status_code_name(StatusCode::Ok)));
  object.set("response", support::Json(response_name(response)));
  object.set("result", std::visit([](auto& typed) { return encode(list_of(typed)); }, response));
  return support::Json(std::move(object));
}

support::Json error_to_wire(const ErrorBody& body) {
  support::JsonObject object;
  object.set("icsdivd", kProtocolVersion);
  object.set("status", support::Json(status_code_name(body.code)));
  object.set("error", body.to_json());
  return support::Json(std::move(object));
}

Response response_from_wire(support::Json wire) {
  ErrorBody error;
  try {
    if (!wire.is_object()) throw ParseError("response must be a JSON object");
    support::JsonObject& object = wire.as_object();
    check_protocol(object);
    const Reader envelope{object, "response envelope"};
    if (envelope.required("status").as_string() == status_code_name(StatusCode::Ok)) {
      const std::string& name = envelope.required("response").as_string();
      support::JsonObject& result = envelope.required("result").as_object();
      const std::size_t index = name_index(name);
      if (index == kNames.size()) throw ParseError("unknown response: " + name);
      return make_alternative<Response>(index, [&result, &name](auto& response) {
        decode(Reader{result, name}, list_of(response));
      });
    }
    error = ErrorBody::from_json(Reader{object, "error envelope"}.required("error"));
  } catch (const ParseError&) {
    throw;
  } catch (const Error& failure) {
    // Whatever check caught it, a reply that does not decode is malformed.
    throw ParseError(failure.what());
  }
  // A well-formed error envelope: rethrow the error the server reported.
  throw_error_body(error);
}

}  // namespace icsdiv::api
