#include "api/session.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <exception>
#include <span>
#include <sstream>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <variant>

#include "bayes/least_effort.hpp"
#include "bayes/metric.hpp"
#include "core/metrics.hpp"
#include "core/optimizer.hpp"
#include "core/report.hpp"
#include "core/serialization.hpp"
#include "mrf/registry.hpp"
#include "nvd/similarity.hpp"
#include "runner/artifact_cache.hpp"
#include "runner/scenario.hpp"
#include "sim/compiled.hpp"
#include "support/failpoint.hpp"
#include "support/stopwatch.hpp"

namespace icsdiv::api {

namespace {

/// The deadline-aware wait of the admission queue and of coalesced cache
/// waiters; callers loop on their own predicate around it.  A caller
/// whose token has expired leaves with its own error, naming `site`.
/// Otherwise an inert token waits plainly and a live one for a 50 ms
/// slice that its deadline bounds exactly (an explicit cancel() cannot
/// signal the condition variable, so it is polled).
void wait_slice(support::CondVar& condition, support::Mutex& mutex,
                const support::CancelToken& cancel, std::string_view site) ICSDIV_REQUIRES(mutex) {
  cancel.check(site);
  if (!cancel.valid()) {
    condition.wait(mutex);
    return;
  }
  auto until = support::CancelToken::Clock::now() + std::chrono::milliseconds(50);
  if (cancel.deadline_ns() != support::CancelToken::kNoDeadline) {
    until = std::min(until, cancel.deadline());
  }
  condition.wait_until(mutex, until);
}

}  // namespace

// ---------------------------------------------------------------------------
// AdmissionGate.

AdmissionGate::AdmissionGate(std::size_t max_running, std::size_t max_queued,
                             double retry_after_seconds)
    : max_running_(std::max<std::size_t>(max_running, 1)),
      max_queued_(max_queued),
      retry_after_seconds_(retry_after_seconds) {}

AdmissionGate::Ticket::~Ticket() {
  if (gate_ != nullptr) gate_->leave();
}

AdmissionGate::Ticket AdmissionGate::admit(const support::CancelToken& cancel) {
  const support::MutexLock lock(mutex_);
  cancel.check("admission.queue");
  if (running_ >= max_running_) {
    if (queued_ >= max_queued_) {
      ++rejected_;
      throw SaturatedError("admission queue full (" + std::to_string(running_) + " running, " +
                               std::to_string(queued_) + " queued); retry later",
                           retry_after_seconds_);
    }
    ++queued_;
    try {
      while (running_ >= max_running_) wait_slice(admitted_, mutex_, cancel, "admission.queue");
    } catch (...) {
      --queued_;
      throw;
    }
    --queued_;
  }
  ++running_;
  ++admitted_count_;
  return Ticket(this);
}

void AdmissionGate::leave() {
  {
    const support::MutexLock lock(mutex_);
    --running_;
  }
  admitted_.notify_one();
}

std::size_t AdmissionGate::running() const {
  const support::MutexLock lock(mutex_);
  return running_;
}

std::size_t AdmissionGate::queued() const {
  const support::MutexLock lock(mutex_);
  return queued_;
}

std::size_t AdmissionGate::rejected_total() const {
  const support::MutexLock lock(mutex_);
  return rejected_;
}

std::size_t AdmissionGate::admitted_total() const {
  const support::MutexLock lock(mutex_);
  return admitted_count_;
}

namespace {

/// Per-cache entry capacities (LRU beyond these).  perfbench's
/// daemon_loop is built around the 128-entry solve cache.
constexpr std::size_t kSolveCacheCapacity = 128;
constexpr std::size_t kEvalCacheCapacity = 128;
constexpr std::size_t kBatchCacheCapacity = 8;

// ---------------------------------------------------------------------------
// Cache keys.  Domain constants separate the key spaces: the model key,
// which solve and eval keys chain, and the three caches' own keys.
// Within one, keys hash the exact request documents the computation
// depends on.  The keys live only in this process, so how a document is
// hashed may change between builds.

enum class CacheDomain : std::uint64_t { Model = 101, Solve = 102, Eval = 103, Batch = 104 };

/// Operation tag inside the eval domain.
enum class EvalOp : std::uint64_t { Evaluate = 1, Report = 2, Similarity = 3, Metric = 4 };

runner::KeyHasher domain_hasher(CacheDomain domain) {
  runner::KeyHasher hasher;
  hasher.mix(static_cast<std::uint64_t>(domain));
  return hasher;
}

/// The names of the wire fields that carry documents (requests.hpp).  A
/// frame's scan digests these members' values instead of building them.
constexpr std::array<std::string_view, 5> kDocumentKeys = {"catalog", "network", "assignment",
                                                           "feed", "grid"};

/// One request document as the session reads it: its digest for the cache
/// keys, and its DOM for a compute that misses.  The DOM is the caller's
/// own, or one parsed from the frame's text for as long as the read lasts.
class Document {
 public:
  explicit Document(const support::Json& dom) : digest_(dom.digest()), dom_(&dom) {}
  explicit Document(const support::DigestedMember& scanned)
      : digest_(scanned.digest), text_(scanned.text) {}

  void mix_into(runner::KeyHasher& hasher) const { hasher.mix(digest_.hi).mix(digest_.lo); }

  /// `use(dom)`'s result.
  template <typename Use>
  auto read(Use&& use) const {
    if (dom_ != nullptr) return use(*dom_);
    const support::Json parsed = support::Json::parse(text_);
    return use(parsed);
  }

 private:
  support::JsonDigest digest_;
  const support::Json* dom_ = nullptr;
  std::string_view text_;
};

/// Where a request's documents come from: the request's own DOM, or the
/// members of the frame it was decoded from.
class Documents {
 public:
  Documents() = default;
  explicit Documents(std::span<const support::DigestedMember> scanned) : scanned_(scanned) {}

  /// The document of the wire field `key`, whose DOM is `dom`.
  [[nodiscard]] Document operator()(const support::Json& dom, std::string_view key) const {
    for (const support::DigestedMember& member : scanned_) {
      if (member.key == key) return Document(member);
    }
    return Document(dom);
  }

 private:
  std::span<const support::DigestedMember> scanned_;
};

runner::ArtifactKey model_key(const Document& catalog, const Document& network) {
  runner::KeyHasher hasher = domain_hasher(CacheDomain::Model);
  catalog.mix_into(hasher);
  network.mix_into(hasher);
  return hasher.key();
}

// ---------------------------------------------------------------------------
// CoalescingCache: content-addressed, in-flight-deduplicating, LRU cache
// of replies.
//
// Every in-flight entry runs under its own CancelToken whose deadline is
// the fetch-max over the participants' deadlines (a participant without
// one removes the deadline), so the shared compute outlives any single
// impatient caller and stops only once the *last* interested party's
// deadline has passed.  Blocked waiters leave at their own deadline
// (DeadlineExceededError) without disturbing the execution.

class CoalescingCache {
 public:
  explicit CoalescingCache(std::size_t capacity) : capacity_(std::max<std::size_t>(capacity, 1)) {}

  struct Outcome {
    std::shared_ptr<const Response> value;
    /// True for the caller whose compute() produced the value; false for
    /// warm hits and callers coalesced onto an in-flight execution.
    bool executed = false;
  };

  /// `compute` receives the entry's shared CancelToken (thread it into
  /// the computation's cancellation points); `cacheable(value)` decides
  /// whether the finished value is retained for later callers — in-flight
  /// participants receive it either way (truncated solves use this).
  template <typename Compute, typename Cacheable>
  Outcome get_or_compute(const runner::ArtifactKey& key, const support::CancelToken& cancel,
                         Compute&& compute, Cacheable&& cacheable) {
    std::shared_ptr<Entry> entry;
    {
      const support::MutexLock lock(mutex_);
      ++counters_.planned;
      if (const auto it = entries_.find(key); it != entries_.end()) {
        ++counters_.hits;
        entry = it->second;
        entry->last_used = ++tick_;
        if (!entry->done) {
          entry->cancel.extend_deadline_ns(cancel.deadline_ns());
          while (!entry->done) wait_slice(ready_, mutex_, cancel, "cache.wait");
        }
        if (entry->error) std::rethrow_exception(entry->error);
        return {entry->value, false};
      }
      ++counters_.executed;
      entry = std::make_shared<Entry>();
      entry->cancel = cancel.deadline_ns() != support::CancelToken::kNoDeadline
                          ? support::CancelToken::with_deadline(cancel.deadline())
                          : support::CancelToken::cancellable();
      entry->last_used = ++tick_;
      entries_.emplace(key, entry);
    }
    try {
      std::shared_ptr<const Response> value = compute(entry->cancel);
      support::failpoint::evaluate("cache.insert");
      const bool keep = cacheable(*value);
      {
        const support::MutexLock lock(mutex_);
        entry->value = std::move(value);
        entry->done = true;
        if (keep) {
          evict_locked();
        } else {
          entries_.erase(key);
        }
      }
      ready_.notify_all();
      return {entry->value, true};
    } catch (...) {
      {
        const support::MutexLock lock(mutex_);
        entry->error = std::current_exception();
        entry->done = true;
        // Failures are not cached: later callers recompute.
        entries_.erase(key);
      }
      ready_.notify_all();
      throw;
    }
  }

  [[nodiscard]] runner::StageCounters counters() const {
    const support::MutexLock lock(mutex_);
    return counters_;
  }

 private:
  /// Entry fields are written by the executing thread and read by
  /// waiters; every access happens under the cache's mutex_ except the
  /// executor's post-completion reads of its own `value`/`cancel` (safe:
  /// after `done`, only the executor touches them).  The fields stay
  /// unannotated because the struct outlives individual lock scopes via
  /// shared_ptr — the mutex_ relationship is documented here instead.
  struct Entry {
    bool done = false;
    std::shared_ptr<const Response> value;
    std::exception_ptr error;
    std::uint64_t last_used = 0;
    /// The execution's shared token; deadline = max over participants'.
    support::CancelToken cancel;
  };

  /// Drops least-recently-used *completed* entries beyond capacity.
  /// In-flight entries are pinned; coalesced waiters keep their shared_ptr
  /// alive regardless, eviction only forgets the key.
  void evict_locked() ICSDIV_REQUIRES(mutex_) {
    while (entries_.size() > capacity_) {
      auto victim = entries_.end();
      // lint:allow unordered-iteration -- min-by-last_used scan; ticks are unique, so order-independent
      for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if (!it->second->done) continue;
        if (victim == entries_.end() || it->second->last_used < victim->second->last_used) {
          victim = it;
        }
      }
      if (victim == entries_.end()) return;
      entries_.erase(victim);
      ++counters_.evicted;
    }
  }

  mutable support::Mutex mutex_;
  support::CondVar ready_;
  std::size_t capacity_;  ///< immutable after construction
  std::unordered_map<runner::ArtifactKey, std::shared_ptr<Entry>, runner::ArtifactKey::Hash>
      entries_ ICSDIV_GUARDED_BY(mutex_);
  runner::StageCounters counters_ ICSDIV_GUARDED_BY(mutex_);
  std::uint64_t tick_ ICSDIV_GUARDED_BY(mutex_) = 0;
};

/// A request's catalog and network, decoded inside the compute that needs
/// them under its entry's token (network_from_json polls it).  Never
/// moved: the network references products owned by `catalog`.
struct DecodedModel {
  core::ProductCatalog catalog;
  core::Network network;

  DecodedModel(const Document& catalog_document, const Document& network_document,
               const support::CancelToken& cancel)
      : catalog(catalog_document.read(
            [](const support::Json& json) { return core::catalog_from_json(json); })),
        network(network_document.read([&](const support::Json& json) {
          return core::network_from_json(catalog, json, cancel);
        })) {
    support::failpoint::evaluate("session.decode");
  }
  DecodedModel(const DecodedModel&) = delete;
  DecodedModel& operator=(const DecodedModel&) = delete;
};

/// The assignment document decoded against `network`.
core::Assignment decode_assignment(const core::Network& network, const Document& assignment) {
  return assignment.read(
      [&](const support::Json& json) { return core::Assignment::from_json(network, json); });
}

/// A truncated optimize (best-so-far labels under an expired deadline) is
/// a timing artifact: it serves the participants of its execution but is
/// never kept for later callers.
bool cacheable(const Response& response) {
  const auto* optimize = std::get_if<OptimizeResponse>(&response);
  return optimize == nullptr || !optimize->truncated;
}

/// The per-request token: a deadline when the request carries one, inert
/// (zero-cost checks) otherwise.
support::CancelToken request_token(const Request& request) {
  return std::visit(
      [](const auto& typed) {
        if constexpr (requires { typed.timeout_ms; }) {
          if (typed.timeout_ms > 0) return support::CancelToken::after_ms(typed.timeout_ms);
        }
        return support::CancelToken();
      },
      request);
}

}  // namespace

// ---------------------------------------------------------------------------
// Session.

struct Session::Impl {
  explicit Impl(SessionOptions options)
      : options_(std::move(options)),
        gate_(options_.max_concurrent != 0 ? options_.max_concurrent
                                           : std::max(1u, std::thread::hardware_concurrency()),
              options_.max_queued, options_.retry_after_seconds),
        solves_(kSolveCacheCapacity),
        evals_(kEvalCacheCapacity),
        batches_(kBatchCacheCapacity) {}

  Response execute(const Request& request, const Documents& documents = {}) {
    {
      const support::MutexLock lock(stats_mutex_);
      ++requests_total_;
    }
    try {
      // Introspection bypasses admission: health stays observable even
      // when the gate is saturated.
      if (std::holds_alternative<StatusRequest>(request)) return status();
      if (std::holds_alternative<VersionRequest>(request)) return version();
      // The deadline clock starts here — queue wait counts against it.
      const support::CancelToken cancel = request_token(request);
      const AdmissionGate::Ticket ticket = gate_.admit(cancel);
      return std::visit(
          [&](const auto& typed) { return run(typed, documents, cancel); }, request);
    } catch (const SaturatedError&) {
      throw;  // counted via rejected_total(), not as a failure
    } catch (const CancelledError&) {
      count_deadline_failure();
      throw;
    } catch (const DeadlineExceededError&) {
      count_deadline_failure();
      throw;
    } catch (...) {
      const support::MutexLock lock(stats_mutex_);
      ++requests_failed_;
      throw;
    }
  }

  [[nodiscard]] StatusResponse status() const {
    StatusResponse response;
    response.uptime_seconds = started_.seconds();
    response.requests_rejected = gate_.rejected_total();
    response.requests_admitted = gate_.admitted_total();
    response.in_flight = gate_.running();
    response.queued = gate_.queued();
    response.solve_cache = solves_.counters();
    response.eval_cache = evals_.counters();
    response.batch_cache = batches_.counters();
    const support::MutexLock lock(stats_mutex_);
    response.requests_total = requests_total_;
    response.requests_failed = requests_failed_;
    response.requests_deadline = requests_deadline_;
    response.solve_seconds_total = solve_seconds_total_;
    response.batch_wall_seconds_total = batch_wall_seconds_total_;
    response.batch_stages = batch_stages_;
    return response;
  }

 private:
  [[nodiscard]] static VersionResponse version() {
    VersionResponse response;
    response.requests = request_names();
    response.solvers = mrf::SolverRegistry::instance().names();
    response.constraint_recipes = runner::constraint_recipe_names();
    return response;
  }

  void count_deadline_failure() {
    const support::MutexLock lock(stats_mutex_);
    ++requests_failed_;
    ++requests_deadline_;
  }

  /// The one path from a cache outcome to a reply.  `compute` receives
  /// the coalesced execution's token and returns the typed reply; its
  /// time counts towards `solve_seconds_total` unless it is a batch
  /// (batches count their wall time themselves).  The reply's `cached`
  /// flag says whether this caller was served without executing.
  template <typename Compute>
  [[nodiscard]] Response cached_reply(CoalescingCache& cache, const runner::ArtifactKey& key,
                                      const support::CancelToken& cancel, Compute&& compute) {
    const auto outcome = cache.get_or_compute(
        key, cancel,
        [&](const support::CancelToken& token) {
          support::failpoint::evaluate("session.compute");
          const support::Stopwatch watch;
          auto value = std::make_shared<const Response>(compute(token));
          if (!std::holds_alternative<BatchResponse>(*value)) {
            const support::MutexLock lock(stats_mutex_);
            solve_seconds_total_ += watch.seconds();
          }
          return value;
        },
        cacheable);
    Response response = *outcome.value;
    std::visit(
        [&](auto& typed) {
          if constexpr (requires { typed.cached; }) typed.cached = !outcome.executed;
        },
        response);
    return response;
  }

  [[nodiscard]] Response run(const OptimizeRequest& request, const Documents& documents,
                             const support::CancelToken& cancel) {
    // Defaults are filled in before hashing, so an omitted field and its
    // default value share one key.  An unknown solver fails here, before
    // any model parse or cache entry.
    const std::string solver =
        request.solver.empty() ? core::OptimizeOptions{}.solver : request.solver;
    mrf::SolverRegistry::instance().require_known(solver);
    const std::size_t max_iterations =
        request.max_iterations != 0 ? request.max_iterations : mrf::SolveOptions{}.max_iterations;
    const Document catalog = documents(request.catalog, "catalog");
    const Document network = documents(request.network, "network");
    runner::KeyHasher hasher = domain_hasher(CacheDomain::Solve);
    const runner::ArtifactKey model = model_key(catalog, network);
    hasher.mix(model.hi).mix(model.lo).mix(solver);
    // Different iteration caps are different solves; the deadline is NOT
    // part of the key (it never changes a completed result).
    hasher.mix(static_cast<std::uint64_t>(max_iterations));
    return cached_reply(solves_, hasher.key(), cancel, [&](const support::CancelToken& token) {
      const DecodedModel decoded(catalog, network, token);
      core::OptimizeOptions options;
      options.solver = solver;
      options.solve.max_iterations = max_iterations;
      options.solve.cancel = token;
      const support::Stopwatch watch;
      const core::Optimizer optimizer(decoded.network);
      const core::OptimizeOutcome solved = optimizer.optimize({}, options);
      OptimizeResponse response;
      response.assignment = solved.assignment.to_json();
      response.energy = solved.solve.energy;
      response.pairwise_similarity = solved.pairwise_similarity;
      response.iterations = solved.solve.iterations;
      response.converged = solved.solve.converged;
      response.truncated = solved.solve.truncated;
      response.solve_seconds = watch.seconds();
      return response;
    });
  }

  [[nodiscard]] Response run(const EvaluateRequest& request, const Documents& documents,
                             const support::CancelToken& cancel) {
    const Document catalog = documents(request.catalog, "catalog");
    const Document network = documents(request.network, "network");
    const Document assignment_document = documents(request.assignment, "assignment");
    runner::KeyHasher hasher = domain_hasher(CacheDomain::Eval);
    hasher.mix(static_cast<std::uint64_t>(EvalOp::Evaluate));
    const runner::ArtifactKey model = model_key(catalog, network);
    hasher.mix(model.hi).mix(model.lo);
    assignment_document.mix_into(hasher);
    hasher.mix(request.entry).mix(request.target);
    return cached_reply(evals_, hasher.key(), cancel, [&](const support::CancelToken& token) {
      const DecodedModel decoded(catalog, network, token);
      const core::Assignment assignment = decode_assignment(decoded.network, assignment_document);
      EvaluateResponse response;
      response.edge_similarity = core::total_edge_similarity(assignment);
      response.average_similarity = core::average_edge_similarity(assignment);
      response.normalized_richness = core::normalized_effective_richness(assignment);
      if (!request.entry.empty()) {
        const core::HostId entry = decoded.network.host_id(request.entry);
        const core::HostId target = decoded.network.host_id(request.target);
        bayes::InferenceOptions inference;
        inference.cancel = token;
        const bayes::DiversityMetricResult metric =
            bayes::bn_diversity_metric(assignment, entry, target, inference);
        response.pair_evaluated = true;
        response.d_bn = metric.d_bn;
        response.log10_p_with = metric.log10_with();
        response.exploit_count = bayes::least_attack_effort(assignment, entry, target).exploit_count;
        sim::SimulationParams params;
        params.cancel = token;
        const sim::MttcResult mttc =
            sim::CompiledPropagation(assignment, params).mttc(entry, target, 500, 1);
        response.mttc_runs = mttc.runs;
        response.mttc_mean = mttc.mean;
        response.mttc_uncensored_mean = mttc.uncensored_mean;
        response.mttc_censored = mttc.censored;
      }
      return response;
    });
  }

  [[nodiscard]] Response run(const ReportRequest& request, const Documents& documents,
                             const support::CancelToken& cancel) {
    const Document catalog = documents(request.catalog, "catalog");
    const Document network = documents(request.network, "network");
    const Document assignment_document = documents(request.assignment, "assignment");
    runner::KeyHasher hasher = domain_hasher(CacheDomain::Eval);
    hasher.mix(static_cast<std::uint64_t>(EvalOp::Report));
    const runner::ArtifactKey model = model_key(catalog, network);
    hasher.mix(model.hi).mix(model.lo);
    assignment_document.mix_into(hasher);
    return cached_reply(evals_, hasher.key(), cancel, [&](const support::CancelToken& token) {
      const DecodedModel decoded(catalog, network, token);
      token.check("session.report");
      const core::Assignment assignment = decode_assignment(decoded.network, assignment_document);
      ReportResponse response;
      response.text = core::diversification_report(assignment);
      return response;
    });
  }

  [[nodiscard]] Response run(const SimilarityRequest& request, const Documents& documents,
                             const support::CancelToken& cancel) {
    const Document feed_document = documents(request.feed, "feed");
    runner::KeyHasher hasher = domain_hasher(CacheDomain::Eval);
    hasher.mix(static_cast<std::uint64_t>(EvalOp::Similarity));
    feed_document.mix_into(hasher);
    hasher.mix_range(request.cpes);
    return cached_reply(evals_, hasher.key(), cancel, [&](const support::CancelToken& token) {
      const nvd::VulnerabilityDatabase feed = feed_document.read(
          [](const support::Json& json) { return nvd::VulnerabilityDatabase::from_json(json); });
      token.check("session.similarity");
      std::vector<nvd::ProductRef> products;
      for (const std::string& cpe : request.cpes) {
        products.push_back(nvd::ProductRef{cpe, nvd::CpeUri::parse(cpe)});
      }
      const nvd::SimilarityTable table = nvd::SimilarityTable::from_database(feed, products);
      SimilarityResponse response;
      for (std::size_t i = 0; i < products.size(); ++i) {
        for (std::size_t j = i + 1; j < products.size(); ++j) {
          response.pairs.push_back({products[i].name, products[j].name, table.similarity(i, j),
                                    table.shared_count(i, j), table.total_count(i),
                                    table.total_count(j)});
        }
      }
      return response;
    });
  }

  [[nodiscard]] Response run(const MetricRequest& request, const Documents& documents,
                             const support::CancelToken& cancel) {
    const Document catalog = documents(request.catalog, "catalog");
    const Document network = documents(request.network, "network");
    const Document assignment_document = documents(request.assignment, "assignment");
    runner::KeyHasher hasher = domain_hasher(CacheDomain::Eval);
    hasher.mix(static_cast<std::uint64_t>(EvalOp::Metric));
    const runner::ArtifactKey model = model_key(catalog, network);
    hasher.mix(model.hi).mix(model.lo);
    assignment_document.mix_into(hasher);
    hasher.mix(request.entry).mix(request.target);
    return cached_reply(evals_, hasher.key(), cancel, [&](const support::CancelToken& token) {
      const DecodedModel decoded(catalog, network, token);
      const core::Assignment assignment = decode_assignment(decoded.network, assignment_document);
      bayes::InferenceOptions inference;
      inference.cancel = token;
      const bayes::DiversityMetricResult metric =
          bayes::bn_diversity_metric(assignment, decoded.network.host_id(request.entry),
                                     decoded.network.host_id(request.target), inference);
      MetricResponse response;
      response.d_bn = metric.d_bn;
      response.p_with = metric.p_with_similarity;
      response.p_without = metric.p_without_similarity;
      return response;
    });
  }

  [[nodiscard]] Response run(const BatchRequest& request, const Documents& documents,
                             const support::CancelToken& cancel) {
    const Document grid = documents(request.grid, "grid");
    runner::KeyHasher hasher = domain_hasher(CacheDomain::Batch);
    grid.mix_into(hasher);
    hasher.mix(static_cast<std::uint64_t>(request.threads));
    // The store is part of the identity: a store-backed run and a bare
    // run of the same grid report different stage counters, so they must
    // not coalesce onto one cached response.
    const std::string store_dir =
        request.store_dir.empty() ? options_.store_dir : request.store_dir;
    hasher.mix(store_dir);
    return cached_reply(batches_, hasher.key(), cancel, [&](const support::CancelToken& token) {
      const std::vector<runner::ScenarioSpec> specs = runner::expand_validated(grid.read(
          [](const support::Json& json) { return runner::ScenarioGrid::from_json(json); }));
      runner::BatchOptions options;
      options.threads = request.threads;
      options.store_dir = store_dir;
      options.on_result = options_.on_batch_result;
      options.cancel = token;
      const runner::BatchRunner batch(options);
      const runner::BatchReport report = batch.run(specs);
      // A report produced under an expired deadline is made of
      // deadline-failed cells — surface the deadline error instead of
      // caching a hollow report.
      token.check("session.batch");
      BatchResponse response;
      response.report = report.to_json();
      std::ostringstream csv;
      report.write_csv(csv);
      response.csv = csv.str();
      response.cells = specs.size();
      response.failed = report.failed_count();
      {
        const support::MutexLock lock(stats_mutex_);
        batch_wall_seconds_total_ += report.wall_seconds;
        batch_stages_ += report.stage_stats;
      }
      return response;
    });
  }

  [[nodiscard]] Response run(const StatusRequest&, const Documents&, const support::CancelToken&) {
    return status();
  }
  [[nodiscard]] Response run(const VersionRequest&, const Documents&,
                             const support::CancelToken&) {
    return version();
  }

  SessionOptions options_;
  support::Stopwatch started_;
  AdmissionGate gate_;
  CoalescingCache solves_;
  CoalescingCache evals_;
  CoalescingCache batches_;

  mutable support::Mutex stats_mutex_;
  std::size_t requests_total_ ICSDIV_GUARDED_BY(stats_mutex_) = 0;
  std::size_t requests_failed_ ICSDIV_GUARDED_BY(stats_mutex_) = 0;
  std::size_t requests_deadline_ ICSDIV_GUARDED_BY(stats_mutex_) = 0;
  double solve_seconds_total_ ICSDIV_GUARDED_BY(stats_mutex_) = 0.0;
  double batch_wall_seconds_total_ ICSDIV_GUARDED_BY(stats_mutex_) = 0.0;
  runner::StageStats batch_stages_ ICSDIV_GUARDED_BY(stats_mutex_);
};

Session::Session(SessionOptions options) : impl_(std::make_unique<Impl>(std::move(options))) {}

Session::~Session() = default;

Response Session::execute(const Request& request) { return impl_->execute(request); }

std::string Session::serve(std::string_view frame) {
  support::Json reply;
  try {
    std::array<support::DigestedMember, kDocumentKeys.size()> scanned;
    for (std::size_t i = 0; i < scanned.size(); ++i) scanned[i].key = kDocumentKeys[i];
    const Request request = request_from_wire(support::Json::parse_digesting(frame, scanned));
    reply = response_to_wire(impl_->execute(request, Documents(scanned)));
  } catch (const std::exception& error) {
    reply = error_to_wire(make_error_body(error));
  }
  return reply.dump();
}

StatusResponse Session::status() const { return impl_->status(); }

Response execute(const Request& request, Session& session) { return session.execute(request); }

}  // namespace icsdiv::api
