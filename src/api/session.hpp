// The process-lifetime execution context behind `api::execute` — the
// piece that turns PR-5's per-run artifact reuse into a *service*
// property (DESIGN.md §10).
//
// A Session owns three coalescing caches of replies keyed by 128-bit
// content hashes (runner::KeyHasher over the request documents):
//
//   solve  — optimize replies per (catalog, network, solver, iteration cap)
//   eval   — evaluate/report/similarity/metric replies per input
//   batch  — batch replies per (grid, threads, store)
//
// Nothing is cached beneath them: a compute that misses decodes its own
// catalog and network.
//
// "Coalescing" means identical *in-flight* requests share one execution:
// the first caller computes, concurrent callers with the same key block
// on it and receive the same immutable value (counted as cache hits), so
// N identical concurrent `optimize` requests execute exactly one solve.
// Failed computations are not cached — waiters observe the error, later
// callers recompute.  Warm entries are evicted least-recently-used per
// cache once its capacity is exceeded.
//
// Admission is bounded: at most `max_concurrent` requests execute while
// up to `max_queued` wait; beyond that the Session rejects with
// SaturatedError carrying a retry-after hint (`status`/`version` bypass
// admission so health stays observable under load).
//
// Deadlines (request `timeout_ms`) cover the whole server-side life of a
// request, queue wait included.  A coalesced execution runs under one
// shared CancelToken whose deadline is the *maximum* over its
// participants' (a participant without a deadline removes it), so a
// shared compute, decode included, stops only when the last interested
// party has given up; blocked waiters leave at their own deadline.
// Truncated optimize results (best-so-far under an expired deadline) are
// returned to the participants of that execution but never cached.
#pragma once

#include <cstddef>
#include <memory>

#include "api/requests.hpp"
#include "runner/batch_runner.hpp"
#include "support/annotations.hpp"
#include "support/cancel.hpp"
#include "support/mutex.hpp"

namespace icsdiv::api {

struct SessionOptions {
  /// Admission bound: concurrent executing requests; 0 = hardware threads.
  std::size_t max_concurrent = 0;
  /// Requests allowed to wait for admission before rejection.
  std::size_t max_queued = 64;
  /// Retry-after hint attached to SaturatedError rejections.
  double retry_after_seconds = 1.0;
  /// Per-cell progress callback for executed (non-coalesced) batches.
  std::function<void(const runner::ScenarioResult&)> on_batch_result;
  /// Default on-disk artifact store for batch requests (DESIGN.md §13);
  /// "" = none.  A request's own store_dir takes precedence.
  std::string store_dir;
};

/// Bounded run/queue admission control.  Exposed for direct testing; the
/// Session holds one and admits every compute request through it.
class AdmissionGate {
 public:
  AdmissionGate(std::size_t max_running, std::size_t max_queued, double retry_after_seconds);

  /// RAII admission slot; releasing it admits the next queued request.
  class Ticket {
   public:
    Ticket(Ticket&& other) noexcept : gate_(other.gate_) { other.gate_ = nullptr; }
    Ticket& operator=(Ticket&&) = delete;
    Ticket(const Ticket&) = delete;
    Ticket& operator=(const Ticket&) = delete;
    ~Ticket();

   private:
    friend class AdmissionGate;
    explicit Ticket(AdmissionGate* gate) noexcept : gate_(gate) {}
    AdmissionGate* gate_;
  };

  /// Admits immediately, waits in the bounded queue, or throws
  /// SaturatedError (with the retry-after hint) when the queue is full.
  /// Queue wait counts against the request's deadline: an expired
  /// `cancel` token throws DeadlineExceededError / CancelledError from
  /// the queue instead of occupying a slot.
  [[nodiscard]] Ticket admit(const support::CancelToken& cancel = {});

  [[nodiscard]] std::size_t running() const;
  [[nodiscard]] std::size_t queued() const;
  [[nodiscard]] std::size_t rejected_total() const;
  [[nodiscard]] std::size_t admitted_total() const;

 private:
  void leave() ICSDIV_EXCLUDES(mutex_);

  mutable support::Mutex mutex_;
  support::CondVar admitted_;
  std::size_t max_running_;  ///< immutable after construction
  std::size_t max_queued_;   ///< immutable after construction
  double retry_after_seconds_;
  std::size_t running_ ICSDIV_GUARDED_BY(mutex_) = 0;
  std::size_t queued_ ICSDIV_GUARDED_BY(mutex_) = 0;
  std::size_t rejected_ ICSDIV_GUARDED_BY(mutex_) = 0;
  std::size_t admitted_count_ ICSDIV_GUARDED_BY(mutex_) = 0;
};

/// One warm execution context.  Thread-safe: any number of threads may
/// call execute() concurrently (that is the daemon's request path).
class Session {
 public:
  explicit Session(SessionOptions options = {});
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Executes one request against the warm caches.  Throws the mapped
  /// `icsdiv::Error` subclass on failure (status.hpp).
  [[nodiscard]] Response execute(const Request& request);

  /// The `status` snapshot (also what a StatusRequest returns).
  [[nodiscard]] StatusResponse status() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The transport-agnostic entry point: every front-end (CLI, daemon,
/// in-process embedding) funnels its requests through this.
[[nodiscard]] Response execute(const Request& request, Session& session);

}  // namespace icsdiv::api
