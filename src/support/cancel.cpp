#include "support/cancel.hpp"

namespace icsdiv::support {

namespace {

std::int64_t to_ns(CancelToken::Clock::time_point point) noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(point.time_since_epoch()).count();
}

}  // namespace

CancelToken CancelToken::cancellable() { return CancelToken(std::make_shared<State>()); }

CancelToken CancelToken::with_deadline(Clock::time_point deadline) {
  CancelToken token = cancellable();
  token.state_->deadline_ns.store(to_ns(deadline), std::memory_order_relaxed);
  return token;
}

CancelToken CancelToken::after_ms(std::int64_t timeout_ms) {
  if (timeout_ms <= 0) return cancellable();
  const Clock::time_point now = Clock::now();
  // A deadline the clock's signed nanoseconds cannot hold never comes.
  if (timeout_ms > (kNoDeadline - to_ns(now)) / 1'000'000) return cancellable();
  return with_deadline(now + std::chrono::milliseconds(timeout_ms));
}

void CancelToken::cancel() const noexcept {
  if (state_) state_->cancelled.store(true, std::memory_order_release);
}

bool CancelToken::cancelled() const noexcept {
  return state_ && state_->cancelled.load(std::memory_order_acquire);
}

bool CancelToken::expired() const noexcept {
  if (!state_) return false;
  if (state_->cancelled.load(std::memory_order_acquire)) return true;
  const std::int64_t deadline = state_->deadline_ns.load(std::memory_order_relaxed);
  return deadline != kNoDeadline && to_ns(Clock::now()) >= deadline;
}

void CancelToken::check(std::string_view site) const {
  if (!state_) return;
  if (state_->cancelled.load(std::memory_order_acquire)) {
    throw CancelledError("cancelled at " + std::string(site));
  }
  const std::int64_t deadline = state_->deadline_ns.load(std::memory_order_relaxed);
  if (deadline != kNoDeadline && to_ns(Clock::now()) >= deadline) {
    throw DeadlineExceededError("deadline exceeded at " + std::string(site));
  }
}

void CancelToken::extend_deadline(Clock::time_point deadline) const noexcept {
  extend_deadline_ns(to_ns(deadline));
}

void CancelToken::extend_deadline_ns(std::int64_t target) const noexcept {
  if (!state_) return;
  std::int64_t current = state_->deadline_ns.load(std::memory_order_relaxed);
  // fetch-max: the deadline only ever moves later.  A deadline-less live
  // token (kNoDeadline) is already "latest possible" and stays that way.
  while (current < target &&
         !state_->deadline_ns.compare_exchange_weak(current, target, std::memory_order_relaxed)) {
  }
}

std::int64_t CancelToken::deadline_ns() const noexcept {
  return state_ ? state_->deadline_ns.load(std::memory_order_relaxed) : kNoDeadline;
}

CancelToken::Clock::time_point CancelToken::deadline() const noexcept {
  return Clock::time_point(std::chrono::nanoseconds(deadline_ns()));
}

}  // namespace icsdiv::support
