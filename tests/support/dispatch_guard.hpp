// Scoped SIMD dispatch for tests that flip the process-global target.
#pragma once

#include "support/simd.hpp"

namespace icsdiv::support::simd {

/// Restores the dispatch active at construction.
class DispatchGuard {
 public:
  DispatchGuard() : saved_(active()) {}
  ~DispatchGuard() { set_active(saved_); }
  DispatchGuard(const DispatchGuard&) = delete;
  DispatchGuard& operator=(const DispatchGuard&) = delete;

 private:
  Dispatch saved_;
};

}  // namespace icsdiv::support::simd
