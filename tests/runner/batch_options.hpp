// BatchOptions shorthand for the runner tests.
#pragma once

#include <cstddef>

#include "runner/batch_runner.hpp"

namespace icsdiv::runner {

/// Default options at `threads` workers.  (A designated initializer would
/// leave the other fields to -Wmissing-field-initializers.)
inline BatchOptions with_threads(std::size_t threads) {
  BatchOptions options;
  options.threads = threads;
  return options;
}

}  // namespace icsdiv::runner
