// The runtime's shared relaxation cache.
//
// The cache type itself lives in core (core/relax_cache.hpp) so the
// solver and allocation layers can consume a pointer to it without
// depending on runtime; this header re-exports it under the runtime
// namespace, which owns the cross-request sharing policy: BatchRunner
// instantiates one cache per batch by default, and callers running many
// batches over one design space can pass a longer-lived instance through
// BatchOptions::context to keep hits across batches.
#pragma once

#include "core/relax_cache.hpp"

namespace mfa::runtime {

using RelaxationCache = core::RelaxationCache;

}  // namespace mfa::runtime
