// Engine configuration knobs.
//
// The engine has one event queue (the calendar queue of pooled InlineFn
// closures, event_queue.hpp) and one rank executor (stackful fibers on the
// engine thread, fiber.hpp); what remains settable is their geometry.
#pragma once

#include <cstddef>
#include <cstdint>

namespace narma::sim {

struct SimParams {
  /// Number of calendar buckets. Each bucket covers one slice of the
  /// current calendar window; events are sorted only when their bucket
  /// becomes current. Must be a power of two. Performance-only: execution
  /// order is independent of the geometry.
  std::uint32_t calendar_buckets = 256;

  /// Per-rank fiber stack size in bytes (NARMA_STACK_KB overrides via
  /// World; rounded up to whole pages, minimum Fiber::kMinStackBytes). The
  /// stack is reserved, not committed: RSS grows only with the pages a rank
  /// actually touches, so a generous default costs nothing at 4096 ranks. A
  /// guard page below the stack turns overflow into a deterministic fault.
  std::size_t stack_bytes = 256 * 1024;
};

}  // namespace narma::sim
