// Mailbox demultiplexer.
//
// Several protocol layers (two-sided messaging, PSCW synchronization, window
// management) share one per-rank control-message mailbox. Each layer
// registers handlers for its message kinds; progress() drains the mailbox
// and dispatches. All blocking waits funnel through wait_progress() so that
// control messages are consumed no matter which layer a rank is blocked in.
#pragma once

#include <functional>
#include <span>
#include <unordered_map>

#include "net/nic.hpp"
#include "obs/msgtrace.hpp"

namespace narma::net {

class MsgRouter {
 public:
  explicit MsgRouter(Nic& nic) : nic_(nic) {}
  MsgRouter(const MsgRouter&) = delete;
  MsgRouter& operator=(const MsgRouter&) = delete;

  using Handler = std::function<void(NetMsg&&)>;

  /// Registers the handler for one message kind. A kind may have exactly one
  /// handler; re-registration replaces it (used by short-lived windows).
  void register_kind(std::uint32_t kind, Handler h) {
    handlers_[kind] = std::move(h);
  }

  void unregister_kind(std::uint32_t kind) { handlers_.erase(kind); }

  /// Registers an *asynchronous* handler: invoked at delivery time in event
  /// context (an asynchronous software progression agent), instead of
  /// waiting for the owning rank to enter a progress call. The handler must
  /// only use event-context-safe operations (e.g. Nic::put_at).
  void register_async_kind(std::uint32_t kind, Handler h) {
    async_handlers_[kind] = std::move(h);
    if (!hook_installed_) {
      hook_installed_ = true;
      nic_.set_delivery_hook([this](NetMsg&& m) {
        auto it = async_handlers_.find(m.kind);
        if (it == async_handlers_.end()) return false;
        it->second(std::move(m));
        return true;
      });
    }
  }

  /// Drains simulation events up to the rank's clock, then dispatches every
  /// mailbox message to its handler.
  void progress() {
    nic_.ctx().drain();
    bool drained = false;
    // Same visibility rule as Nic::pop_hw_batch: a message stamped in this
    // rank's future stays queued until the clock catches up (handlers may
    // advance the clock, so the front is re-tested every iteration).
    while (!nic_.mailbox().empty() &&
           nic_.mailbox().front().time <= nic_.ctx().now()) {
      drained = true;
      NetMsg msg = nic_.pop_mailbox();
      if (msg.msg)
        if (auto* mt = nic_.fabric().msgtrace())
          mt->hop(msg.msg, nic_.rank(), obs::HopKind::kPop,
                  nic_.ctx().now());
      auto it = handlers_.find(msg.kind);
      NARMA_CHECK(it != handlers_.end())
          << "no handler for message kind 0x" << std::hex << msg.kind
          << " at rank " << std::dec << nic_.rank();
      it->second(std::move(msg));
    }
    if (drained) nic_.sample_queue_gauges();
  }

  /// Blocks until pred() holds, running progress() on every wakeup.
  template <class Pred>
  void wait_progress(Pred pred, const char* label) {
    progress();
    while (!pred()) {
      // A queue entry in this rank's future means its delivery notify has
      // already fired; bound the sleep so the entry is consumed on time.
      const Time due = nic_.next_pending_time();
      if (due != Nic::kNoPending)
        nic_.ctx().wait_deadline(nic_.progress(), due, label);
      else
        nic_.ctx().wait(nic_.progress(), label);
      progress();
    }
  }

  /// Batched hardware-notification drain: processes pending deliveries up to
  /// the rank's clock, then forwards to Nic::pop_hw_batch. Lets one poll
  /// amortize over a whole burst of completions.
  std::size_t pop_hw_batch(std::span<HwNotification> out) {
    nic_.ctx().drain();
    return nic_.pop_hw_batch(out);
  }

  Nic& nic() { return nic_; }

 private:
  Nic& nic_;
  std::unordered_map<std::uint32_t, Handler> handlers_;
  std::unordered_map<std::uint32_t, Handler> async_handlers_;
  bool hook_installed_ = false;
};

}  // namespace narma::net
