// MPMC work queue feeding the allocation service's dispatcher.
//
// Producers (request handlers, the trace replayer, tests) push events
// from any thread and receive a future for the outcome; a consumer
// takes everything queued at once, in FIFO order, so the dispatcher can
// commit the whole drain to its WAL with one fsync. The queue is
// deliberately tiny — mutex + condition variable, like
// runtime::ThreadPool — because service events are coarse (each
// triggers a solve); what matters is strict FIFO hand-off,
// multi-producer safety, and a clean shutdown that fails still-queued
// submissions instead of dropping their promises.
#pragma once

#include <cstddef>
#include <deque>
#include <future>
#include <utility>

#include "service/event.hpp"
#include "support/mutex.hpp"
#include "support/status.hpp"

namespace mfa::service {

class EventQueue {
 public:
  /// One queued submission: the event plus the promise its producer
  /// holds the future of.
  struct Item {
    Event event;
    std::promise<EventOutcome> reply;
  };

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Enqueues `event`; the future resolves once a consumer has processed
  /// it. After close(), the returned future fails immediately with a
  /// kInvalid outcome instead of queueing.
  std::future<EventOutcome> push(Event event) {
    std::promise<EventOutcome> reply;
    std::future<EventOutcome> future = reply.get_future();
    {
      LockGuard lock(mutex_);
      if (closed_) {
        EventOutcome outcome;
        outcome.type = event.type;
        outcome.status = Status{Code::kInvalid, "event queue closed"};
        reply.set_value(std::move(outcome));
        return future;
      }
      items_.push_back(Item{std::move(event), std::move(reply)});
    }
    cv_.notify_one();
    return future;
  }

  /// Blocks until an item is available or the queue is closed, then
  /// takes every queued item at once, in FIFO order; an empty result
  /// means closed *and* drained (consumers should exit).
  std::deque<Item> pop_all() {
    std::deque<Item> drained;
    LockGuard lock(mutex_);
    // Explicit predicate loop (not a wait-with-lambda): the thread
    // safety analysis follows this shape; see support/mutex.hpp.
    while (!closed_ && items_.empty()) cv_.wait(mutex_);
    drained.swap(items_);
    return drained;
  }

  /// Stops accepting submissions; queued items remain poppable so the
  /// dispatcher drains them before exiting.
  void close() {
    {
      LockGuard lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  [[nodiscard]] std::size_t size() const {
    LockGuard lock(mutex_);
    return items_.size();
  }

 private:
  mutable Mutex mutex_;
  CondVar cv_;
  std::deque<Item> items_ MFA_GUARDED_BY(mutex_);
  bool closed_ MFA_GUARDED_BY(mutex_) = false;
};

}  // namespace mfa::service
