// Coordination primitives for simulated processes.
//
//  * Resource  — counted resource with FIFO admission (disk streams,
//                network injection slots);
//  * WaitGroup — join-point for a dynamic set of tasks;
//  * Event     — one-shot broadcast signal;
//  * Queue<T>  — FIFO channel between simulated processes (the DES
//                analogue of a parcomm mailbox).
//
// All wake-ups go through Simulation's event queue at the current time, so
// resumption order is deterministic and call stacks stay flat.  Queue uses
// direct value handoff to a woken consumer, which keeps multi-consumer
// queues race-free (an already-ready consumer can never steal an item that
// was promised to a suspended one).
#pragma once

#include <deque>
#include <optional>

#include "sim/simulation.hpp"

namespace senkf::sim {

/// Counted FIFO resource.  `co_await resource.acquire()` blocks while all
/// units are in use; `release()` wakes the longest waiter and transfers
/// the unit to it.
class Resource {
 public:
  Resource(Simulation& sim, int capacity);

  int capacity() const { return capacity_; }
  int in_use() const { return in_use_; }
  std::size_t queue_length() const { return waiters_.size(); }

  /// Total time callers spent queued (utilization diagnostics).
  double total_wait_time() const { return total_wait_time_; }

  auto acquire() {
    struct Awaiter {
      Resource* resource;
      double enqueue_time = 0.0;
      bool queued = false;
      bool await_ready() {
        if (resource->in_use_ < resource->capacity_) {
          ++resource->in_use_;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> handle) {
        queued = true;
        enqueue_time = resource->sim_.now();
        resource->waiters_.push_back(handle);
      }
      void await_resume() {
        // On the queued path the unit was transferred by release().
        if (queued) {
          resource->total_wait_time_ += resource->sim_.now() - enqueue_time;
        }
      }
    };
    return Awaiter{this};
  }

  /// Returns one unit; if someone is queued the unit transfers to them.
  void release();

 private:
  Simulation& sim_;
  int capacity_;
  int in_use_ = 0;
  double total_wait_time_ = 0.0;
  std::deque<std::coroutine_handle<>> waiters_;
};

/// Join-point: `add(n)` registers work, `done()` retires one unit, and
/// `co_await wait()` resumes when the count reaches zero.  Reusable: a
/// later add() re-arms it for the next round.
class WaitGroup {
 public:
  explicit WaitGroup(Simulation& sim) : sim_(sim) {}

  void add(int count = 1);
  void done();
  int pending() const { return pending_; }

  auto wait() {
    struct Awaiter {
      WaitGroup* group;
      bool await_ready() const { return group->pending_ == 0; }
      void await_suspend(std::coroutine_handle<> handle) {
        group->waiters_.push_back(handle);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

 private:
  Simulation& sim_;
  int pending_ = 0;
  std::deque<std::coroutine_handle<>> waiters_;
};

/// One-shot broadcast event.
class Event {
 public:
  explicit Event(Simulation& sim) : sim_(sim) {}

  bool is_set() const { return set_; }
  void set();

  auto wait() {
    struct Awaiter {
      Event* event;
      bool await_ready() const { return event->set_; }
      void await_suspend(std::coroutine_handle<> handle) {
        event->waiters_.push_back(handle);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

 private:
  Simulation& sim_;
  bool set_ = false;
  std::deque<std::coroutine_handle<>> waiters_;
};

/// Unbounded FIFO channel; pop() suspends while empty.  Values promised to
/// suspended consumers are handed off directly, never re-queued.
template <typename T>
class Queue {
 public:
  explicit Queue(Simulation& sim) : sim_(sim) {}

  void push(T value) {
    if (!waiters_.empty()) {
      Waiter waiter = waiters_.front();
      waiters_.pop_front();
      *waiter.slot = std::move(value);
      sim_.schedule_now(waiter.handle);
      return;
    }
    items_.push_back(std::move(value));
  }

  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

  auto pop() {
    struct Awaiter {
      Queue* queue;
      std::optional<T> slot;
      bool await_ready() {
        if (!queue->items_.empty()) {
          slot = std::move(queue->items_.front());
          queue->items_.pop_front();
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> handle) {
        queue->waiters_.push_back(Waiter{handle, &slot});
      }
      T await_resume() {
        SENKF_ASSERT(slot.has_value());
        return std::move(*slot);
      }
    };
    return Awaiter{this, std::nullopt};
  }

 private:
  struct Waiter {
    std::coroutine_handle<> handle;
    std::optional<T>* slot;
  };

  Simulation& sim_;
  std::deque<T> items_;
  std::deque<Waiter> waiters_;
};

}  // namespace senkf::sim
