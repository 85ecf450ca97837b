//===- serve/RequestQueue.h - Bounded MPMC queue with admission control ---===//
//
// Part of the DreamCoder C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The server's backpressure primitive: a bounded multi-producer multi-
/// consumer queue. Producers (connection readers) never block — tryPush
/// fails immediately when the queue is full, which the server turns into
/// a structured `overloaded` rejection so clients learn about saturation
/// instead of stacking up unbounded latency. Consumers (workers) block
/// in pop() until an item arrives or the queue is closed.
///
/// close() is the first step of graceful shutdown: producers start
/// failing (rejected as `shutting_down`), while consumers continue to
/// drain items already admitted — an accepted request is never dropped.
/// pop() returns nullopt only when the queue is both closed and empty,
/// which is each worker's signal to exit.
///
//===----------------------------------------------------------------------===//

#ifndef DC_SERVE_REQUESTQUEUE_H
#define DC_SERVE_REQUESTQUEUE_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace dc::serve {

/// Why a tryPush was (not) admitted, decided under the queue lock. The
/// distinction matters to clients: Full means "back off and retry"
/// (`overloaded`), Closed means "this server is going away"
/// (`shutting_down`). A bare bool + follow-up closed() check would race
/// with a concurrent close() and misreport one as the other.
enum class PushResult { Ok, Full, Closed };

template <typename T> class BoundedQueue {
public:
  explicit BoundedQueue(size_t Capacity) : Capacity(Capacity ? Capacity : 1) {}

  /// Non-blocking admission. The returned reason is consistent with the
  /// queue state at the moment of the attempt (single lock acquisition).
  [[nodiscard]] PushResult tryPush(T Item) {
    {
      std::lock_guard<std::mutex> Lock(M);
      if (Closed)
        return PushResult::Closed;
      if (Items.size() >= Capacity)
        return PushResult::Full;
      Items.push_back(std::move(Item));
    }
    NotEmpty.notify_one();
    return PushResult::Ok;
  }

  /// Blocks until an item is available or the queue is closed and fully
  /// drained (then nullopt — the consumer's exit signal).
  std::optional<T> pop() {
    std::unique_lock<std::mutex> Lock(M);
    NotEmpty.wait(Lock, [&] { return !Items.empty() || Closed; });
    if (Items.empty())
      return std::nullopt;
    T Item = std::move(Items.front());
    Items.pop_front();
    return Item;
  }

  /// Stops admission; consumers drain the remainder and then see nullopt.
  void close() {
    {
      std::lock_guard<std::mutex> Lock(M);
      Closed = true;
    }
    NotEmpty.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> Lock(M);
    return Closed;
  }

  /// Instantaneous occupancy (metrics; racy by nature, exact under lock).
  size_t depth() const {
    std::lock_guard<std::mutex> Lock(M);
    return Items.size();
  }

  size_t capacity() const { return Capacity; }

private:
  const size_t Capacity;
  mutable std::mutex M;
  std::condition_variable NotEmpty;
  std::deque<T> Items;
  bool Closed = false;
};

} // namespace dc::serve

#endif // DC_SERVE_REQUESTQUEUE_H
