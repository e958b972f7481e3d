// Per-rank message queue with MPI-style (source, tag) matching.
//
// A Mailbox holds the envelopes addressed to one world rank.  `pop`
// blocks until an envelope matching the requested source/tag arrives
// (wildcards supported), preserving arrival order among matching
// envelopes — the non-overtaking guarantee MPI programs rely on.  A
// deadline turns silent deadlocks in user code into loud ProtocolErrors,
// and cancel() ends every wait at once when the run has already failed.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>

#include "parcomm/wire.hpp"

namespace senkf::parcomm {

/// Matches any source rank / any tag when passed to recv.
inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

/// Causal span context piggybacked on every message (DESIGN.md §13).
/// Stamped by the sender only while tracing is armed — span_id 0 means
/// "no context" and costs nothing — so receiver-side wait spans can
/// record which sender span they were blocked on and the Chrome-trace
/// export can draw cross-rank flow arrows.  Lives in the envelope header
/// next to (source, tag), never in the payload: the zero-copy plane
/// shares one sealed payload across fan-out destinations, but each
/// destination gets its own envelope and hence its own context.
struct SpanContext {
  std::int32_t origin_rank = -1;  ///< world rank that sent the message
  std::uint64_t span_id = 0;      ///< telemetry flow id; 0 = untraced
  std::int64_t send_ns = 0;       ///< telemetry::now_ns() at send time
};

/// One queued message.  The payload is a refcounted handle, so an
/// envelope never owns a private copy of the bytes: fan-out pushes the
/// same sealed buffer to every destination, and moving an envelope out
/// of the queue moves a pointer.  Receivers that unpack by view must
/// keep the handle (or an Unpacker built from it) alive while the views
/// are in use.  `ctx` default-initializes to "untraced".
struct Envelope {
  int source = 0;
  int tag = 0;
  SharedPayload payload;
  SpanContext ctx;
};

class Mailbox {
 public:
  /// Enqueues an envelope (called by the sender's thread).
  void push(Envelope envelope);

  /// Blocks until an envelope matching (source, tag) is available and
  /// removes it.  Throws ProtocolError after `timeout` (guards tests and
  /// examples against deadlock), or at once when the mailbox is
  /// cancelled and nothing matches.
  Envelope pop(int source, int tag,
               std::chrono::milliseconds timeout = kDefaultTimeout);

  /// Deadline overload returning a status instead of throwing: nullopt
  /// means the deadline passed, or the mailbox is cancelled, with nothing
  /// matching.  `pop` is built on it.  A deadline already in the past, or
  /// a cancelled mailbox, still takes an envelope that is queued already.
  std::optional<Envelope> pop_until(
      int source, int tag, std::chrono::steady_clock::time_point deadline);

  /// Wakes every waiter; from now on a pop that finds nothing matching
  /// fails instead of waiting.  Runtime::run calls it on every rank's
  /// mailbox once a rank has failed.  Pushes still enqueue.
  void cancel();

  /// Number of queued envelopes (diagnostic).
  std::size_t size() const;

  static constexpr std::chrono::milliseconds kDefaultTimeout{30000};

 private:
  static bool matches(const Envelope& envelope, int source, int tag) {
    return (source == kAnySource || envelope.source == source) &&
           (tag == kAnyTag || envelope.tag == tag);
  }

  std::optional<Envelope> take_matching_locked(int source, int tag);

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Envelope> queue_;
  /// Written under mutex_ (so no waiter misses the wake-up); atomic so
  /// pop can name the cause of a miss without the lock.
  std::atomic<bool> cancelled_{false};
};

}  // namespace senkf::parcomm
