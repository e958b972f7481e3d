#include "parcomm/mailbox.hpp"

#include <gtest/gtest.h>

#include <thread>

namespace senkf::parcomm {
namespace {

Envelope make(int source, int tag, double value = 0.0) {
  Packer packer;
  packer.put(value);
  Envelope envelope;
  envelope.source = source;
  envelope.tag = tag;
  envelope.payload = SharedPayload(packer.take());
  return envelope;
}

/// Deadline `timeout` from now.
std::chrono::steady_clock::time_point after(std::chrono::milliseconds timeout) {
  return std::chrono::steady_clock::now() + timeout;
}

TEST(Mailbox, PushPopFifoPerSignature) {
  Mailbox box;
  box.push(make(0, 1, 1.0));
  box.push(make(0, 1, 2.0));
  const Envelope a = box.pop(0, 1);
  const Envelope b = box.pop(0, 1);
  EXPECT_DOUBLE_EQ(Unpacker(a.payload).get<double>(), 1.0);
  EXPECT_DOUBLE_EQ(Unpacker(b.payload).get<double>(), 2.0);
}

TEST(Mailbox, MatchesBySourceAndTag) {
  Mailbox box;
  box.push(make(0, 5));
  box.push(make(1, 7));
  const Envelope e = box.pop(1, 7);
  EXPECT_EQ(e.source, 1);
  EXPECT_EQ(e.tag, 7);
  EXPECT_EQ(box.size(), 1u);
}

TEST(Mailbox, WildcardSource) {
  Mailbox box;
  box.push(make(3, 9));
  const Envelope e = box.pop(kAnySource, 9);
  EXPECT_EQ(e.source, 3);
}

TEST(Mailbox, WildcardTag) {
  Mailbox box;
  box.push(make(2, 11));
  const Envelope e = box.pop(2, kAnyTag);
  EXPECT_EQ(e.tag, 11);
}

TEST(Mailbox, SkipsNonMatching) {
  Mailbox box;
  box.push(make(0, 1));
  box.push(make(0, 2));
  const Envelope e = box.pop(0, 2);
  EXPECT_EQ(e.tag, 2);
  EXPECT_EQ(box.size(), 1u);  // tag-1 message still queued
}

TEST(Mailbox, BlocksUntilPushFromAnotherThread) {
  Mailbox box;
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    box.push(make(0, 3, 7.0));
  });
  const Envelope e = box.pop(0, 3);
  producer.join();
  EXPECT_DOUBLE_EQ(Unpacker(e.payload).get<double>(), 7.0);
}

TEST(Mailbox, TimeoutThrowsProtocolError) {
  Mailbox box;
  EXPECT_THROW(box.pop(0, 0, std::chrono::milliseconds(30)), ProtocolError);
}

TEST(Mailbox, TimeoutDoesNotLoseQueuedMismatch) {
  Mailbox box;
  box.push(make(0, 1));
  EXPECT_THROW(box.pop(0, 2, std::chrono::milliseconds(30)), ProtocolError);
  EXPECT_EQ(box.size(), 1u);
  EXPECT_NO_THROW(box.pop(0, 1, std::chrono::milliseconds(10)));
}

// ---- status-returning deadline waits (the overload `pop`'s deadlock
// guard is built on: a blown deadline returns nullopt and `pop` turns it
// into the ProtocolError, so pop_until itself must not throw).

TEST(Mailbox, PopForReturnsMessageWithinDeadline) {
  Mailbox box;
  box.push(make(0, 4, 2.5));
  const auto envelope =
      box.pop_until(0, 4, after(std::chrono::milliseconds(10)));
  ASSERT_TRUE(envelope.has_value());
  EXPECT_DOUBLE_EQ(Unpacker(envelope->payload).get<double>(), 2.5);
}

TEST(Mailbox, PopForReturnsNulloptOnDeadline) {
  Mailbox box;
  EXPECT_FALSE(
      box.pop_until(0, 4, after(std::chrono::milliseconds(20))).has_value());
  box.push(make(0, 9));
  // The miss consumed nothing; unrelated messages stay queued.
  EXPECT_FALSE(
      box.pop_until(0, 4, after(std::chrono::milliseconds(10))).has_value());
  EXPECT_EQ(box.size(), 1u);
}

TEST(Mailbox, PopForWakesOnConcurrentPush) {
  Mailbox box;
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    box.push(make(1, 6, 8.0));
  });
  const auto envelope = box.pop_until(1, 6, after(std::chrono::seconds(5)));
  producer.join();
  ASSERT_TRUE(envelope.has_value());
  EXPECT_DOUBLE_EQ(Unpacker(envelope->payload).get<double>(), 8.0);
}

// ---- cancellation (Runtime::run cancels every mailbox once a rank has
// failed).

TEST(Mailbox, CancelWakesABlockedPopWhichThrows) {
  Mailbox box;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    box.cancel();
  });
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(box.pop(0, 1, std::chrono::seconds(10)), ProtocolError);
  canceller.join();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
}

TEST(Mailbox, CancelledMailboxStillDeliversQueuedMatches) {
  Mailbox box;
  box.cancel();
  box.push(make(0, 1, 4.0));  // pushes still enqueue
  EXPECT_DOUBLE_EQ(
      Unpacker(box.pop(0, 1, std::chrono::seconds(10)).payload).get<double>(),
      4.0);
  // Nothing matching: fails at once instead of waiting out the timeout.
  EXPECT_FALSE(box.pop_until(0, 1, after(std::chrono::seconds(10))).has_value());
  EXPECT_THROW(box.pop(0, 1, std::chrono::seconds(10)), ProtocolError);
}

TEST(Mailbox, PopUntilPastDeadlineStillSweepsQueuedMatch) {
  Mailbox box;
  box.push(make(2, 3, 1.0));
  // A deadline already in the past must not miss an already-queued match.
  const auto envelope =
      box.pop_until(2, 3, std::chrono::steady_clock::now());
  ASSERT_TRUE(envelope.has_value());
}

}  // namespace
}  // namespace senkf::parcomm
