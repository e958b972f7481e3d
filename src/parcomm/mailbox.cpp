#include "parcomm/mailbox.hpp"

#include <string>

#include "telemetry/phase.hpp"

namespace senkf::parcomm {

namespace {

// One registry entry set for every mailbox: per-mailbox metrics would
// explode the namespace, and the queue-depth histogram is what the
// flow-control analysis needs (are senders outrunning the helper thread?).
struct MailboxMetrics {
  telemetry::Counter& messages;
  telemetry::Counter& bytes;
  telemetry::Counter& recv_wait_ns;
  telemetry::Histogram& queue_depth;
  static MailboxMetrics& get() {
    auto& registry = telemetry::Registry::global();
    static MailboxMetrics m{
        registry.counter("parcomm.messages"),
        registry.counter("parcomm.bytes"),
        registry.counter("parcomm.recv_wait_ns"),
        registry.histogram("parcomm.queue_depth",
                           {1, 2, 4, 8, 16, 32, 64, 128, 256}),
    };
    return m;
  }
};

}  // namespace

void Mailbox::push(Envelope envelope) {
  MailboxMetrics& metrics = MailboxMetrics::get();
  metrics.messages.add(1);
  metrics.bytes.add(envelope.payload.size());
  std::size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(envelope));
    depth = queue_.size();
  }
  metrics.queue_depth.observe(static_cast<double>(depth));
  cv_.notify_all();
}

std::optional<Envelope> Mailbox::take_matching_locked(int source, int tag) {
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (matches(*it, source, tag)) {
      Envelope envelope = std::move(*it);
      queue_.erase(it);
      return envelope;
    }
  }
  return std::nullopt;
}

Envelope Mailbox::pop(int source, int tag, std::chrono::milliseconds timeout) {
  if (auto envelope =
          pop_until(source, tag, std::chrono::steady_clock::now() + timeout)) {
    return std::move(*envelope);
  }
  const std::string waiting_for =
      "source=" + std::to_string(source) + " tag=" + std::to_string(tag);
  if (cancelled_.load()) {
    throw ProtocolError("Mailbox::pop: run cancelled while waiting for " +
                        waiting_for + " (another rank failed)");
  }
  throw ProtocolError("Mailbox::pop: timed out waiting for " + waiting_for +
                      " (likely deadlock)");
}

std::optional<Envelope> Mailbox::pop_until(
    int source, int tag, std::chrono::steady_clock::time_point deadline) {
  telemetry::CountedSpan span(telemetry::Category::kWait, "mailbox_wait",
                              MailboxMetrics::get().recv_wait_ns);
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (auto envelope = take_matching_locked(source, tag)) {
      // Flow step: the message passed through this pop on its way to
      // whichever wait it ultimately releases (S-EnKF's stage_wait).
      span.set_flow(telemetry::FlowDir::kStep, envelope->ctx.span_id);
      return envelope;
    }
    if (cancelled_.load()) return std::nullopt;
    if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
      // One last sweep: a push may have landed between the final wake-up
      // and the deadline check.
      auto envelope = take_matching_locked(source, tag);
      if (envelope) {
        span.set_flow(telemetry::FlowDir::kStep, envelope->ctx.span_id);
      }
      return envelope;
    }
  }
}

void Mailbox::cancel() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    cancelled_.store(true);
  }
  cv_.notify_all();
}

std::size_t Mailbox::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

}  // namespace senkf::parcomm
