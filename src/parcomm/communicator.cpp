#include "parcomm/communicator.hpp"

#include "telemetry/phase.hpp"

namespace senkf::parcomm {

namespace {
telemetry::Counter& send_ns_counter() {
  static telemetry::Counter& counter =
      telemetry::Registry::global().counter("parcomm.send_ns");
  return counter;
}
telemetry::Counter& bytes_sent_counter() {
  static telemetry::Counter& counter =
      telemetry::Registry::global().counter("parcomm.bytes_sent");
  return counter;
}
}  // namespace

Communicator::Communicator(std::shared_ptr<Bus> bus, int rank, int size)
    : bus_(std::move(bus)), rank_(rank), size_(size) {
  SENKF_REQUIRE(bus_ != nullptr, "Communicator: bus must not be null");
  SENKF_REQUIRE(rank >= 0 && rank < size, "Communicator: rank out of range");
}

Mailbox& Communicator::my_mailbox() { return bus_->mailbox(rank_); }

void Communicator::send(int dest, int tag, Payload payload) {
  send_shared(dest, tag, SharedPayload(std::move(payload)));
}

void Communicator::send_shared(int dest, int tag, SharedPayload payload) {
  SENKF_REQUIRE(dest >= 0 && dest < size_,
                "Communicator: destination rank out of range");
  SENKF_REQUIRE(tag >= 0, "Communicator::send: user tags must be >= 0");
  telemetry::CountedSpan span(telemetry::Category::kSend, "send",
                              send_ns_counter());
  Envelope envelope;
  envelope.source = rank_;
  envelope.tag = tag;
  envelope.payload = std::move(payload);
  bytes_sent_counter().add(envelope.payload.size());
  if (telemetry::tracing_enabled()) {
    // Attributed to the sending thread's rank, the key every trace span
    // (pid rows, the critical-path table) is recorded under.
    envelope.ctx.origin_rank = telemetry::thread_rank();
    envelope.ctx.span_id = telemetry::alloc_flow_id();
    envelope.ctx.send_ns = telemetry::now_ns();
    // Zero-length marker span carrying the flow origin ("s"): receivers'
    // wait spans point their flow steps/finish at this id, which is what
    // lets the critical-path walker (and Perfetto's arrows) jump from a
    // blocked receiver back to this exact send.
    telemetry::TraceEvent event;
    event.name = "msg_send";
    event.t_start_ns = envelope.ctx.send_ns;
    event.t_end_ns = envelope.ctx.send_ns;
    event.rank = envelope.ctx.origin_rank;
    event.flow_id = envelope.ctx.span_id;
    event.category = telemetry::Category::kSend;
    event.flow = telemetry::FlowDir::kOut;
    telemetry::record_event(event);
  }
  bus_->mailbox(dest).push(std::move(envelope));
}

void Communicator::send_doubles(int dest, int tag,
                                const std::vector<double>& values) {
  Packer packer;
  packer.put_vector(values);
  send(dest, tag, packer.take());
}

Envelope Communicator::recv(int source, int tag) {
  return my_mailbox().pop(source, tag);
}

std::vector<double> Communicator::recv_doubles(int source, int tag) {
  const Envelope envelope = recv(source, tag);
  Unpacker unpacker(envelope.payload);
  return unpacker.get_vector<double>();
}

}  // namespace senkf::parcomm
