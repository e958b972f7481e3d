#include "enkf/patch_wire.hpp"

#include <string>

#include "telemetry/trace.hpp"

namespace senkf::enkf {

namespace {

void pack_rect(parcomm::Packer& packer, grid::Rect rect) {
  packer.put<std::uint64_t>(rect.x.begin);
  packer.put<std::uint64_t>(rect.x.end);
  packer.put<std::uint64_t>(rect.y.begin);
  packer.put<std::uint64_t>(rect.y.end);
}

grid::Rect unpack_rect(parcomm::Unpacker& unpacker) {
  grid::Rect rect;
  rect.x.begin = unpacker.get<std::uint64_t>();
  rect.x.end = unpacker.get<std::uint64_t>();
  rect.y.begin = unpacker.get<std::uint64_t>();
  rect.y.end = unpacker.get<std::uint64_t>();
  return rect;
}

/// Inserts one rank's result payload and adds each block's value count
/// to its field's tally in `received`.
void insert_results(const parcomm::SharedPayload& payload,
                    std::span<const grid::Index> slot,
                    std::span<grid::Field> fields,
                    std::span<grid::Index> received) {
  parcomm::Unpacker unpacker(payload);
  const auto count = unpacker.get<std::uint64_t>();
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto member = unpacker.get<std::uint64_t>();
    SENKF_REQUIRE(member < slot.size() && slot[member] < fields.size(),
                  "insert_results: result for a dropped or unknown member");
    const PatchView block = unpack_patch_view(unpacker);
    fields[slot[member]].insert(block);
    received[slot[member]] += block.size();
  }
}

}  // namespace

void pack_patch(parcomm::Packer& packer, const PatchView& patch) {
  pack_rect(packer, patch.rect());
  packer.put_span(patch.values());
}

void pack_patch_block(parcomm::Packer& packer, const PatchView& bar,
                      grid::Rect block) {
  SENKF_REQUIRE(grid::rect_contains(bar.rect(), block),
                "pack_patch_block: block must lie inside the bar");
  pack_rect(packer, block);
  packer.put<std::uint64_t>(block.count());
  const double* values = bar.values().data();
  for (grid::Index y = block.y.begin; y < block.y.end; ++y) {
    packer.put_raw(values + bar.local_index(block.x.begin, y),
                   block.x.size());
  }
  if (block.count() > 0) parcomm::detail::payload_copies_counter().add(1);
}

std::size_t packed_patch_size(grid::Rect rect) {
  return 5 * sizeof(std::uint64_t) + rect.count() * sizeof(double);
}

std::span<double> pack_patch_slot(parcomm::Packer& packer, grid::Rect rect) {
  pack_rect(packer, rect);
  packer.put<std::uint64_t>(rect.count());
  auto body = packer.put_uninit<double>(rect.count());
  // The producer's in-place fill is the one body write this block sees.
  if (rect.count() > 0) parcomm::detail::payload_copies_counter().add(1);
  return body;
}

PatchView unpack_patch_view(parcomm::Unpacker& unpacker) {
  const grid::Rect rect = unpack_rect(unpacker);
  const std::span<const double> values = unpacker.view<double>();
  SENKF_REQUIRE(values.size() == rect.count(),
                "unpack_patch_view: body length disagrees with rect");
  return PatchView(rect, values);
}

std::vector<grid::Field> gather_results(parcomm::Communicator& world, int tag,
                                        int n_ranks,
                                        const grid::LatLonGrid& grid,
                                        std::span<const grid::Index> slot,
                                        std::size_t n_fields,
                                        const parcomm::SharedPayload& results) {
  std::vector<grid::Field> fields(n_fields, grid::Field(grid));
  std::vector<grid::Index> received(n_fields, 0);
  insert_results(results, slot, fields, received);
  for (int r = 1; r < n_ranks; ++r) {
    parcomm::Envelope envelope;
    {
      telemetry::TraceSpan wait_span(telemetry::Category::kWait,
                                     "result_wait");
      envelope = world.recv(r, tag);
      wait_span.set_flow(telemetry::FlowDir::kIn, envelope.ctx.span_id);
    }
    insert_results(envelope.payload, slot, fields, received);
  }
  for (std::size_t f = 0; f < n_fields; ++f) {
    if (received[f] != grid.size()) {
      throw ProtocolError("gather_results: analysis field " +
                          std::to_string(f) + " received " +
                          std::to_string(received[f]) + " of " +
                          std::to_string(grid.size()) + " values");
    }
  }
  return fields;
}

}  // namespace senkf::enkf
