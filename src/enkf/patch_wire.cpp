#include "enkf/patch_wire.hpp"

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

}  // namespace

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

PatchView unpack_patch_view(parcomm::Unpacker& unpacker) {
  const grid::Rect rect = unpack_rect(unpacker);
  const std::span<const double> values = unpacker.view<double>();
  SENKF_REQUIRE(values.size() == rect.count(),
                "unpack_patch_view: body length disagrees with rect");
  return PatchView(rect, values);
}

}  // namespace senkf::enkf
