// Rank 0's result gather (enkf/patch_wire.hpp): the analysis fields are
// built from the ranks' result blocks alone, so a set of blocks that
// does not cover every field exactly once must be rejected rather than
// leave zeros behind.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "enkf/patch_wire.hpp"
#include "parcomm/runtime.hpp"

namespace senkf::enkf {
namespace {

using Block = std::pair<grid::Index, grid::Rect>;  // (member, rect)

constexpr int kTag = 2;
const grid::LatLonGrid kGrid(6, 4);
// Rank 0 owns the top two rows, rank 1 the bottom two.
const grid::Rect kTop{{0, 6}, {0, 2}};
const grid::Rect kBottom{{0, 6}, {2, 4}};

std::vector<grid::Field> members() {
  std::vector<grid::Field> out;
  for (int k = 0; k < 2; ++k) {
    grid::Field field(kGrid);
    for (grid::Index i = 0; i < field.size(); ++i) {
      field[i] = 100.0 * (k + 1) + static_cast<double>(i);
    }
    out.push_back(std::move(field));
  }
  return out;
}

/// One rank's result payload, [u64 count]([u64 member][patch block])*.
parcomm::SharedPayload pack_results(const std::vector<grid::Field>& fields,
                                    const std::vector<Block>& blocks) {
  parcomm::Packer packer;
  packer.put<std::uint64_t>(blocks.size());
  for (const auto& [member, rect] : blocks) {
    packer.put<std::uint64_t>(member);
    const grid::PatchView whole(kGrid.bounds(), fields[member].data());
    pack_patch_block(packer, whole, rect);
  }
  return packer.take_shared();
}

/// Runs the two-rank gather; rank 0 returns the assembled fields.
std::vector<grid::Field> gather(const std::vector<Block>& rank0,
                                const std::vector<Block>& rank1) {
  const std::vector<grid::Field> fields = members();
  const std::vector<grid::Index> slot{0, 1};
  std::vector<grid::Field> out;
  parcomm::Runtime::run(2, [&](parcomm::Communicator& world) {
    if (world.rank() == 1) {
      world.send_shared(0, kTag, pack_results(fields, rank1));
      return;
    }
    const parcomm::SharedPayload own = pack_results(fields, rank0);
    out = gather_results(world, kTag, 2, kGrid, slot, 2, own);
  });
  return out;
}

TEST(ResultGather, TilingBlocksRebuildEveryField) {
  const auto out = gather({{0, kTop}, {1, kTop}}, {{1, kBottom}, {0, kBottom}});
  ASSERT_EQ(out.size(), 2u);
  const auto expected = members();
  EXPECT_EQ(out[0].data(), expected[0].data());
  EXPECT_EQ(out[1].data(), expected[1].data());
}

TEST(ResultGather, MissingBlockIsProtocolError) {
  // Member 1's bottom half never arrives: without the check its rows
  // would read as zeros.
  EXPECT_THROW(gather({{0, kTop}, {1, kTop}}, {{0, kBottom}}),
               senkf::ProtocolError);
}

TEST(ResultGather, RepeatedBlockIsProtocolError) {
  // Member 1's top half arrives twice.
  const std::vector<Block> rank1{{0, kBottom}, {1, kBottom}, {1, kTop}};
  EXPECT_THROW(gather({{0, kTop}, {1, kTop}}, rank1), senkf::ProtocolError);
}

TEST(ResultGather, ResultForUnknownMemberIsRejected) {
  const std::vector<grid::Field> fields = members();
  const std::vector<grid::Index> slot{0, 2};  // member 1 was dropped
  const auto results =
      pack_results(fields, {{0, kGrid.bounds()}, {1, kGrid.bounds()}});
  parcomm::Communicator world(std::make_shared<parcomm::Bus>(1), 0, 1);
  EXPECT_THROW(gather_results(world, kTag, 1, kGrid, slot, 1, results),
               senkf::InvalidArgument);
}

}  // namespace
}  // namespace senkf::enkf
