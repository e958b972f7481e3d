#include "io/read_plan.hpp"

#include <gtest/gtest.h>

#include "enkf/ensemble_store.hpp"
#include "enkf/penkf.hpp"
#include "enkf/senkf.hpp"
#include "obs/perturbed.hpp"

namespace senkf::io {
namespace {

grid::Decomposition make_decomp(Index nx = 24, Index ny = 12, Index sdx = 4,
                                Index sdy = 3,
                                grid::Halo halo = grid::Halo{2, 1}) {
  return grid::Decomposition(grid::LatLonGrid(nx, ny), sdx, sdy, halo);
}

TEST(BlockPlan, OneReaderPerSubdomainOneOpPerMember) {
  const auto d = make_decomp();
  const auto plan = block_read_plan(d, 5);
  EXPECT_EQ(plan.readers.size(), 12u);
  for (const auto& reader : plan.readers) {
    EXPECT_EQ(reader.ops.size(), 5u);
    // Each op covers this reader's expansion.
    const auto id = d.subdomain_of_rank(reader.reader);
    for (const auto& op : reader.ops) {
      EXPECT_EQ(op.region, d.expansion(id));
    }
  }
}

TEST(BlockPlan, SegmentArithmeticMatchesPaper) {
  // Paper §4.1.1: total addressing operations per member grow as
  // O(n_y · n_sdx) (interior tiles contribute rows+halo segments each).
  const auto d = make_decomp(40, 20, 4, 2, grid::Halo{0, 0});  // no halo
  const auto plan = block_read_plan(d, 1);
  // 8 readers × 10 rows = n_sdx(4) × n_y(20) segments... per column of
  // tiles: each of the n_sdy rows-of-tiles covers all n_y rows once.
  EXPECT_EQ(plan.total_segments(), 4u * 20u);
}

TEST(BlockPlan, FullWidthSingleTileIsContiguous) {
  const auto d = make_decomp(24, 12, 1, 3, grid::Halo{0, 0});
  const auto plan = block_read_plan(d, 2);
  // n_sdx = 1 → full-width blocks → one segment per op.
  for (const auto& reader : plan.readers) {
    for (const auto& op : reader.ops) EXPECT_EQ(op.segments, 1u);
  }
}

TEST(ConcurrentPlan, GroupsPartitionMembers) {
  const auto d = make_decomp();
  const auto plan = concurrent_bar_plan(d, 6, 2, 1);
  EXPECT_EQ(plan.readers.size(), 2u * 3u);
  // Every (member) appears exactly n_sdy times (once per bar row).
  std::vector<int> seen(6, 0);
  for (const auto& reader : plan.readers) {
    for (const auto& op : reader.ops) ++seen[op.member];
  }
  for (const int count : seen) EXPECT_EQ(count, 3);
}

TEST(ConcurrentPlan, BarsAreSingleSegment) {
  const auto d = make_decomp();
  const auto plan = concurrent_bar_plan(d, 6, 3, 1);
  for (const auto& reader : plan.readers) {
    for (const auto& op : reader.ops) {
      EXPECT_EQ(op.segments, 1u);
      EXPECT_EQ(op.region.x.begin, 0u);
      EXPECT_EQ(op.region.x.end, 24u);
    }
  }
}

TEST(ConcurrentPlan, LayersMultiplyOpsAndAddHaloBytes) {
  const auto d = make_decomp(24, 12, 4, 1, grid::Halo{2, 1});
  const auto one = concurrent_bar_plan(d, 4, 1, 1);
  const auto staged = concurrent_bar_plan(d, 4, 1, 3);
  EXPECT_EQ(staged.total_ops(), 3u * one.total_ops());
  // Halo rows are re-read every stage → more total bytes.
  EXPECT_GT(staged.total_bytes(), one.total_bytes());
}

TEST(ConcurrentPlan, SegmentTotalsBeatBlockPlan) {
  const auto d = make_decomp(48, 24, 8, 4);
  const auto block = block_read_plan(d, 8);
  const auto bars = concurrent_bar_plan(d, 8, 2, 1);
  EXPECT_LT(bars.total_segments() * 5, block.total_segments());
}

TEST(SingleReaderPlan, WholeFilesOnce) {
  const auto d = make_decomp();
  const auto plan = single_reader_plan(d, 7);
  ASSERT_EQ(plan.readers.size(), 1u);
  EXPECT_EQ(plan.total_ops(), 7u);
  EXPECT_EQ(plan.total_segments(), 7u);
  EXPECT_DOUBLE_EQ(plan.total_bytes(), 7.0 * 24 * 12 * 8.0);
}

TEST(Plans, Validation) {
  const auto d = make_decomp();
  EXPECT_THROW(block_read_plan(d, 0), senkf::InvalidArgument);
  EXPECT_THROW(concurrent_bar_plan(d, 5, 2, 1), senkf::InvalidArgument);
  EXPECT_THROW(concurrent_bar_plan(d, 6, 2, 3), senkf::InvalidArgument);
}

TEST(Plans, PredictPenkfSegmentCountersExactly) {
  // The plan's arithmetic must equal what the real P-EnKF run touches.
  const grid::LatLonGrid g(24, 12);
  senkf::Rng rng(3);
  const auto store = enkf::MemoryEnsembleStore::synthetic(g, 4, rng);
  senkf::Rng obs_rng(4);
  obs::NetworkOptions opt;
  opt.station_count = 30;
  const auto observations =
      obs::random_network(g, store.member(0), obs_rng, opt);
  const auto ys = obs::perturbed_observations(observations, 4,
                                              senkf::Rng(5));
  enkf::EnkfRunConfig config;
  config.n_sdx = 4;
  config.n_sdy = 3;
  config.analysis.halo = grid::Halo{2, 1};

  const grid::Decomposition d(g, 4, 3, config.analysis.halo);
  const auto plan = block_read_plan(d, 4);
  store.reset_counters();
  (void)enkf::penkf(store, observations, ys, config);
  EXPECT_EQ(store.segments_touched(), plan.total_segments());
  EXPECT_EQ(store.reads_issued(), plan.total_ops());
}

TEST(Plans, PredictSenkfSegmentCountersExactly) {
  const grid::LatLonGrid g(24, 12);
  senkf::Rng rng(6);
  const auto store = enkf::MemoryEnsembleStore::synthetic(g, 4, rng);
  senkf::Rng obs_rng(7);
  obs::NetworkOptions opt;
  opt.station_count = 30;
  const auto observations =
      obs::random_network(g, store.member(0), obs_rng, opt);
  const auto ys = obs::perturbed_observations(observations, 4,
                                              senkf::Rng(8));
  enkf::SenkfConfig config;
  config.n_sdx = 4;
  config.n_sdy = 3;
  config.layers = 2;
  config.n_cg = 2;
  config.analysis.halo = grid::Halo{2, 1};

  const grid::Decomposition d(g, 4, 3, config.analysis.halo);
  const auto plan = concurrent_bar_plan(d, 4, 2, 2);
  store.reset_counters();
  (void)enkf::senkf(store, observations, ys, config);
  EXPECT_EQ(store.segments_touched(), plan.total_segments());
  EXPECT_EQ(store.reads_issued(), plan.total_ops());
}

}  // namespace
}  // namespace senkf::io
