// Property sweep: decomposition invariants across the parameter lattice.
#include <gtest/gtest.h>

#include <set>

#include "grid/decomposition.hpp"

namespace senkf::grid {
namespace {

struct Case {
  Index nx, ny, sdx, sdy, xi, eta;
};

class DecompositionProperties : public ::testing::TestWithParam<Case> {};

TEST_P(DecompositionProperties, PartitionCoverageAndContainment) {
  const Case c = GetParam();
  const Decomposition d(LatLonGrid(c.nx, c.ny), c.sdx, c.sdy,
                        Halo{c.xi, c.eta});

  // Sub-domains partition the grid exactly.
  std::set<Index> covered;
  for (const SubdomainId id : d.all_subdomains()) {
    const Rect r = d.subdomain(id);
    for (Index y = r.y.begin; y < r.y.end; ++y) {
      for (Index x = r.x.begin; x < r.x.end; ++x) {
        ASSERT_TRUE(covered.insert(d.grid().flat_index(x, y)).second);
      }
    }
    // Expansion contains the sub-domain and stays inside the grid.
    const Rect e = d.expansion(id);
    EXPECT_TRUE(rect_contains(e, r));
    EXPECT_TRUE(rect_contains(d.grid().bounds(), e));
    // Expansion contains every point's local box.
    for (Index y = r.y.begin; y < r.y.end; ++y) {
      for (Index x = r.x.begin; x < r.x.end; ++x) {
        ASSERT_TRUE(rect_contains(
            e, local_box(d.grid(), Point{x, y}, d.halo())));
      }
    }
  }
  EXPECT_EQ(covered.size(), d.grid().size());

  // Rank mapping is a bijection.
  for (Index rank = 0; rank < d.subdomain_count(); ++rank) {
    EXPECT_EQ(d.rank_of(d.subdomain_of_rank(rank)), rank);
  }

  // Bars tile the latitude axis and expanded bars cover row expansions.
  Index rows_covered = 0;
  for (Index j = 0; j < d.n_sdy(); ++j) {
    rows_covered += d.bar(j).y.size();
    const Rect eb = d.expanded_bar(j);
    for (Index i = 0; i < d.n_sdx(); ++i) {
      const Rect expansion = d.expansion(SubdomainId{i, j});
      EXPECT_LE(eb.y.begin, expansion.y.begin);
      EXPECT_GE(eb.y.end, expansion.y.end);
    }
  }
  EXPECT_EQ(rows_covered, d.grid().ny());

  // Every valid layer count partitions each sub-domain's rows, the layer
  // targets of all sub-domains cover each grid point exactly once (the
  // engines write each target straight into the output fields, so this is
  // what makes those writes disjoint and complete), and the layer
  // expansions stay within the sub-domain expansion.
  const Index rows = d.grid().ny() / d.n_sdy();
  for (Index layers = 1; layers <= rows; ++layers) {
    if (!d.valid_layer_count(layers)) continue;
    covered.clear();
    for (const SubdomainId id : d.all_subdomains()) {
      Index layer_rows = 0;
      for (Index l = 0; l < layers; ++l) {
        const Rect layer_rect = d.layer(id, l, layers);
        layer_rows += layer_rect.y.size();
        for (Index y = layer_rect.y.begin; y < layer_rect.y.end; ++y) {
          for (Index x = layer_rect.x.begin; x < layer_rect.x.end; ++x) {
            ASSERT_TRUE(covered.insert(d.grid().flat_index(x, y)).second)
                << "L=" << layers << " covers (" << x << ", " << y << ") twice";
          }
        }
        EXPECT_TRUE(rect_contains(d.expansion(id),
                                  d.layer_expansion(id, l, layers)));
      }
      EXPECT_EQ(layer_rows, rows);
    }
    EXPECT_EQ(covered.size(), d.grid().size()) << "L=" << layers;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Lattice, DecompositionProperties,
    ::testing::Values(Case{12, 8, 1, 1, 0, 0}, Case{12, 8, 3, 2, 2, 1},
                      Case{24, 12, 4, 3, 5, 3}, Case{24, 12, 24, 12, 1, 1},
                      Case{16, 16, 2, 8, 3, 2}, Case{30, 10, 5, 2, 0, 4},
                      Case{18, 18, 9, 3, 10, 10}, Case{20, 14, 4, 7, 2, 2}));

}  // namespace
}  // namespace senkf::grid
