#include "enkf/file_store.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "enkf/diagnostics.hpp"
#include "enkf/lenkf.hpp"
#include "enkf/penkf.hpp"
#include "enkf/senkf.hpp"
#include "grid/synthetic.hpp"
#include "obs/perturbed.hpp"

namespace senkf::enkf {
namespace {

namespace fs = std::filesystem;

/// Unique temp directory per test, removed on destruction.
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& name)
      : path(fs::temp_directory_path() / ("senkf_test_" + name)) {
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

struct World {
  grid::LatLonGrid g{24, 12};
  grid::SyntheticEnsemble scenario;

  explicit World(std::uint64_t seed) : scenario(make(g, seed)) {}
  static grid::SyntheticEnsemble make(const grid::LatLonGrid& g,
                                      std::uint64_t seed) {
    senkf::Rng rng(seed);
    return grid::synthetic_ensemble(g, 6, rng, 0.5);
  }
};

TEST(FileStore, RoundTripsWholeMembers) {
  const World w(1);
  const TempDir dir("roundtrip");
  const auto store = write_ensemble(w.g, w.scenario.members, dir.path);
  EXPECT_EQ(store.members(), 6u);
  for (Index k = 0; k < 6; ++k) {
    const grid::Field loaded = store.load_member(k);
    EXPECT_EQ(loaded.data(), w.scenario.members[k].data());
  }
}

TEST(FileStore, BlockAndBarReadsMatchMemoryStore) {
  const World w(2);
  const TempDir dir("reads");
  const auto file_store = write_ensemble(w.g, w.scenario.members, dir.path);
  const MemoryEnsembleStore memory_store(w.g, w.scenario.members);

  const grid::Rect rect{{3, 11}, {2, 9}};
  const grid::IndexRange rows{4, 8};
  for (Index k = 0; k < 6; ++k) {
    EXPECT_EQ(file_store.read_block(k, rect).values(),
              memory_store.read_block(k, rect).values());
    EXPECT_EQ(file_store.read_bar(k, rows).values(),
              memory_store.read_bar(k, rows).values());
  }
}

TEST(FileStore, SegmentCountersMatchRealSeeks) {
  const World w(3);
  const TempDir dir("segments");
  const auto store = write_ensemble(w.g, w.scenario.members, dir.path);
  store.reset_counters();
  store.read_block(0, grid::Rect{{2, 10}, {3, 9}});  // 6 rows, narrow
  EXPECT_EQ(store.segments_touched(), 6u);
  store.reset_counters();
  store.read_bar(0, grid::IndexRange{0, 6});
  EXPECT_EQ(store.segments_touched(), 1u);
  store.reset_counters();
  store.read_block(0, grid::Rect{{0, 24}, {3, 9}});  // full width
  EXPECT_EQ(store.segments_touched(), 1u);
}

TEST(FileStore, MissingDirectoryThrows) {
  const World w(4);
  EXPECT_THROW(
      FileEnsembleStore(w.g, "/nonexistent/senkf/ensemble", 6),
      senkf::ProtocolError);
}

TEST(FileStore, GridMismatchThrows) {
  const World w(5);
  const TempDir dir("mismatch");
  (void)write_ensemble(w.g, w.scenario.members, dir.path);
  const grid::LatLonGrid wrong(12, 24);
  EXPECT_THROW(FileEnsembleStore(wrong, dir.path, 6), senkf::ProtocolError);
}

TEST(FileStore, CorruptHeaderThrows) {
  const World w(6);
  const TempDir dir("corrupt");
  (void)write_ensemble(w.g, w.scenario.members, dir.path);
  // Truncate member 0 to garbage.
  std::ofstream file(dir.path / "member_0.senkf",
                     std::ios::binary | std::ios::trunc);
  file << "not an ensemble file";
  file.close();
  EXPECT_THROW(FileEnsembleStore(w.g, dir.path, 6), senkf::ProtocolError);
}

TEST(FileStore, FullPipelineMatchesMemoryStoreBitForBit) {
  // The acid test: the serial reference, L-, P- and S-EnKF produce
  // identical analyses whether the ensemble comes from RAM or from real
  // files on disk.
  const World w(7);
  const TempDir dir("pipeline");
  const auto file_store = write_ensemble(w.g, w.scenario.members, dir.path);
  const MemoryEnsembleStore memory_store(w.g, w.scenario.members);

  senkf::Rng obs_rng(8);
  obs::NetworkOptions opt;
  opt.station_count = 50;
  opt.error_std = 0.05;
  const auto observations =
      obs::random_network(w.g, w.scenario.truth, obs_rng, opt);
  const auto ys =
      obs::perturbed_observations(observations, 6, senkf::Rng(9));

  SenkfConfig config;
  config.n_sdx = 4;
  config.n_sdy = 2;
  config.layers = 3;
  config.n_cg = 2;
  config.analysis.halo = grid::Halo{2, 1};

  const auto from_memory = senkf(memory_store, observations, ys, config);
  const auto from_files = senkf(file_store, observations, ys, config);
  EXPECT_DOUBLE_EQ(max_ensemble_difference(from_memory, from_files), 0.0);

  EnkfRunConfig run;
  run.n_sdx = 4;
  run.n_sdy = 2;
  run.analysis.halo = grid::Halo{2, 1};
  const auto p_memory = penkf(memory_store, observations, ys, run);
  const auto p_files = penkf(file_store, observations, ys, run);
  EXPECT_DOUBLE_EQ(max_ensemble_difference(p_memory, p_files), 0.0);

  // The serial reference and L-EnKF load whole members; on S-EnKF's
  // layout they also reproduce its analysis from the files.
  run.layers = config.layers;
  const auto gold_memory = serial_enkf(memory_store, observations, ys, run);
  const auto gold_files = serial_enkf(file_store, observations, ys, run);
  EXPECT_DOUBLE_EQ(max_ensemble_difference(gold_memory, gold_files), 0.0);
  EXPECT_DOUBLE_EQ(max_ensemble_difference(gold_files, from_files), 0.0);
  const auto l_memory = lenkf(memory_store, observations, ys, run);
  const auto l_files = lenkf(file_store, observations, ys, run);
  EXPECT_DOUBLE_EQ(max_ensemble_difference(l_memory, l_files), 0.0);
  EXPECT_DOUBLE_EQ(max_ensemble_difference(gold_files, l_files), 0.0);
}

TEST(FileStore, WriteEnsembleValidation) {
  const World w(8);
  const TempDir dir("validation");
  EXPECT_THROW(write_ensemble(w.g, {w.scenario.members[0]}, dir.path),
               senkf::InvalidArgument);
  const grid::LatLonGrid other(5, 5);
  std::vector<grid::Field> wrong{grid::Field(other), grid::Field(other)};
  EXPECT_THROW(write_ensemble(w.g, wrong, dir.path),
               senkf::InvalidArgument);
}

}  // namespace
}  // namespace senkf::enkf
