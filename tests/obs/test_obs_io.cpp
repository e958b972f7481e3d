#include "obs/obs_io.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>

#include "grid/synthetic.hpp"

namespace senkf::obs {
namespace {

namespace fs = std::filesystem;

struct TempFile {
  fs::path path;
  explicit TempFile(const std::string& name)
      : path(fs::temp_directory_path() / ("senkf_obs_" + name +
                                          ".senkfobs")) {
    fs::remove(path);
  }
  ~TempFile() { fs::remove(path); }
};

// Byte offsets in the file format (obs_io.hpp): the 32-byte header ends
// with the component count; the first component follows as error_std,
// value, support count, then its (x, y, weight) triples.
constexpr std::streamoff kComponentCountOffset = 24;
constexpr std::streamoff kFirstValueOffset = 40;
constexpr std::streamoff kFirstSupportCountOffset = 48;
constexpr std::streamoff kFirstWeightOffset = 72;

template <typename T>
void overwrite(const fs::path& path, std::streamoff offset, T value) {
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  file.seekp(offset);
  file.write(reinterpret_cast<const char*>(&value), sizeof(T));
  ASSERT_TRUE(file.good());
}

ObservationSet make_set(const grid::LatLonGrid& g, std::uint64_t seed,
                        bool bilinear = false) {
  senkf::Rng rng(seed);
  const grid::Field truth = grid::synthetic_field(g, rng);
  NetworkOptions opt;
  opt.station_count = 40;
  opt.error_std = 0.07;
  opt.bilinear = bilinear;
  return random_network(g, truth, rng, opt);
}

TEST(ObsIo, RoundTripsPointNetwork) {
  const grid::LatLonGrid g(20, 12);
  const auto original = make_set(g, 1);
  const TempFile file("roundtrip");
  write_observations(original, file.path);
  const auto loaded = read_observations(g, file.path);
  ASSERT_EQ(loaded.size(), original.size());
  for (Index r = 0; r < original.size(); ++r) {
    EXPECT_DOUBLE_EQ(loaded.values()[r], original.values()[r]);
    EXPECT_DOUBLE_EQ(loaded.components()[r].error_std,
                     original.components()[r].error_std);
    ASSERT_EQ(loaded.components()[r].support.size(),
              original.components()[r].support.size());
    for (std::size_t s = 0; s < loaded.components()[r].support.size(); ++s) {
      EXPECT_EQ(loaded.components()[r].support[s].point,
                original.components()[r].support[s].point);
      EXPECT_DOUBLE_EQ(loaded.components()[r].support[s].weight,
                       original.components()[r].support[s].weight);
    }
  }
}

TEST(ObsIo, RoundTripsBilinearNetwork) {
  const grid::LatLonGrid g(20, 12);
  const auto original = make_set(g, 2, /*bilinear=*/true);
  const TempFile file("bilinear");
  write_observations(original, file.path);
  const auto loaded = read_observations(g, file.path);
  // Behavioural equivalence: identical application to a field.
  senkf::Rng rng(3);
  const grid::Field probe = grid::synthetic_field(g, rng);
  for (Index r = 0; r < original.size(); ++r) {
    EXPECT_DOUBLE_EQ(loaded.components()[r].apply(probe),
                     original.components()[r].apply(probe));
  }
}

TEST(ObsIo, GridMismatchThrows) {
  const grid::LatLonGrid g(20, 12);
  const auto set = make_set(g, 4);
  const TempFile file("mismatch");
  write_observations(set, file.path);
  EXPECT_THROW(read_observations(grid::LatLonGrid(12, 20), file.path),
               senkf::ProtocolError);
}

TEST(ObsIo, MissingFileThrows) {
  EXPECT_THROW(read_observations(grid::LatLonGrid(4, 4),
                                 "/nonexistent/obs.senkfobs"),
               senkf::ProtocolError);
}

TEST(ObsIo, TruncatedFileThrows) {
  const grid::LatLonGrid g(20, 12);
  const auto set = make_set(g, 5);
  const TempFile file("truncated");
  write_observations(set, file.path);
  fs::resize_file(file.path, fs::file_size(file.path) / 2);
  EXPECT_THROW(read_observations(g, file.path), senkf::ProtocolError);
}

TEST(ObsIo, GarbageHeaderThrows) {
  const TempFile file("garbage");
  std::ofstream out(file.path, std::ios::binary);
  out << "definitely not an observation file, but long enough to parse "
         "a header from";
  out.close();
  EXPECT_THROW(read_observations(grid::LatLonGrid(4, 4), file.path),
               senkf::ProtocolError);
}

TEST(ObsIo, ForgedComponentCountThrowsProtocolError) {
  // A count the file cannot hold is rejected before anything is
  // reserved for it (2^40 components would otherwise be bad_alloc).
  const grid::LatLonGrid g(20, 12);
  const TempFile file("forged_components");
  write_observations(make_set(g, 6), file.path);
  overwrite<std::uint64_t>(file.path, kComponentCountOffset,
                           std::uint64_t{1} << 40);
  EXPECT_THROW(read_observations(g, file.path), senkf::ProtocolError);
}

TEST(ObsIo, ForgedSupportCountThrowsProtocolError) {
  const grid::LatLonGrid g(20, 12);
  const TempFile file("forged_support");
  write_observations(make_set(g, 7), file.path);
  overwrite<std::uint64_t>(file.path, kFirstSupportCountOffset,
                           std::uint64_t{1} << 40);
  EXPECT_THROW(read_observations(g, file.path), senkf::ProtocolError);
}

TEST(ObsIo, NonFiniteNumbersAreRejected) {
  const grid::LatLonGrid g(20, 12);
  const auto set = make_set(g, 8, /*bilinear=*/true);
  for (const std::streamoff offset : {kFirstValueOffset, kFirstWeightOffset}) {
    const TempFile file("non_finite");
    write_observations(set, file.path);
    overwrite(file.path, offset, std::nan(""));
    EXPECT_THROW(read_observations(g, file.path), senkf::Error)
        << "NaN at byte " << offset << " loaded";
  }
}

}  // namespace
}  // namespace senkf::obs
