#include "obs/obs_io.hpp"

#include <fstream>
#include <string>

namespace senkf::obs {

namespace {

constexpr std::uint32_t kMagic = 0x53424F45;  // "EOBS"
constexpr std::uint32_t kVersion = 1;

struct ObsHeader {
  std::uint32_t magic = kMagic;
  std::uint32_t version = kVersion;
  std::uint64_t nx = 0;
  std::uint64_t ny = 0;
  std::uint64_t components = 0;
};

template <typename T>
void write_pod(std::ofstream& file, const T& value) {
  file.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

// Smallest on-disk footprint of a component (error_std, value, support
// count) and of a support point (x, y, weight): a count read from the
// file is checked against the bytes left before anything is reserved
// for it, so a forged count fails as a ProtocolError, not bad_alloc.
constexpr std::uint64_t kComponentBytes = 3 * 8;
constexpr std::uint64_t kSupportPointBytes = 3 * 8;

void check_count(std::uint64_t count, std::uint64_t record_bytes,
                 std::uint64_t bytes_left, const char* what,
                 const std::filesystem::path& path) {
  if (count > bytes_left / record_bytes) {
    throw ProtocolError("read_observations: " + std::string(what) + " " +
                        std::to_string(count) + " exceeds the " +
                        std::to_string(bytes_left) + " bytes left in " +
                        path.string());
  }
}

template <typename T>
T read_pod(std::ifstream& file, const std::filesystem::path& path) {
  T value;
  file.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!file) {
    throw ProtocolError("read_observations: truncated file " +
                        path.string());
  }
  return value;
}

}  // namespace

void write_observations(const ObservationSet& observations,
                        const std::filesystem::path& path) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) {
    throw ProtocolError("write_observations: cannot create " +
                        path.string());
  }
  ObsHeader header;
  header.nx = observations.grid().nx();
  header.ny = observations.grid().ny();
  header.components = observations.size();
  write_pod(file, header);
  for (Index r = 0; r < observations.size(); ++r) {
    const ObsComponent& component = observations.components()[r];
    write_pod(file, component.error_std);
    write_pod(file, observations.values()[r]);
    write_pod(file, static_cast<std::uint64_t>(component.support.size()));
    for (const SupportPoint& sp : component.support) {
      write_pod(file, static_cast<std::uint64_t>(sp.point.x));
      write_pod(file, static_cast<std::uint64_t>(sp.point.y));
      write_pod(file, sp.weight);
    }
  }
  if (!file) {
    throw ProtocolError("write_observations: short write to " +
                        path.string());
  }
}

ObservationSet read_observations(const grid::LatLonGrid& grid_def,
                                 const std::filesystem::path& path) {
  std::ifstream file(path, std::ios::binary | std::ios::ate);
  if (!file) {
    throw ProtocolError("read_observations: cannot open " + path.string());
  }
  const std::streamoff end = file.tellg();
  if (end < 0) {
    throw ProtocolError("read_observations: cannot size " + path.string());
  }
  const auto file_size = static_cast<std::uint64_t>(end);
  const auto bytes_left = [&] {
    return file_size - static_cast<std::uint64_t>(file.tellg());
  };
  file.seekg(0);
  const auto header = read_pod<ObsHeader>(file, path);
  if (header.magic != kMagic || header.version != kVersion) {
    throw ProtocolError("read_observations: bad header in " + path.string());
  }
  if (header.nx != grid_def.nx() || header.ny != grid_def.ny()) {
    throw ProtocolError("read_observations: grid mismatch in " +
                        path.string());
  }

  check_count(header.components, kComponentBytes, bytes_left(),
              "component count", path);
  std::vector<ObsComponent> components;
  std::vector<double> values;
  components.reserve(header.components);
  values.reserve(header.components);
  for (std::uint64_t r = 0; r < header.components; ++r) {
    ObsComponent component;
    component.error_std = read_pod<double>(file, path);
    values.push_back(read_pod<double>(file, path));
    const auto support_count = read_pod<std::uint64_t>(file, path);
    check_count(support_count, kSupportPointBytes, bytes_left(),
                "support count", path);
    component.support.reserve(support_count);
    for (std::uint64_t s = 0; s < support_count; ++s) {
      SupportPoint sp;
      sp.point.x = read_pod<std::uint64_t>(file, path);
      sp.point.y = read_pod<std::uint64_t>(file, path);
      sp.weight = read_pod<double>(file, path);
      component.support.push_back(sp);
    }
    components.push_back(std::move(component));
  }
  // ObservationSet's constructor re-validates supports against the grid.
  return ObservationSet(grid_def, std::move(components), std::move(values));
}

}  // namespace senkf::obs
