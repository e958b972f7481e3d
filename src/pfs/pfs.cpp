#include "pfs/pfs.hpp"

#include "support/error.hpp"
#include "telemetry/metrics.hpp"

namespace senkf::pfs {

namespace {

// The DES plane runs on simulated time, so spans (wall-clock) would be
// meaningless here; the counters still tell a real story — how many
// requests, addressing operations and bytes a simulated workflow issued.
struct PfsMetrics {
  telemetry::Counter& reads;
  telemetry::Counter& segments;
  telemetry::Counter& bytes;
  static PfsMetrics& get() {
    auto& registry = telemetry::Registry::global();
    static PfsMetrics m{
        registry.counter("pfs.reads"),
        registry.counter("pfs.segments"),
        registry.counter("pfs.bytes"),
    };
    return m;
  }
};

}  // namespace

Ost::Ost(sim::Simulation& sim, const OstConfig& config)
    : sim_(sim), config_(config), streams_(sim, config.max_streams) {
  SENKF_REQUIRE(config.segment_overhead_s >= 0.0,
                "Ost: segment overhead must be >= 0");
  SENKF_REQUIRE(config.stream_bandwidth > 0.0,
                "Ost: stream bandwidth must be positive");
}

double Ost::service_time(std::uint64_t segments, double bytes) const {
  return static_cast<double>(segments) * config_.segment_overhead_s +
         bytes / config_.stream_bandwidth;
}

sim::Task Ost::read(std::uint64_t segments, double bytes) {
  SENKF_REQUIRE(segments > 0, "Ost::read: need at least one segment");
  SENKF_REQUIRE(bytes >= 0.0, "Ost::read: negative byte count");
  PfsMetrics& metrics = PfsMetrics::get();
  metrics.reads.add(1);
  metrics.segments.add(segments);
  metrics.bytes.add(static_cast<std::uint64_t>(bytes));
  co_await streams_.acquire();
  const double service = service_time(segments, bytes);
  co_await sim_.delay(service);
  busy_time_ += service;
  bytes_read_ += bytes;
  streams_.release();
}

Pfs::Pfs(sim::Simulation& sim, const PfsConfig& config)
    : sim_(sim), config_(config) {
  SENKF_REQUIRE(config.ost_count > 0, "Pfs: need at least one OST");
  SENKF_REQUIRE(config.stripe_count >= 1 &&
                    config.stripe_count <= config.ost_count,
                "Pfs: stripe_count must be in [1, ost_count]");
  osts_.reserve(config.ost_count);
  for (int i = 0; i < config.ost_count; ++i) {
    osts_.push_back(std::make_unique<Ost>(sim, config.ost));
  }
}

int Pfs::ost_of_file(std::uint64_t file_index) const {
  return static_cast<int>(file_index % osts_.size());
}

Ost& Pfs::ost(int index) {
  SENKF_REQUIRE(index >= 0 && index < ost_count(), "Pfs: OST out of range");
  return *osts_[index];
}

const Ost& Pfs::ost(int index) const {
  SENKF_REQUIRE(index >= 0 && index < ost_count(), "Pfs: OST out of range");
  return *osts_[index];
}

std::vector<int> Pfs::osts_of_file(std::uint64_t file_index) const {
  std::vector<int> out;
  out.reserve(config_.stripe_count);
  const int first = ost_of_file(file_index);
  for (int s = 0; s < config_.stripe_count; ++s) {
    out.push_back((first + s) % ost_count());
  }
  return out;
}

sim::Task Pfs::read(std::uint64_t file_index, std::uint64_t segments,
                    double bytes) {
  if (config_.stripe_count == 1) {
    return ost(ost_of_file(file_index)).read(segments, bytes);
  }
  return read_striped(file_index, segments, bytes);
}

sim::Task Pfs::read_striped(std::uint64_t file_index, std::uint64_t segments,
                            double bytes) {
  // Fan the region out over the stripe OSTs; every stripe costs at least
  // one addressing operation, and the read completes with the slowest
  // sub-request.
  const std::vector<int> stripes = osts_of_file(file_index);
  const auto n = static_cast<std::uint64_t>(stripes.size());
  const double bytes_per_stripe = bytes / static_cast<double>(n);
  const std::uint64_t segs_per_stripe =
      segments >= n ? (segments + n - 1) / n : 1;

  sim::WaitGroup done(sim_);
  done.add(static_cast<int>(n));
  for (const int index : stripes) {
    sim_.spawn([](Ost& target, std::uint64_t segs, double b,
                  sim::WaitGroup& group) -> sim::Task {
      co_await target.read(segs, b);
      group.done();
    }(ost(index), segs_per_stripe, bytes_per_stripe, done));
  }
  co_await done.wait();
}

double Pfs::aggregate_bandwidth() const {
  return static_cast<double>(config_.ost_count) *
         static_cast<double>(config_.ost.max_streams) *
         config_.ost.stream_bandwidth;
}

double Pfs::total_bytes_read() const {
  double total = 0.0;
  for (const auto& ost : osts_) total += ost->bytes_read();
  return total;
}

double Pfs::total_queued_time() const {
  double total = 0.0;
  for (const auto& ost : osts_) total += ost->queued_time();
  return total;
}

}  // namespace senkf::pfs
