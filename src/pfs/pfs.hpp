// Parallel file system model (the Lustre/H2FS substitute, DESIGN.md §2).
//
// Structure — the part that is faithful to the paper's analysis:
//  * the ensemble lives in per-member files placed round-robin across
//    `ost_count` object storage targets (OSTs);
//  * an OST admits at most `max_streams` concurrent read streams (FIFO
//    queue beyond that — the "processors line up for the disk" effect of
//    §3.1);
//  * an admitted stream is charged `segments × segment_overhead_s` for
//    disk addressing plus `bytes / stream_bandwidth` for transfer, so a
//    block read (one non-contiguous segment per latitude row, §4.1.1)
//    pays O(rows) addressing while a bar read (§4.1.2) pays exactly one.
//
// Constants — calibrated, not physical: `segment_overhead_s` is the
// *effective* per-segment addressing cost per stream-slot, chosen together
// with the computation cost so the simulated P-EnKF reproduces the paper's
// observed behaviour (scaling stops near 8,000 cores, ≈3× gap at 12,000).
// EXPERIMENTS.md discusses the calibration.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "pfs/faults.hpp"
#include "sim/primitives.hpp"

namespace senkf::pfs {

struct OstConfig {
  /// Effective per-contiguous-segment addressing cost (seconds).
  double segment_overhead_s = 140e-9;
  /// Bandwidth of one admitted stream (bytes/second).
  double stream_bandwidth = 200e6;
  /// Concurrent streams one OST admits before queueing.
  int max_streams = 8;
};

struct PfsConfig {
  int ost_count = 6;
  OstConfig ost;
  /// OSTs each file stripes across (Lustre's stripe_count).  1 = whole
  /// files on single OSTs — the placement §4.1.3's concurrent groups are
  /// designed for.  With striping > 1 a single file already enjoys
  /// multi-disk bandwidth but every read fans out into stripe_count
  /// sub-requests (more addressing, more queue slots); the
  /// abl_striping bench quantifies the trade.
  int stripe_count = 1;
  /// What misbehaves (DESIGN.md §9).  Latency inflation slows the
  /// affected OSTs' service times; transient faults charge re-issued
  /// reads; dead member files burn max_burst re-issues and return no
  /// data.  Default: a perfect disk.
  FaultPlan faults;
};

/// One object storage target: a counted stream resource plus accounting.
class Ost {
 public:
  Ost(sim::Simulation& sim, const OstConfig& config);

  /// Simulated read of `segments` non-contiguous segments totalling
  /// `bytes`: queues for a stream slot, then holds it for the service
  /// time.  Awaitable.
  sim::Task read(std::uint64_t segments, double bytes);

  /// Service time charged once a stream is admitted.
  double service_time(std::uint64_t segments, double bytes) const;

  double busy_time() const { return busy_time_; }
  double queued_time() const { return streams_.total_wait_time(); }
  double bytes_read() const { return bytes_read_; }

 private:
  sim::Simulation& sim_;
  OstConfig config_;
  sim::Resource streams_;
  double busy_time_ = 0.0;
  double bytes_read_ = 0.0;
};

/// The file system: files → OSTs placement plus global accounting.
class Pfs {
 public:
  Pfs(sim::Simulation& sim, const PfsConfig& config);

  int ost_count() const { return static_cast<int>(osts_.size()); }

  /// Round-robin placement: each ensemble-member file starts on OST
  /// file_index % ost_count (and, when striped, continues on the next
  /// stripe_count − 1 OSTs cyclically).
  int ost_of_file(std::uint64_t file_index) const;

  int stripe_count() const { return config_.stripe_count; }

  /// The OSTs holding file_index's data, in stripe order.
  std::vector<int> osts_of_file(std::uint64_t file_index) const;

  Ost& ost(int index);
  const Ost& ost(int index) const;

  /// Awaitable read of a region of `file_index`.  With stripe_count = 1
  /// this is one request on the file's OST; with striping the region
  /// fans out into one concurrent sub-request per stripe OST, each
  /// carrying its share of the bytes and at least one addressing
  /// operation, and the read completes when the slowest stripe does.
  /// Under a FaultPlan, transient faults charge re-issued requests and a
  /// dead file burns max_burst re-issues before the reader gives up.
  sim::Task read(std::uint64_t file_index, std::uint64_t segments,
                 double bytes);

  /// The plan's injector, or nullptr when no faults are configured.
  const FaultInjector* injector() const { return injector_.get(); }

  /// Aggregate peak bandwidth (every OST saturated), bytes/second.
  double aggregate_bandwidth() const;

  double total_bytes_read() const;
  double total_queued_time() const;

 private:
  sim::Task read_striped(std::uint64_t file_index, std::uint64_t segments,
                         double bytes);
  sim::Task read_faulty(std::uint64_t file_index, std::uint64_t segments,
                        double bytes);
  /// Fault-free dispatch shared by the healthy and degraded paths.
  sim::Task issue(std::uint64_t file_index, std::uint64_t segments,
                  double bytes);

  sim::Simulation& sim_;
  PfsConfig config_;
  std::vector<std::unique_ptr<Ost>> osts_;
  std::unique_ptr<FaultInjector> injector_;
  /// Deterministic per-read ordinal feeding the injector's op keys (the
  /// DES runs single-threaded, so issue order is reproducible).
  std::uint64_t ops_issued_ = 0;
};

}  // namespace senkf::pfs
