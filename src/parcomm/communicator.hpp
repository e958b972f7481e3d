// Point-to-point communicator over the in-process Bus.
//
// The library's stand-in for the MPI subset the paper's pipeline uses
// (see DESIGN.md §2): data moves only point to point — I/O ranks send
// layer blocks to computation ranks, L-EnKF's reader scatters by plain
// sends — so a Communicator offers buffered send and blocking receive
// over one world of ranks.  Rank groups (S-EnKF's I/O and computation
// sets) are index arithmetic on world ranks, not sub-communicators.
//
// Semantics: sends are buffered (they never block), receives match on
// (source, tag) with wildcards and are non-overtaking per (source, tag)
// pair.
#pragma once

#include <memory>
#include <vector>

#include "parcomm/bus.hpp"

namespace senkf::parcomm {

class Communicator {
 public:
  Communicator(std::shared_ptr<Bus> bus, int rank, int size);

  int rank() const { return rank_; }
  int size() const { return size_; }

  /// Buffered send: seals the payload (no copy) and returns immediately.
  void send(int dest, int tag, Payload payload);

  /// Buffered send of an already-sealed payload handle — the fan-out
  /// primitive: sending the same handle to many destinations moves
  /// pointers, never bytes.  Counts payload bytes and, while tracing is
  /// armed, stamps the causal span context (origin rank, fresh flow id,
  /// send timestamp) and records the flow-origin trace event (DESIGN.md
  /// §13); with tracing off that costs one relaxed atomic load.
  void send_shared(int dest, int tag, SharedPayload payload);

  /// Convenience: packs a vector of doubles.
  void send_doubles(int dest, int tag, const std::vector<double>& values);

  /// Blocking receive with wildcard support.
  Envelope recv(int source = kAnySource, int tag = kAnyTag);

  /// Convenience: unpacks a vector of doubles (payload must be one).
  std::vector<double> recv_doubles(int source = kAnySource,
                                   int tag = kAnyTag);

 private:
  Mailbox& my_mailbox();

  std::shared_ptr<Bus> bus_;
  int rank_;
  int size_;
};

}  // namespace senkf::parcomm
