// Thread-backed "virtual MPI job" launcher.
//
// `Runtime::run(n, main)` plays the role of mpirun: it spawns n threads,
// hands each a world Communicator, joins them all, and rethrows the first
// exception any rank raised (after every thread has exited, so no dangling
// references).  Like an MPI job abort, that first exception cancels the
// run, so no rank waits on a peer that has already failed.  Ranks are
// plain callables, which keeps the EnKF implementations testable
// in-process and deterministic.
#pragma once

#include <functional>

#include "parcomm/communicator.hpp"

namespace senkf::parcomm {

class Runtime {
 public:
  using RankMain = std::function<void(Communicator&)>;

  /// Runs `rank_main` on `world_size` ranks and blocks until all finish.
  /// The first exception thrown by any rank is recorded, then every
  /// mailbox is cancelled (Mailbox::cancel): ranks blocked in a receive,
  /// or reaching one that nothing can match, fail with ProtocolError
  /// instead of waiting out the timeout.  The first exception — the root
  /// cause, since every cancellation error follows it — is rethrown here.
  static void run(int world_size, const RankMain& rank_main);
};

}  // namespace senkf::parcomm
