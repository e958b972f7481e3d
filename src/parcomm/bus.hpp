// Shared state behind a Runtime: one Mailbox per world rank.
//
// A Bus is shared (via shared_ptr) by every Communicator spawned from one
// Runtime.  The mailboxes are built in the constructor, before any rank
// thread starts, and the set never changes afterwards, so looking one up
// takes no lock; each Mailbox synchronizes its own queue.
#pragma once

#include <memory>
#include <vector>

#include "parcomm/mailbox.hpp"

namespace senkf::parcomm {

class Bus {
 public:
  explicit Bus(int world_size);

  int world_size() const { return static_cast<int>(mailboxes_.size()); }

  /// Mailbox of world rank `rank`.
  Mailbox& mailbox(int rank);

  /// Cancels every mailbox (Mailbox::cancel): the run has failed.
  void cancel();

 private:
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
};

}  // namespace senkf::parcomm
