#include "parcomm/bus.hpp"

namespace senkf::parcomm {

Bus::Bus(int world_size) {
  SENKF_REQUIRE(world_size > 0, "Bus: world size must be positive");
  mailboxes_.reserve(world_size);
  for (int rank = 0; rank < world_size; ++rank) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
  }
}

Mailbox& Bus::mailbox(int rank) {
  SENKF_REQUIRE(rank >= 0 && rank < world_size(), "Bus: rank out of range");
  return *mailboxes_[rank];
}

void Bus::cancel() {
  for (const auto& mailbox : mailboxes_) mailbox->cancel();
}

}  // namespace senkf::parcomm
