#include "parcomm/runtime.hpp"

#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "telemetry/trace.hpp"

namespace senkf::parcomm {

void Runtime::run(int world_size, const RankMain& rank_main) {
  SENKF_REQUIRE(world_size > 0, "Runtime: world size must be positive");
  SENKF_REQUIRE(rank_main != nullptr, "Runtime: rank main must be callable");

  auto bus = std::make_shared<Bus>(world_size);
  std::exception_ptr first_error;
  std::mutex error_mutex;

  std::vector<std::thread> threads;
  threads.reserve(world_size);
  for (int rank = 0; rank < world_size; ++rank) {
    threads.emplace_back([&, rank] {
      try {
        // Every span this thread records is attributed to its rank
        // (helper threads and pool workers re-assert it themselves).
        telemetry::set_thread_rank(rank);
        Communicator world(bus, rank, world_size);
        rank_main(world);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) {
          first_error = std::current_exception();
          bus->cancel();
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace senkf::parcomm
