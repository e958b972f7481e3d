#include "timed_store.hpp"

#include "telemetry/trace.hpp"

namespace e2e {

template <typename Read>
auto TimedEnsembleStore::timed(Kind& kind, const char* span_name,
                               Read&& read) const {
  const std::int64_t start = senkf::telemetry::now_ns();
  auto result = read();
  const std::int64_t end = senkf::telemetry::now_ns();
  kind.calls.fetch_add(1);
  kind.ns.fetch_add(static_cast<std::uint64_t>(end - start));
  kind.bytes.fetch_add(static_cast<std::uint64_t>(result.size()) *
                       sizeof(double));
  if (senkf::telemetry::tracing_enabled()) {
    senkf::telemetry::TraceEvent event;
    event.name = span_name;
    event.t_start_ns = start;
    event.t_end_ns = end;
    event.category = senkf::telemetry::Category::kRead;
    senkf::telemetry::record_event(event);  // rank -1 = calling rank
  }
  return result;
}

senkf::grid::Field TimedEnsembleStore::load_member(Index k) const {
  return timed(load_member_, "timed_load_member",
               [&] { return base_.load_member(k); });
}

senkf::grid::Patch TimedEnsembleStore::read_block(
    Index k, senkf::grid::Rect rect) const {
  return timed(read_block_, "timed_read_block",
               [&] { return base_.read_block(k, rect); });
}

senkf::grid::Patch TimedEnsembleStore::read_bar(
    Index k, senkf::grid::IndexRange rows) const {
  return timed(read_bar_, "timed_read_bar",
               [&] { return base_.read_bar(k, rows); });
}

void TimedEnsembleStore::reset() const {
  load_member_.reset();
  read_block_.reset();
  read_bar_.reset();
  base_.reset_counters();
}

}  // namespace e2e
