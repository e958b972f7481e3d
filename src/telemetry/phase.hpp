// CountedSpan: one clock-read pair feeding both telemetry layers — the
// elapsed nanoseconds go to one always-on Counter (a plane's registry
// counter, or a cell of S-EnKF's run ledger, DESIGN.md §11) and, when
// SENKF_TRACE arms the tracer, the same interval is recorded as a span.
#pragma once

#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace senkf::telemetry {

class CountedSpan {
 public:
  CountedSpan(Category category, const char* name, Counter& ns_counter,
              std::int32_t stage = -1)
      : counter_(ns_counter), name_(name), start_ns_(now_ns()),
        stage_(stage), category_(category), traced_(tracing_enabled()) {}

  ~CountedSpan() {
    const std::int64_t end_ns = now_ns();
    counter_.add(static_cast<std::uint64_t>(end_ns - start_ns_));
    if (traced_) {
      TraceEvent event;
      event.name = name_;
      event.t_start_ns = start_ns_;
      event.t_end_ns = end_ns;
      event.stage = stage_;
      event.flow_id = flow_id_;
      event.category = category_;
      event.flow = flow_;
      record_event(event);  // fills rank from the thread's rank
    }
  }

  CountedSpan(const CountedSpan&) = delete;
  CountedSpan& operator=(const CountedSpan&) = delete;

  void set_stage(std::int32_t stage) { stage_ = stage; }

  /// Bind to a message flow (see TraceSpan::set_flow); id 0 is ignored.
  void set_flow(FlowDir dir, std::uint64_t id) {
    if (id == 0) return;
    flow_ = dir;
    flow_id_ = id;
  }

 private:
  Counter& counter_;
  const char* name_;
  std::int64_t start_ns_;
  std::uint64_t flow_id_ = 0;
  std::int32_t stage_;
  Category category_;
  FlowDir flow_ = FlowDir::kNone;
  bool traced_;
};

}  // namespace senkf::telemetry
