#include "telemetry/liveops/exposition.hpp"

#include <cctype>
#include <cstdio>
#include <sstream>

#include "telemetry/json_writer.hpp"

namespace senkf::telemetry::liveops {

namespace {

// %g keeps le labels short ("0.005", "1e+06") and round-trippable
// enough for a scrape consumer; the raw bounds stay in the registry.
std::string format_bound(double bound) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%g", bound);
  return buffer;
}

}  // namespace

std::string sanitize_metric_name(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) != 0 ||
                    c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  if (out.empty()) out = "_";
  if (std::isdigit(static_cast<unsigned char>(out.front())) != 0) {
    out.insert(out.begin(), '_');
  }
  return out;
}

std::string render_prometheus(const std::vector<MetricRow>& rows) {
  std::ostringstream out;
  for (const MetricRow& row : rows) {
    const std::string name = sanitize_metric_name(row.name);
    switch (row.kind) {
      case MetricRow::Kind::kCounter:
        out << "# TYPE " << name << " counter\n";
        out << name << " " << row.counter << "\n";
        break;
      case MetricRow::Kind::kGauge:
        out << "# TYPE " << name << " gauge\n";
        out << name << " ";
        write_number(out, row.gauge);
        out << "\n";
        break;
      case MetricRow::Kind::kHistogram: {
        out << "# TYPE " << name << " histogram\n";
        // The registry stores per-bucket counts; the exposition format
        // wants cumulative "le" counts, with +Inf equal to _count.  The
        // row came from Histogram::cut(), so the running sum ends
        // exactly at row.count — tear-free by construction.
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < row.bounds.size(); ++i) {
          cumulative += i < row.buckets.size() ? row.buckets[i] : 0;
          out << name << "_bucket{le=\"" << format_bound(row.bounds[i])
              << "\"} " << cumulative << "\n";
        }
        out << name << "_bucket{le=\"+Inf\"} " << row.count << "\n";
        out << name << "_sum ";
        write_number(out, row.sum);
        out << "\n";
        out << name << "_count " << row.count << "\n";
        break;
      }
    }
  }
  return out.str();
}

std::string render_prometheus() {
  return render_prometheus(Registry::global().rows());
}

}  // namespace senkf::telemetry::liveops
