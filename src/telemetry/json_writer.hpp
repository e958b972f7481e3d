// Minimal streaming JSON writer shared by the Chrome-trace exporter and
// the run-report writer (DESIGN.md §11).  Emits compact one-pass output
// with automatic comma placement; strings are escaped per RFC 8259 and
// non-finite doubles are clamped to 0 so the output always parses.
// write_number() is the one double formatter of every text export: the
// JSON writer and the /metrics exposition.
#pragma once

#include <cstdint>
#include <ostream>
#include <string_view>
#include <vector>

namespace senkf::telemetry {

class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out) : out_(out) {}

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Emits `"name":`; the next value call supplies the member value.
  JsonWriter& key(std::string_view name);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(double v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(std::int32_t v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(bool v);

  /// key() + value() in one call.
  template <typename T>
  JsonWriter& field(std::string_view name, const T& v) {
    key(name);
    return value(v);
  }

  static void escape(std::ostream& out, std::string_view text);

 private:
  void separate();

  std::ostream& out_;
  // One entry per open container: whether a value has been written at
  // this level (controls the leading comma).
  std::vector<bool> has_value_;
  bool pending_key_ = false;
};

/// Writes `v` as the shortest decimal text that reads back as the same
/// double ("0.1", "1234567.891", "9007199254740992").
void write_number(std::ostream& out, double v);

}  // namespace senkf::telemetry
