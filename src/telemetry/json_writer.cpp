#include "telemetry/json_writer.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace senkf::telemetry {

void JsonWriter::escape(std::ostream& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"':
        out << "\\\"";
        break;
      case '\\':
        out << "\\\\";
        break;
      case '\n':
        out << "\\n";
        break;
      case '\r':
        out << "\\r";
        break;
      case '\t':
        out << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out << buffer;
        } else {
          out << c;
        }
    }
  }
}

void JsonWriter::separate() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // the key already wrote its comma
  }
  if (!has_value_.empty()) {
    if (has_value_.back()) out_ << ',';
    has_value_.back() = true;
  }
}

JsonWriter& JsonWriter::begin_object() {
  separate();
  out_ << '{';
  has_value_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  has_value_.pop_back();
  out_ << '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  separate();
  out_ << '[';
  has_value_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  has_value_.pop_back();
  out_ << ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  if (!has_value_.empty()) {
    if (has_value_.back()) out_ << ',';
    has_value_.back() = true;
  }
  out_ << '"';
  escape(out_, name);
  out_ << "\":";
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  separate();
  out_ << '"';
  escape(out_, v);
  out_ << '"';
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  separate();
  write_number(out_, std::isfinite(v) ? v : 0.0);
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  separate();
  out_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  separate();
  out_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  separate();
  out_ << (v ? "true" : "false");
  return *this;
}

void write_number(std::ostream& out, double v) {
  char buffer[32];
  const std::to_chars_result end =
      std::to_chars(buffer, buffer + sizeof(buffer), v);
  out.write(buffer, end.ptr - buffer);
}

}  // namespace senkf::telemetry
