// Message payload serialization — the zero-copy message plane.
//
// parcomm messages carry opaque byte payloads; Packer/Unpacker give a
// type-safe, symmetric way to (de)serialize PODs and vectors into them.
// Unpacking past the end or reading a size prefix that disagrees with the
// remaining bytes throws ProtocolError — corrupt framing never turns into
// silent garbage.  A corrupt count prefix is rejected *before* any
// `count * sizeof(T)` arithmetic, so an adversarial prefix can neither
// overflow the bounds check nor drive a huge allocation.
//
// Ownership (DESIGN.md §10): a payload is produced by exactly one Packer,
// sealed into an immutable `SharedPayload` by `take_shared()`, and from
// then on only read.  Fan-out (one payload sent to many ranks) pushes
// handles to the one buffer instead of per-rank deep copies; receivers
// read it in place via `Unpacker::view<T>()` and keep it alive by holding
// the handle.  When the last handle drops, the buffer returns to the
// PayloadPool for the next Packer to recycle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "support/error.hpp"
#include "telemetry/metrics.hpp"

namespace senkf::parcomm {

using Payload = std::vector<std::byte>;

namespace detail {
/// Counts every time message-payload body bytes are memcpy'd (packed in
/// or copied out).  View-based reads never touch it — the whole point of
/// the zero-copy plane is that this counter stays at ≤1 per block.
telemetry::Counter& payload_copies_counter();
}  // namespace detail

/// Immutable, refcounted handle to a sealed payload.  Copying a
/// SharedPayload copies a pointer, never the bytes; the buffer returns to
/// the PayloadPool when the last handle drops.  A default-constructed
/// handle reads as an empty payload.
class SharedPayload {
 public:
  SharedPayload() = default;

  /// Seals `bytes` (no copy).  The wrapping shared_ptr's deleter releases
  /// the buffer back to the process-wide PayloadPool.
  SharedPayload(Payload&& bytes);  // NOLINT(google-explicit-constructor)

  const Payload& bytes() const;
  const std::byte* data() const { return bytes().data(); }
  std::size_t size() const { return ptr_ == nullptr ? 0 : ptr_->size(); }
  bool empty() const { return size() == 0; }

  /// Diagnostic: number of live handles (0 for the default handle).
  long use_count() const { return ptr_.use_count(); }

 private:
  std::shared_ptr<const Payload> ptr_;
};

class Packer {
 public:
  /// Pre-sizes the buffer for exact-size packing (acquires a recycled
  /// buffer from the PayloadPool when one fits), so a correctly sized
  /// message is built with zero reallocation.
  void reserve(std::size_t bytes);

  std::size_t capacity() const { return bytes_.capacity(); }

  template <typename T>
  Packer& put(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "Packer::put requires a trivially copyable type");
    const auto offset = bytes_.size();
    bytes_.resize(offset + sizeof(T));
    std::memcpy(bytes_.data() + offset, &value, sizeof(T));
    return *this;
  }

  template <typename T>
  Packer& put_vector(const std::vector<T>& values) {
    return put_span(std::span<const T>(values.data(), values.size()));
  }

  /// Count-prefixed span body; the symmetric reader is
  /// `Unpacker::get_vector<T>()` or, zero-copy, `Unpacker::view<T>()`.
  template <typename T>
  Packer& put_span(std::span<const T> values) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "Packer::put_span requires trivially copyable elements");
    put<std::uint64_t>(values.size());
    if (!values.empty()) {
      append_raw(values.data(), values.size() * sizeof(T));
      detail::payload_copies_counter().add(1);
    }
    return *this;
  }

  /// Raw append without a count prefix — the building block for framed
  /// formats that write their own headers (e.g. multi-block patch
  /// messages packing one row slice at a time).  Does not touch the
  /// copy counter; framed packers count once per logical block.
  template <typename T>
  Packer& put_raw(const T* values, std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "Packer::put_raw requires trivially copyable elements");
    if (count > 0) append_raw(values, count * sizeof(T));
    return *this;
  }

  Payload take() { return std::move(bytes_); }

  /// Seals the buffer into an immutable shared handle (no copy).
  SharedPayload take_shared() { return SharedPayload(std::move(bytes_)); }

  std::size_t size() const { return bytes_.size(); }

 private:
  void append_raw(const void* data, std::size_t bytes) {
    const auto offset = bytes_.size();
    bytes_.resize(offset + bytes);
    std::memcpy(bytes_.data() + offset, data, bytes);
  }

  Payload bytes_;
};

class Unpacker {
 public:
  /// Non-owning: the payload must outlive the Unpacker and any views.
  explicit Unpacker(const Payload& payload) : bytes_(&payload) {}

  /// Owning: retains the handle, so the payload — and views into it —
  /// stay valid for as long as the caller also holds the handle.
  explicit Unpacker(const SharedPayload& payload)
      : owner_(payload), bytes_(&owner_.bytes()) {}

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>,
                  "Unpacker::get requires a trivially copyable type");
    require_remaining(sizeof(T), "value");
    T value;
    std::memcpy(&value, bytes_->data() + cursor_, sizeof(T));
    cursor_ += sizeof(T);
    return value;
  }

  template <typename T>
  std::vector<T> get_vector() {
    static_assert(std::is_trivially_copyable_v<T>,
                  "Unpacker::get_vector requires trivially copyable elements");
    const std::uint64_t count = checked_count(sizeof(T), "vector body");
    std::vector<T> values(count);
    if (count > 0) {
      std::memcpy(values.data(), bytes_->data() + cursor_, count * sizeof(T));
      detail::payload_copies_counter().add(1);
    }
    cursor_ += count * sizeof(T);
    return values;
  }

  /// Zero-copy read of a count-prefixed body written by put_vector /
  /// put_span: returns a span aliasing the payload bytes in place.  The
  /// span is valid only while the payload lives — hold the SharedPayload
  /// (or construct the Unpacker from one and keep it) across the span's
  /// lifetime.  The body must start at an alignof(T) boundary; every
  /// framing in this library is a multiple of 8 bytes, so doubles and
  /// u64s always qualify.
  template <typename T>
  std::span<const T> view() {
    static_assert(std::is_trivially_copyable_v<T>,
                  "Unpacker::view requires trivially copyable elements");
    const std::uint64_t count = checked_count(sizeof(T), "vector body");
    if (count == 0) return {};
    const std::byte* body = bytes_->data() + cursor_;
    require_aligned(body, alignof(T));
    cursor_ += count * sizeof(T);
    // The bytes were memcpy'd from T objects by the Packer, so reading
    // them through T is the inverse of that representation copy.
    return {reinterpret_cast<const T*>(body), count};
  }

  std::size_t remaining() const { return bytes_->size() - cursor_; }
  bool exhausted() const { return remaining() == 0; }

 private:
  void require_remaining(std::size_t needed, const char* what) const;
  void require_aligned(const std::byte* at, std::size_t alignment) const;

  /// Reads a u64 count prefix and validates it against the remaining
  /// bytes without ever forming `count * elem_size` first — the check
  /// `count <= remaining() / elem_size` cannot overflow, so a corrupt
  /// prefix throws instead of slipping past the bounds check.
  std::uint64_t checked_count(std::size_t elem_size, const char* what);

  SharedPayload owner_;  ///< empty for the non-owning constructor
  const Payload* bytes_;
  std::size_t cursor_ = 0;
};

}  // namespace senkf::parcomm
