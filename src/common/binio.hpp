// Little-endian binary serialization helpers, CRC-32 and the atomic
// file writer behind every persisted format: campaign checkpoints and
// fabric snapshots (core/snapshot), trace stores (store/trace_store)
// and the serve daemon's job/result files. Doubles
// round-trip bit-exactly (raw IEEE-754 bits), which is what makes
// resumed campaigns indistinguishable from uninterrupted ones.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace slm {

// ByteWriter/ByteReader copy native integers and doubles with memcpy;
// on a little-endian host that is exactly the wire byte order.
static_assert(std::endian::native == std::endian::little,
              "binio's memcpy serialization assumes a little-endian host");

/// A read-only run of bytes: one piece of a file written in parts.
using ByteSpan = std::span<const std::uint8_t>;

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
std::uint32_t crc32(const std::uint8_t* data, std::size_t size);

/// Incremental CRC-32: pass the previous return value (0 to start) to
/// chain spans — crc32_update(crc32_update(0, a, na), b, nb) equals
/// crc32 of a‖b. The trace store uses this to checksum each chunk's
/// slices of several columns without concatenating them.
///
/// Dispatched once per process: a PCLMULQDQ folding kernel where the
/// CPU has carry-less multiply, a slicing-by-8 table walk elsewhere.
/// Both return the same value for every input.
std::uint32_t crc32_update(std::uint32_t crc, const std::uint8_t* data,
                           std::size_t size);

/// The two CRC-32 paths crc32_update dispatches between, exposed so the
/// property test and bench_micro can pin each one against the oracle.
/// crc32_update_pclmul may only be called when crc32_has_pclmul().
std::uint32_t crc32_update_portable(std::uint32_t crc,
                                    const std::uint8_t* data,
                                    std::size_t size);
std::uint32_t crc32_update_pclmul(std::uint32_t crc, const std::uint8_t* data,
                                  std::size_t size);
bool crc32_has_pclmul();

/// Atomically replace `path` with the concatenation of `parts`. The
/// bytes go to a temp file named per process and per call
/// (`<path>.<pid>.<n>.tmp`), so concurrent writers to one path never
/// share a temp file; the stream is checked after close and the temp
/// file renamed over `path`. A kill at any instant therefore leaves
/// either the previous complete file or the new complete file, never a
/// torn one. Returns the byte count written; throws slm::Error
/// ("<context>: cannot write ...") on I/O failure, removing the temp
/// file.
std::size_t write_file_atomic(const std::string& path,
                              std::initializer_list<ByteSpan> parts,
                              const std::string& context);

/// Shared framed-file envelope for the binary state formats (`SLMSNAP1`
/// campaign checkpoints and fabric accumulator snapshots, `SLMTRC1`
/// trace stores):
///
///   magic   8 bytes
///   version u32      readers reject other versions (no silent migration)
///   length  u64      payload byte count
///   crc     u32      CRC-32 of the payload
///   payload
///
/// The payload is the concatenation of `parts`: the CRC is chained over
/// them and each is written straight to the file, so a caller holding
/// its payload in several buffers never assembles a copy. Written with
/// write_file_atomic. Returns the total byte count written.
std::size_t write_framed_file(const std::string& path, const char* magic8,
                              std::uint32_t version,
                              std::initializer_list<ByteSpan> parts,
                              const std::string& context);

/// Single-buffer form of the above.
inline std::size_t write_framed_file(const std::string& path,
                                     const char* magic8,
                                     std::uint32_t version,
                                     const std::vector<std::uint8_t>& payload,
                                     const std::string& context) {
  return write_framed_file(path, magic8, version, {ByteSpan(payload)},
                           context);
}

/// Read and validate a framed file. Returns nullopt when the file does
/// not exist; throws slm::Error with a `context`-prefixed message on bad
/// magic, version mismatch, truncated payload, or CRC failure. The
/// returned bytes are the CRC-verified payload, read straight into the
/// returned vector.
std::optional<std::vector<std::uint8_t>> read_framed_file(
    const std::string& path, const char* magic8, std::uint32_t version,
    const std::string& context);

/// Append-only little-endian byte buffer.
class ByteWriter {
 public:
  void put_u8(std::uint8_t v) { buf_.push_back(v); }
  void put_u32(std::uint32_t v) { put_raw(&v, sizeof v); }
  void put_u64(std::uint64_t v) { put_raw(&v, sizeof v); }
  void put_f64(double v) { put_raw(&v, sizeof v); }

  void put_bytes(const std::uint8_t* data, std::size_t n) {
    put_raw(data, n);
  }

  void put_f64_vector(const std::vector<double>& v) {
    put_u64(v.size());
    put_raw(v.data(), v.size() * sizeof(double));
  }

  template <std::size_t N>
  void put_u64_array(const std::array<std::uint64_t, N>& a) {
    put_raw(a.data(), N * sizeof(std::uint64_t));
  }

  /// Pre-size the buffer when the caller knows roughly how much it will
  /// append: one allocation instead of a doubling series of copies.
  void reserve(std::size_t n) { buf_.reserve(n); }

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::size_t size() const { return buf_.size(); }

  /// Move the buffer out without copying it; the writer is left empty.
  std::vector<std::uint8_t> take() { return std::exchange(buf_, {}); }

 private:
  void put_raw(const void* data, std::size_t n) {
    if (n == 0) return;
    const std::size_t at = buf_.size();
    buf_.resize(at + n);
    std::memcpy(buf_.data() + at, data, n);
  }

  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked reader over a byte span; throws slm::Error on overrun
/// (a truncated or corrupt checkpoint must fail loudly, never misparse).
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint8_t get_u8() {
    need(1);
    return data_[pos_++];
  }

  std::uint32_t get_u32() {
    std::uint32_t v = 0;
    get_raw(&v, sizeof v);
    return v;
  }

  std::uint64_t get_u64() {
    std::uint64_t v = 0;
    get_raw(&v, sizeof v);
    return v;
  }

  double get_f64() {
    double v = 0.0;
    get_raw(&v, sizeof v);
    return v;
  }

  void get_bytes(std::uint8_t* out, std::size_t n) { get_raw(out, n); }

  std::vector<double> get_f64_vector() {
    const std::uint64_t n = get_u64();
    SLM_REQUIRE(n <= remaining() / 8, "ByteReader: vector length overruns");
    std::vector<double> v(n);
    get_raw(v.data(), n * sizeof(double));
    return v;
  }

  template <std::size_t N>
  std::array<std::uint64_t, N> get_u64_array() {
    std::array<std::uint64_t, N> a{};
    get_raw(a.data(), N * sizeof(std::uint64_t));
    return a;
  }

  std::size_t remaining() const { return size_ - pos_; }
  bool done() const { return pos_ == size_; }

 private:
  void need(std::size_t n) const {
    SLM_REQUIRE(size_ - pos_ >= n, "ByteReader: truncated input");
  }

  void get_raw(void* out, std::size_t n) {
    need(n);
    if (n == 0) return;
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace slm
