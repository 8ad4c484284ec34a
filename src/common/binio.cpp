#include "common/binio.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>

#if defined(__x86_64__) || defined(_M_X64)
#define SLM_CRC_X86 1
#include <immintrin.h>
#else
#define SLM_CRC_X86 0
#endif

namespace slm {

namespace {

constexpr std::size_t kEnvelopeBytes = 24;

// Slicing-by-8 tables for the reflected polynomial 0xEDB88320:
// kCrcTables[0] is the classic byte table, and kCrcTables[k][b] is the
// CRC contribution of byte b followed by k zero bytes, so one lookup
// per byte of an 8-byte word advances the CRC by the whole word.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = t[k - 1][i];
      t[k][i] = (prev >> 8) ^ t[0][prev & 0xffu];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

// Slicing-by-8 over the raw (pre-inverted) CRC register `c`.
std::uint32_t crc32_slice8(std::uint32_t c, const std::uint8_t* p,
                           std::size_t n) {
  const auto& t = kCrcTables;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint32_t lo = 0;
    std::uint32_t hi = 0;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= c;
    c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
        t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
        t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xffu] ^ (c >> 8);
  return c;
}

#if SLM_CRC_X86
inline __m128i load128(const std::uint8_t* at) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

// x * x^d mod P, added onto `next`: one fold of `x` over the distance d
// whose constants `k` carries.
__attribute__((target("pclmul,sse4.1"))) inline __m128i fold128(
    __m128i x, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009), in the
// bit-reflected domain of 0xEDB88320. Four 128-bit lanes fold 64 bytes
// per step; the lanes are then folded into one, the 128-bit remainder
// reduced to 64 and 32 bits, and a Barrett step yields the register.
// Works on the raw (pre-inverted) register `c`; needs n >= 64 and
// n % 16 == 0 (the caller hands the tail to the table walk).
__attribute__((target("pclmul,sse4.1"))) std::uint32_t crc32_fold_pclmul(
    std::uint32_t c, const std::uint8_t* p, std::size_t n) {
  // x^(4*128+32) mod P and x^(4*128-32) mod P, bit-reflected, << 1.
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  // The same for a 128-bit fold distance.
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  // x^64 mod P for the 64 -> 32 bit step.
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  // P' (the polynomial with its x^32 term) and the Barrett constant mu.
  const __m128i poly_mu = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_set_epi32(0, -1, 0, -1);

  __m128i x0 =
      _mm_xor_si128(load128(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = load128(p + 16);
  __m128i x2 = load128(p + 32);
  __m128i x3 = load128(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x0 = fold128(x0, k1k2, load128(p));
    x1 = fold128(x1, k1k2, load128(p + 16));
    x2 = fold128(x2, k1k2, load128(p + 32));
    x3 = fold128(x3, k1k2, load128(p + 48));
  }

  __m128i x = fold128(x0, k3k4, x1);
  x = fold128(x, k3k4, x2);
  x = fold128(x, k3k4, x3);
  for (; n >= 16; p += 16, n -= 16) x = fold128(x, k3k4, load128(p));

  // 128 -> 64 bits.
  x = _mm_xor_si128(_mm_srli_si128(x, 8), _mm_clmulepi64_si128(x, k3k4, 0x10));
  // 64 -> 32 bits.
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00));
  // Barrett reduction to the 32-bit register.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly_mu, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, t), 1));
}
#endif

// Writes the concatenation of `parts` to a per-process, per-call temp
// file and renames it over `path`.
std::size_t write_parts_atomic(const std::string& path,
                               std::span<const ByteSpan> parts,
                               const std::string& context) {
  static std::atomic<std::uint64_t> calls{0};
  const std::string tmp_path = path + "." + std::to_string(::getpid()) +
                               "." + std::to_string(calls.fetch_add(1)) +
                               ".tmp";
  const auto fail = [&](const std::string& what) {
    std::error_code ec;
    std::filesystem::remove(tmp_path, ec);
    SLM_REQUIRE(false, context + ": " + what);
  };

  std::size_t total = 0;
  {
    std::ofstream os(tmp_path, std::ios::binary | std::ios::trunc);
    if (!os) fail("cannot write '" + tmp_path + "'");
    for (const ByteSpan part : parts) {
      os.write(reinterpret_cast<const char*>(part.data()),
               static_cast<std::streamsize>(part.size()));
      total += part.size();
    }
    os.close();
    if (!os) fail("short write to '" + tmp_path + "'");
  }
  // Atomic replace: a reader (or a crash) sees either the old complete
  // file or the new complete file, never a torn one.
  std::error_code ec;
  std::filesystem::rename(tmp_path, path, ec);
  if (ec) fail("atomic rename to '" + path + "' failed");
  return total;
}

}  // namespace

std::uint32_t crc32_update_portable(std::uint32_t crc,
                                    const std::uint8_t* data,
                                    std::size_t size) {
  return crc32_slice8(crc ^ 0xffffffffu, data, size) ^ 0xffffffffu;
}

std::uint32_t crc32_update_pclmul(std::uint32_t crc, const std::uint8_t* data,
                                  std::size_t size) {
  std::uint32_t c = crc ^ 0xffffffffu;
#if SLM_CRC_X86
  if (size >= 64) {
    const std::size_t bulk = size & ~std::size_t{15};
    c = crc32_fold_pclmul(c, data, bulk);
    data += bulk;
    size -= bulk;
  }
#endif
  return crc32_slice8(c, data, size) ^ 0xffffffffu;
}

bool crc32_has_pclmul() {
#if SLM_CRC_X86
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
#else
  return false;
#endif
}

std::uint32_t crc32_update(std::uint32_t crc, const std::uint8_t* data,
                           std::size_t size) {
  static const auto fn =
      crc32_has_pclmul() ? &crc32_update_pclmul : &crc32_update_portable;
  return fn(crc, data, size);
}

std::uint32_t crc32(const std::uint8_t* data, std::size_t size) {
  return crc32_update(0, data, size);
}

std::size_t write_file_atomic(const std::string& path,
                              std::initializer_list<ByteSpan> parts,
                              const std::string& context) {
  return write_parts_atomic(path, {parts.begin(), parts.size()}, context);
}

std::size_t write_framed_file(const std::string& path, const char* magic8,
                              std::uint32_t version,
                              std::initializer_list<ByteSpan> parts,
                              const std::string& context) {
  std::uint64_t length = 0;
  std::uint32_t crc = 0;
  for (const ByteSpan part : parts) {
    length += part.size();
    crc = crc32_update(crc, part.data(), part.size());
  }
  ByteWriter envelope;
  envelope.put_bytes(reinterpret_cast<const std::uint8_t*>(magic8), 8);
  envelope.put_u32(version);
  envelope.put_u64(length);
  envelope.put_u32(crc);

  std::vector<ByteSpan> all;
  all.reserve(parts.size() + 1);
  all.emplace_back(envelope.bytes());
  all.insert(all.end(), parts.begin(), parts.end());
  return write_parts_atomic(path, all, context);
}

std::optional<std::vector<std::uint8_t>> read_framed_file(
    const std::string& path, const char* magic8, std::uint32_t version,
    const std::string& context) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  if (!is) return std::nullopt;
  const std::streamoff end = is.tellg();
  SLM_REQUIRE(end >= 0 && is.seekg(0),
              context + ": cannot read '" + path + "'");
  const auto file_bytes = static_cast<std::uint64_t>(end);

  // The envelope goes through the bounds-checked reader, so a file
  // shorter than 24 bytes fails there rather than in a wild read.
  std::uint8_t head[kEnvelopeBytes] = {};
  const auto head_bytes = static_cast<std::size_t>(
      std::min<std::uint64_t>(file_bytes, kEnvelopeBytes));
  SLM_REQUIRE(is.read(reinterpret_cast<char*>(head),
                      static_cast<std::streamsize>(head_bytes)),
              context + ": cannot read '" + path + "'");
  ByteReader in(head, head_bytes);
  char magic[8] = {};
  in.get_bytes(reinterpret_cast<std::uint8_t*>(magic), sizeof magic);
  SLM_REQUIRE(std::equal(magic, magic + sizeof magic, magic8),
              context + ": bad magic in '" + path + "'");
  const std::uint32_t file_version = in.get_u32();
  SLM_REQUIRE(file_version == version,
              context + ": unsupported version " +
                  std::to_string(file_version) + " in '" + path +
                  "' (expected " + std::to_string(version) + ")");
  const std::uint64_t length = in.get_u64();
  const std::uint32_t stored_crc = in.get_u32();
  SLM_REQUIRE(length == file_bytes - kEnvelopeBytes,
              context + ": truncated payload in '" + path + "'");

  // One sized read straight into the vector that is returned.
  std::vector<std::uint8_t> payload(length);
  SLM_REQUIRE(is.read(reinterpret_cast<char*>(payload.data()),
                      static_cast<std::streamsize>(length)),
              context + ": truncated payload in '" + path + "'");
  SLM_REQUIRE(crc32(payload.data(), payload.size()) == stored_crc,
              context + ": CRC mismatch in '" + path +
                  "' — file is corrupt");
  return payload;
}

}  // namespace slm
