// CRC32C (Castagnoli, reflected polynomial 0x82f63b78) — the shared
// integrity checksum for every durable byte in the library: WAL records,
// segment-file blocks and indexes, and the manifest (src/storage/). One
// implementation so the formats cannot drift.
//
// Software path is slicing-by-8 over compile-time tables (constexpr, no
// global constructors); with -msse4.2 the hardware CRC32 instruction takes
// over transparently — same polynomial, same results.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#if defined(__SSE4_2__)
#include <nmmintrin.h>
#endif

namespace costream {

namespace detail {

inline constexpr std::uint32_t kCrc32cPoly = 0x82f63b78u;  // reflected

constexpr std::array<std::array<std::uint32_t, 256>, 8> make_crc32c_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? kCrc32cPoly ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    for (std::size_t s = 1; s < 8; ++s) {
      t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xffu];
    }
  }
  return t;
}

inline constexpr auto kCrc32cTables = make_crc32c_tables();

}  // namespace detail

/// CRC32C of `n` bytes. `seed` chains calls: crc32c(b, m+n) ==
/// crc32c(b+m, n, crc32c(b, m)).
inline std::uint32_t crc32c(const void* data, std::size_t n,
                            std::uint32_t seed = 0) noexcept {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = ~seed;
#if defined(__SSE4_2__)
  while (n >= 8) {
    std::uint64_t word;
    __builtin_memcpy(&word, p, 8);
    c = static_cast<std::uint32_t>(_mm_crc32_u64(c, word));
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    c = _mm_crc32_u8(c, *p++);
    --n;
  }
#else
  const auto& T = detail::kCrc32cTables;
  while (n >= 8) {
    const std::uint32_t lo = c ^ (static_cast<std::uint32_t>(p[0]) |
                                  (static_cast<std::uint32_t>(p[1]) << 8) |
                                  (static_cast<std::uint32_t>(p[2]) << 16) |
                                  (static_cast<std::uint32_t>(p[3]) << 24));
    c = T[7][lo & 0xffu] ^ T[6][(lo >> 8) & 0xffu] ^ T[5][(lo >> 16) & 0xffu] ^
        T[4][lo >> 24] ^ T[3][p[4]] ^ T[2][p[5]] ^ T[1][p[6]] ^ T[0][p[7]];
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    c = T[0][(c ^ *p++) & 0xffu] ^ (c >> 8);
    --n;
  }
#endif
  return ~c;
}

}  // namespace costream
