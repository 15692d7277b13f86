#include "support/crc32.hpp"

#include <array>
#include <bit>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace support {
namespace {

// The eight-byte step below XORs the running CRC into a little-endian load;
// the on-disk formats that use this CRC are little-endian-only too.
static_assert(std::endian::native == std::endian::little);

using Table = std::array<std::uint32_t, 256>;

/// kTables[0] is the classic bytewise table; kTables[k][i] is the CRC of
/// byte i followed by k zero bytes, so one eight-byte step is eight lookups.
constexpr std::array<Table, 8> make_tables() {
  std::array<Table, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr auto kTables = make_tables();

#if defined(__x86_64__)

/// Folding pays for its setup and final reduction from four 16-byte lanes
/// up; shorter inputs stay on the tables.
constexpr std::size_t kFoldMinBytes = 64;

bool cpu_has_clmul() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  }();
  return has;
}

/// One fold step: multiplies the lane's two halves by the constant pair and
/// adds `next`, the 16 bytes the product lines up with.
__attribute__((target("pclmul,sse4.1"))) inline __m128i fold(__m128i lane, __m128i k,
                                                           __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(lane, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(lane, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

/// Folds `n` bytes (n >= 64, a multiple of 16) into the running register
/// `c` (the inverted CRC, as inside crc32_slicing8) and returns the new one.
/// The constants are x^k mod P for the bit-reflected polynomial, from the
/// whitepaper: k1/k2 fold 64 bytes ahead, k3/k4 fold 16 bytes ahead, k5
/// folds the last 64 bits to 32, and P'/mu drive the Barrett reduction.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t fold_clmul(const unsigned char* p,
                                                                 std::size_t n,
                                                                 std::uint32_t c) {
  const auto load = [](const unsigned char* at) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
  };

  __m128i x0 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = load(p + 16);
  __m128i x2 = load(p + 32);
  __m128i x3 = load(p + 48);
  p += 64;
  n -= 64;

  const __m128i k1k2 = _mm_set_epi64x(0x01C6E41596, 0x0154442BD4);
  for (; n >= 64; p += 64, n -= 64) {
    x0 = fold(x0, k1k2, load(p));
    x1 = fold(x1, k1k2, load(p + 16));
    x2 = fold(x2, k1k2, load(p + 32));
    x3 = fold(x3, k1k2, load(p + 48));
  }

  const __m128i k3k4 = _mm_set_epi64x(0x00CCAA009E, 0x01751997D0);
  x0 = fold(x0, k3k4, x1);
  x0 = fold(x0, k3k4, x2);
  x0 = fold(x0, k3k4, x3);
  for (; n >= 16; p += 16, n -= 16) x0 = fold(x0, k3k4, load(p));

  // 128 -> 64 bits, then 64 -> 32 bits.
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8), _mm_clmulepi64_si128(x0, k3k4, 0x10));
  const __m128i k5 = _mm_set_epi64x(0, 0x0163CD6124);
  x0 = _mm_xor_si128(_mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5, 0x00),
                     _mm_srli_si128(x0, 4));

  // Barrett reduction to the 32-bit remainder.
  const __m128i poly_mu = _mm_set_epi64x(0x01F7011641, 0x01DB710641);
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly_mu, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x0, t), 1));
}

#endif  // __x86_64__

}  // namespace

namespace detail {

std::uint32_t crc32_slicing8(const void* p, std::size_t n, std::uint32_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(p);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; n >= 8; bytes += 8, n -= 8) {
    std::uint32_t lo, hi;
    std::memcpy(&lo, bytes, 4);
    std::memcpy(&hi, bytes + 4, 4);
    lo ^= c;
    c = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
        kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^ kTables[3][hi & 0xFFu] ^
        kTables[2][(hi >> 8) & 0xFFu] ^ kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++bytes, --n) {
    c = kTables[0][(c ^ *bytes) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace detail

std::uint32_t crc32(const void* p, std::size_t n, std::uint32_t seed) {
#if defined(__x86_64__)
  if (n >= kFoldMinBytes && cpu_has_clmul()) {
    const auto* bytes = static_cast<const unsigned char*>(p);
    const std::size_t folded = n & ~std::size_t{15};
    const std::uint32_t head = fold_clmul(bytes, folded, seed ^ 0xFFFFFFFFu) ^ 0xFFFFFFFFu;
    return detail::crc32_slicing8(bytes + folded, n - folded, head);
  }
#endif
  return detail::crc32_slicing8(p, n, seed);
}

}  // namespace support
