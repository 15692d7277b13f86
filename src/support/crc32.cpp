#include "support/crc32.hpp"

#include <array>
#include <bit>
#include <cstring>

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

}  // namespace

std::uint32_t crc32(const void* p, std::size_t n, std::uint32_t seed) {
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

}  // namespace support
