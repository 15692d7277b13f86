// CRC32 (IEEE 802.3, polynomial 0xEDB88320) over byte spans.
//
// The trace store (src/tracedb/store) checksums every section payload and
// event chunk so corruption is detected at open time instead of surfacing as
// garbage records deep inside an analysis run.  Slicing-by-8: eight lookup
// tables consume eight bytes per step (unaligned input is fine), with a
// bytewise tail.  The values are the plain IEEE CRC-32's, so every stored
// checksum is unchanged.  Incremental: crc32(b, crc32(a)) == crc32(a ++ b).
#pragma once

#include <cstddef>
#include <cstdint>

namespace support {

/// CRC of `n` bytes at `p`, continuing from `seed` (pass the previous return
/// value to checksum a buffer in pieces; the default starts a fresh CRC).
[[nodiscard]] std::uint32_t crc32(const void* p, std::size_t n, std::uint32_t seed = 0);

}  // namespace support
