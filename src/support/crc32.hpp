// CRC32 (IEEE 802.3, polynomial 0xEDB88320) over byte spans.
//
// The trace store (src/tracedb/store) checksums every section payload and
// event chunk so corruption is detected at open time instead of surfacing as
// garbage records deep inside an analysis run.  Two kernels compute the same
// values.  On x86-64 CPUs with PCLMULQDQ, inputs of 64 bytes or more are
// folded 16 bytes at a time with carry-less multiplies (Intel's "Fast CRC
// Computation for Generic Polynomials Using PCLMULQDQ"); the CPU is asked
// once, at the first call.  Everything else, and the last 0-15 bytes of a
// folded input, goes through slicing-by-8: eight lookup tables consume eight
// bytes per step (unaligned input is fine), with a bytewise tail.  The
// values are the plain IEEE CRC-32's, so every stored checksum is unchanged.
// Incremental: crc32(b, crc32(a)) == crc32(a ++ b).
#pragma once

#include <cstddef>
#include <cstdint>

namespace support {

/// CRC of `n` bytes at `p`, continuing from `seed` (pass the previous return
/// value to checksum a buffer in pieces; the default starts a fresh CRC).
[[nodiscard]] std::uint32_t crc32(const void* p, std::size_t n, std::uint32_t seed = 0);

namespace detail {

/// The slicing-by-8 kernel alone, with crc32()'s contract: the fallback on
/// every CPU, callable directly so it stays tested where crc32() folds.
[[nodiscard]] std::uint32_t crc32_slicing8(const void* p, std::size_t n, std::uint32_t seed);

}  // namespace detail
}  // namespace support
