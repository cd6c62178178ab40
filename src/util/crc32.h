// CRC-32 (IEEE 802.3, the zlib/gzip polynomial 0xEDB88320), table-driven.
//
// Used to stamp every SimulatedDisk page image and, in the one durable
// frame (storage/durable.h WriteFramedFile/ReadFramedFile), every .pywm
// model file and .pyck checkpoint manifest, so silent corruption
// (bit-flips, torn writes) is detected on every read path instead of being
// served to the buffer pool or deserialized into a live model. CRC-32
// detects all single-bit errors and all burst errors up to 32 bits —
// exactly the fault classes the corruption injector produces. Not
// cryptographic: an adversary can forge it, a flaky device cannot.
//
// The incremental API matches zlib's: `crc = Crc32(data, len, crc)` with a
// starting value of 0, so a buffer may be checksummed in arbitrary chunks
// ("tail bytes" after a block boundary included) with identical results.
#ifndef PYTHIA_UTIL_CRC32_H_
#define PYTHIA_UTIL_CRC32_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace pythia {

namespace internal {

constexpr std::array<uint32_t, 256> MakeCrc32Table() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

inline constexpr std::array<uint32_t, 256> kCrc32Table = MakeCrc32Table();

}  // namespace internal

// Extends `crc` (0 for a fresh checksum) over `len` bytes at `data`.
// Crc32(p, n) == Crc32(p + k, n - k, Crc32(p, k)) for any split point k.
inline uint32_t Crc32(const void* data, size_t len, uint32_t crc = 0) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint32_t c = crc ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    c = internal::kCrc32Table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace pythia

#endif  // PYTHIA_UTIL_CRC32_H_
