#include "storage/crc32.h"

namespace tpcp {
namespace {

// Slice-by-8 tables: entries[0] is the classic byte-at-a-time table and
// entries[k][i] is the CRC of byte i followed by k zero bytes, so eight
// input bytes fold into the running CRC with eight independent lookups.
struct Crc32Table {
  uint32_t entries[8][256];
  Crc32Table() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? 0xedb88320u : 0u);
      }
      entries[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 8; ++k) {
        const uint32_t prev = entries[k - 1][i];
        entries[k][i] = (prev >> 8) ^ entries[0][prev & 0xffu];
      }
    }
  }
};

const Crc32Table& Table() {
  static const Crc32Table table;
  return table;
}

}  // namespace

uint32_t Crc32(const void* data, size_t n, uint32_t seed) {
  const auto& t = Table().entries;
  const auto* bytes = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
  size_t i = 0;
  // Bytes are assembled explicitly (not loaded as a word), so the result
  // does not depend on host endianness or alignment.
  for (; i + 8 <= n; i += 8) {
    const uint8_t* b = bytes + i;
    crc ^= static_cast<uint32_t>(b[0]) | static_cast<uint32_t>(b[1]) << 8 |
           static_cast<uint32_t>(b[2]) << 16 |
           static_cast<uint32_t>(b[3]) << 24;
    crc = t[7][crc & 0xffu] ^ t[6][(crc >> 8) & 0xffu] ^
          t[5][(crc >> 16) & 0xffu] ^ t[4][crc >> 24] ^ t[3][b[4]] ^
          t[2][b[5]] ^ t[1][b[6]] ^ t[0][b[7]];
  }
  for (; i < n; ++i) {
    crc = (crc >> 8) ^ t[0][(crc ^ bytes[i]) & 0xffu];
  }
  return ~crc;
}

}  // namespace tpcp
