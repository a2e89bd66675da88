#ifndef TENET_COMMON_CHECKSUM_H_
#define TENET_COMMON_CHECKSUM_H_

#include <cstddef>
#include <cstdint>

namespace tenet {

/// FNV-1a over `size` bytes — the checksum every TENET container format
/// uses (TENETKB3 section tables, TENETDELTA1 records).  Not
/// cryptographic; it detects torn writes and bit rot, which is all the
/// loaders ask of it.
inline uint64_t Fnv1a64(const void* data, size_t size) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t hash = 0xcbf29ce484222325ull;
  for (size_t i = 0; i < size; ++i) {
    hash ^= p[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

}  // namespace tenet

#endif  // TENET_COMMON_CHECKSUM_H_
