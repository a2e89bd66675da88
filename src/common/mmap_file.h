#ifndef TENET_COMMON_MMAP_FILE_H_
#define TENET_COMMON_MMAP_FILE_H_

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"

namespace tenet {

// A read-only view of a whole file, zero-copy when the platform has mmap
// and transparently buffered otherwise — the loading substrate of the
// TENETKB3 snapshot path (the paper memory-maps its PBG vector array the
// same way, Sec. 6.1: pay the page-in cost lazily, never a parse cost).
//
// The two modes expose one contract: bytes() is stable for the lifetime of
// the object, the file is never written through, and Open() fails with a
// Status instead of aborting.  zero_copy() reports which mode was taken so
// observability can count mapped bytes honestly.
class MmapFile {
 public:
  /// Maps (or, with `prefer_mmap` false / no mmap support, reads) `path`.
  /// NotFound when the file cannot be opened; Internal on map/read errors.
  /// Empty files yield an empty, valid view.
  static Result<MmapFile> Open(const std::string& path,
                               bool prefer_mmap = true);

  MmapFile() = default;
  ~MmapFile();

  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;
  MmapFile(MmapFile&& other) noexcept;
  MmapFile& operator=(MmapFile&& other) noexcept;

  std::span<const std::byte> bytes() const {
    return std::span<const std::byte>(data_, size_);
  }
  size_t size() const { return size_; }

  /// True when bytes() is a live mapping (no heap copy was made).
  bool zero_copy() const { return mapped_; }

 private:
  void Release();

  const std::byte* data_ = nullptr;
  size_t size_ = 0;
  bool mapped_ = false;           // data_ came from mmap, munmap on release
  std::vector<std::byte> owned_;  // buffered fallback storage
};

}  // namespace tenet

#endif  // TENET_COMMON_MMAP_FILE_H_
