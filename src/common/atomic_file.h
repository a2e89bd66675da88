#ifndef TENET_COMMON_ATOMIC_FILE_H_
#define TENET_COMMON_ATOMIC_FILE_H_

#include <cstddef>
#include <string>

#include "common/status.h"

namespace tenet {

// Crash-safe file replacement: the durability primitive under every TENET
// container writer (TENETKB3 / TENETEMB1 snapshots, TENETDELTA1 segments).
//
// The bytes land in `<path>.tmp` first, are fsynced, and only then rename
// over `path`; the parent directory is fsynced after the rename so the new
// directory entry itself is durable.  A crash — or an injected fault — at
// any point leaves either the old file intact or no file at all, never a
// torn `path`.  Stale `<path>.tmp` debris from a previous crash is
// harmless (loaders never look at it) and is overwritten by the next
// write.
//
// Not safe against two writers racing on the same path (they would share
// the temp name); the callers serialize writes per path.
Status AtomicWriteFile(const std::string& path, const void* data,
                       size_t size);

}  // namespace tenet

#endif  // TENET_COMMON_ATOMIC_FILE_H_
