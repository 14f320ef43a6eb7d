//===--- support/atomic_file.h - temp-write + rename file publication --------===//
//
// Part of the Diderot-C++ reproduction (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The crash-consistent file-publication idiom used throughout the system:
/// write the full contents to a process-unique temp file in the same
/// directory, flush, then rename(2) over the destination. rename within a
/// directory is atomic, so a concurrent reader (or a crash mid-write) sees
/// either the old file or the new one, never a torn prefix.
///
/// Extracted from the compile cache's index writer (codegen/cache.cpp) so
/// the replay-bundle manifests (observe/replay.cpp) and the daemon's
/// recordings index (serve/daemon.cpp) share one tested implementation.
///
//===----------------------------------------------------------------------===//

#ifndef DIDEROT_SUPPORT_ATOMIC_FILE_H
#define DIDEROT_SUPPORT_ATOMIC_FILE_H

#include <initializer_list>
#include <string>
#include <string_view>

#include "support/result.h"

namespace diderot::support {

/// Atomically replace \p Path with \p Contents: write to
/// "<Path>.tmp.<pid>", flush, rename over \p Path. On any failure the temp
/// file is removed and \p Path is left untouched (old contents intact).
Status writeFileAtomic(const std::string &Path, const std::string &Contents);

/// Like writeFileAtomic with the concatenation of \p Pieces as contents,
/// written piece by piece — large binary arrays need no joined copy.
Status writeFileAtomic(const std::string &Path,
                       std::initializer_list<std::string_view> Pieces);

/// Like writeFileAtomic but failures are swallowed — for inventory files
/// whose loss is recoverable (the cache index, the recordings index).
/// Returns true when the rename landed.
bool writeFileAtomicBestEffort(const std::string &Path,
                               const std::string &Contents);

} // namespace diderot::support

#endif // DIDEROT_SUPPORT_ATOMIC_FILE_H
