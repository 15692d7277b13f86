// Crash-safe file replacement: write to a temp path, rename(2) into place.
//
// rename() within one filesystem is atomic, so a reader (or a crash-restart)
// sees either the complete old file or the complete new one — never a
// truncated half-write.  Used by the fleet serve checkpointer and by the
// trace store's section commits, both of which rewrite files a concurrent
// `sgxperf stats` run may be about to open.
#pragma once

#include <initializer_list>
#include <string>
#include <string_view>

namespace support {

/// Sibling temp path for `path` ("<path>.tmp.<pid>"): same directory, so the
/// later rename never crosses a filesystem boundary.
[[nodiscard]] std::string atomic_temp_path(const std::string& path);

/// Atomically renames `temp_path` onto `final_path`, replacing any existing
/// file.  Throws std::runtime_error (and leaves the temp file for autopsy)
/// on failure.
void commit_file(const std::string& temp_path, const std::string& final_path);

/// Writes `parts`, one after another, to `path` atomically: temp sibling,
/// flush, fsync, rename.  The parts are never joined in memory, so a large
/// payload and a small trailer cost no copy.  Throws std::runtime_error on
/// any I/O failure; `path` is untouched then.
void write_file_atomic(const std::string& path, std::initializer_list<std::string_view> parts);

}  // namespace support
