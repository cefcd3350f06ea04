// Filesystem helpers for the durability layer (engine journal/checkpoints).
//
// The one primitive that matters is the atomic commit: journal records and
// checkpoints are written to `<path>.tmp`, fsync(2)ed, rename(2)d into
// place, and the parent directory is fsynced -- so a reader never observes
// a half-written final file (a crash mid-write leaves at most a torn
// `.tmp` the recovery scan ignores) and a *completed* rename survives
// power loss (the directory entry itself is durable, not just the data
// blocks).  Two failpoint sites bracket the commit:
//
//   journal.write   -- after the temp file holds only a prefix of the
//                      content (a kill here models a torn write),
//   journal.commit  -- after the temp file is complete but before the
//                      rename (a kill here models a crash between write
//                      and commit).
//
// Every durability syscall (open/write/fsync/rename) additionally consults
// the io family of util/inject, the disk-fault shim: HLTS_IO_FAULTS can make
// any of them fail with ENOSPC/EIO or tear the write short, which is how
// the chaos grid proves the journal protocol survives a misbehaving disk.
//
// All functions report failure via hlts::Error(ErrorKind::Transient) --
// disk-full and permission hiccups are environmental, and the engine's
// retry/degrade machinery owns them -- except where noted.  ENOSPC is
// called out distinctly in the message ("disk full: ENOSPC") so operators
// can tell out-of-space from a failing device.
#pragma once

#include <optional>
#include <string>
#include <vector>

namespace hlts::util::fs {

/// Suffix of in-flight temp files; readers (list_files, recovery) skip it.
inline constexpr const char* kTempSuffix = ".tmp";

/// Creates `dir` (and parents).  No-op when it already exists.
void create_directories(const std::string& dir);

/// True when `path` names an existing regular file.
[[nodiscard]] bool file_exists(const std::string& path);

/// Whole-file read; nullopt when the file does not exist or is unreadable
/// (a torn or missing journal entry is a normal recovery-time case, not an
/// error).
[[nodiscard]] std::optional<std::string> read_file(const std::string& path);

/// Atomic durable whole-file write: content goes to `path + ".tmp"`, is
/// fsynced, renamed over `path`, and the parent directory is fsynced so
/// the commit survives power loss.  Either the old content or the new
/// content is visible, never a mixture.  Hits the `journal.write`
/// failpoint mid-write and `journal.commit` before the rename, and
/// consults the io family of util/inject at every syscall.
void write_file_atomic(const std::string& path, const std::string& content);

/// Deletes `path` if it exists; missing files are not an error.
void remove_file(const std::string& path);

/// rename(2)s `from` over `to` (same filesystem); throws Error(Transient)
/// on failure.  Used by the journal scrubber to quarantine corrupt files.
void rename_file(const std::string& from, const std::string& to);

/// Sorted names (not paths) of regular files directly inside `dir`,
/// excluding in-flight `.tmp` files.  Empty when the directory is missing.
[[nodiscard]] std::vector<std::string> list_files(const std::string& dir);

/// Like list_files but *including* `.tmp` leftovers -- the scrubber's view:
/// a stray temp file is evidence of an interrupted commit worth reporting.
[[nodiscard]] std::vector<std::string> list_all_files(const std::string& dir);

/// Replaces every character that is unsafe in a filename with '_' (path
/// separators, control bytes, shell-hostile punctuation).  Used to derive
/// journal filenames from job names like "ex/Ours".
[[nodiscard]] std::string sanitize_filename(const std::string& name);

}  // namespace hlts::util::fs
