// All-or-nothing output files.
//
// Written bytes go to a temp file beside the target (same directory, so the
// final rename stays on one file system). commit() flushes, closes and
// checks the stream, then renames the temp over the target; a failure at any
// step, or destruction without a commit, removes the temp. A reader of the
// target therefore sees either its previous contents or the complete new
// file, never a truncated one (a full disk, a file-size limit, a killed run).
//
// A target that exists and is not a plain regular file (a device, a pipe,
// a symlink such as /dev/stdout) is written in place, as a rename would
// replace the node itself rather than write through it; commit() still
// checks its writes.
#pragma once

#include <fstream>
#include <string>

namespace tracered::util {

class AtomicOutputFile {
 public:
  /// Opens the temp file for `path` (binary), or `path` itself when it is
  /// written in place. `who` prefixes every error,
  /// e.g. "trace_io". Throws std::runtime_error "<who>: cannot open for
  /// write: <path>" when the file cannot be created.
  AtomicOutputFile(std::string path, std::string who);

  /// Removes the temp unless commit() succeeded.
  ~AtomicOutputFile();

  AtomicOutputFile(const AtomicOutputFile&) = delete;
  AtomicOutputFile& operator=(const AtomicOutputFile&) = delete;

  std::ofstream& stream() { return out_; }

  /// Flushes, closes and checks the stream, then renames the temp over the
  /// target. Throws std::runtime_error "<who>: write failed: <path>" (with
  /// the temp removed) if any step fails. Call once.
  void commit();

 private:
  std::string path_;
  std::string who_;
  std::string tempPath_;  ///< Empty when writing in place.
  std::ofstream out_;
  bool committed_ = false;
};

}  // namespace tracered::util
