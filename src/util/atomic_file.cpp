#include "util/atomic_file.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <system_error>
#include <utility>

namespace tracered::util {

namespace {

/// Unique among the process's live temps and, through the pid, among
/// concurrent processes writing the same target.
std::string tempPathFor(const std::string& path) {
  static std::atomic<unsigned long> counter{0};
  return path + ".tmp." + std::to_string(::getpid()) + "." +
         std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
}

}  // namespace

AtomicOutputFile::AtomicOutputFile(std::string path, std::string who)
    : path_(std::move(path)), who_(std::move(who)) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::file_status status = fs::symlink_status(path_, ec);
  if (fs::exists(status) && !fs::is_regular_file(status)) {
    out_.open(path_, std::ios::binary);
  } else {
    tempPath_ = tempPathFor(path_);
    out_.open(tempPath_, std::ios::binary | std::ios::trunc);
  }
  if (!out_) throw std::runtime_error(who_ + ": cannot open for write: " + path_);
}

AtomicOutputFile::~AtomicOutputFile() {
  if (committed_ || tempPath_.empty()) return;
  out_.close();
  std::remove(tempPath_.c_str());
}

void AtomicOutputFile::commit() {
  out_.flush();
  out_.close();  // sets failbit if the final write-back fails
  const bool ok = out_ && (tempPath_.empty() ||
                           std::rename(tempPath_.c_str(), path_.c_str()) == 0);
  if (!ok) {
    if (!tempPath_.empty()) std::remove(tempPath_.c_str());
    throw std::runtime_error(who_ + ": write failed: " + path_);
  }
  committed_ = true;
}

}  // namespace tracered::util
