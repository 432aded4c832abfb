#include "storage/simulated_disk.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <string>

namespace mbq::storage {

namespace {

std::string ErrnoText(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

/// Opens a read-write file under $TMPDIR (else /tmp) that has no name:
/// O_TMPFILE where the filesystem supports it, else mkstemp followed by
/// unlink. Returns -1 with `*status` set on failure.
int OpenUnlinkedFile(Status* status) {
  const char* env = std::getenv("TMPDIR");
  const std::string dir = env != nullptr && *env != '\0' ? env : "/tmp";
  int fd = ::open(dir.c_str(), O_TMPFILE | O_RDWR | O_CLOEXEC, 0600);
  if (fd >= 0) return fd;
  std::string path = dir + "/mbq-disk-XXXXXX";
  fd = ::mkstemp(path.data());
  if (fd < 0) {
    *status = Status::IoError(ErrnoText("cannot create disk file in " + dir));
    return -1;
  }
  ::unlink(path.c_str());
  return fd;
}

}  // namespace

SimulatedDisk::SimulatedDisk(DiskProfile profile, Clock* clock)
    : profile_(profile), clock_(clock), pending_(new uint8_t[kPageSize]) {
  fd_ = OpenUnlinkedFile(&open_status_);
}

SimulatedDisk::~SimulatedDisk() {
  if (fd_ >= 0) ::close(fd_);
}

PageId SimulatedDisk::AllocatePage() {
  util::ScopedLock lock(mu_);
  return num_pages_++;
}

void SimulatedDisk::Charge(PageId id, uint64_t transfer_nanos) {
  uint64_t nanos = transfer_nanos;
  bool sequential =
      last_page_ != kInvalidPageId &&
      (id >= last_page_ ? id - last_page_ : last_page_ - id) <=
          profile_.sequential_window;
  if (!sequential) {
    nanos += profile_.seek_nanos;
    ++stats_.seeks;
  }
  last_page_ = id;
  stats_.busy_nanos += nanos;
  clock_->AdvanceNanos(nanos);
}

Status SimulatedDisk::CheckFailure() {
  if (failing_) return Status::IoError("injected disk failure");
  if (fail_after_ == 0) {
    failing_ = true;
    return Status::IoError("injected disk failure");
  }
  if (fail_after_ != UINT64_MAX) --fail_after_;
  return Status::OK();
}

Status SimulatedDisk::FlushPending() {
  if (pending_id_ == kInvalidPageId) return Status::OK();
  const PageId id = pending_id_;
  pending_id_ = kInvalidPageId;
  size_t done = 0;
  while (done < kPageSize) {
    ssize_t n = ::pwrite(fd_, pending_.get() + done, kPageSize - done,
                         static_cast<off_t>(id * kPageSize + done));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return Status::IoError(ErrnoText("disk write"));
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status SimulatedDisk::ReadPage(PageId id, uint8_t* out) {
  util::ScopedLock lock(mu_);
  MBQ_RETURN_IF_ERROR(CheckFailure());
  if (id >= num_pages_) {
    return Status::OutOfRange("read past end of disk: page " +
                              std::to_string(id));
  }
  MBQ_RETURN_IF_ERROR(open_status_);
  size_t done = 0;
  if (id == pending_id_) {
    std::memcpy(out, pending_.get(), kPageSize);
    done = kPageSize;
  }
  while (done < kPageSize) {
    ssize_t n = ::pread(fd_, out + done, kPageSize - done,
                        static_cast<off_t>(id * kPageSize + done));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return Status::IoError(ErrnoText("disk read"));
    if (n == 0) break;  // past the end of the file: never written
    done += static_cast<size_t>(n);
  }
  std::memset(out + done, 0, kPageSize - done);
  Charge(id, profile_.read_page_nanos);
  ++stats_.page_reads;
  return Status::OK();
}

Status SimulatedDisk::WritePage(PageId id, const uint8_t* data) {
  util::ScopedLock lock(mu_);
  MBQ_RETURN_IF_ERROR(CheckFailure());
  if (id >= num_pages_) {
    return Status::OutOfRange("write past end of disk: page " +
                              std::to_string(id));
  }
  MBQ_RETURN_IF_ERROR(open_status_);
  if (id != pending_id_) MBQ_RETURN_IF_ERROR(FlushPending());
  std::memcpy(pending_.get(), data, kPageSize);
  pending_id_ = id;
  Charge(id, profile_.write_page_nanos);
  ++stats_.page_writes;
  return Status::OK();
}

}  // namespace mbq::storage
