#include "stcomp/store/durable_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

namespace stcomp {

namespace {

std::string ErrnoMessage(std::string_view what, const std::string& path) {
  return std::string(what) + " " + path + ": " + std::strerror(errno);
}

std::string DirectoryOf(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) {
    return ".";
  }
  return slash == 0 ? "/" : path.substr(0, slash);
}

Status FsyncPath(const std::string& path, bool directory) {
  const int flags = directory ? O_RDONLY | O_DIRECTORY : O_RDONLY;
  const int fd = ::open(path.c_str(), flags);
  if (fd < 0) {
    return IoError(ErrnoMessage("cannot open for fsync", path));
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return IoError(ErrnoMessage("fsync failed for", path));
  }
  return Status::Ok();
}

}  // namespace

Status FaultableWriteFd(int fd, std::string_view bytes,
                        const WriteFaultHook& hook, size_t* boundary,
                        const std::string& path) {
  WriteFault fault;
  if (hook) {
    fault = hook((*boundary)++, bytes);
  } else {
    ++*boundary;
  }
  std::string_view to_write = bytes;
  std::string torn;
  switch (fault.action) {
    case WriteFault::Action::kProceed:
      break;
    case WriteFault::Action::kCrash:
      return UnavailableError("injected crash before write to " + path);
    case WriteFault::Action::kShortWrite:
      to_write = bytes.substr(0, std::min(fault.keep_bytes, bytes.size()));
      break;
    case WriteFault::Action::kTornWrite:
      torn = std::string(bytes.substr(0, std::min(fault.keep_bytes,
                                                  bytes.size())));
      torn += fault.garbage;
      to_write = torn;
      break;
  }
  size_t written = 0;
  while (written < to_write.size()) {
    const ssize_t n = ::write(fd, to_write.data() + written,
                              to_write.size() - written);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return IoError(ErrnoMessage("write failed for", path));
    }
    written += static_cast<size_t>(n);
  }
  if (fault.action != WriteFault::Action::kProceed) {
    return UnavailableError("injected crash during write to " + path);
  }
  return Status::Ok();
}

Status FaultPoint(const WriteFaultHook& hook, size_t* boundary,
                  std::string_view what) {
  if (hook) {
    const WriteFault fault = hook((*boundary)++, std::string_view());
    if (fault.action != WriteFault::Action::kProceed) {
      return UnavailableError("injected crash before " + std::string(what));
    }
  } else {
    ++*boundary;
  }
  return Status::Ok();
}

Status AtomicWriteFile(const std::string& path, std::string_view contents) {
  size_t boundary = 0;
  return AtomicWriteFile(path, contents, WriteFaultHook(), &boundary);
}

Status AtomicWriteFile(const std::string& path, std::string_view contents,
                       const WriteFaultHook& hook, size_t* boundary) {
  size_t local_boundary = 0;
  if (boundary == nullptr) {
    boundary = &local_boundary;
  }
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return IoError(ErrnoMessage("cannot open", tmp));
  }
  Status status = FaultableWriteFd(fd, contents, hook, boundary, tmp);
  if (status.ok() && ::fsync(fd) != 0) {
    status = IoError(ErrnoMessage("fsync failed for", tmp));
  }
  if (::close(fd) != 0 && status.ok()) {
    status = IoError(ErrnoMessage("close failed for", tmp));
  }
  if (!status.ok()) {
    // A dead or failed temp write never disturbs the committed file; the
    // leftover .tmp is exactly what a crashed process would leave.
    return status;
  }
  STCOMP_RETURN_IF_ERROR(FaultPoint(hook, boundary, "rename of " + tmp));
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return IoError(ErrnoMessage("rename failed for", tmp));
  }
  // Make the rename itself durable; without this a crash can roll the
  // directory entry back to the old file.
  return FsyncPath(DirectoryOf(path), /*directory=*/true);
}

Result<std::string> ReadFileToString(const std::string& path) {
  int fd;
  do {
    fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    return IoError("cannot open " + path);
  }
  // One read(2) into a string sized from fstat, then on to EOF through a
  // small buffer, so a file that grew since the fstat still comes back
  // whole and one that did not costs no copy.
  std::string contents;
  struct stat info;
  if (::fstat(fd, &info) == 0 && info.st_size > 0) {
    contents.resize(static_cast<size_t>(info.st_size));
  }
  size_t filled = 0;
  char tail[4096];
  while (true) {
    const bool sized = filled < contents.size();
    const ssize_t n =
        sized ? ::read(fd, contents.data() + filled, contents.size() - filled)
              : ::read(fd, tail, sizeof(tail));
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      ::close(fd);
      if (n < 0) {
        return IoError("read failed for " + path);
      }
      contents.resize(filled);
      return contents;
    }
    if (!sized) {
      contents.append(tail, static_cast<size_t>(n));
    }
    filled += static_cast<size_t>(n);
  }
}

}  // namespace stcomp
