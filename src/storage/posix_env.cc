#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <mutex>

#include "storage/env.h"

namespace tpcp {
namespace {

namespace fs = std::filesystem;

class PosixEnv : public Env {
 public:
  explicit PosixEnv(std::string root) : root_(std::move(root)) {
    std::error_code ec;
    fs::create_directories(root_, ec);
  }

  Status WriteFile(const std::string& name, const std::string& data) override {
    const fs::path path = Resolve(name);
    const int flags = O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC;
    int fd = ::open(path.c_str(), flags, 0644);
    if (fd < 0 && errno == ENOENT) {
      // Only a missing directory makes open fail this way; create it once.
      std::error_code ec;
      fs::create_directories(path.parent_path(), ec);
      fd = ::open(path.c_str(), flags, 0644);
    }
    if (fd < 0) {
      return Status::IOError("open for write failed: " + path.string() + ": " +
                             std::strerror(errno));
    }
    const bool written =
        Transfer(data.size(), [&](size_t done) {
          return ::write(fd, data.data() + done, data.size() - done);
        }) == data.size();
    const int close_rc = ::close(fd);
    if (!written || close_rc != 0) {
      return Status::IOError("short write: " + path.string());
    }
    stats_.RecordWrite(data.size());
    return Status::OK();
  }

  Status ReadFile(const std::string& name, std::string* out) override {
    const fs::path path = Resolve(name);
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      return Status::NotFound("no such file: " + path.string());
    }
    struct stat st;
    if (::fstat(fd, &st) != 0) {
      ::close(fd);
      return Status::IOError("fstat failed: " + path.string());
    }
    out->resize(static_cast<size_t>(st.st_size));
    const size_t read = Transfer(out->size(), [&](size_t done) {
      return ::read(fd, out->data() + done, out->size() - done);
    });
    ::close(fd);
    if (read != out->size()) {
      return Status::IOError("short read: " + path.string());
    }
    stats_.RecordRead(out->size());
    return Status::OK();
  }

  bool FileExists(const std::string& name) override {
    std::error_code ec;
    return fs::exists(Resolve(name), ec);
  }

  Status DeleteFile(const std::string& name) override {
    std::error_code ec;
    if (!fs::remove(Resolve(name), ec)) {
      return Status::NotFound("no such file: " + name);
    }
    return Status::OK();
  }

  Result<uint64_t> FileSize(const std::string& name) override {
    std::error_code ec;
    const auto size = fs::file_size(Resolve(name), ec);
    if (ec) return Status::NotFound("no such file: " + name);
    return static_cast<uint64_t>(size);
  }

  std::vector<std::string> ListFiles(const std::string& prefix) override {
    std::vector<std::string> out;
    std::error_code ec;
    for (auto it = fs::recursive_directory_iterator(root_, ec);
         !ec && it != fs::recursive_directory_iterator(); ++it) {
      if (!it->is_regular_file(ec)) continue;
      std::string rel =
          fs::relative(it->path(), root_, ec).generic_string();
      if (rel.compare(0, prefix.size(), prefix) == 0) {
        out.push_back(std::move(rel));
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  fs::path Resolve(const std::string& name) const {
    return fs::path(root_) / name;
  }

  // Calls op(bytes_done) (one read or write syscall) until `size` bytes
  // moved, retrying partial transfers and EINTR; returns the bytes moved
  // before EOF or an error.
  template <typename Op>
  static size_t Transfer(size_t size, Op op) {
    size_t done = 0;
    while (done < size) {
      const ssize_t n = op(done);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      done += static_cast<size_t>(n);
    }
    return done;
  }

  std::string root_;
};

}  // namespace

std::unique_ptr<Env> NewPosixEnv(const std::string& root_dir) {
  return std::make_unique<PosixEnv>(root_dir);
}

}  // namespace tpcp
