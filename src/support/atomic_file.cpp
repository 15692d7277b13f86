#include "support/atomic_file.hpp"

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace support {

std::string atomic_temp_path(const std::string& path) {
  return path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
}

void commit_file(const std::string& temp_path, const std::string& final_path) {
  if (std::rename(temp_path.c_str(), final_path.c_str()) != 0) {
    throw std::runtime_error("atomic_file: rename " + temp_path + " -> " + final_path +
                             " failed: " + std::strerror(errno));
  }
}

void write_file_atomic(const std::string& path, std::initializer_list<std::string_view> parts) {
  const std::string tmp = atomic_temp_path(path);
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    throw std::runtime_error("atomic_file: cannot open " + tmp + " for writing");
  }
  bool written = true;
  for (const std::string_view part : parts) {
    written = written && std::fwrite(part.data(), 1, part.size(), f) == part.size();
  }
  written = written && std::fflush(f) == 0 && ::fsync(fileno(f)) == 0;
  const bool closed = std::fclose(f) == 0;
  if (!written || !closed) {
    std::remove(tmp.c_str());
    throw std::runtime_error("atomic_file: short write to " + tmp);
  }
  commit_file(tmp, path);
}

}  // namespace support
