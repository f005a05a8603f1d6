#include "common/file.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>

namespace narma::file {

std::string make_dirs(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (!ec && !std::filesystem::is_directory(dir, ec))
    ec = std::make_error_code(std::errc::not_a_directory);
  return ec ? dir + ": " + ec.message() : std::string();
}

std::string write(const std::string& path, std::string_view data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return path + ": " + std::strerror(errno);
  // A failed stream call may leave errno 0; report it as an I/O error.
  int err = 0;
  if (std::fwrite(data.data(), 1, data.size(), f) != data.size())
    err = errno ? errno : EIO;
  if (std::fclose(f) != 0 && !err) err = errno ? errno : EIO;
  return err ? path + ": " + std::strerror(err) : std::string();
}

}  // namespace narma::file
