// Checked file output: the one place the library writes a file.
//
// Every function returns an empty string on success and otherwise one
// diagnostic line that names the path and the OS reason, so a caller can
// report the failure without inspecting errno itself.
#pragma once

#include <string>
#include <string_view>

namespace narma::file {

/// Creates `dir` and any missing parents; an existing directory is fine.
std::string make_dirs(const std::string& dir);

/// Replaces the contents of `path` with `data`. fopen, fwrite and fclose
/// are each checked, so a full disk surfaces even when only the final
/// flush fails.
std::string write(const std::string& path, std::string_view data);

}  // namespace narma::file
