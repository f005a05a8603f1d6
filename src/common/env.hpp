// Environment-variable overrides for benchmark harness knobs
// (e.g. NARMA_REPS=3 to shorten a sweep). All reads are typed: unset or
// empty keeps the caller's default, and a malformed value is fatal, naming
// the variable, so a typo never silently runs the default. The simulator
// library itself reads only NARMA_CRASH_DIR; every other knob is a field of
// WorldParams or an app config.
#pragma once

#include <cstdint>
#include <string>

namespace narma::env {

std::int64_t get_int(const char* name, std::int64_t fallback);
double get_double(const char* name, double fallback);
std::string get_string(const char* name, const std::string& fallback);
bool get_bool(const char* name, bool fallback);

}  // namespace narma::env
