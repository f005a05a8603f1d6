#include "common/env.hpp"

#include <cstdlib>

#include "common/fatal.hpp"

namespace narma::env {

namespace {

/// Aborts on a malformed value, naming the variable and what it accepts.
[[noreturn]] void bad_value(const char* name, const char* v,
                            const char* expected) {
  fatal_error(std::string(name) + "=" + v + ": expected " + expected);
}

}  // namespace

std::int64_t get_int(const char* name, std::int64_t fallback) {
  const char* v = std::getenv(name);
  if (!v || !*v) return fallback;
  char* end = nullptr;
  const long long parsed = std::strtoll(v, &end, 10);
  if (*end != '\0') bad_value(name, v, "an integer");
  return parsed;
}

double get_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (!v || !*v) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  if (*end != '\0') bad_value(name, v, "a number");
  return parsed;
}

std::string get_string(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  return (v && *v) ? std::string(v) : fallback;
}

bool get_bool(const char* name, bool fallback) {
  const char* v = std::getenv(name);
  if (!v || !*v) return fallback;
  const std::string s(v);
  if (s == "1" || s == "true" || s == "yes" || s == "on") return true;
  if (s == "0" || s == "false" || s == "no" || s == "off") return false;
  bad_value(name, v, "one of 1|true|yes|on|0|false|no|off");
}

}  // namespace narma::env
