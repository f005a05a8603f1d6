#include "common/env.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "common/fatal.hpp"

namespace narma::env {

namespace {

/// Aborts on a malformed value, naming the variable and what it accepts.
[[noreturn]] void bad_value(const char* name, const char* v,
                            const char* expected) {
  fatal_error(std::string(name) + "=" + v + ": expected " + expected);
}

}  // namespace

int get_int(const char* name, int fallback, int lo, int hi) {
  const char* v = std::getenv(name);
  if (!v || !*v) return fallback;
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(v, &end, 10);
  if (*end != '\0') bad_value(name, v, "an integer");
  if (errno == ERANGE || parsed < lo || parsed > hi)
    bad_value(name, v,
              ("an integer in [" + std::to_string(lo) + ", " +
               std::to_string(hi) + "]")
                  .c_str());
  return static_cast<int>(parsed);
}

double get_double(const char* name, double fallback, double above,
                  double at_most) {
  const char* v = std::getenv(name);
  if (!v || !*v) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  if (*end != '\0') bad_value(name, v, "a number");
  if (!std::isfinite(parsed) || !(parsed > above && parsed <= at_most)) {
    std::ostringstream os;
    os << "a finite number";
    if (above != std::numeric_limits<double>::lowest() ||
        at_most != std::numeric_limits<double>::max())
      os << " in (" << above << ", " << at_most << "]";
    bad_value(name, v, os.str().c_str());
  }
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
