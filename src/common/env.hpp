// Environment-variable overrides for benchmark harness knobs
// (e.g. NARMA_REPS=3 to shorten a sweep). All reads are typed: unset or
// empty keeps the caller's default, and a malformed value is fatal, naming
// the variable, so a typo never silently runs the default. The simulator
// library itself reads only NARMA_CRASH_DIR; every other knob is a field of
// WorldParams or an app config.
#pragma once

#include <limits>
#include <string>

namespace narma::env {

/// An integer in [lo, hi]. A value strtoll saturates, or one outside the
/// range, is fatal like a malformed one, so no knob wraps through a cast.
int get_int(const char* name, int fallback,
            int lo = std::numeric_limits<int>::min(),
            int hi = std::numeric_limits<int>::max());
/// A finite number in (above, at_most]: NaN and infinities are fatal too.
double get_double(const char* name, double fallback,
                  double above = std::numeric_limits<double>::lowest(),
                  double at_most = std::numeric_limits<double>::max());
std::string get_string(const char* name, const std::string& fallback);
bool get_bool(const char* name, bool fallback);

}  // namespace narma::env
