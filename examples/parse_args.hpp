// Checked command-line integers for the examples: a bad argument gets
// a usage line and exit code 2 instead of reaching a precondition the
// library only asserts.
#pragma once

#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace prt::examples {

/// Upper bound on a memory size argument: keeps a typo from turning
/// into a multi-gigabyte universe allocation.
inline constexpr unsigned long kMaxCells = 1UL << 24;

/// Parses a decimal integer in [lo, hi].  strtoul skips whitespace and
/// wraps negatives and overflow instead of failing, so the argument
/// must start with a digit and overflow is caught through errno.
inline bool parse_unsigned(const char* arg, unsigned long lo,
                           unsigned long hi, unsigned long& out) {
  if (std::isdigit(static_cast<unsigned char>(arg[0])) == 0) return false;
  errno = 0;
  char* end = nullptr;
  out = std::strtoul(arg, &end, 10);
  return errno == 0 && *end == '\0' && out >= lo && out <= hi;
}

}  // namespace prt::examples
