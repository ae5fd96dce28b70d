#include "support/buildinfo.hpp"

#include "support/serial.hpp"

// The build system passes these through target_compile_definitions; the
// fallbacks keep non-CMake builds (e.g. single-file syntax checks)
// compiling.
#ifndef FGPAR_VERSION
#define FGPAR_VERSION "0.0.0-dev"
#endif
#ifndef FGPAR_BUILD_TYPE
#define FGPAR_BUILD_TYPE "unknown"
#endif
#ifndef FGPAR_COMPILER
#define FGPAR_COMPILER "unknown"
#endif

namespace fgpar {

const std::string& BuildVersion() {
  static const std::string version = FGPAR_VERSION;
  return version;
}

const std::string& BuildVersionString() {
  static const std::string line = std::string("fgpar ") + FGPAR_VERSION +
                                  " (" FGPAR_COMPILER ", " FGPAR_BUILD_TYPE
                                  ", c++20)";
  return line;
}

std::uint64_t BuildConfigHash() {
  static const std::uint64_t hash = Fnv1a64(BuildVersionString());
  return hash;
}

std::string BuildConfigHashHex() { return Hex64(BuildConfigHash()); }

}  // namespace fgpar
