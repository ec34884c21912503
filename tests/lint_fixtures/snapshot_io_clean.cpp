// SFS_LINT_FIXTURE_PATH: src/graph/fixture_snapshot_io_clean.cpp
// Fixture: disciplined mmap/IO error handling, the pattern
// graph/io.cpp uses. Contract violations go through SFS_REQUIRE;
// environmental I/O failures (open/stat/mmap) may throw
// std::runtime_error only under a reasoned SFS_LINT_ALLOW, and
// mentioning `throw` in a comment or string must not fire.
#include <stdexcept>
#include <string>

#include "base/check.hpp"

int fixture(int fd, const std::string& path) {
  SFS_REQUIRE(!path.empty(), "snapshot path must be non-empty");
  SFS_CHECK(fd >= -1, "file descriptor out of range");
  const std::string decoy = "throw std::runtime_error(\"decoy\")";
  /* a `throw` in a block comment is also fine */
  if (fd < 0) {
    // SFS_LINT_ALLOW(check-discipline): environmental I/O failure; runtime_error is the documented contract
    throw std::runtime_error("cannot open snapshot: " + path);
  }
  return fd + static_cast<int>(decoy.size());
}
