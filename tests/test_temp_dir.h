/**
 * @file
 * Scratch directories for tests that write files.
 *
 * `ScopedTempDir` creates a fresh directory under ::testing::TempDir()
 * (which honours $TEST_TMPDIR) and removes it, with everything in it,
 * when it goes out of scope — the PackedIo SetUp/TearDown pattern as
 * one RAII object. Fixtures hold one as a member; a process-lifetime
 * fixture's directory goes when the process exits.
 *
 * `temp_path(name)` is the per-test form: the file `name` inside a
 * `ScopedTempDir` owned by the running test, created on first use and
 * removed as soon as the test ends (pass or fail).
 */
#ifndef DARWIN_TESTS_TEST_TEMP_DIR_H
#define DARWIN_TESTS_TEST_TEMP_DIR_H

#include <filesystem>
#include <string>

namespace darwin::testing {

class ScopedTempDir {
  public:
    ScopedTempDir();
    ~ScopedTempDir();

    ScopedTempDir(const ScopedTempDir&) = delete;
    ScopedTempDir& operator=(const ScopedTempDir&) = delete;

    const std::filesystem::path& dir() const { return dir_; }

    /** `name` inside the directory (not created). */
    std::string path(const std::string& name) const;

  private:
    std::filesystem::path dir_;
};

/** `name` inside the running test's own scratch directory. */
std::string temp_path(const std::string& name);

}  // namespace darwin::testing

#endif  // DARWIN_TESTS_TEST_TEMP_DIR_H
