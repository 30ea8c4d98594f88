#include "test_temp_dir.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <optional>
#include <system_error>

namespace darwin::testing {

ScopedTempDir::ScopedTempDir()
{
    // pid + per-process counter: unique across the parallel ctest
    // processes, and short enough for AF_UNIX socket paths inside.
    static std::atomic<unsigned> counter{0};
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("darwin_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter++));
    std::filesystem::create_directories(dir_);
}

ScopedTempDir::~ScopedTempDir()
{
    std::error_code ec;  // never throw from a destructor
    std::filesystem::remove_all(dir_, ec);
}

std::string
ScopedTempDir::path(const std::string& name) const
{
    return (dir_ / name).string();
}

namespace {

/** Owns the running test's directory; drops it when the test ends. */
class PerTestDir : public ::testing::EmptyTestEventListener {
  public:
    void OnTestEnd(const ::testing::TestInfo&) override { dir.reset(); }

    std::optional<ScopedTempDir> dir;
};

PerTestDir&
per_test_dir()
{
    // gtest owns (and deletes) appended listeners.
    static PerTestDir* const listener = [] {
        auto* created = new PerTestDir;
        ::testing::UnitTest::GetInstance()->listeners().Append(created);
        return created;
    }();
    return *listener;
}

}  // namespace

std::string
temp_path(const std::string& name)
{
    std::optional<ScopedTempDir>& dir = per_test_dir().dir;
    if (!dir)
        dir.emplace();
    return dir->path(name);
}

}  // namespace darwin::testing
