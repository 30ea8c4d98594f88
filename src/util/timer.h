/**
 * @file
 * Wall-clock and thread CPU timing helpers used by the pipelines and
 * bench harnesses.
 */
#ifndef DARWIN_UTIL_TIMER_H
#define DARWIN_UTIL_TIMER_H

#include <chrono>
#include <ctime>

namespace darwin {

/** Monotonic stopwatch; starts on construction. */
class Timer {
  public:
    Timer() : start_(Clock::now()) {}

    /** Restart the stopwatch. */
    void reset() { start_ = Clock::now(); }

    /** Elapsed seconds since construction or the last reset(). */
    double
    seconds() const
    {
        const auto dt = Clock::now() - start_;
        return std::chrono::duration<double>(dt).count();
    }

    /** Elapsed milliseconds. */
    double milliseconds() const { return seconds() * 1e3; }

  private:
    using Clock = std::chrono::steady_clock;
    Clock::time_point start_;
};

/** CPU seconds the calling thread has run: work time that, unlike a
 *  stopwatch, excludes waits and preemption. */
inline double
thread_cpu_seconds()
{
    timespec now{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
    return static_cast<double>(now.tv_sec) + now.tv_nsec * 1e-9;
}

}  // namespace darwin

#endif  // DARWIN_UTIL_TIMER_H
