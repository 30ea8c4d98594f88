/**
 * @file
 * Cooperative cancellation and per-pair execution budgets.
 *
 * A CancelToken carries the budgets of one unit of work (in the batch
 * engine: one manifest pair) — a wall-clock deadline, a cap on DP cells
 * computed, and a cap on the estimated transient heap bytes. The token
 * is *cooperative*: long-running code calls fault::poll("probe.name") at
 * natural outer-loop boundaries (a GACT-X stripe, a D-SOFT chunk, a
 * filter tile) and the poll throws CancelledError once any budget is
 * exceeded or the token was cancelled externally.
 *
 * Tokens are installed per thread with a ContextScope; code below the
 * scope (stages, kernel façades, the GACT-X stripe loops) polls through
 * the free functions without ever threading a token through its
 * signatures. When no scope is installed — the serial pipeline, tests,
 * benches — poll() is one thread-local load and a branch, and results
 * are bit-identical either way: polling never alters any computation,
 * it can only abandon one.
 *
 * The module also owns the process-wide shutdown flag the CLIs' signal
 * handlers set (async-signal-safe); the batch engine treats a requested
 * shutdown as an external cancellation of every in-flight pair.
 */
#ifndef DARWIN_FAULT_CANCEL_H
#define DARWIN_FAULT_CANCEL_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

namespace darwin::fault {

/** Why a token stopped the work. */
enum class CancelReason : int {
    None = 0,
    WallTime,   ///< wall-clock deadline passed
    Cells,      ///< DP cell budget exhausted
    HeapBytes,  ///< estimated heap budget exhausted
    External,   ///< cancel() — shutdown or the pair failed elsewhere
};

/** Lowercase stable name ("walltime", "cells", ...). */
const char* cancel_reason_name(CancelReason reason);

/** Budgets for one unit of work; 0 means unlimited for each axis. */
struct Budget {
    double wall_seconds = 0.0;
    std::uint64_t max_cells = 0;
    std::uint64_t max_heap_bytes = 0;

    bool
    unlimited() const
    {
        return wall_seconds <= 0.0 && max_cells == 0 && max_heap_bytes == 0;
    }
};

/** Thrown by poll() when a budget is exceeded or cancel() was called. */
class CancelledError : public std::runtime_error {
  public:
    CancelledError(CancelReason reason, std::string probe,
                   const std::string& message)
        : std::runtime_error(message), reason_(reason),
          probe_(std::move(probe))
    {
    }

    CancelReason reason() const { return reason_; }

    /** The probe point that observed the overrun. */
    const std::string& probe() const { return probe_; }

  private:
    CancelReason reason_;
    std::string probe_;
};

/**
 * One unit of work's budgets plus its accumulated charges. All methods
 * are thread-safe; arm() must not race with charges (the batch engine
 * arms a pair's token only while no task of that pair is running).
 */
class CancelToken {
  public:
    /** Reset charges, clear any cancellation, and start the budgets
     *  (the wall deadline counts from now). */
    void arm(const Budget& budget);

    /** External cancellation; sticky until the next arm(). Works on
     *  unarmed tokens too (reason External or stronger wins first). */
    void cancel(CancelReason reason);

    void
    charge_cells(std::uint64_t n)
    {
        cells_.fetch_add(n, std::memory_order_relaxed);
    }

    void
    charge_heap_bytes(std::uint64_t n)
    {
        heap_bytes_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t
    cells_charged() const
    {
        return cells_.load(std::memory_order_relaxed);
    }

    std::uint64_t
    heap_bytes_charged() const
    {
        return heap_bytes_.load(std::memory_order_relaxed);
    }

    bool
    armed() const
    {
        return armed_.load(std::memory_order_acquire);
    }

    /** Non-throwing check: the first exceeded budget (cancellation
     *  first), or None. */
    CancelReason exceeded() const;

    /** Throw CancelledError when exceeded() != None. */
    void poll(const char* probe) const;

  private:
    Budget budget_;
    std::chrono::steady_clock::time_point deadline_{};
    std::atomic<bool> armed_{false};
    std::atomic<std::uint64_t> cells_{0};
    std::atomic<std::uint64_t> heap_bytes_{0};
    std::atomic<int> cancelled_{static_cast<int>(CancelReason::None)};
};

/** Pair index reported to probes when no scope is installed. */
inline constexpr std::size_t kNoPair =
    std::numeric_limits<std::size_t>::max();

/**
 * RAII installation of the calling thread's (token, pair index) context.
 * Nests: the previous context is restored on destruction.
 */
class ContextScope {
  public:
    ContextScope(CancelToken* token, std::size_t pair_index);
    ~ContextScope();

    ContextScope(const ContextScope&) = delete;
    ContextScope& operator=(const ContextScope&) = delete;

  private:
    CancelToken* prev_token_;
    std::size_t prev_pair_;
};

/** The calling thread's installed token (nullptr outside any scope). */
CancelToken* current_token();

/** The calling thread's pair index (kNoPair outside any scope). */
std::size_t current_pair();

/**
 * The probe call sites use. In order: fires the installed FaultPlan's
 * matching injected faults (fault_plan.h), then polls the thread's
 * CancelToken. A no-op costing two atomic/TLS loads when neither is
 * installed, so probes can live in library hot loops unconditionally.
 */
void poll(const char* probe);

/** Charge the thread's token (no-op without a scope). */
void charge_cells(std::uint64_t n);
void charge_heap_bytes(std::uint64_t n);

/**
 * Process-wide shutdown flag. request_shutdown() is async-signal-safe;
 * the batch engine observes it between tasks and cancels every pair's
 * token, and the CLIs flush observability state before exiting.
 */
void request_shutdown();
void clear_shutdown();
bool shutdown_requested();

}  // namespace darwin::fault

#endif  // DARWIN_FAULT_CANCEL_H
