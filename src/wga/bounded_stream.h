/**
 * @file
 * BoundedStream: a fixed-capacity SPSC channel with a spill-or-
 * backpressure overflow policy.
 *
 * Records enter an in-memory window of `capacity` records. What
 * differs is what happens when the window fills while the consumer
 * lags:
 *
 *  - backpressure mode: the producer blocks until the consumer makes
 *    room;
 *  - spill mode: the overflow is appended to an unlinked temp file
 *    (SpillFile) and the producer keeps going. FIFO order is preserved
 *    by a strict regime: once spilling starts, *every* push goes to the
 *    spill until the consumer has drained both the in-memory window and
 *    the spilled backlog, at which point the stream flips back to
 *    in-memory operation and the spill file is recycled.
 *
 * Records move in batches: the producer appends a run of records under
 * one lock (push_all), and a consumer waiting for a batch (pop_batch)
 * is woken only once that batch is ready or the stream closes — not
 * once per record, which would cost a thread wake-up per seed hit.
 *
 * Heap accounting: resident_bytes() is the fixed window plus the spill
 * staging buffers — the stream's residency never grows past that, no
 * matter how many records flow through. The owner charges it against
 * the fault heap budget (run_strand does for a spilling stream).
 * Spilled bytes are bookkept (spilled_items()) but not charged; disk
 * is the escape valve.
 *
 * Strictly single-producer / single-consumer: the strand driver runs
 * seeding on a producer thread and filter/extend on the consumer side.
 * After close() the consumer drains what is left, then sees the end.
 */
#ifndef DARWIN_WGA_BOUNDED_STREAM_H
#define DARWIN_WGA_BOUNDED_STREAM_H

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "wga/spill.h"

namespace darwin::wga {

/** Overflow policy for a BoundedStream. */
enum class OverflowPolicy {
    Backpressure,  ///< block the producer while the window is full
    Spill,         ///< divert overflow to disk, never block
};

template <class T>
class BoundedStream {
    static_assert(std::is_trivially_copyable_v<T>,
                  "spilled records must be memcpy-safe");

  public:
    /**
     * @param capacity      In-memory window (records); 0 means 1.
     * @param policy        What to do when the window is full.
     * @param spill_dir     Spill directory ("" = system temp dir).
     * @param staging       Spill write/read batch (records); bounds the
     *                      two staging buffers in spill mode.
     */
    explicit BoundedStream(std::size_t capacity,
                           OverflowPolicy policy = OverflowPolicy::Spill,
                           std::string spill_dir = "",
                           std::size_t staging = 1024)
        : capacity_(std::max<std::size_t>(1, capacity)), policy_(policy),
          staging_(staging == 0 ? 1 : staging),
          spill_dir_(std::move(spill_dir))
    {
        // Fixed residency: the window plus both staging buffers.
        // Everything past this spills to disk.
        resident_bytes_ = capacity_ * sizeof(T);
        if (policy_ == OverflowPolicy::Spill)
            resident_bytes_ += 2 * staging_ * sizeof(T);
    }

    /** Fixed in-memory footprint of this stream (bytes). */
    std::size_t resident_bytes() const { return resident_bytes_; }

    /**
     * Producer side: append `items` in order. Backpressure mode blocks
     * while the window is full; spill mode never blocks. Returns false
     * once the stream is closed (the rest of `items` is dropped).
     */
    bool
    push_all(std::span<const T> items)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        for (const T& item : items) {
            if (policy_ == OverflowPolicy::Backpressure &&
                window_.size() >= capacity_) {
                ready_.notify_one();  // a full window is a ready batch
                space_.wait(lock, [this] {
                    return closed_ || window_.size() < capacity_;
                });
            }
            if (closed_)
                return false;
            ++pushed_;
            if (!spilling_ && window_.size() < capacity_) {
                window_.push_back(item);
                continue;
            }
            if (!spilling_) {
                spilling_ = true;
                ++spill_episodes_;
            }
            write_buf_.push_back(item);
            ++spilled_;
            ++spill_pending_;
            if (write_buf_.size() >= staging_)
                flush_write_buf();
        }
        if (window_.size() + spill_pending_ >= wanted_)
            ready_.notify_one();
        return true;
    }

    bool push(const T& item) { return push_all({&item, 1}); }

    /**
     * Consumer side: wait until `n` records (at most one window's
     * worth) are ready or the stream is closed, then append up to `n`
     * of them to `out` in FIFO order. False once closed and drained.
     */
    bool
    pop_batch(std::vector<T>* out, std::size_t n)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        wanted_ = std::clamp<std::size_t>(n, 1, capacity_);
        ready_.wait(lock, [this] {
            return closed_ || window_.size() + spill_pending_ >= wanted_;
        });
        const std::size_t before = out->size();
        while (out->size() - before < n && !window_.empty()) {
            out->push_back(window_.front());
            window_.pop_front();
        }
        while (out->size() - before < n && spill_pending_ > 0)
            out->push_back(pop_spilled_locked());
        space_.notify_one();
        return out->size() > before;
    }

    /** One record; nullopt once closed and drained. */
    std::optional<T>
    pop()
    {
        std::vector<T> one;
        if (!pop_batch(&one, 1))
            return std::nullopt;
        return one.front();
    }

    /** Producer is done; consumer drains the backlog then sees the
     *  end. Also unblocks a producer waiting for room. */
    void
    close()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            closed_ = true;
        }
        ready_.notify_all();
        space_.notify_all();
    }

    std::uint64_t pushed() const { return pushed_; }
    std::uint64_t spilled_items() const { return spilled_; }
    std::uint64_t spill_episodes() const { return spill_episodes_; }

  private:
    void
    flush_write_buf()
    {
        if (write_buf_.empty())
            return;
        if (!file_)
            file_ = std::make_unique<SpillFile>(spill_dir_);
        file_->append(write_buf_.data(), write_buf_.size() * sizeof(T));
        write_buf_.clear();
    }

    T
    pop_spilled_locked()
    {
        if (read_pos_ >= read_buf_.size()) {
            // Refill: file records precede anything still staged in the
            // write buffer (appends happen in push order).
            const std::uint64_t file_records = file_ ? file_->size() / sizeof(T)
                                                     : 0;
            if (file_read_ < file_records) {
                const std::uint64_t n = std::min<std::uint64_t>(
                    staging_, file_records - file_read_);
                read_buf_.resize(static_cast<std::size_t>(n));
                file_->read_at(file_read_ * sizeof(T), read_buf_.data(),
                               static_cast<std::size_t>(n) * sizeof(T));
                file_read_ += n;
            } else {
                read_buf_ = std::move(write_buf_);
                write_buf_ = {};
            }
            read_pos_ = 0;
        }
        T item = read_buf_[read_pos_++];
        --spill_pending_;
        if (spill_pending_ == 0) {
            // Backlog drained: recycle the file and return to in-memory
            // operation.
            spilling_ = false;
            read_buf_.clear();
            read_pos_ = 0;
            file_read_ = 0;
            if (file_)
                file_->reset();
        }
        return item;
    }

    std::size_t capacity_;
    OverflowPolicy policy_;
    std::size_t staging_;
    std::string spill_dir_;
    std::size_t resident_bytes_ = 0;

    std::mutex mutex_;  // guards everything below
    std::condition_variable ready_;  // consumer: a batch is ready
    std::condition_variable space_;  // producer: the window has room
    std::deque<T> window_;
    std::size_t wanted_ = 1;  // records the waiting consumer asked for
    bool closed_ = false;
    bool spilling_ = false;
    std::vector<T> write_buf_;
    std::vector<T> read_buf_;
    std::size_t read_pos_ = 0;
    std::uint64_t file_read_ = 0;
    std::unique_ptr<SpillFile> file_;
    std::uint64_t spill_pending_ = 0;
    std::uint64_t pushed_ = 0;
    std::uint64_t spilled_ = 0;
    std::uint64_t spill_episodes_ = 0;
};

}  // namespace darwin::wga

#endif  // DARWIN_WGA_BOUNDED_STREAM_H
