/**
 * @file
 * Bounded MPMC submission queue for the Doacross runtime service.
 *
 * The lock-free fast path is the classic bounded array queue with
 * per-cell sequence numbers (Vyukov's design, the same shape the
 * scalable-synchronization literature uses for combiner mailboxes):
 * producers and consumers each claim a position with one CAS on
 * their own cursor, then hand the cell over by bumping its sequence
 * — no producer ever contends with a consumer on the same word, so
 * sustained submission traffic does not serialize on one lock.
 *
 * Blocking push/pop add a parking layer in the style of the native
 * fabric's waiter handshake: a would-be sleeper publishes itself in
 * a seq_cst waiter count and re-checks the queue before sleeping,
 * the opposite side notifies (locklessly — see notifyPop) only when
 * the count says someone may be parked, and every sleep is a
 * bounded slice so even a lost race costs microseconds. close()
 * wakes everyone; pop drains remaining elements and then reports
 * closed.
 */

#ifndef PSYNC_SERVE_MPMC_QUEUE_HH
#define PSYNC_SERVE_MPMC_QUEUE_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>

namespace psync {
namespace serve {

template <typename T>
class MpmcQueue
{
  public:
    /** Capacity is rounded up to a power of two (min 2). */
    explicit MpmcQueue(std::size_t capacity)
    {
        std::size_t cap = 2;
        while (cap < capacity)
            cap <<= 1;
        mask_ = cap - 1;
        cells_ = std::make_unique<Cell[]>(cap);
        for (std::size_t i = 0; i < cap; ++i)
            cells_[i].seq.store(i, std::memory_order_relaxed);
    }

    std::size_t capacity() const { return mask_ + 1; }

    /** Non-blocking enqueue; false when full or closed. */
    bool
    tryPush(T value)
    {
        if (closed())
            return false;
        Cell *cell;
        std::size_t pos = tail_.load(std::memory_order_relaxed);
        for (;;) {
            cell = &cells_[pos & mask_];
            std::size_t seq =
                cell->seq.load(std::memory_order_acquire);
            auto dif = static_cast<std::intptr_t>(seq) -
                       static_cast<std::intptr_t>(pos);
            if (dif == 0) {
                if (tail_.compare_exchange_weak(
                        pos, pos + 1, std::memory_order_relaxed))
                    break;
            } else if (dif < 0) {
                return false; // full
            } else {
                pos = tail_.load(std::memory_order_relaxed);
            }
        }
        cell->value = std::move(value);
        cell->seq.store(pos + 1, std::memory_order_release);
        notifyPop();
        return true;
    }

    /** Non-blocking dequeue; false when empty. */
    bool
    tryPop(T &out)
    {
        Cell *cell;
        std::size_t pos = head_.load(std::memory_order_relaxed);
        for (;;) {
            cell = &cells_[pos & mask_];
            std::size_t seq =
                cell->seq.load(std::memory_order_acquire);
            auto dif = static_cast<std::intptr_t>(seq) -
                       static_cast<std::intptr_t>(pos + 1);
            if (dif == 0) {
                if (head_.compare_exchange_weak(
                        pos, pos + 1, std::memory_order_relaxed))
                    break;
            } else if (dif < 0) {
                return false; // empty
            } else {
                pos = head_.load(std::memory_order_relaxed);
            }
        }
        out = std::move(cell->value);
        cell->seq.store(pos + mask_ + 1,
                        std::memory_order_release);
        notifyPush();
        return true;
    }

    /** Blocking enqueue; false only if the queue is closed. */
    bool
    push(T value)
    {
        if (tryPush(value))
            return true;
        std::unique_lock<std::mutex> lk(pushMutex_);
        pushWaiters_.fetch_add(1, std::memory_order_seq_cst);
        bool ok = false;
        for (;;) {
            if (tryPush(value)) {
                ok = true;
                break;
            }
            if (closed())
                break;
            pushCv_.wait_for(lk, kParkSlice);
        }
        pushWaiters_.fetch_sub(1, std::memory_order_seq_cst);
        return ok;
    }

    /**
     * Blocking dequeue; false once the queue is closed *and*
     * drained (remaining elements are still delivered after
     * close()).
     */
    bool
    pop(T &out)
    {
        for (;;) {
            int r = popFor(out, kParkSlice * 8);
            if (r > 0)
                return true;
            if (r < 0)
                return false;
        }
    }

    /**
     * Dequeue with a timeout: 1 = got an element, 0 = timed out,
     * -1 = closed and drained. pop() is this in a loop that
     * retries on 0.
     */
    template <typename Rep, typename Period>
    int
    popFor(T &out, std::chrono::duration<Rep, Period> budget)
    {
        if (tryPop(out))
            return 1;
        auto deadline = std::chrono::steady_clock::now() + budget;
        std::unique_lock<std::mutex> lk(popMutex_);
        popWaiters_.fetch_add(1, std::memory_order_seq_cst);
        int r = 0;
        for (;;) {
            if (tryPop(out)) {
                r = 1;
                break;
            }
            if (closed()) {
                // Closed and the tryPop above found nothing:
                // drained.
                r = -1;
                break;
            }
            auto now = std::chrono::steady_clock::now();
            if (now >= deadline)
                break;
            popCv_.wait_for(
                lk, std::min<std::chrono::steady_clock::duration>(
                        kParkSlice, deadline - now));
        }
        popWaiters_.fetch_sub(1, std::memory_order_seq_cst);
        return r;
    }

    /** Wake everyone; pushes start failing, pops drain then stop. */
    void
    close()
    {
        closed_.store(true, std::memory_order_seq_cst);
        {
            std::lock_guard<std::mutex> lk(pushMutex_);
        }
        pushCv_.notify_all();
        {
            std::lock_guard<std::mutex> lk(popMutex_);
        }
        popCv_.notify_all();
    }

    bool
    closed() const
    {
        return closed_.load(std::memory_order_seq_cst);
    }

  private:
    struct Cell
    {
        std::atomic<std::size_t> seq{0};
        T value{};
    };

    static constexpr auto kParkSlice =
        std::chrono::microseconds(250);

    /*
     * The notify paths deliberately do NOT take the waiter's mutex:
     * tryPush runs inside push() holding pushMutex_ and tryPop runs
     * inside popFor() holding popMutex_, so a locked notify would be
     * a classic lock-order inversion (pusher holds pushMutex_ wants
     * popMutex_, popper the reverse) — a hard deadlock. The cost is
     * that a notify can race a waiter between its recheck and its
     * wait and get lost; the bounded kParkSlice sleep turns that
     * lost wake into a ≤250µs stall instead of a hang.
     */
    void
    notifyPop()
    {
        if (popWaiters_.load(std::memory_order_seq_cst) != 0)
            popCv_.notify_one();
    }

    void
    notifyPush()
    {
        if (pushWaiters_.load(std::memory_order_seq_cst) != 0)
            pushCv_.notify_one();
    }

    std::unique_ptr<Cell[]> cells_;
    std::size_t mask_ = 0;
    /** Enqueue cursor. */
    std::atomic<std::size_t> tail_{0};
    /** Dequeue cursor. */
    std::atomic<std::size_t> head_{0};
    std::atomic<bool> closed_{false};

    std::mutex pushMutex_, popMutex_;
    std::condition_variable pushCv_, popCv_;
    std::atomic<unsigned> pushWaiters_{0}, popWaiters_{0};
};

} // namespace serve
} // namespace psync

#endif // PSYNC_SERVE_MPMC_QUEUE_HH
