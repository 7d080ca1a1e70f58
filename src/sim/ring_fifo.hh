/**
 * @file
 * FIFO queue on a ring buffer that keeps its capacity.
 *
 * The bus and the register fabrics queue elements that carry inline
 * handlers: a bus request holds two (240 bytes), a deferred fabric
 * completion three (368 bytes). std::deque stores such elements one
 * to four per 512-byte node, so most pushes and pops allocate or
 * free a node. RingFifo keeps its elements in one power-of-two ring
 * that grows by doubling and never shrinks, so once it has seen its
 * peak depth a push or pop allocates nothing.
 */

#ifndef PSYNC_SIM_RING_FIFO_HH
#define PSYNC_SIM_RING_FIFO_HH

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

namespace psync {
namespace sim {

/** FIFO of movable elements on a growable ring. */
template <typename T>
class RingFifo
{
  public:
    bool empty() const { return count_ == 0; }
    std::size_t size() const { return count_; }

    /** Append `value` at the back. */
    void
    push(T value)
    {
        if (count_ == ring_.size())
            grow();
        ring_[(head_ + count_) & (ring_.size() - 1)].emplace(
            std::move(value));
        ++count_;
    }

    /**
     * Remove and return the oldest element. Its slot is destroyed
     * here, so nothing the element captured outlives the pop.
     * @pre !empty()
     */
    T
    pop()
    {
        std::optional<T> &slot = ring_[head_];
        T value = std::move(*slot);
        slot.reset();
        head_ = (head_ + 1) & (ring_.size() - 1);
        --count_;
        return value;
    }

  private:
    void
    grow()
    {
        std::vector<std::optional<T>> bigger(
            ring_.empty() ? 8 : 2 * ring_.size());
        for (std::size_t i = 0; i < count_; ++i) {
            bigger[i] =
                std::move(ring_[(head_ + i) & (ring_.size() - 1)]);
        }
        ring_.swap(bigger);
        head_ = 0;
    }

    /** Power-of-two sized; engaged exactly at the live elements. */
    std::vector<std::optional<T>> ring_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
};

} // namespace sim
} // namespace psync

#endif // PSYNC_SIM_RING_FIFO_HH
