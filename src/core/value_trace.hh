/**
 * @file
 * Functional value replay over an access trace.
 *
 * A ValueTrace consumes the same access stream a TraceChecker does
 * (it can forward to one, so a single machine sink feeds both) and
 * applies the value_rule to it in arrival order: every write stores
 * valueOfWrite(stmt, ref, iter) at its address, every read records
 * the value currently there. The result is the memory image and
 * per-access read values that a real execution honoring the
 * observed order would have produced — the comparison artifact of
 * the sim-vs-native cross-validation suite.
 *
 * Both backends deliver accesses in completion order (the simulator
 * through event order, the native executor through a post-run
 * replay sorted by logical-clock tickets), so two traces that order
 * every dependence identically yield identical images even when
 * their interleavings differ elsewhere.
 */

#ifndef PSYNC_CORE_VALUE_TRACE_HH
#define PSYNC_CORE_VALUE_TRACE_HH

#include <cstdint>
#include <map>

#include "dep/loop_ir.hh"
#include "sim/program.hh"

namespace psync {
namespace core {

/** Forward one access stream to two sinks (checker + values). */
class TeeSink : public sim::TraceSink
{
  public:
    TeeSink(sim::TraceSink *first, sim::TraceSink *second)
        : first_(first), second_(second)
    {
    }

    void
    stmtStart(std::uint32_t stmt, std::uint64_t iter,
              sim::Tick when) override
    {
        if (first_)
            first_->stmtStart(stmt, iter, when);
        if (second_)
            second_->stmtStart(stmt, iter, when);
    }

    void
    stmtEnd(std::uint32_t stmt, std::uint64_t iter,
            sim::Tick when) override
    {
        if (first_)
            first_->stmtEnd(stmt, iter, when);
        if (second_)
            second_->stmtEnd(stmt, iter, when);
    }

    void
    access(std::uint32_t stmt, std::uint16_t ref, std::uint64_t iter,
           sim::Addr addr, bool is_write, sim::Tick start,
           sim::Tick end) override
    {
        if (first_)
            first_->access(stmt, ref, iter, addr, is_write, start,
                           end);
        if (second_)
            second_->access(stmt, ref, iter, addr, is_write, start,
                            end);
    }

  private:
    sim::TraceSink *first_;
    sim::TraceSink *second_;
};

/** Applies the value rule to an access stream in arrival order. */
class ValueTrace : public sim::TraceSink
{
  public:
    void access(std::uint32_t stmt, std::uint16_t ref,
                std::uint64_t iter, sim::Addr addr, bool is_write,
                sim::Tick start, sim::Tick end) override;

    /**
     * Final memory image: address -> last value written. Addresses
     * never written are absent (reads alone leave no trace here).
     */
    const std::map<sim::Addr, std::uint64_t> &
    memory() const
    {
        return memory_;
    }

    /**
     * Value each tagged read observed, keyed by accessKey. A read
     * of a never-written address records 0.
     */
    const std::map<std::uint64_t, std::uint64_t> &
    reads() const
    {
        return reads_;
    }

    void
    clear()
    {
        memory_.clear();
        reads_.clear();
    }

  private:
    std::map<sim::Addr, std::uint64_t> memory_;
    std::map<std::uint64_t, std::uint64_t> reads_;
};

/** Memory image and read values of a sequential execution. */
struct SequentialImage
{
    /** Address -> last value written, value-rule semantics. */
    std::map<sim::Addr, std::uint64_t> memory;
    /** accessKey -> value each read observed (0 = never written). */
    std::map<std::uint64_t, std::uint64_t> reads;
};

/**
 * Replay `loop` in strict sequential order (iterations ascending;
 * within an active statement all reads observe memory before any of
 * the statement's own writes land, matching the schemes' emission
 * order) and apply the value rule. No simulator, scheme, or trace
 * is involved, so the result is a backend-independent reference
 * oracle: every synchronization scheme on every backend must
 * reproduce these read values, and every scheme that writes arrays
 * in place must reproduce this memory image bit for bit.
 */
SequentialImage sequentialImage(const dep::Loop &loop,
                                sim::Addr word_bytes = 8);

} // namespace core
} // namespace psync

#endif // PSYNC_CORE_VALUE_TRACE_HH
