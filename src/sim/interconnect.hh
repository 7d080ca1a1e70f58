/**
 * @file
 * Abstract processor-memory interconnect.
 *
 * The paper scopes its scheme to "small scale multiprocessor
 * systems such as the Cray X-MP, the Alliant FX/8, the Encore
 * Multimax" — bus-based machines — while crediting data-oriented
 * schemes to large-scale systems (Cedar, RP3, HEP) built around
 * multistage networks. Both interconnects implement this
 * interface so that scoping claim can be measured (bench E13).
 */

#ifndef PSYNC_SIM_INTERCONNECT_HH
#define PSYNC_SIM_INTERCONNECT_HH

#include <cstdint>

#include "sim/inline_function.hh"
#include "sim/types.hh"

namespace psync {
namespace sim {

/** A transport from processors to memory modules. */
class Interconnect
{
  public:
    using GrantHandler = InlineFunction<void(Tick grant_tick)>;

    virtual ~Interconnect() = default;

    /**
     * Queue a transaction; `on_done` runs when the payload has
     * been delivered to the far side.
     */
    virtual void transact(ProcId who, GrantHandler on_done) = 0;

    /**
     * Queue a transaction with a grant hook fired the moment the
     * transaction is committed to the wire (used for write
     * coalescing windows).
     */
    virtual void transact(ProcId who, GrantHandler on_grant,
                          GrantHandler on_done) = 0;

    /** Completed transactions. */
    virtual std::uint64_t transactions() const = 0;

    /** Cycles spent waiting for arbitration/injection. */
    virtual Tick queueDelay() const = 0;

    /** Fraction of capacity used over [0, end_tick]. */
    virtual double utilization(Tick end_tick) const = 0;
};

} // namespace sim
} // namespace psync

#endif // PSYNC_SIM_INTERCONNECT_HH
