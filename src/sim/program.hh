/**
 * @file
 * Simulator view of the backend-neutral synchronization IR.
 *
 * The op vocabulary itself lives in ir/program.hh (shared with the
 * native backend and transformed by the ir pass pipeline); this
 * header re-exports it under the historical sim:: names so the
 * simulator and its tests keep compiling unchanged, and adds the
 * TraceSink consumer interface, which is genuinely simulator/
 * executor-side (it observes execution, not programs).
 */

#ifndef PSYNC_SIM_PROGRAM_HH
#define PSYNC_SIM_PROGRAM_HH

#include <cstdint>

#include "ir/program.hh"
#include "sim/types.hh"

namespace psync {
namespace sim {

using OpKind = ir::OpKind;
using Op = ir::Op;
using Program = ir::Program;

/** Event-trace consumer; see core/trace_check for the verifier. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** A statement instance began executing. */
    virtual void
    stmtStart(std::uint32_t stmt, std::uint64_t iter, Tick when)
    {
        (void)stmt; (void)iter; (void)when;
    }

    /** A statement instance finished (effects globally visible). */
    virtual void
    stmtEnd(std::uint32_t stmt, std::uint64_t iter, Tick when)
    {
        (void)stmt; (void)iter; (void)when;
    }

    /** A tagged data access completed. */
    virtual void
    access(std::uint32_t stmt, std::uint16_t ref, std::uint64_t iter,
           Addr addr, bool is_write, Tick start, Tick end)
    {
        (void)stmt; (void)ref; (void)iter; (void)addr;
        (void)is_write; (void)start; (void)end;
    }
};

} // namespace sim
} // namespace psync

#endif // PSYNC_SIM_PROGRAM_HH
