/**
 * @file
 * Backend-neutral synchronization IR: the op vocabulary shared by
 * the cycle-level simulator (src/sim) and the native multithreaded
 * backend (src/native).
 *
 * A Doacross iteration is compiled (sync schemes via
 * ir::ProgramBuilder) into a Program: a straight-line sequence of
 * ops — compute delays, shared-memory data accesses, and
 * synchronization operations. Branches are resolved at codegen time
 * (deterministically seeded), so programs need no control flow; the
 * synchronization placement rules for branches (Example 3) are
 * reflected in which ops each resolved path contains.
 *
 * The IR is deliberately executor-agnostic: nothing in this module
 * depends on the event queue, the sync fabrics, or pthreads. Both
 * executors interpret the same lowered iterations, stored as class
 * bodies in an ir::IterationPool (ir/pool.hh), and the pass pipeline
 * (ir/passes) transforms them before either backend sees them.
 */

#ifndef PSYNC_IR_PROGRAM_HH
#define PSYNC_IR_PROGRAM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace psync {
namespace ir {

using sim::Addr;
using sim::SyncVarId;
using sim::SyncWord;
using sim::Tick;

/**
 * Kinds of operations an executor can interpret; what each one does
 * is defined once, in ir/semantics.hh.
 */
enum class OpKind : std::uint8_t
{
    /** Spend `cycles` of pure computation. */
    compute,
    /** Read a shared-memory word at `addr`. */
    dataRead,
    /** Write a shared-memory word at `addr`. */
    dataWrite,
    /** Spin until sync var `var` >= `value`. */
    syncWaitGE,
    /** Write `value` to sync var `var`. */
    syncWrite,
    /** Atomically increment sync var `var` (value ignored). */
    syncFetchInc,
    /** mark_PC (Fig. 4.3) of `value` = <process, step> on PC `var`. */
    pcMark,
    /** transfer_PC (Fig. 4.3): own PC `var` at `aux`, hand on `value`. */
    pcTransfer,
    /**
     * Cedar combined keyed read of `addr` under key `var` >= `value`
     * (section 3.1, [26]). Requires the memory sync fabric.
     */
    keyedRead,
    /** Combined keyed write (same protocol as keyedRead). */
    keyedWrite,
    /**
     * Counter-barrier episode, counter `var`, release `aux`,
     * generation `value` of `cycles` processes: the hot-spot
     * barrier Example 4 compares the butterfly barrier against.
     */
    ctrBarrier,
    /** Zero-time marker: statement instance `stmt` begins. */
    stmtStart,
    /** Zero-time marker: statement instance `stmt` ends. */
    stmtEnd,
};

/** Printable op kind name (tests and debug dumps). */
const char *opKindName(OpKind kind);

/** One operation of an iteration program. */
struct Op
{
    OpKind kind = OpKind::compute;
    /** Compute duration, for OpKind::compute. */
    Tick cycles = 0;
    /** Target address, for data accesses. */
    Addr addr = 0;
    /** Target variable, for sync ops. */
    SyncVarId var = 0;
    /** Write value or wait threshold. */
    SyncWord value = 0;
    /** Secondary operand (pcTransfer ownership threshold). */
    SyncWord aux = 0;
    /** Statement id for markers and tagged accesses. */
    std::uint32_t stmt = 0;
    /** Reference index within the statement, for tagged accesses. */
    std::uint16_t ref = 0;
    /**
     * Stable op identity within its program, assigned by
     * ProgramBuilder at lowering time (1-based; 0 means "unset",
     * e.g. hand-built test programs). Passes that delete or merge
     * ops never renumber, so trace/blame records keyed by op id
     * keep pointing at the op the scheme emitted.
     */
    std::uint32_t id = 0;
    /**
     * Iteration tag override for trace records; 0 means "use the
     * program's iter". Hand-built programs that execute many cells
     * of a pseudo-loop in one program tag each cell's accesses
     * with that cell's lpid.
     */
    std::uint64_t iterTag = 0;

    static Op
    mkCompute(Tick cycles)
    {
        Op op;
        op.kind = OpKind::compute;
        op.cycles = cycles;
        return op;
    }

    static Op
    mkData(bool is_write, Addr addr, std::uint32_t stmt,
           std::uint16_t ref = 0)
    {
        Op op;
        op.kind = is_write ? OpKind::dataWrite : OpKind::dataRead;
        op.addr = addr;
        op.stmt = stmt;
        op.ref = ref;
        return op;
    }

    static Op
    mkKeyed(bool is_write, SyncVarId key, SyncWord threshold,
            Addr addr, std::uint32_t stmt, std::uint16_t ref = 0)
    {
        Op op;
        op.kind = is_write ? OpKind::keyedWrite : OpKind::keyedRead;
        op.var = key;
        op.value = threshold;
        op.addr = addr;
        op.stmt = stmt;
        op.ref = ref;
        return op;
    }

    static Op
    mkCtrBarrier(SyncVarId counter, SyncVarId release,
                 SyncWord generation, Tick num_procs)
    {
        Op op;
        op.kind = OpKind::ctrBarrier;
        op.var = counter;
        op.aux = release;
        op.value = generation;
        op.cycles = num_procs;
        return op;
    }

    static Op
    mkWaitGE(SyncVarId var, SyncWord threshold)
    {
        Op op;
        op.kind = OpKind::syncWaitGE;
        op.var = var;
        op.value = threshold;
        return op;
    }

    static Op
    mkWrite(SyncVarId var, SyncWord value)
    {
        Op op;
        op.kind = OpKind::syncWrite;
        op.var = var;
        op.value = value;
        return op;
    }

    static Op
    mkFetchInc(SyncVarId var)
    {
        Op op;
        op.kind = OpKind::syncFetchInc;
        op.var = var;
        return op;
    }

    static Op
    mkPcMark(SyncVarId var, SyncWord value)
    {
        Op op;
        op.kind = OpKind::pcMark;
        op.var = var;
        op.value = value;
        return op;
    }

    static Op
    mkPcTransfer(SyncVarId var, SyncWord next_value,
                 SyncWord own_threshold)
    {
        Op op;
        op.kind = OpKind::pcTransfer;
        op.var = var;
        op.value = next_value;
        op.aux = own_threshold;
        return op;
    }

    static Op
    mkStmtStart(std::uint32_t stmt)
    {
        Op op;
        op.kind = OpKind::stmtStart;
        op.stmt = stmt;
        return op;
    }

    static Op
    mkStmtEnd(std::uint32_t stmt)
    {
        Op op;
        op.kind = OpKind::stmtEnd;
        op.stmt = stmt;
        return op;
    }
};

/** One schedulable unit of work (a Doacross iteration / process). */
struct Program
{
    /** Linearized process id (1-based, as in the paper). */
    std::uint64_t iter = 0;
    std::vector<Op> ops;
};

/**
 * Render a program as one op per line (tests, debugging). With
 * `with_ids`, each line is prefixed by the op's stable id
 * (`[7] sync_wait_ge ...`) — used by --dump-ir so pass output can
 * be correlated with blame records.
 */
std::string disassemble(const Program &program,
                        bool with_ids = false);

/**
 * Append-only builder over a Program that assigns stable op ids at
 * lowering time. All sync schemes emit through this; hand-built
 * test programs may still aggregate raw Ops (id 0).
 */
class ProgramBuilder
{
  public:
    explicit ProgramBuilder(Program &program) : program_(program)
    {
        // Resume numbering if the program already holds ops (e.g.
        // a scheme appending to a partially-built body).
        for (const Op &op : program_.ops)
            if (op.id >= nextId_)
                nextId_ = op.id + 1;
    }

    /** Append any op, stamping the next sequential id. */
    Op &
    push(Op op)
    {
        op.id = nextId_++;
        program_.ops.push_back(op);
        return program_.ops.back();
    }

    Op &compute(Tick cycles) { return push(Op::mkCompute(cycles)); }

    Op &
    data(bool is_write, Addr addr, std::uint32_t stmt,
         std::uint16_t ref = 0)
    {
        return push(Op::mkData(is_write, addr, stmt, ref));
    }

    Op &
    keyed(bool is_write, SyncVarId key, SyncWord threshold,
          Addr addr, std::uint32_t stmt, std::uint16_t ref = 0)
    {
        return push(
            Op::mkKeyed(is_write, key, threshold, addr, stmt, ref));
    }

    Op &
    ctrBarrier(SyncVarId counter, SyncVarId release,
               SyncWord generation, Tick num_procs)
    {
        return push(
            Op::mkCtrBarrier(counter, release, generation,
                             num_procs));
    }

    Op &
    waitGE(SyncVarId var, SyncWord threshold)
    {
        return push(Op::mkWaitGE(var, threshold));
    }

    Op &
    write(SyncVarId var, SyncWord value)
    {
        return push(Op::mkWrite(var, value));
    }

    Op &fetchInc(SyncVarId var) { return push(Op::mkFetchInc(var)); }

    Op &
    pcMark(SyncVarId var, SyncWord value)
    {
        return push(Op::mkPcMark(var, value));
    }

    Op &
    pcTransfer(SyncVarId var, SyncWord next_value,
               SyncWord own_threshold)
    {
        return push(
            Op::mkPcTransfer(var, next_value, own_threshold));
    }

    Op &
    stmtStart(std::uint32_t stmt)
    {
        return push(Op::mkStmtStart(stmt));
    }

    Op &stmtEnd(std::uint32_t stmt) { return push(Op::mkStmtEnd(stmt)); }

    Program &program() { return program_; }

  private:
    Program &program_;
    std::uint32_t nextId_ = 1;
};

} // namespace ir
} // namespace psync

#endif // PSYNC_IR_PROGRAM_HH
