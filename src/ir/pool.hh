/**
 * @file
 * Iteration pools: what both executors run.
 *
 * The paper writes a transformed Doacross loop as one body
 * parametrized by the iteration (Figs. 4.2b, 5.1b, 5.2b). A pool
 * stores a lowered loop the same way: a few class bodies plus, per
 * iteration, the index of its class. Two iterations share a class
 * when the scheme's emit() takes the same branches for both
 * (IterationSource::classKey); every field of the class's ops is
 * then affine in the iteration's coordinate — lpid - 1 for a flat
 * loop, the outer index for a nest, whose key fixes the column — so
 * a body is its first member's post-pass ops plus one slope per
 * field (ir::lowerPool builds them).
 *
 * Both executors build each op when they dispatch its iteration,
 * through Iteration::op(), the one instantiation function. The op
 * built is a plain ir::Op. Hand-built programs (barriers, FFT, the
 * relaxation pipelines, tests) enter as one-member classes that
 * borrow the caller's ops.
 *
 * A DataImage numbers the data words a pool's accesses touch, so the
 * native backend keeps them in one flat array instead of hashing
 * addresses.
 */

#ifndef PSYNC_IR_POOL_HH
#define PSYNC_IR_POOL_HH

#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "ir/program.hh"

namespace psync {
namespace ir {

/**
 * Change of each op field per unit of the iteration coordinate.
 * Fields are unsigned; slopes apply in wrap-around arithmetic, which
 * is exact whenever the instantiated value fits its field.
 */
struct OpSlope
{
    std::int64_t cycles = 0;
    std::int64_t addr = 0;
    std::int64_t var = 0;
    std::int64_t value = 0;
    std::int64_t aux = 0;
    std::int64_t iterTag = 0;
};

/** `base` moved `delta` coordinates along `slope`. */
inline Op
instantiate(const Op &base, const OpSlope &slope, std::int64_t delta)
{
    const auto d = static_cast<std::uint64_t>(delta);
    // An op moves in one to three fields. Testing each slope skips the
    // fixed ones and keeps the compiler from pairing the products into
    // vector code that emulates 64-bit multiplies.
    auto move = [d](auto &field, std::int64_t s) {
        if (s != 0)
            field += static_cast<std::remove_reference_t<decltype(field)>>(
                static_cast<std::uint64_t>(s) * d);
    };
    Op op = base;
    move(op.cycles, slope.cycles);
    move(op.addr, slope.addr);
    move(op.var, slope.var);
    move(op.value, slope.value);
    move(op.aux, slope.aux);
    move(op.iterTag, slope.iterTag);
    return op;
}

/** One dispatched iteration: its class body, placed at `iter`. */
struct Iteration
{
    const Op *ops = nullptr;
    /** Per-op slopes; null when every field of the body is fixed. */
    const OpSlope *slopes = nullptr;
    std::uint32_t size = 0;
    /** Linearized process id (the paper's 1-based lpid). */
    std::uint64_t iter = 0;
    /** Coordinate distance from the body's first member. */
    std::int64_t delta = 0;

    /** A hand-built program as a one-member class. */
    static Iteration
    of(const Program &program)
    {
        Iteration it;
        it.ops = program.ops.data();
        it.size = static_cast<std::uint32_t>(program.ops.size());
        it.iter = program.iter;
        return it;
    }

    /** Op `k` of this iteration. */
    Op
    op(std::size_t k) const
    {
        return slopes ? instantiate(ops[k], slopes[k], delta) : ops[k];
    }
};

/**
 * What lowering a loop needs from its synchronization scheme (every
 * sync::Scheme is one): each iteration's class and its program.
 */
class IterationSource
{
  public:
    virtual ~IterationSource() = default;

    /**
     * Append to `key` every test emit(lpid) branches on. Iterations
     * with equal keys must emit programs of one shape whose fields
     * are affine in the coordinate.
     */
    virtual void classKey(std::uint64_t lpid,
                          std::vector<std::uint64_t> &key) const = 0;

    /** The lowered program of iteration `lpid` (1-based). */
    virtual Program emit(std::uint64_t lpid) const = 0;
};

struct PassConfig;
struct PassStats;

/**
 * Class bodies plus a per-iteration class index. Move-only: bodies
 * point into the pool's own storage or, for borrowed programs, into
 * the caller's.
 */
class IterationPool
{
  public:
    IterationPool() = default;
    IterationPool(IterationPool &&) = default;
    IterationPool &operator=(IterationPool &&) = default;
    IterationPool(const IterationPool &) = delete;
    IterationPool &operator=(const IterationPool &) = delete;

    /**
     * One one-member class per program, in list order, borrowing
     * each program's ops: `programs` must outlive the pool.
     */
    static IterationPool borrow(const std::vector<Program> &programs);
    static IterationPool borrow(std::vector<Program> &&) = delete;

    /**
     * Per-processor lists (barrier, FFT and wavefront workloads):
     * lane p runs list p's programs in order. Borrows like the
     * overload above.
     */
    static IterationPool
    borrow(const std::vector<std::vector<Program>> &per_proc);
    static IterationPool
    borrow(std::vector<std::vector<Program>> &&) = delete;

    /** Iterations in dispatch order. */
    std::size_t size() const { return iterations_; }

    /** Iteration `index` (0-based dispatch position). */
    Iteration
    at(std::size_t index) const
    {
        const Body &body = bodies_[classOf(index)];
        Iteration it;
        it.ops = body.ops;
        it.slopes = body.slopes;
        it.size = body.size;
        it.iter = iters_.empty() ? index + 1 : iters_[index];
        if (body.slopes) {
            // Flat loops (divisor 1) skip the division.
            const std::size_t coord =
                divisor_ == 1 ? index : index / divisor_;
            it.delta = static_cast<std::int64_t>(coord) - body.anchor;
        }
        return it;
    }

    /** Iteration `index` materialized (disassembly, tests). */
    Program program(std::size_t index) const;

    /** Class bodies. */
    std::size_t numClasses() const { return bodies_.size(); }

    /** Class of iteration `index`, in [0, numClasses()). */
    std::size_t
    classOf(std::size_t index) const
    {
        return classOf_.empty() ? index : classOf_[index];
    }

    /** Ops across all class bodies. */
    std::size_t bodyOps() const;

    /** Heap bytes the pool owns (borrowed ops not counted). */
    std::size_t bytes() const;

    /**
     * Lane boundaries of a per-processor pool: lane p runs
     * iterations [lanes()[p], lanes()[p + 1]). Empty for a shared
     * pool, whose iterations a schedule policy deals out.
     */
    const std::vector<std::size_t> &lanes() const { return lanes_; }

  private:
    /** Builds lowered pools (declared in ir/passes.hh). */
    friend IterationPool
    lowerPool(const IterationSource &, std::uint64_t, std::uint64_t,
              const PassConfig &,
              const std::function<SyncWord(SyncVarId)> &, PassStats &);

    struct Body
    {
        const Op *ops = nullptr;
        const OpSlope *slopes = nullptr;
        std::uint32_t size = 0;
        /** Coordinate of the class's first member. */
        std::int64_t anchor = 0;
    };

    void addBorrowed(const Program &program);

    std::vector<Body> bodies_;
    /** Class of each iteration; empty when iteration k is class k. */
    std::vector<std::uint32_t> classOf_;
    /** lpid of each iteration; empty when iteration k is lpid k+1. */
    std::vector<std::uint64_t> iters_;
    std::vector<std::size_t> lanes_;
    std::uint64_t divisor_ = 1;
    std::size_t iterations_ = 0;
    /** Body storage of a lowered pool. */
    std::vector<Op> ops_;
    std::vector<OpSlope> slopes_;
};

/**
 * The data words a pool's accesses touch, numbered densely from 0:
 * a few address regions of evenly spaced words. A lowered loop's
 * image is its layout's arrays from address 0 (DataLayout puts
 * element k at k * wordBytes) plus any renamed copies; hand-built
 * pools number the addresses they use once, with numbered().
 */
class DataImage
{
  public:
    /** wordOf() of an address outside every region. */
    static constexpr std::uint64_t npos = ~std::uint64_t{0};

    /** `words` words from `base`, `1 << shift` bytes apart. */
    struct Region
    {
        Addr base = 0;
        std::uint64_t words = 0;
        unsigned shift = 0;
        /** Word number of `base`. */
        std::uint64_t first = 0;
    };

    /**
     * Append a region of `words` words at `base`, `1 << shift` bytes
     * apart. Regions must not overlap.
     */
    void addRegion(Addr base, std::uint64_t words, unsigned shift);

    /**
     * Every address a data or keyed access of `pool` touches,
     * numbered in address order (runs at a power-of-two stride
     * share a region).
     */
    static DataImage numbered(const IterationPool &pool);

    /** Word number of `addr`, or npos. */
    std::uint64_t
    wordOf(Addr addr) const
    {
        // Few regions: the scan beats a search.
        for (const Region &r : regions_) {
            const Addr off = addr - r.base;
            if (addr >= r.base && (off >> r.shift) < r.words &&
                (off & ((Addr{1} << r.shift) - 1)) == 0)
                return r.first + (off >> r.shift);
        }
        return npos;
    }

    std::uint64_t words() const { return words_; }
    const std::vector<Region> &regions() const { return regions_; }

  private:
    std::vector<Region> regions_;
    std::uint64_t words_ = 0;
};

} // namespace ir
} // namespace psync

#endif // PSYNC_IR_POOL_HH
