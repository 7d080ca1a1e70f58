/**
 * @file
 * Private per-processor data caches with write-through invalidate
 * coherence.
 *
 * Section 2.2's correctness requirement (1) assumes a machine where
 * "the process which updates a value in its private cache must wait
 * until the updated value is reflected in the shared memory, or
 * reflected in a coherent cache state" — i.e., write-through with
 * invalidation, the coherence style of the paper-era bus machines.
 * Reads that hit a valid private line cost one cycle and no bus
 * traffic; every write goes through to memory and invalidates other
 * processors' copies of the word.
 *
 * Synchronization variables do not pass through these caches: the
 * register fabric has its own local images, and the memory fabric
 * models cache-style spinning separately (cachedSpinning).
 */

#ifndef PSYNC_SIM_CACHE_HH
#define PSYNC_SIM_CACHE_HH

#include <cstdint>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/memory.hh"
#include "sim/types.hh"

namespace psync {
namespace sim {

/** Private data-cache configuration. */
struct CacheConfig
{
    /** Disabled caches pass every access through to memory. */
    bool enabled = false;
    /** Direct-mapped lines (one word each) per processor. */
    unsigned linesPerProc = 1024;
    /** Cycles for a load hit in the private cache. */
    Tick hitCycles = 1;
};

/** All processors' private caches plus the snooping glue. */
class CacheSystem
{
  public:
    using AccessHandler = InlineFunction<void()>;

    CacheSystem(EventQueue &eq, Memory &mem, unsigned num_procs,
                const CacheConfig &cfg);

    /** Load a word: cache hit or memory fill. */
    void read(ProcId who, Addr addr, AccessHandler on_done);

    /** Store a word: write-through + invalidate other copies. */
    void write(ProcId who, Addr addr, AccessHandler on_done);

    bool enabled() const { return config.enabled; }

    std::uint64_t hits() const { return hits_; }

    std::uint64_t misses() const { return misses_; }

    std::uint64_t invalidations() const { return invalidations_; }

    double
    hitRate() const
    {
        double total = static_cast<double>(hits_ + misses_);
        return total > 0 ? static_cast<double>(hits_) / total : 0.0;
    }

  private:
    struct Line
    {
        bool valid = false;
        Addr tag = 0;
    };

    unsigned
    indexOf(Addr addr) const
    {
        return static_cast<unsigned>((addr / 8) %
                                     config.linesPerProc);
    }

    Line &lineOf(ProcId who, Addr addr);

    /** Install `addr` in `who`'s cache. */
    void fill(ProcId who, Addr addr);

    /** Remove `addr` from every cache except `who`'s. */
    void invalidateOthers(ProcId who, Addr addr);

    EventQueue &eventq;
    Memory &memory;
    CacheConfig config;
    unsigned numProcs;
    std::vector<std::vector<Line>> lines;

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t invalidations_ = 0;
};

} // namespace sim
} // namespace psync

#endif // PSYNC_SIM_CACHE_HH
