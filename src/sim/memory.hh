/**
 * @file
 * Interleaved shared-memory model.
 *
 * Addresses are word-interleaved across modules. Each module
 * services one request at a time, so concentrated traffic (the
 * "hot spot" of counter-based barriers, section 6 and Example 4)
 * shows up as module queueing delay. Requests reach a module over
 * the shared data bus.
 *
 * Word values are stored so that memory-resident synchronization
 * variables (keys, full/empty bits, statement counters, shared
 * iteration counters) behave functionally, with atomic
 * read-modify-write performed at the module as on the NYU
 * Ultracomputer or Cedar.
 */

#ifndef PSYNC_SIM_MEMORY_HH
#define PSYNC_SIM_MEMORY_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/interconnect.hh"
#include "sim/tracing.hh"
#include "sim/types.hh"

namespace psync {
namespace sim {

/** Configuration of the shared memory. */
struct MemoryConfig
{
    /** Number of independent memory modules. */
    unsigned numModules = 8;
    /** Cycles a module takes to service one request. */
    Tick serviceCycles = 4;
    /** Word size used for interleaving, in bytes. */
    Addr wordBytes = 8;
};

/** The interleaved shared memory behind the data bus. */
class Memory
{
  public:
    /** Completion callback for plain accesses. */
    using AccessHandler = InlineFunction<void()>;
    /** Completion callback carrying a loaded or pre-RMW value. */
    using ValueHandler = InlineFunction<void(SyncWord value)>;
    /** Value transformation applied atomically at the module. */
    using Modify = InlineFunction<SyncWord(SyncWord old_value)>;

    Memory(EventQueue &eq, Interconnect &data_net,
           const MemoryConfig &cfg, TraceLog *tracer = nullptr);

    /** Which module services an address. */
    unsigned
    moduleOf(Addr addr) const
    {
        return static_cast<unsigned>((addr / config.wordBytes) %
                                     config.numModules);
    }

    /** Read a word; handler receives the value at completion. */
    void read(ProcId who, Addr addr, ValueHandler on_done);

    /**
     * Read a word when only completion timing matters (cache fills
     * that model no data). Same cost as read(); avoids a value
     * adapter closure on the caller's side.
     */
    void readDiscard(ProcId who, Addr addr, AccessHandler on_done);

    /** Write a word; handler runs at completion. */
    void write(ProcId who, Addr addr, SyncWord value,
               AccessHandler on_done);

    /**
     * Atomic read-modify-write at the module. The handler receives
     * the value *before* modification (fetch&add semantics).
     */
    void rmw(ProcId who, Addr addr, Modify modify, ValueHandler on_done);

    /**
     * Occupy `addr`'s module for one service without crossing the
     * interconnect — the module-local retry path of a Cedar-style
     * synchronization processor re-testing a parked keyed request.
     */
    void serviceAtModule(Addr addr, AccessHandler on_done);

    /** Directly set a word without simulating time (setup only). */
    void poke(Addr addr, SyncWord value) { words[addr] = value; }

    /** Directly inspect a word without simulating time. */
    SyncWord
    peek(Addr addr) const
    {
        auto it = words.find(addr);
        return it == words.end() ? 0 : it->second;
    }

    std::uint64_t totalAccesses() const;

    /** Accesses to the single busiest module. */
    std::uint64_t hottestModuleAccesses() const;

    /**
     * Hot-spot ratio: busiest module's share of accesses relative
     * to a perfectly uniform spread (1.0 = uniform).
     */
    double hotSpotRatio() const;

    /** Total cycles requests waited for a busy module. */
    Tick moduleQueueDelay() const { return queueDelay_; }

    /**
     * Emit per-module timeline samples to `t`: cumulative serviced
     * requests and the instantaneous backlog (service-queue depth in
     * requests, from the module's reserved-until horizon).
     */
    void sampleTimeline(TraceLog &t, Tick at) const;

  private:
    /**
     * One in-flight request, parked in a free-listed slab so the
     * interconnect grant and module completion events capture only
     * {this, slot}: the user's handler rests here instead of being
     * re-wrapped (and re-allocated) at every hop.
     */
    struct Request
    {
        enum class Kind : std::uint8_t
        {
            read,
            readDiscard,
            write,
            rmw,
        };

        Kind kind = Kind::read;
        ProcId who = 0;
        Addr addr = 0;
        SyncWord value = 0;
        Tick serviceCycles = 0;
        Modify modify;
        ValueHandler onValue;
        AccessHandler onAccess;
        std::uint32_t next = noRequest;
    };

    static constexpr std::uint32_t noRequest = ~0u;

    std::uint32_t allocRequest();
    void freeRequest(std::uint32_t slot);

    /** Issue the module-side portion of a request. */
    void service(std::uint32_t slot);
    /** Interconnect delivered the request to its module. */
    void arrived(std::uint32_t slot);
    /** Module service finished; run the user's handler. */
    void complete(std::uint32_t slot);

    EventQueue &eventq;
    Interconnect &dataNet;
    MemoryConfig config;
    TraceLog *tracer;

    std::vector<Tick> moduleFreeAt;
    std::unordered_map<Addr, SyncWord> words;
    std::vector<Request> requests;
    std::uint32_t freeHead = noRequest;

    /** Requests serviced per module. */
    std::vector<std::uint64_t> moduleAccesses;
    Tick queueDelay_ = 0;
};

} // namespace sim
} // namespace psync

#endif // PSYNC_SIM_MEMORY_HH
