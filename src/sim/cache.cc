#include "sim/cache.hh"

#include <utility>

namespace psync {
namespace sim {

CacheSystem::CacheSystem(EventQueue &eq, Memory &mem,
                         unsigned num_procs, const CacheConfig &cfg)
    : eventq(eq),
      memory(mem),
      config(cfg),
      numProcs(num_procs)
{
    if (config.enabled) {
        lines.assign(num_procs,
                     std::vector<Line>(config.linesPerProc));
    }
}

CacheSystem::Line &
CacheSystem::lineOf(ProcId who, Addr addr)
{
    return lines[who][indexOf(addr)];
}

void
CacheSystem::fill(ProcId who, Addr addr)
{
    Line &line = lineOf(who, addr);
    line.valid = true;
    line.tag = addr / 8;
}

void
CacheSystem::invalidateOthers(ProcId who, Addr addr)
{
    for (ProcId p = 0; p < numProcs; ++p) {
        if (p == who)
            continue;
        Line &line = lines[p][indexOf(addr)];
        if (line.valid && line.tag == addr / 8) {
            line.valid = false;
            ++invalidations_;
        }
    }
}

void
CacheSystem::read(ProcId who, Addr addr, AccessHandler on_done)
{
    if (!config.enabled) {
        memory.readDiscard(who, addr, std::move(on_done));
        return;
    }
    Line &line = lineOf(who, addr);
    if (line.valid && line.tag == addr / 8) {
        ++hits_;
        eventq.scheduleIn(config.hitCycles, std::move(on_done));
        return;
    }
    ++misses_;
    memory.readDiscard(who, addr,
                       [this, who, addr,
                        on_done = std::move(on_done)]() {
        fill(who, addr);
        on_done();
    });
}

void
CacheSystem::write(ProcId who, Addr addr, AccessHandler on_done)
{
    if (!config.enabled) {
        memory.write(who, addr, 0, std::move(on_done));
        return;
    }
    // Write-through: memory is updated on every store; the
    // invalidation rides the same bus transaction (snooping).
    memory.write(who, addr, 0,
                 [this, who, addr,
                  on_done = std::move(on_done)]() {
        fill(who, addr);
        invalidateOthers(who, addr);
        on_done();
    });
}

} // namespace sim
} // namespace psync
