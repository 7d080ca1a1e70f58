#include "core/plan_cache.hh"

#include <sstream>

#include "dep/loop_text.hh"
#include "sim/machine.hh"

namespace psync {
namespace core {

const ReferenceImage *
CachedPlan::reference() const
{
    std::call_once(referenceOnce_, [this] {
        switch (kind) {
          case sync::SchemeKind::none:
            // The deliberately unsynchronized baseline promises no
            // image at all.
            return;
          case sync::SchemeKind::instanceBased: {
            // Renamed storage has no backend-independent image;
            // the cache owner's builder supplies one.
            ReferenceImage image;
            if (renamedBuilder_ && (*renamedBuilder_)(*this, image))
                reference_ = std::move(image);
            return;
          }
          default:
            // In-place synchronized schemes must reproduce the
            // sequential oracle bit for bit.
            reference_ = sequentialImage(loop, wordBytes_);
            return;
        }
    });
    return reference_ ? &*reference_ : nullptr;
}

PlanCache::PlanCache(std::size_t capacity, ReferenceBuilder renamed)
    : capacity_(capacity ? capacity : 1),
      renamed_(renamed ? std::make_shared<const ReferenceBuilder>(
                             std::move(renamed))
                       : nullptr)
{
}

std::string
PlanCache::makeKey(const dep::Loop &loop, sync::SchemeKind kind,
                   const RunConfig &cfg)
{
    return keyOf(dep::printLoop(loop), kind, cfg);
}

std::string
PlanCache::keyOf(const std::string &loop_text, sync::SchemeKind kind,
                 const RunConfig &cfg)
{
    std::ostringstream key;
    // The canonical loop text is the primary key component: two
    // textual spellings that parse to the same loop share a plan,
    // and printLoop round-trips, so the text *is* the loop.
    key << loop_text;
    key << "\n@scheme=" << sync::schemeKindName(kind);
    // Machine fields planning reads: variable allocation spans the
    // fabric (kind, capacity, base address), data addresses come
    // from the layout (word size, module interleave), and process
    // schemes shape emission per processor count.
    const sim::MachineConfig &m = cfg.machine;
    key << ";procs=" << m.numProcs
        << ";fabric=" << static_cast<int>(m.fabric)
        << ";syncRegs=" << m.syncRegisters
        << ";syncBase=" << m.syncVarBase
        << ";modules=" << m.memory.numModules
        << ";wordBytes=" << m.memory.wordBytes;
    const sync::SchemeConfig &s = cfg.scheme;
    key << ";pcs=" << s.numPcs << ";scs=" << s.numScs
        << ";bcc=" << s.boundaryCheckCost
        << ";exact=" << s.exactBoundaries
        << ";cedar=" << s.cedarCombining
        << ";early=" << s.earlyBranchSignals;
    key << ";covElim=" << cfg.eliminateCoveredDeps;
    const ir::PassConfig &p = cfg.passes;
    key << ";passes=" << p.enabled << p.verify
        << p.eliminateRedundantWaits << p.peephole;
    return key.str();
}

std::shared_ptr<const CachedPlan>
PlanCache::get(const dep::Loop &loop, sync::SchemeKind kind,
               const RunConfig &cfg)
{
    std::string loop_text = dep::printLoop(loop);
    std::string key = keyOf(loop_text, kind, cfg);
    std::lock_guard<std::mutex> lk(mutex_);

    auto it = index_.find(key);
    if (it != index_.end()) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        lru_.splice(lru_.begin(), lru_, it->second);
        return *it->second;
    }
    misses_.fetch_add(1, std::memory_order_relaxed);

    auto entry = std::make_shared<CachedPlan>();
    entry->key = key;
    entry->loopText = std::move(loop_text);
    entry->loop = loop;
    entry->kind = kind;
    entry->wordBytes_ = cfg.machine.memory.wordBytes;
    entry->renamedBuilder_ = renamed_;

    // Planning-only machine, exactly as the native runner builds
    // one: the scheme allocates and initializes its sync variables
    // against the sim fabric, and the post-init values become the
    // epoch-reuse seed image.
    sim::Machine planning(cfg.machine);
    PlannedDoacross planned =
        planDoacross(loop, kind, cfg, planning.fabric());
    entry->plan = std::move(planned.plan);
    entry->pool = std::move(planned.pool);
    entry->image = std::move(planned.image);
    entry->passStats = std::move(planned.passStats);
    unsigned vars = planning.fabric().allocated();
    entry->initWords.reserve(vars);
    for (unsigned v = 0; v < vars; ++v)
        entry->initWords.push_back(planning.fabric().peek(v));

    lru_.push_front(entry);
    index_.emplace(std::move(key), lru_.begin());
    while (lru_.size() > capacity_) {
        index_.erase(lru_.back()->key);
        lru_.pop_back();
        evictions_.fetch_add(1, std::memory_order_relaxed);
    }
    return entry;
}

bool
PlanCache::contains(const std::string &key) const
{
    std::lock_guard<std::mutex> lk(mutex_);
    return index_.count(key) != 0;
}

std::size_t
PlanCache::size() const
{
    std::lock_guard<std::mutex> lk(mutex_);
    return lru_.size();
}

} // namespace core
} // namespace psync
