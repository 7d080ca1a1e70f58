/**
 * @file
 * Plan cache: planDoacross once, execute millions of times.
 *
 * The runtime service's traffic is dominated by resubmissions of
 * the same loops: planning (dependence analysis, scheme planning,
 * lowering, the IR pass pipeline, verification) is paid once per
 * loop and configuration. Since a plan stopped materializing one
 * program per iteration, a miss on the Fig. 2.1 loop at
 * N = 257-320 costs well under one served two-lane request
 * (EXPERIMENTS.md, "Iteration classes"). The cache keys a fully
 * planned-and-verified iteration pool on exactly the inputs
 * planning consumes — the canonical loop text plus every
 * planning-relevant RunConfig field — so a hit is guaranteed to be
 * the byte-identical plan a fresh planDoacross would produce, and
 * execution-time knobs (schedule policy, chunk size, tick limit,
 * tracers) deliberately stay out of the key.
 *
 * A cached entry also carries what a long-lived executor needs to
 * rerun the plan without replanning:
 *  - the planning fabric's initialized sync-variable image (the
 *    seed for NativeSyncFabric epoch reuse), and
 *  - on demand, a reference memory/read image for sampled
 *    verification: CachedPlan::reference() builds it at most once,
 *    on whichever thread asks first (the sequential oracle for
 *    in-place schemes; for renamed-storage schemes a builder the
 *    cache's owner supplies, keeping core free of a dependency on
 *    the native backend). A plan nobody verifies never pays for it.
 *
 * Entries are immutable after insertion (the lazily built reference
 * aside, which call_once publishes) and handed out as
 * shared_ptr<const CachedPlan>, so eviction never invalidates a
 * plan some gang is still executing. Eviction is LRU.
 */

#ifndef PSYNC_CORE_PLAN_CACHE_HH
#define PSYNC_CORE_PLAN_CACHE_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/runtime.hh"
#include "core/value_trace.hh"
#include "dep/loop_ir.hh"
#include "sim/program.hh"
#include "sim/types.hh"

namespace psync {
namespace core {

/** Expected functional memory image and read values of a plan. */
using ReferenceImage = SequentialImage;

struct CachedPlan;

/**
 * Builds the reference image of a renamed-storage (instance-based)
 * plan, whose expected image depends on the renaming rather than on
 * the sequential oracle. Returns false when it cannot build one;
 * the plan then has no reference.
 */
using ReferenceBuilder =
    std::function<bool(const CachedPlan &, ReferenceImage &)>;

/** One planned, verified, immutable iteration pool. */
struct CachedPlan
{
    /** Full cache key this entry was planned under. */
    std::string key;
    /** Canonical loop text (dep::printLoop round-trip form). */
    std::string loopText;
    dep::Loop loop;
    sync::SchemeKind kind = sync::SchemeKind::none;
    sync::SchemePlan plan;
    /**
     * The lowered iterations: a few class bodies plus one class
     * index per iteration, so an entry's size barely grows with N.
     */
    ir::IterationPool pool;
    /**
     * Where the pool's data words live; an arena allocates
     * image.words() words and zeroes them per request.
     */
    ir::DataImage image;
    /** The pass pipeline's effect, counted over every iteration. */
    ir::PassStats passStats;

    /**
     * The planning fabric's sync-variable values after the scheme's
     * init writes — the image every execution must (logically)
     * start from; NativeSyncFabric's epoch protocol restores it
     * in O(1) per run.
     */
    std::vector<sim::SyncWord> initWords;

    /**
     * Expected functional memory image / read values for sampled
     * verification, built on the first call and reused by every
     * later one, from any thread. In-place schemes must reproduce
     * the sequential oracle; renamed-storage plans get theirs from
     * the cache's ReferenceBuilder. Null when the plan has none
     * (the unsynchronized baseline, or no builder / a failed build
     * for renamed storage): verification then skips image
     * comparison.
     */
    const ReferenceImage *reference() const;

  private:
    friend class PlanCache;

    /** Data word size the sequential oracle lays addresses out by. */
    sim::Addr wordBytes_ = 8;
    std::shared_ptr<const ReferenceBuilder> renamedBuilder_;
    mutable std::once_flag referenceOnce_;
    mutable std::optional<ReferenceImage> reference_;
};

/** Thread-safe LRU cache of planned Doacross programs. */
class PlanCache
{
  public:
    /**
     * `renamed` builds the references of renamed-storage plans; it
     * is shared by every entry and may run after the cache (and its
     * owner) are gone, so it must capture values only.
     */
    explicit PlanCache(std::size_t capacity = 64,
                       ReferenceBuilder renamed = {});

    /**
     * The canonical key: printLoop(loop) round-trip text plus every
     * planning-relevant field of (kind, cfg). Two configs that can
     * produce different plans always produce different keys.
     */
    static std::string makeKey(const dep::Loop &loop,
                               sync::SchemeKind kind,
                               const RunConfig &cfg);

    /**
     * Look up or plan-and-insert. On a miss this plans under the
     * cache lock (a concurrent second requester of the same key
     * waits and then hits); no reference oracle runs there, since
     * CachedPlan::reference() builds it outside, on first use. An
     * IR verifier failure in planDoacross is fatal, exactly as on
     * the uncached path, so every entry that exists is verified.
     */
    std::shared_ptr<const CachedPlan>
    get(const dep::Loop &loop, sync::SchemeKind kind,
        const RunConfig &cfg);

    /** Non-inserting probe (tests / introspection). */
    bool contains(const std::string &key) const;

    std::size_t capacity() const { return capacity_; }
    std::size_t size() const;
    std::uint64_t hits() const { return hits_.load(); }
    std::uint64_t misses() const { return misses_.load(); }
    std::uint64_t evictions() const { return evictions_.load(); }

    double
    hitRate() const
    {
        std::uint64_t h = hits(), m = misses();
        return h + m ? static_cast<double>(h) / (h + m) : 0.0;
    }

  private:
    using Entry = std::shared_ptr<const CachedPlan>;

    /** makeKey() given the loop's canonical text. */
    static std::string keyOf(const std::string &loop_text,
                             sync::SchemeKind kind,
                             const RunConfig &cfg);

    std::size_t capacity_;
    std::shared_ptr<const ReferenceBuilder> renamed_;
    mutable std::mutex mutex_;
    /** Most-recently-used at the front. */
    std::list<Entry> lru_;
    std::unordered_map<std::string, std::list<Entry>::iterator>
        index_;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> evictions_{0};
};

} // namespace core
} // namespace psync

#endif // PSYNC_CORE_PLAN_CACHE_HH
