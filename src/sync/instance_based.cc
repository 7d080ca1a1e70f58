#include "sync/instance_based.hh"

#include <algorithm>
#include <array>

#include "dep/transform.hh"
#include "sim/logging.hh"

namespace psync {
namespace sync {

SchemePlan
InstanceBasedScheme::plan(const dep::DepGraph &graph,
                          const dep::DataLayout &layout,
                          sim::SyncFabric &fabric,
                          const SchemeConfig &cfg)
{
    graph_ = &graph;
    layout_ = &layout;
    cfg_ = cfg;

    const dep::Loop &loop = graph.loop();
    for (const dep::Statement &stmt : loop.body) {
        if (stmt.guard.conditional()) {
            sim::fatal("instance-based scheme does not support "
                       "branch-guarded statements (needs reaching "
                       "definitions across renamed instances)");
        }
    }

    const long m = loop.innerTrip();
    std::uint64_t iterations = loop.iterations();
    iterations_ = iterations;

    // Enumerate write slots.
    slotOf_.assign(loop.body.size(), {});
    readSrc_.assign(loop.body.size(), {});
    for (unsigned s = 0; s < loop.body.size(); ++s) {
        slotOf_[s].assign(loop.body[s].refs.size(), -1);
        readSrc_[s].assign(loop.body[s].refs.size(), {});
        for (unsigned r = 0; r < loop.body[s].refs.size(); ++r) {
            if (loop.body[s].refs[r].isWrite) {
                slotOf_[s][r] = static_cast<int>(writeSlots_.size());
                WriteSlot slot;
                slot.stmt = s;
                slot.ref = r;
                writeSlots_.push_back(slot);
            }
        }
    }

    // Flow dependences (covered ones included: renaming gives each
    // value its own key, there is no transitive covering here).
    // Collect every candidate producer per read — including the
    // loop-independent (same-iteration) writes, which never appear
    // in crossIteration() but still reach reads only through the
    // renamed copies once every write is renamed.
    for (const dep::Dep &d : graph.deps()) {
        if (d.type != dep::DepType::flow)
            continue;
        bool same_iter = (d.d1 == 0 && d.d2 == 0);
        long dist = d.linearDistance(m);
        if (!same_iter && dist <= 0) {
            // Non-positive linearized distance with a non-zero
            // distance vector: the source indices fall outside the
            // iteration space for every sink, so no instance of
            // this arc ever reaches a read.
            continue;
        }
        int slot = slotOf_[d.src][d.srcRef];
        if (slot < 0)
            sim::panic("flow dep source ref is not a write");
        ReadSource rs;
        rs.distance = dist;
        rs.slot = static_cast<unsigned>(slot);
        rs.dep = d;
        readSrc_[d.dst][d.dstRef].push_back(rs);
    }

    // Order each read's candidates by reaching-definition priority:
    // nearest distance first (the latest preceding write), ties to
    // the textually later statement and reference (the one executed
    // last within the instance). A same-iteration candidate always
    // has in-bounds source indices, so anything behind it can never
    // be selected — drop it. Then register each surviving candidate
    // with its slot so it gets a key and a copy.
    for (unsigned s = 0; s < loop.body.size(); ++s) {
        for (unsigned r = 0; r < loop.body[s].refs.size(); ++r) {
            std::vector<ReadSource> &cands = readSrc_[s][r];
            std::stable_sort(
                cands.begin(), cands.end(),
                [](const ReadSource &a, const ReadSource &b) {
                    if (a.distance != b.distance)
                        return a.distance < b.distance;
                    if (a.dep.src != b.dep.src)
                        return a.dep.src > b.dep.src;
                    return a.dep.srcRef > b.dep.srcRef;
                });
            for (size_t k = 0; k < cands.size(); ++k) {
                if (cands[k].dep.d1 == 0 && cands[k].dep.d2 == 0) {
                    cands.resize(k + 1);
                    break;
                }
            }
            // Drop dominated candidates: emit picks the first
            // candidate whose source indices are in bounds, so one
            // whose in-bounds region is contained in an earlier
            // candidate's region is never selected and must not cost
            // a key and a copy. (In a singly nested loop the regions
            // are nested suffixes, leaving only the nearest
            // producer — Fig. 3.1b's copy counts; in a doubly nested
            // loop the inner-index windows can be disjoint, which is
            // what keeps genuine boundary fallbacks alive.)
            auto region = [&](const dep::Dep &d) {
                std::array<long, 4> rg;
                rg[0] = loop.outer.lo + std::max(0L, d.d1);
                rg[1] = loop.outer.hi + std::min(0L, d.d1);
                if (loop.depth == 2) {
                    rg[2] = loop.inner.lo + std::max(0L, d.d2);
                    rg[3] = loop.inner.hi + std::min(0L, d.d2);
                } else {
                    rg[2] = rg[3] = 0;
                }
                return rg;
            };
            std::vector<ReadSource> kept;
            for (const ReadSource &cand : cands) {
                std::array<long, 4> rc = region(cand.dep);
                bool dominated = false;
                for (const ReadSource &prev : kept) {
                    std::array<long, 4> rp = region(prev.dep);
                    if (rp[0] <= rc[0] && rp[1] >= rc[1] &&
                        rp[2] <= rc[2] && rp[3] >= rc[3]) {
                        dominated = true;
                        break;
                    }
                }
                if (!dominated)
                    kept.push_back(cand);
            }
            cands = std::move(kept);
            for (ReadSource &rs : cands) {
                WriteSlot &slot = writeSlots_[rs.slot];
                rs.readerIndex =
                    static_cast<unsigned>(slot.readers.size());
                slot.readers.push_back(rs.dep);
            }
        }
    }

    // Lay out keys and copies per iteration.
    keysPerIter_ = 0;
    copiesPerIter_ = 0;
    for (WriteSlot &slot : writeSlots_) {
        slot.keys = static_cast<unsigned>(slot.readers.size());
        slot.copies = std::max(1u, slot.keys);
        slot.keyOffset = keysPerIter_;
        slot.copyOffset = copiesPerIter_;
        keysPerIter_ += slot.keys;
        copiesPerIter_ += slot.copies;
    }

    std::uint64_t num_keys = keysPerIter_ * iterations;
    keyBase_ = fabric.allocate(static_cast<unsigned>(num_keys), 0);
    for (std::uint64_t v = 0; v < num_keys; ++v) {
        if (cfg.tracer) {
            cfg.tracer->nameSyncVar(keyBase_ + v,
                                    "ikey[" + std::to_string(v) + "]");
        }
    }

    // Renamed copies live in their own region above the arrays.
    copyRegionBase_ = sim::Addr(1) << 36;

    // Per statement: markers and compute, a wait and a read per
    // read reference, and every copy store and key signal of each
    // write.
    maxOpsPerIter_ = 0;
    for (unsigned s = 0; s < loop.body.size(); ++s) {
        maxOpsPerIter_ += 3;
        for (unsigned r = 0; r < loop.body[s].refs.size(); ++r) {
            if (slotOf_[s][r] < 0) {
                maxOpsPerIter_ += 2;
            } else {
                const WriteSlot &slot =
                    writeSlots_[static_cast<unsigned>(slotOf_[s][r])];
                maxOpsPerIter_ += slot.copies + slot.keys;
            }
        }
    }

    SchemePlan result;
    result.numSyncVars = num_keys;
    // Full/empty bits: one bit per key.
    result.syncStorageBytes = (num_keys + 7) / 8;
    result.renamedStorageBytes = copiesPerIter_ * iterations * 8;
    result.initWrites = num_keys;
    // Only each read's top-priority candidate is guaranteed at
    // every instance where its source is in bounds (whenever it is
    // in bounds, it is the one selected). Farther candidates are
    // enforced only at the boundary instances that select them, so
    // advertising them would make the trace checker demand
    // orderings renaming never promises.
    std::vector<dep::Dep> verified;
    for (const auto &per_stmt : readSrc_) {
        for (const auto &cands : per_stmt) {
            if (!cands.empty())
                verified.push_back(cands.front().dep);
        }
    }
    result.depsVerified = std::move(verified);
    return result;
}

sim::SyncVarId
InstanceBasedScheme::keyVarOf(std::uint64_t writer_lpid, unsigned slot,
                              unsigned reader_index) const
{
    return keyBase_ + static_cast<sim::SyncVarId>(
        (writer_lpid - 1) * keysPerIter_ +
        writeSlots_[slot].keyOffset + reader_index);
}

sim::Addr
InstanceBasedScheme::copyAddrOf(std::uint64_t writer_lpid,
                                unsigned slot,
                                unsigned reader_index) const
{
    unsigned copy_index =
        std::min(reader_index, writeSlots_[slot].copies - 1);
    return copyRegionBase_ +
           ((writer_lpid - 1) * copiesPerIter_ +
            writeSlots_[slot].copyOffset + copy_index) * 8;
}

const InstanceBasedScheme::ReadSource *
InstanceBasedScheme::sourceOf(unsigned stmt, unsigned ref,
                              std::uint64_t lpid) const
{
    for (const ReadSource &cand : readSrc_[stmt][ref])
        if (dep::sinkHasSource(graph_->loop(), cand.dep, lpid))
            return &cand;
    return nullptr;
}

void
InstanceBasedScheme::classKey(std::uint64_t lpid,
                              std::vector<std::uint64_t> &key) const
{
    // Keys and copies are affine in the writer's lpid; what varies
    // is which candidate producer reaches each read.
    loopClassKey(graph_->loop(), lpid, key);
    for (unsigned s = 0; s < readSrc_.size(); ++s) {
        for (unsigned r = 0; r < readSrc_[s].size(); ++r) {
            const ReadSource *rs = sourceOf(s, r, lpid);
            key.push_back(rs ? 1 + static_cast<std::uint64_t>(
                                       rs - readSrc_[s][r].data())
                             : 0);
        }
    }
}

void
InstanceBasedScheme::addRenamedRegions(ir::DataImage &image) const
{
    // copyAddrOf() places copies 8 (1 << 3) bytes apart.
    image.addRegion(copyRegionBase_, copiesPerIter_ * iterations_, 3);
}

sim::Program
InstanceBasedScheme::emit(std::uint64_t lpid) const
{
    const dep::Loop &loop = graph_->loop();
    sim::Program prog = newProgram(lpid);
    ir::ProgramBuilder b(prog);
    long i = 0, j = 0;
    loop.indicesOf(lpid, i, j);

    for (unsigned s = 0; s < loop.body.size(); ++s) {
        const dep::Statement &stmt = loop.body[s];
        b.stmtStart(s);

        // Reads: wait full on the reaching producer's renamed copy,
        // or read the original element when no candidate has
        // in-bounds source indices here. The linearized distance
        // alone cannot decide this: at linearization boundaries
        // (Fig. 5.2) a nearer arc's source leaves the iteration
        // space while a farther arc's source is still inside it, so
        // each instance re-selects the first in-bounds candidate.
        for (unsigned r = 0; r < stmt.refs.size(); ++r) {
            const dep::ArrayRef &ref = stmt.refs[r];
            if (ref.isWrite)
                continue;
            const ReadSource *rs = sourceOf(s, r, lpid);
            if (rs != nullptr) {
                // In-bounds source indices imply a valid source
                // instance, so w >= 1; a same-iteration producer
                // (distance 0) has already set its key earlier in
                // this very program.
                std::uint64_t w =
                    lpid - static_cast<std::uint64_t>(rs->distance);
                b.waitGE(keyVarOf(w, rs->slot, rs->readerIndex), 1);
                b.data(false,
                       copyAddrOf(w, rs->slot, rs->readerIndex), s,
                       static_cast<std::uint16_t>(r));
            } else {
                b.data(false, layout_->addrOf(ref, i, j), s,
                       static_cast<std::uint16_t>(r));
            }
        }

        if (stmt.cost > 0)
            b.compute(stmt.cost);

        // Writes: store every copy of the renamed instance; no
        // waiting — anti and output dependences are gone.
        for (unsigned r = 0; r < stmt.refs.size(); ++r) {
            if (!stmt.refs[r].isWrite)
                continue;
            unsigned slot = static_cast<unsigned>(slotOf_[s][r]);
            for (unsigned c = 0; c < writeSlots_[slot].copies; ++c) {
                b.data(true, copyAddrOf(lpid, slot, c), s,
                       static_cast<std::uint16_t>(r));
            }
        }
        b.stmtEnd(s);

        // Signals: set every reader's key to full.
        for (unsigned r = 0; r < stmt.refs.size(); ++r) {
            if (!stmt.refs[r].isWrite)
                continue;
            unsigned slot = static_cast<unsigned>(slotOf_[s][r]);
            for (unsigned k = 0; k < writeSlots_[slot].keys; ++k) {
                b.write(keyVarOf(lpid, slot, k), 1);
            }
        }
    }
    return prog;
}

} // namespace sync
} // namespace psync
