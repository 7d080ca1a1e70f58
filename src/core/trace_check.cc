#include "core/trace_check.hh"

#include <algorithm>

#include "dep/transform.hh"
#include "sim/logging.hh"

namespace psync {
namespace core {

void
TraceChecker::access(std::uint32_t stmt, std::uint16_t ref,
                     std::uint64_t iter, sim::Addr addr, bool is_write,
                     sim::Tick start, sim::Tick end)
{
    (void)addr;
    (void)is_write;
    if (stmt >= sites_.size())
        sites_.resize(std::size_t{stmt} + 1);
    auto &refs = sites_[stmt];
    if (ref >= refs.size())
        refs.resize(std::size_t{ref} + 1);
    std::vector<Record> &site = refs[ref];
    if (iter >= site.size())
        site.resize(std::max<std::uint64_t>(iter + 1, 2 * site.size()));
    Record &rec = site[iter];
    numRecords_ += !rec.seen();
    rec.firstStart = std::min(rec.firstStart, start);
    rec.lastEnd = std::max(rec.lastEnd, end);
}

const TraceChecker::Record *
TraceChecker::find(std::uint32_t stmt, std::uint32_t ref,
                   std::uint64_t iter) const
{
    if (stmt >= sites_.size() || ref >= sites_[stmt].size())
        return nullptr;
    const std::vector<Record> &site = sites_[stmt][ref];
    if (iter >= site.size() || !site[iter].seen())
        return nullptr;
    return &site[iter];
}

std::vector<std::string>
TraceChecker::verify(const dep::Loop &loop,
                     const std::vector<dep::Dep> &deps,
                     size_t max_messages) const
{
    std::vector<std::string> violations;
    instancesChecked_ = 0;
    const long m = loop.innerTrip();
    const std::uint64_t total = loop.iterations();

    for (const dep::Dep &dep : deps) {
        long dist = dep.linearDistance(m);
        if (dist <= 0)
            continue;
        for (std::uint64_t lpid = static_cast<std::uint64_t>(dist) + 1;
             lpid <= total; ++lpid) {
            if (!dep::sinkHasSource(loop, dep, lpid))
                continue; // genuine loop boundary
            std::uint64_t src_lpid =
                lpid - static_cast<std::uint64_t>(dist);
            if (!dep::stmtActive(loop, loop.body[dep.src], src_lpid) ||
                !dep::stmtActive(loop, loop.body[dep.dst], lpid)) {
                continue; // untaken branch arm
            }

            const Record *src = find(
                dep.src, static_cast<std::uint16_t>(dep.srcRef),
                src_lpid);
            const Record *dst = find(
                dep.dst, static_cast<std::uint16_t>(dep.dstRef), lpid);
            ++instancesChecked_;

            auto report = [&](const std::string &msg) {
                if (violations.size() < max_messages)
                    violations.push_back(msg);
            };

            if (src == nullptr || dst == nullptr) {
                report(sim::csprintf(
                    "%s: missing access record (src@%llu%s, "
                    "dst@%llu%s)",
                    depToString(loop, dep).c_str(),
                    static_cast<unsigned long long>(src_lpid),
                    src == nullptr ? " MISSING" : "",
                    static_cast<unsigned long long>(lpid),
                    dst == nullptr ? " MISSING" : ""));
                continue;
            }
            if (src->lastEnd > dst->firstStart) {
                report(sim::csprintf(
                    "%s violated: src@%llu ends %llu > dst@%llu "
                    "starts %llu",
                    depToString(loop, dep).c_str(),
                    static_cast<unsigned long long>(src_lpid),
                    static_cast<unsigned long long>(src->lastEnd),
                    static_cast<unsigned long long>(lpid),
                    static_cast<unsigned long long>(dst->firstStart)));
            }
        }
    }
    return violations;
}

} // namespace core
} // namespace psync
