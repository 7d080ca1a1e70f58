#include "core/value_trace.hh"

#include "core/value_rule.hh"

namespace psync {
namespace core {

void
ValueTrace::access(std::uint32_t stmt, std::uint16_t ref,
                   std::uint64_t iter, sim::Addr addr, bool is_write,
                   sim::Tick start, sim::Tick end)
{
    (void)start;
    (void)end;
    if (is_write) {
        memory_[addr] = valueOfWrite(stmt, ref, iter);
    } else {
        auto it = memory_.find(addr);
        reads_[accessKey(stmt, ref, iter)] =
            it == memory_.end() ? 0 : it->second;
    }
}

SequentialImage
sequentialImage(const dep::Loop &loop, sim::Addr word_bytes)
{
    dep::DataLayout layout(loop, word_bytes);
    SequentialImage image;

    const std::uint64_t total = loop.iterations();
    for (std::uint64_t lpid = 1; lpid <= total; ++lpid) {
        long i, j;
        loop.indicesOf(lpid, i, j);
        for (size_t s = 0; s < loop.body.size(); ++s) {
            const dep::Statement &stmt = loop.body[s];
            if (!dep::stmtActive(loop, stmt, lpid))
                continue;
            for (size_t r = 0; r < stmt.refs.size(); ++r) {
                const dep::ArrayRef &ref = stmt.refs[r];
                if (ref.isWrite)
                    continue;
                sim::Addr addr = layout.addrOf(ref, i, j);
                auto it = image.memory.find(addr);
                image.reads[accessKey(
                    static_cast<std::uint32_t>(s),
                    static_cast<std::uint16_t>(r), lpid)] =
                    it == image.memory.end() ? 0 : it->second;
            }
            for (size_t r = 0; r < stmt.refs.size(); ++r) {
                const dep::ArrayRef &ref = stmt.refs[r];
                if (!ref.isWrite)
                    continue;
                image.memory[layout.addrOf(ref, i, j)] =
                    valueOfWrite(static_cast<std::uint32_t>(s),
                                 static_cast<std::uint16_t>(r),
                                 lpid);
            }
        }
    }
    return image;
}

} // namespace core
} // namespace psync
