#include "ir/pool.hh"

#include <algorithm>

#include "ir/semantics.hh"

namespace psync {
namespace ir {

void
IterationPool::addBorrowed(const Program &program)
{
    Body body;
    body.ops = program.ops.data();
    body.size = static_cast<std::uint32_t>(program.ops.size());
    bodies_.push_back(body);
    iters_.push_back(program.iter);
    ++iterations_;
}

IterationPool
IterationPool::borrow(const std::vector<Program> &programs)
{
    IterationPool pool;
    pool.bodies_.reserve(programs.size());
    pool.iters_.reserve(programs.size());
    for (const Program &program : programs)
        pool.addBorrowed(program);
    return pool;
}

IterationPool
IterationPool::borrow(const std::vector<std::vector<Program>> &per_proc)
{
    IterationPool pool;
    pool.lanes_.push_back(0);
    for (const auto &list : per_proc) {
        for (const Program &program : list)
            pool.addBorrowed(program);
        pool.lanes_.push_back(pool.iterations_);
    }
    return pool;
}

Program
IterationPool::program(std::size_t index) const
{
    const Iteration it = at(index);
    Program program;
    program.iter = it.iter;
    program.ops.reserve(it.size);
    for (std::size_t k = 0; k < it.size; ++k)
        program.ops.push_back(it.op(k));
    return program;
}

std::size_t
IterationPool::bodyOps() const
{
    std::size_t ops = 0;
    for (const Body &body : bodies_)
        ops += body.size;
    return ops;
}

std::size_t
IterationPool::bytes() const
{
    return bodies_.capacity() * sizeof(Body) +
           classOf_.capacity() * sizeof(std::uint32_t) +
           iters_.capacity() * sizeof(std::uint64_t) +
           lanes_.capacity() * sizeof(std::size_t) +
           ops_.capacity() * sizeof(Op) +
           slopes_.capacity() * sizeof(OpSlope);
}

void
DataImage::addRegion(Addr base, std::uint64_t words, unsigned shift)
{
    if (words == 0)
        return;
    Region r;
    r.base = base;
    r.words = words;
    r.shift = shift;
    r.first = words_;
    regions_.push_back(r);
    words_ += words;
}

DataImage
DataImage::numbered(const IterationPool &pool)
{
    std::vector<Addr> addrs;
    for (std::size_t i = 0; i < pool.size(); ++i) {
        const Iteration it = pool.at(i);
        for (std::size_t k = 0; k < it.size; ++k)
            if (has(it.ops[k].kind, Effect::data))
                addrs.push_back(it.op(k).addr);
    }
    std::sort(addrs.begin(), addrs.end());
    addrs.erase(std::unique(addrs.begin(), addrs.end()), addrs.end());

    // Maximal runs at one power-of-two stride share a region; any
    // other address is a region of its own.
    DataImage image;
    for (std::size_t k = 0; k < addrs.size();) {
        std::size_t end = k + 1;
        unsigned shift = 0;
        if (end < addrs.size()) {
            const Addr gap = addrs[end] - addrs[k];
            if ((gap & (gap - 1)) == 0) {
                while ((Addr{1} << shift) < gap)
                    ++shift;
                while (end < addrs.size() &&
                       addrs[end] - addrs[end - 1] == gap)
                    ++end;
            }
        }
        image.addRegion(addrs[k], end - k, shift);
        k = end;
    }
    return image;
}

} // namespace ir
} // namespace psync
