/**
 * @file
 * What each op kind means, defined once, as Fig. 4.3 defines mark_PC
 * and transfer_PC once: effectsOf(kind), the waits, writes, maybe-
 * writes, increments and data accesses each kind makes and the Op
 * fields each reads, which the passes, verifier and profiler read;
 * and perform(lane, op), each sync op's behaviour, which the
 * simulator's processor and the native executor walk. Nothing here
 * knows about time: pricing stays with the simulator.
 */

#ifndef PSYNC_IR_SEMANTICS_HH
#define PSYNC_IR_SEMANTICS_HH

#include <array>
#include <cstddef>
#include <string>
#include <utility>

#include "ir/program.hh"

namespace psync {
namespace ir {

/** One thing an op may do, to operand `on` with operand `arg`. */
enum class Effect : std::uint8_t
{
    none,
    /** Block until variable `on` >= `arg`. */
    wait,
    /** Set variable `on` to `arg`. */
    write,
    /** Set `on` to `arg`, or skip (pcMark unowned, barrier not last). */
    maybeWrite,
    /** Add 1 to variable `on`. */
    increment,
    /** Load or store the data word at address `on`. */
    data,
};

/** The Op field an operand is read from. */
enum class Field : std::uint8_t { none, var, aux, value, addr };

struct EffectSpec
{
    Effect effect = Effect::none;
    Field on = Field::none;
    Field arg = Field::none;
};

/** A kind's effects in program order; unused slots are `none`. */
using Effects = std::array<EffectSpec, 3>;

namespace detail {

using E = Effect;
using F = Field;
constexpr EffectSpec kIncrement{E::increment, F::var};
constexpr EffectSpec kData{E::data, F::addr};
constexpr EffectSpec kWaitValue{E::wait, F::var, F::value};

/** One row per kind, in OpKind order. */
constexpr std::pair<OpKind, Effects> kTable[] = {
    {OpKind::compute, {}},
    {OpKind::dataRead, {kData}},
    {OpKind::dataWrite, {kData}},
    {OpKind::syncWaitGE, {kWaitValue}},
    {OpKind::syncWrite, {{{E::write, F::var, F::value}}}},
    {OpKind::syncFetchInc, {kIncrement}},
    {OpKind::pcMark, {{{E::maybeWrite, F::var, F::value}}}},
    {OpKind::pcTransfer,
     {{{E::wait, F::var, F::aux}, {E::write, F::var, F::value}}}},
    {OpKind::keyedRead, {kWaitValue, kData, kIncrement}},
    {OpKind::keyedWrite, {kWaitValue, kData, kIncrement}},
    {OpKind::ctrBarrier,
     {kIncrement, {E::maybeWrite, F::aux, F::value},
      {E::wait, F::aux, F::value}}},
    {OpKind::stmtStart, {}},
    {OpKind::stmtEnd, {}},
};

constexpr unsigned
bit(Effect e)
{
    return 1u << static_cast<unsigned>(e);
}

/** Per kind, one bit per effect it makes. */
constexpr auto kMasks = [] {
    std::array<unsigned, std::size(kTable)> masks{};
    for (std::size_t k = 0; k < masks.size(); ++k)
        for (const EffectSpec &e : kTable[k].second)
            masks[k] |= bit(e.effect);
    return masks;
}();

template <std::size_t K, class Fn>
void
visitRow(Fn &fn)
{
    static_assert(static_cast<std::size_t>(kTable[K].first) == K,
                  "one row per OpKind, in order");
    constexpr Effects row = kTable[K].second;
    if constexpr (row[0].effect != Effect::none)
        fn(row[0]);
    if constexpr (row[1].effect != Effect::none)
        fn(row[1]);
    if constexpr (row[2].effect != Effect::none)
        fn(row[2]);
}

template <class Fn, std::size_t... K>
void
visit(OpKind kind, Fn &fn, std::index_sequence<K...>)
{
    (void)((static_cast<std::size_t>(kind) == K &&
            (visitRow<K>(fn), true)) ||
           ...);
}

} // namespace detail

/** The effects of `kind`, in program order. */
constexpr const Effects &
effectsOf(OpKind kind)
{
    return detail::kTable[static_cast<std::size_t>(kind)].second;
}

/**
 * fn(effect) for each effect of `kind`, in program order. Rows are
 * compile-time constants, so the walk costs what a kind switch would.
 */
template <class Fn>
void
forEachEffect(OpKind kind, Fn &&fn)
{
    detail::visit(kind, fn,
                  std::make_index_sequence<std::size(detail::kTable)>{});
}

constexpr bool
has(OpKind kind, Effect effect)
{
    return (detail::kMasks[static_cast<std::size_t>(kind)] &
            detail::bit(effect)) != 0;
}

/** True when `kind` may change a sync variable. */
constexpr bool
signals(OpKind kind)
{
    return has(kind, Effect::write) || has(kind, Effect::maybeWrite) ||
           has(kind, Effect::increment);
}

/** True when `kind` waits on, or may change, a sync variable. */
constexpr bool
isSync(OpKind kind)
{
    return signals(kind) || has(kind, Effect::wait);
}

/** True when `kind`'s data effect stores rather than loads. */
constexpr bool
storesData(OpKind kind)
{
    return kind == OpKind::dataWrite || kind == OpKind::keyedWrite;
}

/** Field `which` of an Op, or of an OpSlope (named alike). */
template <class Fields>
constexpr auto
field(const Fields &f, Field which) -> decltype(f.value)
{
    switch (which) {
      case Field::var: return f.var;
      case Field::aux: return f.aux;
      case Field::value: return f.value;
      case Field::addr: return f.addr;
      case Field::none: break;
    }
    return 0;
}

/**
 * The failure message of a mark_PC that finds PC `var` owned by
 * process `owner`, past its own process `self`. Cold and never
 * inlined, so perform's mark continuation stays small enough to
 * inline into each walker.
 */
[[gnu::cold, gnu::noinline]] inline std::string
ownershipViolation(SyncVarId var, std::uint32_t owner,
                   std::uint32_t self)
{
    return std::string("PC ")
        .append(std::to_string(var))
        .append(" owned by ")
        .append(std::to_string(owner))
        .append(" past process ")
        .append(std::to_string(self))
        .append(": ownership protocol violated");
}

/**
 * Perform sync op `op` on `lane`, whose primitives take
 * continuations `k` that capture only `&lane` and `&op` and that the
 * lane may run inline or later:
 *
 *   waitGE(var, t, k)     k() once var >= t
 *   read(var, k)          k(value)
 *   write(var, value, k)  k() once written
 *   fetchInc(var, k)      var += 1, k(old value)
 *   keyed(op, k)          wait var >= value, access addr, var += 1,
 *                         as one; then k()
 *   ownsPc(), ownPc()     the process's "owns this PC" flag
 *   skipMark()            count a mark skipped while unowned
 *   fail(message)         fail the run; nothing continues
 *   done()                the op has completed
 *
 * Always inlined, so a native walk compiles to a plain switch.
 */
template <class Lane>
[[gnu::always_inline]] inline void
perform(Lane &lane, const Op &op)
{
    auto done = [&lane] { lane.done(); };
    switch (op.kind) {
      case OpKind::syncWaitGE:
        lane.waitGE(op.var, op.value, done);
        return;
      case OpKind::syncWrite:
        lane.write(op.var, op.value, done);
        return;
      case OpKind::syncFetchInc:
        lane.fetchInc(op.var, [&lane](SyncWord) { lane.done(); });
        return;
      case OpKind::pcMark:
        // mark_PC: the owner writes; a process the PC has not reached
        // yet skips without waiting. Only the owner writes a PC, so
        // the read-compare-write cannot race.
        if (lane.ownsPc()) {
            lane.write(op.var, op.value, done);
            return;
        }
        lane.read(op.var, [&lane, &op](SyncWord cur) {
            const std::uint32_t owner = sim::PcWord::owner(cur);
            const std::uint32_t self = sim::PcWord::owner(op.value);
            if (owner < self) {
                lane.skipMark();
                lane.done();
            } else if (owner > self) {
                lane.fail(ownershipViolation(op.var, owner, self));
            } else {
                lane.ownPc();
                lane.write(op.var, op.value, [&lane] { lane.done(); });
            }
        });
        return;
      case OpKind::pcTransfer:
        // transfer_PC: get_PC unless owned, then hand the PC on.
        if (lane.ownsPc()) {
            lane.write(op.var, op.value, done);
            return;
        }
        lane.waitGE(op.var, op.aux, [&lane, &op] {
            lane.ownPc();
            lane.write(op.var, op.value, [&lane] { lane.done(); });
        });
        return;
      case OpKind::ctrBarrier:
        // The arrival that completes generation `value` of `cycles`
        // processes releases it; everyone waits for the release.
        lane.fetchInc(op.var, [&lane, &op](SyncWord old) {
            auto wait = [&lane, &op] {
                lane.waitGE(op.aux, op.value, [&lane] { lane.done(); });
            };
            if (old + 1 == op.value * op.cycles)
                lane.write(op.aux, op.value, wait);
            else
                wait();
        });
        return;
      case OpKind::keyedRead:
      case OpKind::keyedWrite:
        lane.keyed(op, done);
        return;
      default:
        return;
    }
}

} // namespace ir
} // namespace psync

#endif // PSYNC_IR_SEMANTICS_HH
