/**
 * @file
 * Floating-point results that IEEE-754 and C leave open, pinned down.
 *
 * IEEE-754 does not say which NaN an operation with two NaN operands
 * returns, and C lets fmin/fmax return either operand when they compare
 * equal (+0 and -0). The host decides both by instruction operand
 * order, and the compiler may swap the operands of a commutative
 * operation (+, *, fma's multiplicands, fmin, fmax), differently in one
 * code path than in another, so the same opcode could give two answers.
 * Each helper takes the operands and the host's result as register bits
 * (F names the format) and fixes the open cases:
 *  - inOrder (+, *) and inOrder3 (fma): a NaN operand makes the
 *    result the first NaN operand, quieted — what x86 SSE arithmetic
 *    returns with the operands in source order;
 *  - minMax (fmin, fmax): a lone quiet NaN yields the other operand,
 *    a lone signaling NaN itself, quieted, two NaNs the first, quieted;
 *    equal operands (+0 and -0 included) yield the second — what
 *    x86-64 glibc fmin/fmax return with the operands in order.
 * Ordinary operands get the host's result unchanged.
 *
 * C also leaves a float→integer conversion undefined when the value
 * is NaN or out of the destination's range, and the host answers
 * differently in scalar and in vectorized code. toInt defines it for
 * every input.
 */

#ifndef LAST_ARCH_FP_PIN_HH
#define LAST_ARCH_FP_PIN_HH

#include <bit>
#include <cstdint>
#include <limits>
#include <type_traits>

namespace last::arch::fp
{

template <typename F>
using Bits = std::conditional_t<sizeof(F) == 4, uint32_t, uint64_t>;

template <typename F>
constexpr Bits<F> kSign = Bits<F>(1) << (sizeof(F) * 8 - 1);
template <typename F>
constexpr Bits<F> kInf =
    std::bit_cast<Bits<F>>(std::numeric_limits<F>::infinity());
/** The most significant mantissa bit: set in a quiet NaN. */
template <typename F>
constexpr Bits<F> kQuiet = Bits<F>(1)
                           << (std::numeric_limits<F>::digits - 2);

template <typename F>
constexpr bool
isNaN(Bits<F> x)
{
    return (x & ~kSign<F>) > kInf<F>;
}

/** All ones when `x` is a NaN, else zero (one unordered compare in a
 *  vectorized loop). */
template <typename F>
constexpr Bits<F>
nanMask(Bits<F> x)
{
    const F f = std::bit_cast<F>(x);
    return Bits<F>(0) - Bits<F>(f != f);
}

/** Written with masks, not branches, so that the lane loops around it
 *  still vectorize. */
template <typename F>
constexpr Bits<F>
inOrder(Bits<F> x, Bits<F> y, Bits<F> r)
{
    const Bits<F> nx = nanMask<F>(x);
    const Bits<F> ny = nanMask<F>(y) & ~nx;
    const Bits<F> pinned = ((x & nx) | (y & ny)) | kQuiet<F>;
    return (r & ~(nx | ny)) | (pinned & (nx | ny));
}

/** inOrder over three operands (fma), so that a NaN addend does not
 *  depend on the host library either. */
template <typename F>
constexpr Bits<F>
inOrder3(Bits<F> x, Bits<F> y, Bits<F> z, Bits<F> r)
{
    return inOrder<F>(x, y, inOrder<F>(z, z, r));
}

template <typename F>
constexpr Bits<F>
minMax(Bits<F> x, Bits<F> y, Bits<F> r)
{
    const bool nx = isNaN<F>(x), ny = isNaN<F>(y);
    if (nx && ny)
        return x | kQuiet<F>;
    if (nx)
        return (x & kQuiet<F>) ? y : (x | kQuiet<F>);
    if (ny)
        return (y & kQuiet<F>) ? x : (y | kQuiet<F>);
    const bool equal = x == y || ((x | y) & ~kSign<F>) == 0;
    return equal ? y : r;
}

/**
 * Float to integer I, defined for every input: truncation toward zero,
 * NaN to 0, and values beyond I's range saturated to its bounds (±inf
 * included) — what the GCN3 ISA documents for V_CVT_*. Written with
 * selects, and the cast sees only values it defines, so that lane
 * loops around it still vectorize and -fsanitize=float-cast-overflow
 * stays quiet.
 */
template <typename I, typename F>
constexpr I
toInt(F x)
{
    constexpr I kMin = std::numeric_limits<I>::min();
    constexpr I kMax = std::numeric_limits<I>::max();
    /** 2^(value bits of I): the first value above the range, exact in
     *  F. */
    constexpr F kLimit = F(kMax / 2 + 1) * F(2);
    const bool high = x >= kLimit;
    const F in = (x != x || high) ? F(0) : x < F(kMin) ? F(kMin) : x;
    return high ? kMax : I(in);
}

} // namespace last::arch::fp

#endif // LAST_ARCH_FP_PIN_HH
