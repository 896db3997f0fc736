"""Signed 64-bit interval domain for the Debuglet value analysis.

Every VM value is a 64-bit word; the analysis reasons about its *signed*
interpretation (the one ``LOAD``/``STORE`` addressing, comparisons, and
division use). An :class:`Interval` ``[lo, hi]`` abstracts the set of
signed values a word may hold; ``TOP`` is the full signed range.

Transfer functions mirror the VM bit-for-bit where an interval result is
representable and fall back to ``TOP`` whenever 64-bit wrap-around could
move a value across the signed boundary — soundness over precision. The
domain replaces the constants-only lattice the PR 2 verifier used:
singleton intervals are the old constants, so everything the constant
analysis proved is still proven, plus bounds on computed addresses and
loop induction variables (with :func:`Interval.widen` guaranteeing the
fixpoint terminates).
"""

from __future__ import annotations

from collections.abc import Callable
from functools import partial
from typing import NamedTuple, cast

from repro.sandbox.isa import Op

INT_MIN = -(1 << 63)
INT_MAX = (1 << 63) - 1
_TWO64 = 1 << 64
_MASK = _TWO64 - 1


def _to_signed(value: int) -> int:
    value &= _MASK
    return value - _TWO64 if value > INT_MAX else value


class _Bounds(NamedTuple):
    lo: int
    hi: int


class Interval(_Bounds):
    """A non-empty signed-64 interval ``[lo, hi]``.

    A plain ``(lo, hi)`` tuple underneath, so equality and hashing are
    C-level. The public constructor checks the bounds; transfer functions
    whose bounds are valid by construction build through :data:`_interval`,
    which skips the check.
    """

    __slots__ = ()

    def __new__(cls, lo: int, hi: int) -> Interval:
        if not (INT_MIN <= lo <= hi <= INT_MAX):
            raise ValueError(f"malformed interval [{lo}, {hi}]")
        return tuple.__new__(cls, (lo, hi))

    # ------------------------------------------------------------ queries

    @property
    def is_const(self) -> bool:
        return self.lo == self.hi

    @property
    def const(self) -> int | None:
        """The single value when the interval is a singleton, else None."""
        return self.lo if self.lo == self.hi else None

    @property
    def is_top(self) -> bool:
        return self.lo == INT_MIN and self.hi == INT_MAX

    def contains(self, value: int) -> bool:
        return self.lo <= _to_signed(value) <= self.hi

    def within(self, lo: int, hi: int) -> bool:
        """Is every value of the interval inside ``[lo, hi]``?"""
        return lo <= self.lo and self.hi <= hi

    def disjoint(self, lo: int, hi: int) -> bool:
        """Is the interval provably entirely outside ``[lo, hi]``?"""
        return self.hi < lo or self.lo > hi

    def render(self) -> str:
        if self.is_const:
            return str(self.lo)
        if self.is_top:
            return "[-inf, +inf]"
        lo = "-inf" if self.lo == INT_MIN else str(self.lo)
        hi = "+inf" if self.hi == INT_MAX else str(self.hi)
        return f"[{lo}, {hi}]"

    # ----------------------------------------------------------- lattice

    def join(self, other: Interval) -> Interval:
        """The hull; an operand that already covers the other comes back
        unchanged, so a join that moves nothing allocates nothing."""
        lo, hi = self
        other_lo, other_hi = other
        if lo <= other_lo:
            if other_hi <= hi:
                return self
            if lo == other_lo:
                return other
            return _interval((lo, other_hi))
        if hi <= other_hi:
            return other
        return _interval((other_lo, hi))

    def meet(self, other: Interval) -> Interval | None:
        """Intersection; None when empty (an infeasible path)."""
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        return _interval((lo, hi)) if lo <= hi else None

    def widen(self, newer: Interval) -> Interval:
        """Classic interval widening: any bound still moving jumps to
        infinity, so ascending chains stabilise in one step per bound."""
        lo = self.lo if newer.lo >= self.lo else INT_MIN
        hi = self.hi if newer.hi <= self.hi else INT_MAX
        return _interval((lo, hi))


#: ``_interval((lo, hi))``: an :class:`Interval` without the bounds check,
#: for results whose bounds are valid by construction.
_interval = cast(
    Callable[[tuple[int, int]], Interval], partial(tuple.__new__, Interval)
)


TOP = Interval(INT_MIN, INT_MAX)
BOOL = Interval(0, 1)
TRUE = Interval(1, 1)
FALSE = Interval(0, 0)


def const(value: int) -> Interval:
    """Singleton interval of the (wrapped, signed) value."""
    signed = _to_signed(value)
    return _interval((signed, signed))


def _clamped(lo: int, hi: int) -> Interval:
    """``[lo, hi]`` when representable without wrapping, else TOP."""
    if INT_MIN <= lo and hi <= INT_MAX:
        return _interval((lo, hi))
    return TOP


# ------------------------------------------------------------- arithmetic


def add(a: Interval, b: Interval) -> Interval:
    return _clamped(a.lo + b.lo, a.hi + b.hi)


def sub(a: Interval, b: Interval) -> Interval:
    return _clamped(a.lo - b.hi, a.hi - b.lo)


def mul(a: Interval, b: Interval) -> Interval:
    products = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
    return _clamped(min(products), max(products))


def _trunc_div(a: int, b: int) -> int:
    quotient = abs(a) // abs(b)
    return -quotient if (a < 0) != (b < 0) else quotient


def divs(a: Interval, b: Interval) -> Interval:
    """Truncated signed division; assumes the zero-divisor trap did not
    fire (values with ``b == 0`` never produce a result)."""
    if b.lo == 0 == b.hi:
        return TOP  # certain trap; result unreachable, anything is sound
    candidates = []
    # Divisors arbitrarily close to zero blow the quotient up to the
    # dividend itself; sampling ±1 alongside the endpoints covers it.
    for divisor in {b.lo, b.hi, -1 if b.contains(-1) else b.hi,
                    1 if b.contains(1) else b.lo}:
        if divisor == 0:
            continue
        candidates.extend(
            (_trunc_div(a.lo, divisor), _trunc_div(a.hi, divisor))
        )
    return _clamped(min(candidates), max(candidates))


def rems(a: Interval, b: Interval) -> Interval:
    """VM remainder: sign follows the dividend."""
    if b.lo == 0 == b.hi:
        return TOP
    largest = max(abs(b.lo), abs(b.hi)) - 1
    if largest < 0:
        return TOP
    lo = 0 if a.lo >= 0 else -largest
    hi = 0 if a.hi <= 0 else largest
    # A dividend already within [0, min|b|) is returned unchanged.
    smallest = min(abs(v) for v in (b.lo, b.hi) if v != 0) if not b.contains(0) \
        else None
    if smallest is not None and a.lo >= 0 and a.hi < smallest:
        return a
    return _clamped(lo, hi)


def and_(a: Interval, b: Interval) -> Interval:
    """Bitwise AND. For a non-negative operand ``m``, ``x & m`` is always
    in ``[0, m]`` whatever the sign of ``x`` (the result's bits are a
    subset of ``m``'s)."""
    bounds = []
    if a.lo >= 0:
        bounds.append(a.hi)
    if b.lo >= 0:
        bounds.append(b.hi)
    if not bounds:
        return TOP
    return _interval((0, min(bounds)))


def or_(a: Interval, b: Interval) -> Interval:
    if a.lo < 0 or b.lo < 0:
        return TOP
    bits = max(a.hi.bit_length(), b.hi.bit_length())
    return _clamped(max(a.lo, b.lo), (1 << bits) - 1)


def xor(a: Interval, b: Interval) -> Interval:
    if a.lo < 0 or b.lo < 0:
        return TOP
    bits = max(a.hi.bit_length(), b.hi.bit_length())
    return _clamped(0, (1 << bits) - 1)


def shl(a: Interval, b: Interval) -> Interval:
    """``a << (b & 63)`` with 64-bit wrap. Only the easy non-negative,
    non-wrapping case is tracked."""
    if b.lo < 0 or b.hi > 63:
        shifts = Interval(0, 63)  # the VM masks the amount
    else:
        shifts = b
    if a.lo < 0:
        return TOP
    return _clamped(a.lo << shifts.lo, a.hi << shifts.hi)


def shru(a: Interval, b: Interval) -> Interval:
    """Logical right shift of the 64-bit pattern."""
    if b.lo < 0 or b.hi > 63:
        shifts = Interval(0, 63)
    else:
        shifts = b
    if a.lo >= 0:
        return _interval((a.lo >> shifts.hi, a.hi >> shifts.lo))
    if shifts.lo >= 1:
        # A negative word becomes a large unsigned value, but any shift
        # of at least one clears the sign bit: result in [0, 2^(64-s)-1].
        return _clamped(0, (1 << (64 - shifts.lo)) - 1)
    return TOP


#: comparison op -> its abstract transfer (0, 1, or either)
COMPARES = {
    Op.EQ: lambda a, b: TRUE if (a.is_const and a == b)
    else (FALSE if a.disjoint(b.lo, b.hi) else BOOL),
    Op.NE: lambda a, b: FALSE if (a.is_const and a == b)
    else (TRUE if a.disjoint(b.lo, b.hi) else BOOL),
    Op.LTS: lambda a, b: TRUE if a.hi < b.lo
    else (FALSE if a.lo >= b.hi else BOOL),
    Op.GTS: lambda a, b: TRUE if a.lo > b.hi
    else (FALSE if a.hi <= b.lo else BOOL),
    Op.LES: lambda a, b: TRUE if a.hi <= b.lo
    else (FALSE if a.lo > b.hi else BOOL),
    Op.GES: lambda a, b: TRUE if a.lo >= b.hi
    else (FALSE if a.hi < b.lo else BOOL),
}


def compare(op: Op, a: Interval, b: Interval) -> Interval:
    """Abstract result (0/1/either) of a comparison instruction."""
    return COMPARES[op](a, b)


#: op -> op with operands swapped (``a < b`` == ``b > a``).
MIRRORED = {
    Op.EQ: Op.EQ, Op.NE: Op.NE, Op.LTS: Op.GTS, Op.GTS: Op.LTS,
    Op.LES: Op.GES, Op.GES: Op.LES,
}

#: op -> logical negation (``not (a < b)`` == ``a >= b``).
NEGATED = {
    Op.EQ: Op.NE, Op.NE: Op.EQ, Op.LTS: Op.GES, Op.GES: Op.LTS,
    Op.GTS: Op.LES, Op.LES: Op.GTS,
}


def constrain(op: Op, rhs: Interval) -> Interval:
    """The weakest interval implied for ``x`` by ``x <op> rhs`` holding.

    Meet the result with the current abstraction of ``x``; an empty meet
    marks the branch edge infeasible.
    """
    if op is Op.EQ:
        return rhs
    if op is Op.NE:
        return TOP
    if op is Op.LTS:
        return TOP if rhs.hi == INT_MIN else _interval((INT_MIN, rhs.hi - 1))
    if op is Op.LES:
        return _interval((INT_MIN, rhs.hi))
    if op is Op.GTS:
        return TOP if rhs.lo == INT_MAX else _interval((rhs.lo + 1, INT_MAX))
    if op is Op.GES:
        return _interval((rhs.lo, INT_MAX))
    raise ValueError(f"not a comparison op: {op}")


def binary(op: Op, a: Interval, b: Interval) -> Interval:
    """Dispatch one arithmetic/bitwise VM op over the domain (comparisons
    go through :func:`compare`)."""
    handler = BINARY[op]
    return handler(a, b)


#: arithmetic/bitwise op -> its abstract transfer
BINARY = {
    Op.ADD: add, Op.SUB: sub, Op.MUL: mul, Op.DIVS: divs, Op.REMS: rems,
    Op.AND: and_, Op.OR: or_, Op.XOR: xor, Op.SHL: shl, Op.SHRU: shru,
}
