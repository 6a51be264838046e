"""Parameter calculators and inequality-chain verifiers for the
count-tradeoff theorems.

All parameters are exact (integers and Fractions).  Transcendental
subexpressions (logs, fractional powers, and long powers as the exp of a log)
are evaluated as interval enclosures in private mpmath interval contexts, one
per thread, so callers may run concurrently.  One resolver doubles the working
precision until an enclosure decides a ceiling or a chain check, so results
are deterministic and platform-independent.  This module decides and prints
every power of the chain, (1-eps)^ell included, for :mod:`homlab.containers`
as well.
"""

from __future__ import annotations

import decimal
import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, TypeVar

import mpmath

from .errors import CapabilityError, ParameterError
from .graphs import _MAX_READ_N

__all__ = [
    "GrowthFunction",
    "TheoremParams",
    "ChainCheck",
    "ChainReport",
    "compute_params",
    "verify_inequality_chain",
    "log_enclosure",
]

_MAX_PREC = 1 << 16
_BOUND_DIGITS = 4300  # Python's default limit on converting an int to decimal text
_BOUND_LIMIT = 10**_BOUND_DIGITS  # the least integer with too many digits to print
_thread = threading.local()  # holds this thread's interval context, built on first use


# An enclosure end above 2^_MAX_EXP in magnitude is not converted: its Fraction
# would carry that many bits.  One below 2^-_MAX_EXP is widened outward.
_MAX_EXP = 1 << 20
_TINY = Fraction(1, 1 << _MAX_EXP)


def _raw_mpf_to_fraction(raw, upper: bool) -> Fraction | None:
    """The value of the raw mpf end (sign, man, exp, bc), exactly +-man * 2^exp,
    or None if infinite or above 2^_MAX_EXP in magnitude.  Below 2^-_MAX_EXP
    in magnitude a lower end is widened down and an upper end up, to 0 or
    +-2^-_MAX_EXP, so the enclosure stays rigorous."""
    sign, man, exp, bc = raw
    man, exp = int(man), int(exp)  # may arrive as gmpy2 types
    if man == 0:  # zero is (0, 0, 0, 0); the infinities and nan carry a nonzero exp
        return None if exp else Fraction(0)
    top = exp + int(bc)  # 2^(top-1) <= |value| < 2^top
    if top > _MAX_EXP:
        return None
    if top < -_MAX_EXP:
        if upper == bool(sign):  # the end nearer zero
            return Fraction(0)
        return -_TINY if sign else _TINY
    value = Fraction(man, 1) * (Fraction(2) ** exp)
    return -value if sign else value


_T = TypeVar("_T")


def _enclose(
    ctx: mpmath.MPIntervalContext, expr: Callable, *values: Fraction
) -> tuple[Fraction, Fraction] | None:
    """Rational ends of ``expr(ctx, *intervals)`` evaluated at the precision of
    ``ctx``, an interval context private to the caller, each rational value
    entering as its enclosing interval; None if an end is infinite or too large
    to convert, which a log of a rational never is.  No mpmath state is
    shared, so callers may run concurrently."""
    args = [ctx.mpf(q.numerator) / ctx.mpf(q.denominator) for q in map(Fraction, values)]
    raw_a, raw_b = expr(ctx, *args)._mpi_
    lo, hi = _raw_mpf_to_fraction(raw_a, False), _raw_mpf_to_fraction(raw_b, True)
    return None if lo is None or hi is None else (lo, hi)


def log_enclosure(q: Fraction) -> tuple[Fraction, Fraction]:
    """Rigorous rational enclosure of ln(q) for q > 0, at 128 bits."""
    if q <= 0:
        raise ParameterError(f"log of nonpositive value {q}")
    return _enclose(_context(128), _log, q)


def _log(ctx: mpmath.MPIntervalContext, x):
    return ctx.log(x)


def _context(prec: int) -> mpmath.MPIntervalContext:
    """This thread's interval context, set to ``prec`` bits.  Sharing it is safe:
    no evaluator given to :func:`_resolve` calls :func:`log_enclosure`."""
    ctx = getattr(_thread, "ctx", None)
    if ctx is None:
        ctx = _thread.ctx = mpmath.MPIntervalContext()
    ctx.prec = prec
    return ctx


def _resolve(
    decide: Callable[[Fraction, Fraction], _T | None], expr: Callable, *values: Fraction
) -> tuple[_T, Fraction, Fraction]:
    """Decision (an int, bool or str) and final ends of the first enclosure of
    ``expr`` at ``values`` (see :func:`_enclose`) that ``decide`` does not map
    to None, doubling the precision from 128 bits; an enclosure too large to
    convert is undecided.  Every evaluation runs in this thread's interval
    context."""
    prec = 128
    while prec <= _MAX_PREC:
        ends = _enclose(_context(prec), expr, *values)
        decision = None if ends is None else decide(*ends)
        if decision is not None:
            return decision, *ends
        prec *= 2
    raise ParameterError(f"enclosure failed to resolve at {_MAX_PREC} bits")


def _resolve_ceil(expr: Callable, *values: Fraction) -> int:
    """Ceiling of ``expr`` at ``values``, resolved once the enclosure no longer
    straddles an integer boundary."""
    def same_ceil(lo: Fraction, hi: Fraction) -> int | None:
        c = math.ceil(lo)
        return c if c == math.ceil(hi) else None
    return _resolve(same_ceil, expr, *values)[0]


@dataclass(frozen=True)
class GrowthFunction:
    """Constant growth exponent f (for example the reciprocal of a power-law
    exponent), at least 2 and checked against f(k) <= ln k on evaluation."""

    value: Fraction

    def __post_init__(self) -> None:
        if Fraction(self.value) < 2:
            raise ParameterError("constant growth value must be >= 2")

    @classmethod
    def constant(cls, value: Fraction) -> "GrowthFunction":
        return cls(Fraction(value))

    def __call__(self, k: int) -> Fraction:
        result = Fraction(self.value)
        # enforce f(k) <= ln k against the rigorous lower log bound
        lo, _ = log_enclosure(Fraction(k))
        if result > lo:
            raise ParameterError(f"growth value f({k})={result} exceeds ln {k} enclosure {lo}")
        return result


@dataclass(frozen=True)
class TheoremParams:
    epsilon: Fraction
    k: int
    delta: Fraction
    t: int
    ell: int
    variant: str
    f_of_k: Fraction


def _pow_ceil(base: int, exponent: Fraction) -> int:
    """Ceiling of base**exponent for base >= 1, exact when the exponent is an
    integer, enclosure-resolved otherwise."""
    exponent = Fraction(exponent)
    if exponent.denominator == 1:
        return base ** exponent.numerator
    return _resolve_ceil(lambda ctx, b, e: b**e, base, exponent)


def compute_params(
    variant: str,
    epsilon: Fraction,
    f: GrowthFunction,
    allow_out_of_range: bool = False,
    improved_k: bool = False,
) -> TheoremParams:
    """Exact parameter tuple (epsilon, k, delta, t, ell) for a tradeoff variant.

    variants: "graph" (k = 200*ceil((1/eps) ln^4 (1/eps)), 1/delta = 16 k^(f(k)-1)),
    "uniform" (the same k, 1/delta = 200 k^(f(k)-1)), and "tournament"
    (k = 200*ceil((1/eps^2) ln^4 (1/eps)), 1/delta = 200 k^(f(k)-1), ell
    computed against eps^2).  ``improved_k=True`` switches to the sharper
    k = 200*ceil((1/eps) ln^2(1/eps) f((1/eps) ln^4(1/eps))^2) form (report-only
    alternative).
    """
    eps = Fraction(epsilon)
    if not (0 < eps < Fraction(1, 100) or allow_out_of_range):
        raise ParameterError(f"epsilon={eps} outside (0, 1/100); pass allow_out_of_range to explore")
    if variant not in ("graph", "uniform", "tournament"):
        raise ParameterError(f"unknown variant {variant!r}")
    inv = 1 / eps
    scale = inv * inv if variant == "tournament" else inv  # of ln^4(1/eps) in k, and of ell

    def log_pow(power: int) -> Callable:  # c * ln(x)^power
        return lambda ctx, x, c: c * ctx.log(x) ** power

    if improved_k:
        f_inner = f(max(_resolve_ceil(log_pow(4), inv, inv), 2))
        k = 200 * _resolve_ceil(log_pow(2), inv, inv * f_inner**2)
    else:
        k = 200 * _resolve_ceil(log_pow(4), inv, scale)

    f_k = f(k)
    too_long = CapabilityError(f"1/delta or t has more than {_BOUND_DIGITS} digits")
    if f_k * (k.bit_length() - 1) >= _BOUND_LIMIT.bit_length():  # t >= 2^that, refused unresolved
        raise too_long
    inv_delta = Fraction(16 if variant == "graph" else 200) * _pow_ceil(k, f_k - 1)
    t = _pow_ceil(k, f_k)
    if max(inv_delta, t) >= _BOUND_LIMIT:
        raise too_long
    ell = _resolve_ceil(log_pow(1), inv_delta, scale)
    return TheoremParams(epsilon=eps, k=k, delta=1 / inv_delta, t=t, ell=ell, variant=variant,
                         f_of_k=f_k)


@dataclass(frozen=True)
class ChainCheck:
    name: str
    lhs: str
    rhs: str
    passed: bool


@dataclass(frozen=True)
class ChainReport:
    checks: tuple[ChainCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_inequality_chain(params: TheoremParams, h: int) -> ChainReport:
    """Exact verification of the four parameter inequalities:

    (i)  (1-eps)^ell <= delta                (container applicability)
    (ii) k/ell >= ln(1/delta)                (segment budget adequacy)
    (iii) 1/delta > 15*t/k                   (count-gap direction)
    (iv) (delta/k)^(h-1) < 1/(2^(h+1) t^(h-1))  (copy threshold dominance)

    (iii) is a pure rational comparison, and so is (iv) for h <= 3, where it
    can be a tie.  (i) is ell >= minimal_ell(1/delta, eps, 1).  (ii), and (iv)
    for h >= 4 as (h-1) ln(delta t/k) + (h+1) ln 2 < 0, are decided from
    rigorous enclosures of logs, doubling precision until the enclosure no
    longer straddles the comparison value.  No power is formed that the report
    would not print exactly (see :func:`_power_text`).

    h is a pattern's vertex count: at least 1, and at most the largest graph
    the reader accepts, since a pattern has at most that many vertices.
    """
    if h < 1:
        raise ParameterError(f"pattern order h must be at least 1, got {h}")
    if h > _MAX_READ_N:
        raise CapabilityError(f"pattern order h capped at {_MAX_READ_N}, got {h}")
    eps, k, delta, t, ell = params.epsilon, params.k, params.delta, params.t, params.ell
    lhs1 = _power_text(1 - eps, ell)
    checks = [ChainCheck("shrinkage reaches container size", f"(1-eps)^ell = {lhs1}",
                         f"delta = {_fmt(delta)}", ell >= minimal_ell(1 / delta, eps, 1))]

    ratio = Fraction(k, ell)
    passed2, lo, hi = _resolve(lambda lo, hi: True if ratio >= hi else False if ratio < lo else None,
                               _log, 1 / delta)
    checks.append(
        ChainCheck("budget dominates log(1/delta)", f"k/ell = {_fmt(ratio)}",
                   f"ln(1/delta) in [{_fmt(lo)}, {_fmt(hi)}]", passed2)
    )

    lhs3 = 1 / delta
    rhs3 = Fraction(15 * t, k)
    checks.append(
        ChainCheck("inverse delta exceeds 15t/k", f"1/delta = {_fmt(lhs3)}",
                   f"15t/k = {_fmt(rhs3)}", lhs3 > rhs3)
    )

    gap = delta * t / k  # (iv) is gap^(h-1) * 2^(h+1) < 1
    if h <= 3:
        passed4 = gap ** (h - 1) * 2 ** (h + 1) < 1
    else:
        passed4 = _resolve(lambda lo, hi: None if lo <= 0 <= hi else hi < 0,
                           lambda ctx, x: (h - 1) * ctx.log(x) + (h + 1) * ctx.ln2, gap)[0]
    lhs4 = _power_text(delta / k, h - 1)
    rhs4 = _power_text(Fraction(1, t), h - 1, Fraction(1, 2 ** (h + 1)))
    checks.append(
        ChainCheck("copy budget below count threshold", f"(delta/k)^(h-1) = {lhs4}",
                   f"1/(2^(h+1) t^(h-1)) = {rhs4}", passed4)
    )
    return ChainReport(tuple(checks))


_EXACT_STEPS = 64  # ell tried by multiplying out the powers before any enclosure


def _can_tie(a: int, q: int, m: int) -> bool:
    """Whether q^m divides a.  With 1-eps = p/q and n = a/b in lowest terms,
    (1-eps)^m * n = p^m a / (b q^m) can equal an integer only then, since p
    and q are coprime.  q^m is formed only when it may be at most a, so it
    has at most twice a's bits."""
    return m * (q.bit_length() - 1) < a.bit_length() and a % q**m == 0


def minimal_ell(n: Fraction, epsilon: Fraction, u: int) -> int:
    """Smallest ell with (1-eps)^ell * n <= u, in exact arithmetic.

    With 1-eps = p/q and n = a/b in lowest terms the test is p^ell a <=
    u b q^ell, which is decided in integers for ell up to 64.  A larger ell is
    the ceiling of (ln a - ln(u b)) / ln(q/p), which an interval enclosure at
    doubling precision decides.  An enclosure straddles an integer m for
    ever only if the ratio equals m, which needs q^m to divide a; so where it
    straddles one integer m and q^m divides a, the one exact power
    p^m a <= u b q^m decides, and no other power is formed."""
    eps = Fraction(epsilon)
    if not 0 < eps <= 1:
        raise ParameterError(f"epsilon={eps} outside (0,1]")
    if n > u and (u < 0 or (u == 0 and eps < 1)):
        raise ParameterError(f"(1-eps)^ell * n stays above u={u} for every ell")
    if eps == 1:
        return int(n > u)
    p, q = eps.denominator - eps.numerator, eps.denominator  # 1-eps = p/q, in lowest terms
    a, b = Fraction(n).as_integer_ratio()
    lhs, rhs = a, u * b
    for ell in range(_EXACT_STEPS + 1):
        if lhs <= rhs:
            return ell
        lhs, rhs = lhs * p, rhs * q

    def ceil_or_power(lo: Fraction, hi: Fraction) -> int | None:
        m = math.ceil(lo)  # m-1 < lo <= ratio <= hi
        if m == math.ceil(hi):
            return m
        if hi <= m + 1 and _can_tie(a, q, m):  # the ratio lies in (m-1, m+1]
            return m if p**m * a <= u * b * q**m else m + 1
        return None

    return _resolve(ceil_or_power, lambda ctx, x, y, z: (ctx.log(x) - ctx.log(y)) / ctx.log(z),
                    a, b * u, Fraction(q, p))[0]  # n/u unreduced: no gcd of a and b u


def _size(q: Fraction) -> int:
    """Bits of numerator and denominator: _fmt prints a non-integer exactly up to 128."""
    return q.numerator.bit_length() + q.denominator.bit_length()


def _power_text(base: Fraction, exponent: int, scale: Fraction = Fraction(1)) -> str:
    """``_fmt(scale * base**exponent)``, for a positive base and scale whose
    value is no integer above 128 bits, without forming a power that _fmt
    would print as "~".  The value is formed exactly while a lower bound on
    its _size is at most 128.  Otherwise it is ~0 once an enclosure of its
    log, exponent*ln(base) + ln(scale), lies below ln 2^-1075, where floats
    end; else it is what both ends of an enclosure of its exp print, since
    _fmt's "~" text is monotone (an end of 0, widened from below
    2^-_MAX_EXP, prints as ~0)."""
    base, scale = Fraction(base), Fraction(scale)
    # for base p/q and scale a/b, numerator * denominator >= (p*q)^exponent / (a*b)
    if exponent * (_size(base) - 2) - (scale.numerator * scale.denominator).bit_length() < 128:
        return _fmt(scale * base**exponent)

    def expr(ctx, b, s):
        log, floor = exponent * ctx.log(b) + ctx.log(s), -1075 * ctx.ln2
        if log < floor:
            return ctx.mpf(0)
        # mpmath takes the exp of a log far below the floor or above 2^20 as a
        # long power; a log that may lie there is left undecided, like an infinite end
        return ctx.exp(log) if floor < log < _MAX_EXP else ctx.mpf([0, ctx.inf])

    def same_text(lo: Fraction, hi: Fraction) -> str | None:
        lo_text, hi_text = (_fmt(end) if end else "~0" for end in (lo, hi))
        return lo_text if lo_text == hi_text else None

    return _resolve(same_text, expr, base, scale)[0]


def _fmt(q: Fraction) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    if _size(q) <= 128:
        return f"{q.numerator}/{q.denominator}"
    try:
        return f"~{float(q):.12g}"
    except OverflowError:  # beyond the float range: 12 significant digits in decimal
        with decimal.localcontext(prec=12):
            return f"~{(decimal.Decimal(q.numerator) / q.denominator).normalize():.12g}"
