"""Parameter calculators and inequality-chain verifiers for the
count-tradeoff theorems.

All parameters are exact (integers and Fractions).  Transcendental
subexpressions (logs, fractional and long powers) are evaluated as interval
enclosures in private mpmath interval contexts, one per thread, so callers
may run concurrently.  One resolver doubles the working precision until an
enclosure decides a ceiling or a chain check, so results are deterministic
and platform-independent.
"""

from __future__ import annotations

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


_Enclose = Callable[[mpmath.MPIntervalContext], tuple[Fraction, Fraction] | None]
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
    enclose: _Enclose, decide: Callable[[Fraction, Fraction], _T | None]
) -> tuple[_T, Fraction, Fraction]:
    """Decision (an int, bool or str) and final ends of the first enclosure that
    ``decide`` does not map to None, doubling the precision from 128 bits; an
    enclosure too large to convert is undecided.  Every evaluation runs in
    this thread's interval context."""
    prec = 128
    while prec <= _MAX_PREC:
        ends = enclose(_context(prec))
        decision = None if ends is None else decide(*ends)
        if decision is not None:
            return decision, *ends
        prec *= 2
    raise ParameterError(f"enclosure failed to resolve at {_MAX_PREC} bits")


def _resolve_ceil(expr: _Enclose) -> int:
    """Ceiling of a real given an enclosure-producing evaluator, resolved once
    the enclosure no longer straddles an integer boundary."""
    def same_ceil(lo: Fraction, hi: Fraction) -> int | None:
        c = math.ceil(lo)
        return c if c == math.ceil(hi) else None
    return _resolve(expr, same_ceil)[0]


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
    return _resolve_ceil(lambda ctx: _enclose(ctx, lambda ctx, b, e: b**e, base, exponent))


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
    if not 0 < eps < Fraction(1, 100):
        if not allow_out_of_range:
            raise ParameterError(
                f"epsilon={eps} outside (0, 1/100); pass allow_out_of_range to explore"
            )
    if variant not in ("graph", "uniform", "tournament"):
        raise ParameterError(f"unknown variant {variant!r}")
    inv = 1 / eps
    inv_sq = inv * inv

    def log_pow_expr(scale: Fraction, power: int) -> _Enclose:
        def expr(ctx: mpmath.MPIntervalContext) -> tuple[Fraction, Fraction]:
            lo, hi = _enclose(ctx, _log, inv)
            lo = max(lo, Fraction(0))
            return scale * lo**power, scale * hi**power
        return expr

    if improved_k:
        inner = _resolve_ceil(log_pow_expr(inv, 4))
        f_inner = f(max(inner, 2))
        k = 200 * _resolve_ceil(log_pow_expr(inv * f_inner**2, 2))
    elif variant == "tournament":
        k = 200 * _resolve_ceil(log_pow_expr(inv_sq, 4))
    else:
        k = 200 * _resolve_ceil(log_pow_expr(inv, 4))

    f_k = f(k)
    delta_mult = 16 if variant == "graph" else 200
    inv_delta = Fraction(delta_mult) * _pow_ceil(k, f_k - 1)
    delta = 1 / inv_delta
    t = _pow_ceil(k, f_k)

    ell_scale = inv_sq if variant == "tournament" else inv

    def ell_expr(ctx: mpmath.MPIntervalContext) -> tuple[Fraction, Fraction]:
        lo, hi = _enclose(ctx, _log, inv_delta)
        return ell_scale * lo, ell_scale * hi

    ell = _resolve_ceil(ell_expr)
    return TheoremParams(
        epsilon=eps,
        k=k,
        delta=delta,
        t=t,
        ell=ell,
        variant=variant,
        f_of_k=f_k,
    )


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

    (iii) and (iv) are pure rational comparisons.  (i) and (ii) are decided
    from rigorous enclosures (of the power and of the log), doubling precision
    until the enclosure no longer straddles the comparison value.

    h is a pattern's vertex count: at least 1, and at most the largest graph
    the reader accepts, since (iv) builds powers with h - 1 times the bits of
    delta/k and of t.
    """
    if h < 1:
        raise ParameterError(f"pattern order h must be at least 1, got {h}")
    if h > _MAX_READ_N:
        raise CapabilityError(f"pattern order h capped at {_MAX_READ_N}, got {h}")
    eps, k, delta, t, ell = params.epsilon, params.k, params.delta, params.t, params.ell
    checks = []

    base = 1 - eps
    # the left side bounds the exact power's bit count from below; only a power
    # of at most 128 bits prints exactly (see _fmt), so only that is computed
    if ell * (abs(base.numerator).bit_length() + base.denominator.bit_length() - 2) + 2 <= 128:
        lhs1 = base**ell
        passed1 = lhs1 <= delta
    else:
        # _fmt's "~" rendering is monotone, so ends that print alike print the
        # power; the power is positive, so a lower end of 0 is one that _enclose
        # widened from below 2^-_MAX_EXP, and such a power prints as ~0
        def decide1(lo: Fraction, hi: Fraction) -> bool | None:
            if (_fmt(lo) if lo else "~0") != _fmt(hi):
                return None
            return True if hi <= delta else False if lo > delta else None

        passed1, _, lhs1 = _resolve(lambda ctx: _enclose(ctx, lambda ctx, b: b**ell, base), decide1)
    checks.append(
        ChainCheck("shrinkage reaches container size", f"(1-eps)^ell = {_fmt(lhs1)}",
                   f"delta = {_fmt(delta)}", passed1)
    )

    ratio = Fraction(k, ell)
    passed2, lo, hi = _resolve(
        lambda ctx: _enclose(ctx, _log, 1 / delta),
        lambda lo, hi: True if ratio >= hi else False if ratio < lo else None,
    )
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

    lhs4 = (delta / k) ** (h - 1)
    rhs4 = Fraction(1, 2 ** (h + 1) * t ** (h - 1))
    checks.append(
        ChainCheck("copy budget below count threshold", f"(delta/k)^(h-1) = {_fmt(lhs4)}",
                   f"1/(2^(h+1) t^(h-1)) = {_fmt(rhs4)}", lhs4 < rhs4)
    )
    return ChainReport(tuple(checks))


def _fmt(q: Fraction) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    if q.numerator.bit_length() + q.denominator.bit_length() > 128:
        return f"~{float(q):.12g}"
    return f"{q.numerator}/{q.denominator}"
