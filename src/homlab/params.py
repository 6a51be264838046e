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

import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import mpmath

from .errors import ParameterError

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


def _raw_mpf_to_fraction(raw) -> Fraction:
    # a raw mpf tuple (sign, man, exp, bc) is exactly +-man * 2^exp
    sign, man, exp, _bc = raw
    man, exp = int(man), int(exp)  # may arrive as gmpy2 types
    if man == 0:
        return Fraction(0)
    value = Fraction(man, 1) * (Fraction(2) ** exp)
    return -value if sign else value


_Enclose = Callable[[mpmath.MPIntervalContext], tuple[Fraction, Fraction]]


def _enclose(
    ctx: mpmath.MPIntervalContext, expr: Callable, *values: Fraction
) -> tuple[Fraction, Fraction]:
    """Rational ends of ``expr(ctx, *intervals)`` evaluated at the precision of
    ``ctx``, an interval context private to the caller, each rational value
    entering as its enclosing interval.  No mpmath state is shared, so callers
    may run concurrently."""
    args = [ctx.mpf(q.numerator) / ctx.mpf(q.denominator) for q in map(Fraction, values)]
    raw_a, raw_b = expr(ctx, *args)._mpi_
    return _raw_mpf_to_fraction(raw_a), _raw_mpf_to_fraction(raw_b)


def log_enclosure(q: Fraction) -> tuple[Fraction, Fraction]:
    """Rigorous rational enclosure of ln(q) for q > 0, at 128 bits."""
    if q <= 0:
        raise ParameterError(f"log of nonpositive value {q}")
    return _enclose_at(128, _log, q)


def _log(ctx: mpmath.MPIntervalContext, x):
    return ctx.log(x)


def _context(prec: int) -> mpmath.MPIntervalContext:
    """This thread's interval context, set to ``prec`` bits.  Sharing it is safe:
    no evaluator given to :func:`_resolve` calls :func:`_enclose_at`."""
    ctx = getattr(_thread, "ctx", None)
    if ctx is None:
        ctx = _thread.ctx = mpmath.MPIntervalContext()
    ctx.prec = prec
    return ctx


def _enclose_at(prec: int, expr: Callable, *values: Fraction) -> tuple[Fraction, Fraction]:
    """:func:`_enclose` at ``prec`` bits in this thread's context."""
    return _enclose(_context(prec), expr, *values)


def _resolve(
    enclose: _Enclose, decide: Callable[[Fraction, Fraction], int | None]
) -> tuple[int, Fraction, Fraction]:
    """Decision (an int or bool) and final ends of the first enclosure that
    ``decide`` does not map to None, doubling the precision from 128 bits.
    Every evaluation runs in this thread's interval context."""
    prec = 128
    while prec <= _MAX_PREC:
        lo, hi = enclose(_context(prec))
        decision = decide(lo, hi)
        if decision is not None:
            return decision, lo, hi
        prec *= 2
    raise ParameterError(f"enclosure failed to resolve at {_MAX_PREC} bits")


def _ceil_fraction(q: Fraction) -> int:
    return -((-q.numerator) // q.denominator)


def _resolve_ceil(expr: _Enclose) -> int:
    """Ceiling of a real given an enclosure-producing evaluator, resolved once
    the enclosure no longer straddles an integer boundary."""
    def same_ceil(lo: Fraction, hi: Fraction) -> int | None:
        c = _ceil_fraction(lo)
        return c if c == _ceil_fraction(hi) else None
    return _resolve(expr, same_ceil)[0]


@dataclass(frozen=True)
class GrowthFunction:
    """Nondecreasing growth exponent f with 2 <= f(k) <= ln k on evaluation.

    kinds: "constant" (value, e.g. the reciprocal of a power-law exponent),
    "log-form" (scale * ln k, clamped below at 2, materialized as the rational
    lower enclosure bound so the ln-k cap is respected), or "table" (explicit
    k -> value pairs, consulted with the largest key <= k).
    """

    kind: str
    value: Fraction | None = None
    table: tuple[tuple[int, Fraction], ...] | None = None

    def __post_init__(self) -> None:
        if self.kind == "constant":
            if self.value is None or Fraction(self.value) < 2:
                raise ParameterError("constant growth value must be >= 2")
        elif self.kind == "log-form":
            if self.value is None or not 0 < Fraction(self.value) <= 1:
                raise ParameterError("log-form scale must lie in (0, 1]")
        elif self.kind == "table":
            if not self.table:
                raise ParameterError("table growth function needs entries")
            vals = [Fraction(v) for _, v in sorted(self.table)]
            if vals != sorted(vals):
                raise ParameterError("table growth function must be nondecreasing")
        else:
            raise ParameterError(f"unknown growth kind {self.kind!r}")

    @classmethod
    def constant(cls, value: Fraction) -> "GrowthFunction":
        return cls(kind="constant", value=Fraction(value))

    def __call__(self, k: int) -> Fraction:
        if self.kind == "constant":
            result = Fraction(self.value)
        elif self.kind == "log-form":
            lo, _hi = log_enclosure(Fraction(k))
            result = max(Fraction(2), Fraction(self.value) * lo)
        else:
            entries = sorted(self.table)
            result = Fraction(entries[0][1])
            for key, val in entries:
                if key <= k:
                    result = Fraction(val)
        # enforce 2 <= f(k) <= ln k against the rigorous lower log bound
        if result < 2:
            raise ParameterError(f"growth value f({k})={result} below 2")
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
    constants: tuple[Fraction, Fraction]
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
    constants: tuple[Fraction, Fraction] | None = None,
    allow_out_of_range: bool = False,
    improved_k: bool = False,
) -> TheoremParams:
    """Exact parameter tuple (epsilon, k, delta, t, ell) for a tradeoff variant.

    variants: "graph" (k = 200*ceil((1/eps) ln^4 (1/eps)), 1/delta = 16 k^(f(k)-1)),
    "uniform" (same shapes with a user constant C in place of 200), and
    "tournament" (k = C*ceil((1/eps^2) ln^4 (1/eps)), 1/delta = C' k^(f(k)-1),
    ell computed against eps^2).  ``improved_k=True`` switches to the sharper
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
    if constants is None:
        constants = (Fraction(200), Fraction(200))
    c_big, c_prime = (Fraction(c) for c in constants)
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
    elif variant == "graph":
        k = 200 * _resolve_ceil(log_pow_expr(inv, 4))
    elif variant == "uniform":
        k = int(c_big) * _resolve_ceil(log_pow_expr(inv, 4))
    else:
        k = int(c_big) * _resolve_ceil(log_pow_expr(inv_sq, 4))

    f_k = f(k)
    delta_mult = 16 if variant == "graph" else c_prime
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
        constants=(c_big, c_prime),
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
    """
    eps, k, delta, t, ell = params.epsilon, params.k, params.delta, params.t, params.ell
    checks = []

    base = 1 - eps
    # the left side bounds the exact power's bit count from below; only a power
    # of at most 128 bits prints exactly (see _fmt), so only that is computed
    if ell * (abs(base.numerator).bit_length() + base.denominator.bit_length() - 2) + 2 <= 128:
        lhs1 = base**ell
        passed1 = lhs1 <= delta
    else:
        # _fmt's "~" rendering is monotone, so ends that print alike print the power
        def decide1(lo: Fraction, hi: Fraction) -> bool | None:
            if _fmt(lo) != _fmt(hi):
                return None
            return True if hi <= delta else False if lo > delta else None

        passed1, lhs1, _ = _resolve(lambda ctx: _enclose(ctx, lambda ctx, b: b**ell, base), decide1)
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
