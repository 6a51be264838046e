import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homlab.errors import ParameterError
from homlab.params import (
    _TINY,
    GrowthFunction,
    _context,
    _enclose,
    _fmt,
    compute_params,
    log_enclosure,
    verify_inequality_chain,
)

F2 = GrowthFunction.constant(Fraction(2))


# ---------------------------------------------------------------------------
# enclosures


@given(st.fractions(min_value=Fraction(1, 10**6), max_value=Fraction(10**6)))
@settings(max_examples=150, deadline=None)
def test_log_enclosure_brackets_float_log(q):
    lo, hi = log_enclosure(q)
    assert lo <= hi
    assert float(lo) <= math.log(q) + 1e-9
    assert math.log(q) - 1e-9 <= float(hi)
    assert hi - lo < Fraction(1, 10**20)


def test_log_enclosure_rejects_nonpositive():
    with pytest.raises(ParameterError):
        log_enclosure(Fraction(0))


@pytest.mark.parametrize(
    "expr, ends",
    [
        (lambda ctx, b: b ** (1 << 21), (Fraction(0), _TINY)),  # 2^-(2^21), widened outward
        (lambda ctx, b: -(b ** (1 << 21)), (-_TINY, Fraction(0))),
        (lambda ctx, b: (1 / b) ** (1 << 21), None),  # 2^(2^21): too large to convert
        (lambda ctx, b: 1 / (b - ctx.mpf([0, 1])), None),  # infinite ends
        (lambda ctx, b: b**3, (Fraction(1, 8), Fraction(1, 8))),
    ],
)
def test_enclosure_ends_beyond_the_exponent_limit(expr, ends):
    assert _enclose(_context(128), expr, Fraction(1, 2)) == ends


# ---------------------------------------------------------------------------
# growth functions


def test_growth_constant_validation():
    with pytest.raises(ParameterError):
        GrowthFunction.constant(Fraction(3, 2))


def test_growth_upper_cap_enforced():
    f = GrowthFunction.constant(Fraction(3))
    with pytest.raises(ParameterError):
        f(10)  # ln 10 < 3
    assert f(10**9) == 3


# ---------------------------------------------------------------------------
# parameter presets and the chain


@pytest.mark.parametrize("eps_den", [128, 256, 512])
def test_chain_passes_on_presets(eps_den):
    params = compute_params("graph", Fraction(1, eps_den), F2)
    report = verify_inequality_chain(params, h=4)
    assert report.all_passed, [c.name for c in report.checks if not c.passed]


def test_preset_values_pinned():
    params = compute_params("graph", Fraction(1, 128), F2)
    # k = 200 * ceil((1/eps) ln^4(1/eps)); ln(128)^4 * 128 = 70942.99...
    assert params.k == 200 * 70943
    assert 1 / params.delta == 16 * params.k
    assert params.t == params.k**2
    # ell = ceil((1/eps) ln(1/delta))
    assert params.ell == math.ceil(128 * math.log(16 * params.k))


def test_uniform_variant_uses_constant():
    # the fixed constant 200 in both k and 1/delta
    params = compute_params("uniform", Fraction(1, 128), F2)
    assert params.k == 200 * 70943
    assert 1 / params.delta == 200 * params.k


def test_tournament_variant_scales_by_eps_squared():
    graph = compute_params("graph", Fraction(1, 128), F2)
    tour = compute_params("tournament", Fraction(1, 128), F2)
    assert tour.k > graph.k  # ln^4 term now against 1/eps^2
    assert tour.ell > 128 * tour.k // tour.k  # ell uses the 1/eps^2 scale
    ratio = Fraction(tour.ell, math.ceil(128 * 128 * math.log(float(1 / tour.delta))))
    assert abs(ratio - 1) < Fraction(1, 100)


def test_improved_k_variant_is_smaller_here():
    base = compute_params("graph", Fraction(1, 512), F2)
    improved = compute_params("graph", Fraction(1, 512), F2, improved_k=True)
    assert improved.k < base.k


def test_epsilon_range_guard():
    with pytest.raises(ParameterError):
        compute_params("graph", Fraction(1, 50), F2)
    params = compute_params("graph", Fraction(1, 50), F2, allow_out_of_range=True)
    assert params.k > 0


def test_chain_detects_corruption():
    import dataclasses

    params = compute_params("graph", Fraction(1, 128), F2)
    corrupted = dataclasses.replace(params, delta=params.delta * 2)
    report = verify_inequality_chain(corrupted, h=4)
    assert not report.all_passed
    failed = [c.name for c in report.checks if not c.passed]
    assert failed == ["inverse delta exceeds 15t/k"]


@pytest.mark.parametrize(
    "variant, den",
    [("graph", 2), ("graph", 3), ("graph", 4), ("graph", 50),
     ("tournament", 2), ("tournament", 10), ("tournament", 50)],
)
def test_shrinkage_check_renders_and_decides_like_the_exact_power(variant, den):
    # (1-eps)^ell of 19 to 672058 bits, both sides of _fmt's exact-rendering limit
    import dataclasses

    params = compute_params(variant, Fraction(1, den), F2, allow_out_of_range=True)
    power = (1 - params.epsilon) ** params.ell
    # delta = power/2 flips the decision; skipped for the power that prints as
    # ~0, where the other checks would render a 1/delta beyond float range
    for delta in [params.delta] + ([power / 2] if _fmt(power) != "~0" else []):
        check = verify_inequality_chain(dataclasses.replace(params, delta=delta), h=4).checks[0]
        assert check.lhs == f"(1-eps)^ell = {_fmt(power)}"
        assert check.passed == (power <= delta)


def test_compute_params_is_rerun_identical():
    runs = [compute_params("graph", Fraction(1, 256), F2) for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]


def test_check_operands_are_recomputable():
    params = compute_params("graph", Fraction(1, 128), F2)
    report = verify_inequality_chain(params, h=4)
    for check in report.checks:
        assert check.lhs and check.rhs  # stored exact operands render non-empty


def test_concurrent_callers_match_a_single_threaded_run():
    def run():
        out = []
        for _ in range(3):
            params = compute_params("graph", Fraction(1, 128), F2)
            report = verify_inequality_chain(params, h=4)
            out.append((params, [(c.name, c.lhs, c.rhs, c.passed) for c in report.checks]))
        return out

    expected = run()
    prec_before = mpmath.iv.prec
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            start = threading.Barrier(4)

            def racer():
                start.wait(timeout=60)
                return run()

            with ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(racer) for _ in range(4)]
                results = [f.result(timeout=120) for f in futures]
            assert results == [expected] * 4
            assert mpmath.iv.prec == prec_before
    finally:
        sys.setswitchinterval(old_interval)


def test_one_call_builds_one_interval_context_per_thread(monkeypatch):
    built = []

    class CountingContext(mpmath.MPIntervalContext):
        def __init__(self):
            super().__init__()
            built.append(self)

    monkeypatch.setattr(mpmath, "MPIntervalContext", CountingContext)

    def call():
        verify_inequality_chain(compute_params("graph", Fraction(1, 128), F2), h=4)

    with ThreadPoolExecutor(1) as pool:  # a fresh thread, with no context yet
        pool.submit(call).result(timeout=60)
    assert len(built) == 1
