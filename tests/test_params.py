import dataclasses
import decimal
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homlab.errors import CapabilityError, ParameterError
from homlab.params import (
    _TINY,
    _context,
    _enclose,
    _fmt,
    _log,
    compute_params,
    verify_inequality_chain,
)

F2 = Fraction(2)


# ---------------------------------------------------------------------------
# enclosures


@given(st.fractions(min_value=Fraction(1, 10**6), max_value=Fraction(10**6)))
@settings(max_examples=150, deadline=None)
def test_log_enclosure_brackets_float_log(q):
    lo, hi = _enclose(_context(128), _log, q)
    assert lo <= hi
    assert float(lo) <= math.log(q) + 1e-9
    assert math.log(q) - 1e-9 <= float(hi)
    assert hi - lo < Fraction(1, 10**20)


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
# the growth value


def test_growth_constant_validation():
    # f < 2 is refused before epsilon is looked at
    with pytest.raises(ParameterError, match="constant growth value must be >= 2"):
        compute_params("graph", Fraction(1, 2), Fraction(3, 2))


# at eps = 1/128, k = 14,188,600 and ln k = 16.467949383240012351002272465040779482207692961822...
LN_K_FLOOR = Fraction(16467949383240012351002272465040779482207692961, 10**45)


def test_growth_upper_cap_enforced():
    for f in (Fraction(17), LN_K_FLOOR + Fraction(1, 10**45)):
        with pytest.raises(ParameterError, match=rf"growth value f\(14188600\)={f} exceeds ln 14188600$"):
            compute_params("graph", Fraction(1, 128), f)
    assert compute_params("graph", Fraction(1, 128), Fraction(16)).f_of_k == 16


def test_growth_value_just_below_ln_k_is_accepted():
    params = compute_params("graph", Fraction(1, 128), LN_K_FLOOR)
    assert params.k == 14188600 and params.f_of_k == LN_K_FLOOR
    assert verify_inequality_chain(params, h=4).all_passed


def test_improved_k_checks_the_growth_value_at_the_inner_k():
    # ceil(512 ln^4 512) = 775,429 and ln 775,429 = 13.56... < 14 <= ln k = ln 155,085,800
    with pytest.raises(ParameterError, match=r"f\(775429\)=14 exceeds ln 775429"):
        compute_params("graph", Fraction(1, 512), Fraction(14), improved_k=True)
    assert compute_params("graph", Fraction(1, 512), Fraction(14)).k == 155085800


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


# ---------------------------------------------------------------------------
# the chain's powers against the exact powers


def reference_powers(params, h):
    """Checks (i) and (iv) from the exact powers: their (lhs, rhs, passed)."""
    eps, k, delta, t, ell = params.epsilon, params.k, params.delta, params.t, params.ell
    power = (1 - eps) ** ell
    lhs4, rhs4 = (delta / k) ** (h - 1), Fraction(1, 2 ** (h + 1) * t ** (h - 1))
    return [(f"(1-eps)^ell = {_fmt(power)}", f"delta = {_fmt(delta)}", power <= delta),
            (f"(delta/k)^(h-1) = {_fmt(lhs4)}", f"1/(2^(h+1) t^(h-1)) = {_fmt(rhs4)}", lhs4 < rhs4)]


@settings(max_examples=40, deadline=None)
@given(
    q=st.integers(2, 2**12),
    h=st.integers(1, 64),
    variant=st.sampled_from(["graph", "uniform"]),
    f=st.sampled_from([Fraction(2), Fraction(5, 2), Fraction(3)]),
    # 2, 4 and 8 make delta*t/k a power of two for f = 2: ties of (iv) at h = 2, 3
    scale=st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3), Fraction(4),
                           Fraction(8)]),
)
@example(q=2**12, h=64, variant="graph", f=Fraction(2), scale=Fraction(1))  # ell = 101,836
@example(q=2**12, h=4, variant="uniform", f=Fraction(3), scale=Fraction(1, 2))
@example(q=2, h=1, variant="graph", f=Fraction(2), scale=Fraction(2))
def test_chain_powers_render_and_decide_like_the_exact_powers(q, h, variant, f, scale):
    params = compute_params(variant, Fraction(1, q), f, allow_out_of_range=True)
    params = dataclasses.replace(params, delta=params.delta * scale)
    checks = verify_inequality_chain(params, h).checks
    assert [(c.lhs, c.rhs, c.passed) for c in (checks[0], checks[3])] == reference_powers(params, h)


@pytest.mark.parametrize("variant, q", [("graph", 2), ("graph", 3), ("graph", 128), ("tournament", 10)])
def test_shrinkage_check_passes_at_a_tie(variant, q):
    # delta = (1-eps)^ell: minimal_ell(1/delta, eps, 1) = ell, a tie decided exactly
    params = compute_params(variant, Fraction(1, q), F2, allow_out_of_range=True)
    params = dataclasses.replace(params, delta=(1 - params.epsilon) ** params.ell)
    assert verify_inequality_chain(params, h=4).checks[0].passed
    assert reference_powers(params, 4)[0][2]


@pytest.mark.parametrize("h", [2, 3])
def test_copy_check_is_false_at_a_tie(h):
    # delta*t/k = 2^(-(h+1)/(h-1)), 1/8 at h = 2 and 1/4 at h = 3, makes the two sides of (iv) equal
    params = compute_params("graph", Fraction(1, 128), F2)
    params = dataclasses.replace(params, delta=params.delta * 2 ** (4 - (h + 1) // (h - 1)))
    assert reference_powers(params, h)[1][2] is False
    assert verify_inequality_chain(params, h).checks[3].passed is False


# ---------------------------------------------------------------------------
# rendering


@settings(max_examples=100, deadline=None)
@given(m=st.integers(10**11, 10**12 - 1), e=st.integers(309, 5000), den=st.integers(2, 10**6))
@example(m=10**11, e=309, den=3)
@example(m=15 * 10**10, e=5000, den=7)
@example(m=10**12 - 1, e=400, den=2)
def test_values_beyond_the_float_range_render_with_12_digits(m, e, den):
    # m * 10^(e-11) plus a fraction below 1, so its first 12 digits are m's
    q = Fraction(m * 10 ** (e - 11) * den + 1, den)
    digits = str(m).rstrip("0")
    mantissa = digits[0] + ("." + digits[1:] if digits[1:] else "")
    assert _fmt(q) == f"~{mantissa}e+{e}"


def test_rendering_beyond_the_float_range_runs_on_the_python_3_10_decimal_api(monkeypatch):
    # Python 3.10's localcontext takes the context as its one argument, no keywords
    localcontext = decimal.localcontext
    monkeypatch.setattr(decimal, "localcontext", lambda ctx=None: localcontext(ctx))
    params = compute_params("graph", Fraction(1, 10**8), Fraction(51, 2))
    assert verify_inequality_chain(params, h=4).checks[2].rhs == "15t/k = ~3.55862618941e+377"


def test_rendering_is_continuous_at_the_end_of_the_float_range():
    largest_float = 2**1024 - 2**971
    assert _fmt(Fraction(largest_float * 3 + 1, 3)) == f"~{float(largest_float):.12g}"
    assert _fmt(Fraction(2**1024 * 3 + 1, 3)) == "~1.79769313486e+308"
    assert _fmt(Fraction(10**400 * 3 + 1, 7)) == "~4.28571428571e+399"


@pytest.mark.parametrize("f", [Fraction(2743, 200), Fraction(20), Fraction(201, 2)])
def test_compute_params_refuses_too_many_digits(f):
    # k is about 4.6e313 (1042 bits): t = ceil(k^13.715) has 4302 digits, though
    # 13.715 * 1041 < 14285, the bits of 10^4300; the larger f are refused by
    # that bound, before t is resolved
    with pytest.raises(CapabilityError, match="more than 4300 digits"):
        compute_params("graph", Fraction(1, 10**300), f)


def test_compute_params_keeps_a_t_of_4235_digits():
    params = compute_params("graph", Fraction(1, 10**300), Fraction(27, 2))
    assert len(str(params.t)) == 4235
