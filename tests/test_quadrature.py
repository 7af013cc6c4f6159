"""Adaptive 1D Gauss-Kronrod and the 1D kernel integral behind the double
integrals."""

import math

import pytest

from skewlog import (
    ClosedFormId,
    DomainError,
    EQ18_VALUE,
    EQ19_VALUE,
    EvalResult,
    QuadratureConfig,
    Status,
    closed_form,
    closed_form_eq17,
    constant,
    double_integral_bigG,
    double_integral_eq31,
    double_integral_eq32,
    double_integral_g,
    integrate_1d,
    li2,
)
from skewlog.quadrature import _xy_integral

LOG2 = math.log(2.0)


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=-1e-3)
    with pytest.raises(ValueError):
        QuadratureConfig(max_subdivisions=0)
    cfg = QuadratureConfig()
    assert cfg.abs_tol == 1e-10 and cfg.rel_tol == 1e-12
    assert cfg.max_subdivisions == 4000
    # tolerances are checked like sum_series's tol: any real, stored as a
    # float, finite and >= 1e-15
    cfg = QuadratureConfig(abs_tol=1, rel_tol=1)
    assert type(cfg.abs_tol) is float and type(cfg.rel_tol) is float
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError):
            QuadratureConfig(abs_tol=bad)
        with pytest.raises(ValueError):
            QuadratureConfig(rel_tol=bad)
    with pytest.raises(DomainError):
        QuadratureConfig(abs_tol=True)
    # the cap is an int, not a bool or a whole float
    for bad in (True, False, 2.0, 1_000_001):
        with pytest.raises(ValueError):
            QuadratureConfig(max_subdivisions=bad)
    # a named tuple: positional or keyword, immutable, and _replace
    # validates like the constructor
    cfg = QuadratureConfig(1e-8, max_subdivisions=10)
    assert cfg == QuadratureConfig(abs_tol=1e-8, rel_tol=1e-12,
                                   max_subdivisions=10)
    assert repr(cfg) == ("QuadratureConfig(abs_tol=1e-08, rel_tol=1e-12, "
                         "max_subdivisions=10)")
    with pytest.raises(AttributeError):
        cfg.abs_tol = 1.0
    assert cfg._replace(rel_tol=1) == QuadratureConfig(1e-8, 1.0, 10)
    with pytest.raises(ValueError):
        cfg._replace(max_subdivisions=True)


def test_integrate_constant_and_poly():
    res = integrate_1d(lambda t: 1.0, 0.0, 1.0)
    assert res.value == pytest.approx(1.0, abs=1e-14)
    assert res.status is Status.CONVERGED
    res = integrate_1d(lambda t: 3.0 * t * t, 0.0, 2.0)
    assert res.value == pytest.approx(8.0, abs=1e-12)


def test_zero_width_interval():
    res = integrate_1d(lambda t: 1.0, 0.3, 0.3)
    assert res.value == 0.0
    assert res.terms_used == 0


def test_orientation():
    fwd = integrate_1d(lambda t: t * t, 0.0, 1.0)
    rev = integrate_1d(lambda t: t * t, 1.0, 0.0)
    assert rev.value == pytest.approx(-fwd.value, abs=1e-14)


def test_log_integrand_to_dilog():
    # int_0^x -log(1-t)/t dt = Li2(x)
    for x in (0.3, 0.7, 0.97):
        res = integrate_1d(lambda t: -math.log1p(-t) / t if t != 0.0 else 1.0, 0.0, x)
        assert res.status is Status.CONVERGED
        assert abs(res.value - li2(x)) <= max(res.error_bound, 1e-11)


def test_antiderivative_cross_check():
    # int_0^{-1} li2(t)/(1-t) dt against the closed value
    ref = constant("PI_SQ_OVER_12") * LOG2 - constant("ZETA3") / 4.0
    res = integrate_1d(lambda t: li2(t) / (1.0 - t), 0.0, -1.0)
    assert res.status is Status.CONVERGED
    assert abs(res.value - ref) <= 1e-10
    assert abs(res.value - ref) <= res.error_bound + 1e-15


def test_bound_honesty_on_oscillatory_integrand():
    res = integrate_1d(lambda t: math.sin(40.0 * t), 0.0, math.pi)
    exact = (1.0 - math.cos(40.0 * math.pi)) / 40.0
    assert abs(res.value - exact) <= res.error_bound + 1e-15


def test_max_subdivisions_status():
    cfg = QuadratureConfig(max_subdivisions=2)
    res = integrate_1d(lambda t: math.sin(200.0 * t) / (1e-4 + t * t), 0.0, 1.0, cfg)
    assert res.status is Status.MAX_TERMS


def test_refinement_improves_bound():
    f = lambda t: math.exp(t) * math.cos(10.0 * t)
    loose = integrate_1d(f, 0.0, 3.0, QuadratureConfig(abs_tol=1e-6, rel_tol=1e-6))
    tight = integrate_1d(f, 0.0, 3.0, QuadratureConfig(abs_tol=1e-12, rel_tol=1e-12))
    assert tight.error_bound <= loose.error_bound
    assert tight.terms_used >= loose.terms_used


def test_unsplittable_panels_are_frozen():
    # panels too narrow to split stop refining but still count in the total;
    # pinned bit for bit, twelve frozen panels
    cfg = QuadratureConfig(abs_tol=1e-15, rel_tol=1e-15, max_subdivisions=2000)
    res = integrate_1d(lambda t: 1.0 / math.sqrt(t), 0.0, 1.0, cfg)
    assert res == EvalResult(1.9999999961495978, 1.187697357901929e-08, 60015,
                             Status.MAX_TERMS)


def test_g_at_one_to_full_precision():
    # the 1D integrand of g stays bounded at z = 1, so the log 2 corner
    # converges at the tightest tolerance in a few hundred evaluations
    res = double_integral_g(1.0, QuadratureConfig(abs_tol=1e-15, rel_tol=1e-15))
    assert res.status is Status.CONVERGED
    assert abs(res.value - LOG2) <= 1e-15
    assert res.terms_used <= 2000


def test_determinism():
    f = lambda t: li2(t) / (1.0 - t)
    a = integrate_1d(f, 0.0, -1.0)
    b = integrate_1d(f, 0.0, -1.0)
    assert a == b
    ga = double_integral_g(0.5)
    gb = double_integral_g(0.5)
    assert ga == gb


# --- double integrals ---------------------------------------------------------

def test_g_interior_matches_closed_form():
    for z in (-0.9, -0.5, 0.3, 0.8):
        res = double_integral_g(z)
        ref = closed_form(ClosedFormId.EQ29_G, z)
        assert res.status is Status.CONVERGED
        assert abs(res.value - ref) <= 1e-8, z


def test_g_singular_corners():
    # z = 1 integrand blows up logarithmically at (1,1); value is log 2
    res = double_integral_g(1.0)
    assert abs(res.value - LOG2) <= 1e-10
    assert abs(res.value - LOG2) <= res.error_bound
    res = double_integral_g(-1.0)
    assert abs(res.value - math.pi**2 / 24.0) <= 1e-8


def test_singular_corners_meet_requested_tolerance():
    # the z = 1 corner is met at the requested tolerance; CONVERGED means
    # that tolerance was met
    res = double_integral_g(1.0)
    assert res.status is Status.CONVERGED
    assert abs(res.value - LOG2) <= 1e-10
    res = double_integral_bigG(1.0, QuadratureConfig(abs_tol=1e-10))
    assert res.status is Status.CONVERGED
    assert res.error_bound <= 1e-10
    assert abs(res.value - closed_form_eq17(1.0)) <= res.error_bound


def test_g_domain():
    with pytest.raises(ValueError):
        double_integral_g(1.5)
    with pytest.raises(ValueError):
        double_integral_g(float("nan"))


def test_bigg_matches_assembled_closed_form():
    for z in (-0.9, -0.5, 0.5, 0.9):
        res = double_integral_bigG(z)
        ref = closed_form_eq17(z)
        assert res.status is Status.CONVERGED
        assert abs(res.value - ref) <= 1e-7, z


def test_bigg_at_zero_and_corners():
    assert double_integral_bigG(0.0).value == 0.0
    assert abs(double_integral_bigG(1.0).value - closed_form_eq17(1.0)) <= 1e-10
    assert abs(double_integral_bigG(-1.0).value - closed_form_eq17(-1.0)) <= 1e-10


def test_catalan_combination():
    # value is (7/8) log^2 2 + (pi/8) log 2 - pi^2/48 - G/2
    ref = (
        0.875 * LOG2**2
        + math.pi * LOG2 / 8.0
        - math.pi**2 / 48.0
        - constant("CATALAN_G") / 2.0
    )
    res = double_integral_eq31()
    assert abs(res.value - ref) <= 1e-8
    assert abs(res.value - 0.02899509302173870) <= 1e-8


def test_log_product_square():
    # value is log^3(2)/3 - zeta(3)/2 + pi^2 log(2)/12
    ref = LOG2**3 / 3.0 - constant("ZETA3") / 2.0 + math.pi**2 * LOG2 / 12.0
    res = double_integral_eq32()
    assert abs(res.value - ref) <= 1e-8
    assert abs(res.value - 0.08007047107127240) <= 1e-8


def test_xy_reduction_of_monomials():
    # for F(p) = p^n the double integral factors into beta_{n+1}^2, where
    # beta_k = int_0^1 x^(k-1)/(1+x) dx: beta_1 = log 2, beta_{k+1} = 1/k - beta_k
    cfg = QuadratureConfig(abs_tol=1e-15, rel_tol=1e-15)
    beta = LOG2
    for n in range(9):
        if n == 0:
            res = _xy_integral(lambda p: 0.0, 1.0, cfg)
        else:
            res = _xy_integral(lambda p: p**n, 0.0, cfg)
        ref = beta * beta
        assert res.status is Status.CONVERGED, n
        assert abs(res.value - ref) <= res.error_bound + 4 * math.ulp(ref), n
        beta = 1.0 / (n + 1) - beta


# exact values at the domain edges, 25 digits computed offline with mpmath at
# 40-50 digits; g(+-0.999) and G(+-0.999) both by tanh-sinh on the kernel
# integral and by summing z^n beta_{n+1}^2 and z^n beta_n^2 / n directly
_EDGE_VALUES = {
    ("g", 1.0): 0.6931471805599453094172321,  # log 2
    ("g", 0.999): 0.6914667744800284307393439,
    ("g", 0.0): 0.4804530139182014246671025,  # log^2 2
    ("g", -0.999): 0.4112857189460731365612791,
    ("g", -1.0): 0.4112335167120566091181038,  # pi^2/24
    ("G", 1.0): EQ18_VALUE,
    ("G", 0.999): 0.5512034820246955769311518,
    ("G", 0.0): 0.0,
    ("G", -0.999): -0.4420489297620646110462693,
    ("G", -1.0): EQ19_VALUE,
    ("EQ31", None): 0.02899509302173870,
    ("EQ32", None): 0.08007047107127240,
}
_INTEGRALS = {
    "g": double_integral_g,
    "G": double_integral_bigG,
    "EQ31": lambda z, cfg: double_integral_eq31(cfg),
    "EQ32": lambda z, cfg: double_integral_eq32(cfg),
}


@pytest.mark.parametrize("tol,budget", [(1e-10, 500), (1e-15, 1000)])
def test_edges_bound_honesty_and_cost(tol, budget):
    # the quadtree this replaced took 320 evaluations per panel and 13,120 or
    # more at z = +-1, so the budget also pins the 1D route
    cfg = QuadratureConfig(abs_tol=tol, rel_tol=tol)
    for (kind, z), ref in _EDGE_VALUES.items():
        res = _INTEGRALS[kind](z, cfg)
        assert res.status is Status.CONVERGED, (kind, z)
        assert abs(res.value - ref) <= res.error_bound, (kind, z)
        assert res.terms_used <= budget, (kind, z)
