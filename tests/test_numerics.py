import numpy as np
import pytest

import nessent.numerics as num
from nessent.numerics import NonConvergence, QuadratureSpec, integrate, integrate_oscillatory

SPEC = QuadratureSpec(abs_tol=1e-12)


def alternating_zeta2():
    # sum_{k>=1} (-1)^(k+1)/k^2 = pi^2/12; truncating an alternating series
    # halfway into the next term leaves an error ~ 1/K^3, far below 1e-12
    k = np.arange(1, 100_002, dtype=float)
    terms = (-1.0) ** (k + 1) / k**2
    return terms[:-1].sum() + 0.5 * terms[-1]


def test_integrate_polynomial_exact():
    assert abs(integrate(lambda x: x, 0.0, 1.0, SPEC) - 0.5) < 1e-13


def test_integrate_sine():
    assert abs(integrate(np.sin, 0.0, np.pi, SPEC) - 2.0) < 1e-12


def test_integrate_log_singularity_dilogarithm():
    oracle = alternating_zeta2()
    val = integrate(lambda x: np.log1p(x) / x, 0.0, 1.0, SPEC, singular_left=True)
    assert abs(val - oracle) < 1e-11


def test_integrate_empty_range():
    assert integrate(np.sin, 1.0, 1.0, SPEC) == 0.0


def test_integrate_rejects_reversed_range():
    with pytest.raises(ValueError):
        integrate(np.sin, 1.0, 0.0, SPEC)


def test_integrate_nonconvergence_on_budget():
    # 1 against 2 panels, then 2 against 4; 8 panels exceed the budget
    tiny = QuadratureSpec(abs_tol=1e-14, max_panels=4)
    with pytest.raises(NonConvergence, match=r"^batch error 1\.505e-01 above target with 4 panels$"):
        integrate(lambda x: np.sin(40 * x) / (x + 1e-3), 0.0, 3.0, tiny)
    # the first pair of the 45 graded start panels is 45 against 90 panels
    with pytest.raises(NonConvergence, match="^integral needs 90 panels, budget is 89$"):
        integrate(np.log, 0.0, 1.0, QuadratureSpec(max_panels=89), singular_left=True)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_integrate_rejects_non_finite_integrand(bad):
    f = lambda x: np.where(x > 0.5, bad, x)
    for singular_left in (False, True):
        with pytest.raises(NonConvergence, match="^integrand evaluated to a non-finite value$"):
            integrate(f, 0.0, 1.0, SPEC, singular_left=singular_left)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_oscillatory_rejects_non_finite_integrand(bad):
    f = lambda k: np.where(k > 0.5, bad, k)
    for rate in (0.0, 30.0):
        with pytest.raises(NonConvergence, match="^integrand evaluated to a non-finite value$"):
            integrate_oscillatory(f, rate, 0.0, 1.0, SPEC)


@pytest.mark.parametrize(
    "quad, args, name",
    [
        (integrate, (np.nan, 1.0), "a"),
        (integrate, (0.0, np.inf), "b"),
        (integrate_oscillatory, (np.inf, 0.0, 1.0), "phase_rate"),
        (integrate_oscillatory, (np.nan, 0.0, 1.0), "phase_rate"),
        (integrate_oscillatory, (1.0, -np.inf, 0.0), "a"),
    ],
)
def test_quadrature_rejects_non_finite_arguments_before_evaluating_f(quad, args, name):
    calls = []
    with pytest.raises(ValueError, match=f"^{quad.__name__} requires a finite {name}$"):
        quad(lambda k: calls.append(k) or np.ones_like(k), *args)
    assert calls == []


def test_oscillatory_closed_form_fast_phase():
    val = integrate_oscillatory(lambda k: np.ones_like(k), 200.0, 0.0, np.pi, SPEC)
    exact = (np.exp(1j * 200 * np.pi) - 1.0) / (200j)
    assert abs(val - exact) < 1e-10


def test_oscillatory_zero_phase_is_plain_length():
    val = integrate_oscillatory(lambda k: np.ones_like(k), 0.0, -1.0, 2.5, SPEC)
    assert abs(val - 3.5) < 1e-12


def test_oscillatory_self_consistency_two_paths():
    # same integrand evaluated with the oscillatory rule (one panel per period
    # to start) and with plain integrate (one panel to start) given a 10x
    # larger panel budget
    f = lambda k: np.sin(k) ** 2 / (np.sin(k) ** 2 + 1.0)
    g = lambda k: f(k) * np.exp(1j * 500.0 * k)
    a = integrate_oscillatory(f, 500.0, np.pi / 2, 2 * np.pi / 3, QuadratureSpec(abs_tol=1e-12, max_panels=2000))
    b = integrate(g, np.pi / 2, 2 * np.pi / 3, QuadratureSpec(abs_tol=1e-12, max_panels=20000))
    assert abs(a - b) < 1e-9


def per_node(scale, sizes):
    """An integrand whose composite integral over [0, 1] with n panels,
    16 n nodes, is scale/n, recording each node count it is asked for."""

    def f(x):
        sizes.append(x.size)
        return np.full(x.size, 16.0 * scale / x.size)

    return f


def test_panel_integral_accepts_the_finer_estimate_of_the_first_passing_pair():
    # 1/4 against 1/8 misses abs_tol = 0.07, 1/8 against 1/16 passes: the
    # 16-panel estimate is returned, and every size is estimated once
    sizes = []
    value = num._panel_integral(per_node(1.0, sizes), np.array([0.0, 1.0]), QuadratureSpec(abs_tol=0.07), 4)
    assert sizes == [64, 128, 256]
    nodes, weights = num._composite_rule(np.array([0.0, 1.0]), 16)
    assert value == complex(np.full(nodes.size, 1.0 / 16, dtype=complex) @ weights)


def test_panel_integral_first_pair_beyond_the_budget_raises_without_estimating():
    sizes = []
    with pytest.raises(NonConvergence, match="^integral needs 80 panels, budget is 64$"):
        num._panel_integral(per_node(1.0, sizes), np.array([0.0, 1.0]), QuadratureSpec(max_panels=64), 40)
    assert sizes == []


def test_panel_integral_failure_reports_the_error_of_the_last_pair():
    # sizes 4..64 within a budget of 64 panels: the last pair is (32, 64),
    # whose estimates 1/96 and 1/192 differ by 5.208e-03
    sizes = []
    with pytest.raises(NonConvergence, match=r"^batch error 5\.208e-03 above target with 64 panels$"):
        num._panel_integral(per_node(1.0 / 3, sizes), np.array([0.0, 1.0]), QuadratureSpec(max_panels=64), 4)
    assert sizes == [64, 128, 256, 512, 1024]


def test_oscillatory_panel_budget_raises():
    # one panel per period, and the first pair doubles them
    with pytest.raises(NonConvergence, match="^integral needs 10000002 panels, budget is 100$"):
        integrate_oscillatory(lambda k: np.ones_like(k), 1e7, 0.0, np.pi, QuadratureSpec(max_panels=100))


def test_quadrature_spec_invariants():
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=0.0)
    # abs_tol = inf accepted the first estimate (integrate(sin(40 k)^2, 0, 3)
    # gave 1.666 for 1.494)
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            QuadratureSpec(abs_tol=bad)
    with pytest.raises(ValueError):
        QuadratureSpec(max_panels=0)
