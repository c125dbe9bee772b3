import numpy as np
import pytest

from nessent.numerics import (
    FILON_MIN_PHASE,
    NonConvergence,
    QuadratureSpec,
    integrate,
    integrate_oscillatory,
    integrate_oscillatory_batch,
)

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
    tiny = QuadratureSpec(abs_tol=1e-14, max_panels=4)
    with pytest.raises(NonConvergence):
        integrate(lambda x: np.sin(40 * x) / (x + 1e-3), 0.0, 3.0, tiny)


def test_oscillatory_closed_form_fast_phase():
    val = integrate_oscillatory(lambda k: np.ones_like(k), 200.0, 0.0, np.pi, SPEC)
    exact = (np.exp(1j * 200 * np.pi) - 1.0) / (200j)
    assert abs(val - exact) < 1e-10


def test_oscillatory_zero_phase_is_plain_length():
    val = integrate_oscillatory(lambda k: np.ones_like(k), 0.0, -1.0, 2.5, SPEC)
    assert abs(val - 3.5) < 1e-12


def test_oscillatory_self_consistency_two_paths():
    # same integrand evaluated with the oscillatory rule and with the plain
    # adaptive rule given a 10x larger panel budget
    f = lambda k: np.sin(k) ** 2 / (np.sin(k) ** 2 + 1.0)
    g = lambda k: f(k) * np.exp(1j * 500.0 * k)
    a = integrate_oscillatory(f, 500.0, np.pi / 2, 2 * np.pi / 3, QuadratureSpec(abs_tol=1e-12, max_panels=2000))
    b = integrate(g, np.pi / 2, 2 * np.pi / 3, QuadratureSpec(abs_tol=1e-12, max_panels=20000))
    assert abs(a - b) < 1e-9


def test_oscillatory_batch_consecutive_rates_closed_form():
    rates = np.arange(-3, 61)
    vals = integrate_oscillatory_batch(lambda k: np.ones_like(k), rates, 0.0, np.pi, SPEC)
    safe = np.where(rates == 0, 1, rates)
    exact = np.where(rates == 0, np.pi, (np.exp(1j * rates * np.pi) - 1.0) / (1j * safe))
    assert np.abs(vals - exact).max() < 1e-12
    for bad in ([0, 2, 3], [0.5, 1.5]):
        with pytest.raises(ValueError):
            integrate_oscillatory_batch(lambda k: np.ones_like(k), bad, 0.0, 1.0, SPEC)


def exp_cos_batch(rates, a, b):
    """int_a^b exp(0.3 k) cos(k) exp(i r k) dk in closed form."""
    out = 0.0
    for z in (0.3 + 1j * (rates + 1), 0.3 + 1j * (rates - 1)):
        out = out + 0.5 * (np.exp(z * b) - np.exp(z * a)) / z
    return out


def recorded(f, sizes):
    def g(k):
        sizes.append(int(np.size(k)))
        return f(k)

    return g


@pytest.mark.parametrize("r0, filon", [(511, False), (512, True), (-575, True), (8000, True)])
def test_oscillatory_batch_rule_switches_at_filon_min_phase(r0, filon):
    # on [0, 1] the phase extent of rate r is r/2, so the block of r0 = 512
    # is the first at FILON_MIN_PHASE
    assert (abs(r0) * 0.5 >= FILON_MIN_PHASE) == filon
    rates = np.arange(r0, r0 + 64)
    sizes = []
    f = lambda k: np.exp(0.3 * k) * np.cos(k)
    vals = integrate_oscillatory_batch(recorded(f, sizes), rates, 0.0, 1.0, SPEC)
    assert np.abs(vals - exp_cos_batch(rates, 0.0, 1.0)).max() < 1e-14
    if not filon:
        # Gauss-Legendre: one panel per period of the fastest rate, then twice as many
        panels = int(np.ceil(np.abs(rates).max() / (2 * np.pi))) + 1
        assert sizes[:2] == [16 * panels, 32 * panels]
        return
    # Filon-Clenshaw-Curtis, whatever the rate: N + 1 and 2N + 1 points in
    # the first round, 2N + 1 in each later one, N doubling from nodes_per_panel
    assert sizes == [16 * 2**j + 1 for j in range(len(sizes))]


def test_oscillatory_batch_filon_falls_back_to_gauss_legendre_budget():
    rates = np.arange(4000, 4064)
    f = lambda k: np.exp(0.3 * k) * np.cos(k)
    # one panel of 16 nodes: no Chebyshev degree fits, and the grid needs hundreds
    with pytest.raises(NonConvergence, match="needs"):
        integrate_oscillatory_batch(f, rates, 0.0, 1.0, QuadratureSpec(abs_tol=1e-12, max_panels=1))
    # a kink is not resolved by any Chebyshev degree within the stability bound
    # (2N <= 2000), so the block is handed to the grid
    sizes = []
    kink = lambda k: np.abs(k - 0.5)
    vals = integrate_oscillatory_batch(recorded(kink, sizes), rates, 0.0, 1.0, SPEC)
    assert sizes[:7] == [16 * 2**j + 1 for j in range(7)] and max(sizes) > 10_000
    fine = QuadratureSpec(abs_tol=1e-13, max_panels=5000)
    exact = [integrate_oscillatory(kink, r, 0.0, 1.0, fine) for r in (4000, 4063)]
    assert np.abs(vals[[0, -1]] - exact).max() < 1e-11


def test_oscillatory_panel_budget_raises():
    with pytest.raises(NonConvergence):
        integrate_oscillatory(lambda k: np.ones_like(k), 1e7, 0.0, np.pi, QuadratureSpec(max_panels=100))


def test_quadrature_spec_invariants():
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(nodes_per_panel=2)
    with pytest.raises(ValueError):
        QuadratureSpec(max_panels=0)
