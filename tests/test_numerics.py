import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nessent.numerics as num
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
    # the first round, 2N + 1 in each later one, N doubling from PANEL_NODES
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


def test_oscillatory_batch_hands_only_failing_rows_to_the_grid():
    # t(k) = sin k/(sin k + i c) has a pole about c from k = 0.  At c = 0.01
    # (epsilon0 = 0.02, eta = 1) on [0, 2 pi/3], as on the window L of the
    # Fig. S2 sweep, rates 256.. have phase extent 268 and no degree within
    # the stability bound (2N <= 268) reaches the target, so that row goes to
    # the grid; the smooth row in its company keeps its Filon bytes
    a, b = 0.0, 2 * np.pi / 3
    rates = np.arange(256, 320)
    smooth = lambda k: np.exp(0.3 * k) * np.cos(k)
    pole = lambda k: np.sin(k) / (np.sin(k) + 0.01j)
    sizes = []
    rows = integrate_oscillatory_batch(recorded(lambda k: np.array([smooth(k), pole(k)]), sizes), rates, a, b, SPEC)
    assert sizes[:4] == [33, 65, 129, 257] and max(sizes) > 1000
    for f, row in zip([smooth, pole], rows):
        assert row.tobytes() == integrate_oscillatory_batch(f, rates, a, b, SPEC).tobytes()
    assert np.abs(rows[0] - exp_cos_batch(rates, a, b)).max() < 1e-14
    fine = QuadratureSpec(abs_tol=1e-13, max_panels=5000)
    exact = [integrate_oscillatory(pole, r, a, b, fine) for r in (256, 319)]
    assert np.abs(rows[1, [0, -1]] - exact).max() < 1e-11


def test_refine_accepts_each_row_at_its_first_passing_pair():
    # row 0 agrees to 0.07 between sizes 4 and 8, row 1 only between 8 and
    # 16; each keeps the finer estimate of the pair it passed, and every
    # size is estimated once
    calls = []

    def estimate(n):
        calls.append(n)
        return [np.array([1.0 + 2.0**-n]), np.array([1.0 + 1.0 / n])]

    out = num._refine(estimate, 4, 64, QuadratureSpec(abs_tol=0.07), "needs", str)
    assert calls == [4, 8, 16]
    assert out[0].tobytes() == np.array([1.0 + 2.0**-8]).tobytes()
    assert out[1].tobytes() == np.array([1.0 + 1.0 / 16]).tobytes()


def test_refine_first_pair_beyond_limit_raises_needs_without_estimating():
    calls = []
    with pytest.raises(NonConvergence, match="^needs 80, limit 64$"):
        num._refine(lambda n: calls.append(n), 40, 64, SPEC, "needs 80, limit 64", str)
    # without needs, the result is None
    assert num._refine(lambda n: calls.append(n), 40, 64, SPEC) is None
    assert calls == []


def test_refine_failure_reports_the_error_of_the_last_pair():
    # sizes 4..64: the last pair is (32, 64), where the pending row moves by
    # 1/96 - 1/192; row 1 passes at once and does not count
    calls = []

    def estimate(n):
        calls.append(n)
        return [np.array([1.0 / (3 * n), 0.0]), np.array([2.0])]

    with pytest.raises(NonConvergence, match=r"^batch error 5\.208e-03 above target with size 64$"):
        num._refine(estimate, 4, 64, SPEC, "needs", lambda n: f"size {n}")
    assert calls == [4, 8, 16, 32, 64]
    # without needs, the pending row is None and the other keeps its value
    out = num._refine(estimate, 4, 64, SPEC)
    assert out[0] is None and out[1].tobytes() == np.array([2.0]).tobytes()


KINK_CHILD = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
import numpy as np
from nessent.numerics import NonConvergence, QuadratureSpec, integrate_oscillatory_batch

sizes = []

def kink(k):
    sizes.append(k.size)
    return np.abs(k - 0.5)

try:
    integrate_oscillatory_batch(kink, np.arange(70000, 70064), 0.0, 1.0, QuadratureSpec(abs_tol=1e-12))
except NonConvergence as exc:
    print(max(sizes), exc)
"""


def test_oscillatory_batch_kink_runs_filon_degrees_in_linear_memory():
    # |k - 1/2| has Chebyshev coefficients that fall only as n^-2, so at
    # rates 70000.. on [0, 1] (phase extent 35000) Filon-Clenshaw-Curtis
    # doubles N up to its stability bound, 2N = 32768, and the
    # Gauss-Legendre grid then needs 22304 panels of a budget of 20000.  A
    # child capped at 1 GiB of address space runs it: a transform that is not
    # linear in memory per degree, such as a dense (N + 1)^2 DCT matrix
    # (2.1 GB at N = 16384), fails there as MemoryError without exhausting
    # the host.
    src = Path(num.__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(src))
    run = subprocess.run([sys.executable, "-c", KINK_CHILD], env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "32769 batch with max rate 70063 needs 22304 panels, budget is 20000"


def test_oscillatory_panel_budget_raises():
    with pytest.raises(NonConvergence):
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
