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
    "rates",
    [np.arange(64), np.arange(1024, 1088), np.arange(64) + np.array([1024, 0])[:, None]],
    ids=["grid", "filon", "stack"],
)
def test_oscillatory_batch_rejects_non_finite_integrand_at_its_first_sample(rates):
    # on [0, 1] rates 0.. take the grid and rates 1024.. Filon-Clenshaw-
    # Curtis; a stack of both starts on Filon.  Either fails on the first
    # sample of f rather than refining to the end of the panel budget
    sizes = []
    f = recorded(lambda k: np.where(k > 0.5, np.nan, k), sizes)
    with pytest.raises(NonConvergence, match="^integrand evaluated to a non-finite value$"):
        integrate_oscillatory_batch(f, rates, 0.0, 1.0, QuadratureSpec(abs_tol=1e-12, max_panels=60000))
    assert len(sizes) == 1


@pytest.mark.parametrize(
    "quad, args, name",
    [
        (integrate, (np.nan, 1.0), "a"),
        (integrate, (0.0, np.inf), "b"),
        (integrate_oscillatory, (np.inf, 0.0, 1.0), "phase_rate"),
        (integrate_oscillatory, (np.nan, 0.0, 1.0), "phase_rate"),
        (integrate_oscillatory, (1.0, -np.inf, 0.0), "a"),
        (integrate_oscillatory_batch, ([np.nan], 0.0, 1.0), "phase_rates"),
        (integrate_oscillatory_batch, (np.arange(64), 0.0, np.inf), "b"),
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


def test_oscillatory_batch_consecutive_rates_closed_form():
    rates = np.arange(-3, 61)
    vals = integrate_oscillatory_batch(lambda k: np.ones_like(k), rates, 0.0, np.pi, SPEC)
    safe = np.where(rates == 0, 1, rates)
    exact = np.where(rates == 0, np.pi, (np.exp(1j * rates * np.pi) - 1.0) / (1j * safe))
    assert np.abs(vals - exact).max() < 1e-12
    for bad in ([0, 2, 3], [0.5, 1.5]):
        with pytest.raises(ValueError):
            integrate_oscillatory_batch(lambda k: np.ones_like(k), bad, 0.0, 1.0, SPEC)
    # no rates: one empty row of results per integrand
    assert integrate_oscillatory_batch(lambda k: np.array([k, k]), np.zeros((3, 0)), 0.0, 1.0, SPEC).shape == (2, 3, 0)


def exp_cos_batch(rates, a, b):
    """int_a^b exp(0.3 k) cos(k) exp(i r k) dk in closed form."""
    out = 0.0
    for z in (0.3 + 1j * (rates + 1), 0.3 + 1j * (rates - 1)):
        out = out + 0.5 * (np.exp(z * b) - np.exp(z * a)) / z
    return out


def recorded(f, sizes):
    # the sizes of the calls of f, without the empty call that learns its shape
    def g(k):
        if np.size(k):
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


STACK = np.arange(512, 576) + np.array([0, 1000, 3500])[:, None]
RUNGE = lambda k: 1 / (1 + 25 * (k - 0.5) ** 2)


def test_oscillatory_batch_stack_refines_each_row_within_its_block_bounds(monkeypatch):
    # three blocks on [0, 1] with stability bounds 256, 756 and 2006; the
    # smooth row passes at N = 16, the Runge row at 64 and the near-pole row
    # at 256, beyond the first block's bound, so that row alone goes to the
    # grid.  One sample of f per degree serves the stack, one recurrence per
    # degree the blocks still pending, and each block keeps the bytes of a
    # 1-D call
    near = lambda k: 1 / (1 + 500 * (k - 0.5) ** 2)
    f = lambda k: np.array([np.exp(0.3 * k) * np.cos(k), RUNGE(k), near(k)])
    recurrences = []
    moments = num._chebyshev_moments
    monkeypatch.setattr(num, "_chebyshev_moments", lambda omega, n: recurrences.append((omega, n)) or moments(omega, n))
    handed = []
    grid_rows = num._grid_rows

    def handing(rows, count, rates, *args):
        handed.append(rates[0])
        return grid_rows(rows, count, rates, *args)

    monkeypatch.setattr(num, "_grid_rows", handing)
    sizes = []
    vals = integrate_oscillatory_batch(recorded(f, sizes), STACK, 0.0, 1.0, SPEC)
    assert vals.shape == (3,) + STACK.shape
    assert sizes[:6] == [17, 33, 65, 129, 257, 513] and handed == [512]
    assert [(len(omega), n) for omega, n in recurrences] == [(3, 32), (3, 64), (3, 128), (3, 256), (2, 512)]
    for block, row in zip(STACK, vals.swapaxes(0, 1)):
        assert row.tobytes() == integrate_oscillatory_batch(f, block, 0.0, 1.0, SPEC).tobytes()
    assert np.abs(vals[0] - exp_cos_batch(STACK, 0.0, 1.0)).max() < 1e-14


def test_oscillatory_batch_starved_stack_keeps_bytes_and_fails_as_its_first_block():
    # a node budget of 9 panels (2N + 1 <= 144) lets the Runge row pass at
    # N = 64, past the first pair; at 8 panels it stays pending at 2N = 64,
    # and the grid needs 186 panels for the first block: the stack raises
    # what that block raises alone
    f = lambda k: np.array([np.exp(0.3 * k) * np.cos(k), RUNGE(k)])
    spec = QuadratureSpec(abs_tol=1e-12, max_panels=9)
    sizes = []
    vals = integrate_oscillatory_batch(recorded(f, sizes), STACK, 0.0, 1.0, spec)
    assert sizes == [17, 33, 65, 129]
    for block, row in zip(STACK, vals.swapaxes(0, 1)):
        assert row.tobytes() == integrate_oscillatory_batch(f, block, 0.0, 1.0, spec).tobytes()
    starved = QuadratureSpec(abs_tol=1e-12, max_panels=8)
    with pytest.raises(NonConvergence) as alone:
        integrate_oscillatory_batch(f, STACK[0], 0.0, 1.0, starved)
    assert str(alone.value) == "batch with max rate 575 needs 186 panels, budget is 8"
    with pytest.raises(NonConvergence, match=f"^{alone.value}$"):
        integrate_oscillatory_batch(f, STACK, 0.0, 1.0, starved)


def test_oscillatory_batch_rejects_non_consecutive_stack_rows_and_more_dimensions():
    with pytest.raises(ValueError, match="consecutive"):
        integrate_oscillatory_batch(lambda k: np.ones_like(k), [[0, 1, 2], [5, 6, 8]], 0.0, 1.0, SPEC)
    with pytest.raises(ValueError, match="2-D stack"):
        integrate_oscillatory_batch(lambda k: np.ones_like(k), np.zeros((1, 1, 3)), 0.0, 1.0, SPEC)


def test_refine_accepts_each_row_at_its_first_passing_pair():
    # row 0 agrees to 0.07 between sizes 4 and 8, row 1 only between 8 and
    # 16; each keeps the finer estimate of the pair it passed, and every
    # size is estimated once
    calls = []

    def estimate(n, rows):
        calls.append(n)
        return [[np.array([1.0 + 2.0**-n]), np.array([1.0 + 1.0 / n])][i] for i in rows]

    out = num._refine(estimate, 4, [64, 64], QuadratureSpec(abs_tol=0.07), "needs", str)
    assert calls == [4, 8, 16]
    assert out[0].tobytes() == np.array([1.0 + 2.0**-8]).tobytes()
    assert out[1].tobytes() == np.array([1.0 + 1.0 / 16]).tobytes()


def test_refine_first_pair_beyond_limit_raises_needs_without_estimating():
    calls = []
    with pytest.raises(NonConvergence, match="^needs 80, limit 64$"):
        num._refine(lambda n, rows: calls.append(n), 40, [64], SPEC, "needs 80, limit 64", str)
    # without needs, the row is None
    assert num._refine(lambda n, rows: calls.append(n), 40, [64], SPEC) == [None]
    assert calls == []


def test_refine_failure_reports_the_error_of_the_last_pair():
    # sizes 4..64: the last pair is (32, 64), where the pending row moves by
    # 1/96 - 1/192; row 1 passes at once and does not count
    calls = []

    def estimate(n, rows):
        calls.append(n)
        return [[np.array([1.0 / (3 * n), 0.0]), np.array([2.0])][i] for i in rows]

    with pytest.raises(NonConvergence, match=r"^batch error 5\.208e-03 above target with size 64$"):
        num._refine(estimate, 4, [64, 64], SPEC, "needs", lambda n: f"size {n}")
    assert calls == [4, 8, 16, 32, 64]
    # without needs, the pending row is None and the other keeps its value
    out = num._refine(estimate, 4, [64, 64], SPEC)
    assert out[0] is None and out[1].tobytes() == np.array([2.0]).tobytes()


def test_refine_keeps_each_row_within_its_own_bound():
    # row 0 never settles and may reach size 16; row 1 settles between 32
    # and 64, within its bound of 64; row 2's first pair (4, 8) passes its
    # bound of 6, so it is never estimated
    asked = []

    def estimate(n, rows):
        asked.append((n, list(rows)))
        return [[np.array([1.0 / n]), np.array([0.0 if n >= 32 else 1.0 / n]), None][i] for i in rows]

    out = num._refine(estimate, 4, [16, 64, 6], SPEC)
    assert asked == [(4, [0, 1]), (8, [0, 1]), (16, [0, 1]), (32, [1]), (64, [1])]
    assert out[0] is None and out[2] is None and out[1].tobytes() == np.array([0.0]).tobytes()
    # with needs, row 0 reaching its bound pending raises, naming its last pair
    asked.clear()
    with pytest.raises(NonConvergence, match=r"^batch error 6\.250e-02 above target with size 16$"):
        num._refine(estimate, 4, [16, 64], SPEC, "needs", lambda n: f"size {n}")
    assert asked == [(4, [0, 1]), (8, [0, 1]), (16, [0, 1])]
    # and a row whose first pair does not fit raises needs before any estimate
    asked.clear()
    with pytest.raises(NonConvergence, match="^needs$"):
        num._refine(estimate, 4, [16, 64, 6], SPEC, "needs", str)
    assert asked == []


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
