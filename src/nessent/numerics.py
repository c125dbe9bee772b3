"""Quadrature primitives and the one correlation-matrix check used throughout the package.

Every integral in this package is one-dimensional and falls into one of two
families:

* smooth integrands, possibly with integrable endpoint singularities
  (logs, x**(n-1) with n >= 1/2), handled by globally adaptive panel
  bisection with fixed-order Gauss-Legendre nodes and geometric panel
  grading toward a singular endpoint;
* oscillatory integrands f(k) * exp(i*mu*k) with |mu| up to ~1e5: Gauss-
  Legendre with one panel per period below a phase extent omega_min =
  min|mu| * (b - a)/2 of FILON_MIN_PHASE = 256, Filon-Clenshaw-Curtis
  (FCC) with a rate-independent cost above it.  Both rules run one
  refinement loop (_refine): size n against size 2n, n doubling while the
  rule's bound allows it.

FCC (Dominguez, Graham & Smyshlyaev, IMA J. Numer. Anal. 31, 1253 (2011);
QUADPACK's QAWO splits high and low frequency the same way) maps [a, b] to
[-1, 1] by k = m + h x, interpolates f on the N + 1 first-kind Chebyshev
points (interior, like Gauss-Legendre nodes) and integrates each T_n against
exp(i omega x), omega = mu h, exactly.  The moments
mu_n = int_{-1}^{1} T_n(x) exp(i omega x) dx follow from mu_0 = 2 sin(omega)/omega,
mu_1 = (2 cos(omega) - mu_0)/(i omega), mu_2 = (B_2 - 4 mu_1)/(i omega) and

    mu_{n+1} = (n+1)/(i omega) [B_{n+1}/(n+1) - B_{n-1}/(n-1) - 2 mu_n]
               + (n+1)/(n-1) mu_{n-1},   B_n = e^{i omega} - (-1)^n e^{-i omega},

a forward recurrence that is stable only for n <= |omega|.  The
coefficients c_n of the interpolant come from one FFT per integrand and
degree (numpy.fft), so a degree takes memory linear in N.  Degree N is
checked against degree 2N with the acceptance test of the grid, N
doubling while 2N <= omega_min (stability) and 2N + 1 <= max_panels *
PANEL_NODES (the same budget in nodes).  N starts from the window
alone: PANEL_NODES per unit of its width b - a, rounded to a
power-of-two multiple of PANEL_NODES.  The degree f needs grows with the
window it spans: on the Fermi windows of the Fig. S2 config (widths pi/2 and
2 pi/3, where N starts at 32) every Filon block fails N = 16 and passes
N = 32, while smooth integrands on [0, 1] pass at 16.
The moments depend only on the window and the rates, so a batch of several
integrands on one window block (f_smooth returning one row per integrand)
runs one recurrence per degree for all of them; each integrand keeps its
own acceptance test and arithmetic, so its values have the bytes they have
alone.  Nothing keeps the moments beyond the batch.  An integrand that no
degree within these bounds brings to the target goes to the Gauss-Legendre
grid, which raises NonConvergence on its panel budget.  That happens when f
has a pole close to the window: t(k) = sin k/(sin k + i c), c =
epsilon0/(2 eta), has one at distance about c from k = 0, where the
windows L and R start, and at epsilon0 = 0.02 or 0.05 the Fig. S2
distance sweep has blocks whose Chebyshev degree passes the stability
bound.

Gauss-Legendre nodes are interior points, so integrable endpoint
singularities are never evaluated at the endpoint itself.

``check_hermitian`` is the one matrix check: it runs once, when a
``correlation.CorrelationMatrix`` is made from outside the package, and
rejects non-finite entries as well as non-Hermitian ones.  ``entanglement``
then calls ``numpy.linalg`` directly, whose ``eigvalsh`` and ``eigh`` read
one triangle of a matrix that is already Hermitian.
"""

from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "QuadratureSpec",
    "DEFAULT_SPEC",
    "FILON_MIN_PHASE",
    "PANEL_NODES",
    "HERM_TOL",
    "NumericsError",
    "NonConvergence",
    "NotHermitian",
    "integrate",
    "integrate_oscillatory",
    "integrate_oscillatory_batch",
    "check_hermitian",
]


#: relative Hermiticity tolerance of check_hermitian
HERM_TOL = 1e-10


class NumericsError(Exception):
    """Base class for numerical failures in this module."""


class NonConvergence(NumericsError):
    """Raised when the panel budget is exhausted above the error target."""


class NotHermitian(NumericsError):
    """Raised when a matrix fails the Hermiticity check or has a non-finite
    entry."""


#: Gauss-Legendre nodes per panel of both Gauss-Legendre rules; also the
#: nodes per panel of max_panels that the Filon-Clenshaw-Curtis degree may use
PANEL_NODES = 16


@dataclass(frozen=True)
class QuadratureSpec:
    """Error target and budget for the quadrature.

    abs_tol is the absolute error target of every estimate.  It must be
    finite: an infinite abs_tol would accept the first estimate.  max_panels
    is the budget in panels of PANEL_NODES Gauss-Legendre nodes; a
    Filon-Clenshaw-Curtis degree may use as many nodes.
    """

    abs_tol: float = 1e-10
    max_panels: int = 20000

    def __post_init__(self) -> None:
        if not 0 < self.abs_tol < np.inf:
            raise ValueError("abs_tol must be positive and finite")
        if self.max_panels < 1:
            raise ValueError("max_panels must be at least 1")


DEFAULT_SPEC = QuadratureSpec()


@functools.cache
def _gauss_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


def _eval_panels(f, lo: np.ndarray, hi: np.ndarray, order: int) -> np.ndarray:
    """Gauss-Legendre estimates for a batch of panels, one f call total."""
    x, w = _gauss_rule(order)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = mid[:, None] + half[:, None] * x[None, :]
    vals = np.asarray(f(nodes.ravel()), dtype=complex).reshape(nodes.shape)
    return (vals @ w) * half


def _graded_edges(a: float, b: float) -> np.ndarray:
    """Panel edges geometrically refined toward a singular left endpoint.

    Each level halves the distance to a; 44 levels push the innermost
    panel to ~6e-14 of the range, deep enough for the tolerances in use
    while keeping nodes representable away from the endpoint.
    """
    frac = np.concatenate([[0.0], 2.0 ** np.arange(-44, 1, dtype=float)])
    return a + (b - a) * frac


def _adaptive(f, edges: np.ndarray, spec: QuadratureSpec) -> complex:
    """Globally adaptive refinement over an initial panel partition.

    The per-panel error estimate is the difference between the full-order
    and half-order Gauss-Legendre rules.  The worst panel is bisected until
    the summed error estimate meets the target or the budget runs out.
    """
    order_hi, order_lo = PANEL_NODES, PANEL_NODES // 2
    lo, hi = edges[:-1], edges[1:]
    est_hi = _eval_panels(f, lo, hi, order_hi)
    est_lo = _eval_panels(f, lo, hi, order_lo)
    if not (np.all(np.isfinite(est_hi)) and np.all(np.isfinite(est_lo))):
        raise NonConvergence("integrand evaluated to a non-finite value")
    errs = np.abs(est_hi - est_lo)

    heap: list[tuple[float, int, float, float, complex, float]] = []
    seq = 0
    total = complex(0.0)
    total_err = 0.0
    for a, b, v, e in zip(lo, hi, est_hi, errs):
        heapq.heappush(heap, (-e, seq, a, b, v, e))
        seq += 1
        total += v
        total_err += e
    n_panels = len(heap)

    while True:
        if total_err <= spec.abs_tol:
            return total
        if n_panels + 1 > spec.max_panels or not heap:
            raise NonConvergence(
                f"quadrature stalled at {n_panels} panels, "
                f"error {total_err:.3e} > target {spec.abs_tol:.3e}"
            )
        _, _, a, b, v, e = heapq.heappop(heap)
        m = 0.5 * (a + b)
        sub_lo = np.array([a, m])
        sub_hi = np.array([m, b])
        child_hi = _eval_panels(f, sub_lo, sub_hi, order_hi)
        child_lo = _eval_panels(f, sub_lo, sub_hi, order_lo)
        if not (np.all(np.isfinite(child_hi)) and np.all(np.isfinite(child_lo))):
            raise NonConvergence("integrand evaluated to a non-finite value")
        child_err = np.abs(child_hi - child_lo)
        total += child_hi.sum() - v
        total_err += child_err.sum() - e
        for i in range(2):
            heapq.heappush(heap, (-child_err[i], seq, sub_lo[i], sub_hi[i], child_hi[i], child_err[i]))
            seq += 1
        n_panels += 1


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
    *,
    singular_left: bool = False,
) -> complex:
    """Integral of f over [a, b].

    f must accept a numpy array of abscissae and return values elementwise
    (real or complex).  Set singular_left when the integrand has an
    integrable singularity at a; the initial partition is then
    geometrically graded toward it.
    """
    if a > b:
        raise ValueError("integrate requires a <= b")
    if a == b:
        return 0.0 + 0.0j
    edges = _graded_edges(a, b) if singular_left else np.array([a, b])
    return _adaptive(f, edges, spec)


def integrate_oscillatory(
    f_smooth: Callable[[np.ndarray], np.ndarray],
    phase_rate: float,
    a: float,
    b: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> complex:
    """Integral of f_smooth(k) * exp(i * phase_rate * k) over [a, b].

    The initial partition assigns at least one panel (hence PANEL_NODES
    nodes) per oscillation period, after which the usual adaptive refinement
    applies.  At phase_rate 0 this is plain ``integrate`` on [a, b].
    """
    if a > b:
        raise ValueError("integrate_oscillatory requires a <= b")
    if a == b:
        return 0.0 + 0.0j
    periods = abs(phase_rate) * (b - a) / (2.0 * np.pi)
    n0 = int(np.ceil(periods)) + 1
    if n0 > spec.max_panels:
        raise NonConvergence(
            f"phase rate {phase_rate:g} needs {n0} panels, budget is {spec.max_panels}"
        )
    if phase_rate == 0.0:
        return _adaptive(f_smooth, np.array([a, b]), spec)

    def g(k: np.ndarray) -> np.ndarray:
        return np.asarray(f_smooth(k), dtype=complex) * np.exp(1j * phase_rate * k)

    edges = np.linspace(a, b, n0 + 1)
    return _adaptive(g, edges, spec)


def _fixed_grid(a: float, b: float, n_panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of a uniform composite Gauss-Legendre rule."""
    x, w = _gauss_rule(PANEL_NODES)
    edges = np.linspace(a, b, n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


#: smallest phase extent min|rate| * (b - a)/2 of a batch that takes the
#: Filon-Clenshaw-Curtis rule instead of the Gauss-Legendre grid
FILON_MIN_PHASE = 256.0


def _dct(values: np.ndarray) -> np.ndarray:
    """The coefficients c_0..c_n of the interpolant sum c_k T_k of values at
    the n + 1 first-kind Chebyshev points cos(pi (j + 1/2)/(n + 1)): the
    DCT-II, as one FFT of the even extension of values, in memory linear
    in n."""
    m = values.size
    spectrum = np.fft.fft(np.concatenate([values, values[::-1]]))[:m]
    coeffs = spectrum * (np.exp(-0.5j * np.pi * np.arange(m) / m) / m)
    coeffs[0] *= 0.5
    return coeffs


def _chebyshev_moments(omega: np.ndarray, n_max: int) -> np.ndarray:
    """mu_n(omega) = int_{-1}^{1} T_n(x) exp(i omega x) dx for n = 0..n_max
    (rows), by the forward recurrence; stable for n <= |omega|."""
    inv = 1.0 / (1j * omega)
    # B_n / (i omega) with B_n = exp(i omega) - (-1)^n exp(-i omega)
    boundary = (2.0 * np.sin(omega) / omega, 2.0 * np.cos(omega) * inv)
    mu = np.empty((n_max + 1, omega.size), dtype=complex)
    mu[0] = boundary[0]
    mu[1] = boundary[1] - mu[0] * inv
    mu[2] = boundary[0] - 4.0 * mu[1] * inv
    for n in range(2, n_max):
        mu[n + 1] = (
            (-2.0 / (n - 1)) * boundary[(n + 1) % 2]
            - (2.0 * (n + 1)) * mu[n] * inv
            + ((n + 1) / (n - 1)) * mu[n - 1]
        )
    return mu


def _refine(estimate, n: int, limit: int, spec: QuadratureSpec, needs: str | None = None, size=None) -> list | None:
    """The rows of estimate(n), each checked against its row of estimate(2 n)
    and accepted with the latter once every rate agrees to spec.abs_tol, n
    doubling while 2 n <= limit: the refinement loop of both table rules.

    Without needs, a row still pending at the limit is None, and the result
    is None when not even the first pair fits it.  With needs, the first
    case raises NonConvergence(needs) and the second NonConvergence naming
    size(n) of the last estimate and the largest |fine - coarse| of a
    pending row in the last pair.
    """
    if 2 * n > limit:
        if needs is None:
            return None
        raise NonConvergence(needs)
    coarse = estimate(n)
    out = [None] * len(coarse)
    while True:
        fine = estimate(2 * n)
        out = [hi if v is None and np.all(np.abs(hi - lo) <= spec.abs_tol) else v
               for v, lo, hi in zip(out, coarse, fine)]
        pending = [i for i, v in enumerate(out) if v is None]
        if not pending:
            return out
        n *= 2
        if 2 * n > limit:
            if needs is None:
                return out
            err = max(float(np.abs(fine[i] - coarse[i]).max()) for i in pending)
            raise NonConvergence(f"batch error {err:.3e} above target with {size(n)}")
        coarse = fine


def _filon_rows(rows, rates: np.ndarray, a: float, b: float, spec: QuadratureSpec) -> list | None:
    """Filon-Clenshaw-Curtis integrals of each row of the batch, None for a
    row that no degree within the bounds brings to the target and for the
    whole batch when not even the first pair of degrees fits them.

    With h = (b - a)/2 and m = (a + b)/2, each row of rows(m + h x) is
    interpolated by sum c_n T_n(x) on Chebyshev points and each T_n is
    integrated against exp(i rate (m + h x)) exactly, so the cost does not
    depend on the rate.  Degree N is checked against degree 2N, N doubling
    while 2N is within the stability bound min|rate| h and 2N + 1 within the
    node budget max_panels * PANEL_NODES.  The moments depend only on the
    window and the rates, so each round runs one recurrence for all rows;
    each row keeps its own acceptance test and its own arithmetic, so it
    gets the value it gets alone.
    """
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    omega = rates * half
    omega_min = float(np.abs(omega).min())
    scale = half * np.exp(1j * rates * mid)
    mu = np.empty((0, rates.size), dtype=complex)

    def estimate(n: int) -> list:
        nonlocal mu
        if len(mu) <= n:
            # the first round's recurrence runs on to the degree it checks against
            mu = _chebyshev_moments(omega, n if len(mu) else 2 * n)
        x = np.cos(np.pi * (np.arange(n + 1) + 0.5) / (n + 1))
        return [scale * (_dct(row) @ mu[: n + 1]) for row in rows(mid + half * x)]

    # PANEL_NODES per unit of width, rounded to a power-of-two multiple
    n = PANEL_NODES * 2 ** max(0, int(np.rint(np.log2(b - a))))
    return _refine(estimate, n, min(int(omega_min), spec.max_panels * PANEL_NODES - 1), spec)


def _grid_rows(rows, rates: np.ndarray, a: float, b: float, spec: QuadratureSpec) -> list:
    """Composite Gauss-Legendre integrals of each row of the batch, on one
    grid of at least one panel per period of the fastest rate, doubled until
    the row meets the target within max_panels panels."""
    rate_max = float(np.abs(rates).max())
    n0 = int(np.ceil(rate_max * (b - a) / (2.0 * np.pi))) + 1

    def estimate(n_panels: int) -> np.ndarray:
        nodes, weights = _fixed_grid(a, b, n_panels)
        base = rows(nodes) * weights
        step = np.exp(1j * nodes)
        phase = np.exp(1j * rates[0] * nodes)
        vals = np.empty((base.shape[0], rates.size), dtype=complex)
        for i in range(rates.size):
            if i:
                phase *= step
            vals[:, i] = [phase @ row for row in base]
        return vals

    return _refine(
        estimate, n0, spec.max_panels, spec,
        f"batch with max rate {rate_max:g} needs {2 * n0} panels, budget is {spec.max_panels}", lambda n: f"{n} panels",
    )


def integrate_oscillatory_batch(
    f_smooth: Callable[[np.ndarray], np.ndarray],
    phase_rates,
    a: float,
    b: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> np.ndarray:
    """Integrals of f_smooth(k) * exp(i * rate * k) for consecutive integer rates.

    phase_rates must be r0, r0 + 1, r0 + 2, ...  f_smooth may return one
    row of values per integrand, shape (rows, k.size); the result then has
    one row of integrals per integrand, each with the bytes it has alone.
    The batch takes one of two rules, both refined by _refine.  When every
    rate has a phase extent |rate| * (b - a)/2 of at least FILON_MIN_PHASE,
    it takes the Filon-Clenshaw-Curtis rule (_filon_rows), whose cost does
    not grow with the rate; a row that no degree within its bounds brings to
    the target goes to the grid alone, its company keeping their Filon
    values.  Otherwise all rates share one composite Gauss-Legendre grid
    sized for the fastest phase (so every rate gets at least PANEL_NODES
    nodes per period) and a single evaluation of f_smooth.  The phases
    follow by recurrence: exp(i*r0*k) and exp(i*k) once per node, then one
    complex multiply per further rate.
    """
    rates = np.asarray(phase_rates, dtype=float)
    if rates.size == 0:
        return np.zeros(0, dtype=complex)
    if rates[0] != np.round(rates[0]) or np.any(np.diff(rates) != 1.0):
        raise ValueError("integrate_oscillatory_batch requires consecutive integer rates")
    if a > b:
        raise ValueError("integrate_oscillatory_batch requires a <= b")
    if a == b:
        return np.zeros(np.shape(f_smooth(np.empty(0)))[:-1] + rates.shape, dtype=complex)
    shape: list = []

    def rows(k: np.ndarray) -> np.ndarray:
        vals = np.asarray(f_smooth(k), dtype=complex)
        shape[:] = vals.shape[:-1]
        return vals.reshape(-1, k.size)

    filon = float(np.abs(rates).min()) * (0.5 * (b - a)) >= FILON_MIN_PHASE
    out = _filon_rows(rows, rates, a, b, spec) if filon else None
    if out is None:
        out = _grid_rows(rows, rates, a, b, spec)
    pending = [i for i, v in enumerate(out) if v is None]
    if pending:
        for i, v in zip(pending, _grid_rows(lambda k: rows(k)[pending], rates, a, b, spec)):
            out[i] = v
    return np.array(out).reshape(tuple(shape) + rates.shape)


def check_hermitian(m: np.ndarray) -> None:
    """Raise NotHermitian on a non-finite entry, or unless
    ||M - M^dag||_max <= HERM_TOL * max(1, ||M||_max)."""
    bad = np.argwhere(~np.isfinite(m))
    if bad.size:
        i, j = bad[0]
        raise NotHermitian(f"non-finite entry {m[i, j]} at ({i}, {j})")
    scale = max(1.0, float(np.abs(m).max(initial=0.0)))
    diff = m - m.conj().T
    dev = float(np.abs(diff, out=diff).real.max(initial=0.0))  # in place: one temporary
    if dev > HERM_TOL * scale:
        raise NotHermitian(f"Hermiticity deviation {dev:.3e} exceeds {HERM_TOL * scale:.3e}")
