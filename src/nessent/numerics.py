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
  (FCC) with a rate-independent cost above it.

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
checked against degree 2N with the Gauss-Legendre acceptance test, N
doubling while 2N <= omega_min (stability) and 2N + 1 <= max_panels *
nodes_per_panel (the same budget in nodes).  N starts from the window
alone: nodes_per_panel per unit of its width b - a, rounded to a
power-of-two multiple of nodes_per_panel.  The degree f needs grows with the
window it spans: on the Fermi windows of the Fig. S2 config (widths pi/2 and
2 pi/3, where N starts at 32) every Filon block fails N = 16 and passes
N = 32, while smooth integrands on [0, 1] pass at 16.
The moments depend only on the window and the rates, so a batch of several
integrands on one window block (f_smooth returning one row per integrand)
runs one recurrence per degree for all of them; each integrand keeps its
own acceptance test and arithmetic, so its values have the bytes they have
alone.  Nothing keeps the moments beyond the batch.  When no degree passes,
an integrand falls back to the Gauss-Legendre grid, which raises
NonConvergence on its panel budget.

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


@dataclass(frozen=True)
class QuadratureSpec:
    """Error targets and budget for the adaptive quadrature.

    abs_tol is the absolute error target, rel_tol the relative one; the
    effective target is max(abs_tol, rel_tol * |estimate|).  Both must be
    finite: an infinite abs_tol accepts the first estimate, and a NaN
    rel_tol never accepts one.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 0.0
    max_panels: int = 20000
    nodes_per_panel: int = 16

    def __post_init__(self) -> None:
        if not 0 < self.abs_tol < np.inf:
            raise ValueError("abs_tol must be positive and finite")
        if not 0 <= self.rel_tol < np.inf:
            raise ValueError("rel_tol must be non-negative and finite")
        if self.nodes_per_panel < 4:
            raise ValueError("nodes_per_panel must be at least 4")
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


def _graded_edges(a: float, b: float, left: bool, right: bool, levels: int = 44) -> np.ndarray:
    """Panel edges geometrically refined toward singular endpoints.

    Each level halves the distance to the endpoint; 44 levels push the
    innermost panel to ~6e-14 of the range, deep enough for the tolerances
    in use while keeping nodes representable away from the endpoint.
    """
    if not (left or right):
        return np.array([a, b])
    if left and right:
        m = 0.5 * (a + b)
        lo = _graded_edges(a, m, True, False, levels)
        hi = _graded_edges(m, b, False, True, levels)
        return np.concatenate([lo, hi[1:]])
    frac = np.concatenate([[0.0], 2.0 ** np.arange(-levels, 1, dtype=float)])
    if left:
        return a + (b - a) * frac
    return b - (b - a) * frac[::-1]


def _adaptive(f, edges: np.ndarray, spec: QuadratureSpec) -> complex:
    """Globally adaptive refinement over an initial panel partition.

    The per-panel error estimate is the difference between the full-order
    and half-order Gauss-Legendre rules.  The worst panel is bisected until
    the summed error estimate meets the target or the budget runs out.
    """
    order_hi = spec.nodes_per_panel
    order_lo = max(4, spec.nodes_per_panel // 2)
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
        target = max(spec.abs_tol, spec.rel_tol * abs(total))
        if total_err <= target:
            return total
        if n_panels + 1 > spec.max_panels or not heap:
            raise NonConvergence(
                f"quadrature stalled at {n_panels} panels, "
                f"error {total_err:.3e} > target {target:.3e}"
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
    singular_right: bool = False,
) -> complex:
    """Integral of f over [a, b].

    f must accept a numpy array of abscissae and return values elementwise
    (real or complex).  Set singular_left / singular_right when the
    integrand has an integrable singularity at that endpoint; the initial
    partition is then geometrically graded toward it.
    """
    if a > b:
        raise ValueError("integrate requires a <= b")
    if a == b:
        return 0.0 + 0.0j
    edges = _graded_edges(a, b, singular_left, singular_right)
    return _adaptive(f, edges, spec)


def integrate_oscillatory(
    f_smooth: Callable[[np.ndarray], np.ndarray],
    phase_rate: float,
    a: float,
    b: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> complex:
    """Integral of f_smooth(k) * exp(i * phase_rate * k) over [a, b].

    The initial partition assigns at least one panel (hence nodes_per_panel
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


def _fixed_grid(a: float, b: float, n_panels: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of a uniform composite Gauss-Legendre rule."""
    x, w = _gauss_rule(order)
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


def _accepted(coarse: np.ndarray, fine: np.ndarray, spec: QuadratureSpec) -> bool:
    """The acceptance test of both rules: |fine - coarse| within the target
    at every rate."""
    return bool(np.all(np.abs(fine - coarse) <= np.maximum(spec.abs_tol, spec.rel_tol * np.abs(fine))))


def _filon_rows(rows, rates: np.ndarray, a: float, b: float, spec: QuadratureSpec) -> list | None:
    """Filon-Clenshaw-Curtis estimate of each row of the batch, or None for
    a row that no degree within the stability bound and the budget brings to
    the target; None for the whole batch when its phase extent is below
    FILON_MIN_PHASE.

    With h = (b - a)/2 and m = (a + b)/2, each row of rows(m + h x) is
    interpolated by sum c_n T_n(x) on Chebyshev points and each T_n is
    integrated against exp(i rate (m + h x)) exactly, so the cost does not
    depend on the rate.  Degree N is checked against degree 2N.  The moments
    depend only on the window and the rates, so each round runs one
    recurrence for all rows; each row keeps its own acceptance test and its
    own arithmetic, so it gets the value it gets alone.
    """
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    omega = rates * half
    omega_min = float(np.abs(omega).min())
    if omega_min < FILON_MIN_PHASE:
        return None
    scale = half * np.exp(1j * rates * mid)

    def estimates(n: int, mu: np.ndarray) -> list:
        x = np.cos(np.pi * (np.arange(n + 1) + 0.5) / (n + 1))
        return [scale * (_dct(row) @ mu[: n + 1]) for row in rows(mid + half * x)]

    # nodes_per_panel per unit of width, rounded to a power-of-two multiple
    n = spec.nodes_per_panel * 2 ** max(0, int(np.rint(np.log2(b - a))))
    coarse = out = None
    while 2 * n <= omega_min and 2 * n + 1 <= spec.max_panels * spec.nodes_per_panel:
        mu = _chebyshev_moments(omega, 2 * n)
        if coarse is None:
            coarse = estimates(n, mu)
            out = [None] * len(coarse)
        fine = estimates(2 * n, mu)
        out = [hi if v is None and _accepted(lo, hi, spec) else v for v, lo, hi in zip(out, coarse, fine)]
        if all(v is not None for v in out):
            break
        coarse = fine
        n *= 2
    return out


def _grid_rows(rows, rates: np.ndarray, a: float, b: float, spec: QuadratureSpec, out: list | None) -> list:
    """out (one None per row when None) with each None replaced by the row's
    composite Gauss-Legendre integrals, on a grid doubled until the row
    meets the target; NonConvergence when the budget runs out first."""
    rate_max = float(np.abs(rates).max())
    n0 = int(np.ceil(rate_max * (b - a) / (2.0 * np.pi))) + 1

    def eval_on(n_panels: int) -> np.ndarray:
        nodes, weights = _fixed_grid(a, b, n_panels, spec.nodes_per_panel)
        base = rows(nodes) * weights
        step = np.exp(1j * nodes)
        phase = np.exp(1j * rates[0] * nodes)
        vals = np.empty((base.shape[0], rates.size), dtype=complex)
        for i in range(rates.size):
            if i:
                phase *= step
            vals[:, i] = [phase @ row for row in base]
        return vals

    if 2 * n0 > spec.max_panels:
        raise NonConvergence(
            f"batch with max rate {rate_max:g} needs {2 * n0} panels, budget is {spec.max_panels}"
        )
    coarse = eval_on(n0)
    out = [None] * len(coarse) if out is None else out
    while True:
        fine = eval_on(2 * n0)
        out = [hi if v is None and _accepted(lo, hi, spec) else v for v, lo, hi in zip(out, coarse, fine)]
        pending = [i for i, v in enumerate(out) if v is None]
        if not pending:
            return out
        n0 *= 2
        if 2 * n0 > spec.max_panels:
            err = max(float(np.abs(fine[i] - coarse[i]).max()) for i in pending)
            raise NonConvergence(f"batch error {err:.3e} above target with {n0} panels")
        coarse = fine


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
    When every rate has a phase extent |rate| * (b - a)/2 of at least
    FILON_MIN_PHASE, the batch first tries the Filon-Clenshaw-Curtis rule
    (_filon_rows), whose cost does not grow with the rate.  Otherwise, and
    for the rows that rule does not converge, all rates share one composite
    Gauss-Legendre grid sized for the fastest phase (so every rate gets at
    least nodes_per_panel nodes per period) and a single evaluation of
    f_smooth.  The phases follow by recurrence: exp(i*r0*k) and exp(i*k)
    once per node, then one complex multiply per further rate.  Agreement
    between the grid and its twice-refined version is required to the spec
    tolerance, doubling further until the budget runs out.
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

    out = _filon_rows(rows, rates, a, b, spec)
    if out is None or any(v is None for v in out):
        out = _grid_rows(rows, rates, a, b, spec, out)
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
