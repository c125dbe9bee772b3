"""Quadrature and dense linear-algebra primitives used throughout the package.

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

a forward recurrence that is stable only for n <= |omega|.  N starts at
nodes_per_panel and doubles; degree N is checked against degree 2N with the
Gauss-Legendre acceptance test, while 2N <= omega_min (stability) and
2N + 1 <= max_panels * nodes_per_panel (the same budget in nodes).  When no
degree passes, the batch falls back to the Gauss-Legendre grid, which
raises NonConvergence on its panel budget.

Gauss-Legendre nodes are interior points, so integrable endpoint
singularities are never evaluated at the endpoint itself.

The eigenvalue and inverse routines wrap LAPACK (through ``numpy.linalg``)
behind the checks the rest of the package relies on: Hermiticity is verified
before ``eigvalsh`` or ``eigh``, which read one triangle of the matrix as it
is, and inverses are checked against an explicit residual.  A real matrix
stays real, so a real symmetric one is solved in real arithmetic.
Eigenvectors are taken only of the diagonal blocks of a partition, which the
entanglement measures deflate to their coupled modes.
"""

from __future__ import annotations

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
    "Singular",
    "integrate",
    "integrate_oscillatory",
    "integrate_oscillatory_batch",
    "check_hermitian",
    "eig_hermitian",
    "eigh_hermitian",
    "eig_general",
    "mat_inverse",
]


#: relative Hermiticity tolerance of check_hermitian and the eigensolvers
HERM_TOL = 1e-10


class NumericsError(Exception):
    """Base class for numerical failures in this module."""


class NonConvergence(NumericsError):
    """Raised when the panel budget is exhausted above the error target."""


class NotHermitian(NumericsError):
    """Raised when a matrix fails the Hermiticity check."""


class Singular(NumericsError):
    """Raised when a matrix is numerically singular."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Error targets and budget for the adaptive quadrature.

    abs_tol is the absolute error target, rel_tol the relative one; the
    effective target is max(abs_tol, rel_tol * |estimate|).
    """

    abs_tol: float = 1e-10
    rel_tol: float = 0.0
    max_panels: int = 20000
    nodes_per_panel: int = 16

    def __post_init__(self) -> None:
        if not self.abs_tol > 0:
            raise ValueError("abs_tol must be positive")
        if self.rel_tol < 0:
            raise ValueError("rel_tol must be non-negative")
        if self.nodes_per_panel < 4:
            raise ValueError("nodes_per_panel must be at least 4")
        if self.max_panels < 1:
            raise ValueError("max_panels must be at least 1")


DEFAULT_SPEC = QuadratureSpec()

_GAUSS_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gauss_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    rule = _GAUSS_CACHE.get(order)
    if rule is None:
        x, w = np.polynomial.legendre.leggauss(order)
        rule = (x, w)
        _GAUSS_CACHE[order] = rule
    return rule


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
    applies.  Falls back to plain integration when the phase is slow.
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

_CHEBYSHEV_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _chebyshev_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n + 1 first-kind Chebyshev points cos(pi (j + 1/2)/(n + 1)) and the
    DCT-II matrix taking values there to the coefficients c_0..c_n of the
    interpolant sum c_k T_k."""
    rule = _CHEBYSHEV_CACHE.get(n)
    if rule is None:
        theta = np.pi * (np.arange(n + 1) + 0.5) / (n + 1)
        dct = (2.0 / (n + 1)) * np.cos(np.outer(np.arange(n + 1), theta))
        dct[0] *= 0.5
        rule = (np.cos(theta), dct)
        _CHEBYSHEV_CACHE[n] = rule
    return rule


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


def _filon_batch(f_smooth, rates: np.ndarray, a: float, b: float, spec: QuadratureSpec) -> np.ndarray | None:
    """Filon-Clenshaw-Curtis estimate of the batch, or None when its phase
    extent is below FILON_MIN_PHASE or no degree within the stability bound
    and the budget meets the target.

    With h = (b - a)/2 and m = (a + b)/2, f_smooth(m + h x) is interpolated
    by sum c_n T_n(x) on Chebyshev points and each T_n is integrated against
    exp(i rate (m + h x)) exactly, so the cost does not depend on the rate.
    Degree N is checked against degree 2N; both use one moment recurrence.
    """
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    omega = rates * half
    omega_min = float(np.abs(omega).min())
    if omega_min < FILON_MIN_PHASE:
        return None
    scale = half * np.exp(1j * rates * mid)

    def coefficients(n: int) -> np.ndarray:
        x, dct = _chebyshev_rule(n)
        return dct @ np.asarray(f_smooth(mid + half * x), dtype=complex)

    n = spec.nodes_per_panel
    coarse = None
    while 2 * n <= omega_min and 2 * n + 1 <= spec.max_panels * spec.nodes_per_panel:
        mu = _chebyshev_moments(omega, 2 * n)
        if coarse is None:
            coarse = scale * (coefficients(n) @ mu[: n + 1])
        fine = scale * (coefficients(2 * n) @ mu)
        err = np.abs(fine - coarse)
        tol = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(fine))
        if bool(np.all(err <= tol)):
            return fine
        coarse = fine
        n *= 2
    return None


def integrate_oscillatory_batch(
    f_smooth: Callable[[np.ndarray], np.ndarray],
    phase_rates,
    a: float,
    b: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> np.ndarray:
    """Integrals of f_smooth(k) * exp(i * rate * k) for consecutive integer rates.

    phase_rates must be r0, r0 + 1, r0 + 2, ...  When every rate has a phase
    extent |rate| * (b - a)/2 of at least FILON_MIN_PHASE, the batch first
    tries the Filon-Clenshaw-Curtis rule (_filon_batch), whose cost does not
    grow with the rate.  Otherwise, or when that rule does not converge, all
    rates share one composite Gauss-Legendre grid sized for the fastest
    phase (so every rate gets at least nodes_per_panel nodes per period) and
    a single evaluation of f_smooth.  The phases follow by recurrence:
    exp(i*r0*k) and exp(i*k) once per node, then one complex multiply per
    further rate.  Agreement between the grid and its twice-refined version
    is required to the spec tolerance, doubling further until the budget
    runs out.
    """
    rates = np.asarray(phase_rates, dtype=float)
    if rates.size == 0:
        return np.zeros(0, dtype=complex)
    if rates[0] != np.round(rates[0]) or np.any(np.diff(rates) != 1.0):
        raise ValueError("integrate_oscillatory_batch requires consecutive integer rates")
    if a > b:
        raise ValueError("integrate_oscillatory_batch requires a <= b")
    if a == b:
        return np.zeros(rates.shape, dtype=complex)
    filon = _filon_batch(f_smooth, rates, a, b, spec)
    if filon is not None:
        return filon
    rate_max = float(np.abs(rates).max())
    n0 = int(np.ceil(rate_max * (b - a) / (2.0 * np.pi))) + 1

    def eval_on(n_panels: int) -> np.ndarray:
        nodes, weights = _fixed_grid(a, b, n_panels, spec.nodes_per_panel)
        base = np.asarray(f_smooth(nodes), dtype=complex) * weights
        step = np.exp(1j * nodes)
        phase = np.exp(1j * rates[0] * nodes)
        out = np.empty(rates.shape, dtype=complex)
        out[0] = phase @ base
        for i in range(1, rates.size):
            phase *= step
            out[i] = phase @ base
        return out

    if 2 * n0 > spec.max_panels:
        raise NonConvergence(
            f"batch with max rate {rate_max:g} needs {2 * n0} panels, budget is {spec.max_panels}"
        )
    coarse = eval_on(n0)
    while True:
        fine = eval_on(2 * n0)
        err = np.abs(fine - coarse)
        tol = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(fine))
        if bool(np.all(err <= tol)):
            return fine
        n0 *= 2
        if 2 * n0 > spec.max_panels:
            raise NonConvergence(
                f"batch error {float(err.max()):.3e} above target with {n0} panels"
            )
        coarse = fine


def _as_matrix(m) -> np.ndarray:
    a = np.asarray(m)
    a = a if np.iscomplexobj(a) else a.astype(float, copy=False)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError("expected a square matrix of dimension >= 1")
    return a


def check_hermitian(upper: np.ndarray, lower: np.ndarray | None = None, herm_tol: float = HERM_TOL) -> None:
    """Raise NotHermitian unless ||lower - upper^dag||_max <= herm_tol * max(1, ||upper||_max).

    With lower omitted this checks upper itself; given, upper and lower are
    the two off-diagonal blocks of one matrix.
    """
    lower = upper if lower is None else lower
    scale = max(1.0, float(np.abs(upper).max()))
    diff = lower - upper.conj().T
    dev = float(np.abs(diff, out=diff).real.max())  # in place: one temporary
    if dev > herm_tol * scale:
        raise NotHermitian(f"Hermiticity deviation {dev:.3e} exceeds {herm_tol * scale:.3e}")


def _checked(m, herm_tol: float | None) -> np.ndarray:
    """M as a matrix, after check_hermitian(M) unless herm_tol is None."""
    a = _as_matrix(m)
    if herm_tol is not None:
        check_hermitian(a, herm_tol=herm_tol)
    return a


def eig_hermitian(m, herm_tol: float | None = HERM_TOL) -> np.ndarray:
    """Ascending real eigenvalues of a Hermitian matrix.

    The matrix must satisfy ||M - M^dag||_max <= herm_tol * max(1, ||M||_max);
    LAPACK then reads its lower triangle, so a deviation within the tolerance
    (quadrature noise breaks exact Hermiticity at the 1e-12 level) is read as
    the Hermitian matrix of that triangle.  herm_tol=None skips the check,
    for a matrix its caller has checked.
    """
    return np.linalg.eigvalsh(_checked(m, herm_tol))


def eigh_hermitian(m, herm_tol: float | None = HERM_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and the matching orthonormal eigenvectors (as
    columns) of a Hermitian matrix, behind the same check as eig_hermitian."""
    return np.linalg.eigh(_checked(m, herm_tol))


def eig_general(m) -> np.ndarray:
    """Eigenvalue multiset of a general complex matrix (unordered)."""
    a = _as_matrix(m)
    try:
        return np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NonConvergence(f"eigenvalue iteration failed: {exc}") from exc


def mat_inverse(m) -> np.ndarray:
    """Inverse with an explicit residual check: ||M M^-1 - I||_max <= 1e-9 * dim."""
    a = _as_matrix(m)
    dim = a.shape[0]
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise Singular(f"matrix is singular: {exc}") from exc
    residual = float(np.abs(a @ inv - np.eye(dim)).max())
    if not np.isfinite(residual) or residual > 1e-9 * dim:
        raise Singular(f"inverse residual {residual:.3e} exceeds {1e-9 * dim:.3e}")
    return inv
