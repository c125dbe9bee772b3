"""Quadrature primitives and the one correlation-matrix check used throughout the package.

Every integral in this package is one-dimensional and falls into one of two
families:

* smooth integrands, possibly with integrable endpoint singularities
  (logs, x**(n-1) with n >= 1/2), handled by composite Gauss-Legendre
  rules over start panels: the single panel [a, b], or 45 panels graded
  geometrically toward a singular left endpoint;
* oscillatory integrands f(k) * exp(i*mu*k) with |mu| up to ~1e5:
  Filon-Clenshaw-Curtis (FCC), with a rate-independent cost, within each
  block's Filon bound, which is 0 below a phase extent omega_min =
  min|mu| * (b - a)/2 of FILON_MIN_PHASE = 256; Gauss-Legendre with one
  panel per period to start for every row that FCC leaves.

Every rule runs one refinement loop (_refine): size n against size 2n, each
row of estimates accepted once it agrees to abs_tol, n doubling while the
row's own bound allows it.  For the Gauss-Legendre rules n counts the equal
panels each start panel is split into (_composite_rule), and 2n times the
start panels must stay within max_panels, the first pair included.

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
doubling while 2N is within the block's Filon bound: omega_min
(stability), capped so that 2N + 1 <= max_panels * PANEL_NODES (the same
budget in nodes), and 0 when omega_min < FILON_MIN_PHASE.  N starts from
the window alone: PANEL_NODES per unit of its width b - a, rounded to a
power-of-two multiple of PANEL_NODES.  The degree f needs grows with the
window it spans: on the Fermi windows of the Fig. S2 config (widths pi/2 and
2 pi/3, where N starts at 32) every Filon block fails N = 16 and passes
N = 32, while smooth integrands on [0, 1] pass at 16.
A batch takes several integrands (f_smooth returning one row per
integrand, a shape it learns from one call on an empty array) on a stack
of blocks of rates in one window (phase_rates with one row per block).
Every block goes to FCC first.  The samples of f and the coefficients
depend only on the window and the degree, so each degree samples f and
takes each integrand's FFT once for the whole stack.  The moments depend on the rates
too: each degree runs one recurrence per MOMENT_BLOCKS blocks that still
have a pending row, and the moments live only as long as that degree's
estimates of those blocks.  Each (integrand, block) row keeps its own
acceptance test, its own Filon bound (that of its block) and its own
arithmetic, so its values have the bytes they have alone.  A row that no
degree within its bound brings to the target, all rows of a block below
FILON_MIN_PHASE among them, takes the one route to the Gauss-Legendre
grid of its block, which raises NonConvergence on its panel budget.  For
a block of FCC rows that happens when f has a pole close to the window:
t(k) = sin k/(sin k + i c), c = epsilon0/(2 eta), has one at distance
about c from k = 0, where the windows L and R start, and at epsilon0 = 0.02 or
0.05 the Fig. S2 distance sweep has blocks whose Chebyshev degree passes
the stability bound.

Gauss-Legendre nodes are interior points, so integrable endpoint
singularities are never evaluated at the endpoint itself.  Every rule
raises NonConvergence at the first integrand value that is not finite,
and every entry point raises ValueError on a limit or rate that is not
finite, before f is evaluated.

``check_hermitian`` is the one matrix check: it runs once, when a
``correlation.CorrelationMatrix`` is made from outside the package, and
rejects non-finite entries as well as non-Hermitian ones.  ``entanglement``
then calls ``numpy.linalg`` directly, whose ``eigvalsh`` and ``eigh`` read
one triangle of a matrix that is already Hermitian.
"""

from __future__ import annotations

import functools
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


def _graded_edges(a: float, b: float) -> np.ndarray:
    """Panel edges geometrically refined toward a singular left endpoint.

    Each level halves the distance to a; 44 levels push the innermost
    panel to ~6e-14 of the range, deep enough for the tolerances in use
    while keeping nodes representable away from the endpoint.
    """
    frac = np.concatenate([[0.0], 2.0 ** np.arange(-44, 1, dtype=float)])
    return a + (b - a) * frac


def _composite_rule(edges: np.ndarray, parts: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite Gauss-Legendre rule that splits the
    panel between each pair of consecutive edges into parts equal panels."""
    x, w = _gauss_rule(PANEL_NODES)
    cuts = np.linspace(edges[:-1], edges[1:], parts + 1, axis=-1)
    half = 0.5 * (cuts[:, 1:] - cuts[:, :-1])
    mid = 0.5 * (cuts[:, 1:] + cuts[:, :-1])
    nodes = (mid[..., None] + half[..., None] * x).ravel()
    weights = (half[..., None] * w).ravel()
    return nodes, weights


def _panel_integral(f, edges: np.ndarray, spec: QuadratureSpec, parts: int = 1) -> complex:
    """Integral of f over edges[0]..edges[-1] by _refine: each start panel
    split into n equal Gauss-Legendre panels, n = parts, 2 parts, ..., each n
    against 2 n, while 2 n times the start panels is within max_panels."""
    starts = edges.size - 1

    def estimate(n: int, rows: list) -> list:
        nodes, weights = _composite_rule(edges, n)
        vals = np.asarray(f(nodes), dtype=complex)
        if not np.all(np.isfinite(vals)):
            raise NonConvergence("integrand evaluated to a non-finite value")
        return [vals @ weights]

    (value,) = _refine(
        estimate, parts, [spec.max_panels // starts], spec,
        f"integral needs {2 * parts * starts} panels, budget is {spec.max_panels}", lambda n: f"{n * starts} panels",
    )
    return complex(value)


def _require_finite(caller: str, **args) -> None:
    """Raise ValueError naming the first of args with a non-finite value."""
    for name, value in args.items():
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{caller} requires a finite {name}")


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
    (real or complex).  The start panel is [a, b]; set singular_left when the
    integrand has an integrable singularity at a, and the 45 start panels of
    _graded_edges are graded geometrically toward it.
    """
    _require_finite("integrate", a=a, b=b)
    if a > b:
        raise ValueError("integrate requires a <= b")
    if a == b:
        return 0.0 + 0.0j
    return _panel_integral(f, _graded_edges(a, b) if singular_left else np.array([a, b]), spec)


def integrate_oscillatory(
    f_smooth: Callable[[np.ndarray], np.ndarray],
    phase_rate: float,
    a: float,
    b: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> complex:
    """Integral of f_smooth(k) * exp(i * phase_rate * k) over [a, b].

    The first estimate has at least one panel (hence PANEL_NODES nodes) per
    oscillation period, and the panels then double as in ``integrate``,
    which this is at phase_rate 0.
    """
    _require_finite("integrate_oscillatory", phase_rate=phase_rate, a=a, b=b)
    if a > b:
        raise ValueError("integrate_oscillatory requires a <= b")
    if a == b:
        return 0.0 + 0.0j
    n0 = int(np.ceil(abs(phase_rate) * (b - a) / (2.0 * np.pi))) + 1
    return _panel_integral(
        lambda k: np.asarray(f_smooth(k), dtype=complex) * np.exp(1j * phase_rate * k), np.array([a, b]), spec, n0
    )


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
    """mu_n(omega) = int_{-1}^{1} T_n(x) exp(i omega x) dx for n = 0..n_max,
    by the forward recurrence; stable for n <= |omega|.  omega has shape
    (..., R) and mu shape (..., n_max + 1, R): n runs along the rows of each
    (n_max + 1, R) slab, which is contiguous."""
    inv = 1.0 / (1j * omega)
    # B_n / (i omega) with B_n = exp(i omega) - (-1)^n exp(-i omega)
    boundary = (2.0 * np.sin(omega) / omega, 2.0 * np.cos(omega) * inv)
    mu = np.empty(omega.shape[:-1] + (n_max + 1, omega.shape[-1]), dtype=complex)
    mu[..., 0, :] = boundary[0]
    mu[..., 1, :] = boundary[1] - mu[..., 0, :] * inv
    mu[..., 2, :] = boundary[0] - 4.0 * mu[..., 1, :] * inv
    for n in range(2, n_max):
        mu[..., n + 1, :] = (
            (-2.0 / (n - 1)) * boundary[(n + 1) % 2]
            - (2.0 * (n + 1)) * mu[..., n, :] * inv
            + ((n + 1) / (n - 1)) * mu[..., n - 1, :]
        )
    return mu


def _refine(estimate, n: int, limits, spec: QuadratureSpec, needs: str | None = None, size=None) -> list:
    """The refinement loop of every quadrature, over rows with one bound
    each in limits.  estimate(n, rows) returns the estimates at size n of
    the listed rows; each row is checked against its estimate at 2 n and
    accepted with the latter once every rate agrees to spec.abs_tol, n
    doubling and the row estimated again while it is pending and 2 n is
    within its bound.  estimate is asked only for such live rows.

    Without needs, a row whose bound is reached while it is pending, or
    before its first pair, is None.  With needs, a row whose first pair
    does not fit raises NonConvergence(needs), and one whose bound is
    reached while it is pending NonConvergence naming size(n) of the last
    estimate and the largest |fine - coarse| of such rows in the last pair.
    """
    out = [None] * len(limits)
    live = [i for i, bound in enumerate(limits) if 2 * n <= bound]
    if needs is not None and len(live) < len(limits):
        raise NonConvergence(needs)
    coarse = dict(zip(live, estimate(n, live))) if live else {}
    while coarse:
        fine = dict(zip(coarse, estimate(2 * n, list(coarse))))
        for i, lo in coarse.items():
            if np.all(np.abs(fine[i] - lo) <= spec.abs_tol):
                out[i] = fine[i]
        n *= 2
        stuck = [i for i in coarse if out[i] is None and 2 * n > limits[i]]
        if stuck and needs is not None:
            err = max(float(np.abs(fine[i] - coarse[i]).max()) for i in stuck)
            raise NonConvergence(f"batch error {err:.3e} above target with {size(n)}")
        coarse = {i: fine[i] for i in coarse if out[i] is None and 2 * n <= limits[i]}
    return out


#: table blocks per Chebyshev moment recurrence: at degree 128 the moments of
#: eight blocks of 64 rates take about 1 MB
MOMENT_BLOCKS = 8


def _filon_rows(rows, count: int, blocks: np.ndarray, a: float, b: float, spec: QuadratureSpec) -> list:
    """Filon-Clenshaw-Curtis integrals of the count rows of the batch at
    each block of rates (one row of blocks each): one list per block with
    one entry per row, None for a row that no degree within its block's
    bound brings to the target.

    With h = (b - a)/2 and m = (a + b)/2, each row of rows(m + h x) is
    interpolated by sum c_n T_n(x) on Chebyshev points and each T_n is
    integrated against exp(i rate (m + h x)) exactly, so the cost does not
    depend on the rate.  Degree N is checked against degree 2N, N doubling
    while 2N is within the block's bound: its stability bound min|rate| h,
    capped by the node budget (2N + 1 <= max_panels * PANEL_NODES), and 0
    when min|rate| h is below FILON_MIN_PHASE, so that a slower block's rows
    are all None.  The samples and the coefficients c_n depend only on the
    window and the degree, so each degree takes them once for all blocks.
    The moments depend on the rates too: each degree runs one recurrence per
    MOMENT_BLOCKS blocks with a pending row, the first one on to the degree
    it is checked against.  Each (row, block) keeps its own acceptance test
    and its own arithmetic (its block's moments are contiguous, as they are
    alone), so it gets the value it gets alone.
    """
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    omega = blocks * half
    phase = np.abs(omega).min(axis=1)
    bounds = np.where(phase >= FILON_MIN_PHASE, np.minimum(phase.astype(int), spec.max_panels * PANEL_NODES - 1), 0)
    # PANEL_NODES per unit of width, rounded to a power-of-two multiple
    start = PANEL_NODES * 2 ** max(0, int(np.rint(np.log2(b - a))))
    coeffs: dict[int, list] = {}

    def chebyshev(n: int) -> list:
        # one sample of the rows and one DCT per row for every block
        if n not in coeffs:
            x = np.cos(np.pi * (np.arange(n + 1) + 0.5) / (n + 1))
            coeffs[n] = [_dct(row) for row in rows(mid + half * x)]
        return coeffs[n]

    scale = half * np.exp(1j * blocks * mid)
    made: dict[int, dict] = {}

    def estimate(n: int, wanted: list) -> list:
        # row r is row r % count of the batch at block r // count
        if n not in made:
            degrees = (n, 2 * n) if n == start else (n,)
            by_block: dict[int, list] = {}
            for r in wanted:
                by_block.setdefault(r // count, []).append(r)
            live = list(by_block)
            made.update((d, {}) for d in degrees)
            for lo in range(0, len(live), MOMENT_BLOCKS):
                chunk = live[lo : lo + MOMENT_BLOCKS]
                for j, mu in zip(chunk, _chebyshev_moments(omega[chunk], degrees[-1])):
                    for d in degrees:
                        c = chebyshev(d)
                        made[d].update((r, scale[j] * (c[r % count] @ mu[: d + 1])) for r in by_block[j])
        done = made.pop(n)
        return [done[r] for r in wanted]

    out = _refine(estimate, start, np.repeat(bounds, count), spec)
    return [out[j * count : (j + 1) * count] for j in range(len(blocks))]


def _grid_rows(rows, count: int, rates: np.ndarray, a: float, b: float, spec: QuadratureSpec) -> list:
    """Composite Gauss-Legendre integrals of the count rows of the batch, on
    one grid of at least one panel per period of the fastest rate, doubled
    until each row meets the target within max_panels panels; the phase dot
    products are formed only for the rows still pending."""
    rate_max = float(np.abs(rates).max())
    n0 = int(np.ceil(rate_max * (b - a) / (2.0 * np.pi))) + 1

    def estimate(n_panels: int, wanted: list) -> list:
        nodes, weights = _composite_rule(np.array([a, b]), n_panels)
        base = rows(nodes)[wanted]  # a copy, weighted in place
        base *= weights
        step = np.exp(1j * nodes)
        phase = np.exp(1j * rates[0] * nodes)
        vals = np.empty((len(wanted), rates.size), dtype=complex)
        for i in range(rates.size):
            if i:
                phase *= step
            vals[:, i] = [phase @ row for row in base]
        return list(vals)

    return _refine(
        estimate, n0, [spec.max_panels] * count, spec,
        f"batch with max rate {rate_max:g} needs {2 * n0} panels, budget is {spec.max_panels}", lambda n: f"{n} panels",
    )


def integrate_oscillatory_batch(
    f_smooth: Callable[[np.ndarray], np.ndarray],
    phase_rates,
    a: float,
    b: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> np.ndarray:
    """Integrals of f_smooth(k) * exp(i * rate * k) for blocks of consecutive
    integer rates.

    phase_rates is one block r0, r0 + 1, r0 + 2, ..., or a 2-D stack of such
    blocks of one length, one per row, each with its own r0.  f_smooth may
    return one row of values per integrand, shape (rows, k.size); it is
    called once on an empty array first to learn that shape.  The result
    has shape (rows,) + phase_rates.shape, and each (integrand, block) has
    the bytes it has alone, in a stack of one.  Every block first goes to
    the Filon-Clenshaw-Curtis rule (_filon_rows), whose cost does not grow
    with the rate and whose samples of f_smooth, coefficients and moment
    recurrences the blocks of a stack share.  A block with a rate of phase
    extent |rate| * (b - a)/2 below FILON_MIN_PHASE has Filon bound 0 there,
    so all its rows are left pending.  Each row that Filon leaves, for that
    reason or because no degree within its block's bound brings it to the
    target, goes to one composite Gauss-Legendre grid per block
    (_grid_rows), its company keeping their Filon values.  The grid is
    sized for the block's fastest phase (so every rate gets at least
    PANEL_NODES nodes per period) and takes a single evaluation of f_smooth
    per size; the phases follow by recurrence: exp(i*r0*k) and exp(i*k)
    once per node, then one complex multiply per further rate.  The blocks
    go to the grid in stack order, so a failure there is that of the first
    block that fails.  An integrand value that is not finite raises
    NonConvergence at once.
    """
    rates = np.asarray(phase_rates, dtype=float)
    _require_finite("integrate_oscillatory_batch", phase_rates=rates, a=a, b=b)
    if rates.ndim not in (1, 2):
        raise ValueError("integrate_oscillatory_batch requires one block or a 2-D stack of blocks of rates")
    if np.any(rates != np.round(rates)) or np.any(np.diff(rates) != 1.0):
        raise ValueError("integrate_oscillatory_batch requires consecutive integer rates")
    if a > b:
        raise ValueError("integrate_oscillatory_batch requires a <= b")
    shape = np.shape(f_smooth(np.empty(0)))[:-1]
    if a == b or rates.size == 0:
        return np.zeros(shape + rates.shape, dtype=complex)
    count = int(np.prod(shape))

    def rows(k: np.ndarray) -> np.ndarray:
        vals = np.asarray(f_smooth(k), dtype=complex).reshape(count, k.size)
        if not np.all(np.isfinite(vals)):
            raise NonConvergence("integrand evaluated to a non-finite value")
        return vals

    blocks = rates.reshape(-1, rates.shape[-1])
    found = _filon_rows(rows, count, blocks, a, b, spec)
    for block, vals in zip(blocks, found):
        pending = [i for i, v in enumerate(vals) if v is None]
        if pending:
            for i, v in zip(pending, _grid_rows(lambda k: rows(k)[pending], len(pending), block, a, b, spec)):
                vals[i] = v
    return np.array(found).swapaxes(0, 1).reshape(shape + rates.shape)


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
