"""Closed-form asymptotics of the entanglement measures.

In the far regime (distances large compared to interval lengths, their
difference fixed) every measure decomposes into a volume term proportional to
the mirror overlap and a logarithmic term whose coefficients are momentum
integrals over the voltage window and fixed kernels of the transmission
probabilities at the two Fermi momenta.  The remaining constant is never
predicted here; experiment runners fit it.

One density.  Every volume coefficient and every log kernel reads the binary
Renyi entropy of the split (a, b)/(a + b),

    h_n(a, b) = ln[(a^n + b^n) / (a + b)^n] / (1 - n),

with both parts passed in exactly; von Neumann (n = 1) is an ordinary order,
h_1(a, b) = ln(a + b) - (a ln a + b ln b)/(a + b).  The volume terms integrate
h_n(T, 1 - T) over the voltage window.  The log term of one occupation step
of height p (q = 1 - p) is

    step_kernel(n, p) = int_0^1 dx/(2 pi^2 x) [ h_n(1 + p x, q x)
                                                + h_n(x + p, q) - h_n(p, q) ],

and that of a transmission / reflection pair (t, r = 1 - t) is

    pair_kernel(n, t) = int_0^1 dx/(2 pi^2 x) [ h_n(1 + t x, r x) + h_n(1 + r x, t x)
                                                + h_n(x + t, r) + h_n(x + r, t)
                                                - 2 h_n(t + r x, r + t x) ].

Both are integrated in s with x = s^2 (dx/x = 2 ds/s): below order 1 the
brackets carry a (q x)^n term, and the substitution turns its x^(n-1) cusp
at x = 0 into the milder s^(2n-1), so the graded panels meet the tolerance
with few nodes at every order.  Neither integrand has an interior
singularity.  The 1/(1 - n) factor is applied
after quadrature, never inside an integrand, where it would scale the
integrand's round-off by 1/|1 - n| near von Neumann.  Exact values:
step_kernel(n, 1) = 0 and step_kernel(n, 0) = (1 + n)/(12 n), the kernel of
one sharp step (1/6 at n = 1).

``log_kernel(n, p) = (1 - n) step_kernel(n, p)`` and ``log_kernel_pair`` are
the same kernels in the normalization of the unsubtracted representation

    (n / 2 pi^2) int_p^1 dx  (x^(n-1) - (1-x)^(n-1)) / (x^n + (1-x)^n)
                             * ln[(1-x)/(x-p)],

which ``log_kernel_first_rep`` and ``log_kernel_pair_first_rep`` expose purely
as cross-check oracles.

The fermionic negativity is half the order-1/2 mutual information here:
h_{1/2}(T, 1 - T) = 2 ln(sqrt T + sqrt(1 - T)) is twice its volume density,
and its log term is half the order-1/2 one, known for the mirror-symmetric
geometry only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .correlation import SubsystemGeometry
from .entanglement import renyi_index
from .numerics import QuadratureSpec, integrate
from .scattering import BiasState, ScatteringModel, transmission

__all__ = [
    "GeometryError",
    "AsymptoticPrediction",
    "step_kernel",
    "pair_kernel",
    "log_kernel",
    "log_kernel_first_rep",
    "log_kernel_pair",
    "log_kernel_pair_first_rep",
    "volume_coefficient_mi",
    "volume_coefficient_entropy",
    "mi_prediction",
    "contiguous_entropy_prediction",
    "ci_prediction",
    "negativity_prediction",
    "disjoint_symmetric_log_coefficient",
]

KERNEL_SPEC = QuadratureSpec(abs_tol=1e-12, max_panels=40000)
WINDOW_SPEC = QuadratureSpec(abs_tol=1e-12, max_panels=20000)
#: the unsubtracted oracle representations carry hard endpoint singularities;
#: 1e-10 is plenty for the 1e-8 cross-checks and keeps them cheap
ORACLE_SPEC = QuadratureSpec(abs_tol=1e-10, max_panels=40000)


class GeometryError(ValueError):
    """Prediction requested outside its domain of validity."""


def _xlogx(x: np.ndarray) -> np.ndarray:
    """x * ln x with the continuous limit 0 at x = 0."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    mask = x > 0.0
    out[mask] = x[mask] * np.log(x[mask])
    return out


def _split_entropy(n: float):
    """The binary Renyi entropy h_n(a, b) of the split (a, b)/(a + b) as a
    pair (f, scale) with h_n = scale * f(a, b); an integral of f is multiplied
    by scale after quadrature."""
    if n == 1.0:
        return (lambda a, b: np.log(a + b) - (_xlogx(a) + _xlogx(b)) / (a + b)), 1.0
    return (lambda a, b: np.log(a**n + b**n) - n * np.log(a + b)), 1.0 / (1.0 - n)


@lru_cache(maxsize=None)
def step_kernel(n: float, p: float) -> float:
    """Log-term kernel of a single occupation step of height p (0 <= p <= 1)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("step height must lie in [0, 1]")
    if not n > 0:
        raise ValueError("order must be positive")
    q = 1.0 - p
    h, scale = _split_entropy(n)

    def integrand(s):
        x = s * s
        return (h(1.0 + p * x, q * x) + h(x + p, q) - h(p, q)) / (np.pi**2 * s)

    return scale * float(integrate(integrand, 0.0, 1.0, KERNEL_SPEC, singular_left=True).real)


@lru_cache(maxsize=None)
def pair_kernel(n: float, t: float) -> float:
    """Log-term kernel of a transmission/reflection step pair (T, R = 1-T)."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("transmission must lie in [0, 1]")
    r = 1.0 - t
    h, scale = _split_entropy(n)

    def integrand(s):
        x = s * s
        steps = h(1.0 + t * x, r * x) + h(1.0 + r * x, t * x) + h(x + t, r) + h(x + r, t)
        return (steps - 2.0 * h(t + r * x, r + t * x)) / (np.pi**2 * s)

    return scale * float(integrate(integrand, 0.0, 1.0, KERNEL_SPEC, singular_left=True).real)


def log_kernel(n: float, p: float) -> float:
    """(1 - n) step_kernel(n, p), the normalization of log_kernel_first_rep."""
    return (1.0 - n) * step_kernel(n, p)


def log_kernel_pair(n: float, t: float) -> float:
    """(1 - n) pair_kernel(n, t), the normalization of log_kernel_pair_first_rep."""
    return (1.0 - n) * pair_kernel(n, t)


def _integral_sqrt_endpoints(fn_dist, lo: float, hi: float, spec: QuadratureSpec) -> float:
    """Integral over (lo, hi) of an integrand given in endpoint distances.

    ``fn_dist(dl, dr)`` evaluates the integrand at the point with distance dl
    from lo and dr from hi.  The substitutions x = lo + u^2 and x = hi - v^2
    remove endpoint power singularities like d**(n-1) for n >= 1/2 exactly
    and hand the quadrature exact distances, leaving only log singularities
    for the graded panels.
    """
    span = hi - lo
    half = np.sqrt(0.5 * span)

    def left(u):
        d = u * u
        return fn_dist(d, span - d) * 2.0 * u

    def right(v):
        d = v * v
        return fn_dist(span - d, d) * 2.0 * v

    a = integrate(left, 0.0, half, spec, singular_left=True)
    b = integrate(right, 0.0, half, spec, singular_left=True)
    return float((a + b).real)


@lru_cache(maxsize=None)
def log_kernel_first_rep(n: float, p: float) -> float:
    """Unsubtracted representation of log_kernel; test oracle only."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("step height must lie in [0, 1]")
    if p == 1.0:
        return 0.0

    def fn(dl, dr):
        x = p + dl
        ratio = (x ** (n - 1.0) - dr ** (n - 1.0)) / (x**n + dr**n)
        return ratio * (np.log(dr) - np.log(dl))

    val = _integral_sqrt_endpoints(fn, p, 1.0, ORACLE_SPEC)
    return val * n / (2.0 * np.pi**2)


@lru_cache(maxsize=None)
def log_kernel_pair_first_rep(n: float, t: float) -> float:
    """Unsubtracted representation of log_kernel_pair; test oracle only."""
    r = 1.0 - t
    base = log_kernel_first_rep(n, t) + log_kernel_first_rep(n, r)
    if t == r:
        return base
    lo, hi = min(r, t), max(r, t)

    # the sign of the signed integral from R to T and the ordering of the
    # log distances flip together, so the lo-to-hi expression is universal
    def fn(dl, dr):
        x = lo + dl
        y = (1.0 - hi) + dr  # distance to 1, stable when hi = 1
        ratio = (x ** (n - 1.0) - y ** (n - 1.0)) / (x**n + y**n)
        return ratio * (np.log(dl) - np.log(dr))

    val = _integral_sqrt_endpoints(fn, lo, hi, ORACLE_SPEC)
    return base + val * n / (2.0 * np.pi**2)


@lru_cache(maxsize=None)
def _window_integral(model: ScatteringModel, bias: BiasState, n: float) -> float:
    """Integral of h_n(T(k), 1 - T(k)) over the voltage window (unnormalized),
    once per (model, bias, Renyi index n)."""
    if bias.window_width == 0.0:
        return 0.0
    h, scale = _split_entropy(n)

    def integrand(k):
        t = np.abs(model.amplitudes(k)[2]) ** 2
        return h(t, 1.0 - t)

    return scale * float(integrate(integrand, bias.k_minus, bias.k_plus, WINDOW_SPEC).real)


def _sharp_step(n: float) -> float:
    """ln(ell) coefficient (1+n)/(12n) of one sharp occupation step, 1/6 at n = 1."""
    return (1.0 + n) / (12.0 * n)


def volume_coefficient_mi(model: ScatteringModel, bias: BiasState, order="vn") -> float:
    """Mutual-information volume coefficient per mirrored site (dk/pi weight)."""
    return _window_integral(model, bias, renyi_index(order)) / np.pi


def volume_coefficient_entropy(model: ScatteringModel, bias: BiasState, order="vn") -> float:
    """Entropy volume coefficient (dk/2pi weight).

    The same density applies to A_L and A_R per site and to the union per
    unmirrored site.
    """
    return _window_integral(model, bias, renyi_index(order)) / (2.0 * np.pi)


@dataclass(frozen=True)
class AsymptoticPrediction:
    """Linear plus logarithmic part of a measure, constant term excluded."""

    linear_term: float
    log_term: float
    kernel_values: dict = field(default_factory=dict)

    @property
    def total_minus_constant(self) -> float:
        return self.linear_term + self.log_term


def _log_ratio(numerators: list[int], denominators: list[int]) -> float:
    """ln |prod numerators / prod denominators| with exact zeros dropped.

    A vanishing difference signals a coinciding pair of occupation steps
    whose interaction is absent from the determinant asymptotics, so the
    factor is removed rather than sent to -infinity.  The rule applies to
    exact integer coincidences only.
    """
    total = 0.0
    for v in numerators:
        if v != 0:
            total += np.log(abs(v))
    for v in denominators:
        if v != 0:
            total -= np.log(abs(v))
    return total


def _geometry_ratios(geom: SubsystemGeometry) -> tuple[float, float]:
    m1, m2, m3, m4 = geom.sorted_lengths
    num = [m3 - m1, m4 - m2]
    pair_ratio = _log_ratio(num, [geom.ell_r + geom.d_r - geom.d_l, geom.ell_l + geom.d_l - geom.d_r])
    step_ratio = _log_ratio(num, [geom.ell_l + geom.d_l - geom.ell_r - geom.d_r, geom.d_l - geom.d_r])
    return pair_ratio, step_ratio


def mi_prediction(model: ScatteringModel, bias: BiasState, geom: SubsystemGeometry, order="vn") -> AsymptoticPrediction:
    """Mutual-information asymptotics up to the fitted constant.

    Valid in the far regime.  The logarithmic coefficients are averaged over
    the transmissions at the two Fermi momenta.
    """
    n = renyi_index(order)
    linear = geom.ell_mirror * volume_coefficient_mi(model, bias, order)
    pair_ratio, step_ratio = _geometry_ratios(geom)
    kernels: dict = {}
    log_term = 0.0
    for tag, kf in (("k_fl", bias.k_fl), ("k_fr", bias.k_fr)):
        t = transmission(model, kf)
        pair_k = pair_kernel(n, t)
        step_k = step_kernel(n, t) + step_kernel(n, 1.0 - t) - _sharp_step(n)
        kernels[f"pair[{tag}]"] = pair_k
        kernels[f"step[{tag}]"] = step_k
        log_term += 0.5 * (pair_k * pair_ratio + step_k * step_ratio)
    return AsymptoticPrediction(linear, log_term, kernels)


def contiguous_entropy_prediction(
    model: ScatteringModel, bias: BiasState, ell: int, side: str, order="vn"
) -> AsymptoticPrediction:
    """Entropy asymptotics of a single interval far from the scatterer.

    The two occupation steps seen by the interval sit at its own-side Fermi
    momentum (transmission step) and at the opposite one (reflection step).
    """
    if ell < 1:
        raise GeometryError("interval length must be at least 1")
    if side not in ("L", "R"):
        raise ValueError("side must be 'L' or 'R'")
    own = bias.k_fl if side == "L" else bias.k_fr
    other = bias.k_fr if side == "L" else bias.k_fl
    t_own = transmission(model, own)
    r_other = 1.0 - transmission(model, other)
    n = renyi_index(order)
    linear = ell * volume_coefficient_entropy(model, bias, order)
    k_own = step_kernel(n, t_own)
    k_other = step_kernel(n, r_other)
    coeff = _sharp_step(n) + k_own + k_other
    kernels = {"step[own]": k_own, "step[other]": k_other}
    return AsymptoticPrediction(linear, coeff * np.log(ell), kernels)


def ci_prediction(model: ScatteringModel, bias: BiasState, geom: SubsystemGeometry) -> AsymptoticPrediction:
    """Coherent-information (von Neumann) asymptotics, direction A_L > A_R."""
    density = volume_coefficient_entropy(model, bias, "vn")
    linear = (geom.ell_mirror - geom.delta_ell_l) * density
    mi = mi_prediction(model, bias, geom, "vn")
    s_al = contiguous_entropy_prediction(model, bias, geom.ell_l, "L", "vn")
    kernels = dict(mi.kernel_values)
    kernels.update({f"entropy_{k}": v for k, v in s_al.kernel_values.items()})
    return AsymptoticPrediction(linear, mi.log_term - s_al.log_term, kernels)


def negativity_prediction(model: ScatteringModel, bias: BiasState, geom: SubsystemGeometry) -> AsymptoticPrediction:
    """Fermionic-negativity asymptotics: half the order-1/2 MI prediction.

    The volume term is valid for any geometry; the logarithmic term is known
    only for the mirror-symmetric configuration and is zero otherwise.
    """
    mi = mi_prediction(model, bias, geom, 0.5)
    if not geom.is_symmetric:
        return AsymptoticPrediction(0.5 * mi.linear_term, 0.0, {})
    return AsymptoticPrediction(0.5 * mi.linear_term, 0.5 * mi.log_term, mi.kernel_values)


def disjoint_symmetric_log_coefficient(order="vn") -> float:
    """ln(ell) coefficient of the union entropy in the symmetric far regime:
    four sharp occupation steps."""
    return 4.0 * _sharp_step(renyi_index(order))
