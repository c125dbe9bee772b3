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

Both are integrated in s with x = s^m, m = max(2, ceil(1/n)) (dx/x = m ds/s):
below order 1 the brackets carry a (q x)^n term, and the substitution turns
its x^(n-1) cusp at x = 0 into s^(m n - 1) with m n - 1 >= 0, so the graded
panels meet the tolerance with few nodes at every order.  From order 1/2 up
m = 2; below it, x = s^2 would leave the cusp s^(2n - 1), which the panels
resolve only to about 1e-12.  Neither integrand has an interior singularity.  The 1/(1 - n)
factor is applied after quadrature, never inside an integrand, where it
would scale the integrand's round-off by 1/|1 - n| near von Neumann.  Exact
values, returned as such, not integrated: step_kernel(n, 1) = 0 and
step_kernel(n, 0) = (1 + n)/(12 n), the kernel of one sharp step (1/6 at
n = 1), and pair_kernel(n, 0) = pair_kernel(n, 1) = 0, since every
bracket term there cancels or is h_n(a, 0) = 0.

An empty voltage window (k_fl = k_fr) leaves no partial steps: the
transmission and reflection steps at the common Fermi momentum merge into
one sharp step, each interval sees one sharp Fermi sea, with log coefficient
2 (1 + n)/(12 n), and the far cross block vanishes, so the mutual
information and negativity carry no log term.

The fermionic negativity is half the order-1/2 mutual information here:
h_{1/2}(T, 1 - T) = 2 ln(sqrt T + sqrt(1 - T)) is twice its volume density,
and its log term is half the order-1/2 one, known for the mirror-symmetric
geometry only.
"""

from __future__ import annotations

import math
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


def _kernel_power(n: float) -> int:
    """The power m of the kernels' substitution x = s^m, max(2, ceil(1/n)):
    it turns the x^(n-1) cusp of order n into s^(m n - 1), m n - 1 >= 0."""
    if not n > 0:
        raise ValueError("order must be positive")
    return max(2, math.ceil(1.0 / n))


@lru_cache(maxsize=None)
def step_kernel(n: float, p: float) -> float:
    """Log-term kernel of a single occupation step of height p (0 <= p <= 1)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("step height must lie in [0, 1]")
    m = _kernel_power(n)
    # exact at the ends, where quadrature would leave round-off
    if p == 1.0:
        return 0.0
    if p == 0.0:
        return _sharp_step(n)
    q = 1.0 - p
    h, scale = _split_entropy(n)

    def integrand(s):
        x = s**m
        return (0.5 * m) * (h(1.0 + p * x, q * x) + h(x + p, q) - h(p, q)) / (np.pi**2 * s)

    return scale * float(integrate(integrand, 0.0, 1.0, KERNEL_SPEC, singular_left=True).real)


@lru_cache(maxsize=None)
def pair_kernel(n: float, t: float) -> float:
    """Log-term kernel of a transmission/reflection step pair (T, R = 1-T)."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("transmission must lie in [0, 1]")
    m = _kernel_power(n)
    # every h_n in the bracket cancels or is h_n(a, 0) = 0 at the ends
    if t in (0.0, 1.0):
        return 0.0
    r = 1.0 - t
    h, scale = _split_entropy(n)

    def integrand(s):
        x = s**m
        steps = h(1.0 + t * x, r * x) + h(1.0 + r * x, t * x) + h(x + t, r) + h(x + r, t)
        return (0.5 * m) * (steps - 2.0 * h(t + r * x, r + t * x)) / (np.pi**2 * s)

    return scale * float(integrate(integrand, 0.0, 1.0, KERNEL_SPEC, singular_left=True).real)


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
    the transmissions at the two Fermi momenta; without a voltage window
    there is none.
    """
    n = renyi_index(order)
    linear = geom.ell_mirror * volume_coefficient_mi(model, bias, order)
    if bias.window_width == 0.0:
        return AsymptoticPrediction(linear, 0.0, {})
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
    momentum (transmission step) and at the opposite one (reflection step);
    without a voltage window they merge into one sharp step.
    """
    if ell < 1:
        raise GeometryError("interval length must be at least 1")
    if side not in ("L", "R"):
        raise ValueError("side must be 'L' or 'R'")
    n = renyi_index(order)
    linear = ell * volume_coefficient_entropy(model, bias, order)
    if bias.window_width == 0.0:
        return AsymptoticPrediction(linear, 2.0 * _sharp_step(n) * np.log(ell), {})
    own = bias.k_fl if side == "L" else bias.k_fr
    other = bias.k_fr if side == "L" else bias.k_fl
    t_own = transmission(model, own)
    r_other = 1.0 - transmission(model, other)
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
