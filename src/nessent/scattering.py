"""Scattering models for a short obstruction in a tight-binding chain.

A model provides the entries of the 2x2 unitary scattering matrix

    S(k) = [[r_l(k), t_r(k)],
            [t_l(k), r_r(k)]]

as arrays over lattice momenta 0 < k < pi (energy band -2*eta*cos k),
``amplitudes``.  The transmission probability is T(k) = |t_l(k)|^2
(``transmission``), and the reflection probability is 1 - T(k).

Three models are provided:

* ``SingleImpurity``: one on-site energy epsilon0 at site 0.  Solving the
  lattice Schroedinger equation at the impurity site gives
  t(k) = 1 / (1 + i*epsilon0 / (2*eta*sin k)) and r(k) = t(k) - 1, so
  T(k) = sin^2 k / (sin^2 k + (epsilon0/(2 eta))^2).
* ``ConstantTransmission``: momentum-independent T with the phase convention
  t = sqrt(T), r = i*sqrt(1-T).  Any unitarity-respecting phase gives the
  same entanglement measures; this one is fixed so results are reproducible
  bit for bit.
* ``TrivialScatterer``: t = 1, r = 0 (clean chain).

Besides ``amplitudes``, a model states the pole data of its amplitudes
(``pole_data``): each as a rational function of z = e^{ik} with simple
poles, a constant plus sum_j c_j/(z - p_j) (``PoleData``).  The Fourier
tables of ``correlation`` are integrated from it in closed form.  For the
single impurity, with e = epsilon0/eta,

    t = (z^2 - 1)/(z^2 - e z - 1) = 1 + e z/((z - p_+)(z - p_-)),

whose poles p_+- = (e +- sqrt(e^2 + 4))/2 have p_+ p_- = -1, so one lies
inside the unit circle and one outside; |p| - 1 is about e/2 for small e.

The bias between the two reservoirs is described by ``BiasState``: scattering
states incoming from the left (right) are filled up to momentum k_fl (k_fr).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainError",
    "PoleData",
    "ScatteringModel",
    "SingleImpurity",
    "ConstantTransmission",
    "TrivialScatterer",
    "BiasState",
    "transmission",
]


class DomainError(ValueError):
    """Momentum or site index outside the domain of a scattering quantity."""


@dataclass(frozen=True)
class PoleData:
    """f(z) = const + sum_j residues[j]/(z - poles[j]) on the unit circle
    z = e^{ik}: an amplitude, or a product of amplitudes and their
    conjugates.  The poles are simple, finite, nonzero and off the unit
    circle."""

    const: complex = 0j
    residues: tuple[complex, ...] = ()
    poles: tuple[complex, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "const", complex(self.const))
        object.__setattr__(self, "residues", tuple(complex(c) for c in self.residues))
        object.__setattr__(self, "poles", tuple(complex(p) for p in self.poles))
        if len(self.residues) != len(self.poles):
            raise ValueError("pole data needs one residue per pole")
        if not all(np.isfinite(v) for v in (self.const, *self.residues, *self.poles)):
            raise ValueError("pole data must be finite")
        if any(p == 0 or abs(p) == 1 for p in self.poles):
            raise ValueError("poles must be nonzero and off the unit circle")

    def conj(self) -> "PoleData":
        """conj f on the unit circle, where conj z = 1/z: each term c/(z - p)
        becomes -(c*/p*) - (c*/p*^2)/(z - 1/p*)."""
        c = [np.conj(c) / np.conj(p) for c, p in zip(self.residues, self.poles)]
        q = [1 / np.conj(p) for p in self.poles]
        return PoleData(np.conj(self.const) - sum(c), [-a * b for a, b in zip(c, q)], q)

    def __mul__(self, other: "PoleData") -> "PoleData":
        """The product, in partial fractions: c/(z - p) * d/(z - q) is
        (c d/(p - q)) (1/(z - p) - 1/(z - q)), so no pole of one factor may
        be a pole of the other."""
        terms: dict[complex, complex] = {}
        for c, p in zip(self.residues, self.poles):
            terms[p] = terms.get(p, 0j) + c * other.const
        for d, q in zip(other.residues, other.poles):
            terms[q] = terms.get(q, 0j) + d * self.const
        for c, p in zip(self.residues, self.poles):
            for d, q in zip(other.residues, other.poles):
                if p == q:
                    raise ValueError(f"the product has a double pole at {p}")
                w = c * d / (p - q)
                terms[p] += w
                terms[q] -= w
        return PoleData(self.const * other.const, list(terms.values()), list(terms))


class ScatteringModel:
    """Base class for a scatterer at site 0.

    Subclasses implement ``amplitudes`` for array momenta and ``pole_data``
    for the Fourier tables of ``correlation.CorrelationBuilder``.
    """

    def amplitudes(self, k: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(r_l, t_r, t_l, r_r) broadcast over an array of momenta in (0, pi)."""
        raise NotImplementedError

    def pole_data(self) -> tuple[PoleData, PoleData, PoleData, PoleData]:
        """(r_l, t_r, t_l, r_r) as ``PoleData`` in z = e^{ik}."""
        raise TypeError(f"{type(self).__name__} states no pole data: ScatteringModel.pole_data is not implemented")


@dataclass(frozen=True)
class SingleImpurity(ScatteringModel):
    epsilon0: float
    eta: float = 1.0

    def __post_init__(self) -> None:
        if not self.eta > 0:
            raise ValueError("hopping amplitude eta must be positive")

    def amplitudes(self, k):
        k = np.asarray(k, dtype=float)
        t = 1.0 / (1.0 + 1j * self.epsilon0 / (2.0 * self.eta * np.sin(k)))
        r = t - 1.0
        return r, t, t, r

    def pole_data(self):
        e = self.epsilon0 / self.eta
        # the pole of larger modulus without cancellation, the other from p_+ p_- = -1
        big = 0.5 * (e + np.copysign(np.sqrt(e * e + 4.0), e))
        poles = residues = ()
        # at |e| below about 2e-16 (e = 0 included) both poles round onto
        # the unit circle, and their terms, of order e ln(1/e), drop below
        # round-off: t = 1
        if abs(big) != 1:
            poles = (big, -1.0 / big)
            residues = tuple(e * p / (2.0 * p - e) for p in poles)
        r = PoleData(0.0, residues, poles)
        t = PoleData(1.0, residues, poles)
        return r, t, t, r


@dataclass(frozen=True)
class ConstantTransmission(ScatteringModel):
    t_prob: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.t_prob <= 1.0:
            raise ValueError("transmission probability must lie in [0, 1]")

    def amplitudes(self, k):
        k = np.asarray(k, dtype=float)
        shape = np.broadcast_shapes(k.shape, ())
        t = np.full(shape, np.sqrt(self.t_prob), dtype=complex)
        r = np.full(shape, 1j * np.sqrt(1.0 - self.t_prob), dtype=complex)
        return r, t, t, r

    def pole_data(self):
        r, t = PoleData(1j * np.sqrt(1.0 - self.t_prob)), PoleData(np.sqrt(self.t_prob))
        return r, t, t, r


@dataclass(frozen=True)
class TrivialScatterer(ScatteringModel):
    def amplitudes(self, k):
        k = np.asarray(k, dtype=float)
        t = np.ones(k.shape, dtype=complex)
        r = np.zeros(k.shape, dtype=complex)
        return r, t, t, r

    def pole_data(self):
        r, t = PoleData(0.0), PoleData(1.0)
        return r, t, t, r


@dataclass(frozen=True)
class BiasState:
    """Fermi momenta of left- and right-incoming scattering states."""

    k_fl: float
    k_fr: float

    def __post_init__(self) -> None:
        for name, k in (("k_fl", self.k_fl), ("k_fr", self.k_fr)):
            if not 0.0 < k < np.pi:
                raise ValueError(f"{name} must lie in (0, pi), got {k}")

    @property
    def k_minus(self) -> float:
        return min(self.k_fl, self.k_fr)

    @property
    def k_plus(self) -> float:
        return max(self.k_fl, self.k_fr)

    @property
    def window_width(self) -> float:
        """Width of the voltage window |k_fl - k_fr|."""
        return self.k_plus - self.k_minus


def _check_momentum(k: float) -> None:
    if not 0.0 < k < np.pi:
        raise DomainError(f"momentum {k} outside (0, pi)")


def transmission(model: ScatteringModel, k: float) -> float:
    _check_momentum(k)
    _, _, t_l, _ = model.amplitudes(np.asarray(k, dtype=float))
    return float(np.abs(t_l) ** 2)
