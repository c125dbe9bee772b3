"""The three acceptance-figure workloads and their inputs.

Each workload is a list of sweeps; one repetition runs every sweep as its
own fresh ``nessent`` process.  The seed draws the impurity strengths
epsilon0 in [0.5, 2].  Workloads with three strengths draw one from each
third of that range, so every run spans weak to strong scattering and the
worst-case accuracy figures of two seeds stay comparable; seed 0 gives the
acceptance parameters exactly (0.5, 1 and 2 for the figure-2 and figure-3
sweeps, the sample config's 1 for the distance sweep).  The momenta are
those of the sample configs and stay fixed: the Friedel averaging window,
and with it the number of distances, depends on them.

Why these three: the length sweeps spend most of their time in the
negativity (general eigenvalues of C_X), the placement sweep has no
negativity and spends it in occupation spectra and far-limit assembly, and
the distance sweep spends it in batched quadrature and finite-distance
assembly, where consecutive distances share most Fourier rates.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

K_FL = "2*pi/3"
K_FR = "pi/2"
EPS_RANGE = (0.5, 2.0)


@dataclass(frozen=True)
class Sweep:
    """One CLI invocation of a workload."""

    label: str
    kind: str  # which output checks apply: impurity, slopes, position, distance
    scenario: str
    config: str
    points: int  # sweep points the runner must emit
    epsilon0: float | None = None


def draw_epsilons(workload: str, seed: int, count: int) -> list[float]:
    if seed == 0:
        return {1: [1.0], 3: [0.5, 1.0, 2.0]}[count]
    rng = random.Random(f"{workload}/{seed}")
    lo, hi = EPS_RANGE
    width = (hi - lo) / count
    return [round(rng.uniform(lo + i * width, lo + (i + 1) * width), 6) for i in range(count)]


def _config(lines: dict[str, object]) -> str:
    return "".join(f"{key} = {value}\n" for key, value in lines.items())


def _length_sweep(label: str, kind: str, model_lines: dict, k_fl: str, epsilon0=None) -> Sweep:
    cfg = _config(
        {
            "scenario": "sweep-length",
            **model_lines,
            "k_fl": k_fl,
            "k_fr": K_FR,
            "ell_min": 20,
            "ell_max": 200,
            "ell_step": 10,
            "measures": "mi, ci, negativity",
            "renyi_orders": "vn, 0.5",
        }
    )
    return Sweep(label, kind, "sweep-length", cfg, len(range(20, 201, 10)), epsilon0)


def fig2_length(seed: int) -> list[Sweep]:
    sweeps = [
        _length_sweep(
            f"impurity-eps{eps:g}",
            "impurity",
            {"model": "single_impurity", "epsilon0": repr(eps), "eta": 1.0},
            K_FL,
            eps,
        )
        for eps in draw_epsilons("fig2-length", seed, 3)
    ]
    # constant T = 1/2 and a pi/6 window: exact slopes ln2/6 and ln2/12
    sweeps.append(_length_sweep("constant-half", "slopes", {"model": "constant", "transmission": 0.5}, "pi/2 + pi/6"))
    return sweeps


def fig3_position(seed: int) -> list[Sweep]:
    sweeps = []
    for eps in draw_epsilons("fig3-position", seed, 3):
        cfg = _config(
            {
                "scenario": "sweep-position",
                "model": "single_impurity",
                "epsilon0": repr(eps),
                "k_fl": K_FL,
                "k_fr": K_FR,
                "ell_l": 100,
                "ell_r": 200,
                "delta_min": -140,
                "delta_max": 240,
                "delta_step": 5,
                "measures": "mi",
                "renyi_orders": "vn",
            }
        )
        sweeps.append(Sweep(f"position-eps{eps:g}", "position", "sweep-position", cfg, len(range(-140, 241, 5)), eps))
    return sweeps


def _distance_count(ell: int, lo: float, hi: float, n_centers: int) -> int:
    """Distances sweep-distance visits: clusters of one Friedel window around
    log-spaced centers (the runner's own sampling rule, restated)."""
    from nessent.experiments import friedel_window

    window = friedel_window(2 * math.pi / 3, math.pi / 2, "auto")
    d_min, d_max = int(round(lo * ell)), int(round(hi * ell))
    centers = np.unique(np.round(np.geomspace(d_min, max(d_min + 1, d_max - window + 1), n_centers)).astype(int))
    return len({d for c in centers for d in range(c, c + window)})


def figS2_distance(seed: int) -> list[Sweep]:
    (eps,) = draw_epsilons("figS2-distance", seed, 1)
    cfg = _config(
        {
            "scenario": "sweep-distance",
            "model": "single_impurity",
            "epsilon0": repr(eps),
            "k_fl": K_FL,
            "k_fr": K_FR,
            "ell": 50,
            "d_over_ell_min": 2,
            "d_over_ell_max": 40,
            "n_centers": 24,
            "window": "auto",
            "fit_min_d_over_ell": 4,
            "measures": "mi, negativity",
            "renyi_orders": "vn",
        }
    )
    return [Sweep(f"distance-eps{eps:g}", "distance", "sweep-distance", cfg, _distance_count(50, 2, 40, 24), eps)]


WORKLOADS = {
    "fig2-length": fig2_length,
    "fig3-position": fig3_position,
    "figS2-distance": figS2_distance,
}
