"""Experiment runners: parameter sweeps with analytic overlays and fits.

Each runner takes an ``ExperimentConfig`` and returns ``(fieldnames, rows)``
ready for CSV output.  Every point row carries both the numeric measure and
the analytic prediction (linear and logarithmic parts separately); fit rows
summarize the single constant offset between them, which is the only fitted
parameter anywhere.  Sweep points are independent pure computations executed
by a bounded worker pool and gathered in input order, so output is
deterministic for a fixed config.

For a parity-symmetric scatterer the far-limit state at the offset
delta = d_l - d_r is the mirror image of the state at ell_r - ell_l - delta,
and no measure tells them apart.  A far sweep therefore solves the first
point of each such pair, in input order, and the other point copies its
numeric values; every point still computes its own coordinates and
predictions.  Whether the W_X values the sweep reads have that parity is
decided by ``correlation.has_parity``, the test that also decides whether a
far matrix folds.  Length and bias sweeps have no such pairs (each point is
its own mirror image), so only position sweeps share.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from . import asymptotics as asy
from .config import ExperimentConfig, format_value, order_label
from .correlation import (
    CorrelationBuilder,
    CorrelationMatrix,
    FiniteStack,
    SubsystemGeometry,
    correlation_matrix_far,
    correlation_matrix_finite,
    cross_rates,
    has_parity,
)
from .entanglement import (
    SpectrumError,
    block_spectra,
    fermionic_negativity,
    partition,
    renyi_index,
    report_from_spectra,
)
from .numerics import NumericsError
from .scattering import BiasState, ScatteringModel

__all__ = [
    "LengthMismatch",
    "FitResult",
    "fit_constant",
    "friedel_window",
    "run_sweep_length",
    "run_sweep_position",
    "run_sweep_bias",
    "run_sweep_distance",
    "run_eval_asymptotics",
    "run_scenario",
]


class LengthMismatch(ValueError):
    """Series of unequal or insufficient length passed to fit_constant."""


@dataclass(frozen=True)
class FitResult:
    """Constant-offset fit of a numeric series against its prediction."""

    offset: float
    residual_max: float
    residual_rms: float


def fit_constant(numeric, analytic) -> FitResult:
    """Mean offset between the series, plus residuals of the adjusted fit."""
    num = np.asarray(numeric, dtype=float)
    ana = np.asarray(analytic, dtype=float)
    if num.shape != ana.shape or num.ndim != 1 or num.size < 3:
        raise LengthMismatch("fit_constant needs two equal-length series of at least 3 points")
    offset = float(np.mean(num - ana))
    resid = num - ana - offset
    return FitResult(
        offset=offset,
        residual_max=float(np.abs(resid).max()),
        residual_rms=float(np.sqrt(np.mean(resid**2))),
    )


def _map_ordered(fn, items, threads: int):
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    # imported here: concurrent.futures costs every serial run its import
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


@contextmanager
def _failure_at(where: str):
    """Prefix a numerical failure with the sweep point it happened at."""
    try:
        yield
    except (NumericsError, SpectrumError) as exc:
        raise type(exc)(f"{where}: {exc}") from exc


def _series(config: ExperimentConfig):
    """(measure, order, CSV label) of every requested series, in CSV row
    order."""
    for measure in config.measures:
        if measure == "mi":
            for order in config.renyi_orders:
                yield "mi", order, order_label(order)
        elif measure == "ci":
            yield "ci", "vn", "vn"
        elif measure == "negativity":
            yield "negativity", 1, "1"
        elif measure == "entropy":
            for order in config.renyi_orders:
                for part in ("entropy_al", "entropy_ar", "entropy_a"):
                    yield part, order, order_label(order)


def _prediction(model: ScatteringModel, bias: BiasState, geom: SubsystemGeometry, measure: str, order):
    """The asymptotic prediction of one series at a geometry, or None."""
    if measure == "mi":
        return asy.mi_prediction(model, bias, geom, order)
    if measure == "ci":
        return asy.ci_prediction(model, bias, geom)
    if measure == "negativity":
        return asy.negativity_prediction(model, bias, geom)
    if measure == "entropy_al":
        return asy.contiguous_entropy_prediction(model, bias, geom.ell_l, "L", order)
    if measure == "entropy_ar":
        return asy.contiguous_entropy_prediction(model, bias, geom.ell_r, "R", order)
    if not geom.is_symmetric:
        return None
    coeff = asy.disjoint_symmetric_log_coefficient(order)
    return asy.AsymptoticPrediction(0.0, coeff * np.log(geom.ell_l))


#: the EntanglementReport field behind each entropy-based CSV measure
_REPORT_FIELDS = {
    "mi": "mutual_info", "ci": "coherent_info", "entropy_al": "s_al", "entropy_ar": "s_ar", "entropy_a": "s_a",
}


def _point_values(c: CorrelationMatrix | FiniteStack, series: list[tuple]) -> list[list[float]]:
    """The value of each (measure, order) of ``series`` on each matrix of c,
    a matrix being a stack of one: one list per matrix, in series order.

    The block modes, the partition and spectra of each deflation rule
    (orders below 1, or not) and each order's reports are taken at most
    once, whatever the measures asked; the negativity is E_1 at any order.
    """
    vn = partition(c)
    spectra: dict[bool, list] = {}
    reports: dict = {}
    columns = []
    for measure, order in series:
        if measure == "negativity":
            columns.append(fermionic_negativity(vn))
            continue
        low = renyi_index(order) < 1.0
        if low not in spectra:
            # every order below 1 reads one deflation, every other order
            # another, both from the block modes of the latter
            spectra[low] = block_spectra(partition(vn, 0.5) if low else vn)
        if order not in reports:
            reports[order] = [report_from_spectra(s, order) for s in spectra[low]]
        columns.append([getattr(report, _REPORT_FIELDS[measure]) for report in reports[order]])
    return [[column[i] for column in columns] for i in range(vn.size)]


def _point_rows(
    model: ScatteringModel,
    bias: BiasState,
    geom: SubsystemGeometry,
    series: list[tuple],
    base: dict,
    numeric: list[float],
) -> list[dict]:
    """The rows of one point: the numeric value of each ``_series`` entry,
    in order, and its analytic prediction at the geometry."""
    rows: list[dict] = []
    for (measure, order, label), value in zip(series, numeric):
        pred = _prediction(model, bias, geom, measure, order)
        row = dict(base)
        row.update(
            row_type="point",
            measure=measure,
            order=label,
            numeric=value,
            analytic_linear=pred.linear_term if pred else None,
            analytic_log=pred.log_term if pred else None,
            analytic=pred.total_minus_constant if pred else None,
        )
        rows.append(row)
    return rows


_SWEEP_FIELDS = [
    "row_type", "ell", "ell_mirror", "delta", "dk", "regime", "measure", "order",
    "numeric", "analytic_linear", "analytic_log", "analytic",
    "offset", "residual_max", "residual_rms",
    "offset_first_half", "offset_second_half",
    "slope_fitted", "slope_predicted", "slope_rel_err",
]


def _fit_rows(points: list[dict], driver_key: str | None) -> list[dict]:
    """One constant-offset fit row per (measure, order) series."""
    groups: dict[tuple, list[dict]] = {}
    for row in points:
        groups.setdefault((row["measure"], row["order"]), []).append(row)
    fits = []
    for key, rows in groups.items():
        if len(rows) < 3 or any(r["analytic"] is None for r in rows):
            continue
        numeric = [r["numeric"] for r in rows]
        analytic = [r["analytic"] for r in rows]
        fit = fit_constant(numeric, analytic)
        fitted = predicted = rel_err = None
        if driver_key:
            drv = np.asarray([r[driver_key] for r in rows], float)
            lin = np.asarray([r["analytic_linear"] for r in rows], float)
            if np.ptp(drv) > 0:
                predicted = float(np.polyfit(drv, lin, 1)[0])
            # the volume-law slope is read off after removing the exactly
            # known logarithmic part, which would otherwise bias it
            log = np.asarray([r["analytic_log"] for r in rows], float)
            fitted = float(np.polyfit(drv, np.asarray(numeric, float) - log, 1)[0])
            if predicted:
                rel_err = abs(fitted - predicted) / abs(predicted)
        half = len(rows) // 2
        first = fit_constant(numeric[:half], analytic[:half]) if half >= 3 else None
        second = fit_constant(numeric[half:], analytic[half:]) if len(rows) - half >= 3 else None
        row = dict(rows[0])
        row.update(
            row_type="fit",
            ell=None, ell_mirror=None, delta=None, regime=None,
            numeric=None, analytic=None, analytic_linear=None, analytic_log=None,
            offset=fit.offset,
            residual_max=fit.residual_max,
            residual_rms=fit.residual_rms,
            offset_first_half=first.offset if first else None,
            offset_second_half=second.offset if second else None,
            slope_fitted=fitted,
            slope_predicted=predicted,
            slope_rel_err=rel_err,
        )
        fits.append(row)
    return fits


def _mirror_key(geom: SubsystemGeometry) -> tuple[int, int, int]:
    """The lengths and the smaller of the offsets delta = d_l - d_r and
    ell_r - ell_l - delta, which a geometry and its mirror image share."""
    delta = geom.d_l - geom.d_r
    return geom.ell_l, geom.ell_r, min(delta, geom.ell_r - geom.ell_l - delta)


def _mirrors_have_parity(builder: CorrelationBuilder, partners: list[SubsystemGeometry]) -> bool:
    """Whether the W_X values every mirror pair reads have parity
    (``has_parity``), given the second geometry of each pair.  The first
    geometry has read the negated rates of its partner.

    With P = diag(J_L, -J_R), the matrices at delta and at
    ell_r - ell_l - delta are then P conj(C) P of each other: the diagonal
    blocks are Hermitian Toeplitz, the two cross blocks read W_X at negated
    rates (``cross_rates``), and no measure sees P or the conjugation."""
    for geom in partners:
        rates = cross_rates(geom)
        w = builder.coefficients("V", "tLc_rL", np.concatenate([-rates[::-1], rates]))
        if not has_parity(w, builder.far_block("L", geom.ell_l), builder.far_block("R", geom.ell_r)):
            return False
    return True


def _far_sweep(config: ExperimentConfig, name: str, coords: list[int], point, driver_key: str | None):
    """Far-limit matrices and measures at each sweep coordinate, then one fit
    row per series; ``point(coord)`` gives the geometry and the
    coordinate columns of a point.  The first point of each mirror pair in
    input order is solved; the second copies its numeric values, kept as
    plain floats, when the pair's W_X values have parity, and is solved too
    otherwise.  Every point builds its own rows and predictions."""
    model = config.build_model()
    bias = config.build_bias()
    builder = CorrelationBuilder(model, bias)
    series = list(_series(config))
    placed = [point(coord) for coord in coords]
    first: dict[tuple[int, int, int], int] = {}
    reps = [first.setdefault(_mirror_key(geom), i) for i, (geom, _) in enumerate(placed)]

    wanted = [(measure, order) for measure, order, _ in series]

    def compute(i: int) -> list[float]:
        with _failure_at(f"{name}={coords[i]}"):
            (values,) = _point_values(correlation_matrix_far(builder, placed[i][0]), wanted)
            return values

    def solved(indices: list[int]) -> dict[int, list[float]]:
        return dict(zip(indices, _map_ordered(compute, indices, config.threads)))

    values = solved(list(first.values()))
    partners = [i for i, rep in enumerate(reps) if rep != i]
    if not _mirrors_have_parity(builder, [placed[i][0] for i in partners]):
        values.update(solved(partners))
        reps = list(range(len(coords)))
    points = []
    for coord, (geom, base), rep in zip(coords, placed, reps):
        with _failure_at(f"{name}={coord}"):
            points += _point_rows(model, bias, geom, series, base, values[rep])
    return _SWEEP_FIELDS, points + _fit_rows(points, driver_key)


def run_sweep_length(config: ExperimentConfig) -> tuple[list[str], list[dict]]:
    """Symmetric far-limit sweep over the interval length (Fig. 2 layout)."""

    def point(ell: int):
        geom = SubsystemGeometry(0, ell, 0, ell)
        return geom, {"ell": ell, "ell_mirror": geom.ell_mirror}

    ells = list(range(config.ell_min, config.ell_max + 1, config.ell_step))
    return _far_sweep(config, "ell", ells, point, "ell_mirror")


def _position_regime(geom: SubsystemGeometry) -> str:
    if geom.ell_mirror == 0:
        return "no-overlap"
    if geom.ell_mirror == min(geom.ell_l, geom.ell_r):
        return "contained"
    return "partial"


def run_sweep_position(config: ExperimentConfig) -> tuple[list[str], list[dict]]:
    """Far-limit sweep over d_l - d_r at fixed lengths (Fig. 3 layout)."""
    deltas = list(range(config.delta_min, config.delta_max + 1, config.delta_step))
    shift = max(0, -min(deltas))

    def point(delta: int):
        geom = SubsystemGeometry(shift + delta, config.ell_l, shift, config.ell_r)
        return geom, {"delta": delta, "ell_mirror": geom.ell_mirror, "regime": _position_regime(geom)}

    return _far_sweep(config, "delta", deltas, point, None)


def run_sweep_bias(config: ExperimentConfig) -> tuple[list[str], list[dict]]:
    """Length sweeps repeated for several voltage windows above a fixed k_fr."""
    all_rows: list[dict] = []
    for dk in config.dk_list:
        with _failure_at(f"dk={dk:.12g}"):
            _, rows = run_sweep_length(replace(config, k_fl=config.k_fr + dk))
        for row in rows:
            row["dk"] = dk
        all_rows.extend(rows)
    return _SWEEP_FIELDS, all_rows


#: widest window, in samples, that friedel_window chooses on its own
MAX_WINDOW = 48


def friedel_window(k_fl: float, k_fr: float, requested="auto") -> int:
    """Averaging window, in consecutive integer distances, for the density
    oscillations away from the scatterer.

    The oscillation frequencies in the distance are 2 k_fl, 2 k_fr and their
    sum; on the integer sampling lattice these alias, so the window is chosen
    as the smallest span over which all three advance by nearly whole turns.
    Rounding the bare period 2 pi / (k_fl + k_fr) to one or two samples would
    leave the aliased beats unsuppressed.  A window spans at least 3 samples:
    the linear detrend of the amplitude leaves no residual through two.
    """
    if requested != "auto":
        w = int(requested)
        if w < 3:
            raise ValueError("window must span at least 3 samples")
        return w
    freqs = np.array([2.0 * k_fl, 2.0 * k_fr, k_fl + k_fr]) / (2.0 * np.pi)
    best_w, best_defect = 3, np.inf
    for w in range(3, MAX_WINDOW + 1):
        defect = float(np.max(np.abs(w * freqs - np.round(w * freqs))))
        if defect < best_defect - 1e-12:
            best_w, best_defect = w, defect
        if defect < 0.02:
            return w
    return best_w


def _distance_clusters(config: ExperimentConfig, bias: BiasState) -> list[range]:
    """The clusters of ``window`` consecutive distances a distance sweep
    samples, around logarithmically spaced centers, in ascending order."""
    ell = config.ell
    window = friedel_window(bias.k_fl, bias.k_fr, config.window)
    d_min = int(round(config.d_over_ell_min * ell))
    d_max = int(round(config.d_over_ell_max * ell))
    # a sorted set, not np.unique, which imports numpy.ma on first use (numpy 2.4)
    spaced = np.geomspace(d_min, max(d_min + 1, d_max - window + 1), config.n_centers)
    return [range(center, center + window) for center in sorted({int(c) for c in np.round(spaced)})]


#: consecutive distances a distance sweep solves in one stack; the stack's
#: arrays grow with it (16 raised the Fig. S2 run's peak RSS from 37 to 48 MB)
DISTANCE_STACK = 4

_DISTANCE_FIELDS = [
    "row_type", "measure", "d", "center_d", "value", "far_value",
    "window_mean", "avg_deviation", "amplitude",
    "quantity", "exponent", "n_points",
]


def run_sweep_distance(config: ExperimentConfig) -> tuple[list[str], list[dict]]:
    """Finite-distance convergence toward the far limit (Fig. S2 layout).

    Distances are sampled in clusters of ``window`` consecutive integers
    around logarithmically spaced centers; the cluster mean removes the
    aliased Friedel oscillation, the spread around it gives the amplitude.
    Every distance is solved once: the sorted distances in stacks of
    DISTANCE_STACK consecutive ones (``correlation.FiniteStack``), on one
    worker pool for the whole sweep, and the clusters read their values
    from it.  A stack that fails is solved again one distance at a time, so
    the failure names the first distance that fails, as it fails alone.
    """
    model = config.build_model()
    bias = config.build_bias()
    ell = config.ell
    clusters = _distance_clusters(config, bias)

    wanted = [m for m in ("mi", "negativity") if m in config.measures]
    vn_series = [(measure, "vn") for measure in wanted]

    builder = CorrelationBuilder(model, bias)
    with _failure_at("far limit"):
        (far_vals,) = _point_values(correlation_matrix_far(builder, SubsystemGeometry(0, ell, 0, ell)), vn_series)

    def stacked(ds: list[int]) -> list[list[float]]:
        geoms = [SubsystemGeometry(d, ell, d, ell) for d in ds]
        return _point_values(correlation_matrix_finite(builder, geoms), vn_series)

    def one_stack(ds: list[int]) -> list[list[float]]:
        try:
            return stacked(ds)
        except (NumericsError, SpectrumError, np.linalg.LinAlgError):
            pass
        # a stack fails as a whole: solved one at a time, its distances raise
        # as each does alone, the first that fails first
        values = []
        for d in ds:
            with _failure_at(f"d={d}"):
                values += stacked([d])
        return values

    distances = sorted({d for ds in clusters for d in ds})
    stacks = [distances[i : i + DISTANCE_STACK] for i in range(0, len(distances), DISTANCE_STACK)]
    by_distance = dict(zip(distances, (v for vs in _map_ordered(one_stack, stacks, config.threads) for v in vs)))
    rows: list[dict] = []
    series: dict[str, list[tuple[float, float, float]]] = {m: [] for m in wanted}
    for ds in clusters:
        values = [by_distance[d] for d in ds]
        for j, measure in enumerate(wanted):
            vals = np.array([v[j] for v in values])
            mean = float(vals.mean())
            center_d = float(np.mean(ds))
            avg_dev = abs(mean - far_vals[j])
            # the 1/d^2 trend drifts across the window; remove a local linear
            # fit before reading off the oscillation amplitude, otherwise the
            # drift buries the oscillation of weakly oscillating measures
            trend = np.polyval(np.polyfit(ds, vals, 1), ds)
            amplitude = float(np.abs(vals - trend).max())
            for d, v in zip(ds, vals):
                rows.append(
                    {"row_type": "point", "measure": measure, "d": d, "center_d": center_d,
                     "value": float(v), "far_value": far_vals[j]}
                )
            rows.append(
                {"row_type": "center", "measure": measure, "center_d": center_d,
                 "far_value": far_vals[j], "window_mean": mean,
                 "avg_deviation": avg_dev, "amplitude": amplitude}
            )
            series[measure].append((center_d, avg_dev, amplitude))

    for measure in wanted:
        data = np.array(series[measure])
        keep = data[:, 0] >= config.fit_min_d_over_ell * ell
        for column, name in ((1, "avg_deviation"), (2, "amplitude")):
            sel = data[keep]
            sel = sel[sel[:, column] > 0.0]
            if len(sel) >= 3:
                exponent = float(np.polyfit(np.log(sel[:, 0]), np.log(sel[:, column]), 1)[0])
                rows.append(
                    {"row_type": "fit", "measure": measure, "quantity": name,
                     "exponent": exponent, "n_points": int(len(sel))}
                )
    return _DISTANCE_FIELDS, rows


_EVAL_FIELDS = [
    "measure", "order", "ell_mirror", "linear", "log", "total", "kernels",
]


def run_eval_asymptotics(config: ExperimentConfig) -> tuple[list[str], list[dict]]:
    """Closed-form predictions for one geometry, no numerics."""
    model = config.build_model()
    bias = config.build_bias()
    geom = SubsystemGeometry(config.d_l, config.ell_l, config.d_r, config.ell_r)
    rows: list[dict] = []
    for measure, order, label in _series(config):
        pred = _prediction(model, bias, geom, measure, order)
        if pred is None:
            continue
        kernels = ";".join(f"{k}={format_value(v)}" for k, v in sorted(pred.kernel_values.items()))
        rows.append(
            {"measure": measure, "order": label, "ell_mirror": geom.ell_mirror,
             "linear": pred.linear_term, "log": pred.log_term,
             "total": pred.total_minus_constant, "kernels": kernels}
        )
    return _EVAL_FIELDS, rows


def run_scenario(config: ExperimentConfig) -> tuple[list[str], list[dict]]:
    runner = {
        "sweep-length": run_sweep_length,
        "sweep-position": run_sweep_position,
        "sweep-bias": run_sweep_bias,
        "sweep-distance": run_sweep_distance,
        "eval-asymptotics": run_eval_asymptotics,
    }.get(config.scenario)
    if runner is None:
        raise ValueError(f"scenario {config.scenario!r} has no runner")
    return runner(config)
