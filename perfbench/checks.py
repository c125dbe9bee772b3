"""Output checks on the CSV of every sweep, and the accuracy figures.

The acceptance bounds are those of criteria 4, 5, 7 and 8 in
``tests/test_acceptance.py``, restated here unchanged: the benchmark checks
its own runs against them and does not import the test suite.  On top of
them every value must be finite, every mutual information non-negative and
every sweep point present.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

# criterion 4: single-impurity length sweeps
FIG2_RESIDUAL_MAX = 0.05
FIG2_OFFSET_DRIFT = 0.05
FIG2_SERIES = (("mi", "vn"), ("ci", "vn"), ("negativity", "1"))
# criterion 5: constant-T slopes
SLOPE_REL_ERR = 0.02
LN2 = math.log(2.0)
# criterion 7: placement sweep
FIG3_RESIDUAL_MAX = 0.08
FIG3_GAP_REL_ERR = 0.10
# criterion 8: distance power laws
EXPONENT_TARGETS = {"avg_deviation": -2.0, "amplitude": -1.0}
EXPONENT_ERR = 0.3


@dataclass
class SweepCheck:
    failures: list[str] = field(default_factory=list)
    #: raw accuracy figures (fit_residual_max, slope_rel_err_max, ...)
    figures: dict[str, float] = field(default_factory=dict)
    #: each acceptance quantity as a share of its bound; 1 is the edge
    shares: list[float] = field(default_factory=list)

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def figure(self, name: str, values) -> None:
        finite = [v for v in values if math.isfinite(v)]
        if finite:
            self.figures[name] = max(finite)

    def bounded(self, name: str, value: float, bound: float, strict: bool = False) -> None:
        if not math.isfinite(value):
            self.failures.append(f"{name} is {value}")
            return
        self.shares.append(value / bound)
        self.require(value < bound if strict else value <= bound, f"{name} {value:.6g} beyond bound {bound:g}")


def parse_csv(text: str) -> list[dict[str, str]]:
    lines = text.splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _common(rows: list[dict[str, str]], sweep, check: SweepCheck) -> None:
    for i, row in enumerate(rows):
        for key, value in row.items():
            try:
                number = float(value)
            except ValueError:
                continue
            check.require(math.isfinite(number), f"row {i + 1} {key}={value} is not finite")
    value_key = "value" if sweep.kind == "distance" else "numeric"
    coordinate = {"distance": "d", "position": "delta"}.get(sweep.kind, "ell")
    points = [row for row in rows if row["row_type"] == "point"]
    for row in points:
        if row["measure"] == "mi":
            check.require(float(row[value_key]) >= 0.0, f"mutual information {row[value_key]} < 0 at {row}")
    emitted = len({row[coordinate] for row in points})
    check.require(emitted == sweep.points, f"{emitted} sweep points emitted, expected {sweep.points}")


def _fit(rows, measure, order):
    fits = [r for r in rows if r["row_type"] == "fit" and r["measure"] == measure and r["order"] == order]
    return fits[0] if fits else None


def _impurity(rows, sweep, check: SweepCheck) -> None:
    for measure, order in FIG2_SERIES:
        fit = _fit(rows, measure, order)
        check.require(fit is not None, f"no fit row for {measure}/{order}")
        if fit is None:
            continue
        check.bounded(f"{measure}/{order} residual_max", float(fit["residual_max"]), FIG2_RESIDUAL_MAX)
        drift = abs(float(fit["offset_first_half"]) - float(fit["offset_second_half"]))
        check.bounded(f"{measure}/{order} offset drift", drift, FIG2_OFFSET_DRIFT, strict=True)
    residuals = [float(r["residual_max"]) for r in rows if r["row_type"] == "fit"]
    check.figure("fit_residual_max", residuals)


def _slopes(rows, sweep, check: SweepCheck) -> None:
    def slope(measure, order):
        fit = _fit(rows, measure, order)
        check.require(fit is not None, f"no fit row for {measure}/{order}")
        return float(fit["slope_fitted"]) if fit is not None else math.nan

    mi, mi_half = slope("mi", "vn"), slope("mi", "0.5")
    ci, neg = slope("ci", "vn"), slope("negativity", "1")
    rel_mi = abs(mi - LN2 / 6) / (LN2 / 6)
    rel_ci = abs(ci - LN2 / 12) / (LN2 / 12)
    rel_neg = abs(neg - 0.5 * mi_half) / abs(0.5 * mi_half)
    check.bounded("MI slope rel err", rel_mi, SLOPE_REL_ERR, strict=True)
    check.bounded("CI slope rel err", rel_ci, SLOPE_REL_ERR, strict=True)
    check.bounded("negativity vs half order-1/2 MI slope rel err", rel_neg, SLOPE_REL_ERR, strict=True)
    check.figure("slope_rel_err_max", [rel_mi, rel_ci, abs(neg - LN2 / 12) / (LN2 / 12)])


def _position(rows, sweep, check: SweepCheck) -> None:
    from nessent.asymptotics import volume_coefficient_mi
    from nessent.scattering import BiasState, SingleImpurity

    fit = _fit(rows, "mi", "vn")
    check.require(fit is not None, "no fit row for mi/vn")
    if fit is None:
        return
    check.bounded("position fit residual_max", float(fit["residual_max"]), FIG3_RESIDUAL_MAX)
    points = {int(r["delta"]): float(r["numeric"]) for r in rows if r["row_type"] == "point" and r["measure"] == "mi"}
    bias = BiasState(2 * math.pi / 3, math.pi / 2)
    predicted_gap = 100 * volume_coefficient_mi(SingleImpurity(sweep.epsilon0), bias, "vn")
    gap_err = abs(points[50] - points[-140] - predicted_gap) / predicted_gap
    check.bounded("plateau gap rel err", gap_err, FIG3_GAP_REL_ERR)
    values = [points[d] for d in sorted(points)]
    imax = values.index(max(values))
    check.require(0 < imax < len(values) - 1, f"maximum at the sweep edge (index {imax})")
    check.figure("fit_residual_max", [float(fit["residual_max"])])
    check.figure("gap_rel_err", [gap_err])


def _distance(rows, sweep, check: SweepCheck) -> None:
    fits = [r for r in rows if r["row_type"] == "fit"]
    seen = {(r["measure"], r["quantity"]) for r in fits}
    wanted = {(m, q) for m in ("mi", "negativity") for q in EXPONENT_TARGETS}
    check.require(seen == wanted, f"power-law fits {sorted(seen)}, expected {sorted(wanted)}")
    errors = []
    for r in fits:
        err = abs(float(r["exponent"]) - EXPONENT_TARGETS[r["quantity"]])
        check.bounded(f"{r['measure']}/{r['quantity']} exponent error", err, EXPONENT_ERR)
        errors.append(err)
    check.figure("exponent_err_max", errors)


_BY_KIND = {"impurity": _impurity, "slopes": _slopes, "position": _position, "distance": _distance}


def check_sweep(sweep, text: str) -> SweepCheck:
    check = SweepCheck()
    try:
        rows = parse_csv(text)
        _common(rows, sweep, check)
        _BY_KIND[sweep.kind](rows, sweep, check)
    except (KeyError, ValueError, IndexError) as exc:
        check.failures.append(f"malformed output: {type(exc).__name__}: {exc}")
    return check


def diverging_rows(serial: str, threaded: str) -> int:
    """Lines of the threaded CSV that differ from the serial one."""
    a, b = serial.splitlines(), threaded.splitlines()
    return sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))
