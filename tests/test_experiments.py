import math
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from nessent.config import ExperimentConfig, ParseError, emit_csv, format_value, parse_config, parse_config_text, read_csv
import nessent.correlation as cor
from nessent.correlation import (
    CorrelationBuilder,
    CorrelationMatrix,
    FiniteMatrix,
    SubsystemGeometry,
    correlation_matrix_far,
)
from nessent.entanglement import SpectrumError
from nessent.numerics import NonConvergence, NotHermitian
from nessent.scattering import PoleData, ScatteringModel, SingleImpurity
from nessent.experiments import (
    LengthMismatch,
    _distance_clusters,
    _fit_rows,
    fit_constant,
    friedel_window,
    run_eval_asymptotics,
    run_scenario,
    run_sweep_distance,
    run_sweep_length,
    run_sweep_position,
)

K_FL = 2 * math.pi / 3
K_FR = math.pi / 2


# --- fitting -----------------------------------------------------------------


def test_fit_constant_pure_offset():
    ana = np.linspace(0, 5, 8)
    fit = fit_constant(ana + 0.7, ana)
    assert fit.offset == pytest.approx(0.7, abs=1e-12)
    assert fit.residual_max == pytest.approx(0.0, abs=1e-12)
    assert fit.residual_rms == pytest.approx(0.0, abs=1e-12)


def test_fit_constant_bounded_noise():
    rng = np.random.default_rng(0)
    ana = np.linspace(0, 5, 50)
    eps = 0.01
    noise = rng.uniform(-eps, eps, size=50)
    fit = fit_constant(ana + noise, ana)
    assert fit.residual_max <= 2 * eps
    assert fit.residual_max >= fit.residual_rms >= 0.0


def test_fit_rows_slope_check():
    # the slope is fitted after the exactly known log part is removed, and
    # compared with the slope of the linear part of the prediction
    driver = np.arange(10, dtype=float)
    log = 0.3 * np.log1p(driver)
    points = [
        {"measure": "mi", "order": "vn", "ell_mirror": m, "numeric": 2.05 * m + 1.0 + lg,
         "analytic_linear": 2.0 * m, "analytic_log": lg, "analytic": 2.0 * m + lg}
        for m, lg in zip(driver, log)
    ]
    (fit,) = _fit_rows(points, "ell_mirror")
    assert fit["slope_fitted"] == pytest.approx(2.05, abs=1e-10)
    assert fit["slope_predicted"] == pytest.approx(2.0, abs=1e-12)
    assert fit["slope_rel_err"] == pytest.approx(0.025, abs=1e-10)
    assert fit["residual_max"] == pytest.approx(0.225, abs=1e-10)
    (no_driver,) = _fit_rows(points, None)
    assert no_driver["slope_fitted"] is None and no_driver["slope_predicted"] is None


def test_fit_constant_length_mismatch():
    with pytest.raises(LengthMismatch):
        fit_constant([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(LengthMismatch):
        fit_constant([1.0, 2.0, 3.0], [1.0, 2.0])


def test_friedel_window_cancels_aliased_lines():
    # at these momenta all oscillation frequencies are multiples of pi/6, and
    # 12 consecutive samples advance each by whole turns
    assert friedel_window(K_FL, K_FR) == 12
    assert friedel_window(K_FL, K_FR, requested=7) == 7
    # a linear detrend through two samples leaves no residual, so a window of
    # 2 would give an amplitude of round-off; auto picked 2 at equal momenta
    for requested in (1, 2):
        with pytest.raises(ValueError):
            friedel_window(K_FL, K_FR, requested=requested)
    assert friedel_window(K_FR, K_FR) == 4


# --- config parsing ----------------------------------------------------------


GOOD_CONFIG = """
# sample
scenario = sweep-length
model = constant
transmission = 0.5
k_fl = pi/2 + pi/6
k_fr = pi/2
ell_min = 10
ell_max = 30
ell_step = 10
measures = mi, negativity
renyi_orders = vn, 0.5
"""


def test_parse_config_good():
    cfg = parse_config_text(GOOD_CONFIG)
    assert cfg.scenario == "sweep-length"
    assert cfg.k_fl == pytest.approx(K_FL)
    assert cfg.measures == ("mi", "negativity")
    assert cfg.renyi_orders == ("vn", 0.5)
    assert cfg.build_model().t_prob == 0.5


def test_parse_config_missing_required_key_names_it():
    with pytest.raises(ParseError, match="ell_min"):
        parse_config_text("scenario = sweep-length\nk_fl = 1.0\nk_fr = 0.9\nell_max = 50\n")


def test_parse_config_unknown_key_and_scenario():
    with pytest.raises(ParseError, match="unknown key"):
        parse_config_text("scenario = selftest\nbogus = 1\n")
    with pytest.raises(ParseError, match="unknown scenario"):
        parse_config_text("scenario = sweep-everything\n")


@pytest.mark.parametrize(
    "key, value", [("rel_tol", "0"), ("nodes_per_panel", "16"), ("abs_tol", "1e-12"), ("max_panels", "10")]
)
def test_parse_config_fixed_quadrature_settings_are_unknown_keys(key, value):
    # the quadrature's targets, panel budget and panel order are fixed, not keys
    with pytest.raises(ParseError, match=f"^line 2: unknown key '{key}'$"):
        parse_config_text(f"scenario = selftest\n{key} = {value}\n")


@pytest.mark.parametrize("key", ["rel_tol", "nodes_per_panel", "abs_tol", "max_panels"])
def test_experiment_config_has_no_quadrature_field(key):
    # the builders' quadrature is fixed: no config field can reach it
    assert key not in {f.name for f in fields(ExperimentConfig)}
    with pytest.raises(TypeError, match=key):
        ExperimentConfig(scenario="selftest", **{key: 1})


def test_parse_config_scenario_mismatch():
    with pytest.raises(ParseError, match="mismatch"):
        parse_config_text("scenario = selftest\n", scenario="sweep-length")


def test_parse_config_rejects_malformed_line():
    with pytest.raises(ParseError, match="line 2"):
        parse_config_text("scenario = selftest\nnot a pair\n")


def test_parse_config_integer_keys_reject_fractions():
    for key in ("ell_l", "window"):
        with pytest.raises(ParseError, match=f"'{key}'.*integer"):
            parse_config_text(f"scenario = selftest\n{key} = 2.6\n")
    cfg = parse_config_text("scenario = selftest\nell_l = 6/2\nwindow = 12\n")
    assert (cfg.ell_l, cfg.window) == (3, 12)


def test_parse_config_rejects_nonpositive_renyi_order():
    for value in ("-1", "0", "vn, 2, -0.5", "1e400"):
        with pytest.raises(ParseError, match="'renyi_orders'.*positive"):
            parse_config_text(f"scenario = selftest\nrenyi_orders = {value}\n")


def test_parse_config_rejects_duplicate_renyi_order():
    # order 1 is the von Neumann entropy, so "vn, 1" names one order twice;
    # orders the CSV prints alike would merge into one fitted series
    for value in ("vn, 1", "1, vn", "2, 0.5, 2", "vn, vn", "0.5, 1/2", "0.5, 0.5000001"):
        with pytest.raises(ParseError, match="'renyi_orders'.*duplicate"):
            parse_config_text(f"scenario = selftest\nrenyi_orders = {value}\n")
    assert parse_config_text("scenario = selftest\nrenyi_orders = vn, 0.5, 2\n").renyi_orders == ("vn", 0.5, 2.0)


OUT_OF_RANGE = [
    ("ell_step = 0", "ell_step"),
    ("delta_step = 0", "delta_step"),
    ("ell_min = 0", "ell_min"),
    ("delta_min = 5\ndelta_max = 1", "delta_max"),
    ("ell_min = 9\nell_max = 8", "ell_max"),
    ("ell_l = 0", "ell_l"),
    ("d_r = -1", "d_r"),
    ("n_centers = 0", "n_centers"),
    ("d_over_ell_min = 0", "d_over_ell_min"),
    ("ell = 1\nd_over_ell_min = 0.4", "d_over_ell_min"),
    ("d_over_ell_min = 3\nd_over_ell_max = 2", "d_over_ell_max"),
    ("window = 1", "window"),
    ("window = 2", "window"),
    ("dk_list = ,", "dk_list"),
    ("k_fr = pi/2\ndk_list = 3", "dk_list"),
    ("dk_list = pi/12, -pi/2", "dk_list"),
    ("k_fl = 4", "k_fl"),
    ("k_fr = 0\ndk_list = pi/12", "k_fr"),
    ("eta = 0", "eta"),
    ("transmission = 1.5", "transmission"),
    ("threads = 0", "threads"),
    ("threads = -2", "threads"),
    ("model = foo", "model"),
    ("measures = ,", "measures"),
    ("renyi_orders = ,", "renyi_orders"),
]


@pytest.mark.parametrize(
    "lines, key", OUT_OF_RANGE, ids=[lines.replace(" ", "").replace("\n", ";") for lines, _ in OUT_OF_RANGE]
)
def test_parse_config_out_of_range_value_names_key(lines, key):
    # each of these reached a runner before, as a bare ValueError, an
    # IndexError or an empty sweep
    with pytest.raises(ParseError, match=f"'{key}': must be"):
        parse_config_text(f"scenario = selftest\n{lines}\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("scenario = selftest\nk_fl = 2*pi/3)\n", "^key 'k_fl': cannot parse number '2\\*pi/3\\)'$"),
        ("scenario = selftest\nell = 3\nell = 4\n", "^line 3: duplicate key 'ell'$"),
        ("ell = 3\n", "^missing required key 'scenario'$"),
        ("scenario = selftest\nmeasures = mi, entanglement\n", "^key 'measures': unknown measure 'entanglement'$"),
    ],
    ids=["unparsable-number", "duplicate-key", "missing-scenario", "unknown-measure"],
)
def test_parse_config_malformed_value_names_key_or_line(text, message):
    with pytest.raises(ParseError, match=message):
        parse_config_text(text)


DISTANCE_CONFIG = "scenario = sweep-distance\nk_fl = 2*pi/3\nk_fr = pi/2\nell = 8\nd_over_ell_min = 2\nd_over_ell_max = 10\n"


@pytest.mark.parametrize(
    "line, key",
    [
        ("measures = ci", "measures"),
        ("measures = mi, entropy", "measures"),
        ("renyi_orders = 0.5", "renyi_orders"),
        ("renyi_orders = vn, 2", "renyi_orders"),
        ("model = constant", "model"),
    ],
)
def test_sweep_distance_rejects_what_it_cannot_compute(line, key):
    # sweep-distance computes von Neumann MI and the negativity only, and
    # its CSV has no order column; constant-T amplitudes give no valid
    # finite-distance state (at ell = 50, T = 0.3, C exceeds I by 5.5e-3 at
    # d = 0 and by 4.4e-10 at d = 5, which was clamped silently)
    with pytest.raises(ParseError, match=f"'{key}': must be .* for sweep-distance"):
        parse_config_text(f"{DISTANCE_CONFIG}{line}\n")
    cfg = parse_config_text(f"{DISTANCE_CONFIG}measures = negativity, mi\nrenyi_orders = 1\n")
    assert cfg.measures == ("negativity", "mi")


#: every key parsed as a float, and dk_list, a list of them
FLOAT_KEYS = [f.name for f in fields(ExperimentConfig) if f.type.startswith("float")] + ["dk_list"]


#: an integer literal that float() cannot hold
HUGE_INT = "1" + "0" * 400


@pytest.mark.parametrize("key", FLOAT_KEYS)
@pytest.mark.parametrize("value", ["1e400", "-1e400", "1e308*10", "1e400 - 1e400", HUGE_INT])
def test_parse_config_rejects_non_finite_numbers(key, value):
    # inf used to parse and reach a runner: d_over_ell_max = 1e400 raised
    # OverflowError there, and eta = 1e400 wrote a CSV
    with pytest.raises(ParseError, match=f"'{key}': must be a finite number"):
        parse_config_text(f"scenario = selftest\n{key} = {value}\n")


#: every key parsed as an integer, and window, an integer or "auto"
INT_KEYS = [f.name for f in fields(ExperimentConfig) if f.type.startswith("int")]


@pytest.mark.parametrize("key", INT_KEYS + ["renyi_orders"])
def test_parse_config_rejects_int_literals_beyond_float_range(key):
    # ell_max = 1 followed by 400 zeros raised OverflowError, which the CLI
    # reported as kind=OverflowError without naming the key
    with pytest.raises(ParseError, match=f"'{key}': must be a finite number"):
        parse_config_text(f"scenario = selftest\n{key} = {HUGE_INT}\n")
    with pytest.raises(ParseError, match=f"'{key}': must be a finite number"):
        parse_config_text(f"scenario = selftest\n{key} = 2 * -{HUGE_INT}\n")


@pytest.mark.parametrize("key", INT_KEYS + FLOAT_KEYS + ["renyi_orders"])
@pytest.mark.parametrize("value", ["True", "False", "2*True"])
def test_parse_config_rejects_booleans(key, value):
    # bool is an int subclass: ell_min = True parsed as 1, epsilon0 = False
    # as 0.0 and renyi_orders = True as order 1
    with pytest.raises(ParseError, match=f"'{key}': unsupported expression"):
        parse_config_text(f"scenario = selftest\n{key} = {value}\n")


def test_parse_config_rejects_duplicate_measure():
    # a repeated measure wrote every point twice and fitted the doubled series
    for value in ("mi, mi", "mi, ci, negativity, ci"):
        with pytest.raises(ParseError, match="'measures': duplicate measure"):
            parse_config_text(f"scenario = selftest\nmeasures = {value}\n")
    assert parse_config_text("scenario = selftest\nmeasures = ci, mi\n").measures == ("ci", "mi")


def test_parse_config_division_by_zero_names_key():
    with pytest.raises(ParseError, match="'d_r'"):
        parse_config_text("scenario = selftest\nd_r = 1/0\n")


def test_sample_configs_parse():
    paths = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))
    assert len(paths) >= 5
    for path in paths:
        assert parse_config(path).scenario in path.read_text()
    bias = parse_config(path.with_name("bias_sweep.cfg"))
    assert bias.dk_list == pytest.approx((math.pi / 24, math.pi / 12, math.pi / 6))


def test_parse_config_accepts_utf8_byte_order_mark(tmp_path):
    # the BOM was read as part of the first key: "unknown key '\ufeffscenario'"
    path = tmp_path / "bom.cfg"
    path.write_bytes("\ufeffscenario = selftest\nell = 3\n".encode("utf-8"))
    cfg = parse_config(path)
    assert (cfg.scenario, cfg.ell) == ("selftest", 3)


@pytest.mark.parametrize("data, line, at", [
    (b"\xe9scenario = selftest\n", 1, 0),
    (b"scenario = selftest\nell = 3\n# \xe9\n", 3, 30),
    # a Latin-1 file: each \u00e9 is the one byte 0xe9
    ("scenario = selftest\n# \u00e9t\u00e9\nell = 3\n".encode("latin-1"), 2, 22),
    # utf-8-sig counts its offsets after the BOM: line 1, byte 4 before
    (b"\xef\xbb\xbfscenario = selftest\n\xe9\n", 2, 23),
    (b"\xef\xbb\xbfa\nb\n\xe9\n", 3, 7),
    # a multi-byte sequence cut off at the end of the file
    (b"scenario = selftest\n# \xc3", 2, 22),
], ids=["first-byte", "third-line", "latin-1", "bom-second-line", "bom-short-lines", "truncated"])
def test_parse_config_undecodable_byte_names_line_and_file_offset(tmp_path, data, line, at):
    path = tmp_path / "bad.cfg"
    path.write_bytes(data)
    with pytest.raises(ParseError, match=rf"^line {line}: not UTF-8 \(.* at byte {at}\)$"):
        parse_config(path)


def test_csv_round_trip_preserves_12_digits(tmp_path):
    rows = [{"a": 1.2345678901234e-7, "b": "x", "c": 42, "d": None}]
    path = tmp_path / "t.csv"
    emit_csv(rows, path, ["a", "b", "c", "d"])
    fieldnames, back = read_csv(path)
    assert fieldnames == ["a", "b", "c", "d"]
    assert float(back[0]["a"]) == pytest.approx(1.2345678901234e-7, rel=1e-12)
    assert back[0]["c"] == "42"
    assert back[0]["d"] == ""
    assert path.read_bytes().endswith(b"\n")
    assert b"\r" not in path.read_bytes()


def test_negative_zero_prints_as_zero():
    # the order-2 volume term of a T = 0 prediction is 1/(1 - n) * 0.0 = -0.0
    assert format_value(-0.0) == "0"
    cfg = parse_config_text(
        "scenario = eval-asymptotics\nmodel = constant\ntransmission = 0\nk_fl = 2*pi/3\nk_fr = pi/2\n"
        "ell_l = 10\nell_r = 10\nd_l = 0\nd_r = 0\nmeasures = mi\nrenyi_orders = vn, 0.5, 2\n"
    )
    _, rows = run_scenario(cfg)
    assert [format_value(row["linear"]) for row in rows] == ["0", "0", "0"]


# --- runners ------------------------------------------------------------------


def small_length_config(**overrides):
    base = dict(
        scenario="sweep-length",
        model="constant",
        transmission=0.5,
        k_fl=K_FR + math.pi / 6,
        k_fr=K_FR,
        ell_min=8,
        ell_max=32,
        ell_step=4,
        measures=("mi", "ci", "negativity"),
        renyi_orders=("vn", 0.5),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def rows_of(rows, **sel):
    return [row for row in rows if all(row.get(k) == v for k, v in sel.items())]


def test_sweep_length_trivial_model_correlations_vanish():
    cfg = small_length_config(model="trivial")
    _, rows = run_sweep_length(cfg)
    points = rows_of(rows, row_type="point")
    assert points
    for row in points:
        if row["measure"] == "mi" and row["order"] == "vn":
            assert abs(row["numeric"]) < 1e-8
            assert abs(row["analytic"]) < 1e-10
        elif row["measure"] in ("mi", "negativity"):
            # fractional powers amplify eigenvalue noise near the branch
            # points, so sub-unit orders floor out around 1e-6 on the clean
            # chain's near-pure spectrum
            assert abs(row["numeric"]) < 1e-6
            assert abs(row["analytic"]) < 1e-10
        else:  # product state: CI = -S(A_L) < 0, constant-offset fit stays tight
            assert row["numeric"] < 0.0
    ci_fit = rows_of(rows, row_type="fit", measure="ci")[0]
    assert ci_fit["residual_max"] < 0.01


def test_sweep_length_constant_half_slopes():
    cfg = small_length_config()
    _, rows = run_sweep_length(cfg)
    mi_fit = rows_of(rows, row_type="fit", measure="mi", order="vn")[0]
    assert abs(mi_fit["slope_fitted"] - np.log(2) / 6) < 0.02 * np.log(2) / 6
    ci_fit = rows_of(rows, row_type="fit", measure="ci", order="vn")[0]
    assert abs(ci_fit["slope_fitted"] - np.log(2) / 12) < 0.02 * np.log(2) / 12
    neg_fit = rows_of(rows, row_type="fit", measure="negativity")[0]
    mi_half_fit = rows_of(rows, row_type="fit", measure="mi", order="0.5")[0]
    assert abs(neg_fit["slope_fitted"] - 0.5 * mi_half_fit["slope_fitted"]) < 0.02 * abs(
        0.5 * mi_half_fit["slope_fitted"]
    )


def test_sweep_length_rows_carry_numeric_and_analytic():
    cfg = small_length_config(measures=("mi",), renyi_orders=("vn",))
    fields, rows = run_sweep_length(cfg)
    for row in rows_of(rows, row_type="point"):
        assert row["numeric"] is not None
        assert row["analytic"] == pytest.approx(row["analytic_linear"] + row["analytic_log"])
    assert set(fields) >= {"row_type", "ell", "measure", "numeric", "analytic"}


def test_sweep_position_regimes_and_plateau():
    cfg = ExperimentConfig(
        scenario="sweep-position",
        model="single_impurity",
        epsilon0=1.0,
        k_fl=K_FL,
        k_fr=K_FR,
        ell_l=12,
        ell_r=24,
        delta_min=-20,
        delta_max=32,
        delta_step=4,
        measures=("mi",),
        renyi_orders=("vn",),
    )
    _, rows = run_sweep_position(cfg)
    points = rows_of(rows, row_type="point", measure="mi")
    by_delta = {row["delta"]: row for row in points}
    # regime boundaries follow the mirror-overlap breakpoints exactly
    assert by_delta[-16]["regime"] == "no-overlap" and by_delta[-16]["ell_mirror"] == 0
    assert by_delta[-4]["regime"] == "partial" and by_delta[-4]["ell_mirror"] == 8
    assert by_delta[4]["regime"] == "contained" and by_delta[4]["ell_mirror"] == 12
    assert by_delta[16]["regime"] == "partial"
    assert by_delta[28]["regime"] == "no-overlap"
    # containment plateau beats zero overlap
    assert by_delta[4]["numeric"] > by_delta[-20]["numeric"]


def test_sweep_bias_matches_length_sweep_point():
    # identical computation path: a one-entry bias list reproduces the plain
    # length sweep numbers exactly
    cfg_len = small_length_config(model="single_impurity", epsilon0=1.0)
    _, rows_len = run_sweep_length(cfg_len)
    cfg_bias = small_length_config(
        model="single_impurity",
        epsilon0=1.0,
        scenario="sweep-bias",
        dk_list=(math.pi / 6,),
    )
    _, rows_bias = run_scenario(cfg_bias)
    pts_len = rows_of(rows_len, row_type="point", measure="mi", order="vn")
    pts_bias = rows_of(rows_bias, row_type="point", measure="mi", order="vn")
    assert len(pts_len) == len(pts_bias)
    for a, b in zip(pts_len, pts_bias):
        assert b["dk"] == math.pi / 6
        assert a["numeric"] == b["numeric"]


def test_sweep_bias_zero_window_all_measures_vanish():
    cfg = small_length_config(
        model="single_impurity",
        epsilon0=1.0,
        scenario="sweep-bias",
        ell_min=8,
        ell_max=20,
        ell_step=4,
        measures=("mi", "negativity"),
        renyi_orders=("vn",),
        dk_list=(0.0,),
    )
    _, rows = run_scenario(cfg)
    for row in rows_of(rows, row_type="point"):
        floor = 1e-8 if row["measure"] == "mi" else 1e-6  # branch-point noise
        assert abs(row["numeric"]) < floor
        assert row["analytic"] == 0.0


def test_zero_bias_entropy_predictions_read_one_sharp_fermi_sea():
    # at k_fl = k_fr each interval sees one sharp Fermi sea, two sharp steps:
    # the entropies of A_L and A_R grow as (1 + n)/(6 n) ln(ell), and with
    # MI = 0 (the test above) CI = -S(A_L)
    cfg = small_length_config(
        model="single_impurity",
        epsilon0=1.0,
        k_fl=K_FR,
        ell_min=20,
        ell_max=200,
        ell_step=20,
        measures=("ci", "entropy"),
        renyi_orders=("vn", 2.0),
    )
    _, rows = run_sweep_length(cfg)
    for measure, order, coeff in (
        ("entropy_al", "vn", 1 / 3),
        ("entropy_ar", "vn", 1 / 3),
        ("entropy_al", "2", 1 / 4),
        ("entropy_ar", "2", 1 / 4),
        ("ci", "vn", -1 / 3),
    ):
        points = rows_of(rows, row_type="point", measure=measure, order=order)
        log_ell = np.log([row["ell"] for row in points])
        for row, log in zip(points, log_ell):
            assert row["analytic_log"] == pytest.approx(coeff * log, rel=1e-12)
        slope = np.polyfit(log_ell, [row["numeric"] for row in points], 1)[0]
        # order 2 carries the larger ell^(-2/n) oscillation: 2.0e-3 in the
        # slope, 4.0e-3 in the residual, against 1.5e-5 and 3.5e-5 at vn
        assert abs(slope - coeff) < 5e-3, f"{measure} order {order}: slope {slope}"
        assert rows_of(rows, row_type="fit", measure=measure, order=order)[0]["residual_max"] < 1e-2


def test_sweep_bias_small_window_linearity():
    cfg = small_length_config(
        model="single_impurity",
        epsilon0=1.0,
        scenario="sweep-bias",
        ell_min=10,
        ell_max=40,
        ell_step=5,
        measures=("mi",),
        renyi_orders=("vn",),
        dk_list=(math.pi / 24, math.pi / 12),
    )
    _, rows = run_scenario(cfg)
    slopes = {
        row["dk"]: row["slope_fitted"]
        for row in rows_of(rows, row_type="fit", measure="mi", order="vn")
    }
    ratio = slopes[math.pi / 12] / slopes[math.pi / 24]
    assert abs(ratio - 2.0) < 0.1


def test_eval_asymptotics_rows():
    cfg = ExperimentConfig(
        scenario="eval-asymptotics",
        model="single_impurity",
        epsilon0=1.0,
        k_fl=K_FL,
        k_fr=K_FR,
        ell_l=40,
        ell_r=40,
        d_l=5,
        d_r=5,
        measures=("mi", "ci", "negativity", "entropy"),
        renyi_orders=("vn", 2.0),
    )
    fields, rows = run_eval_asymptotics(cfg)
    measures_seen = {row["measure"] for row in rows}
    assert {"mi", "ci", "negativity", "entropy_al", "entropy_ar", "entropy_a"} <= measures_seen
    for row in rows:
        assert row["total"] == pytest.approx(row["linear"] + row["log"])
    # the union entropy of the symmetric geometry: four sharp steps, no
    # volume term, in the rows the sweeps overlay, after entropy_ar
    order = [(row["measure"], row["order"]) for row in rows]
    union = [row for row in rows if row["measure"] == "entropy_a"]
    assert [row["order"] for row in union] == ["vn", "2"]
    for row, coeff in zip(union, (2 / 3, 0.5)):
        assert order.index(("entropy_a", row["order"])) == order.index(("entropy_ar", row["order"])) + 1
        assert row["linear"] == 0.0
        assert row["log"] == pytest.approx(coeff * np.log(40), abs=1e-14)
    # no union prediction off the symmetric geometry
    _, asym = run_eval_asymptotics(replace(cfg, d_r=6))
    assert "entropy_a" not in {row["measure"] for row in asym}
    assert [(r["measure"], r["order"]) for r in asym] == [m for m in order if m[0] != "entropy_a"]


def test_sweep_output_deterministic(tmp_path):
    cfg = small_length_config(measures=("mi",), renyi_orders=("vn",), ell_max=20)
    paths = []
    for name in ("a.csv", "b.csv"):
        fields, rows = run_sweep_length(cfg)
        path = tmp_path / name
        emit_csv(rows, path, fields)
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]


def test_threaded_sweep_matches_serial():
    # mirror-symmetric intervals: every point folds to a real union, so the
    # real spectra and the real negativity pencil run on every thread
    cfg1 = small_length_config(measures=("mi", "ci", "negativity"), renyi_orders=("vn", 0.5), threads=1)
    cfg4 = small_length_config(measures=("mi", "ci", "negativity"), renyi_orders=("vn", 0.5), threads=4)
    _, rows1 = run_sweep_length(cfg1)
    _, rows4 = run_sweep_length(cfg4)
    nums1 = [r["numeric"] for r in rows_of(rows1, row_type="point")]
    nums4 = [r["numeric"] for r in rows_of(rows4, row_type="point")]
    assert nums1 == nums4


def test_distance_sweep_failure_names_distance(monkeypatch):
    import nessent.experiments as ex
    from nessent.numerics import NonConvergence

    def starved(builder, geom):
        raise NonConvergence("budget exhausted")

    monkeypatch.setattr(ex, "correlation_matrix_finite", starved)
    cfg = ExperimentConfig(
        scenario="sweep-distance", k_fl=K_FL, k_fr=K_FR, ell=8, d_over_ell_min=2, d_over_ell_max=10,
        n_centers=3, measures=("mi",),
    )
    with pytest.raises(NonConvergence, match=r"^d=16: budget exhausted$"):
        run_sweep_distance(cfg)


def test_threaded_distance_sweep_bytes_match_serial(tmp_path):
    # distances 16..250 put the j+m rates in nine 64-rate table blocks
    outputs = []
    for threads in (1, 4):
        cfg = ExperimentConfig(
            scenario="sweep-distance",
            model="single_impurity",
            epsilon0=1.0,
            k_fl=K_FL,
            k_fr=K_FR,
            ell=8,
            d_over_ell_min=2,
            d_over_ell_max=30,
            n_centers=4,
            fit_min_d_over_ell=2,
            measures=("mi", "negativity"),
            threads=threads,
        )
        fields, rows = run_sweep_distance(cfg)
        path = tmp_path / f"threads{threads}.csv"
        emit_csv(rows, path, fields)
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]


def distance_config(**overrides):
    """A distance sweep at ell = 8 over d = 16..250, in four clusters."""
    base = dict(
        scenario="sweep-distance", model="single_impurity", epsilon0=1.0, k_fl=K_FL, k_fr=K_FR, ell=8,
        d_over_ell_min=2, d_over_ell_max=30, n_centers=4, fit_min_d_over_ell=2, measures=("mi", "negativity"),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_distance_sweep_maps_its_distances_once(monkeypatch):
    # one worker pool per sweep, whatever the number of clusters, and a
    # distance two clusters share is solved once
    import nessent.experiments as ex

    calls = count_calls(monkeypatch, ex, "_map_ordered")
    # twelve clusters of consecutive distances between 16 and 80 overlap
    _, rows = run_sweep_distance(distance_config(d_over_ell_max=10, n_centers=12, threads=2))
    assert len(calls) == 1
    mapped = calls[0][1]
    points = [row["d"] for row in rows_of(rows, row_type="point", measure="mi")]
    assert mapped == sorted(set(points)) and len(mapped) < len(points)


def test_distance_sweep_decomposes_only_its_far_blocks(monkeypatch):
    # every finite matrix is partitioned in the eigenbasis of the far blocks,
    # which the far point decomposes: no site matrix is assembled, and the
    # two real far blocks are the only blocks eigh sees
    import nessent.correlation as cor

    assembled = count_calls(monkeypatch, cor, "hermitian_matrix")
    solved = count_calls(monkeypatch, np.linalg, "eigh")
    _, rows = run_sweep_distance(distance_config())
    assert rows_of(rows, row_type="fit")
    assert not assembled
    assert [(block.shape, block.dtype) for block, in solved] == [((8, 8), np.float64)] * 2


def count_calls(monkeypatch, module, name):
    """Record the arguments of every call to module.name."""
    calls = []
    fn = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("measures, spectra", [(("negativity",), 0), (("mi",), 3), (("negativity", "ci"), 3)])
def test_point_rows_compute_only_the_spectra_they_read(monkeypatch, measures, spectra):
    # von Neumann entropies take one occupation spectrum per point, that of
    # the deflated union; the negativity reads none
    import nessent.entanglement as ent

    calls = count_calls(monkeypatch, ent, "occupation_spectrum")
    cfg = small_length_config(ell_min=6, ell_max=14, ell_step=4, measures=measures, renyi_orders=("vn",))
    _, rows = run_sweep_length(cfg)
    assert len(rows_of(rows, row_type="point")) == 3 * len(measures)
    assert len(calls) == spectra


@pytest.mark.parametrize("orders, spectra", [((0.5,), 3), (("vn", 0.5), 6)])
def test_sub_unit_orders_read_the_reduced_union(monkeypatch, orders, spectra):
    # orders below 1 read a partition as the others do: one reduced union
    # spectrum per point for each deflation rule
    import nessent.entanglement as ent

    calls = count_calls(monkeypatch, ent, "occupation_spectrum")
    cfg = small_length_config(ell_min=6, ell_max=14, ell_step=4, measures=("mi", "entropy"), renyi_orders=orders)
    run_sweep_length(cfg)
    assert len(calls) == spectra


def test_fig2_point_takes_no_eigvalsh_of_block_size(monkeypatch):
    # at ell = 100 the order-1/2 partition keeps about 80 of 200 modes: the
    # block eigh pair is the only decomposition of a block's size, and each
    # deflation rule takes one smaller union spectrum
    sizes = {"eigh": [], "eigvalsh": []}
    for name, calls in sizes.items():

        def recorded(a, *args, solve=getattr(np.linalg, name), calls=calls, **kwargs):
            calls.append(a.shape[0])
            return solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    cfg = small_length_config(model="single_impurity", epsilon0=1.0, k_fl=K_FL, ell_min=100, ell_max=100)
    _, rows = run_sweep_length(cfg)
    assert len(rows_of(rows, row_type="point")) == 4
    assert sizes["eigh"] == [100, 100]
    assert len(sizes["eigvalsh"]) == 2 and max(sizes["eigvalsh"]) < 100


def test_point_values_are_freed_without_the_cycle_collector():
    # a point's partitions and spectra go with its closure as soon as the
    # point is done, so a sweep's peak memory holds one point's worth
    import gc
    import weakref

    import nessent.experiments as ex
    from nessent.correlation import CorrelationBuilder, SubsystemGeometry, correlation_matrix_far
    from nessent.scattering import BiasState, SingleImpurity

    builder = CorrelationBuilder(SingleImpurity(1.0), BiasState(K_FL, K_FR))
    cm = correlation_matrix_far(builder, SubsystemGeometry(0, 12, 0, 12))
    gc.disable()
    try:
        numeric = ex._point_values(cm)
        for measure, order in (("mi", "vn"), ("mi", 0.5), ("ci", "vn"), ("negativity", 1)):
            numeric(measure, order)
        freed = weakref.ref(cm)
        del numeric, cm
        assert freed() is None
    finally:
        gc.enable()


def test_far_sweeps_never_assemble_the_site_matrix(monkeypatch):
    import nessent.experiments as ex

    made = []
    far = ex.correlation_matrix_far

    def recorded(builder, geom):
        made.append(far(builder, geom))
        return made[-1]

    monkeypatch.setattr(ex, "correlation_matrix_far", recorded)
    run_sweep_position(position_config(measures=("mi",)))
    run_sweep_length(small_length_config(ell_min=6, ell_max=14))
    # delta = 4 and 8 are mirror images at ell 12 and 24, and share a matrix
    assert len(made) == 4 + 3
    assert not any("matrix" in vars(cm) for cm in made)


def test_sweep_integrates_each_window_once_per_order(monkeypatch):
    # the volume coefficients are cached per (model, bias, Renyi index), so a
    # sweep runs one window quadrature per order, whatever its points
    import nessent.asymptotics as asy

    windows = []
    integrate = asy.integrate

    def counted(f, lo, hi, spec, **kwargs):
        if spec is asy.WINDOW_SPEC:
            windows.append((lo, hi))
        return integrate(f, lo, hi, spec, **kwargs)

    asy._window_integral.cache_clear()
    monkeypatch.setattr(asy, "integrate", counted)
    _, rows = run_sweep_length(small_length_config(measures=("mi", "entropy"), renyi_orders=("vn", 0.5)))
    assert len(rows_of(rows, row_type="point", measure="mi")) == 14
    assert len(windows) == 2


def test_distance_sweep_fills_each_table_block_once(monkeypatch):
    # d/ell = 50..150 at ell = 4 read several blocks per window; each
    # (window, factor, block) is integrated once, whichever distances and
    # threads read it, and r_R and t_R read the same blocks of window R
    filled = count_calls(monkeypatch, cor, "window_fourier")
    cfg = ExperimentConfig(
        scenario="sweep-distance", model="single_impurity", epsilon0=1.0, k_fl=K_FL, k_fr=K_FR, ell=4,
        d_over_ell_min=50, d_over_ell_max=150, n_centers=3, window=3, measures=("mi", "negativity"),
    )
    run_sweep_distance(cfg)
    assert len(set(filled)) == len(filled)
    _, t_r, _, r_r = SingleImpurity(1.0).pole_data()
    starts = {f: {x0 for g, a, b, x0 in filled if g == f and b == K_FR} for f in (r_r, t_r)}
    assert len(starts[r_r]) > 1 and starts[r_r] == starts[t_r]


FIGS2 = Path(__file__).resolve().parents[1] / "configs" / "figS2_distance.cfg"


def figs2_table_keys(epsilon0: float):
    """The Fig. S2 config at epsilon0 and the table keys its distances read."""
    cfg = replace(parse_config(FIGS2, "sweep-distance"), epsilon0=epsilon0)
    geoms = [SubsystemGeometry(d, cfg.ell, d, cfg.ell) for ds in _distance_clusters(cfg, cfg.build_bias()) for d in ds]
    reads = [read for geom in geoms for read in cor._hankel_reads(geom)]
    keys = [(window, "tL" if factor == "tLc" else factor, b) for window, factor, rates in reads for b in cor._span(rates)]
    return cfg, list(dict.fromkeys(keys))


@pytest.mark.parametrize("epsilon0", [1.0, 0.02])
def test_table_fill_order_keeps_the_bytes(epsilon0):
    # the blocks of a Fig. S2 sweep, filled in ascending, descending and a
    # shuffled key order: every block keeps its bytes.  At epsilon0 = 0.02
    # the near pole has the longest series
    cfg, keys = figs2_table_keys(epsilon0)
    shuffled = [keys[i] for i in np.random.default_rng(3).permutation(len(keys))]
    builders = []
    for order in (sorted(keys), sorted(keys, reverse=True), shuffled):
        builder = CorrelationBuilder(cfg.build_model(), cfg.build_bias())
        builder.prefetch(order)
        builders.append(builder)
    first = builders[0]._blocks
    assert first.keys() == set(keys)
    for builder in builders[1:]:
        assert builder._blocks.keys() == first.keys()
        assert all(builder._blocks[key].tobytes() == first[key].tobytes() for key in keys)


def _overfilled(finite, at):
    """correlation_matrix_finite with Hankel terms 100 times too large at
    the distances in at: a matrix whose spectrum leaves [0, 1]."""

    def build(builder, geom):
        cm = finite(builder, geom)
        if geom.d_l not in at:
            return cm
        return FiniteMatrix(cm.far, 100 * cm.hankel_left, 100 * cm.hankel_right, 100 * cm.hankel_cross)

    return build


@pytest.mark.parametrize("threads", [1, 2])
def test_distance_sweep_failure_names_the_first_failing_distance(monkeypatch, threads):
    # the spectra of d = 155 and 156 leave [0, 1]; the sweep fails as the
    # first of them does, at any thread count
    import nessent.experiments as ex

    monkeypatch.setattr(ex, "correlation_matrix_finite", _overfilled(ex.correlation_matrix_finite, {155, 156}))
    cfg = ExperimentConfig(
        scenario="sweep-distance", model="single_impurity", epsilon0=1.0, k_fl=K_FL, k_fr=K_FR, ell=4,
        d_over_ell_min=38.5, d_over_ell_max=38.5, n_centers=1, window=5, measures=("mi",), threads=threads,
    )
    with pytest.raises(SpectrumError, match=r"^d=155: correlation eigenvalue \S+ outside \[0, 1\] beyond slack$"):
        run_sweep_distance(cfg)


@pytest.mark.parametrize("epsilon0", [0.02, 0.05, 1e-4])
def test_distance_sweep_near_a_pole_gives_finite_points(epsilon0):
    # t(k) has a pole about epsilon0/2 from the unit circle, next to k = 0
    # where the windows L and R start: the longest series of the tables
    p = SingleImpurity(epsilon0).pole_data()[2].poles[1]
    assert cor._series_length(p) > 1000
    cfg = ExperimentConfig(
        scenario="sweep-distance", model="single_impurity", epsilon0=epsilon0, k_fl=K_FL, k_fr=K_FR, ell=4,
        d_over_ell_min=50, d_over_ell_max=50, n_centers=1, window=3, measures=("mi", "negativity"),
    )
    _, rows = run_sweep_distance(cfg)
    points = rows_of(rows, row_type="point")
    assert points and all(np.isfinite(row["value"]) for row in points)


def position_config(**overrides):
    """Five far-limit placements of unequal intervals."""
    base = dict(
        scenario="sweep-position", model="single_impurity", epsilon0=1.0, k_fl=K_FL, k_fr=K_FR,
        ell_l=12, ell_r=24, delta_min=-8, delta_max=8, delta_step=4, measures=("mi",), renyi_orders=("vn",),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_position_sweep_decomposes_each_block_once(monkeypatch):
    # the diagonal blocks do not depend on the offset, so the builder's
    # blocks serve every point after the first, including delta = 6, where
    # 2 delta = ell_r - ell_l and the union folds
    import nessent.entanglement as ent

    calls = count_calls(monkeypatch, ent, "_block_eigenpairs")
    _, rows = run_sweep_position(position_config(measures=("mi", "ci", "negativity"), delta_step=2))
    assert [row["delta"] for row in rows_of(rows, row_type="point", measure="mi")] == list(range(-8, 9, 2))
    assert sorted(block.shape for block, *_ in calls) == [(12, 12), (24, 24)]


def test_threaded_position_sweep_bytes_match_serial(tmp_path):
    # the threads share the builder's blocks and their eigenpairs; a short
    # switch interval interleaves them more often
    outputs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for threads in (1, 4):
            # delta = 6 folds, every other offset does not
            cfg = position_config(delta_min=-18, delta_max=30, measures=("mi", "negativity"), threads=threads)
            fields, rows = run_sweep_position(cfg)
            path = tmp_path / f"threads{threads}.csv"
            emit_csv(rows, path, fields)
            outputs.append(path.read_bytes())
    finally:
        sys.setswitchinterval(interval)
    assert outputs[0] == outputs[1]


class TurnedImpurity(ScatteringModel):
    """SingleImpurity(1) with r_l turned by the momentum-dependent phase
    B = (z - 1/2)/(1 - z/2), |B| = 1 on the unit circle, and r_r by its
    conjugate 1/B: a unitary S-matrix whose t_l^* r_l is not imaginary, so
    the W_X values have no parity and mirror offsets differ."""

    def amplitudes(self, k):
        r, t, _, _ = SingleImpurity(1.0).amplitudes(k)
        z = np.exp(1j * np.asarray(k))
        turn = (z - 0.5) / (1 - 0.5 * z)
        return r * turn, t, t, r / turn

    def pole_data(self):
        r, t, _, _ = SingleImpurity(1.0).pole_data()
        # B = -2 - 3/(z - 2) and 1/B = -1/2 + (3/4)/(z - 1/2)
        return r * PoleData(-2.0, [-3.0], [2.0]), t, t, r * PoleData(-0.5, [0.75], [0.5])


def position_values(rows):
    return {(row["delta"], row["measure"], row["order"]): row["numeric"] for row in rows_of(rows, row_type="point")}


def test_mirror_offsets_share_one_matrix(monkeypatch):
    # at ell 12 and 24 the offsets delta and 12 - delta are mirror images:
    # the first of each pair in input order is solved, the other copies it
    import nessent.experiments as ex

    made = count_calls(monkeypatch, ex, "correlation_matrix_far")
    cfg = position_config(
        delta_min=-18, delta_max=30, measures=("mi", "ci", "negativity", "entropy"), renyi_orders=("vn", 2.0, 0.5)
    )
    _, rows = run_sweep_position(cfg)
    assert [geom.d_l - geom.d_r for _, geom in made] == list(range(-18, 7, 4))
    values = position_values(rows)
    assert len(values) == 13 * 14
    for (delta, measure, order), value in values.items():
        assert value == values[(12 - delta, measure, order)]
    # the points still carry their own coordinates
    points = rows_of(rows, row_type="point", measure="mi", order="vn")
    assert [(row["delta"], row["regime"]) for row in points][-2:] == [(26, "no-overlap"), (30, "no-overlap")]


def test_parity_breaking_model_solves_every_point(monkeypatch):
    import nessent.experiments as ex

    monkeypatch.setattr(ExperimentConfig, "build_model", lambda self: TurnedImpurity())
    made = count_calls(monkeypatch, ex, "correlation_matrix_far")
    cfg = position_config(delta_min=-18, delta_max=30, measures=("mi", "ci", "negativity"))
    _, rows = run_sweep_position(cfg)
    assert len(made) == 13
    values = position_values(rows)
    builder = CorrelationBuilder(TurnedImpurity(), cfg.build_bias())
    for (delta, measure, order), value in values.items():
        own = ex._point_values(correlation_matrix_far(builder, SubsystemGeometry(18 + delta, 12, 18, 24)))
        assert value == own(measure, "vn")
    assert abs(values[(-18, "mi", "vn")] - values[(30, "mi", "vn")]) > 1e-6


class Overfull(ScatteringModel):
    """t = 3, r = 0: a transmission of 9, whose far blocks have occupations
    outside [0, 1]."""

    def amplitudes(self, k):
        k = np.asarray(k, dtype=float)
        return np.zeros(k.shape, complex), np.full(k.shape, 3.0 + 0j), np.full(k.shape, 3.0 + 0j), np.zeros(k.shape, complex)

    def pole_data(self):
        r, t = PoleData(0.0), PoleData(3.0)
        return r, t, t, r


def test_position_sweep_failure_names_the_offset(monkeypatch):
    monkeypatch.setattr(ExperimentConfig, "build_model", lambda self: Overfull())
    with pytest.raises(SpectrumError, match=r"^delta=-8: correlation eigenvalue \S+ outside \[0, 1\] beyond slack$"):
        run_sweep_position(position_config())


class _Built(Exception):
    """Stops a runner at its first builder."""


@pytest.mark.parametrize(
    "config",
    [
        small_length_config(),
        small_length_config(scenario="sweep-bias", dk_list=(math.pi / 6,)),
        position_config(),
        distance_config(),
    ],
    ids=lambda cfg: cfg.scenario,
)
def test_every_runner_builds_on_the_model_and_bias_alone(monkeypatch, config):
    # a runner hands its builder the model and bias only: the tables have
    # no settings
    import nessent.experiments as ex

    def built(*args, **kwargs):
        assert not kwargs and len(args) == 2
        CorrelationBuilder(*args)
        raise _Built

    monkeypatch.setattr(ex, "CorrelationBuilder", built)
    with pytest.raises(_Built):
        run_scenario(config)


def test_fig3_config_solves_each_mirror_pair_once(monkeypatch):
    # the grid -140..240 is symmetric about (ell_r - ell_l) / 2 = 50
    import nessent.experiments as ex

    made = count_calls(monkeypatch, ex, "correlation_matrix_far")
    path = Path(__file__).resolve().parents[1] / "configs" / "fig3_position.cfg"
    _, rows = run_sweep_position(parse_config(path))
    assert len(rows_of(rows, row_type="point")) == 77
    assert len(made) == 39


@pytest.mark.parametrize(
    "left, cross, error, message",
    [
        ([[1.0 + 1e-6, 0.0], [0.0, 0.5]], 0.01, SpectrumError, "correlation eigenvalue 1.000001"),
        ([[0.5, 0.3], [0.0, 0.5]], 0.01, NotHermitian, "Hermiticity deviation"),
        ([[0.5, 0.0], [0.0, 0.5]], 0.01j, NotHermitian, "Hermiticity deviation"),
    ],
)
def test_block_eigen_failures_name_the_sweep_point(monkeypatch, left, cross, error, message):
    # a hand-built matrix is checked for Hermiticity when it is made, and
    # the partition clamps as occupation_spectrum does
    import nessent.experiments as ex

    def broken(builder, geom):
        mat = np.full((4, 4), cross, dtype=complex)
        mat[:2, :2] = left
        mat[2:, 2:] = [[0.5, 0.0], [0.0, 0.4]]
        return CorrelationMatrix(mat, 2)

    monkeypatch.setattr(ex, "correlation_matrix_far", broken)
    with pytest.raises(error, match=rf"^delta=-8: {message}"):
        run_sweep_position(position_config())


def test_builder_matrices_are_never_checked_again(monkeypatch):
    # check_hermitian runs once on a matrix made outside the package, and
    # never on what the builders make Hermitian exactly
    import nessent.correlation as cor
    import nessent.entanglement as ent
    import nessent.experiments as ex
    import nessent.numerics as num
    from nessent.correlation import CorrelationBuilder, SubsystemGeometry
    from nessent.scattering import BiasState, SingleImpurity

    calls = [count_calls(monkeypatch, m, "check_hermitian") for m in (num, cor, ent, ex) if hasattr(m, "check_hermitian")]
    builder = CorrelationBuilder(SingleImpurity(1.0), BiasState(K_FL, K_FR))
    points = [
        cor.correlation_matrix_far(builder, SubsystemGeometry(6, 12, 0, 24)),
        cor.correlation_matrix_far(builder, SubsystemGeometry(4, 12, 0, 24)),
        cor.correlation_matrix_finite(builder, SubsystemGeometry(6, 8, 6, 8)),
    ]
    # the first far union folds (a real F), the second does not, and the
    # finite matrix has no F
    assert [np.iscomplexobj(cm.coupling) for cm in points[:2]] == [False, True]
    assert not hasattr(points[2], "coupling")
    for cm in points:
        numeric = ex._point_values(cm)
        for measure, order in (("mi", "vn"), ("mi", 0.5), ("ci", "vn"), ("entropy_a", 2.0), ("negativity", 1)):
            assert np.isfinite(numeric(measure, order))
    assert sum(map(len, calls)) == 0
    CorrelationMatrix(points[2].matrix, points[2].n_left)
    assert sum(map(len, calls)) == 1
