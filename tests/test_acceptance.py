"""Acceptance suite: one test per criterion, with its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  The heavyweight figure-level reproductions sit behind the
same runners the CLI uses.
"""

import math
import time

import numpy as np
import pytest

import fockspace as fs
import oracles
import undeflated

from nessent import asymptotics as asy
from nessent.config import ExperimentConfig
from nessent.correlation import (
    CorrelationBuilder,
    CorrelationMatrix,
    SubsystemGeometry,
    correlation_matrix_far,
)
from nessent.entanglement import entropy, measures, occupation_spectrum, report_from_spectra
from nessent.experiments import run_sweep_distance, run_sweep_length, run_sweep_position
from nessent.scattering import BiasState, SingleImpurity

K_FL = 2 * math.pi / 3
K_FR = math.pi / 2
BIAS = BiasState(K_FL, K_FR)

#: negativity diagnostics collected across the criteria for criterion 10
DIAGNOSTICS: list[float] = []


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def random_correlation(rng, nl, nr):
    dim = nl + nr
    h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    _, u = np.linalg.eigh(0.5 * (h + h.conj().T))
    nu = rng.uniform(0.0, 1.0, size=dim)
    return CorrelationMatrix((u * nu) @ u.conj().T, nl), np.sort(nu)


def rows_of(rows, **sel):
    return [row for row in rows if all(row.get(k) == v for k, v in sel.items())]


def test_criterion_01_kernel_dual_representations():
    t0 = time.time()
    worst_single = worst_pair = 0.0
    for n in (0.5, 1.5, 2.0, 3.0):
        for p in np.round(np.arange(0.0, 1.0001, 0.1), 10):
            worst_single = max(worst_single, abs(oracles.log_kernel(n, p) - oracles.log_kernel_first_rep(n, p)))
            worst_pair = max(worst_pair, abs(oracles.log_kernel_pair(n, p) - oracles.log_kernel_pair_first_rep(n, p)))
    worst_one = max(abs(oracles.log_kernel(1.0, round(p, 10))) for p in np.arange(0.0, 1.0001, 0.1))
    worst_at_full = max(abs(oracles.log_kernel(n, 1.0)) for n in (0.5, 1.5, 2.0, 3.0))
    elapsed = time.time() - t0
    ok = worst_single < 1e-8 and worst_pair < 1e-8 and worst_one < 1e-9 and worst_at_full < 1e-9 and elapsed < 10.0
    report(
        1,
        ok,
        f"kernel dual reps agree to {max(worst_single, worst_pair):.2e} (tol 1e-8), "
        f"order-1 kernel {worst_one:.1e}, full-step kernel {worst_at_full:.1e}, {elapsed:.1f}s < 10s",
    )


def test_criterion_02_spectral_oracle():
    rng = np.random.default_rng(2024)
    worst_entropy = worst_moment = 0.0
    for _ in range(200):
        nl = int(rng.integers(1, 4))
        nr = int(rng.integers(1, 8 - nl + 1))
        cm, nu = random_correlation(rng, nl, nr)
        spectrum, _ = occupation_spectrum(cm)
        for n in (0.5, 2.0, 3.0):
            direct = float(np.log(nu**n + (1 - nu) ** n).sum() / (1 - n))
            worst_entropy = max(worst_entropy, abs(entropy(spectrum, n) - direct))
        direct_vn = float(-(np.where(nu * (1 - nu) > 0, nu * np.log(np.maximum(nu, 1e-300))
                                     + (1 - nu) * np.log(np.maximum(1 - nu, 1e-300)), 0.0)).sum())
        worst_entropy = max(worst_entropy, abs(entropy(spectrum, "vn") - direct_vn))
        for p in (1, 2, 3, 4, 5):
            worst_moment = max(worst_moment, abs(oracles.correlation_moments(cm, p) - (nu**p).sum()))
    ok = worst_entropy < 1e-10 and worst_moment < 1e-10
    report(2, ok, f"entropy spectral diff {worst_entropy:.2e}, moment dual-path diff {worst_moment:.2e} (tol 1e-10)")


def test_criterion_03_fock_space_oracle():
    rng = np.random.default_rng(333)
    worst = 0.0
    # 50 states of 3 + 3 modes, then 10 of 2 + 2
    for half, count in ((3, 50), (2, 10)):
        left, right = list(range(half)), list(range(half, 2 * half))
        for _ in range(count):
            cm, _ = random_correlation(rng, half, half)
            rho = fs.gaussian_density_matrix(cm.matrix)
            s_l = fs.vn_entropy_dm(fs.partial_trace(rho, left, 2 * half))
            s_r = fs.vn_entropy_dm(fs.partial_trace(rho, right, 2 * half))
            s_a = fs.vn_entropy_dm(rho)
            rep = measures(cm, "vn", with_negativity=True)
            DIAGNOSTICS.append(rep.pairing_residual)
            worst = max(
                worst,
                abs(rep.mutual_info - (s_l + s_r - s_a)),
                abs(rep.coherent_info - (s_r - s_a)),
                abs(rep.negativity - fs.negativity_dm(rho, left, 2 * half)),
            )
    report(3, worst < 1e-8, f"60 Fock-space oracles (3 + 3 and 2 + 2 modes), worst MI/CI/negativity diff {worst:.2e} (tol 1e-8)")


def fig2_config(epsilon0):
    return ExperimentConfig(
        scenario="sweep-length",
        model="single_impurity",
        epsilon0=epsilon0,
        k_fl=K_FL,
        k_fr=K_FR,
        ell_min=20,
        ell_max=200,
        ell_step=10,
        measures=("mi", "ci", "negativity"),
        renyi_orders=("vn", 0.5),
        threads=4,
    )


def test_criterion_04_fig2_reproduction():
    t0 = time.time()
    worst_resid = worst_drift = 0.0
    for epsilon0 in (0.5, 1.0, 2.0):
        _, rows = run_sweep_length(fig2_config(epsilon0))
        for measure, order in (("mi", "vn"), ("ci", "vn"), ("negativity", "1")):
            fit = rows_of(rows, row_type="fit", measure=measure, order=order)[0]
            worst_resid = max(worst_resid, fit["residual_max"])
            worst_drift = max(worst_drift, abs(fit["offset_first_half"] - fit["offset_second_half"]))
    elapsed = time.time() - t0
    ok = worst_resid <= 0.05 and worst_drift < 0.05 and elapsed < 600.0
    report(
        4,
        ok,
        f"single-impurity length sweeps: max residual {worst_resid:.4f} (tol 0.05), "
        f"half-range offset drift {worst_drift:.4f} (tol 0.05), {elapsed:.0f}s < 600s",
    )


def test_criterion_05_closed_form_slopes():
    cfg = ExperimentConfig(
        scenario="sweep-length",
        model="constant",
        transmission=0.5,
        k_fl=K_FR + math.pi / 6,
        k_fr=K_FR,
        ell_min=20,
        ell_max=200,
        ell_step=10,
        measures=("mi", "ci", "negativity"),
        renyi_orders=("vn", 0.5),
        threads=4,
    )
    _, rows = run_sweep_length(cfg)
    mi_slope = rows_of(rows, row_type="fit", measure="mi", order="vn")[0]["slope_fitted"]
    mi_half_slope = rows_of(rows, row_type="fit", measure="mi", order="0.5")[0]["slope_fitted"]
    ci_slope = rows_of(rows, row_type="fit", measure="ci", order="vn")[0]["slope_fitted"]
    neg_slope = rows_of(rows, row_type="fit", measure="negativity")[0]["slope_fitted"]
    rel_mi = abs(mi_slope - math.log(2) / 6) / (math.log(2) / 6)
    rel_ci = abs(ci_slope - math.log(2) / 12) / (math.log(2) / 12)
    rel_neg = abs(neg_slope - 0.5 * mi_half_slope) / abs(0.5 * mi_half_slope)
    ok = rel_mi < 0.02 and rel_ci < 0.02 and rel_neg < 0.02
    report(
        5,
        ok,
        f"constant-T slopes: MI rel err {rel_mi:.4f}, CI rel err {rel_ci:.4f}, "
        f"negativity vs half order-1/2 MI rel err {rel_neg:.4f} (tol 0.02)",
    )


def test_criterion_06_symmetric_union_entropy_log_law():
    model = SingleImpurity(1.0)
    builder = CorrelationBuilder(model, BIAS)
    ells = [50, 80, 120, 180, 260, 400]
    s_a = []
    for ell in ells:
        cm = correlation_matrix_far(builder, SubsystemGeometry(0, ell, 0, ell))
        s_a.append(entropy(occupation_spectrum(cm)[0], "vn"))
    coef = float(np.polyfit(np.log(ells), s_a, 1)[0])
    rel = abs(coef - 2.0 / 3.0) / (2.0 / 3.0)
    report(6, rel < 0.07, f"union-entropy log coefficient {coef:.4f} vs 2/3, rel err {rel:.4f} (tol 0.07)")


def test_criterion_07_fig3_reproduction():
    cfg = ExperimentConfig(
        scenario="sweep-position",
        model="single_impurity",
        epsilon0=1.0,
        k_fl=K_FL,
        k_fr=K_FR,
        ell_l=100,
        ell_r=200,
        delta_min=-140,
        delta_max=240,
        delta_step=5,
        measures=("mi",),
        renyi_orders=("vn",),
        threads=4,
    )
    _, rows = run_sweep_position(cfg)
    fit = rows_of(rows, row_type="fit", measure="mi")[0]
    points = {row["delta"]: row for row in rows_of(rows, row_type="point", measure="mi")}
    model = SingleImpurity(1.0)
    predicted_gap = 100 * asy.volume_coefficient_mi(model, BIAS, "vn")
    gap = points[50]["numeric"] - points[-140]["numeric"]
    values = [points[d]["numeric"] for d in sorted(points)]
    imax = int(np.argmax(values))
    ok = (
        fit["residual_max"] <= 0.08
        and abs(gap - predicted_gap) <= 0.10 * predicted_gap
        and 0 < imax < len(values) - 1
    )
    report(
        7,
        ok,
        f"position sweep: global-fit max residual {fit['residual_max']:.4f} (tol 0.08), "
        f"plateau vs no-overlap gap {gap:.3f} vs predicted {predicted_gap:.3f}, interior maximum at index {imax}",
    )


def test_criterion_08_figS2_power_laws():
    t0 = time.time()
    exponents = {}
    for epsilon0 in (1.0, 2.0):
        cfg = ExperimentConfig(
            scenario="sweep-distance",
            model="single_impurity",
            epsilon0=epsilon0,
            k_fl=K_FL,
            k_fr=K_FR,
            ell=50,
            d_over_ell_min=2.0,
            d_over_ell_max=40.0,
            n_centers=24,
            measures=("mi", "negativity"),
            renyi_orders=("vn",),
            threads=4,
        )
        _, rows = run_sweep_distance(cfg)
        for row in rows_of(rows, row_type="fit"):
            exponents[(epsilon0, row["measure"], row["quantity"])] = row["exponent"]
    elapsed = time.time() - t0
    ok = elapsed < 900.0
    details = []
    for (eps, measure, quantity), value in exponents.items():
        target = -2.0 if quantity == "avg_deviation" else -1.0
        good = abs(value - target) <= 0.3
        ok = ok and good
        details.append(f"eps={eps} {measure}/{quantity}: {value:.2f}")
    report(8, ok, f"distance power laws ({'; '.join(details)}), {elapsed:.0f}s < 900s")


def test_criterion_09_order_one_continuity():
    rng = np.random.default_rng(99)
    h = 1e-4
    worst = 0.0
    for _ in range(20):
        model = SingleImpurity(float(rng.uniform(0.3, 3.0)))
        ks = np.sort(rng.uniform(0.4, math.pi - 0.4, size=2))
        bias = BiasState(float(ks[1]), float(ks[0]))
        ell = int(rng.integers(8, 25))
        delta = int(rng.integers(-4, 5))
        geom = SubsystemGeometry(max(0, delta), ell, max(0, -delta), ell)
        cm = correlation_matrix_far(CorrelationBuilder(model, bias), geom)
        spectra = undeflated.spectra(cm)
        reports = {order: report_from_spectra(spectra, order) for order in ("vn", 1 - h, 1 + h)}
        for field in ("mutual_info", "coherent_info"):
            vn = getattr(reports["vn"], field)
            central = 0.5 * (getattr(reports[1 - h], field) + getattr(reports[1 + h], field))
            worst = max(worst, abs(central - vn) / (1.0 + abs(vn)))
        pred_vn = asy.mi_prediction(model, bias, geom, "vn").total_minus_constant
        pred_c = 0.5 * (
            asy.mi_prediction(model, bias, geom, 1 - h).total_minus_constant
            + asy.mi_prediction(model, bias, geom, 1 + h).total_minus_constant
        )
        worst = max(worst, abs(pred_c - pred_vn) / (1.0 + abs(pred_vn)))
    report(9, worst < 1e-3, f"20 random points: worst relative vN vs order-(1 +/- 1e-4) gap {worst:.2e} (tol 1e-3)")


def test_criterion_10_cxi_reality():
    # representative grid spanning the acceptance workloads: far-limit sweeps,
    # finite-distance matrices, random states; the C_X spectrum is real by
    # construction, so what is bounded is its pairing residual
    # max |xi + (1 - xi) - 1|, which the negativity path also asserts on every
    # call, so criteria 3, 4 and 8 already ran under this check
    from nessent.correlation import correlation_matrix_finite

    worst = max(DIAGNOSTICS) if DIAGNOSTICS else 0.0
    rng = np.random.default_rng(1010)
    for epsilon0 in (0.5, 1.0, 2.0):
        model = SingleImpurity(epsilon0)
        for ell in (20, 60, 120):
            cm = correlation_matrix_far(CorrelationBuilder(model, BIAS), SubsystemGeometry(0, ell, 0, ell))
            rep = measures(cm, "vn", with_negativity=True)
            worst = max(worst, rep.pairing_residual)
    model = SingleImpurity(1.0)
    for d in (150, 600):
        cm = correlation_matrix_finite(CorrelationBuilder(model, BIAS), SubsystemGeometry(d, 30, d, 30))
        rep = measures(cm, "vn", with_negativity=True)
        worst = max(worst, rep.pairing_residual)
    for _ in range(10):
        cm, _ = random_correlation(rng, 3, 3)
        rep = measures(cm, "vn", with_negativity=True)
        worst = max(worst, rep.pairing_residual)
    report(10, worst < 1e-7, f"max C_X pairing residual across negativity spectra {worst:.2e} (tol 1e-7)")
