import numpy as np
import pytest

from fockspace import annihilation_operators, gaussian_density_matrix
from nessent.cli import main
from nessent.config import ExperimentConfig
from nessent.correlation import CorrelationMatrix

TINY_CONFIG = """
scenario = sweep-length
model = constant
transmission = 0.5
k_fl = pi/2 + pi/6
k_fr = pi/2
ell_min = 8
ell_max = 20
ell_step = 4
measures = mi
renyi_orders = vn
"""


def test_cli_sweep_and_determinism(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_CONFIG)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["sweep-length", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["sweep-length", "--config", str(cfg), "--out", str(out2), "--threads", "3"]) == 0
    data = out1.read_bytes()
    assert data == out2.read_bytes()
    header = data.splitlines()[0].decode()
    assert header.startswith("row_type,")
    assert b"\r" not in data


def test_cli_error_is_machine_readable(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("scenario = sweep-length\nk_fl = 1.0\nk_fr = 0.9\nell_max = 40\n")
    code = main(["sweep-length", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error kind=ParseError message=")
    assert "ell_min" in err


def test_cli_numerical_failure_names_sweep_point(tmp_path, capsys, monkeypatch):
    # a transmission of 9 puts the far blocks' occupations outside [0, 1]
    from test_experiments import Overfull

    monkeypatch.setattr(ExperimentConfig, "build_model", lambda self: Overfull())
    cfg = tmp_path / "overfull.cfg"
    cfg.write_text(TINY_CONFIG)
    assert main(["sweep-length", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith('error kind=SpectrumError message="ell=8: correlation eigenvalue ')
    assert err.count("\n") == 1
    cfg.write_text(TINY_CONFIG.replace("sweep-length", "sweep-bias") + "dk_list = pi/6\n")
    assert main(["sweep-bias", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
    assert 'message="dk=0.523598775598: ell=8: correlation eigenvalue' in capsys.readouterr().err


def test_cli_finite_sweep_numerical_failure_names_distance(tmp_path, capsys, monkeypatch):
    # the far limit and d = 160 solve; the matrix of d = 161 leaves [0, 1]
    import nessent.experiments as ex
    from test_experiments import _overfilled

    monkeypatch.setattr(ex, "correlation_matrix_finite", _overfilled(ex.correlation_matrix_finite, {161}))
    cfg = tmp_path / "overfilled.cfg"
    cfg.write_text(
        "scenario = sweep-distance\nmodel = single_impurity\nepsilon0 = 1\n"
        "k_fl = 2*pi/3\nk_fr = pi/2\nell = 8\nd_over_ell_min = 20\nd_over_ell_max = 30\n"
        "n_centers = 2\nwindow = 3\nfit_min_d_over_ell = 20\nmeasures = mi\nrenyi_orders = vn\n"
    )
    assert main(["sweep-distance", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith('error kind=SpectrumError message="d=161: correlation eigenvalue ')
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "flags, named",
    [(["--config", "CFG", "--out", "x.csv"], "--config"), (["--out", "x.csv"], "--out"), (["--threads", "2"], "--threads")],
)
def test_cli_selftest_rejects_the_flags_it_does_not_take(tmp_path, capsys, flags, named):
    # a config with an unknown key, which every other scenario rejects
    cfg = tmp_path / "c.cfg"
    cfg.write_text("scenario = selftest\nno_such_key = 1\n")
    argv = ["selftest"] + [str(cfg) if flag == "CFG" else str(tmp_path / flag) if flag == "x.csv" else flag for flag in flags]
    assert main(argv) == 1
    assert capsys.readouterr().err == f'error kind=ParseError message="selftest takes no {named}"\n'
    assert not (tmp_path / "x.csv").exists()


def test_cli_requires_config(capsys):
    assert main(["sweep-length"]) == 1
    assert "error kind=ParseError" in capsys.readouterr().err


def test_cli_requires_out(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_CONFIG)
    assert main(["sweep-length", "--config", str(cfg)]) == 1
    assert "error kind=ParseError" in capsys.readouterr().err


def test_cli_scenario_mismatch(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_CONFIG)
    assert main(["sweep-position", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
    assert "mismatch" in capsys.readouterr().err


def test_cli_eval_asymptotics(tmp_path):
    cfg = tmp_path / "eval.cfg"
    cfg.write_text(
        "scenario = eval-asymptotics\nmodel = single_impurity\nepsilon0 = 1\n"
        "k_fl = 2*pi/3\nk_fr = pi/2\nell_l = 40\nell_r = 60\nd_l = 3\nd_r = 0\n"
        "measures = mi, negativity\nrenyi_orders = vn\n"
    )
    out = tmp_path / "eval.csv"
    assert main(["eval-asymptotics", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("measure,")
    assert len(lines) >= 3


def test_cli_repo_sample_config_deterministic(tmp_path):
    # the shipped length-sweep config, shortened to keep the test quick,
    # produces byte-identical CSVs across runs
    sample = open("configs/fig2_impurity.cfg", encoding="utf-8").read()
    fast = sample.replace("ell_max = 200", "ell_max = 60")
    cfg = tmp_path / "fig2.cfg"
    cfg.write_text(fast)
    outs = []
    for name in ("r1.csv", "r2.csv"):
        out = tmp_path / name
        assert main(["sweep-length", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "config_line, flag, threads", [("", [], 1), ("threads = 3", [], 3), ("threads = 3", ["--threads", "2"], 2)]
)
def test_thread_count_is_flag_then_config_then_one(tmp_path, monkeypatch, config_line, flag, threads):
    import nessent.cli

    seen = []
    monkeypatch.setattr(nessent.cli, "run_scenario", lambda config: seen.append(config.threads) or ([], []))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{TINY_CONFIG}{config_line}\n")
    assert main(["sweep-length", "--config", str(cfg), "--out", str(tmp_path / "x.csv"), *flag]) == 0
    assert seen == [threads]


def test_selftest_scenario_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "PASS smatrix_unitarity_grid" in out
    assert "FAIL" not in out


# sanity of the oracle helpers the acceptance suite leans on


def test_fock_operators_satisfy_algebra():
    n = 3
    cs = annihilation_operators(n)
    eye = np.eye(2**n)
    for j in range(n):
        for m in range(n):
            anti = cs[j] @ cs[m].conj().T + cs[m].conj().T @ cs[j]
            assert np.abs(anti - (eye if j == m else 0)).max() < 1e-13
            assert np.abs(cs[j] @ cs[m] + cs[m] @ cs[j]).max() < 1e-13


def test_gaussian_density_matrix_reproduces_correlations():
    rng = np.random.default_rng(7)
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    _, u = np.linalg.eigh(0.5 * (h + h.conj().T))
    nu = rng.uniform(0.05, 0.95, size=4)
    c = (u * nu) @ u.conj().T
    rho = gaussian_density_matrix(c)
    assert abs(np.trace(rho).real - 1.0) < 1e-12
    cs = annihilation_operators(4)
    for j in range(4):
        for m in range(4):
            val = np.trace(rho @ cs[j].conj().T @ cs[m])
            assert abs(val - c[j, m]) < 1e-12


@pytest.mark.parametrize("value", ["0", "-5"])
def test_threads_flag_below_one_is_a_parse_error(tmp_path, capsys, value):
    # as threads = 0 in a config file is; no clamping to 1
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_CONFIG)
    out = tmp_path / "x.csv"
    assert main(["sweep-length", "--config", str(cfg), "--out", str(out), "--threads", value]) == 1
    err = capsys.readouterr().err
    assert err == f'error kind=ParseError message="--threads must be at least 1, got {value}"\n'
    assert not out.exists()
