"""The layer entry points perfbench/tracer.py rebinds must stay where it
looks them up, and tracing must leave the CSV bytes unchanged."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CONFIG = """scenario = sweep-length
model = single_impurity
epsilon0 = 1.0
k_fl = 2*pi/3
k_fr = pi/2
ell_min = 6
ell_max = 14
ell_step = 4
measures = mi, ci, negativity
renyi_orders = vn
"""

# l = 4 at the three distances 8, 9 and 10: a far matrix and three finite ones
DISTANCE_CONFIG = """scenario = sweep-distance
model = single_impurity
epsilon0 = 1.0
k_fl = 2*pi/3
k_fr = pi/2
ell = 4
d_over_ell_min = 2
d_over_ell_max = 2
n_centers = 1
window = 3
measures = mi, negativity
"""

# a fresh interpreter, because install() rebinds module attributes for good
TRACED_RUN = """
import json, sys
sys.dont_write_bytecode = True  # leave no cache files in perfbench/
sys.path[:0] = [{src!r}, {perfbench!r}]
import tracer as tracing
import nessent.cli as cli
tracer = tracing.Tracer()
tracing.install(tracer)
rc = cli.main([{scenario!r}, "--config", {config!r}, "--out", {out!r}, "--threads", "1"])
print(json.dumps({{"rc": rc, "spans": [rec["name"] for rec in tracer.spans]}}))
"""

SPANS = (
    "entanglement.spectrum",
    "entanglement.negativity",
    "experiments.fit",
    "asymptotics.predict",
    "correlation.far",
    "correlation.prefetch",
)


def traced_spans(tmp_path, scenario, config_text):
    """Names of the spans a traced run opened, after checking that its CSV
    equals the untraced run's bytes."""
    from nessent.cli import main

    config = tmp_path / "run.cfg"
    config.write_text(config_text)
    plain, traced = tmp_path / "plain.csv", tmp_path / "traced.csv"
    assert main([scenario, "--config", str(config), "--out", str(plain), "--threads", "1"]) == 0
    script = TRACED_RUN.format(
        src=str(ROOT / "src"), perfbench=str(ROOT / "perfbench"), scenario=scenario, config=str(config),
        out=str(traced),
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["rc"] == 0
    assert traced.read_bytes() == plain.read_bytes()
    return result["spans"]


def test_traced_run_keeps_csv_bytes_and_opens_layer_spans(tmp_path):
    spans = traced_spans(tmp_path, "sweep-length", CONFIG)
    for name in SPANS:
        assert spans.count(name) >= 1, f"span {name} never opened"


def test_traced_distance_sweep_keeps_csv_bytes_and_opens_finite_spans(tmp_path):
    spans = traced_spans(tmp_path, "sweep-distance", DISTANCE_CONFIG)
    assert spans.count("correlation.finite") == 3
    assert spans.count("correlation.far") == 1
    for name in ("correlation.prefetch", "entanglement.negativity"):
        assert spans.count(name) >= 1, f"span {name} never opened"
