"""Benchmark of nessent's acceptance workloads, measured through the CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fig2-length --seed 0 --seconds 10 --trace 0

Workloads (see workloads.py): ``fig2-length``, ``fig3-position`` and
``figS2-distance``.  One repetition runs each sweep of the workload as a
fresh ``nessent`` process with ``threads = 1`` and BLAS pinned to one
thread, because every CLI run starts with empty caches.  Repetitions start
until ``--seconds`` have passed (at least one runs).  Then:

* set-up time (spawn to runner entry) is sampled from every process, plus
  set-up-only processes until there are enough samples for a median;
* every serial CSV is checked (checks.py), its SHA-256 must repeat across
  the repetitions and across invocations of the same seed and sources;
* with ``--trace 1`` one more serial repetition runs with the tracer
  (tracer.py) and the per-layer metrics come from its spans; its CSV must
  match the untraced one.  The workload then runs once at ``threads = 2``
  and the rows that differ from the serial CSV are counted
  (``experiments.thread_divergent_rows``).

The last line of standard output is the JSON result; the line before it
holds the environment, the raw accuracy figures and per-sweep details.
Metric names and units are read from BENCHMARK.json at the checkout root.
Exit status is 0 when a result was printed, even if a check failed
(``"correct": false``); it is non-zero when no measurement was possible.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

#: the run must finish well inside the 180 s a run may take
DEADLINE_S = 170.0
#: set-up samples per run, topped up with set-up-only processes
SETUP_SAMPLES = 9
PROBE_THREADS = 2
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark could not measure at all."""


@dataclass
class Proc:
    """One finished child process."""

    wall_s: float
    setup_s: float | None
    rss_mb: float | None
    error: str | None
    csv: str | None = None
    spans: list = field(default_factory=list)
    import_s: float = 0.0


class Runner:
    def __init__(self, work: Path, env: dict, deadline: float):
        self.work = work
        self.env = env
        self.deadline = deadline
        self.count = 0

    def run(self, sweep, threads: int, trace: bool = False, setup_only: bool = False) -> Proc:
        self.count += 1
        tag = f"{self.count:03d}"
        sidecar = self.work / f"{tag}.json"
        out = self.work / f"{tag}-{sweep.label}.csv"
        spans_path = self.work / f"{tag}-{sweep.label}.spans.jsonl"
        cmd = [sys.executable, str(HERE / "child.py"), "--sidecar", str(sidecar)]
        if trace:
            cmd += ["--trace", str(spans_path)]
        if setup_only:
            cmd.append("--setup-only")
        cmd += ["--", sweep.scenario, "--config", str(self.work / f"{sweep.label}.cfg"),
                "--out", str(out), "--threads", str(threads)]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before starting a process")
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, env=self.env, cwd=self.work, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True)
        try:
            _, stderr = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{sweep.label} did not finish within the run's time limit")
        wall = time.monotonic() - t_spawn
        if not sidecar.is_file():
            return Proc(wall, None, None, f"no sidecar, exit {proc.returncode}: {stderr.strip()[-300:]}")
        side = json.loads(sidecar.read_text())
        sidecar.unlink()
        error = None
        if proc.returncode != 0:
            lines = stderr.strip().splitlines()
            error = lines[-1] if lines else f"exit {proc.returncode}"
        setup = side["t_entry"] - t_spawn if "t_entry" in side else None
        result = Proc(wall, setup, side["maxrss_kb"] / 1024.0, error, import_s=side["t_main"] - t_spawn)
        if not setup_only and error is None:
            # bytes as written: text mode would translate line endings
            result.csv = out.read_bytes().decode("utf-8")
            out.unlink()
        if trace and spans_path.is_file():
            with open(spans_path, encoding="utf-8") as fh:
                result.spans = [json.loads(line) for line in fh]
        return result

    def rep(self, sweeps, threads: int, trace: bool = False) -> list[Proc]:
        return [self.run(s, threads, trace) for s in sweeps]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "nessent").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    return done.stdout.strip() or None


def environment(seed: int, digest: str) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        vendor = "unknown"
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "blas": vendor,
        "blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"],
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "seed": seed,
        "git_commit": git_commit(),
        "src_sha256": digest,
    }


def check_registry(key: str, hashes: dict[str, str]) -> list[str]:
    """Compare the serial CSV hashes with earlier runs of the same seed and
    sources, and record them for later runs."""
    path = WORK / "hashes.json"
    registry = json.loads(path.read_text()) if path.is_file() else {}
    known = registry.get(key, {})
    problems = [
        f"serial CSV of {label} hashes to {sha[:12]}, an earlier run of this seed gave {known[label][:12]}"
        for label, sha in hashes.items()
        if label in known and known[label] != sha
    ]
    registry[key] = {**known, **hashes}
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(registry, indent=1, sort_keys=True))
    tmp.replace(path)
    return problems


def layer_metrics(traced: list[Proc]) -> dict[str, float]:
    import tracer

    s = tracer.summarize([proc.spans for proc in traced])
    m: dict[str, float] = {f"{name}.self_s": s[name]["self_s"] for name in tracer.SPAN_NAMES}
    rates = s["numerics.quad_batch"].get("rates", 0)
    terms = s["correlation.prefetch"].get("terms", 0)
    matrices = s["correlation.far"]["calls"] + s["correlation.finite"]["calls"]
    m.update({
        "numerics.quad_batch.calls": s["numerics.quad_batch"]["calls"],
        "numerics.quad_batch.rates": rates,
        "numerics.quad_batch.nodes": s["numerics.quad_batch"].get("nodes", 0),
        "numerics.quad.calls": s["numerics.quad"]["calls"],
        "correlation.finite.entries": s["correlation.finite"].get("entries", 0),
        "correlation.far.entries": s["correlation.far"].get("entries", 0),
        "correlation.prefetch.terms": terms,
        "correlation.term_reuse": terms / rates if rates else 0.0,
        "numerics.eig_general.calls": s["numerics.eig_general"]["calls"],
        "entanglement.spectrum.calls": s["entanglement.spectrum"]["calls"],
        "entanglement.spectrum.n3": s["entanglement.spectrum"].get("n3", 0),
        "entanglement.spectrum.clamped": s["entanglement.spectrum"].get("clamped", 0),
        "entanglement.cx_max_imag": s["numerics.eig_general"].get("max_imag", 0.0),
        "asymptotics.predict.calls": s["asymptotics.predict"]["calls"],
        "config.emit_csv.bytes": s["config.emit_csv"].get("bytes", 0),
        "experiments.useful_ratio": s["experiments.run"].get("points", 0) / matrices if matrices else 0.0,
    })
    wall = sum(p.wall_s for p in traced)
    imports = sum(p.import_s for p in traced)
    m["trace.wall_s"] = wall
    m["trace.import_s"] = imports
    m["trace.accounted_share"] = (sum(v["self_s"] for v in s.values()) + imports) / wall
    return m


def measure(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    t0 = time.monotonic()
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    import checks

    sweeps = WORKLOADS[workload](seed)
    run_dir = WORK / f"{workload}-seed{seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    for sweep in sweeps:
        (run_dir / f"{sweep.label}.cfg").write_text(sweep.config, encoding="utf-8")
    env = {**os.environ, **BLAS_ENV, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    env.pop("NESSENT_THREADS", None)
    runner = Runner(run_dir, env, t0 + DEADLINE_S)

    # the first process in a fresh checkout compiles the bytecode; a user
    # pays that once, so it is not a sample
    runner.run(sweeps[0], 1, setup_only=True)

    reps: list[list[Proc]] = []
    started = time.monotonic()
    while not reps or time.monotonic() - started < seconds:
        reps.append(runner.rep(sweeps, 1))

    failures: list[str] = []
    attempted = failed = 0
    serial_csv: dict[str, str] = {}
    for rep in reps:
        for sweep, proc in zip(sweeps, rep):
            attempted += sweep.points
            if proc.error is not None:
                failed += sweep.points
                failures.append(f"{sweep.label}: {proc.error}")
                continue
            first = serial_csv.setdefault(sweep.label, proc.csv)
            if proc.csv != first:
                failures.append(f"{sweep.label}: serial CSV bytes differ between repetitions")

    setups = [p.setup_s for rep in reps for p in rep if p.setup_s is not None]
    traced: list[Proc] = []
    probe: list[Proc | None] = [None] * len(sweeps)
    if trace:
        traced = runner.rep(sweeps, 1, trace=True)
        # the thread probe costs as much as a repetition, so it runs where
        # its count is reported: in the traced run's per-layer metrics
        probe = runner.rep(sweeps, PROBE_THREADS)
        setups += [p.setup_s for p in probe if p.setup_s is not None]
    while len(setups) < SETUP_SAMPLES:
        sample = runner.run(sweeps[len(setups) % len(sweeps)], 1, setup_only=True)
        if sample.setup_s is None:
            failures.append(f"set-up sample failed: {sample.error}")
            break
        setups.append(sample.setup_s)

    details = []
    shares: list[float] = []
    figures: dict[str, float] = {}
    divergent = 0
    for i, sweep in enumerate(sweeps):
        detail = {"label": sweep.label, "epsilon0": sweep.epsilon0, "points": sweep.points,
                  "wall_s": [rep[i].wall_s for rep in reps]}
        details.append(detail)
        serial = serial_csv.get(sweep.label)
        if serial is None:
            continue
        detail["sha256"] = _sha(serial)
        check = checks.check_sweep(sweep, serial)
        failures += [f"{sweep.label}: {msg}" for msg in check.failures]
        shares += check.shares
        detail["figures"] = check.figures
        for name, value in check.figures.items():
            figures[name] = max(figures.get(name, value), value)
        if traced and traced[i].error is not None:
            failures.append(f"{sweep.label} traced: {traced[i].error}")
        elif traced and traced[i].csv != serial:
            failures.append(f"{sweep.label}: traced CSV differs from the serial CSV")
        if probe[i] is not None and probe[i].error is not None:
            failures.append(f"{sweep.label} at threads={PROBE_THREADS}: {probe[i].error}")
        elif probe[i] is not None:
            detail["thread_divergent_rows"] = checks.diverging_rows(serial, probe[i].csv)
            divergent += detail["thread_divergent_rows"]

    digest = source_digest()
    failures += check_registry(f"{workload}/seed{seed}/src{digest[:16]}",
                               {d["label"]: d["sha256"] for d in details if "sha256" in d})

    walls = [sum(p.wall_s for p in rep) for rep in reps]
    rss = [max(p.rss_mb or 0.0 for p in rep) for rep in reps]
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
        "ok_share": 1.0 - failed / attempted,
        "acceptance_use_max": max(shares, default=0.0),
    }
    if trace:
        metrics = layer_metrics(traced)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(walls)
        metrics["experiments.thread_divergent_rows"] = divergent

    report = {
        "workload": workload,
        "env": environment(seed, digest),
        "repetitions": len(reps),
        "rep_wall_s": walls,
        "setup_samples_s": setups,
        "thread_divergent_rows": divergent if trace else None,
        "accuracy": figures,
        "sweeps": details,
        "failures": failures,
        "elapsed_s": time.monotonic() - t0,
    }
    result = {"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}
    return report, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        if not (SRC / "nessent" / "cli.py").is_file():
            raise BenchError(f"no nessent sources under {SRC}; run from the root of a checkout")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        declared = spec["per_layer"] if args.trace else spec["end_to_end"]
        units = {m["name"]: m["unit"] for m in declared}
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        report, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    measured = result["metrics"]
    if set(measured) != set(units):
        print(f"perfbench: metrics {sorted(set(measured) ^ set(units))} not matched in BENCHMARK.json",
              file=sys.stderr)
        return 2
    result["metrics"] = {name: {"value": measured[name], "unit": units[name]} for name in units}
    (WORK / f"{args.workload}-seed{args.seed}" / "result.json").write_text(
        json.dumps({"report": report, "result": result}, indent=1))
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
