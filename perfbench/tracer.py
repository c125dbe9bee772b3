"""Span tracer for one nessent process, kept in the benchmark's own files.

The package is traced from outside: each public call the runners make is
wrapped where the caller looks the name up (``nessent.experiments``
imports ``occupation_spectrum`` by name, ``nessent.correlation`` imports
``integrate_oscillatory_batch`` by name, and so on), so rebinding the
module attribute puts a span around every call without touching ``src/``.

A span records its name, start, end and parent; counters measured at the
same boundary ride on the span.  Spans stay in memory and are written as
JSONL once the process ends.  The tracer keeps one stack of open spans, so
it is only valid for serial runs (``threads = 1``).
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
import types

import numpy as np

#: every span name the tracer can emit; a layer's ``self_s`` is reported for
#: each, so that the self times add up to the traced wall time
SPAN_NAMES = (
    "cli.main",
    "config.parse",
    "config.emit_csv",
    "experiments.run",
    "experiments.fit",
    "asymptotics.predict",
    "correlation.far",
    "correlation.finite",
    "correlation.prefetch",
    "numerics.quad",
    "numerics.quad_batch",
    "entanglement.spectrum",
    "entanglement.negativity",
    "numerics.eig_general",
    "numerics.mat_inverse",
)

_PREDICTIONS = ("mi_prediction", "ci_prediction", "negativity_prediction", "contiguous_entropy_prediction")


class Tracer:
    """In-memory spans of one serial process."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[dict] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1]["id"] if self._open else None
        rec = {"id": len(self.spans), "name": name, "parent": parent, "start": time.monotonic()}
        self.spans.append(rec)
        self._open.append(rec)
        try:
            yield rec
        except BaseException as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = time.monotonic()
            self._open.pop()

    def wrap(self, name: str, fn, counters=None):
        """fn with a span around each call; counters(args, result) -> dict."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if counters is not None:
                    rec.update(counters(args, result))
            return result

        return traced

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _points_emitted(rows) -> int:
    """Distinct sweep coordinates among the point rows a runner returned."""
    keys = {
        (row.get("ell"), row.get("delta"), row.get("dk"), row.get("d"))
        for row in rows
        if row.get("row_type") == "point"
    }
    return len(keys)


def install(tracer: Tracer) -> None:
    """Rebind the package's layer entry points to traced wrappers."""
    import nessent.asymptotics as asy
    import nessent.cli as cli
    import nessent.correlation as cor
    import nessent.entanglement as ent
    import nessent.experiments as ex

    wrap = tracer.wrap

    cli.parse_config = wrap("config.parse", cli.parse_config)
    cli.run_scenario = wrap(
        "experiments.run", cli.run_scenario, lambda a, out: {"points": _points_emitted(out[1])}
    )
    cli.emit_csv = wrap("config.emit_csv", cli.emit_csv, lambda a, out: {"bytes": os.path.getsize(a[1])})
    ex._fit_rows = wrap("experiments.fit", ex._fit_rows)

    # a copy of the module namespace, so that predictions calling each other
    # inside asymptotics are not counted twice
    namespace = types.SimpleNamespace(**vars(asy))
    for fname in _PREDICTIONS:
        setattr(namespace, fname, wrap("asymptotics.predict", getattr(asy, fname)))
    ex.asy = namespace

    def entries(args, cmat):
        return {"entries": cmat.dim * cmat.dim}

    ex.correlation_matrix_far = wrap("correlation.far", ex.correlation_matrix_far, entries)
    ex.correlation_matrix_finite = wrap("correlation.finite", ex.correlation_matrix_finite, entries)
    cor.integrate_oscillatory = wrap("numerics.quad", cor.integrate_oscillatory)

    batch = cor.integrate_oscillatory_batch

    @functools.wraps(batch)
    def quad_batch(f_smooth, phase_rates, *args, **kwargs):
        with tracer.span("numerics.quad_batch") as rec:
            rec["rates"] = len(phase_rates)
            rec["nodes"] = 0

            def counted(k):
                rec["nodes"] += int(np.size(k))
                return f_smooth(k)

            return batch(counted, phase_rates, *args, **kwargs)

    cor.integrate_oscillatory_batch = quad_batch
    cor.CorrelationBuilder.prefetch = wrap(
        "correlation.prefetch", cor.CorrelationBuilder.prefetch, lambda a, out: {"terms": len(a[1])}
    )

    def spectrum_counts(args, out):
        nu, clamped = out
        return {"n3": int(nu.size) ** 3, "clamped": int(clamped)}

    spectrum = wrap("entanglement.spectrum", ent.occupation_spectrum, spectrum_counts)
    ex.occupation_spectrum = spectrum
    ent.occupation_spectrum = spectrum
    ex.fermionic_negativity = wrap("entanglement.negativity", ex.fermionic_negativity)
    ent.eig_general = wrap(
        "numerics.eig_general",
        ent.eig_general,
        lambda a, xi: {"max_imag": float(np.abs(xi.imag).max()) if xi.size else 0.0},
    )
    ent.mat_inverse = wrap("numerics.mat_inverse", ent.mat_inverse)


def summarize(processes: list[list[dict]]) -> dict[str, dict]:
    """Per span name, over the spans of several processes: calls, self time
    (duration minus child durations) and summed counters.  ``max_imag`` is
    a maximum, not a sum."""
    out: dict[str, dict] = {name: {"calls": 0, "self_s": 0.0} for name in SPAN_NAMES}
    for spans in processes:
        child_time: dict[int, float] = {}
        for rec in spans:
            if rec["parent"] is not None:
                child_time[rec["parent"]] = child_time.get(rec["parent"], 0.0) + rec["end"] - rec["start"]
        for rec in spans:
            agg = out.setdefault(rec["name"], {"calls": 0, "self_s": 0.0})
            agg["calls"] += 1
            agg["self_s"] += rec["end"] - rec["start"] - child_time.get(rec["id"], 0.0)
            for key, value in rec.items():
                if key in ("id", "name", "parent", "start", "end", "error"):
                    continue
                if key == "max_imag":
                    agg[key] = max(agg.get(key, 0.0), value)
                else:
                    agg[key] = agg.get(key, 0) + value
    return out
