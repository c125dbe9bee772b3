"""Experiment configuration files and CSV output.

Config files are flat UTF-8 ``key = value`` text, a leading byte order mark
allowed; ``#`` starts a comment.
Momenta accept simple arithmetic in ``pi`` (for example ``2*pi/3``), list
values are comma separated.  Unknown keys are rejected so typos surface
immediately.  CSV output uses a header row, 12 significant digits for floats
and LF line endings; identical configs produce byte-identical files.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass, fields
from typing import Any

from .entanglement import renyi_index
from .scattering import BiasState, ConstantTransmission, ScatteringModel, SingleImpurity, TrivialScatterer

__all__ = ["ParseError", "ExperimentConfig", "parse_config", "parse_config_text", "emit_csv", "format_value"]

SCENARIOS = (
    "sweep-length",
    "sweep-position",
    "sweep-bias",
    "sweep-distance",
    "eval-asymptotics",
    "selftest",
)

MEASURES = ("mi", "ci", "negativity", "entropy")


class ParseError(ValueError):
    """Malformed or incomplete configuration."""


def _eval_number(text: str, where: str) -> float:
    """A finite number written as an expression in + - * / and the constant
    pi; ``1e400`` or ``1e308*10`` would be inf, and is rejected here, naming
    the key, before any runner reads it."""
    value = _eval_expr(text, where)
    if not math.isfinite(value):
        raise ParseError(f"{where}: must be a finite number, got {text!r}")
    return value


def _eval_expr(text: str, where: str) -> float:
    """Evaluate a numeric expression limited to + - * / and the constant pi."""
    try:
        node = ast.parse(text, mode="eval").body
    except SyntaxError as exc:
        raise ParseError(f"{where}: cannot parse number {text!r}") from exc

    def ev(e) -> float:
        # bool is an int subclass, so True and False are rejected by name
        if isinstance(e, ast.Constant) and isinstance(e.value, (int, float)) and not isinstance(e.value, bool):
            try:
                return float(e.value)
            except OverflowError:  # an int literal beyond the float range
                raise ParseError(f"{where}: must be a finite number, got {text!r}") from None
        if isinstance(e, ast.Name) and e.id == "pi":
            return math.pi
        if isinstance(e, ast.UnaryOp) and isinstance(e.op, (ast.UAdd, ast.USub)):
            v = ev(e.operand)
            return v if isinstance(e.op, ast.UAdd) else -v
        if isinstance(e, ast.BinOp) and isinstance(e.op, (ast.Add, ast.Sub, ast.Mult, ast.Div)):
            a, b = ev(e.left), ev(e.right)
            if isinstance(e.op, ast.Add):
                return a + b
            if isinstance(e.op, ast.Sub):
                return a - b
            if isinstance(e.op, ast.Mult):
                return a * b
            if b == 0.0:
                raise ParseError(f"{where}: division by zero in {text!r}")
            return a / b
        raise ParseError(f"{where}: unsupported expression {text!r}")

    return ev(node)


def order_label(order) -> str:
    """How an entropy order is written in the CSV; order 1 is von Neumann."""
    return "vn" if renyi_index(order) == 1.0 else format(float(order), "g")


def _eval_int(text: str, where: str) -> int:
    value = _eval_number(text, where)
    if not value.is_integer():
        raise ParseError(f"{where}: expected an integer, got {text!r}")
    return int(value)


@dataclass
class ExperimentConfig:
    scenario: str
    model: str = "single_impurity"
    epsilon0: float = 1.0
    eta: float = 1.0
    transmission: float = 0.5
    k_fl: float = 2.0 * math.pi / 3.0
    k_fr: float = math.pi / 2.0
    measures: tuple[str, ...] = ("mi", "ci", "negativity")
    renyi_orders: tuple[Any, ...] = ("vn",)
    out: str | None = None
    threads: int = 1
    abs_tol: float | None = None
    max_panels: int | None = None
    # sweep-length / sweep-bias
    ell_min: int = 20
    ell_max: int = 200
    ell_step: int = 10
    # sweep-position / eval-asymptotics
    ell_l: int = 100
    ell_r: int = 200
    d_l: int = 0
    d_r: int = 0
    delta_min: int = -150
    delta_max: int = 250
    delta_step: int = 5
    # sweep-bias
    dk_list: tuple[float, ...] = ()
    # sweep-distance
    ell: int = 50
    d_over_ell_min: float = 2.0
    d_over_ell_max: float = 40.0
    n_centers: int = 24
    window: int | str = "auto"
    fit_min_d_over_ell: float = 4.0

    def build_model(self) -> ScatteringModel:
        if self.model == "single_impurity":
            return SingleImpurity(self.epsilon0, self.eta)
        if self.model == "constant":
            return ConstantTransmission(self.transmission)
        if self.model == "trivial":
            return TrivialScatterer()
        raise ParseError(f"unknown model {self.model!r}")

    def build_bias(self) -> BiasState:
        try:
            return BiasState(self.k_fl, self.k_fr)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc


#: every config key is an ExperimentConfig field, parsed by its declared
#: type unless parse_config_text names it
_KEY_TYPES = {f.name: f.type.removesuffix(" | None") for f in fields(ExperimentConfig)}

_REQUIRED: dict[str, tuple[str, ...]] = {
    "sweep-length": ("k_fl", "k_fr", "ell_min", "ell_max"),
    "sweep-position": ("k_fl", "k_fr", "ell_l", "ell_r", "delta_min", "delta_max"),
    "sweep-bias": ("k_fr", "dk_list", "ell_min", "ell_max"),
    "sweep-distance": ("k_fl", "k_fr", "ell", "d_over_ell_min", "d_over_ell_max"),
    "eval-asymptotics": ("k_fl", "k_fr", "ell_l", "ell_r", "d_l", "d_r"),
    "selftest": (),
}

#: the range of each key a config file sets, checked at parse time so that a
#: bad value fails here, naming its key, and not inside a runner; the momenta
#: come before dk_list, so that a bad k_fr is not blamed on dk_list
_RANGES = {
    "k_fl": ("in (0, pi)", lambda c: 0.0 < c.k_fl < math.pi),
    "k_fr": ("in (0, pi)", lambda c: 0.0 < c.k_fr < math.pi),
    "eta": ("positive", lambda c: c.eta > 0),
    "transmission": ("in [0, 1]", lambda c: 0.0 <= c.transmission <= 1.0),
    "abs_tol": ("positive", lambda c: c.abs_tol > 0),
    "max_panels": ("at least 1", lambda c: c.max_panels >= 1),
    "threads": ("at least 1", lambda c: c.threads >= 1),
    "ell_min": ("at least 1", lambda c: c.ell_min >= 1),
    "ell_max": ("at least ell_min", lambda c: c.ell_max >= c.ell_min),
    "ell_step": ("at least 1", lambda c: c.ell_step >= 1),
    "ell_l": ("at least 1", lambda c: c.ell_l >= 1),
    "ell_r": ("at least 1", lambda c: c.ell_r >= 1),
    "d_l": ("non-negative", lambda c: c.d_l >= 0),
    "d_r": ("non-negative", lambda c: c.d_r >= 0),
    "delta_max": ("at least delta_min", lambda c: c.delta_max >= c.delta_min),
    "delta_step": ("at least 1", lambda c: c.delta_step >= 1),
    "dk_list": ("a non-empty list with every k_fr + dk in (0, pi)",
                lambda c: len(c.dk_list) > 0 and all(0.0 < c.k_fr + dk < math.pi for dk in c.dk_list)),
    # constant-T amplitudes give no valid finite-distance state (C exceeds I)
    "model": ("single_impurity, constant or trivial, and single_impurity or trivial for sweep-distance",
              lambda c: c.model in ("single_impurity", "trivial")
              or (c.model == "constant" and c.scenario != "sweep-distance")),
    # sweep-distance computes von Neumann MI and the negativity only
    "measures": ("non-empty, and mi or negativity for sweep-distance",
                 lambda c: len(c.measures) > 0
                 and (c.scenario != "sweep-distance" or set(c.measures) <= {"mi", "negativity"})),
    "renyi_orders": ("non-empty, and vn for sweep-distance",
                     lambda c: len(c.renyi_orders) > 0
                     and (c.scenario != "sweep-distance" or all(renyi_index(o) == 1.0 for o in c.renyi_orders))),
    "ell": ("at least 1", lambda c: c.ell >= 1),
    "d_over_ell_min": ("such that d_over_ell_min * ell rounds to at least 1",
                       lambda c: round(c.d_over_ell_min * c.ell) >= 1),
    "d_over_ell_max": ("at least d_over_ell_min", lambda c: c.d_over_ell_max >= c.d_over_ell_min),
    "n_centers": ("at least 1", lambda c: c.n_centers >= 1),
    "window": ("'auto' or at least 3", lambda c: c.window == "auto" or c.window >= 3),
}


def parse_config_text(text: str, scenario: str | None = None) -> ExperimentConfig:
    pairs: dict[str, str] = {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value', got {rawline!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEY_TYPES:
            raise ParseError(f"line {lineno}: unknown key {key!r}")
        if key in pairs:
            raise ParseError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = value

    cfg_scenario = pairs.pop("scenario", None)
    if scenario is None:
        scenario = cfg_scenario
    elif cfg_scenario is not None and cfg_scenario != scenario:
        raise ParseError(f"scenario mismatch: config says {cfg_scenario!r}, requested {scenario!r}")
    if scenario is None:
        raise ParseError("missing required key 'scenario'")
    if scenario not in SCENARIOS:
        raise ParseError(f"unknown scenario {scenario!r}")

    cfg = ExperimentConfig(scenario=scenario)
    for key, value in pairs.items():
        where = f"key {key!r}"
        if key == "dk_list":
            cfg.dk_list = tuple(_eval_number(part.strip(), where) for part in value.split(",") if part.strip())
        elif key == "measures":
            items = tuple(part.strip() for part in value.split(",") if part.strip())
            for index, item in enumerate(items):
                if item not in MEASURES:
                    raise ParseError(f"{where}: unknown measure {item!r}")
                # a repeated measure would write every point twice and fit the doubled series
                if item in items[:index]:
                    raise ParseError(f"{where}: duplicate measure {item!r}")
            cfg.measures = items
        elif key == "renyi_orders":
            orders: dict[str, Any] = {}
            for part in value.split(","):
                part = part.strip()
                if not part:
                    continue
                # renyi_index rejects a non-finite order with the rule it breaks
                order = "vn" if part == "vn" else _eval_expr(part, where)
                try:
                    renyi_index(order)
                except ValueError as exc:
                    raise ParseError(f"{where}: {exc}") from exc
                # two orders with one CSV label would merge into one series
                label = order_label(order)
                if label in orders:
                    raise ParseError(f"{where}: duplicate order {part!r} (CSV label {label!r})")
                orders[label] = order
            cfg.renyi_orders = tuple(orders.values())
        elif key == "window":
            cfg.window = value if value == "auto" else _eval_int(value, where)
        elif _KEY_TYPES[key] == "int":
            setattr(cfg, key, _eval_int(value, where))
        elif _KEY_TYPES[key] == "float":
            setattr(cfg, key, _eval_number(value, where))
        else:
            setattr(cfg, key, value)

    for key in _REQUIRED[scenario]:
        if key not in pairs:
            raise ParseError(f"missing required key {key!r} for scenario {scenario}")
    for key, (rule, holds) in _RANGES.items():
        if key in pairs and not holds(cfg):
            raise ParseError(f"key {key!r}: must be {rule}, got {pairs[key]!r}")
    return cfg


def parse_config(path, scenario: str | None = None) -> ExperimentConfig:
    """parse_config_text of a UTF-8 file, with or without a byte order mark."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # utf-8-sig reports exc.start in exc.object, the bytes after the BOM
        line = exc.object.count(b"\n", 0, exc.start) + 1
        at = exc.start + len(data) - len(exc.object)
        raise ParseError(f"line {line}: not UTF-8 ({exc.reason} at byte {at})") from None
    return parse_config_text(text, scenario)


def format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        # + 0.0 turns -0.0 into 0.0 and leaves every other float as it is
        return format(value + 0.0, ".12g")
    return str(value)


def emit_csv(rows: list[dict], path, fieldnames: list[str]) -> None:
    """Write rows to CSV with a header, 12-digit floats and LF endings."""
    lines = [",".join(fieldnames)]
    for row in rows:
        lines.append(",".join(format_value(row.get(name)) for name in fieldnames))
    data = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(data)


def read_csv(path) -> tuple[list[str], list[dict]]:
    """Inverse of emit_csv for round-trip checks (no quoting needed here)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    fieldnames = lines[0].split(",")
    rows = [dict(zip(fieldnames, line.split(","))) for line in lines[1:]]
    return fieldnames, rows
