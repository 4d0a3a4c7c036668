"""Command-line front end: JSON configuration in, CSV/JSON reports out.

One structured config document describes a run; flags only point at the
config and override seed, output path and format. A command is parsed, runs
one `scenarios` call and is written. Parsing only decodes and refuses no range
but a negative seed; `scenarios` holds the physics, fills each left-out matrix
or state and refuses every other range, after the `seed:` line. Reports embed
the fully resolved configuration, so every output file is self-describing and
reproducible. No environment variable configures a run; a CLI process only has
OpenBLAS start one thread unless the user chose a count (`launch.one_blas_thread`).

Exit status: 0 success, 1 configuration/validation failure, 2 numerical
invariant breach, 130 interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import math
import os
import sys
from dataclasses import dataclass, fields, is_dataclass
from typing import Any, NamedTuple

if __name__ == "__main__":  # python -m qfoliation.cli, before numpy loads
    from .launch import one_blas_thread

    one_blas_thread()

import numpy as np

from . import scenarios
from .errors import NumericalError, ValidationError, log_warnings

log = logging.getLogger("qfoliation")

_LOG_LEVELS = {"quiet": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}

@dataclass(frozen=True)
class RunConfig:
    """A fully resolved run: command, validated parameters, output plan."""

    command: str
    params: dict
    output_path: str
    format: str
    seed: int
    log_level: str


# -- config schema ------------------------------------------------------------

_REQUIRED = object()
_OMIT = object()


@dataclass(frozen=True)
class Key:
    """One config key: its kind, its default and, for the seed, its lower bound.

    kind is number, int, choice, bool, path, matrix, vector, betas, qsd,
    or any (passed on as given, for a key a scenario checks). default is
    _REQUIRED, _OMIT (absent from the resolved params), a constant, or a
    function of the keys resolved before it. A key given as null counts as
    not given.
    """

    kind: str
    default: Any = _REQUIRED
    choices: tuple = ()
    ge: float | None = None


def _rk4_step(r: dict) -> float | None:
    """1e-3/gamma, at most the largest float; none at gamma = 0 (unitary, so no step)."""
    return min(1e-3 / r["gamma"], sys.float_info.max) if r["gamma"] > 0.0 else None


def _ensemble_step(r: dict) -> float:
    """0.01/gamma, at most the largest float; at gamma = 0, span/100, or span if that is 0."""
    if r["gamma"] > 0.0:
        return min(0.01 / r["gamma"], sys.float_info.max)
    return r["span"] / 100.0 or r["span"]


# the fields of CounterexampleParams other than qsd
_OFFSET_KEYS = {
    "beta": Key("number"),
    "ell": Key("number"),
    "gamma": Key("number"),
    "method": Key("any", "exact"),
    "step": Key("number", _rk4_step),
    "c": Key("number", 1.0),
}
_QSD_KEYS = {
    "n_traj": Key("int"),
    "seed": Key("int", lambda r: r["seed"]),  # the master seed
    "step": Key("number", None),
}
_TOP_LEVEL_KEYS = {
    "seed": Key("int", 0, ge=0),  # the CLI's own key, printed before any run
    "format": Key("choice", "csv", choices=("csv", "json")),
    "log_level": Key("choice", "info", choices=tuple(_LOG_LEVELS)),
    "output_path": Key("path", lambda r: f"{r['command']}_report.{r['format']}"),
}


def _number(val, key: str) -> float:
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ValidationError(f"config key {key!r} must be a number, got {val!r}")
    if not abs(val) <= sys.float_info.max:  # NaN, inf, or an int beyond the float range
        raise ValidationError(f"config key {key!r} must be finite, got {val!r}")
    return float(val)


def _convert(key: str, spec: Key, val, known: dict):
    """The resolved value of a given key, checked against its kind and bounds."""
    if spec.kind == "number":
        val = _number(val, key)
    elif spec.kind == "int" and (isinstance(val, bool) or not isinstance(val, int)):
        raise ValidationError(f"config key {key!r} must be an integer, got {val!r}")
    elif spec.kind == "choice" and val not in spec.choices:
        raise ValidationError(f"config key {key!r} must be one of {spec.choices}, got {val!r}")
    elif spec.kind == "bool" and not isinstance(val, bool):
        raise ValidationError(f"config key {key!r} must be a boolean, got {val!r}")
    elif spec.kind == "path" and (not isinstance(val, str) or not val or "\0" in val):
        raise ValidationError(f"config key {key!r} must be a non-empty string without NUL")
    elif spec.kind == "path":
        try:
            os.fsencode(val)  # json.loads passes a lone surrogate, which no file name holds
        except UnicodeEncodeError as exc:
            raise ValidationError(f"config key {key!r} is not a file name: {exc}") from exc
    elif spec.kind == "matrix":
        val = matrix_to_pairs(matrix_from_config(val, key))
    elif spec.kind == "vector":
        val = matrix_to_pairs(_complex_array(val, key, ndim=1))
    elif spec.kind == "betas":
        if not isinstance(val, list):
            raise ValidationError(f"config key {key!r} must be a list")
        val = [_number(b, key) for b in val]
    elif spec.kind == "qsd":
        val = _resolve(_QSD_KEYS, val, repr(key), known)
    if spec.ge is not None and val < spec.ge:
        raise ValidationError(f"config key {key!r} must be >= {spec.ge}, got {val}")
    return val


def _resolve(schema: dict, raw, where: str, known: dict) -> dict:
    """Check the object raw against schema and fill its defaults.

    known holds values resolved outside raw that derived defaults may read.
    """
    if not isinstance(raw, dict):
        raise ValidationError(f"config key {where} must be an object")
    unknown = set(raw) - set(schema)
    if unknown:
        raise ValidationError(f"unknown config key(s) in {where}: {sorted(unknown)}")
    out = {}
    for key, spec in schema.items():
        if raw.get(key) is not None:
            out[key] = _convert(key, spec, raw[key], {**known, **out})
        elif spec.default is _REQUIRED:
            raise ValidationError(f"missing required config key {key!r}")
        elif callable(spec.default):
            out[key] = spec.default({**known, **out})
        elif spec.default is not _OMIT:
            out[key] = spec.default
    return out


def _complex_array(obj, key: str, ndim: int) -> np.ndarray:
    """Decode complex entries given as [re, im] pairs into an ndim array."""
    try:
        arr = np.array(obj, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"config key {key!r}: not numeric [re, im] pairs: {exc}") from exc
    if arr.ndim != ndim + 1 or arr.shape[-1] != 2 or (ndim == 2 and arr.shape[0] != arr.shape[1]):
        raise ValidationError(
            f"config key {key!r} must be a {'square matrix' if ndim == 2 else 'list'} "
            f"of [re, im] pairs, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"config key {key!r} contains non-finite entries")
    out = np.empty(arr.shape[:-1], dtype=np.complex128)
    out.real, out.imag = arr[..., 0], arr[..., 1]  # re + 1j*im would turn -0.0 + 1j*im into +0.0
    return out


def matrix_from_config(obj, key: str) -> np.ndarray:
    """Decode a complex matrix given as row-major [re, im] pairs."""
    return _complex_array(obj, key, ndim=2)


def matrix_to_pairs(m: np.ndarray) -> list:
    """Encode a complex array of any rank as row-major [re, im] pairs (lists)."""
    return np.stack((m.real, m.imag), axis=-1).tolist()


def _counterexample_params(params: dict) -> scenarios.CounterexampleParams:
    qsd = params.get("qsd")
    return scenarios.CounterexampleParams(**{key: params[key] for key in _OFFSET_KEYS},
                                          qsd=None if qsd is None else scenarios.QsdSettings(**qsd))


def parse_config(text: str, command: str | None = None, *, seed: int | None = None,
                 format: str | None = None, output_path: str | None = None) -> RunConfig:
    """Decode a JSON configuration document.

    The document has top-level keys command, params, and optional
    output_path, format, seed, log_level. seed, format and output_path,
    when not None, replace the document's keys of those names before any
    default is filled (the CLI flags). Defaults are filled so the returned
    config is fully resolved; unknown keys anywhere are errors. It checks
    types, finiteness and shapes, but of the ranges only a negative seed: the
    scenario that `run` calls refuses the rest.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:  # an integer over the digit limit, or deep nesting
        raise ValidationError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError(f"config document must be a JSON object, got {type(doc).__name__}")

    cfg_command = command if doc.get("command") is None else doc["command"]
    if cfg_command is None:
        raise ValidationError("no command given (config key 'command' or CLI argument)")
    if cfg_command not in COMMANDS:
        raise ValidationError(f"unknown command {cfg_command!r}, expected one of {COMMANDS}")
    if command is not None and cfg_command != command:
        raise ValidationError(
            f"config command {cfg_command!r} does not match CLI command {command!r}"
        )

    top = {key: val for key, val in doc.items() if key not in ("command", "params")}
    flags = {"seed": seed, "format": format, "output_path": output_path}
    top.update({key: val for key, val in flags.items() if val is not None})
    top = _resolve(_TOP_LEVEL_KEYS, top, "config document", {"command": cfg_command})
    params = _resolve(_COMMANDS[cfg_command].keys, doc.get("params", {}), "'params'", top)
    return RunConfig(command=cfg_command, params=params, **top)


# -- number formatting --------------------------------------------------------


# "%.{d}f" with d = max(0, 11 - e) for each decimal exponent e = floor(log10|x|)
# of a nonzero finite double, -324 <= e <= 308: 12 significant digits
_FIXED = tuple(f"%.{max(0, 11 - e)}f" for e in range(-324, 309))


def _cells(values: list) -> list[str]:
    """The CSV cells of a non-empty column of one type: finite floats in fixed
    notation with 12 significant digits, bools as true/false, anything else by str.

    math.log10 and not np.log10: a SIMD np.log10 may differ from libm by an
    ulp next to a power of ten, and so by one in the number of decimals.
    """
    if isinstance(values[0], bool):
        return ["true" if v else "false" for v in values]
    if isinstance(values[0], float):
        fixed, floor, log10 = _FIXED, math.floor, math.log10
        return [fixed[floor(log10(abs(v))) + 324] % v if v else "0.00000000000" for v in values]
    return [str(v) for v in values]


# -- report building ----------------------------------------------------------


def _report_matrix(m: np.ndarray) -> dict:
    return {"dim": int(m.shape[0]), "entries_row_major": matrix_to_pairs(m)}


def _plane(plane) -> dict:
    return {"normal_t": plane.normal.t, "normal_x": plane.normal.x, "offset": plane.offset}


def _report_fields(report, omit: tuple = ("params",)) -> dict:
    """A report's fields in declaration order but those in omit (params, which the config
    echoes) and None: arrays by `_report_matrix`, planes by `_plane`, other reports as dicts."""
    values = {f.name: getattr(report, f.name) for f in fields(report) if f.name not in omit}
    return {key: _report_matrix(val) if isinstance(val, np.ndarray)
            else _plane(val) if isinstance(val, scenarios.Hyperplane)
            else _report_fields(val) if is_dataclass(val) else val
            for key, val in values.items() if val is not None}


def _matrix_param(params: dict, key: str, ndim: int = 2) -> np.ndarray | None:
    """The matrix (state at ndim 1) of a given key; None, for the scenario's default, if not."""
    return _complex_array(params[key], key, ndim) if key in params else None


def _run_counterexample(cfg: RunConfig) -> dict:
    return _report_fields(scenarios.run_counterexample(_counterexample_params(cfg.params)))


def _run_sweep(cfg: RunConfig) -> dict:
    p, betas = _counterexample_params(cfg.params), cfg.params["betas"]
    reports = scenarios.sweep_velocity(p, betas, _matrix_param(cfg.params, "k_correction"))
    first = _report_fields(reports[0], omit=("params", "offdiag_final"))
    # each beta as given: a -0.0 runs as +0.0 but keeps its sign in the report
    points = {"beta": betas, "ell": [r.params.ell for r in reports]}
    points.update({key: [getattr(r, key) for r in reports] for key, val in first.items()
                   if not isinstance(val, dict)})  # a point holds no matrix
    return {"points": {key: np.array(col) for key, col in points.items()}}


def _run_consistency(cfg: RunConfig) -> dict:
    params = cfg.params
    return _report_fields(scenarios.run_consistency(
        **{key: params[key] for key in _OFFSET_KEYS},
        **{key: _matrix_param(params, key) for key in ("h", "k", "observable")},
        psi0=_matrix_param(params, "psi0", ndim=1)))


def _run_lindblad(cfg: RunConfig) -> dict:
    params = cfg.params
    columns, rho_final = scenarios.lindblad_scan(
        _matrix_param(params, "rho0"), params["gamma"], params["span"],
        params["samples"], params["method"], params["step"])
    return {"points": columns, "rho_final": _report_matrix(rho_final)}


def _run_qsd_ensemble(cfg: RunConfig) -> dict:
    params = cfg.params
    outcome, rho, rho_ref = scenarios.run_qsd(
        params["gamma"], params["span"], params["step"], cfg.seed, params["n_traj"],
        params["renormalize"], _matrix_param(params, "psi0", ndim=1))
    return {**_report_fields(outcome, omit=("n_traj", "seed")),  # the config's own keys
            "rho_ensemble": _report_matrix(rho), "rho_lindblad": _report_matrix(rho_ref)}


class Command(NamedTuple):
    """One command: its config keys, its runner and, for a command without points, the
    leading columns of its one CSV row, read from the params, the seed or the results. Each
    scalar result not among them follows in order, and the columns of _QSD_COLUMNS (CSV
    name -> key) in place of the qsd block."""

    keys: dict
    run: Any
    csv_leads: tuple = ()


_COMMANDS = {
    "counterexample": Command({**_OFFSET_KEYS, "qsd": Key("qsd", _OMIT)}, _run_counterexample,
                              ("beta", "ell", "gamma")),
    "sweep": Command({**_OFFSET_KEYS, "betas": Key("betas"), "k_correction": Key("matrix", _OMIT)},
                     _run_sweep),
    "consistency": Command({
        **_OFFSET_KEYS,
        "gamma": Key("number", 0.0),
        "h": Key("matrix", _OMIT),
        "k": Key("matrix", _OMIT),
        "observable": Key("matrix", _OMIT),
        "psi0": Key("vector", _OMIT),
    }, _run_consistency, ("beta", "ell", "gamma")),
    "lindblad": Command({
        "gamma": Key("number"),
        "span": Key("number"),
        "method": Key("any", "exact"),
        "step": Key("number", _rk4_step),
        "samples": Key("int", 1),
        "rho0": Key("matrix", _OMIT),
    }, _run_lindblad),
    "qsd-ensemble": Command({
        "gamma": Key("number"),
        "span": Key("number"),
        "n_traj": Key("int"),
        "step": Key("number", _ensemble_step),
        "renormalize": Key("bool", True),
        "psi0": Key("vector", _OMIT),
    }, _run_qsd_ensemble, ("gamma", "span", "n_traj", "step", "steps", "seed")),
}
COMMANDS = tuple(_COMMANDS)  # the usage text's order

_QSD_COLUMNS = {"qsd_n_traj": "n_traj", "qsd_expectation": "expectation",
                "qsd_trace_distance": "trace_distance_to_lindblad"}


# -- output -------------------------------------------------------------------


# rows per chunk of a report's table. A chunk is checked, formatted a column
# at a time and written as one string: 256 rows share the cost of the
# per-chunk numpy calls, and a report's strings take the memory of one chunk
_CHUNK_ROWS = 256


def _table_chunks(table: list, cells):
    """Each _CHUNK_ROWS rows of the columns in table, as rows of cells formatted a column at
    a time, after refusing the chunk's first NaN or infinity in row order."""
    for lo in range(0, len(table[0]), _CHUNK_ROWS):
        chunk = [col[lo:lo + _CHUNK_ROWS] for col in table]
        floats = [col for col in chunk if col.dtype.kind == "f"]
        if floats:
            grid = np.column_stack(floats)
            bad = grid[~np.isfinite(grid)]
            if bad.size:
                raise NumericalError(f"non-finite value in report: {float(bad[0])!r}")
        yield zip(*(cells(col.tolist()) for col in chunk))


def _csv_chunks(cfg: RunConfig, results: dict):
    points = results.get("points")
    if not points:  # one row, of the columns Command describes
        known = {**cfg.params, "seed": cfg.seed, **results}
        row = {col: known[col] for col in _COMMANDS[cfg.command].csv_leads}
        for key, val in results.items():
            if key == "qsd":
                row.update({name: val[field] for name, field in _QSD_COLUMNS.items()})
            elif not isinstance(val, dict):  # a matrix, event or plane is in JSON only
                row.setdefault(key, val)
        points = {col: np.array([val]) for col, val in row.items()}
    config = json.dumps(dict(command=cfg.command, params=cfg.params, seed=cfg.seed), sort_keys=True)
    yield f"# qfoliation report\n# command: {cfg.command}\n# seed: {cfg.seed}\n# config: {config}\n"
    yield ",".join(points) + "\n"
    yield from ("\n".join(map(",".join, rows)) + "\n"
                for rows in _table_chunks(list(points.values()), _cells))


def _json_cells(values: list) -> list[str]:
    """The JSON numbers of a non-empty column of one type: floats as json writes them."""
    return list(map(float.__repr__, values)) if isinstance(values[0], float) else _cells(values)


def _refuse_non_finite(obj) -> None:
    """Refuse the first NaN or infinity that json.dumps(obj, sort_keys=True) meets."""
    if isinstance(obj, float) and not math.isfinite(obj):
        raise NumericalError(f"non-finite value in report: {float(obj)!r}")
    if isinstance(obj, dict):
        obj = [obj[key] for key in sorted(obj)]
    if isinstance(obj, (list, tuple)):
        for item in obj:
            _refuse_non_finite(item)


def _json_chunks(cfg: RunConfig, results: dict):
    points = dict(sorted(results.get("points", {}).items()))
    doc = {
        "command": cfg.command,
        "config": {"params": cfg.params, "seed": cfg.seed,
                   "format": cfg.format, "output_path": cfg.output_path},
        "results": {**results, "points": []} if points else results,
    }
    _refuse_non_finite(doc["results"])  # a decoded config is finite; the table walk checks points
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    head, mark, tail = text.partition('"points": [')
    yield head + mark
    if points:
        # json.dumps(indent=2) lays out a point, which maps names to numbers, as this template
        entries = ",\n        ".join(f"{json.dumps(key)}: %s" for key in points)
        point = f"\n      {{\n        {entries}\n      }}"
        for i, rows in enumerate(_table_chunks(list(points.values()), _json_cells)):
            yield ("," if i else "") + ",".join(map(point.__mod__, rows))
    yield ("\n    " if points else "") + tail + "\n"


def _write_report(path: str, chunks) -> None:
    """Write via a temp file in the target directory, so a failed run leaves no partial report."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(OSError):
            os.unlink(tmp)


def run(cfg: RunConfig) -> int:
    """Execute a resolved config and write its report; returns the exit status."""
    # the package logs to the current stderr through a handler of its own, in place of
    # the last run's, and not to the root logger, which an embedding process keeps as it is
    handler = logging.StreamHandler(sys.stderr)
    handler.set_name(log.name)
    handler.setFormatter(logging.Formatter("%(levelname)s %(message)s"))
    log.handlers = [h for h in log.handlers if h.name != log.name] + [handler]
    log.setLevel(_LOG_LEVELS[cfg.log_level])
    log.propagate = False
    print(f"seed: {cfg.seed}")
    try:
        chunks = _csv_chunks if cfg.format == "csv" else _json_chunks
        with log_warnings(log):
            _write_report(cfg.output_path, chunks(cfg, _COMMANDS[cfg.command].run(cfg)))
    except ValidationError as exc:
        log.error("validation failure: %s", exc)
        return 1
    except MemoryError as exc:
        log.error("input too large to allocate: %s", exc)
        return 1
    except NumericalError as exc:
        log.error("numerical invariant breach: %s", exc)
        return 2
    except OSError as exc:
        log.error("cannot write report %s: %s", cfg.output_path, exc.strerror or exc)
        return 1
    log.info("wrote %s", cfg.output_path)
    return 0


# -- entry point ---------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; that slot means numerical here
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(
        prog="qfoliation",
        description="Hyperplane-foliated quantum dynamics scenarios",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to the JSON config document")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="override the output path")
    parser.add_argument("--format", choices=("csv", "json"), default=None,
                        help="override the output format")
    args = parser.parse_args(argv)

    try:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
            cfg = parse_config(text, command=args.command, seed=args.seed, format=args.format,
                               output_path=args.out)
        except (OSError, UnicodeError) as exc:
            print(f"qfoliation: cannot read config: {exc}", file=sys.stderr)
            return 1
        except MemoryError:
            print("qfoliation: config too large to read", file=sys.stderr)
            return 1
        except ValidationError as exc:
            print(f"qfoliation: {exc}", file=sys.stderr)
            return 1
        return run(cfg)
    except KeyboardInterrupt:  # the report write is atomic, so nothing partial is left
        print("qfoliation: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
