#!/usr/bin/env python3
"""qfoliation benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Run from anywhere; the package is taken from `src/` beside this directory,
never from an installed copy. The script writes the workload's config
document (generated from --seed) to a file and drives the program as a
single closed-loop client: one call at a time, the next one only after the
previous one has ended.

--trace 0 (end to end, tracing off):
    setup_s      median wall time of `python -c "import qfoliation.cli"`
    wall_s       median wall time of one CLI invocation, spawn to exit
    run_s        median warm in-process time of cli.run(cli.parse_config(text))
    peak_rss_mb  median peak resident memory of one CLI invocation
--trace 1 (per layer): `python -X importtime` splits the import, and
    in-process runs with every public package function wrapped give self
    times and exact counts (see tracer.py); counts must repeat exactly
    across the traced runs. trace.overhead_s is the median of traced minus
    untraced run_s over interleaved pairs.

Every report is checked against its closed-form oracle (workloads.py) and
against the sha256 of the first report of its kind in the run. A non-zero
exit, a failed oracle or a changed report is a failed attempt; any failure
makes the command exit 1. --smoke runs the workload at reduced size.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The full record (environment, config
document, samples, oracle errors) goes to .bench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

UNITS = {"wall_s": "s", "setup_s": "s", "run_s": "s", "peak_rss_mb": "MiB"}

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _median(values: list) -> float:
    return float(statistics.median(values))


def _quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0]] * 3 if values else []
    return [float(q) for q in statistics.quantiles(values, n=4)]


@contextlib.contextmanager
def _cwd(path: Path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


class Session:
    """One benchmark run of one workload: executes, times and checks calls."""

    def __init__(self, cli, workload: workloads.Workload, doc: dict, run_dir: Path):
        self.cli = cli
        self.workload = workload
        self.doc = doc
        self.text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        self.run_dir = run_dir
        self.config_path = run_dir / "config.json"
        self.config_path.write_text(self.text, encoding="utf-8")
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.attempted = 0
        self.failures: list[str] = []
        self.oracle_errors: list[float] = []
        self.first_sha: dict[str, str] = {}
        self._sink = open(os.devnull, "w")

    def close(self) -> None:
        self._sink.close()

    def _check_report(self, kind: str, doc: dict) -> None:
        path = self.run_dir / doc["output_path"]
        try:
            data = path.read_bytes()
        except OSError as exc:
            self.failures.append(f"{kind}: no report: {exc}")
            return
        sha = hashlib.sha256(data).hexdigest()
        first = self.first_sha.setdefault(doc["output_path"], sha)
        if sha != first:
            self.failures.append(f"{kind}: report sha256 {sha[:12]} differs from first {first[:12]}")
            return
        try:
            err = self.workload.oracle(data, doc)
        except (workloads.OracleFailure, KeyError, ValueError) as exc:
            self.failures.append(f"{kind}: oracle: {exc!r}")
            return
        if doc is self.doc:
            self.oracle_errors.append(err)

    def time_import(self, extra: tuple = ()) -> tuple[float, str]:
        """Wall time of a fresh interpreter importing qfoliation.cli, and its stderr."""
        self.attempted += 1
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, *extra, "-c", "import qfoliation.cli"],
            cwd=self.run_dir, env=self.env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE if extra else subprocess.DEVNULL,
        )
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            self.failures.append(f"import exited {proc.returncode}")
        return elapsed, (proc.stderr or b"").decode("utf-8", "replace")

    def invoke_cli(self) -> tuple[float, float]:
        """One CLI invocation: wall time from spawn to exit and peak RSS in MiB."""
        self.attempted += 1
        log_path = self.run_dir / "cli.log"
        argv = [sys.executable, "-m", "qfoliation.cli", self.doc["command"],
                "--config", self.config_path.name]
        with open(log_path, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.run_dir, env=self.env,
                                    stdout=log, stderr=log)
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = log_path.read_text(encoding="utf-8", errors="replace")[-500:]
            self.failures.append(f"cli exited {proc.returncode}: {tail}")
        else:
            self._check_report("cli", self.doc)
        return elapsed, usage.ru_maxrss / 1024.0

    def run_in_process(self, doc: dict | None = None, tracer=None) -> float:
        """Warm in-process time of cli.run(cli.parse_config(text))."""
        doc = self.doc if doc is None else doc
        text = self.text if doc is self.doc else json.dumps(doc)
        self.attempted += 1
        hooks = tracing.traced(tracer) if tracer is not None else contextlib.nullcontext()
        code = None
        with _cwd(self.run_dir), contextlib.redirect_stdout(self._sink), \
                contextlib.redirect_stderr(self._sink), hooks:
            start = time.perf_counter()
            try:
                code = self.cli.run(self.cli.parse_config(text))
            except Exception:  # any escape from the program is a failed attempt
                self.failures.append("in-process: " + traceback.format_exc(limit=3))
            elapsed = time.perf_counter() - start
        if code is not None:
            if code != 0:
                self.failures.append(f"in-process run returned {code}")
            else:
                self._check_report("in-process", doc)
        return elapsed

    def warm_up(self, smoke_doc: dict) -> None:
        """Fill bytecode caches and lazy imports before anything is timed."""
        self.time_import()
        self.run_in_process(smoke_doc)


def _pairs_until(deadline: float, body) -> None:
    """Run body() at least once, and again while another run fits before deadline."""
    while True:
        start = time.perf_counter()
        body()
        if time.perf_counter() + (time.perf_counter() - start) > deadline:
            return


def measure_end_to_end(s: Session, seconds: float, n_setup: int) -> tuple[dict, dict]:
    deadline = time.perf_counter() + seconds
    samples: dict[str, list] = {"setup_s": [], "wall_s": [], "peak_rss_mb": [], "run_s": []}

    # interleaved, so that slow drift of the machine hits every metric alike
    def pair():
        samples["setup_s"].append(s.time_import()[0])
        wall, rss = s.invoke_cli()
        samples["wall_s"].append(wall)
        samples["peak_rss_mb"].append(rss)
        samples["run_s"].append(s.run_in_process())

    _pairs_until(deadline, pair)
    while len(samples["setup_s"]) < n_setup:
        samples["setup_s"].append(s.time_import()[0])
    return {k: _median(v) for k, v in samples.items()}, samples


def _importtime(stderr: str) -> dict:
    """Per-module (self, cumulative) seconds from `python -X importtime` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        out[name.strip()] = (int(self_us) * 1e-6, int(cum_us) * 1e-6)
    return out


def measure_layers(s: Session, seconds: float, n_setup: int) -> tuple[dict, dict]:
    deadline = time.perf_counter() + seconds
    samples: dict[str, list] = {name: [] for name in tracing.UNITS}
    for _ in range(n_setup):
        mods = _importtime(s.time_import(("-X", "importtime"))[1])
        samples["setup.import_numpy_s"].append(mods.get("numpy", (0.0, 0.0))[1])
        samples["setup.import_scipy_linalg_s"].append(mods.get("scipy.linalg", (0.0, 0.0))[1])
        samples["setup.import_qfoliation_self_s"].append(
            sum(t for name, (t, _) in mods.items()
                if name == "qfoliation" or name.startswith("qfoliation.")))

    untraced, traced, counts = [], [], []

    def pair():
        untraced.append(s.run_in_process())
        tr = tracing.Tracer()
        traced.append(s.run_in_process(tracer=tr))
        counts.append(tr.counts())
        for name, value in tr.layer_metrics().items():
            samples[name].append(value)

    while len(traced) < 2:  # the count check needs two traced runs
        _pairs_until(deadline, pair)
    for i, c in enumerate(counts[1:], start=2):
        if c != counts[0]:
            diff = sorted(k for k in set(c) | set(counts[0]) if c.get(k) != counts[0].get(k))
            s.failures.append(f"traced run {i}: counts differ from run 1 at {diff}")
    samples["trace.overhead_s"] = [t - u for t, u in zip(traced, untraced)]
    metrics = {k: _median(v) for k, v in samples.items()}
    extra = {"untraced_run_s": untraced, "traced_run_s": traced, "counts": counts[0]}
    return metrics, {**samples, **extra}


# -- environment --------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        return {"name": "unknown", "version": "unknown"}


def _git_commit() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "blas_threads": {v: os.environ.get(v, "unset") for v in BLAS_THREAD_VARS},
        # without a bytecode cache every import of the package recompiles it
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE", "unset"),
        "git_commit": _git_commit(),
        "platform": platform.platform(),
    }


# -- entry point ----------------------------------------------------------------


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=workloads.MASTER_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="run the workload at reduced size")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def _import_cli():
    """qfoliation.cli from this checkout's src/, or None if it is not there."""
    if not (SRC / "qfoliation" / "cli.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    from qfoliation import cli

    if Path(cli.__file__).resolve().parent != SRC / "qfoliation":
        return None
    return cli


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = _import_cli()
    if cli is None:
        print(f"bench: no qfoliation package under {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    doc = workload.config(args.seed, args.smoke)
    run_dir = WORK / ("smoke" if args.smoke else "runs") / f"{args.workload}-{args.seed}-t{args.trace}"
    run_dir.mkdir(parents=True, exist_ok=True)
    n_setup = 2 if args.smoke else 5

    session = Session(cli, workload, doc, run_dir)
    try:
        smoke_doc = workload.config(args.seed, True)
        smoke_doc["output_path"] = "warmup." + smoke_doc["format"]
        session.warm_up(smoke_doc)
        measure = measure_layers if args.trace else measure_end_to_end
        metrics, samples = measure(session, args.seconds, n_setup)
    finally:
        session.close()

    units = tracing.UNITS if args.trace else UNITS
    failed = len(session.failures)
    oracle_error = max(session.oracle_errors, default=float("nan"))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": environment(),
        "config": doc,
        "warmup_config": smoke_doc,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "sample_counts": {k: len(v) for k, v in samples.items() if isinstance(v, list)},
        "quartiles": {k: _quartiles(v) for k, v in samples.items() if isinstance(v, list)},
        "samples": samples,
        "oracle_error": oracle_error,
        "report_sha256": session.first_sha,
        "attempted": session.attempted,
        "failures": session.failures,
    }
    result_path = run_dir / "result.json"
    result_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}"
          f"{'  smoke' if args.smoke else ''}  record {result_path.relative_to(ROOT)}")
    for name, unit in units.items():
        n = record["sample_counts"].get(name, 0)
        print(f"  {name:38s} {metrics[name]:>16.10g} {unit:6s} (median of {n})")
    print(f"  {'oracle_error':38s} {oracle_error:>16.6g} {'1':6s} (max over checked reports)")
    print(f"  {'failed_frac':38s} {failed / session.attempted:>16.6g} {'1':6s} "
          f"({failed} of {session.attempted} attempts)")
    for what in session.failures:
        print(f"  FAILED: {what}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": session.attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
