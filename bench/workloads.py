"""Benchmark workloads: config documents generated from a seed, and their oracles.

Each workload is one qfoliation config document. The benchmark writes it to
a file and the program sees nothing else. The seed becomes the document's
`seed` key, which drives the counter-based QSD noise; the physics of every
workload is fixed, so timings do not depend on the seed.

Every oracle is computed here from the closed-form two-level solution, not
with the package's own code: a coherence decays as exp(-gamma*a/2), the
populations stay at 1/2, and a boost generated by sigma_y/2 rotates
<sigma_x> = 1 to cos(atanh(beta)).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

MASTER_SEED = 20260808

# sigma_y / 2 as row-major [re, im] pairs
SIGMA_Y_HALF = [[[0.0, 0.0], [0.0, -0.5]], [[0.0, 0.5], [0.0, 0.0]]]

DETERMINISTIC_TOL = 1e-9
RK4_TOL = 1e-6
HEADLINE_TOL = 1e-6


class OracleFailure(Exception):
    """A report disagrees with its oracle."""


def _limit(what: str, value: float, limit: float) -> None:
    if not value <= limit:
        raise OracleFailure(f"{what} = {value:.3e} exceeds {limit:.3e}")


def _coherence(gamma: float, a: float) -> float:
    """|rho_01| of the initial |+><+| state after decoherence over offset a."""
    return 0.5 * math.exp(-0.5 * gamma * a)


def _closed_form_density(gamma: float, a: float) -> np.ndarray:
    c = _coherence(gamma, a)
    return np.array([[0.5, c], [c, 0.5]], dtype=np.complex128)


def _report_matrix(obj: dict) -> np.ndarray:
    pairs = np.array(obj["entries_row_major"], dtype=np.float64)
    return pairs[..., 0] + 1j * pairs[..., 1]


def _trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the trace norm of a - b; singular values, so a non-Hermitian a counts in full."""
    return 0.5 * float(np.sum(np.linalg.svd(a - b, compute_uv=False)))


def _csv_rows(data: bytes) -> list[dict]:
    body = [ln for ln in data.decode("utf-8").splitlines() if not ln.startswith("#")]
    reader = csv.DictReader(io.StringIO("\n".join(body)))
    return [{k: float(v) for k, v in row.items()} for row in reader]


def _json_results(data: bytes) -> dict:
    return json.loads(data.decode("utf-8"))["results"]


# -- config documents ---------------------------------------------------------


def _document(command: str, params: dict, seed: int, fmt: str, name: str) -> dict:
    return {
        "command": command,
        "params": params,
        "seed": seed,
        "format": fmt,
        "output_path": f"{name}.{fmt}",
    }


def ensemble_large_config(seed: int, smoke: bool) -> dict:
    params = {"gamma": 1.0, "span": 30.0, "step": 0.1 if smoke else 0.01,
              "n_traj": 200 if smoke else 10_000}
    return _document("qsd-ensemble", params, seed, "json", "ensemble-large")


def headline_qsd_config(seed: int, smoke: bool) -> dict:
    qsd = {"n_traj": 100, "step": 0.1} if smoke else {"n_traj": 1000}
    params = {"beta": 0.01, "ell": 3000.0, "gamma": 1.0, "method": "exact", "qsd": qsd}
    return _document("counterexample", params, seed, "json", "headline-qsd")


def rk4_sweep_config(seed: int, smoke: bool) -> dict:
    params = {"beta": 0.01, "ell": 3000.0, "gamma": 1.0, "method": "rk4",
              "step": 1e-2 if smoke else 1e-3, "betas": [0.02, 0.01, 0.005],
              "k_correction": SIGMA_Y_HALF}
    return _document("sweep", params, seed, "csv", "rk4-sweep")


def lindblad_samples_config(seed: int, smoke: bool) -> dict:
    params = {"gamma": 1.0, "span": 30.0, "method": "exact", "samples": 50 if smoke else 2000}
    return _document("lindblad", params, seed, "csv", "lindblad-samples")


# -- oracles -------------------------------------------------------------------
# Each takes the report bytes and the config document that produced them,
# raises OracleFailure on a breach, and returns the report's oracle error.


def ensemble_large_oracle(data: bytes, doc: dict) -> float:
    """Ensemble density within 5/sqrt(M) of the closed form, in trace distance."""
    p = doc["params"]
    res = _json_results(data)
    ref = _closed_form_density(p["gamma"], p["span"])
    lindblad_err = float(np.max(np.abs(_report_matrix(res["rho_lindblad"]) - ref)))
    _limit("rho_lindblad error", lindblad_err, DETERMINISTIC_TOL)
    dist = _trace_distance(_report_matrix(res["rho_ensemble"]), ref)
    _limit("ensemble trace distance", dist, 5.0 / math.sqrt(p["n_traj"]))
    return dist


def headline_qsd_oracle(data: bytes, doc: dict) -> float:
    """discrepancy = 1 +- 1e-6, expectation_M = 1, QSD within 5/sqrt(M)."""
    p = doc["params"]
    res = _json_results(data)
    a0 = p["ell"] * p["beta"]
    _limit("expectation_R error",
           abs(res["expectation_R"] - 2.0 * _coherence(p["gamma"], a0)), DETERMINISTIC_TOL)
    m_err = abs(res["expectation_M"] - 1.0)
    _limit("expectation_M error", m_err, DETERMINISTIC_TOL)
    d_err = abs(res["discrepancy"] - 1.0)
    _limit("|discrepancy - 1|", d_err, HEADLINE_TOL)
    _limit("QSD trace distance", res["qsd"]["trace_distance_to_lindblad"],
           5.0 / math.sqrt(p["qsd"]["n_traj"]))
    return max(m_err, d_err)


def rk4_sweep_oracle(data: bytes, doc: dict) -> float:
    """expectation_R within 1e-6 of the closed form at every beta."""
    p = doc["params"]
    rows = _csv_rows(data)
    if [r["beta"] for r in rows] != p["betas"]:
        raise OracleFailure(f"sweep rows {[r['beta'] for r in rows]} != betas {p['betas']}")
    a0 = p["ell"] * p["beta"]
    worst = 0.0
    for r in rows:
        _limit("a0 error", abs(r["a0"] - a0), DETERMINISTIC_TOL * a0)
        r_err = abs(r["expectation_R"] - 2.0 * _coherence(p["gamma"], a0))
        _limit("expectation_R error", r_err, RK4_TOL)
        _limit("expectation_M error",
               abs(r["expectation_M"] - math.cos(math.atanh(r["beta"]))), DETERMINISTIC_TOL)
        _limit("discrepancy error",
               abs(r["discrepancy"] - (r["expectation_M"] - r["expectation_R"])),
               DETERMINISTIC_TOL)
        worst = max(worst, r_err)
    return worst


def lindblad_samples_oracle(data: bytes, doc: dict) -> float:
    """Every sample's coherence and abs_error within 1e-9 of the closed form."""
    p = doc["params"]
    rows = _csv_rows(data)
    if len(rows) != p["samples"]:
        raise OracleFailure(f"{len(rows)} rows, expected {p['samples']}")
    worst = 0.0
    for i, r in enumerate(rows, start=1):
        a = p["span"] * i / p["samples"]
        _limit("offset error", abs(r["a"] - a), DETERMINISTIC_TOL * a)
        _limit("offdiag_numeric error",
               abs(r["offdiag_numeric"] - _coherence(p["gamma"], a)), DETERMINISTIC_TOL)
        _limit("abs_error", r["abs_error"], DETERMINISTIC_TOL)
        worst = max(worst, r["abs_error"])
    return worst


@dataclass(frozen=True)
class Workload:
    name: str
    config: Callable[[int, bool], dict]
    oracle: Callable[[bytes, dict], float]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ensemble-large", ensemble_large_config, ensemble_large_oracle),
        Workload("headline-qsd", headline_qsd_config, headline_qsd_oracle),
        Workload("rk4-sweep", rk4_sweep_config, rk4_sweep_oracle),
        Workload("lindblad-samples", lindblad_samples_config, lindblad_samples_oracle),
    )
}
