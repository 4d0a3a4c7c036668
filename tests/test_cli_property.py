"""Property: every config document ends in a clean exit status, never a traceback.

`cli.main` runs in-process on generated documents for every command, with
known and unknown keys, wrong types (bool, string, list, null, NaN/inf,
an int too large for a float), finite values at the float limit and
output paths that cannot be written, one of them holding a lone surrogate,
which no file name can hold.
Each run must return 0, or 1 with a message, or 2 naming the breached
invariant; a failed run must leave no report and no temporary file behind.

Values come from the bounded pools below, so every example does bounded
work. A deterministic pass also puts every BAD and NEAR_LIMIT value on every
key of a valid document of each command, in both formats.
"""

import contextlib
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qfoliation.cli import COMMANDS, main
from _checks import embedded_config

# Valid values per key. With these, a0 = ell*beta/c <= 2 and gamma <= 2,
# so the rk4 default step 1e-3/gamma gives at most 4000 steps per branch,
# and ensembles stay at a handful of trajectories.
GOOD = {
    "beta": [0, 0.25, 0.5],
    "ell": [0.5, 1, 2.0],
    "gamma": [0, 0.5, 1, 2.0],
    "c": [0.5, 1, 2.0],
    "step": [0.05, 0.25],
    "span": [0.5, 1, 2.0],
    "method": ["exact", "rk4"],
    "samples": [1, 2, 3],
    "n_traj": [1, 2, 5],
    "renormalize": [True, False],
    "betas": [[0.25], [0.5, 0.25, 0], [0]],
    "qsd": [{"n_traj": 2}, {"n_traj": 3, "seed": 4}, {"n_traj": 1, "step": 0.25, "seed": 0}],
    "k_correction": [[[[0, 0], [0, -0.5]], [[0, 0.5], [0, 0]]]],
    "h": [[[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]],
    "k": [[[[1, 0], [0, 0]], [[0, 0], [-1, 0]]], [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]],
    "observable": [[[[0, 0], [1, 0]], [[1, 0], [0, 0]]], [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]],
    "rho0": [[[[0.5, 0], [0.5, 0]], [[0.5, 0], [0.5, 0]]], [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]],
    "psi0": [[[1, 0], [0, 0]], [[0.6, 0], [0, 0.8]]],
}

# An extreme but valid pair for the commands that take both keys: gamma*span
# stays 1, so a run takes a few Pade squarings or default steps.
EXTREME = {"gamma": 1e300, "span": 1e-300}

# Finite values at the float limit, drawn as often as all of BAD together:
# numbers that no key or only some keys accept (gamma takes 1e308), and a
# Hermitian matrix that is not positive.
NEAR_LIMIT = [1e308, -1.7e308, 5e-324, [[[0.5, 0], [1.7e308, 0]], [[1.7e308, 0], [0.5, 0]]]]

# Values no key accepts, or that only the wrong key accepts: out-of-range
# and non-finite numbers, an int too large for a float, wrong types,
# malformed matrices, vectors and qsd blocks.
BAD = [
    -1, -0.25, 0, 1.5, math.nan, math.inf, -math.inf, 10**400,
    True, "1", "", "a\ud800b", [], [1.0, "a"], {}, None,
    [[[0, 0], [0, 1]], [[0, 0], [0, 0]]],          # [[0, i], [0, 0]]: not Hermitian
    [[[0, 0], [1, 0]], [[0, 0], [0, 0]]],          # [[0, 1], [0, 0]]: not Hermitian
    [[[0.5, 0], [0.6, 0]], [[0.6, 0], [0.5, 0]]],  # Hermitian, not positive
    [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]], [[0, 0], [0, 0], [1, 0]]],
    [[1, 2], [3]],
    [[[0, 0], [0, math.nan]], [[0, 0], [0, 0]]],
    [[[0, 0], [10**400, 0]], [[0, 0], [0, 0]]],
    [[1, 0], [1, 0]], [[0, 0], [0, 0]], [[1, 0], [0, 0], [0, 0]], [[1, 0]], [1, 0],
    {"n_traj": 0}, {"n_traj": 2, "seed": -1}, {"n_traj": 2, "step": 0},
    {"n_traj": 2, "velocity": 1}, {"n_traj": True},
]

REQUIRED = {
    "counterexample": ["beta", "ell", "gamma"],
    "sweep": ["beta", "ell", "gamma", "betas"],
    "consistency": ["beta", "ell"],
    "lindblad": ["gamma", "span"],
    "qsd-ensemble": ["gamma", "span", "n_traj"],
}
COMMON = ["beta", "ell", "gamma", "method", "step", "c"]
KEYS = {
    "counterexample": COMMON + ["qsd"],
    "sweep": COMMON + ["betas", "k_correction"],
    "consistency": COMMON + ["h", "k", "observable", "psi0"],
    "lindblad": ["gamma", "span", "method", "step", "samples", "rho0"],
    "qsd-ensemble": ["gamma", "span", "n_traj", "step", "renormalize", "psi0"],
}


@st.composite
def runs(draw):
    """(command, document without output_path, output path kind, extra argv).

    A valid document per command, then up to three mutations: a bad
    value for a known or unknown key, or a dropped key.
    """
    command = draw(st.sampled_from(COMMANDS))
    params = {}
    for key in KEYS[command]:
        if key in REQUIRED[command] or draw(st.booleans()):
            params[key] = draw(st.sampled_from(GOOD[key]))
    if "span" in params and draw(st.booleans()):
        params.update(EXTREME)
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2, 3]))):
        key = draw(st.sampled_from(KEYS[command] + ["velocity"]))
        if draw(st.booleans()):
            params[key] = draw(st.sampled_from(BAD) | st.sampled_from(NEAR_LIMIT))
        else:
            params.pop(key, None)
    doc = {"command": command, "params": params}
    for key, good, bad in (("seed", [0, 7, 2**64 + 1], [-1, True, "3", 1.5]),
                           ("format", ["csv", "json"], ["xml", 1]),
                           ("log_level", ["quiet", "info", "debug"], ["loud"]),
                           ("command", [command], [None, "warp", 5, "lindblad"]),
                           ("params", [params], [None, [], 1.0])):
        choice = draw(st.sampled_from(["good"] * 10 + ["bad", "absent"]))
        if choice == "good":
            doc[key] = draw(st.sampled_from(good))
        elif choice == "bad":
            doc[key] = draw(st.sampled_from(bad))
        else:
            doc.pop(key, None)
    if draw(st.sampled_from([False] * 9 + [True])):
        doc["extra"] = 1
    out = draw(st.sampled_from(["report"] * 12
                               + ["missing/report", "dir", "", "a\0b", "a\ud800b", 5]))
    argv = []
    if draw(st.booleans()):
        argv += ["--seed", str(draw(st.sampled_from([0, 3, -2])))]
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["csv", "json"]))]
    return command, doc, out, argv


def run_cleanly(command, doc, out, extra_argv=()):
    """Run one document through `cli.main` and check its exit; returns the
    exit status, the stderr text and, for status 0, the report text."""
    with tempfile.TemporaryDirectory() as tmp:
        doc = dict(doc)
        doc["output_path"] = os.path.join(tmp, out) if out in ("report", "missing/report") \
            else tmp if out == "dir" else out
        cfg_path = os.path.join(tmp, "config.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            status = main([command, "--config", cfg_path, *extra_argv])
        message = stderr.getvalue()
        left = set(os.listdir(tmp)) - {"config.json"}
        report = None
        if left == {"report"}:
            with open(doc["output_path"], encoding="utf-8") as fh:
                report = fh.read()

    assert status in (0, 1, 2)
    if status == 0:
        assert left == {"report"}
    else:
        assert left == set(), left
    if status == 1:
        assert message.strip()
    if status == 2:
        assert "numerical invariant breach: " in message
        assert message.split("numerical invariant breach: ", 1)[1].strip()
    return status, message, report


# derandomize: tier-1 draws the same 400 documents on every run, so a failure
# it shows is seen again on the next run and on every host
@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(runs())
def test_every_document_exits_cleanly(case):
    run_cleanly(*case)


# A valid document per command, with a0 = 0.5 and gamma = 0, so that the
# derived defaults (the steps, the qsd seed) are left to fill.
VALID = {
    "counterexample": {"beta": 0.25, "ell": 2.0, "gamma": 0},
    "sweep": {"beta": 0.25, "ell": 2.0, "gamma": 0, "betas": [0.5, 0.25, 0]},
    "consistency": {"beta": 0.25, "ell": 2.0},
    "lindblad": {"gamma": 0, "span": 1},
    "qsd-ensemble": {"gamma": 0, "span": 1, "n_traj": 2},
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", COMMANDS)
def test_every_pool_value_on_every_key_exits_cleanly(command, fmt):
    """Each BAD and NEAR_LIMIT value, on each key of a valid document and on
    an unknown one, in turn: the property test draws from these pools and
    may never draw some entries. Besides a clean exit, a run must embed its
    config as strict JSON and must not fail on a non-finite report value:
    no pool value makes a finite input overflow to one."""
    failures = []
    cases = [(None, None)] + [(key, value) for key in KEYS[command] + ["velocity"]
                              for value in BAD + NEAR_LIMIT]
    for key, value in cases:
        params = dict(VALID[command]) if key is None else {**VALID[command], key: value}
        doc = {"command": command, "params": params, "format": fmt}
        try:
            status, message, report = run_cleanly(command, doc, "report")
            if status == 0:
                embedded_config(report, fmt)
            elif "non-finite value in report" in message:
                failures.append((key, value, message.strip()))
            if status != 0 and key is None:
                failures.append((key, value, f"the valid document exits {status}"))
        except Exception as exc:  # one list of every failing case, not the first alone
            failures.append((key, value, f"{type(exc).__name__}: {exc}"[:200]))
    assert failures == []
