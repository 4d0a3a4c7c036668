"""Resolved configs of a fixed corpus, pinned against the recorded snapshot.

Every document below is resolved with `parse_config` (with the case's
seed, where it names one, passed as `--seed` passes it) and serialized;
the text must equal the snapshot in `data/resolved_configs.json`, which
was recorded from the hand-written parsers this schema replaced. The
corpus covers each command with every optional key both absent and given,
gamma = 0 for each step default, int inputs for float keys, qsd seed
inheritance and re-seeding: a seed flag moves a qsd seed that was left
out and keeps one that was given, even when it equals the document's
seed.
"""

import json
from pathlib import Path

import pytest

from qfoliation.cli import parse_config
from _checks import serialize_config

SNAPSHOT = Path(__file__).parent / "data" / "resolved_configs.json"

PAIRS_INT = [[[0, 0], [0, -1]], [[0, 1], [0, 0]]]
SIGMA_Z = [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]
RHO_MIXED = [[[0.75, 0], [0.25, 0.125]], [[0.25, -0.125], [0.25, 0]]]

# name -> (document, seed override or None)
CORPUS = {
    # counterexample
    "ce-minimal-ints": ({"command": "counterexample",
                         "params": {"beta": 0.01, "ell": 3000, "gamma": 1}}, None),
    "ce-all-keys": ({"command": "counterexample",
                     "params": {"beta": 0.02, "ell": 100.0, "gamma": 0.5, "method": "rk4",
                                "step": 0.002, "c": 2,
                                "qsd": {"n_traj": 10, "seed": 3, "step": 0.05}},
                     "seed": 4, "format": "json", "log_level": "debug",
                     "output_path": "ce.json"}, None),
    "ce-nulls": ({"command": "counterexample",
                  "params": {"beta": 0.01, "ell": 30.0, "gamma": 2.0, "step": None,
                             "c": None, "qsd": None}, "seed": None}, None),
    "ce-gamma-zero": ({"command": "counterexample",
                       "params": {"beta": 0.5, "ell": 2, "gamma": 0}}, None),
    "ce-gamma-zero-step": ({"command": "counterexample",
                            "params": {"beta": 0.5, "ell": 2, "gamma": 0.0, "step": 1}}, None),
    "ce-beta-zero": ({"command": "counterexample",
                      "params": {"beta": 0, "ell": 1, "gamma": 1.0}}, None),
    "ce-qsd-inherits": ({"command": "counterexample",
                         "params": {"beta": 0.01, "ell": 3000, "gamma": 1.0,
                                    "qsd": {"n_traj": 5}}, "seed": 99}, None),
    "ce-qsd-null-keys": ({"command": "counterexample",
                          "params": {"beta": 0.01, "ell": 3000, "gamma": 1.0,
                                     "qsd": {"n_traj": 5, "seed": None, "step": None}},
                          "seed": 8}, None),
    "ce-qsd-reseed-follows": ({"command": "counterexample",
                               "params": {"beta": 0.01, "ell": 3000, "gamma": 1.0,
                                          "qsd": {"n_traj": 5}}, "seed": 99}, 5),
    "ce-qsd-reseed-pinned": ({"command": "counterexample",
                              "params": {"beta": 0.01, "ell": 3000, "gamma": 1.0,
                                         "qsd": {"n_traj": 5, "seed": 3, "step": 1}},
                              "seed": 99}, 5),
    "ce-qsd-seed-equals-master": ({"command": "counterexample",
                                   "params": {"beta": 0.01, "ell": 3000, "gamma": 1.0,
                                              "qsd": {"n_traj": 5, "seed": 7}},
                                   "seed": 7}, 12),
    # sweep
    "sweep-minimal": ({"command": "sweep",
                       "params": {"beta": 0.01, "ell": 3000, "gamma": 1,
                                  "betas": [0.02, 0, 0.005]}}, None),
    "sweep-all-keys": ({"command": "sweep",
                        "params": {"beta": 0.01, "ell": 3000.0, "gamma": 1.0, "method": "rk4",
                                   "step": 0.01, "c": 1, "betas": [0.02],
                                   "k_correction": PAIRS_INT},
                        "seed": 5, "format": "json"}, None),
    "sweep-null-k": ({"command": "sweep",
                      "params": {"beta": 0.01, "ell": 3000.0, "gamma": 1.0, "betas": [0.01],
                                 "k_correction": None}}, None),
    "sweep-gamma-zero": ({"command": "sweep",
                          "params": {"beta": 0.1, "ell": 10, "gamma": 0, "betas": [0.1]}}, 3),
    # consistency
    "cons-minimal": ({"command": "consistency", "params": {"beta": 0.1, "ell": 10}}, None),
    "cons-unitary-all-keys": ({"command": "consistency",
                               "params": {"beta": 0.2, "ell": 40.0, "gamma": 0, "h": SIGMA_Z,
                                          "k": SIGMA_Z, "observable": SIGMA_Z,
                                          "psi0": [[1, 0], [0, 0]], "method": "rk4",
                                          "step": 0.5, "c": 3}}, None),
    "cons-unitary-nulls": ({"command": "consistency",
                            "params": {"beta": 0.2, "ell": 4.0, "gamma": None, "h": None,
                                       "k": None, "observable": None, "psi0": None}}, None),
    "cons-unitary-negative-beta": ({"command": "consistency",
                                    "params": {"beta": -0.2, "ell": 40.0, "h": SIGMA_Z}}, None),
    "cons-dissipative": ({"command": "consistency",
                          "params": {"beta": 0.01, "ell": 3000.0, "gamma": 1, "method": "exact",
                                     "step": 0.004, "c": 1.0},
                          "format": "json", "log_level": "quiet"}, 21),
    "cons-dissipative-default-step": ({"command": "consistency",
                                       "params": {"beta": 0.01, "ell": 3000.0,
                                                  "gamma": 4.0}}, None),
    # lindblad
    "lind-minimal": ({"command": "lindblad", "params": {"gamma": 1, "span": 3}}, None),
    "lind-all-keys": ({"command": "lindblad",
                       "params": {"gamma": 0.5, "span": 2.0, "method": "rk4", "step": 0.01,
                                  "samples": 4, "rho0": RHO_MIXED},
                       "output_path": "out/l.csv"}, None),
    "lind-gamma-zero": ({"command": "lindblad",
                         "params": {"gamma": 0.0, "span": 1.0, "method": "rk4"}}, None),
    "lind-span-zero": ({"command": "lindblad",
                        "params": {"gamma": 1.0, "span": 0, "samples": None, "rho0": None,
                                   "step": None}}, None),
    # 600 rows: two full 256-row chunks of the report writers and a short third one
    "lind-chunked": ({"command": "lindblad",
                      "params": {"gamma": 0.5, "span": 30.0, "samples": 600}}, None),
    # qsd-ensemble
    "qsd-minimal-ints": ({"command": "qsd-ensemble",
                          "params": {"gamma": 1, "span": 2, "n_traj": 50}}, None),
    "qsd-gamma-zero": ({"command": "qsd-ensemble",
                        "params": {"gamma": 0, "span": 3.0, "n_traj": 4}}, None),
    "qsd-all-keys": ({"command": "qsd-ensemble",
                      "params": {"gamma": 2.0, "span": 1.5, "n_traj": 8, "step": 0.1,
                                 "renormalize": False, "psi0": [[0.6, 0], [0, 0.8]]},
                      "seed": 11, "format": "json", "log_level": "info"}, 13),
    "qsd-nulls": ({"command": "qsd-ensemble",
                   "params": {"gamma": 0.25, "span": 1.0, "n_traj": 3, "step": None,
                              "psi0": None}}, None),
}


def resolve(doc: dict, seed) -> str:
    return serialize_config(parse_config(json.dumps(doc), seed=seed))


def test_snapshot_covers_corpus():
    assert sorted(json.loads(SNAPSHOT.read_text(encoding="utf-8"))) == sorted(CORPUS)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_resolved_config_matches_snapshot(name):
    expected = json.loads(SNAPSHOT.read_text(encoding="utf-8"))[name]
    doc, seed = CORPUS[name]
    assert resolve(doc, seed) == expected
