"""A large final-state ensemble runs in forked trajectory blocks: the same
bits, the same errors and exit codes as one process, and no process left
behind after a run that succeeds, fails or is interrupted."""

import ast
import errno
import inspect
import json
import math
import os
import pickle
import signal
import threading
import time
import warnings

import numpy as np
import pytest

from qfoliation import dynamics, rng
from qfoliation.cli import main
from qfoliation.dynamics import (
    GeneratorSet,
    TrajectoryConfig,
    decohering_coupling,
    ensemble_final_states,
)
from qfoliation.errors import NumericalError
from qfoliation.scenarios import dephasing_model

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
PLUS_STATE = np.array([1.0, 1.0]) / math.sqrt(2.0)
OVERFLOW = {"gamma": 100.0, "span": 200.0, "step": 0.05, "n_traj": 10, "renormalize": False}


@pytest.fixture
def forks(monkeypatch):
    """Calls split(workers) to make every final-state ensemble of at least
    `workers` trajectories run in that many blocks; the list collects the
    pid of every child forked."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    def split(workers):
        monkeypatch.setattr(dynamics, "_MIN_BLOCK_TRAJECTORIES", 1)
        monkeypatch.setattr(dynamics, "_MIN_BLOCK_WORK", 1)
        monkeypatch.setattr(dynamics, "_cpu_count", lambda: workers)
        monkeypatch.setattr(os, "fork", fork)

    yield split, pids
    assert_no_child_left()


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def run_cli(tmp_path, params, capsys, fmt="csv", command="qsd-ensemble"):
    """Exit status, stderr and report bytes (None if absent) of one run."""
    out = tmp_path / f"report.{fmt}"
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"command": command, "params": params, "format": fmt,
                               "output_path": str(out)}), encoding="utf-8")
    status = main([command, "--config", str(cfg)])
    report = out.read_bytes() if out.exists() else None
    if report is not None:
        out.unlink()
    return status, capsys.readouterr().err, report


# names of numpy's BLAS- and LAPACK-backed calls
BLAS_NAMES = {"matmul", "dot", "vdot", "inner", "tensordot", "einsum", "kron", "linalg"}


def blas_uses(obj) -> list[str]:
    """`@` and BLAS-backed names in the source of a function or class."""
    tree = ast.parse(inspect.getsource(obj))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"{obj.__name__}:{node.lineno} @")
        name = getattr(node, "attr", None) or getattr(node, "id", None)
        if name in BLAS_NAMES:
            found.append(f"{obj.__name__}:{node.lineno} {name}")
    return found


def test_a_worker_makes_no_blas_or_lapack_call():
    # a forked child may not take a lock that the parent's OpenBLAS threads
    # hold: all it runs is its block's step loop, made of ufuncs and rng
    run_by_a_worker = [dynamics._qsd_child, dynamics._qsd_block, dynamics._StepPlan,
                       dynamics._sum_of_products, dynamics._check_norms,
                       rng.stream_keys, rng.wiener_block, rng._mix]
    assert [use for obj in run_by_a_worker for use in blas_uses(obj)] == []


def test_large_ensembles_split_and_small_ones_do_not(monkeypatch):
    calls = []
    monkeypatch.setattr(dynamics, "_qsd_split", lambda plan, ops: calls.append(plan.workers))
    monkeypatch.setattr(dynamics, "_qsd_block", lambda *args: calls.append(1))
    gen = dephasing_model(1.0)
    cases = [  # CPUs, trajectories, steps: blocks
        ((8, 10**4, 3000), 8),  # the ensemble-large workload
        ((8, 3 * 10**3, 1000), 3),  # at most one block per _MIN_BLOCK_WORK trajectory-steps
        ((2, 10**4, 3000), 2),
        ((2, 10**3, 3000), 2),  # the headline QSD block
        ((8, 10**3, 3000), 2),  # at least _MIN_BLOCK_TRAJECTORIES a block
        ((2, 999, 3000), 1),
        ((2, 10**3, 1999), 1),  # at least _MIN_BLOCK_WORK trajectory-steps a block
        ((2, 10**4, 100), 1),
        ((2, 200, 20000), 1),  # blocks of 100, whose step costs about its fixed cost
        ((1, 10**4, 3000), 1),
    ]
    for (cpus, n_traj, steps), _ in cases:
        monkeypatch.setattr(dynamics, "_cpu_count", lambda: cpus)
        ensemble_final_states(PLUS_STATE, gen, TrajectoryConfig(step=0.01, steps=steps), n_traj)
    assert calls == [blocks for _, blocks in cases]


@pytest.mark.parametrize("workers", [2, 3])
def test_a_split_forks_one_child_for_each_planned_worker_but_the_first(forks, workers):
    split, pids = forks
    split(workers)
    gen = dephasing_model(1.0)
    plan = dynamics.plan_qsd(PLUS_STATE, gen, TrajectoryConfig(0.02, 10), 31)
    dynamics.run_qsd_plan(gen, plan)
    assert plan.workers == workers and len(pids) == plan.workers - 1


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("gen", [
    pytest.param(GeneratorSet(H=np.zeros((2, 2)), Ls=(decohering_coupling(1.0),)),
                 id="one-channel"),
    pytest.param(GeneratorSet(H=SZ), id="zero-channel"),
    pytest.param(GeneratorSet(H=SZ, Ls=(decohering_coupling(1.0), 0.5 * SX)), id="two-channel"),
    pytest.param(dephasing_model(0.0), id="gamma-zero"),
])
def test_split_final_states_match_one_worker_bitwise(forks, gen, workers):
    # 31 trajectories in blocks of 15 + 16, or 10 + 10 + 11
    cfg = TrajectoryConfig(step=0.02, steps=100, seed=4)
    one = ensemble_final_states(PLUS_STATE, gen, cfg, 31)
    split, pids = forks
    split(workers)
    many = ensemble_final_states(PLUS_STATE, gen, cfg, 31)
    assert len(pids) == workers - 1
    assert many.tobytes() == one.tobytes() and many.strides == one.strides
    assert_no_child_left()


def test_a_process_with_another_thread_runs_one_block(forks):
    split, pids = forks
    split(2)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        ensemble_final_states(PLUS_STATE, dephasing_model(1.0), TrajectoryConfig(0.02, 10), 31)
    finally:
        release.set()
        other.join(timeout=10)
    assert pids == [] and not other.is_alive()


@pytest.mark.parametrize(("command", "params", "fmt"), [
    pytest.param("qsd-ensemble", {"gamma": 1.0, "span": 2.0, "n_traj": 31}, "csv", id="csv"),
    pytest.param("qsd-ensemble", {"gamma": 1.0, "span": 2.0, "n_traj": 31}, "json", id="json"),
    pytest.param("counterexample", {"beta": 0.01, "ell": 200.0, "gamma": 1.0, "method": "exact",
                                    "qsd": {"n_traj": 31}}, "json", id="counterexample"),
])
def test_split_qsd_ensemble_report_is_byte_identical(tmp_path, capsys, forks, command, params,
                                                      fmt):
    status, err, one = run_cli(tmp_path, params, capsys, fmt, command)
    assert status == 0, err
    split, pids = forks
    split(3)
    status, err, many = run_cli(tmp_path, params, capsys, fmt, command)
    assert status == 0, err
    assert len(pids) == 2
    assert many == one


def test_split_overflow_exits_2_with_the_message_of_one_worker(tmp_path, capsys, forks):
    # trajectories 7 and 8 of the last block overflow to NaN at step 9; the
    # first block, the parent's own, reaches inf only at step 11
    status, one, _ = run_cli(tmp_path, OVERFLOW, capsys)
    assert status == 2 and "trajectory norm is nan" in one
    split, pids = forks
    split(3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        status, many, report = run_cli(tmp_path, OVERFLOW, capsys)
    assert status == 2 and report is None
    assert len(pids) == 2
    assert many == one
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.filterwarnings("ignore:step.max:UserWarning")
def test_blocks_refused_at_one_step_are_checked_on_their_merged_norms(forks):
    # streams 10..15: at step 10 stream 11 (first block) reaches inf and
    # stream 14 (second block) NaN; one process sees NaN, as np.max does
    gen, cfg = dephasing_model(100.0), TrajectoryConfig(step=0.05, steps=4000, renormalize=False)
    with pytest.raises(NumericalError) as one:
        dynamics._qsd_run(PLUS_STATE, gen, cfg, 6, first=10)
    assert str(one.value) == "trajectory norm is nan"
    split, pids = forks
    split(2)
    with pytest.raises(NumericalError) as many:
        dynamics._qsd_run(PLUS_STATE, gen, cfg, 6, first=10)
    assert len(pids) == 1
    assert type(many.value) is NumericalError and str(many.value) == str(one.value)


def test_the_earliest_refused_step_wins_and_its_least_norm_is_merged(monkeypatch, forks):
    # stand-in blocks refuse steps 4, 3 and 3; the merged least norm of step 3 is reported
    refusals = {0: (4, 0.0, 1.0), 2: (3, 1e-200, 1.0), 4: (3, 1e-250, 2.0)}

    def refusing(plan, ops, record=False):
        exc = NumericalError("stand-in")
        exc.refused = refusals[plan.first]
        raise exc

    monkeypatch.setattr(dynamics, "_qsd_block", refusing)
    split, pids = forks
    split(3)
    with pytest.raises(NumericalError, match=r"^trajectory norm collapsed to 1\.000e-250 before"):
        ensemble_final_states(PLUS_STATE, dephasing_model(1.0), TrajectoryConfig(0.01, 10), 6)
    assert len(pids) == 2


def test_a_worker_out_of_memory_exits_1_as_one_process_would(tmp_path, capsys, monkeypatch,
                                                             forks):
    parent, real = os.getpid(), rng.stream_keys

    def failing_in_workers(*args):
        if os.getpid() != parent:
            raise MemoryError("stand-in")
        return real(*args)

    monkeypatch.setattr(rng, "stream_keys", failing_in_workers)
    split, pids = forks
    split(2)
    status, err, report = run_cli(tmp_path, {"gamma": 1.0, "span": 2.0, "n_traj": 31}, capsys)
    assert status == 1 and report is None
    assert "input too large to allocate: stand-in" in err
    assert "Traceback" not in err
    assert len(pids) == 1


def test_interrupt_in_the_parent_block_kills_every_worker_and_exits_130(tmp_path, capsys,
                                                                       monkeypatch, forks):
    parent = os.getpid()

    def interrupted_in_parent(*args, **kwargs):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)  # a worker still busy: only a kill ends it in time

    monkeypatch.setattr(dynamics, "_qsd_block", interrupted_in_parent)
    split, pids = forks
    split(3)
    start = time.monotonic()
    status, err, report = run_cli(tmp_path, {"gamma": 1.0, "span": 2.0, "n_traj": 31}, capsys)
    assert time.monotonic() - start < 30
    assert status == 130 and report is None
    assert "interrupted" in err
    assert len(pids) == 2


@pytest.mark.parametrize("started", [0, 1])
def test_a_worker_that_cannot_be_forked_exits_1(tmp_path, capsys, monkeypatch, forks, started):
    # with 3 blocks, the fork of the first or of the second child fails
    split, pids = forks
    split(3)
    counting_fork = os.fork

    def fork():
        if len(pids) == started:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return counting_fork()

    monkeypatch.setattr(os, "fork", fork)
    status, err, report = run_cli(tmp_path, {"gamma": 1.0, "span": 2.0, "n_traj": 31}, capsys)
    assert status == 1 and report is None
    assert "cannot start a trajectory worker" in err
    assert "cannot write report" not in err and "Traceback" not in err
    assert len(pids) == started


@pytest.mark.parametrize("sent", [0.0, 0.5])
def test_a_worker_killed_before_its_whole_result_is_sent_exits_1(tmp_path, capsys, monkeypatch,
                                                                 forks, sent):
    # the child writes none or half of its pickled result, then is killed
    parent, dumps, real_exit = os.getpid(), pickle.dumps, os._exit

    def cut_dumps(obj):
        payload = dumps(obj)
        return payload[:int(len(payload) * sent)] if os.getpid() != parent else payload

    def killed(code):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        real_exit(code)

    monkeypatch.setattr(pickle, "dumps", cut_dumps)
    monkeypatch.setattr(os, "_exit", killed)
    split, pids = forks
    split(2)
    status, err, report = run_cli(tmp_path, {"gamma": 1.0, "span": 2.0, "n_traj": 31}, capsys)
    assert status == 1 and report is None
    assert "ended without its result" in err and "Traceback" not in err
    assert len(pids) == 1
