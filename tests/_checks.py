"""Checks that only the tests use: hyperplane construction, event membership,
the conjugate transpose, the per-trajectory noise, step-kernel and CSV-cell
references, the writing of a resolved config and the strict reading of a
report's config, kept out of the package's public surface."""

import json
import math
from dataclasses import asdict

import numpy as np

from qfoliation.cli import RunConfig
from qfoliation.dynamics import GeneratorSet, _qsd_ops, _StepPlan
from qfoliation.errors import NumericalError, ValidationError
from qfoliation.foliation import FourVector, Hyperplane
from qfoliation.linalg import as_complex
from qfoliation.rng import stream_keys, wiener_block


def make_hyperplane(n_raw: FourVector, a: float) -> Hyperplane:
    """Build a hyperplane from an unnormalized time-like normal and offset a.

    The normal is rescaled so n.n = 1; the offset is stored unchanged.
    """
    nn = n_raw.dot(n_raw)
    if nn <= 0.0:
        raise ValidationError(f"normal must be time-like: n.n = {nn:.6g} <= 0")
    if n_raw.t <= 0.0:
        raise ValidationError(f"normal must be future-pointing, got t = {n_raw.t:.6g}")
    f = 1.0 / math.sqrt(nn)
    return Hyperplane(FourVector(n_raw.t * f, n_raw.x * f, n_raw.y * f, n_raw.z * f), a)


def event_tolerance(x: FourVector) -> float:
    """Membership tolerance scaled to the coordinate magnitude of x."""
    scale = max(1.0, abs(x.t), abs(x.x), abs(x.y), abs(x.z))
    return 1e-9 * scale


def contains_event(plane: Hyperplane, x: FourVector, tol: float | None = None) -> bool:
    """True iff |n.x - a| <= tol; tol defaults to a coordinate-scaled value."""
    if tol is None:
        tol = event_tolerance(x)
    return abs(plane.normal.dot(x) - plane.offset) <= tol


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(m).conj().T.copy()


def wiener_increments(seed: int, stream: int, steps: int, channels: int, step: float) -> np.ndarray:
    """Noise of trajectory `stream` drawn on its own, one step per call, shape
    (steps, channels).

    The per-row reference: row s must equal column m of step s of any
    wiener_block whose m-th key is stream's, whatever block holds step s.
    """
    keys = stream_keys(seed, [stream])
    return np.stack([wiener_block(keys, s, 1, channels, step)[0, :, 0] for s in range(steps)])


def qsd_step(
    psi: np.ndarray,
    gen: GeneratorSet,
    dxi: np.ndarray | None,
    step: float,
    renormalize: bool = True,
) -> np.ndarray:
    """One stochastic step of the pure-state unraveling for one state: the
    per-row reference of the batch kernel.

    dxi holds one complex Wiener increment per coupling operator (None only
    when there are none). Eigenstates of every L are fixed points: both the
    fluctuation operator and the drift annihilate them.
    """
    psi = as_complex(psi)
    dxi = np.asarray(() if dxi is None else dxi, dtype=np.complex128)
    if psi.shape != (gen.dim,) or dxi.shape != (len(gen.Ls),):
        raise ValidationError(f"state shape {psi.shape} and noise shape {dxi.shape} do not fit "
                              f"dim {gen.dim} with {len(gen.Ls)} coupling operators")
    outs = np.empty((2, gen.dim, 1), dtype=np.complex128)
    outs[1, :, 0] = psi
    plan = _StepPlan(_qsd_ops(gen, step), outs, renormalize)
    with np.errstate(over="ignore", invalid="ignore"):  # as the ensembles run the kernel
        return plan.step(0, dxi[:, None])[:, 0]


def cell_reference(value) -> str:
    """One CSV cell formatted alone: the per-cell reference of the column formatter.

    Floats in fixed notation with 12 significant digits, bools as true/false,
    anything else by str; a NaN or infinity is refused.
    """
    if isinstance(value, bool):
        return "true" if value else "false"
    if not isinstance(value, float):
        return str(value)
    if not math.isfinite(value):
        raise NumericalError(f"non-finite value in report: {value!r}")
    if value == 0.0:
        return "0.00000000000"
    decimals = 11 - math.floor(math.log10(abs(value)))
    return f"{value:.{max(0, decimals)}f}"


def serialize_config(cfg: RunConfig) -> str:
    """Inverse of parse_config: parse_config(serialize_config(cfg)) == cfg."""
    return json.dumps(asdict(cfg), indent=2, sort_keys=True) + "\n"


def _refuse_constant(name: str):
    raise ValueError(f"non-strict JSON constant {name}")


def embedded_config(report: str, fmt: str) -> dict:
    """The config a report embeds, read as strict JSON: Infinity and NaN are refused."""
    if fmt == "json":
        return json.loads(report, parse_constant=_refuse_constant)["config"]
    line = next(line for line in report.splitlines() if line.startswith("# config: "))
    return json.loads(line[len("# config: "):], parse_constant=_refuse_constant)
