"""Propagators for hyperplane-foliated open-system dynamics.

Three transports act on a state:

* deterministic completely-positive evolution of the density matrix along
  the hyperplane offset a (`lindblad_propagate`, to one offset or to an
  array of offsets from one generator, as one stacked computation),
* its stochastic pure-state unraveling along a (`qsd_trajectory`,
  `ensemble_density`), whose ensemble mean reproduces the density-matrix
  evolution,
* unitary transport between hyperplane normals, i.e. boosts along +x by
  the one generator `GeneratorSet.K` (`boost_transport`).

The Lindblad generator has one encoding, the superoperator `liouvillian`,
and one path serves every generator, unitary or decohering; a zero boost
generator is exponentiated too, and the QSD step loops over no coupling
operators as over one. Both Lindblad methods are a matrix applied to
vec(rho): expm(span*L) for `exact`, and for `rk4` the Runge-Kutta
polynomial P(hL)^n, equal to n classical RK4 steps of h as L does not
depend on a. The exponential is `_expm`, a Pade scaling-and-squaring
method in numpy (Higham 2005) for one generator L and many offsets: every
matrix it exponentiates is a multiple a*L, so the powers of L/||L||_1 are
formed once per call, and each offset's approximant is a sum of them with
real weights. Fixed-step methods take
n = max(1, ceiling of span/step) equal steps of h = span/n: rk4 through
`_fixed_steps`, the QSD ensembles through `TrajectoryConfig.covering`. One
offset is a 0-d stack of offsets on the same path. `lindblad_propagate`
refuses every input first, the rk4 step count and the exact exponent
1-norm of each offset included, and then runs one loop over blocks of
`_LINDBLAD_BLOCK` offsets, which bound its memory. A block takes its
propagators (for `exact`, one `_expm` call, which forms the Pade powers
once per block and sends the offsets that share a Pade plan through
elementwise weighted sums, one stacked solve and stacked squarings; for
`rk4`, P(hL)^n per offset), one matmul of the propagators with vec(rho0)
and one stacked `validate_density`. Every stacked numpy call runs the same
per-matrix or per-element arithmetic, so each density is bit for bit the
one its offset gives alone.

The unraveling is the standard quantum-state-diffusion Ito form with one
complex Wiener process per coupling operator: drift
(<L^dag>L - L^dag L/2 - <L^dag><L>/2) psi and diffusion (L - <L>) psi per
channel, integrated by Euler-Maruyama with optional per-step renormalization.
The increments are the two-point ones of `rng` (the simplified weak Euler
scheme), so a `qsd_trajectory` path is a weak-scheme path, not a strong
approximation of a QSD path: only ensemble means and other expectations
converge, at weak order 1, and those are all any report reads.
A run is refused and counted by `plan_qsd`, whose plan also holds the
step's operators, then run from the plan alone by `run_qsd_plan`, which
needs nothing else: one plain loop (`_qsd_block`) advances every trajectory
under one np.errstate context; `qsd_trajectory` records the path and
`ensemble_final_states` takes the final batch. The batch is held as
columns, shape (dim, M), so component i of every trajectory is one
contiguous row. The drift terms linear in psi are folded into one matrix
G = 1 + step*(-iH - sum_k L_k^dag L_k / 2). Once per run (`_StepPlan`) the
step is laid out as a flat list of ufunc calls over preallocated buffers,
in which every term that only scales psi_i (G's diagonal, the <L_k> terms
and each row of L_k whose only entry is diagonal) is folded into one factor
per row, applied to the whole batch in one call. The noise of several steps
is drawn in one `rng.wiener_block` call, whose fixed cost would otherwise
dominate a small batch's step. Every operation is an elementwise numpy
ufunc, and none is an in-place complex product (whose rounding depends on
the length), so a trajectory's arithmetic, and its result to the last bit,
does not depend on the batch it runs in.

A large final-state ensemble (not a recorded path) runs on every CPU the
process may use: `_qsd_split` cuts its rows into one contiguous block per
planned worker, forks a child for each block but the first, and runs the
first itself; each child runs the same step loop (`_qsd_block`) on its
streams and sends its rows back, pickled, through its own pipe. A row's
noise is a pure function of its stream and its arithmetic does not depend
on its batch, so neither does any bit of the result depend on the split:
the final states, and every report made from them, are the same for any
number of workers. So a split that fails (a pipe or fork that cannot be
made, or a block that raises) runs the whole plan again in one process,
which raises what one process raises, at the cost of the parent's block
and the one-process run to the failing step (see `_qsd_split`).
"""

from __future__ import annotations

import math
import os
import pickle
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import rng
from .errors import NumericalError, ValidationError, warn
from .foliation import lorentz_gamma
from .linalg import (
    TOL,
    ZERO_NORM_FLOOR,
    as_complex,
    expm_generator,
    require_density,
    require_hermitian,
    require_integer,
    require_same_dim,
    require_square,
    validate_density,
    validate_state,
)

LINDBLAD_METHODS = ("exact", "rk4")

# step * ||L^dag L|| above this draws a warning: the Euler-Maruyama weak
# error is no longer comfortably below typical ensemble statistics.
QSD_STEP_SAFETY = 0.1

# work ceiling of one QSD run, in trajectory-steps, each step counted as at
# least MIN_STEP_TRAJECTORIES trajectories: 2.5-9.5 min in one process at any
# batch size on a 2-vCPU host, where a trajectory-step costs 30-56 ns from
# 10^3 to 2*10^4 trajectories; an ensemble split over that host's two CPUs
# (see _MIN_BLOCK_WORK) takes about 0.5 of that, so 2.5-5 min
MAX_TRAJECTORY_STEPS = 10**10

# the fixed cost of a QSD step in one process, in trajectories: on the same
# host a step of 1 to 100 trajectories takes 15-29 us, as long as 500-700
# more trajectories at 30-43 ns each (from 4*10^3 to 2*10^4). 10^3 dates
# from the kernel before the step plan (23-36 us a step) and is kept, so
# that the ceiling does not move; the split reads _MIN_BLOCK_TRAJECTORIES.
MIN_STEP_TRAJECTORIES = 10**3

# increments per rng.wiener_block call of a QSD run (its block and words take
# 384 KiB): a call's fixed cost dominates a small batch's step, but a larger
# block falls out of cache. Per step on a 2-vCPU host, the noise of 10^3
# trajectories costs 15 us one step at a time, 5 us in 16-step blocks and
# 15 us in 64-step blocks; that of 10^4 costs 53 us one step at a time and
# 56 us in 4-step blocks.
_NOISE_BLOCK_ENTRIES = 2**14

# the final states of an ensemble run as one block of trajectories per CPU,
# each block in its own process, only where every block holds at least
# _MIN_BLOCK_TRAJECTORIES trajectories and _MIN_BLOCK_WORK trajectory-steps.
# Two blocks against one on a 2-vCPU host with both CPUs busy in the last
# seconds (dephasing model, step 0.01, medians of 15 alternating runs in a
# process that imported the CLI, in ms): 10^3 trajectories x 3000 steps
# 179 -> 136, 800 x 3000 155 -> 127, 600 x 3000 138 -> 115, 10^3 x 2000
# 121 -> 96, 10^3 x 1000 60 -> 52, 10^4 x 100 49 -> 32, 10^4 x 200 93 ->
# 55, 10^4 x 3000 1379 -> 657 and 200 x 20000 637 -> 623, as a step of up
# to about 250 trajectories costs its fixed 20 us whatever its size; blocks
# of 300-400 lost or tied. As CLI processes, 10^4 x 100 was lower spawn to
# exit in only 13 of 21 pairs, so the work minimum stays where a block's
# work hides the fork. A CPU idle for a few seconds first gains little.
_MIN_BLOCK_TRAJECTORIES = 500
_MIN_BLOCK_WORK = 10**6


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.complex128)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class GeneratorSet:
    """Hamiltonian H, boost generator K, coupling operators Ls.

    K is None or the one generator K_x of the boost along +x, the only
    boost implemented. H and K must be Hermitian; all operators share one
    dimension. Arrays are stored as read-only copies so a set can be shared
    across threads and ensembles safely.
    """

    H: np.ndarray
    K: np.ndarray | None = None
    Ls: tuple = ()

    def __post_init__(self) -> None:
        h = require_hermitian(self.H, "H")
        object.__setattr__(self, "H", _readonly(h))
        if self.K is not None:
            k = require_hermitian(self.K, "K")
            if k.shape != h.shape:
                raise ValidationError(f"K shape {k.shape} != H shape {h.shape}")
            object.__setattr__(self, "K", _readonly(k))
        ls = []
        for i, lk in enumerate(self.Ls):
            lk = require_square(as_complex(lk))
            if lk.shape != h.shape:
                raise ValidationError(f"L[{i}] shape {lk.shape} != H shape {h.shape}")
            ls.append(_readonly(lk))
        object.__setattr__(self, "Ls", tuple(ls))

    @property
    def dim(self) -> int:
        return self.H.shape[0]


@dataclass(frozen=True)
class TrajectoryConfig:
    """Fixed-step integration plan for one stochastic trajectory.

    The evolution spans step*steps in the hyperplane offset; seed picks the
    master noise stream and renormalize controls per-step normalization.
    """

    step: float
    steps: int
    seed: int = 0
    renormalize: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.step < math.inf:
            raise ValidationError(f"step must be positive, got {self.step:.6g}")
        object.__setattr__(self, "steps", require_integer(self.steps, "steps"))
        object.__setattr__(self, "seed", require_integer(self.seed, "seed"))
        if self.steps < 0:
            raise ValidationError(f"steps must be non-negative, got {self.steps}")
        if self.seed < 0:
            raise ValidationError(f"seed must be non-negative, got {self.seed}")

    @classmethod
    def covering(cls, span: float, step: float, seed: int = 0, renormalize: bool = True):
        """The `_fixed_steps(span, step)` plan; a zero span takes no step, a span not >= 0 fails."""
        if not span >= 0.0:
            raise ValidationError(f"span must be non-negative, got {span:.6g}")
        h, n = _fixed_steps(span, step) if span != 0.0 else (step, 0)
        return cls(step=h, steps=n, seed=seed, renormalize=renormalize)

    @property
    def span(self) -> float:
        return self.step * self.steps

    def check_work(self, n_traj: int) -> None:
        """Refuse n_traj trajectories of this plan beyond MAX_TRAJECTORY_STEPS (see there)."""
        steps = max(self.steps, 1)  # a run of zero steps still holds its n_traj states
        if max(n_traj, MIN_STEP_TRAJECTORIES) * steps > MAX_TRAJECTORY_STEPS:  # exact Python ints
            work = n_traj * steps
            total = f"{work:.3g}" if work < 1e300 else "over 1e+300"
            floor = (f", counted at {MIN_STEP_TRAJECTORIES} trajectories a step,"
                     if n_traj < MIN_STEP_TRAJECTORIES else "")
            raise ValidationError(
                f"n_traj * steps = {n_traj} * {steps} = {total} trajectory-steps{floor} "
                f"exceeds the work ceiling of {MAX_TRAJECTORY_STEPS:.0e}"
            )


def _fixed_steps(span: float, step: float) -> tuple[float, int]:
    """(h, n): the least n >= 1 not below span/step, and h = span/n."""
    if not step > 0.0:
        raise ValidationError(f"step must be positive, got {step:.6g}")
    if not math.isfinite(span / step):
        raise ValidationError(f"span/step = {span:.6g}/{step:.6g} has no finite step count")
    n = max(1, math.ceil(span / step))
    return span / n, n


def coupling_norms(gen: GeneratorSet) -> list[float]:
    """Spectral norms ||L_k^dag L_k|| of the coupling operators."""
    return [float(np.max(np.linalg.eigvalsh(lk.conj().T @ lk))) for lk in gen.Ls]


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron(a, b) for square matrices of one dimension, by broadcasting."""
    d = a.shape[0]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(d * d, d * d)


def liouvillian(gen: GeneratorSet) -> np.ndarray:
    """Superoperator matrix on row-major-vectorized density matrices.

    With vec(rho) = rho.reshape(-1), A rho B maps to (A kron B^T) vec(rho),
    so d vec(rho)/da = liouvillian(gen) @ vec(rho).
    """
    d = gen.dim
    eye = np.eye(d, dtype=np.complex128)
    h = gen.H
    sup = -1j * (_kron(h, eye) - _kron(eye, h.T))
    for lk in gen.Ls:
        ldl = lk.conj().T @ lk
        sup += _kron(lk, lk.conj())
        sup -= 0.5 * _kron(ldl, eye) + 0.5 * _kron(eye, ldl.T)  # halved first: no overflow
    return sup


# Higham, "The scaling and squaring method for the matrix exponential
# revisited", SIAM J. Matrix Anal. Appl. 26 (2005) 1179, table 2.3 and
# eq. (2.2): per degree m, the 1-norm bound theta_m up to which the [m/m]
# Pade approximant has backward error below the unit roundoff 2^-53, and
# the real coefficients b_0..b_m of its numerator.
_PADE = tuple(
    (m, theta, np.array(b, dtype=np.float64))
    for m, theta, b in (
        (3, 1.495585217958292e-2, (120, 60, 12, 1)),
        (5, 2.539398330063230e-1, (30240, 15120, 3360, 420, 30, 1)),
        (7, 9.504178996162932e-1, (17297280, 8648640, 1995840, 277200, 25200, 1512, 56, 1)),
        (9, 2.097847961257068e0, (17643225600, 8821612800, 2075673600, 302702400, 30270240,
                                  2162160, 110880, 3960, 90, 1)),
        (13, 5.371920351148152e0, (64764752532480000, 32382376266240000, 7771770303897600,
                                   1187353796428800, 129060195264000, 10559470521600,
                                   670442572800, 33522128640, 1323241920, 40840800, 960960,
                                   16380, 182, 1)),
    )
)


_THETAS = np.array([theta for _, theta, _ in _PADE])

# offsets propagated per block of stacked calls: bounds the work arrays of
# lindblad_propagate, the largest being the weighted powers b_j c^j L^j of
# _expm, at most 14 * _LINDBLAD_BLOCK * 2d^4 floats (0.92 MB at d = 2)
_LINDBLAD_BLOCK = 256


def _expm(l: np.ndarray, a: np.ndarray, norm: float) -> np.ndarray:
    """exp(a_i l) for one square matrix l, shape (n, n), of 1-norm `norm`,
    and each offset a_i of a, shape (k,), as one stack of shape (k, n, n),
    by Pade scaling and squaring (Higham 2005). Every a_i and a_i * norm
    must be finite and non-negative: `lindblad_propagate` refuses the rest.

    An offset's plan is the least degree m whose theta_m bounds
    c = a_i ||l||_1 / 2^s, with s = 0 unless it exceeds theta_13; the
    approximant of 2^-s a_i l is then squared s times. The approximant is
    q(-x)^-1 q(x) with q(x) = V + U, where V sums b_j c^j L^j over even j
    and U over odd j, L = l / ||l||_1. The powers L^0..L^m are formed once
    per call, up to the largest m of any offset, and the weights and sums are
    elementwise float ufunc calls on their float views (c^j by repeated
    multiplication). Only the stacked solve and the squarings work per
    matrix, so each result is bit for bit the one its offset gives alone.

    For an upper triangular l and s > 0, the diagonal is reset once, after the
    last squaring, to the exact exp(a_i l_jj): the squarings would amplify its
    error 2^s-fold (Al-Mohy & Higham, SIMAX 31 (2009) 970, Fragment 2.1).
    """
    n = l.shape[0]
    norms = a * norm
    degree = (norms[:, None] > _THETAS[:-1]).sum(axis=1)  # index of the least theta >= norm
    frac, s = np.frexp(norms / _THETAS[degree])  # the least s >= 0 with norm <= 2^s theta
    s = np.maximum(s - (frac == 0.5), 0)
    c = np.ldexp(norms, -s)
    plans = degree + len(_PADE) * s
    top = _PADE[degree.max()][0]
    powers = np.empty((top + 1, n, n), dtype=np.complex128)  # L^0 .. L^top
    powers[0] = np.eye(n)
    powers[1].view(np.float64)[...] = l.view(np.float64) / (norm or 1.0)
    k = 1
    while k < top:  # L^(k+1) .. L^2k in one stacked call, each L^j = L^(j-k) L^k
        hi = min(2 * k, top)
        np.matmul(powers[1:hi - k + 1], powers[k], out=powers[k + 1:hi + 1])
        k *= 2
    flat = powers.view(np.float64).reshape(top + 1, 1, 2 * n * n)
    ii = np.arange(n)
    tri = not l[ii[:, None] > ii].any()  # upper triangular
    diag = l.diagonal().copy().view(np.float64)  # re, im of each l_jj
    out = np.empty((a.size, n, n), dtype=np.complex128)
    for plan in sorted(set(plans.tolist())):
        sel = (plans == plan).nonzero()[0]
        squarings, m_index = divmod(plan, len(_PADE))
        m, _, coef = _PADE[m_index]
        cs = np.ones((m + 1, sel.size))
        cs[1:] = c[sel]
        np.multiply.accumulate(cs, axis=0, out=cs)  # c^0 .. c^m, each c^(j-1) * c
        terms = (coef[:, None] * cs)[:, :, None] * flat[:m + 1]  # b_j c^j L^j
        vu = terms[0:2] + terms[2:4]  # V and U, each summed in the order of j
        for j in range(4, m, 2):
            vu += terms[j:j + 2]
        v, u = vu.view(np.complex128).reshape(2, -1, n, n)
        r = np.linalg.solve(v - u, v + u)
        for _ in range(squarings):
            r = r @ r
        if tri and squarings:
            r[:, ii, ii] = np.exp((a[sel, None] * diag).view(np.complex128))
        out[sel] = r
    return out


def _offsets(span) -> np.ndarray:
    """span as an array of offsets, refusing the first that is negative, NaN or infinite."""
    spans = np.asarray(span, dtype=np.float64)
    bad = spans[~((0.0 <= spans) & (spans < math.inf))]
    if bad.size:
        raise ValidationError(f"span must be non-negative, got {bad[0]:.6g}")
    return spans


def lindblad_propagate(
    rho0: np.ndarray,
    gen: GeneratorSet,
    span: float | np.ndarray,
    method: str = "exact",
    step: float | None = None,
) -> np.ndarray:
    """Propagate a density matrix by `span` in the hyperplane offset.

    span is one offset, giving one density matrix, or an array of offsets,
    giving shape span.shape + (d, d); one offset is a 0-d stack on the same
    path, and one path serves every generator. Every input is refused before
    the first block: rho0, method, every offset (>= 0, finite), for `rk4`
    the step, step * ||generator|| <= 1 and every step count span/step (the
    first offset without one named), for `exact` every exponent 1-norm
    span * ||L||_1 (finite, else NumericalError). Each zero offset returns
    rho0 exactly. The others go through one loop in blocks of
    _LINDBLAD_BLOCK, each by stacked numpy calls: the propagators of the
    block, their product with vec(rho0) in one matmul, and one stacked
    validate_density. `exact` exponentiates the block's span*L,
    L = liouvillian(gen), by one `_expm` call, which forms the Pade powers
    of L once per block, and validates to 1e-9. `rk4` takes the
    `_fixed_steps(span, step)` plan of n classical Runge-Kutta steps of h,
    which for this offset-independent generator is exactly P(hL)^n with
    P(x) = 1 + x + x^2/2 + x^3/6 + x^4/24, built per offset by repeated
    squaring, and validates to 1e-6. Without dissipation rk4 runs `exact`
    and needs no step. Both costs grow as d^6; no caller goes above dim 4.
    """
    rho0 = require_density(rho0, "rho0")
    require_same_dim(rho0, gen.H)
    if method not in LINDBLAD_METHODS:
        raise ValidationError(f"method must be 'exact' or 'rk4', got {method!r}")
    spans = _offsets(span)
    rk4 = method == "rk4" and any(np.any(lk) for lk in gen.Ls)  # no dissipator: exact
    if rk4:
        if step is None or not step > 0.0:
            raise ValidationError("rk4 requires a positive step")
        h_norm = float(np.max(np.abs(np.linalg.eigvalsh(gen.H))))
        bound = 2.0 * h_norm + 2.0 * sum(coupling_norms(gen))  # >= the generator's norm
        if step * bound > 1.0:
            raise ValidationError(
                f"step*||generator|| = {step * bound:.3e} > 1; reduce step below {1.0 / bound:.3e}"
            )
        with np.errstate(over="ignore"):  # refused below
            bad = spans[~np.isfinite(spans / step)]
        if bad.size:
            _fixed_steps(float(bad[0]), step)  # raises
    sup = liouvillian(gen)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        norm = float(abs(sup).sum(axis=0).max())
    top = float(spans.max(initial=0.0)) * norm  # the largest exponent 1-norm: inf or nan if any is
    if not rk4 and spans.any() and not math.isfinite(top):
        raise NumericalError(f"exponent 1-norm is {top}: expm(span*L) overflows")
    out = np.empty(spans.shape + rho0.shape, dtype=np.complex128)
    # a zero offset keeps rho0 exactly: the product expm(0) @ vec(rho0) would
    # turn each -0.0 entry of rho0 into +0.0, which a JSON report writes
    out[...] = rho0
    flat, spans = out.reshape((-1,) + rho0.shape), spans.reshape(-1)
    live = spans.nonzero()[0]
    for start in range(0, live.size, _LINDBLAD_BLOCK):
        block = live[start:start + _LINDBLAD_BLOCK]
        if rk4:
            propagators = np.array([_rk4_propagator(sup, x, step) for x in spans[block].tolist()])
        else:
            propagators = _expm(sup, spans[block], norm)
        rhos = (propagators @ rho0.reshape(-1)).reshape(block.shape + rho0.shape)
        flat[block] = validate_density(rhos, 1e-6 if rk4 else TOL)
    return out


def _rk4_propagator(sup: np.ndarray, span: float, step: float) -> np.ndarray:
    """P(hL)^n for the `_fixed_steps(span, step)` plan (h, n), given sup = L."""
    h, n = _fixed_steps(span, step)
    x = sup * h
    eye = np.eye(x.shape[0], dtype=np.complex128)
    # P(x) in Horner form
    one_step = eye + x @ (eye + x @ (eye + x @ (eye + x / 4.0) / 3.0) / 2.0)
    return np.linalg.matrix_power(one_step, n)


def lindblad_exact_twolevel(rho0: np.ndarray, gamma: float, span) -> np.ndarray:
    """Closed form for a two-level system with H = 0, L = sqrt(gamma)|0><0|.

    Populations are constant and each coherence decays by
    exp(-gamma*span/2); serves as the independent oracle for
    lindblad_propagate on the decoherence scenario. span is one offset or
    an array of them, checked as lindblad_propagate checks them, giving
    shape span.shape + (2, 2).
    """
    rho0 = require_square(as_complex(rho0))
    if rho0.shape != (2, 2):
        raise ValidationError(f"closed form is for dim 2, got shape {rho0.shape}")
    if not 0.0 <= gamma < math.inf:
        raise ValidationError(f"gamma must be non-negative, got {gamma:.6g}")
    spans = _offsets(span)
    # math.exp per offset: numpy's vectorized exp may differ from it in the last bit
    decay = np.array([math.exp(-0.5 * gamma * a) for a in spans.ravel().tolist()])
    decay = decay.reshape(spans.shape)
    rho = np.broadcast_to(rho0, spans.shape + (2, 2)).copy()
    rho[..., 0, 1] *= decay
    rho[..., 1, 0] *= decay
    return rho


def decohering_coupling(gamma: float) -> np.ndarray:
    """Two-level coupling operator sqrt(gamma) |0><0| driving pure decoherence."""
    if not 0.0 <= gamma < math.inf:
        raise ValidationError(f"gamma must be non-negative, got {gamma:.6g}")
    lk = np.zeros((2, 2), dtype=np.complex128)
    lk[0, 0] = math.sqrt(gamma)
    return lk


# -- quantum state diffusion --------------------------------------------------


def _sparse_rows(op: np.ndarray) -> tuple:
    """Nonzero entries of a square matrix by row: ((i, ((j, op[i, j]), ...)), ...)."""
    return tuple(
        (i, tuple((j, op[i, j]) for j in range(op.shape[1]) if op[i, j] != 0))
        for i in range(op.shape[0])
    )


def _qsd_ops(gen: GeneratorSet, step: float):
    """The operators of one step as sparse rows, and half the step:
    (G, (L_1, ..., L_K), step/2).

    G keeps every row. Each L_k keeps only its live rows, those with a
    nonzero entry, the only components that enter <L_k> and L_k psi; a zero
    L_k keeps none. G = 1 + step*(-iH - sum_k L_k^dag L_k / 2) holds every
    drift term that is linear in psi; only the <L_k> terms are left to each
    step. step/2 is a complex128 scalar, the value numpy would otherwise
    convert a Python float to on every call.
    """
    d = gen.dim
    ldl_sum = np.zeros((d, d), dtype=np.complex128)
    for lk in gen.Ls:
        ldl_sum += lk.conj().T @ lk
    g = np.eye(d, dtype=np.complex128) + step * (-1j * gen.H - 0.5 * ldl_sum)
    channels = tuple(tuple(row for row in _sparse_rows(lk) if row[1]) for lk in gen.Ls)
    return _sparse_rows(g), channels, np.complex128(0.5 * step)


def _sum_of_products(terms: list, acc: np.ndarray, tmp: np.ndarray, fresh: bool = True) -> list:
    """Calls that set acc to the sum of a*b over the (a, b) of terms, in order,
    or with fresh false add that sum to acc; tmp holds each further product."""
    calls = []
    for a, b in terms:
        if fresh:
            calls.append((np.multiply, (a, b, acc)))
            fresh = False
        else:
            calls += [(np.multiply, (a, b, tmp)), (np.add, (acc, tmp, acc))]
    return calls


class _StepPlan:
    """One Euler-Maruyama step of a batch of states held as columns, shape
    (d, M), as a flat list of (ufunc, args) over buffers made once per run:
    at M = 10^4 fresh temporaries cost more in page faults than in
    arithmetic, and at M = 10^3 a step costs what its calls and the Python
    between them cost, not what its arithmetic does.

    The batch lives in outs, shape (2, d, M): step s reads outs[1 - s % 2]
    and writes outs[s % 2], so `calls` holds one list for each side, and a
    run starts from outs[1]. With G and L_k from ops = `_qsd_ops(gen, step)`
    and dx[k] the (M,) increments of channel k, a step computes
        G psi + sum_k coef_k L_k psi - shift psi,
        half_k = step conj<L_k> / 2 + dx_k,  coef_k = half_k + step conj<L_k> / 2,
        shift = sum_k <L_k> half_k,
    with <L_k> = sum_i conj(psi_i) (L_k psi)_i over the live rows i of L_k,
    and then the norm of every trajectory. Every term that only scales psi_i
    is folded into one (M,) factor per row,
        fac_i = G_ii - shift + sum_k coef_k L_k,ii
    over the rows i of L_k whose only entry is diagonal, and one call takes
    out = cols * fac for the whole batch; off-diagonal entries of G, and the
    rows of L_k with an off-diagonal entry, are added row by row. A zero L_k
    is skipped; without a live channel fac is G's diagonal, filled once.

    Every call is an elementwise ufunc or a copy, so every trajectory sees
    the same operations in the same order whatever the batch size: a column
    is bit-identical to the same trajectory run alone. No complex product is
    taken in place: numpy's in-place complex multiply rounds a length-1
    array differently from a long one.

    Callers run `step` under one np.errstate(over="ignore", invalid="ignore")
    per run: an overflow or NaN shows as a non-finite norm, which it refuses.
    """

    def __init__(self, ops: tuple, outs: np.ndarray, renormalize: bool) -> None:
        g_rows, channels, half_h = ops
        _, d, m = outs.shape
        live = [(k, rows) for k, rows in enumerate(channels) if rows]
        self.outs, self.renormalize = outs, renormalize
        self.dx = dx = np.empty((len(channels), m), dtype=np.complex128)
        self.scale = np.empty(2 * m)
        self.norms = norms = np.empty(m)
        conj, fac = np.empty((2, d, m), dtype=np.complex128)
        lcol = np.empty((len(live), d, m), dtype=np.complex128)
        lexp, coef, half = np.empty((3, len(live), m), dtype=np.complex128)
        tmp, shift = np.empty((2, m), dtype=np.complex128)
        sq = np.empty((d, 2 * m))
        gdiag = np.array([[dict(row).get(i, 0.0)] for i, row in g_rows], dtype=np.complex128)
        if not live:
            fac[...] = gdiag
        folded = [[] for _ in range(d)]  # the (coef_k, L_k,ii) of row i's factor
        added = [[] for _ in range(d)]  # the ((L_k psi)_i, coef_k) added to row i
        for n, (_, rows) in enumerate(live):
            for i, entries in rows:
                if len(entries) == 1 and entries[0][0] == i:
                    folded[i].append((coef[n], entries[0][1]))
                else:
                    added[i].append((lcol[n, i], coef[n]))
        live_rows = sorted({i for _, rows in live for i, _ in rows})

        def side(cols: np.ndarray, out: np.ndarray) -> list:
            calls = [(np.conjugate, (cols[i], conj[i])) for i in live_rows]
            for n, (k, rows) in enumerate(live):
                for i, entries in rows:
                    calls += _sum_of_products([(cols[j], c) for j, c in entries], lcol[n, i], tmp)
                calls += _sum_of_products([(conj[i], lcol[n, i]) for i, _ in rows], lexp[n], tmp)
                calls += [(np.conjugate, (lexp[n], tmp)),
                          (np.multiply, (tmp, half_h, coef[n])),  # step conj<L_k> / 2
                          (np.add, (coef[n], dx[k], half[n])),
                          (np.add, (half[n], coef[n], coef[n]))]
            if live:
                calls += _sum_of_products(list(zip(half, lexp)), shift, tmp)
                calls.append((np.subtract, (gdiag, shift, fac)))
            for i in range(d):
                calls += _sum_of_products(folded[i], fac[i], tmp, fresh=False)
            calls.append((np.multiply, (cols, fac, out)))
            for i, entries in g_rows:
                terms = [(cols[j], c) for j, c in entries if j != i] + added[i]
                calls += _sum_of_products(terms, out[i], tmp, fresh=False)
            # the squares of the float view of the batch, summed over rows and
            # then over each (re, im) pair: one strided add of M entries, where
            # pairs first take one of d*M, and np.add.reduce over pairs 10x as long
            calls.append((np.square, (out.view(np.float64), sq)))
            calls += [(np.add, (sq[0], sq[i], sq[0])) for i in range(1, d)]
            calls += [(np.add, (sq[0, 0::2], sq[0, 1::2], norms)), (np.sqrt, (norms, norms))]
            return calls

        self.calls = (side(outs[1], outs[0]), side(outs[0], outs[1]))

    def step(self, s: int, dxi: np.ndarray) -> np.ndarray:
        """Step s on the increments dxi, shape (K, M); returns outs[s % 2]."""
        np.copyto(self.dx, dxi)
        for ufunc, args in self.calls[s % 2]:
            ufunc(*args)
        norms = self.norms
        # the least norm is NaN if any norm is, and so is the greatest
        worst, peak = float(norms.min()), float(norms.max())
        if worst < ZERO_NORM_FLOOR:
            raise NumericalError(f"trajectory norm collapsed to {worst:.3e} before renormalization")
        if not math.isfinite(peak):
            raise NumericalError(f"trajectory norm is {peak}")
        out = self.outs[s % 2]
        if self.renormalize:
            # divide as floats, each norm laid out twice (for the real and the
            # imaginary part) so that one contiguous division covers the batch,
            # for speed: on a 2-vCPU host 9 us against 15 us for np.divide(out,
            # norms, out) at 10^3 trajectories, 26 against 48-59 us at 5*10^3.
            # Complex division multiplies by 1/norm, which moves the last bits.
            scale = self.scale
            scale[0::2] = norms
            scale[1::2] = norms
            flat = out.view(np.float64)
            np.divide(flat, scale, flat)
        return out


# all that a QSD run reads, refused and counted by `plan_qsd`, so `run_qsd_plan` needs
# nothing else: workers blocks of rows, each run by a process of its own (a split that
# fails runs again as one block), the step's operators `_qsd_ops` and
# coarse = step*max||L_k^dag L_k|| (0.0 without a step or channel)
QsdPlan = NamedTuple("QsdPlan", [("cfg", TrajectoryConfig), ("psi0", np.ndarray), ("first", int),
                                 ("n_traj", int), ("workers", int), ("ops", tuple),
                                 ("coarse", float)])


def plan_qsd(psi0: np.ndarray, gen: GeneratorSet, cfg: TrajectoryConfig, n_traj: int,
             first: int = 0) -> QsdPlan:
    """Plan n_traj trajectories from psi0 on streams first, first + 1, ...: refuse every input,
    the work (`TrajectoryConfig.check_work`) before anything of the run's size is allocated,
    give a large enough ensemble one block of rows per CPU (`_qsd_split`), and form the step's
    operators, all that the run needs of gen."""
    n_traj, first = require_integer(n_traj, "n_traj"), require_integer(first, "stream")
    if n_traj < 1:
        raise ValidationError(f"need at least one trajectory, got {n_traj}")
    psi0 = validate_state(psi0)
    require_same_dim(psi0, gen.H)
    cfg.check_work(n_traj)
    workers = min(_cpu_count(), n_traj // _MIN_BLOCK_TRAJECTORIES,
                  n_traj * cfg.steps // _MIN_BLOCK_WORK)
    norms = coupling_norms(gen)
    coarse = cfg.step * max(norms) if cfg.steps and norms else 0.0  # no step, no error
    with np.errstate(over="ignore", invalid="ignore"):  # a G that overflows is refused per step
        ops = _qsd_ops(gen, cfg.step)
    return QsdPlan(cfg, psi0, first, n_traj, max(workers, 1), ops, coarse)


def run_qsd_plan(plan: QsdPlan, record: bool = False) -> np.ndarray:
    """The final states of a plan, shape (n_traj, dim), or with `record` the path,
    shape (steps + 1, n_traj, dim), from the plan alone. Row m runs on stream
    (cfg.seed, first + m) and is bit-identical whatever the other rows are."""
    if plan.coarse > QSD_STEP_SAFETY:
        warn(f"step*max||L^dag L|| = {plan.coarse:.3g} exceeds {QSD_STEP_SAFETY}; "
             "stochastic integration error may dominate")
    # a fork copies only the calling thread, and with it every lock that
    # another thread holds, which no thread of the child would release
    if record or plan.workers < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return _qsd_block(plan, record)
    return _qsd_split(plan)


def _qsd_block(plan: QsdPlan, record: bool = False) -> np.ndarray:
    """The step loop of `run_qsd_plan` over the plan's rows in this process.

    With K channels, one `rng.wiener_block` call draws the noise of max(1,
    _NOISE_BLOCK_ENTRIES // (M*K)) consecutive steps, whose bits do not
    depend on the block. A refused step raises here, in every process alike:
    a split that fails runs the whole plan again through this one loop.
    """
    cfg, psi0, n_traj, k = plan.cfg, plan.psi0, plan.n_traj, len(plan.ops[1])
    keys = rng.stream_keys(cfg.seed, range(plan.first, plan.first + n_traj))
    outs = np.empty((2, psi0.shape[0], n_traj), dtype=np.complex128)
    cols = outs[1]
    cols[...] = psi0[:, None]
    if record:
        path = np.empty((cfg.steps + 1, n_traj, psi0.shape[0]), dtype=np.complex128)
        path[0] = cols.T
    kernel = _StepPlan(plan.ops, outs, cfg.renormalize)
    block = max(1, _NOISE_BLOCK_ENTRIES // max(1, n_traj * k))
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite norm is refused per step
        for start in range(0, cfg.steps, block):
            noise = rng.wiener_block(keys, start, min(block, cfg.steps - start), k, cfg.step)
            for s, dxi in enumerate(noise, start):
                cols = kernel.step(s, dxi)
                if record:
                    path[s + 1] = cols.T
    return path if record else cols.T


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not offered on every platform
        return os.cpu_count() or 1


def _qsd_split(plan: QsdPlan) -> np.ndarray:
    """`_qsd_block`'s final states of the plan's rows, computed in its
    `workers` contiguous blocks of rows at once: the first in this process,
    each other in a forked child that sends its rows, pickled, through its
    own pipe.

    A split that fails runs again in one process: if a pipe or a fork
    cannot be made, the parent's own block raises an Exception or a child
    exits 1, the parent kills and reaps every child and returns
    `_qsd_block(plan)`, which gives or raises what one process does, since
    no row's bits depend on the split. A refused run thus costs the parent's
    block and then the one-process run to the failing step. A child that
    ends otherwise (a signal, or rows cut short) is not run again, as the
    out-of-memory killer could end the parent next with no message: the
    parent raises MemoryError. On any exception of its own, Ctrl-C
    included, the parent kills and reaps every child before it re-raises.
    SIGINT is blocked while the children are forked, so that none is
    missed, and stays blocked in them: Ctrl-C is the parent's to handle.
    """
    import signal

    bounds = [plan.n_traj * w // plan.workers for w in range(plan.workers + 1)]
    children = []  # (pid, read end of its pipe) of each child not yet reaped
    blocks = []  # each block's final states, in row order
    failed = False
    try:
        try:
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                for lo, hi in zip(bounds[1:-1], bounds[2:]):
                    read, write = os.pipe()
                    pipe = open(read, "rb")
                    try:
                        # a child makes no BLAS or LAPACK call (G is built with @
                        # in plan_qsd, before the fork), so no lock held by the
                        # parent's OpenBLAS threads can stall it. Python 3.12's fork
                        # DeprecationWarning is attributed to this module, so the
                        # default warning filters ignore it.
                        pid = os.fork()
                        if pid == 0:
                            _qsd_child(write, plan._replace(first=plan.first + lo, n_traj=hi - lo))
                    except BaseException:
                        pipe.close()
                        raise
                    finally:
                        os.close(write)
                    children.append((pid, pipe))
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            blocks.append(_qsd_block(plan._replace(n_traj=bounds[1])))
        except Exception:  # no pipe or process left, or the parent's block failed
            failed = True
        while children and not failed:
            pid, pipe = children[0]
            with pipe:
                payload = pipe.read()
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            if os.waitstatus_to_exitcode(status) == 1:  # its block raised
                failed = True
            elif status or not payload:  # a child killed while it writes sends part of it
                raise MemoryError(f"trajectory worker {pid} ended without its result (wait "
                                  f"status {status}), as when the out-of-memory killer ends it")
            else:
                blocks.append(pickle.loads(payload))
    finally:
        for pid, pipe in children:
            os.kill(pid, signal.SIGKILL)
            pipe.close()
        for pid, _ in children:
            os.waitpid(pid, 0)
    if failed:
        return _qsd_block(plan)
    return np.concatenate([b.T for b in blocks], axis=1).T  # laid out as one block's cols.T


def _qsd_child(fd: int, plan: QsdPlan) -> None:
    """A forked worker of `_qsd_split`: sends the final states of
    `_qsd_block(plan)`, pickled, through the pipe fd, or, if that raises,
    exits 1 with nothing written, and the parent runs the plan again. It
    never returns: it leaves through os._exit, which runs no atexit handler
    and flushes no stdio inherited from the parent."""
    code = 1
    try:
        payload = pickle.dumps(_qsd_block(plan))
        with open(fd, "wb") as pipe:
            pipe.write(payload)
        code = 0
    finally:
        os._exit(code)


def qsd_trajectory(
    psi0: np.ndarray,
    gen: GeneratorSet,
    cfg: TrajectoryConfig,
    stream: int = 0,
) -> np.ndarray:
    """Integrate one trajectory; returns the path, shape (steps+1, dim).

    Deterministic given (cfg.seed, stream): the noise at every step is a
    pure function of those, so identical seeds give bit-identical paths.
    """
    return run_qsd_plan(plan_qsd(psi0, gen, cfg, 1, stream), record=True)[:, 0]


def ensemble_final_states(
    psi0: np.ndarray,
    gen: GeneratorSet,
    cfg: TrajectoryConfig,
    n_traj: int,
) -> np.ndarray:
    """Final states of n_traj trajectories, shape (n_traj, dim).

    Trajectory m runs on noise stream (cfg.seed, m); rows are bit-identical
    to qsd_trajectory(..., stream=m) finals regardless of batch size, which
    also makes the ensemble independent of any execution schedule.
    """
    return run_qsd_plan(plan_qsd(psi0, gen, cfg, n_traj))


def ensemble_density(
    psi0: np.ndarray,
    gen: GeneratorSet,
    cfg: TrajectoryConfig,
    n_traj: int,
) -> np.ndarray:
    """Mean projector over n_traj trajectory finals; a valid density matrix."""
    return mean_projector(ensemble_final_states(psi0, gen, cfg, n_traj))


def mean_projector(states: np.ndarray) -> np.ndarray:
    """Mean of |psi><psi| over the rows of states, shape (M, dim); each row is
    normalized first, so the mean has unit trace for unrenormalized runs too."""
    norms = np.sqrt(np.einsum("mi,mi->m", states.conj(), states).real)
    bad = norms[~np.isfinite(norms)]
    if bad.size:
        raise NumericalError(f"final-state norm is not finite: {bad[0]}")
    if np.any(norms < ZERO_NORM_FLOOR):
        raise NumericalError(f"final-state norm collapsed to {float(np.min(norms)):.3e}")
    states = states / norms[:, None]
    rho = np.einsum("mi,mj->ij", states, states.conj()) / len(states)
    return validate_density(rho)


# -- boost transport ----------------------------------------------------------


def boost_transport(state: np.ndarray, gen: GeneratorSet, beta: float) -> np.ndarray:
    """Unitary transport between hyperplane normals for a boost along +x.

    Applies U = exp(-i * atanh(beta) * K_x) to a state vector (U psi) or a
    density matrix (U rho U^dag). A zero K_x gives U = 1 exactly, so the
    transport leaves every value unchanged (only a zero entry's sign may not
    survive): the zeroth-order form of the change of observer.
    """
    state = as_complex(state)
    if beta == 0.0:
        return state.copy()
    lorentz_gamma(beta)  # rejects |beta| >= 1
    k_x = gen.K
    if k_x is None:
        raise ValidationError("no boost generator configured and beta != 0")
    require_same_dim(state, k_x)
    u = expm_generator(k_x, math.atanh(beta))
    if state.ndim == 1:
        return u @ state
    if state.ndim == 2:
        require_square(state)
        return u @ state @ u.conj().T
    raise ValidationError(f"expected a vector or matrix, got shape {state.shape}")
