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
method in numpy (Higham 2005). Fixed-step methods take
n = max(1, ceiling of span/step) equal steps of h = span/n: rk4 through
`_fixed_steps`, the QSD ensembles through `TrajectoryConfig.covering`. One
offset is a 0-d stack of offsets on the same path: the offsets of a
`lindblad_propagate` call run in blocks of `_LINDBLAD_BLOCK`, which bound
its memory. A block takes its propagators (for `exact`, one `_expm` call
over its stack of span*L, where the matrices that share a Pade plan go
through stacked matmul and one stacked solve; for `rk4`, P(hL)^n per
offset), one matmul of the propagators with vec(rho0) and one stacked
`validate_density`. Every stacked numpy call runs the same per-matrix
arithmetic, so each density is bit for bit the one its offset gives alone.

The unraveling is the standard quantum-state-diffusion Ito form with one
complex Wiener process per coupling operator: drift
(<L^dag>L - L^dag L/2 - <L^dag><L>/2) psi and diffusion (L - <L>) psi per
channel, integrated by Euler-Maruyama with optional per-step renormalization.
The increments are the two-point ones of `rng` (the simplified weak Euler
scheme), so a `qsd_trajectory` path is a weak-scheme path, not a strong
approximation of a QSD path: only ensemble means and other expectations
converge, at weak order 1, and those are all any report reads.
One plain loop (`_qsd_block`, run by `_qsd_run`) advances every
trajectory under one np.errstate context per run; `qsd_trajectory` has it
record the path and `ensemble_final_states` takes the final batch. The batch is held as
columns, shape (dim, M), so component i of every trajectory is one
contiguous row. The drift terms linear in psi are folded
into one matrix G = 1 + step*(-iH - sum_k L_k^dag L_k / 2), built once per
run; a step applies G and each L_k entry by entry to whole rows and adds
the <L_k> terms, all with preallocated buffers. The noise of several steps
is drawn in one `rng.wiener_block` call, whose fixed cost would otherwise
dominate a small batch's step. Every operation is an elementwise numpy
ufunc over rows of length M, and none is an in-place complex product (whose
rounding depends on the length), so a trajectory's arithmetic, and its
result to the last bit, does not depend on the batch it runs in.

A large final-state ensemble (not a recorded path) runs on every CPU the
process may use: `_qsd_split` cuts its rows into one contiguous block per
CPU, forks a child for each block but the first, and runs the first
itself; each child runs the same step loop (`_qsd_block`) on its streams
and writes its rows into a shared map. A row's noise is a pure function of
its stream and its arithmetic does not depend on its batch, so neither
does any bit of the result depend on the split: the final states, and
every report made from them, are the same for any number of workers.
Errors behave as in one process (see `_qsd_split`).
"""

from __future__ import annotations

import math
import os
import pickle
import threading
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import (
    DimMismatch,
    MissingBoostGenerator,
    NumericalError,
    StepTooLarge,
    ValidationError,
    ZeroNorm,
    warn,
)
from .foliation import lorentz_gamma
from .linalg import (
    TOL,
    ZERO_NORM_FLOOR,
    as_complex,
    expm_generator,
    require_density,
    require_hermitian,
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
# least MIN_STEP_TRAJECTORIES trajectories: 4-10 min in one process at any
# batch size on a 2-vCPU host, where a trajectory-step costs 29-56 ns from
# 10^3 to 2*10^4 trajectories; an ensemble split over that host's two CPUs
# (see _MIN_BLOCK_WORK) takes about 0.57 of that, so 2.5-6 min
MAX_TRAJECTORY_STEPS = 10**10

# the fixed cost of a QSD step in one process, in trajectories: on the same
# host a step of 1 to 100 trajectories takes 23-36 us, as long as about 10^3
# more trajectories at 29-39 ns each (from 4*10^3 to 2*10^4)
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
# Two blocks against one on a 2-vCPU host (dephasing model, step 0.01,
# medians of 7 alternating runs): 10^3 trajectories x 3000 steps 154 -> 151
# ms and 200 x 20000 steps 635 -> 589 ms, as a step of fewer than about 10^3
# trajectories costs about the same whatever its size, but 1500 x 3000
# 268 -> 209 ms; 10^4 x 100 34 -> 41 ms and 2000 x 200 19 -> 32 ms, as a
# fork and its copy-on-write page faults cost about 20 ms, but 10^4 x 400
# 184 -> 104 ms and 10^4 x 3000 1.08 -> 0.62 s.
_MIN_BLOCK_TRAJECTORIES = 1000
_MIN_BLOCK_WORK = 2 * 10**6


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
                raise DimMismatch(f"K shape {k.shape} != H shape {h.shape}")
            object.__setattr__(self, "K", _readonly(k))
        ls = []
        for i, lk in enumerate(self.Ls):
            lk = require_square(as_complex(lk))
            if lk.shape != h.shape:
                raise DimMismatch(f"L[{i}] shape {lk.shape} != H shape {h.shape}")
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
        if self.step <= 0.0:
            raise ValidationError(f"step must be positive, got {self.step:.6g}")
        if self.steps < 0:
            raise ValidationError(f"steps must be non-negative, got {self.steps}")
        if self.seed < 0:
            raise ValidationError(f"seed must be non-negative, got {self.seed}")

    @classmethod
    def covering(cls, span: float, step: float, seed: int = 0, renormalize: bool = True):
        """The `_fixed_steps(span, step)` plan; a zero span takes zero steps of step."""
        h, n = _fixed_steps(span, step) if span != 0.0 else (step, 0)
        return cls(step=h, steps=n, seed=seed, renormalize=renormalize)

    @property
    def span(self) -> float:
        return self.step * self.steps


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


def generator_norm_bound(gen: GeneratorSet) -> float:
    """Upper bound on the spectral norm of the full Lindblad generator."""
    h_norm = float(np.max(np.abs(np.linalg.eigvalsh(gen.H)))) if gen.dim else 0.0
    return 2.0 * h_norm + 2.0 * sum(coupling_norms(gen))


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
# the coefficients b_0..b_m of its numerator as two rows, even b_2j and
# odd b_2j+1.
_PADE = tuple(
    (m, theta, np.array(b, dtype=np.complex128).reshape(-1, 2).T)
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
# lindblad_propagate, the largest being the Pade powers of _expm, at most
# 7 * _LINDBLAD_BLOCK * d^4 complex entries (0.46 MB at d = 2)
_LINDBLAD_BLOCK = 256


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) for a square matrix or a stack of them, shape (..., n, n), by Pade
    scaling and squaring (Higham 2005).

    Each matrix takes the least degree m whose theta_m bounds its ||a||_1;
    above theta_13, it is scaled by 2^-s into range and the approximant
    squared s times. The matrices that share a plan (m, s) go through
    together, by stacked matmul and one stacked solve, so each result is bit
    for bit the one its matrix gives alone.
    """
    n = a.shape[-1]
    stack = a.reshape(-1, n, n)
    norms = abs(stack).sum(axis=1).max(axis=1, initial=0.0)
    if not math.isfinite(norms.max(initial=0.0)):
        bad = norms[~np.isfinite(norms)][0]
        raise NumericalError(f"exponent 1-norm is {bad}: expm(span*L) overflows")
    degree = (norms[:, None] > _THETAS[:-1]).sum(axis=1)  # index of the least theta >= norm
    frac, s = np.frexp(norms / _THETAS[degree])  # the least s >= 0 with norm <= 2^s theta
    s = np.maximum(s - (frac == 0.5), 0)
    stack = stack / np.ldexp(1.0, s)[:, None, None]
    plans = degree + len(_PADE) * s
    out = np.empty_like(stack)
    for plan in sorted(set(plans.tolist())):
        sel = (plans == plan).nonzero()[0]
        out[sel] = _expm_plan(stack[sel], *divmod(plan, len(_PADE)))
    return out.reshape(a.shape)


def _expm_plan(a: np.ndarray, s: int, m_index: int) -> np.ndarray:
    """exp(2^s a) for a stack a, shape (B, n, n), whose matrices share s
    squarings and the [m/m] Pade approximant of _PADE[m_index].

    The approximant is q(-a)^-1 q(a) with q(a) = V + U, V the even and U the
    odd part of its numerator. For an upper triangular matrix with s > 0,
    the diagonal is reset to the exact exp(2^j diag(a)) before and after
    each squaring, which would amplify its error 2^s-fold (Al-Mohy & Higham,
    SIMAX 31 (2009) 970, Fragment 2.1).
    """
    m, _, coef = _PADE[m_index]
    b, n = a.shape[0], a.shape[-1]
    k = m // 2 + 1
    powers = np.empty((b, k, n, n), dtype=np.complex128)  # 1, a^2, a^4, ..., a^(m-1)
    powers[:, 0] = np.eye(n)
    np.matmul(a, a, out=powers[:, 1])
    for j in range(2, k):
        np.matmul(powers[:, j - 1], powers[:, 1], out=powers[:, j])
    even_odd = coef @ powers.reshape(b, k, n * n)
    v, odd = even_odd[:, 0].reshape(b, n, n), even_odd[:, 1].reshape(b, n, n)
    u = a @ odd
    r = np.linalg.solve(v - u, v + u)
    tri = np.zeros(b, dtype=bool)
    if s:
        lower = np.arange(n)[:, None] > np.arange(n)
        tri = ~a[:, lower].any(axis=1)  # upper triangular
    diag_a = a.diagonal(axis1=1, axis2=2)[tri]
    for j in range(s + 1):
        r = r @ r if j else r  # a fresh C-ordered array, so the reshape below is a view
        if diag_a.size:
            r.reshape(b, n * n)[:, :: n + 1][tri] = np.exp(diag_a * 2.0**j)
    return r


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
    path, and one path serves every generator. rho0, method, every offset's
    sign and the rk4 step are checked first; each zero offset returns rho0
    exactly. The other offsets go through in blocks of _LINDBLAD_BLOCK, each
    by stacked numpy calls: the propagators of the block, their product with
    vec(rho0) in one matmul, and one stacked validate_density. `exact`
    exponentiates every span*L, L = liouvillian(gen), in one `_expm` call
    and validates to 1e-9. `rk4` takes the `_fixed_steps(span, step)` plan
    of n classical Runge-Kutta steps of h, which for this offset-independent
    generator is exactly P(hL)^n with P(x) = 1 + x + x^2/2 + x^3/6 + x^4/24,
    built per offset by repeated squaring; it requires step * ||generator||
    <= 1 and validates to 1e-6. Without dissipation rk4 runs `exact` and
    needs no step. Both costs grow as d^6; no caller goes above dim 4.
    """
    rho0 = require_density(rho0, "rho0")
    require_same_dim(rho0, gen.H)
    if method not in LINDBLAD_METHODS:
        raise ValidationError(f"unknown method {method!r}, expected 'exact' or 'rk4'")
    spans = np.asarray(span, dtype=np.float64)
    negative = spans[spans < 0.0]
    if negative.size:
        raise ValidationError(f"span must be non-negative, got {negative[0]:.6g}")
    rk4 = method == "rk4" and any(np.any(lk) for lk in gen.Ls)  # no dissipator: exact
    if rk4:
        if step is None or step <= 0.0:
            raise ValidationError("rk4 requires a positive step")
        bound = generator_norm_bound(gen)
        if step * bound > 1.0:
            raise StepTooLarge(
                f"step*||generator|| = {step * bound:.3e} > 1; reduce step below {1.0 / bound:.3e}"
            )
    out = np.empty(spans.shape + rho0.shape, dtype=np.complex128)
    # a zero offset keeps rho0 exactly: the product expm(0) @ vec(rho0) would
    # turn each -0.0 entry of rho0 into +0.0, which a JSON report writes
    out[...] = rho0
    flat, spans = out.reshape((-1,) + rho0.shape), spans.reshape(-1)
    live = spans.nonzero()[0]
    sup = liouvillian(gen)
    for start in range(0, live.size, _LINDBLAD_BLOCK):
        block = live[start:start + _LINDBLAD_BLOCK]
        a = spans[block]
        if rk4:
            propagators = np.array([_rk4_propagator(sup, x, step) for x in a.tolist()])
        else:
            with np.errstate(over="ignore", invalid="ignore"):  # _expm refuses a non-finite product
                propagators = _expm(sup * a[:, None, None])
        rhos = (propagators @ rho0.reshape(-1)).reshape(a.shape + rho0.shape)
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
    an array of them, giving shape span.shape + (2, 2).
    """
    rho0 = require_square(as_complex(rho0))
    if rho0.shape != (2, 2):
        raise DimMismatch(f"closed form is for dim 2, got shape {rho0.shape}")
    if gamma < 0.0:
        raise ValidationError(f"gamma must be non-negative, got {gamma:.6g}")
    spans = np.asarray(span, dtype=np.float64)
    # math.exp per offset: numpy's vectorized exp may differ from it in the last bit
    decay = np.array([math.exp(-0.5 * gamma * a) for a in spans.ravel().tolist()])
    decay = decay.reshape(spans.shape)
    rho = np.broadcast_to(rho0, spans.shape + (2, 2)).copy()
    rho[..., 0, 1] *= decay
    rho[..., 1, 0] *= decay
    return rho


def decohering_coupling(gamma: float) -> np.ndarray:
    """Two-level coupling operator sqrt(gamma) |0><0| driving pure decoherence."""
    if gamma < 0.0:
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
    """The operators of one step as sparse rows, and the step and its half:
    (G, (L_1, ..., L_K), step, step/2).

    G keeps every row. Each L_k keeps only its live rows, those with a
    nonzero entry, the only components that enter <L_k> and L_k psi; a zero
    L_k keeps none. G = 1 + step*(-iH - sum_k L_k^dag L_k / 2) holds every
    drift term that is linear in psi; only the <L_k> terms are left to each
    step. step and step/2 are complex128 scalars, the values numpy would
    otherwise convert a Python float to on every call.
    """
    d = gen.dim
    ldl_sum = np.zeros((d, d), dtype=np.complex128)
    for lk in gen.Ls:
        ldl_sum += lk.conj().T @ lk
    g = np.eye(d, dtype=np.complex128) + step * (-1j * gen.H - 0.5 * ldl_sum)
    channels = tuple(tuple(row for row in _sparse_rows(lk) if row[1]) for lk in gen.Ls)
    return _sparse_rows(g), channels, np.complex128(step), np.complex128(0.5 * step)


def _apply(rows: tuple, cols: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> None:
    """out[i] = (op @ cols)[i] for columns cols, shape (d, M), and each sparse
    row (i, entries) of op; a row without entries gives zeros."""
    for i, row in rows:
        acc = out[i]
        if not row:
            acc[...] = 0.0
            continue
        (j, c), *rest = row
        np.multiply(cols[j], c, acc)
        for j, c in rest:
            acc += np.multiply(cols[j], c, tmp)


class _StepBuffers:
    """Scratch arrays of `_qsd_step_batch` for a (d, M) batch, made once per
    run: at M = 10^4 fresh temporaries cost more in page faults than in
    arithmetic."""

    def __init__(self, d: int, m: int) -> None:
        self.lcol = np.empty((d, m), dtype=np.complex128)
        self.tmp, self.conj, self.lexp, self.lexp_c, self.coef, self.shift = np.empty(
            (6, m), dtype=np.complex128
        )
        self.sq = np.empty((d, 2 * m))
        self.norms = np.empty(m)
        self.scale = np.empty(2 * m)


def _qsd_step_batch(
    cols: np.ndarray,
    out: np.ndarray,
    ops: tuple,
    dxi,
    renormalize: bool,
    buf: _StepBuffers,
) -> np.ndarray:
    """One Euler-Maruyama step on a batch of states held as columns, shape (d, M).

    With G and L_k from ops = `_qsd_ops(gen, step)` and dxi[k] the (M,)
    increments of channel k, writes into `out` (not `cols`) and returns it:
        G psi + sum_k (step conj<L_k> + dxi_k) L_k psi
              - sum_k <L_k> (step conj<L_k> / 2 + dxi_k) psi,
    with <L_k> = sum_i conj(psi_i) (L_k psi)_i over the live rows i of L_k.
    Each term is a ufunc over one component row of the batch, scaled by an
    operator entry (exact zeros skipped) or by another (M,) row, so every
    trajectory sees the same elementwise operations in the same order
    whatever the batch size: a column is bit-identical to the same
    trajectory run alone. No complex product is taken in place: numpy's
    in-place complex multiply rounds a length-1 array differently from a
    long one.

    <L_k> starts from its first live term, not from zeros, so it may hold a
    -0.0 that +0.0 + term would have made +0.0. With nonzero increments that
    sign reaches `out` only through `shift`, which still starts from +0.0 and
    so holds no -0.0 either way: every bit of `out` is as before. A zero L_k
    is skipped, as its terms would only add signed zeros to `shift`.

    Callers run it under one np.errstate(over="ignore", invalid="ignore") per
    run: an overflow or NaN shows as a non-finite norm, which it refuses.
    """
    g_rows, channels, h, half_h = ops
    d = cols.shape[0]
    tmp, conj = buf.tmp, buf.conj
    _apply(g_rows, cols, out, tmp)
    lcol, lexp, lexp_c, coef, shift = buf.lcol, buf.lexp, buf.lexp_c, buf.coef, buf.shift
    shift[...] = 0.0
    for rows, dx in zip(channels, dxi):
        if not rows:
            continue
        _apply(rows, cols, lcol, tmp)
        (i, _), *rest = rows
        np.multiply(np.conjugate(cols[i], conj), lcol[i], lexp)
        for i, _ in rest:
            lexp += np.multiply(np.conjugate(cols[i], conj), lcol[i], tmp)
        np.conjugate(lexp, lexp_c)
        np.multiply(lexp_c, h, coef)
        coef += dx
        for i, _ in rows:
            acc = out[i]
            acc += np.multiply(lcol[i], coef, tmp)
        np.multiply(lexp_c, half_h, coef)
        coef += dx
        shift += np.multiply(coef, lexp, tmp)
    for i in range(d):
        acc = out[i]
        acc -= np.multiply(cols[i], shift, tmp)
    sq = np.square(out.view(np.float64), buf.sq)  # re^2, im^2 interleaved
    norms = np.add(sq[0, 0::2], sq[0, 1::2], buf.norms)
    for i in range(1, d):
        norms += sq[i, 0::2]
        norms += sq[i, 1::2]
    np.sqrt(norms, norms)
    _check_norms(float(norms.min()), float(norms.max()))
    if renormalize:
        # divide as floats: faster than complex division, and numpy's
        # broadcast complex-by-real division rounds a one-trajectory batch
        # differently from a long one. Each norm is laid out twice, for the
        # real and the imaginary part, so that one contiguous division
        # covers the batch; strided division is slower.
        scale = buf.scale
        scale[0::2] = norms
        scale[1::2] = norms
        flat = out.view(np.float64)
        np.divide(flat, scale, flat)
    return out


def _check_norms(worst: float, peak: float) -> None:
    """Refuse a step whose least trajectory norm is below ZERO_NORM_FLOOR or
    whose greatest is not finite; both are NaN if any norm is NaN."""
    if worst < ZERO_NORM_FLOOR:
        raise ZeroNorm(f"trajectory norm collapsed to {worst:.3e} before renormalization")
    if not math.isfinite(peak):
        raise NumericalError(f"trajectory norm is {peak}")


def _qsd_run(psi0: np.ndarray, gen: GeneratorSet, cfg: TrajectoryConfig, n_traj: int,
             first: int = 0, record: bool = False) -> np.ndarray:
    """Run n_traj trajectories from psi0 on noise streams first, first + 1, ...;
    returns the final states, shape (n_traj, dim), or with `record` the
    path, shape (steps + 1, n_traj, dim).

    Row m runs on stream (cfg.seed, first + m) and is bit-identical whatever
    the other rows are. Before anything of the run's size is allocated, the
    call refuses more than MAX_TRAJECTORY_STEPS trajectory-steps, counting
    at least one step and MIN_STEP_TRAJECTORIES trajectories a step. The
    final states of a large enough ensemble run in one contiguous block of
    rows per CPU (`_qsd_split`, see _MIN_BLOCK_WORK); everything else runs
    `_qsd_block` in this process.
    """
    if n_traj < 1:
        raise ValidationError(f"need at least one trajectory, got {n_traj}")
    psi0 = validate_state(psi0)
    require_same_dim(psi0, gen.H)
    steps = max(cfg.steps, 1)  # a run of zero steps still holds its n_traj states
    if max(n_traj, MIN_STEP_TRAJECTORIES) * steps > MAX_TRAJECTORY_STEPS:  # exact Python ints
        work = n_traj * steps
        total = f"{work:.3g}" if work < 1e300 else "over 1e+300"
        floor = (f", counted at {MIN_STEP_TRAJECTORIES} trajectories a step,"
                 if n_traj < MIN_STEP_TRAJECTORIES else "")
        raise ValidationError(
            f"n_traj * steps = {n_traj} * {steps} = {total} trajectory-steps{floor} "
            f"exceeds the work ceiling of {MAX_TRAJECTORY_STEPS:.0e}"
        )
    norms = coupling_norms(gen)
    if norms and cfg.step * max(norms) > QSD_STEP_SAFETY:
        warn(f"step*max||L^dag L|| = {cfg.step * max(norms):.3g} exceeds {QSD_STEP_SAFETY}; "
             "stochastic integration error may dominate")
    ops = _qsd_ops(gen, cfg.step)
    workers = min(_cpu_count(), n_traj // _MIN_BLOCK_TRAJECTORIES,
                  n_traj * cfg.steps // _MIN_BLOCK_WORK)
    # a fork copies only the calling thread, and with it every lock that
    # another thread holds, which no thread of the child would release
    if record or workers < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return _qsd_block(psi0, ops, cfg, first, n_traj, record)
    return _qsd_split(psi0, ops, cfg, first, n_traj, workers)


def _qsd_block(psi0: np.ndarray, ops: tuple, cfg: TrajectoryConfig, first: int, n_traj: int,
               record: bool = False) -> np.ndarray:
    """The step loop of `_qsd_run` over streams first ... first + n_traj - 1,
    with the same result.

    With K channels, one `rng.wiener_block` call draws the noise of max(1,
    _NOISE_BLOCK_ENTRIES // (M*K)) consecutive steps, whose bits do not
    depend on the block. A step refused by `_check_norms` raises its error
    with the attribute `refused` = (step index, least norm, greatest norm),
    which `_qsd_split` merges across blocks.
    """
    k = len(ops[1])
    keys = rng.stream_keys(cfg.seed, range(first, first + n_traj))
    cols = np.repeat(psi0[:, None], n_traj, axis=1)
    if record:
        path = np.empty((cfg.steps + 1, n_traj, psi0.shape[0]), dtype=np.complex128)
        path[0] = cols.T
    outs = np.empty((2,) + cols.shape, dtype=np.complex128)
    buf = _StepBuffers(*cols.shape)
    block = max(1, _NOISE_BLOCK_ENTRIES // max(1, n_traj * k))
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite norm is refused per step
            for start in range(0, cfg.steps, block):
                noise = rng.wiener_block(keys, start, min(block, cfg.steps - start), k, cfg.step)
                for s, dxi in enumerate(noise, start):
                    cols = _qsd_step_batch(cols, outs[s % 2], ops, dxi, cfg.renormalize, buf)
                    if record:
                        path[s + 1] = cols.T
    except NumericalError as exc:  # only _check_norms raises one here
        exc.refused = (s, float(buf.norms.min()), float(buf.norms.max()))
        raise
    return path if record else cols.T


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not offered on every platform
        return os.cpu_count() or 1


def _qsd_split(psi0: np.ndarray, ops: tuple, cfg: TrajectoryConfig, first: int, n_traj: int,
               workers: int) -> np.ndarray:
    """`_qsd_block`'s final states of n_traj trajectories, computed in
    `workers` contiguous blocks of rows at once: the first in this process,
    each other in a forked child that writes its rows into a shared map.

    A child sends any exception through its own pipe. After its own block,
    the parent reaps every child in turn, then raises as one block would:
    an error other than a refused step first, else the refusal of the
    earliest step, checked again on the merged norms of every block refused
    at that step. On any exception of its own, Ctrl-C included, the parent
    kills and reaps every child before it re-raises. SIGINT is blocked while
    the children are forked, so that none is missed, and stays blocked in
    them: Ctrl-C is the parent's to handle.
    """
    import mmap
    import signal

    d = psi0.shape[0]
    try:
        shared = mmap.mmap(-1, d * n_traj * 16)
    except OSError as exc:  # ENOMEM: a run too large to allocate, not a failed report write
        raise MemoryError(f"cannot map the final states of {n_traj} trajectories: "
                          f"{exc.strerror or exc}") from exc
    finals = np.frombuffer(shared, dtype=np.complex128).reshape(d, n_traj)
    bounds = [n_traj * w // workers for w in range(workers + 1)]
    children = []  # (pid, read end of its pipe) of each child not yet reaped
    errors = []
    try:
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            for lo, hi in zip(bounds[1:-1], bounds[2:]):
                read, write = os.pipe()
                pipe = open(read, "rb")
                try:
                    pid = os.fork()
                    if pid == 0:
                        _qsd_child(write, finals[:, lo:hi], psi0, ops, cfg, first + lo, hi - lo)
                except BaseException:
                    pipe.close()
                    raise
                finally:
                    os.close(write)
                children.append((pid, pipe))
        except OSError as exc:  # no pipe or process left: as a failed allocation
            raise MemoryError(f"cannot start a trajectory worker: {exc.strerror or exc}") from exc
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        try:
            finals[:, :bounds[1]] = _qsd_block(psi0, ops, cfg, first, bounds[1]).T
        except NumericalError as exc:
            if not hasattr(exc, "refused"):
                raise
            errors.append(exc)
        while children:
            pid, pipe = children[0]
            with pipe:
                payload = pipe.read()
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            if payload:
                errors.append(pickle.loads(payload))
            elif status:
                raise MemoryError(f"trajectory worker {pid} ended without its result (wait "
                                  f"status {status}), as when the out-of-memory killer ends it")
    except BaseException:
        for pid, pipe in children:
            os.kill(pid, signal.SIGKILL)
            pipe.close()
        for pid, _ in children:
            os.waitpid(pid, 0)
        raise
    others = [exc for exc in errors if not hasattr(exc, "refused")]
    if others:
        raise others[0]
    if errors:
        step = min(exc.refused[0] for exc in errors)
        at = np.array([exc.refused[1:] for exc in errors if exc.refused[0] == step])
        _check_norms(float(np.min(at[:, 0])), float(np.max(at[:, 1])))  # raises
    return finals.copy().T  # a private array, laid out as one block's final states


def _qsd_child(fd: int, out: np.ndarray, *block) -> None:
    """A forked worker of `_qsd_split`: runs `_qsd_block(*block)` into out
    and sends any exception, pickled, through the pipe fd. It never returns:
    it leaves through os._exit, which runs no atexit handler and flushes no
    stdio inherited from the parent."""
    code = 1
    try:
        try:
            out[...] = _qsd_block(*block).T
            payload = b""
        except BaseException as exc:
            payload = pickle.dumps(exc)
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
    return _qsd_run(psi0, gen, cfg, 1, stream, record=True)[:, 0]


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
    return _qsd_run(psi0, gen, cfg, n_traj)


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
    if np.any(norms < ZERO_NORM_FLOOR):
        raise ZeroNorm(f"final-state norm collapsed to {float(np.min(norms)):.3e}")
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
        raise MissingBoostGenerator("no boost generator configured and beta != 0")
    require_same_dim(state, k_x)
    u = expm_generator(k_x, math.atanh(beta))
    if state.ndim == 1:
        return u @ state
    if state.ndim == 2:
        require_square(state)
        return u @ state @ u.conj().T
    raise DimMismatch(f"expected a vector or matrix, got shape {state.shape}")
