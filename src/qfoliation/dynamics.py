"""Propagators for hyperplane-foliated open-system dynamics.

Three transports act on a state:

* deterministic completely-positive evolution of the density matrix along
  the hyperplane offset a (`lindblad_propagate`),
* its stochastic pure-state unraveling along a (`qsd_step`,
  `qsd_trajectory`, `ensemble_density`), whose ensemble mean reproduces
  the density-matrix evolution,
* unitary transport between hyperplane normals, i.e. boosts
  (`boost_transport`).

The Lindblad generator has one encoding, the superoperator `liouvillian`.
Both Lindblad methods are a matrix applied to vec(rho): expm(span*L) for
`exact`, and for `rk4` the Runge-Kutta polynomial P(hL)^n, which equals n
classical RK4 steps of h because L does not depend on a. The exponential is
`_expm`, a Pade scaling-and-squaring method in numpy (Higham 2005). Fixed-step
methods take n = max(1, ceiling of span/step) equal steps of h = span/n: rk4
through `_fixed_steps`, the QSD ensembles through `TrajectoryConfig.covering`.

The unraveling is the standard quantum-state-diffusion Ito form with one
complex Wiener process per coupling operator: drift
(<L^dag>L - L^dag L/2 - <L^dag><L>/2) psi and diffusion (L - <L>) psi per
channel, integrated by Euler-Maruyama with optional per-step renormalization.
One loop (`_qsd_batches`) advances every trajectory; `qsd_trajectory`
records its path and `ensemble_final_states` keeps only the last batch.
The batch is held as columns, shape (dim, M), so component i of every
trajectory is one contiguous row. The drift terms linear in psi are folded
into one matrix G = 1 + step*(-iH - sum_k L_k^dag L_k / 2), built once per
run; a step applies G and each L_k entry by entry to whole rows and adds
the <L_k> terms, all with preallocated buffers. Every operation is an
elementwise numpy ufunc over rows of length M, and none is an in-place
complex product (whose rounding depends on the length), so a trajectory's
arithmetic, and its result to the last bit, does not depend on the batch it
runs in.
"""

from __future__ import annotations

import math
import warnings
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
)
from .foliation import lorentz_gamma
from .linalg import (
    _ZERO_NORM_FLOOR,
    TOL,
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


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.complex128)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class GeneratorSet:
    """Hamiltonian H, boost generator Ks (at most one), coupling operators Ls.

    Only the boost along +x is implemented, so Ks is () or (K_x,). H and
    K_x must be Hermitian; all operators share one dimension. Arrays are
    stored as read-only copies so a set can be shared across threads and
    ensembles safely.
    """

    H: np.ndarray
    Ks: tuple = ()
    Ls: tuple = ()

    def __post_init__(self) -> None:
        h = require_hermitian(self.H, "H")
        object.__setattr__(self, "H", _readonly(h))
        if len(self.Ks) > 1:
            raise ValidationError(f"only the +x boost generator is implemented, got {len(self.Ks)}")
        ks = []
        for i, k in enumerate(self.Ks):
            k = require_hermitian(k, f"K[{i}]")
            if k.shape != h.shape:
                raise DimMismatch(f"K[{i}] shape {k.shape} != H shape {h.shape}")
            ks.append(_readonly(k))
        object.__setattr__(self, "Ks", tuple(ks))
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
        sup -= 0.5 * (_kron(ldl, eye) + _kron(eye, ldl.T))
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


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) for a square matrix, by Pade scaling and squaring (Higham 2005).

    The degree is the least m whose theta_m bounds ||a||_1; above theta_13,
    a is scaled by 2^-s into range and the approximant squared s times. The
    [m/m] approximant is q(-a)^-1 q(a) with q(a) = V + U, V the even and U
    the odd part of its numerator. For an upper triangular a with s > 0, the
    diagonal is reset to the exact exp(2^-j diag(a)) before and after each squaring,
    which would amplify its error 2^s-fold (Al-Mohy & Higham, SIMAX 31 (2009) 970,
    Fragment 2.1).
    """
    n = a.shape[0]
    norm = float(np.abs(a).sum(axis=0).max())
    if not math.isfinite(norm):
        raise NumericalError(f"exponent 1-norm is {norm}: expm(span*L) overflows")
    m, theta, coef = next((p for p in _PADE if norm <= p[1]), _PADE[-1])
    frac, s = math.frexp(norm / theta)  # the least s >= 0 with norm <= 2^s theta
    s = max(0, s - (frac == 0.5))
    a = a / 2.0**s
    triangular = s > 0 and not any(np.count_nonzero(a[i, :i]) for i in range(1, n))  # upper
    powers = np.empty((m // 2 + 1, n, n), dtype=np.complex128)  # 1, a^2, a^4, ..., a^(m-1)
    powers[0] = np.eye(n)
    np.matmul(a, a, out=powers[1])
    for j in range(2, len(powers)):
        np.matmul(powers[j - 1], powers[1], out=powers[j])
    v, odd = (coef @ powers.reshape(len(powers), -1)).reshape(2, n, n)
    u = a @ odd
    r = np.linalg.solve(v - u, v + u)
    for j in range(s + 1):
        r = r @ r if j else r
        if triangular:
            r.flat[:: n + 1] = np.exp(a.diagonal() * 2.0**j)
    return r


def lindblad_propagate(
    rho0: np.ndarray,
    gen: GeneratorSet,
    span: float,
    method: str = "exact",
    step: float | None = None,
) -> np.ndarray:
    """Propagate a density matrix by `span` in the hyperplane offset.

    Both methods build the d^2 x d^2 superoperator L = liouvillian(gen).
    `exact` applies expm(span*L) and validates to 1e-9. `rk4` takes the
    `_fixed_steps(span, step)` plan of n classical Runge-Kutta steps of h,
    which for this offset-independent generator is exactly
    P(hL)^n vec(rho0) with P(x) = 1 + x + x^2/2 + x^3/6 + x^4/24, applied by
    repeated squaring; it requires step * ||generator|| <= 1 and validates
    to 1e-6. Both costs grow as d^6; no caller goes above dim 4.
    """
    rho0 = require_density(rho0, "rho0")
    require_same_dim(rho0, gen.H)
    return _lindblad_apply(rho0, gen, liouvillian(gen), span, method, step)


def _lindblad_apply(
    rho0: np.ndarray,
    gen: GeneratorSet,
    sup: np.ndarray,
    span: float,
    method: str,
    step: float | None,
) -> np.ndarray:
    """`lindblad_propagate` of a validated rho0 of dimension gen.dim, given
    sup = liouvillian(gen): a caller propagating one state to many offsets
    builds L and checks rho0 once."""
    if method not in LINDBLAD_METHODS:
        raise ValidationError(f"unknown method {method!r}, expected 'exact' or 'rk4'")
    if span < 0.0:
        raise ValidationError(f"span must be non-negative, got {span:.6g}")
    if span == 0.0:
        return rho0.copy()
    if not any(np.any(lk) for lk in gen.Ls):
        # vanishing dissipator: evolution is exactly unitary
        u = expm_generator(gen.H, span)
        return u @ rho0 @ u.conj().T

    if method == "exact":
        with np.errstate(over="ignore", invalid="ignore"):  # _expm refuses a non-finite product
            exponent = sup * span
        propagator = _expm(exponent)
        tol = TOL
    else:
        if step is None or step <= 0.0:
            raise ValidationError("rk4 requires a positive step")
        bound = generator_norm_bound(gen)
        if step * bound > 1.0:
            raise StepTooLarge(
                f"step*||generator|| = {step * bound:.3e} > 1; reduce step below {1.0 / bound:.3e}"
            )
        h, n = _fixed_steps(span, step)
        x = sup * h
        eye = np.eye(x.shape[0], dtype=np.complex128)
        # P(x) in Horner form
        one_step = eye + x @ (eye + x @ (eye + x @ (eye + x / 4.0) / 3.0) / 2.0)
        propagator = np.linalg.matrix_power(one_step, n)
        tol = 1e-6

    rho = (propagator @ rho0.reshape(-1)).reshape(rho0.shape)
    return validate_density(rho, tol)


def lindblad_exact_twolevel(rho0: np.ndarray, gamma: float, span: float) -> np.ndarray:
    """Closed form for a two-level system with H = 0, L = sqrt(gamma)|0><0|.

    Populations are constant and each coherence decays by
    exp(-gamma*span/2); serves as the independent oracle for
    lindblad_propagate on the decoherence scenario.
    """
    rho0 = require_square(as_complex(rho0))
    if rho0.shape != (2, 2):
        raise DimMismatch(f"closed form is for dim 2, got shape {rho0.shape}")
    if gamma < 0.0:
        raise ValidationError(f"gamma must be non-negative, got {gamma:.6g}")
    decay = math.exp(-0.5 * gamma * span)
    rho = rho0.copy()
    rho[0, 1] *= decay
    rho[1, 0] *= decay
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
    """Nonzero entries of a square matrix by row: row i is ((j, op[i, j]), ...)."""
    return tuple(
        tuple((j, op[i, j]) for j in range(op.shape[1]) if op[i, j] != 0)
        for i in range(op.shape[0])
    )


def _qsd_ops(gen: GeneratorSet, step: float):
    """The operators of one step: (G, ((L_1, live_1), ..., (L_K, live_K))).

    G and each L_k are sparse rows; live_k lists the rows of L_k that have
    a nonzero entry, the only components that enter <L_k> and L_k psi.
    G = 1 + step*(-iH - sum_k L_k^dag L_k / 2) holds every drift term that
    is linear in psi; only the <L_k> terms are left to each step.
    """
    d = gen.dim
    ldl_sum = np.zeros((d, d), dtype=np.complex128)
    for lk in gen.Ls:
        ldl_sum += lk.conj().T @ lk
    g = np.eye(d, dtype=np.complex128) + step * (-1j * gen.H - 0.5 * ldl_sum)
    channels = []
    for lk in gen.Ls:
        rows = _sparse_rows(lk)
        channels.append((rows, tuple(i for i, row in enumerate(rows) if row)))
    return _sparse_rows(g), tuple(channels)


def _apply(rows: tuple, cols: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> None:
    """out = op @ cols for columns cols, shape (d, M), given op's sparse rows."""
    for i, row in enumerate(rows):
        acc = out[i]
        if not row:
            acc[...] = 0.0
            continue
        (j, c), *rest = row
        np.multiply(cols[j], c, out=acc)
        for j, c in rest:
            acc += np.multiply(cols[j], c, out=tmp)


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
        self.norms_pairs = np.empty((m, 2))


@np.errstate(over="ignore", invalid="ignore")  # a non-finite norm is refused below
def _qsd_step_batch(
    cols: np.ndarray,
    out: np.ndarray,
    ops: tuple,
    dxi,
    step: float,
    renormalize: bool,
    buf: _StepBuffers,
) -> np.ndarray:
    """One Euler-Maruyama step on a batch of states held as columns, shape (d, M).

    With G and L_k from ops = `_qsd_ops(gen, step)` and dxi[k] the (M,)
    increments of channel k, writes into `out` (not `cols`) and returns it:
        G psi + sum_k (step conj<L_k> + dxi_k) L_k psi
              - sum_k <L_k> (step conj<L_k> / 2 + dxi_k) psi,
    with <L_k> = sum_i conj(psi_i) (L_k psi)_i. Each term is a ufunc over one
    component row of the batch, scaled by an operator entry (exact zeros
    skipped) or by another (M,) row, so every trajectory sees the same
    elementwise operations in the same order whatever the batch size: a
    column is bit-identical to the same trajectory run alone. No complex
    product is taken in place: numpy's in-place complex multiply rounds a
    length-1 array differently from a long one.
    """
    g_rows, channels = ops
    d = cols.shape[0]
    tmp = buf.tmp
    _apply(g_rows, cols, out, tmp)
    if channels:
        lcol, lexp, lexp_c, coef, shift = buf.lcol, buf.lexp, buf.lexp_c, buf.coef, buf.shift
        shift[...] = 0.0
        for (rows, live), dx in zip(channels, dxi):
            _apply(rows, cols, lcol, tmp)
            lexp[...] = 0.0
            for i in live:
                lexp += np.multiply(np.conjugate(cols[i], out=buf.conj), lcol[i], out=tmp)
            np.conjugate(lexp, out=lexp_c)
            np.multiply(lexp_c, step, out=coef)
            coef += dx
            for i in live:
                acc = out[i]
                acc += np.multiply(lcol[i], coef, out=tmp)
            np.multiply(lexp_c, 0.5 * step, out=coef)
            coef += dx
            shift += np.multiply(coef, lexp, out=tmp)
        for i in range(d):
            acc = out[i]
            acc -= np.multiply(cols[i], shift, out=tmp)
    sq = np.square(out.view(np.float64), out=buf.sq)  # re^2, im^2 interleaved
    norms = np.add(sq[0, 0::2], sq[0, 1::2], out=buf.norms)
    for i in range(1, d):
        norms += sq[i, 0::2]
        norms += sq[i, 1::2]
    np.sqrt(norms, out=norms)
    worst = float(norms.min())
    if worst < _ZERO_NORM_FLOOR:
        raise ZeroNorm(f"trajectory norm collapsed to {worst:.3e} before renormalization")
    peak = float(norms.max())  # NaN if any norm is NaN
    if not math.isfinite(peak):
        raise NumericalError(f"trajectory norm is {peak}")
    if renormalize:
        # divide as floats: faster than complex division, and numpy's
        # broadcast complex-by-real division rounds a one-trajectory batch
        # differently from a long one
        pairs = buf.norms_pairs
        pairs[:, 0] = norms
        pairs[:, 1] = norms
        flat = out.view(np.float64)
        flat /= pairs.reshape(-1)
    return out


def qsd_step(
    psi: np.ndarray,
    gen: GeneratorSet,
    dxi: np.ndarray | None,
    step: float,
    renormalize: bool = True,
) -> np.ndarray:
    """One stochastic step of the pure-state unraveling.

    dxi holds one complex Wiener increment per coupling operator (None only
    when there are none). Eigenstates of every L are fixed points: both the
    fluctuation operator and the drift annihilate them.
    """
    psi = as_complex(psi)
    dxi = np.asarray(() if dxi is None else dxi, dtype=np.complex128)
    if psi.shape != (gen.dim,) or dxi.shape != (len(gen.Ls),):
        raise DimMismatch(f"state shape {psi.shape} and noise shape {dxi.shape} do not fit "
                          f"dim {gen.dim} with {len(gen.Ls)} coupling operators")
    ops = _qsd_ops(gen, step)
    cols = psi[:, None]
    out = _qsd_step_batch(
        cols, np.empty_like(cols), ops, dxi[:, None], step, renormalize, _StepBuffers(gen.dim, 1)
    )
    return out[:, 0]


def _warn_if_step_coarse(gen: GeneratorSet, step: float) -> None:
    norms = coupling_norms(gen)
    if norms and step * max(norms) > QSD_STEP_SAFETY:
        warnings.warn(
            f"step*max||L^dag L|| = {step * max(norms):.3g} exceeds {QSD_STEP_SAFETY}; "
            "stochastic integration error may dominate",
            stacklevel=4,  # past _qsd_batches and the integrator, to its caller
        )


def _qsd_batches(psi0: np.ndarray, gen: GeneratorSet, cfg: TrajectoryConfig, streams):
    """Run one trajectory per noise stream from psi0; yields the batch, shape
    (len(streams), dim), at step 0 and after each of the cfg.steps steps.

    Row m runs on noise stream (cfg.seed, streams[m]) and, since the step
    arithmetic is per trajectory, is bit-identical whatever the other rows
    are. The batch is stepped as columns, shape (dim, M), in two alternating
    buffers; each yield is a transposed view that the step after next
    overwrites, so a caller copies what it keeps before advancing twice.
    """
    psi0 = validate_state(psi0)
    require_same_dim(psi0, gen.H)
    _warn_if_step_coarse(gen, cfg.step)
    ops = _qsd_ops(gen, cfg.step)
    k = len(ops[1])
    keys = rng.stream_keys(cfg.seed, streams)
    cols = np.repeat(psi0[:, None], len(keys), axis=1)
    yield cols.T
    outs = np.empty((2,) + cols.shape, dtype=np.complex128)
    buf = _StepBuffers(*cols.shape)
    for s in range(cfg.steps):
        dxi = rng.wiener_block(keys, s, k, cfg.step).T if k else ()
        cols = _qsd_step_batch(cols, outs[s % 2], ops, dxi, cfg.step, cfg.renormalize, buf)
        yield cols.T


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
    path = np.empty((cfg.steps + 1, gen.dim), dtype=np.complex128)
    for s, psis in enumerate(_qsd_batches(psi0, gen, cfg, [stream])):
        path[s] = psis[0]
    return path


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
    if n_traj < 1:
        raise ValidationError(f"need at least one trajectory, got {n_traj}")
    for psis in _qsd_batches(psi0, gen, cfg, np.arange(n_traj)):
        pass
    return psis


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
    if np.any(norms < _ZERO_NORM_FLOOR):
        raise ZeroNorm(f"final-state norm collapsed to {float(np.min(norms)):.3e}")
    states = states / norms[:, None]
    rho = np.einsum("mi,mj->ij", states, states.conj()) / len(states)
    return validate_density(rho)


# -- boost transport ----------------------------------------------------------


def boost_transport(state: np.ndarray, gen: GeneratorSet, beta: float) -> np.ndarray:
    """Unitary transport between hyperplane normals for a boost along +x.

    Applies U = exp(-i * atanh(beta) * K_x) to a state vector (U psi) or a
    density matrix (U rho U^dag). A zero K_x makes the transport the exact
    identity, i.e. the zeroth-order form of the change of observer.
    """
    state = as_complex(state)
    if beta == 0.0:
        return state.copy()
    lorentz_gamma(beta)  # rejects |beta| >= 1
    if not gen.Ks:
        raise MissingBoostGenerator("no boost generator configured and beta != 0")
    k_x = gen.Ks[0]
    require_same_dim(state, k_x)
    if not np.any(k_x):
        return state.copy()
    u = expm_generator(k_x, math.atanh(beta))
    if state.ndim == 1:
        return u @ state
    if state.ndim == 2:
        require_square(state)
        return u @ state @ u.conj().T
    raise DimMismatch(f"expected a vector or matrix, got shape {state.shape}")
