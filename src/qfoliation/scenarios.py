"""Two-observer scenarios: the consistency criterion and its violation.

A rest observer (R) and an observer moving with small velocity beta along +x
(M) measure the same spin observable at one space-time event. Their
hyperplanes intersect on the worldline x = ell at the rest-frame offset
a0 = ell*beta; each observer evolves the shared initial state to their own
hyperplane and takes an expectation value.

With purely unitary transport both observers agree (`run_consistency` at gamma = 0).
Switching on decohering evolution in the offset direction while keeping the
boost transport unitary makes the R branch decay and the M branch not,
producing an order-one disagreement about a single event
(`run_counterexample`); `sweep_velocity` tracks the gap as beta -> 0 at
fixed a0. The initial state commutes with the measured observable, so the
first-order boost response tr([A, K] rho0) vanishes for every Hermitian K:
a nonzero boost generator changes the discrepancy only at second order in
beta. The `consistency` command runs `run_consistency`: the unitary check at
gamma = 0, the counter-example's deviation otherwise. The `lindblad` and
`qsd-ensemble` commands run `lindblad_scan` and `run_qsd`, whose outcome and
ensemble density (`_qsd_outcome`) the counter-example's QSD check shares.

Each scenario plans, then runs: it refuses its whole input, a library caller's
too, before its first propagation; the CLI only decodes. `lindblad_scan` owns
the lindblad work ceiling and the refusal of a `span * samples` that overflows,
`run_qsd` runs its plan before its reference, a counter-example's plan (a0, model,
QSD plan) refuses its QSD work once, its run warns only after its R branch refuses
or propagates, and a sweep plans every beta before it runs one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import (
    LINDBLAD_METHODS,
    GeneratorSet,
    TrajectoryConfig,
    boost_transport,
    decohering_coupling,
    lindblad_exact_twolevel,
    lindblad_propagate,
    mean_projector,
    plan_qsd,
    run_qsd_plan,
)
from .errors import NumericalError, ValidationError, warn
from .foliation import (
    SPEED_OF_LIGHT,
    FourVector,
    Hyperplane,
    coincidence_event,
    coincidence_offset,
    frame_normal,
    lorentz_gamma,
)
from .linalg import (
    TOL,
    as_complex,
    density_from_state,
    expectation,
    expm_generator,
    purity,
    require_hermitian,
    require_integer,
    require_same_dim,
    state_expectation,
    trace_distance,
    validate_state,
)

# below this, decoherence is too weak for the R branch to have fully reduced
STRONG_REDUCTION_THRESHOLD = 10.0

_COMMUTATOR_TOL = 1e-10

# work ceiling of one lindblad run, in time: about 10 us per offset at span
# 30 (10^6 offsets, CSV report included, on a 2-vCPU host), but 0.7 ms at
# span 1e300 as Pade squarings grow with log2(gamma*span), so 12 min at 10^6
# (the report is streamed: ~0.26 KiB of memory per offset)
MAX_LINDBLAD_SAMPLES = 10**6


def spin_observable() -> np.ndarray:
    """The measured spin observable |0><1| + |1><0| (eigenvalues +-1)."""
    return np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)


def initial_state() -> np.ndarray:
    """Projector onto the equal superposition of up and down; every entry 1/2."""
    return np.full((2, 2), 0.5, dtype=np.complex128)


def initial_state_vector() -> np.ndarray:
    """The pure state (1, 1)/sqrt(2) underlying initial_state()."""
    return np.array([1.0, 1.0], dtype=np.complex128) / math.sqrt(2.0)


@dataclass(frozen=True)
class QsdSettings:
    """Optional unraveling run alongside the density-matrix counter-example."""

    n_traj: int
    seed: int
    step: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_traj", require_integer(self.n_traj, "qsd n_traj"))
        object.__setattr__(self, "seed", require_integer(self.seed, "qsd seed"))
        if self.n_traj < 1:
            raise ValidationError(f"qsd n_traj must be >= 1, got {self.n_traj}")
        if self.seed < 0:
            raise ValidationError(f"qsd seed must be non-negative, got {self.seed}")
        if self.step is not None and not 0.0 < self.step < math.inf:
            raise ValidationError(f"qsd step must be positive, got {self.step:.6g}")


@dataclass(frozen=True)
class CounterexampleParams:
    beta: float
    ell: float
    gamma: float
    method: str = "exact"
    step: float | None = None
    qsd: QsdSettings | None = None
    c: float = 1.0

    def __post_init__(self) -> None:
        lorentz_gamma(self.beta)  # rejects |beta| >= 1
        if self.beta < 0.0:
            raise ValidationError(
                f"beta must be non-negative, got {self.beta:.6g}: decohering evolution "
                "runs forward in the offset and cannot reach the negative coincidence "
                "offset a0 = ell*beta/c"
            )
        if not self.ell > 0.0:
            raise ValidationError(f"ell must be positive, got {self.ell:.6g}")
        if not 0.0 <= self.gamma < math.inf:
            raise ValidationError(f"gamma must be non-negative, got {self.gamma:.6g}")
        if self.method not in LINDBLAD_METHODS:
            raise ValidationError(f"method must be 'exact' or 'rk4', got {self.method!r}")
        if self.step is not None and not 0.0 < self.step < math.inf:
            raise ValidationError(f"step must be positive, got {self.step:.6g}")
        if not self.c > 0.0:
            raise ValidationError(f"c must be positive, got {self.c:.6g}")


@dataclass(frozen=True)
class QsdOutcome:
    n_traj: int
    seed: int
    step: float
    steps: int
    expectation: float
    trace_distance_to_lindblad: float


@dataclass(frozen=True)
class CounterexampleReport:
    params: CounterexampleParams
    a0: float
    expectation_R: float
    expectation_M: float
    discrepancy: float
    offdiag_final: float
    rho_initial: np.ndarray
    rho_R: np.ndarray
    rho_M: np.ndarray
    qsd: QsdOutcome | None = None


@dataclass(frozen=True)
class ConsistencyReport:
    deviation: float
    path_order_difference: float
    event: FourVector
    plane_rest: Hyperplane
    plane_moving: Hyperplane
    dissipative: bool


def dephasing_model(gamma: float, k_x: np.ndarray | None = None) -> GeneratorSet:
    """H = 0, the one coupling sqrt(gamma)|0><0| and the boost generator k_x (zero if None)."""
    h = np.zeros((2, 2), dtype=np.complex128)
    return GeneratorSet(H=h, K=h if k_x is None else k_x, Ls=(decohering_coupling(gamma),))


def lindblad_scan(rho0: np.ndarray | None, gamma: float, span: float, samples: int, method: str,
                  step: float | None) -> tuple[dict, np.ndarray]:
    """The dephasing model's Lindblad evolution of rho0 (initial_state() if None) against the
    closed form at the offsets span*i/samples (i = 1 ... samples): its columns and last density."""
    if require_integer(samples, "samples") < 1:
        raise ValidationError(f"samples must be >= 1, got {samples}")
    if samples > MAX_LINDBLAD_SAMPLES:
        raise ValidationError(f"samples = {samples} offsets exceeds the work ceiling "
                              f"of {MAX_LINDBLAD_SAMPLES:.0e}")
    if not 0.0 <= span < math.inf:
        raise ValidationError(f"span must be non-negative, got {span:.6g}")
    if not math.isfinite(float(span) * samples):  # each offset is formed as (span * i) / samples
        raise ValidationError(f"span * samples = {span:.6g} * {samples} is not finite")
    if step is not None and not 0.0 < step < math.inf:
        raise ValidationError(f"step must be positive, got {step:.6g}")
    rho0 = initial_state() if rho0 is None else rho0
    offsets = span * np.arange(1, samples + 1) / samples
    rhos = lindblad_propagate(rho0, dephasing_model(gamma), offsets, method, step)
    refs = lindblad_exact_twolevel(rho0, gamma, offsets)
    # np.hypot is the scalar abs() of each entry, bit for bit; numpy's
    # vectorized complex abs can differ from it in the last bit
    columns = {
        "a": offsets,
        "offdiag_numeric": np.hypot(rhos[:, 0, 1].real, rhos[:, 0, 1].imag),
        "offdiag_exact": np.hypot(refs[:, 0, 1].real, refs[:, 0, 1].imag),
        "abs_error": np.abs(rhos - refs).max(axis=(-2, -1)),
        "trace_distance": trace_distance(rhos, refs),
    }
    return columns, rhos[-1]


def run_qsd(gamma: float, span: float, step: float, seed: int, n_traj: int,
            renormalize: bool = True,
            psi0: np.ndarray | None = None) -> tuple[QsdOutcome, np.ndarray, np.ndarray]:
    """The dephasing model's unraveling over span in steps of about step: the outcome and
    ensemble density of n_traj trajectories from psi0 (initial_state_vector() if None),
    and the Lindblad density they are checked against."""
    gen = dephasing_model(gamma)
    if not span > 0.0:
        raise ValidationError(f"span must be positive, got {span:.6g}")
    cfg = TrajectoryConfig.covering(span, step, seed, renormalize)
    plan = plan_qsd(initial_state_vector() if psi0 is None else psi0, gen, cfg, n_traj)
    finals = run_qsd_plan(plan)  # before the reference: its warning and errors come first
    rho_ref = lindblad_propagate(initial_state() if psi0 is None else density_from_state(psi0),
                                 gen, span)
    return (*_qsd_outcome(plan, finals, rho_ref), rho_ref)


def _qsd_outcome(plan, finals: np.ndarray, rho_ref: np.ndarray) -> tuple[QsdOutcome, np.ndarray]:
    """The outcome and ensemble density of a `plan_qsd` plan's final states, checked
    against the Lindblad density rho_ref."""
    rho = mean_projector(finals)
    outcome = QsdOutcome(n_traj=plan.n_traj, seed=plan.cfg.seed, step=plan.cfg.step,
                         steps=plan.cfg.steps, expectation=expectation(spin_observable(), rho),
                         trace_distance_to_lindblad=trace_distance(rho, rho_ref))
    return outcome, rho


def _plan_counterexample(p: CounterexampleParams, k_correction: np.ndarray | None):
    """(a0, model, QSD plan or None) of p: every refusal of a counter-example's run."""
    a0 = coincidence_offset(p.ell, p.beta, p.c)
    gen = dephasing_model(p.gamma, k_correction)  # refuses k_correction before any warning
    if p.qsd is None:
        return a0, gen, None
    # at a0 = 0 no step is taken and the report gives step 1.0, whatever gamma
    step = p.qsd.step or (0.01 / p.gamma if p.gamma > 0.0 and a0 > 0.0 else a0 or 1.0)
    cfg = TrajectoryConfig.covering(a0, step, p.qsd.seed)
    return a0, gen, plan_qsd(initial_state_vector(), gen, cfg, p.qsd.n_traj)


def run_counterexample(p: CounterexampleParams,
                       k_correction: np.ndarray | None = None) -> CounterexampleReport:
    """Evolve both observers' branches to the coincidence event and compare.

    R branch: decohering evolution over the offset a0 = ell*beta/c. M branch:
    boost transport of the initial state (identity for the default zero
    boost generator). The discrepancy is signed, M minus R. When p.qsd is
    set, the unraveling ensemble is run against the R branch as well.
    """
    return _run_counterexample(p, *_plan_counterexample(p, k_correction))


def _run_counterexample(p: CounterexampleParams, a0: float, gen: GeneratorSet, qsd_plan):
    """`run_counterexample` of p from its `_plan_counterexample` plan."""
    rho0, a_op = initial_state(), spin_observable()
    rho_r = lindblad_propagate(rho0, gen, a0, method=p.method, step=p.step)
    if 0.0 < p.gamma * a0 < STRONG_REDUCTION_THRESHOLD:  # after the R branch's refusals
        warn(f"gamma*a0 = {p.gamma * a0:.3g} < {STRONG_REDUCTION_THRESHOLD}: "
             "reduction is incomplete at the coincidence event")
    rho_m = boost_transport(rho0, gen, p.beta)

    if purity(rho_r) > purity(rho0) + 1e-12:
        raise NumericalError("purity increased along the R branch: "
                             f"{purity(rho0):.12g} -> {purity(rho_r):.12g}")

    exp_r, exp_m = expectation(a_op, rho_r), expectation(a_op, rho_m)
    for name, val in (("expectation_R", exp_r), ("expectation_M", exp_m)):
        if not -1.0 - TOL <= val <= 1.0 + TOL:
            raise NumericalError(f"{name} = {val} outside [-1, 1]")

    qsd = None if qsd_plan is None else _qsd_outcome(qsd_plan, run_qsd_plan(qsd_plan), rho_r)[0]
    return CounterexampleReport(params=p, a0=a0, expectation_R=exp_r, expectation_M=exp_m,
                                discrepancy=exp_m - exp_r, offdiag_final=float(abs(rho_r[0, 1])),
                                rho_initial=rho0, rho_R=rho_r, rho_M=rho_m, qsd=qsd)


def run_consistency(beta: float, ell: float, gamma: float, method: str = "exact",
                    step: float | None = None, c: float = SPEED_OF_LIGHT,
                    h: np.ndarray | None = None, k: np.ndarray | None = None,
                    observable: np.ndarray | None = None,
                    psi0: np.ndarray | None = None) -> ConsistencyReport:
    """The two observers' deviation at the coincidence event a0 = ell*beta/c: at gamma != 0
    |discrepancy| of the counter-example; at gamma = 0 (either sign of beta) the rest branch
    evolves psi0 (initial_state_vector() if None) under H = h (zero if None) to a0, the
    moving branch boosts psi0 with K = k (zero if None), and both measure the Hermitian
    observable (spin_observable() if None). Non-commuting (H, K) are refused: their
    transport is path-ordering dependent, a different effect than observer inconsistency.
    A bad method or step is refused either way."""
    ignored = [key for key, val in dict(h=h, k=k, observable=observable, psi0=psi0).items()
               if val is not None]
    if gamma != 0.0 and ignored:
        raise ValidationError(f"{', '.join(ignored)} apply only to the unitary check "
                              "(gamma = 0); the dissipative run would ignore them")
    p = CounterexampleParams(beta if gamma != 0.0 else abs(beta), ell, gamma, method, step, c=c)
    if gamma != 0.0:
        deviation, path_order_difference = abs(run_counterexample(p).discrepancy), 0.0
    else:
        h = np.zeros((2, 2), dtype=np.complex128) if h is None else h
        gen = GeneratorSet(H=h, K=np.zeros_like(h) if k is None else k)
        a_op = require_hermitian(spin_observable() if observable is None else observable,
                                 "observable")
        psi0 = validate_state(initial_state_vector() if psi0 is None else psi0)
        require_same_dim(psi0, gen.H)
        comm = gen.H @ gen.K - gen.K @ gen.H
        defect = float(np.max(np.abs(comm)))
        scale = max(1.0, float(np.max(np.abs(gen.H))) * float(np.max(np.abs(gen.K))))
        if defect > _COMMUTATOR_TOL * scale:
            raise ValidationError(f"||[H, K]|| = {defect:.3e}: transport would be path-dependent")

        a0 = coincidence_offset(ell, beta, c)
        u_offset = expm_generator(gen.H, a0)
        psi_rest = u_offset @ psi0
        psi_moving = boost_transport(psi0, gen, beta)

        deviation = abs(state_expectation(a_op, psi_rest) - state_expectation(a_op, psi_moving))
        path_a_then_n = boost_transport(psi_rest, gen, beta)
        path_n_then_a = u_offset @ psi_moving
        path_order_difference = float(np.linalg.norm(path_a_then_n - path_n_then_a))

    return ConsistencyReport(
        deviation=deviation,
        path_order_difference=path_order_difference,
        event=coincidence_event(ell, beta, c),
        plane_rest=Hyperplane(FourVector(1.0), coincidence_offset(ell, beta, c)),
        plane_moving=Hyperplane(frame_normal(beta), 0.0),
        dissipative=gamma != 0.0,
    )


def sweep_velocity(p: CounterexampleParams, betas: list[float],
                   k_correction: np.ndarray | None = None) -> list[CounterexampleReport]:
    """Counter-example reports versus velocity at constant a0, one per beta.

    Each beta gets ell rescaled to a0/beta so the coincidence offset stays
    fixed: the R branch, and with it expectation_R, is the same for every
    beta. A nonzero k_correction moves expectation_M, and so the
    discrepancy, only at second order in beta, because rho0 commutes with
    the measured observable (for K = SY/2 the shift is cos(atanh beta) - 1).
    beta = 0 (of either sign) runs as +0.0 at the given ell, where a0 = 0
    and both observers coincide. Every beta is planned (`_plan_counterexample`)
    before the first beta runs.
    """
    if not betas:
        raise ValidationError("betas must be non-empty")
    a0 = coincidence_offset(p.ell, p.beta, p.c)
    if k_correction is not None:
        k_correction = as_complex(k_correction)
    runs = [replace(p, beta=0.0) if beta == 0.0 else replace(p, beta=beta, ell=a0 * p.c / beta)
            for beta in betas]
    plans = [_plan_counterexample(q, k_correction) for q in runs]
    return [_run_counterexample(q, *plan) for q, plan in zip(runs, plans)]
