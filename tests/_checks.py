"""Checks that only the tests use: the Pauli matrices and |+>, hyperplane
construction, event membership, the conjugate transpose, the per-trajectory
noise, step-kernel and CSV-cell references, the counter-example's closed form
and its beta^2 boost response, the exact law of the dephasing unraveling, the
random test matrices, the writing of a resolved config and the strict reading
of a report's config, kept out of the package's public surface."""

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

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
SZ = np.diag([1.0, -1.0]).astype(complex)
ZERO2 = np.zeros((2, 2), dtype=complex)
PLUS_STATE = np.array([1.0, 1.0]) / math.sqrt(2.0)
for _shared in (SX, SY, SZ, ZERO2, PLUS_STATE):
    _shared.setflags(write=False)  # every test module shares these arrays


def random_complex(rng: np.random.Generator, shape) -> np.ndarray:
    """Complex normal entries: the real parts drawn first, then the imaginary parts."""
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    """The Hermitian part of a `random_complex` dim x dim matrix."""
    m = random_complex(rng, (dim, dim))
    return 0.5 * (m + m.conj().T)


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    """M M^dag over its trace, for a `random_complex` dim x dim M: full rank."""
    m = random_complex(rng, (dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


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
    col = psi[:, None].copy()  # stepped in place
    plan = _StepPlan(_qsd_ops(gen, step), col, renormalize)
    with np.errstate(over="ignore", invalid="ignore"):  # as the ensembles run the kernel
        plan.step(dxi[:, None])
    return col[:, 0]


def counterexample_closed_form(beta: float, ell: float, gamma: float, c: float, k: np.ndarray,
                               method: str, step: float | None = None) -> dict:
    """Every field of the dephasing counter-example (H = 0, L = sqrt(gamma)|0><0|,
    rho0 = (1 + sigma_x)/2, boost generator k) from its closed form, with no
    package function and no matrix exponential.

    a0 = ell*beta/c. The R branch keeps the populations at 1/2, and its
    coherence obeys one scalar linear ODE, d rho_01/da = -gamma/2 rho_01, so
    it is exp(-gamma*a0/2)/2 for `exact`, and for `rk4` P(-gamma*h/2)^n / 2
    exactly, with P(x) = 1 + x + x^2/2 + x^3/6 + x^4/24 and n = max(1,
    ceiling of a0/step) steps of h = a0/n. The M branch is U rho0 U^dag with
    U = exp(-i theta k), theta = atanh(beta), by Rodrigues' formula: for
    k = k0 + n.sigma, U = exp(-i theta k0) (cos(theta|n|) - i sin(theta|n|) n.sigma/|n|).
    """
    a0 = ell * beta / c
    if method == "rk4" and gamma > 0.0:
        n = max(1, math.ceil(a0 / step))
        x = -0.5 * gamma * (a0 / n)
        coherence = 0.5 * (1.0 + x + x**2 / 2.0 + x**3 / 6.0 + x**4 / 24.0) ** n
    else:
        coherence = 0.5 * math.exp(-0.5 * gamma * a0)
    rho_r = np.array([[0.5, coherence], [coherence, 0.5]], dtype=complex)
    k0, axis = pauli_coefficients(k)
    theta, length = math.atanh(beta), math.sqrt(sum(v * v for v in axis))
    n_sigma = np.array([[axis[2], axis[0] - 1j * axis[1]], [axis[0] + 1j * axis[1], -axis[2]]])
    rotation = np.eye(2) * math.cos(theta * length)
    if length > 0.0:
        rotation = rotation - 1j * math.sin(theta * length) / length * n_sigma
    u = np.exp(-1j * theta * k0) * rotation
    rho0 = np.full((2, 2), 0.5, dtype=complex)
    rho_m = u @ rho0 @ u.conj().T
    exp_r, exp_m = 2.0 * coherence, (rho_m[0, 1] + rho_m[1, 0]).real
    return {"a0": a0, "expectation_R": exp_r, "expectation_M": exp_m, "discrepancy": exp_m - exp_r,
            "offdiag_final": coherence, "rho_initial": rho0, "rho_R": rho_r, "rho_M": rho_m}


def pauli_coefficients(k: np.ndarray) -> tuple[float, list[float]]:
    """(k0, [kx, ky, kz]) of a Hermitian 2x2 k = k0 + kx sigma_x + ky sigma_y + kz sigma_z."""
    k = np.asarray(k, dtype=complex)
    return (k[0, 0] + k[1, 1]).real / 2.0, [k[1, 0].real, k[1, 0].imag,
                                            (k[0, 0] - k[1, 1]).real / 2.0]


def boost_response_coefficient(k: np.ndarray) -> float:
    """The beta^2 coefficient of 1 - expectation_M for the boost generator k,
    from Rodrigues' formula: U = exp(-i theta k) turns the Bloch vector x of
    rho0 by 2 theta|n| about n = (kx, ky, kz), so
        1 - <sigma_x>_M = (1 - kx^2/|n|^2)(1 - cos(2 theta|n|))
                        = 2(ky^2 + kz^2) theta^2 + O(theta^4),
    and theta = atanh(beta) = beta + O(beta^3). For k = sigma_y/2 this is
    1 - cos(atanh(beta)), to which the coefficient 1/2 belongs."""
    _, (_, ky, kz) = pauli_coefficients(k)
    return 2.0 * (ky * ky + kz * kz)


def dephasing_law_mean(g, gamma: float, t: float, p0: float) -> float:
    """E g(p, phi) at time t of the renormalized unraveling of H = 0, L = sqrt(gamma)|0><0|
    from a pure state with p0 = |psi_0|^2, by its exact law, with no package function
    (Gisin & Percival, J. Phys. A 25 (1992) 5677; Adler, Brody, Brun & Hughston,
    J. Phys. A 34 (2001) 8795).

    p = |psi_0|^2 obeys dp = s p (1 - p) dW with s = sqrt(2 gamma); by the change of
    measure from the linear unraveling, p = p0 e^u / (p0 e^u + 1 - p0) with
    u = s xi - s^2 t/2, where xi = s t + B with probability p0 and xi = B otherwise,
    B ~ N(0, t). The relative phase phi of psi_0 and psi_1 is N(0, gamma t/2) and
    independent of p. The mean is a 2-D sum over 80 probabilists' Gauss-Hermite nodes
    in B and phi; g takes an 80 x 1 p and a 1 x 80 phi, and its value broadcasts to 80 x 80.
    For gamma t <= 3 it is exact to about 1e-11; at gamma t = 30 it is off by 4e-8.
    """
    x, w = np.polynomial.hermite_e.hermegauss(80)
    w = w / w.sum()
    s = math.sqrt(2.0 * gamma)
    b, phi = math.sqrt(t) * x, math.sqrt(gamma * t / 2.0) * x
    mean = 0.0
    for weight, xi in ((p0, s * t + b), (1.0 - p0, b)):
        e = p0 * np.exp(s * xi - s * s * t / 2.0)
        p = e / (e + 1.0 - p0)
        mean += weight * float(w @ np.broadcast_to(g(p[:, None], phi[None, :]), (80, 80)) @ w)
    return mean


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
