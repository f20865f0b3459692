"""Independent references that only the tests call: the Fock-basis ladder
operators, the complex quadrature eigenbras and the densities they give, the
Fock-basis conditioning composition, the RK4 Lindblad integrator, the exact
finite-alpha bred state, the first-order (Euler) memory network, the
continuum survival amplitude and the round-trip staircase overlap, the
Laguerre-series Wigner function, peak counting, and checks on density
matrices and two-mode Fock states.

Each one is derived apart from the library kernel it checks, and some use
scipy, a dependency of the tests alone. Coherent-state algebra (overlaps,
<x_theta|gamma>, window integrals) lives in `dyads` alone; the exact bred
state here is a wrapper over its `Dyads` type.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.signal import find_peaks

from dyads import Dyads
from resomem.breeding import PROJECTION_THETA
from resomem.errors import ContractError, DomainError
from resomem.fock import DensityMatrix, FockVector, guard_dim, log_factorial
from resomem.gates import (
    PROJECTION_GRID_BOUND,
    JointState,
    beamsplitter_apply,
    hermite_functions,
    homodyne_project,
    window_condition,
)
from resomem.memory import CouplingSchedule, NetworkResult
from resomem.noise import NoiseParams

STAIRCASE_TAIL = 1e-14  # residual weight at which staircase_overlap_oracle stops summing

# ---------------------------------------------------------------------------
# Fock-basis operators and states


def annihilation_operator(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex)


def x_operator(dim: int) -> np.ndarray:
    a = annihilation_operator(dim)
    return (a + a.conj().T) / np.sqrt(2)


def p_operator(dim: int) -> np.ndarray:
    a = annihilation_operator(dim)
    return (a - a.conj().T) / (1j * np.sqrt(2))


def check_physical(rho: DensityMatrix, herm_tol: float = 1e-10, eig_floor: float = -1e-8):
    """Raise ContractError unless rho is Hermitian and positive semidefinite."""
    if np.max(np.abs(rho.rho - rho.rho.conj().T)) > herm_tol:
        raise ContractError("density matrix not Hermitian")
    w = np.linalg.eigvalsh((rho.rho + rho.rho.conj().T) / 2)
    if w.min() < eig_floor:
        raise ContractError(f"density matrix not positive semidefinite: min eig {w.min()}")


def quadrature_eigenbra(x, theta: float, dim: int) -> np.ndarray:
    """Complex dual vectors <x_theta = x| = <x| e^{i theta n}: component n is
    e^{i n theta} psi_n(x); shape (dim,) + shape(x)."""
    x = np.asarray(x, dtype=float)
    phase = np.exp(1j * theta * np.arange(dim)).reshape((dim,) + (1,) * x.ndim)
    return phase * hermite_functions(x, dim)


def eigenbra_density(rho: np.ndarray, theta: float, x, xp=None) -> np.ndarray:
    """<x_theta|rho|x'_theta> from the complex eigenbras, dim rows per point and no
    product rule; at x' = x (xp None) the quadrature density, with a rounding-size
    imaginary part."""
    dim = rho.shape[0]
    bras = quadrature_eigenbra(x, theta, dim)
    kets = bras if xp is None else quadrature_eigenbra(xp, theta, dim)
    return np.einsum("iv,iv->v", bras, rho @ kets.conj())


# ---------------------------------------------------------------------------
# two-mode Fock states


def total_photon_distribution(j: JointState) -> np.ndarray:
    """Probability of total photon number N = nA + nB."""
    p2 = np.abs(j.amp) ** 2
    out = np.zeros(j.dimA + j.dimB - 1)
    for na in range(j.dimA):
        out[na : na + j.dimB] += p2[na]
    return out


def full_line_window(j: JointState, mode: str, theta: float):
    """Window over the full projection grid [-bound, bound]; the survivor is
    the reduced state of the remaining mode."""
    return window_condition(j, mode, theta, -PROJECTION_GRID_BOUND, PROJECTION_GRID_BOUND)


def _pure_parts(port):
    """A port as weighted normalized pure parts: a FockVector is one part, a
    DensityMatrix its eigen-branches above 1e-12, and a list of (weight,
    FockVector) pairs is taken as given."""
    if isinstance(port, FockVector):
        return [(1.0, port)]
    if isinstance(port, DensityMatrix):
        w, v = np.linalg.eigh(port.rho)
        return [(wi, FockVector(port.dim, vi)) for wi, vi in zip(w, v.T) if wi >= 1e-12]
    return list(port)


def fock_conditioning(memory, ancilla, T: float, theta: float, outcome) -> tuple[np.ndarray, float]:
    """The conditioning step from the Fock gates: every pair of pure parts of the
    memory (mode A) and the ancilla (mode B) goes through `beamsplitter_apply`,
    then B is projected by `homodyne_project` on x_theta = outcome, or kept by
    `window_condition` for outcome = [lo, hi]. Returns (the unnormalized
    conditioned memory, its trace): the weighted sum of the projected dyads, or
    of the windowed states times their acceptances. An independent check of
    `gates.condition_on_quadrature`."""
    window = np.ndim(outcome) == 1
    out = 0.0
    for wm, m in _pure_parts(memory):
        for wa, a in _pure_parts(ancilla):
            joint = beamsplitter_apply(m, a, T)
            if window:
                rho, acceptance = window_condition(joint, "B", theta, *outcome)
                out = out + wm * wa * acceptance * rho.rho
            else:
                surv, _ = homodyne_project(joint, "B", theta, outcome)
                out = out + wm * wa * np.outer(surv.amp, surv.amp.conj())
    return out, float(np.trace(out).real)


# ---------------------------------------------------------------------------
# storage: RK4 Lindblad integration


def _dissipator_superop(L: np.ndarray) -> np.ndarray:
    """Row-major-vectorized D[L]: rho -> L rho L^dag - {L^dag L, rho}/2."""
    dim = L.shape[0]
    eye = np.eye(dim)
    LdL = L.conj().T @ L
    return np.kron(L, L.conj()) - 0.5 * (np.kron(LdL, eye) + np.kron(eye, LdL.T))


def lindblad_oracle(
    rho: DensityMatrix, t: float, params: NoiseParams, steps: int | None = None
) -> DensityMatrix:
    """Fixed-step RK4 integration of
    d rho/dt = (1/T1) D[a] rho + (2/Tphi) D[a^dag a] rho.

    The equation is linear and autonomous, so the RK4 update is one matrix
    acting on vec(rho); applying it `steps` times is done by matrix powers,
    which is bitwise equivalent in exact arithmetic to explicit stepping.
    By default `steps` is chosen so that max_rate * h <= 1e-3.  An independent
    check of noise.evolve_closed_form.
    """
    rho.require_normalized()
    if t == 0:
        return rho
    dim = rho.dim
    a = annihilation_operator(dim)
    nop = a.conj().T @ a
    g1 = 0.0 if np.isinf(params.T1) else 1.0 / params.T1
    g2 = 0.0 if np.isinf(params.Tphi) else 2.0 / params.Tphi
    max_rate = g1 * (dim - 1) + g2 * (dim - 1) ** 2
    if steps is None:
        steps = max(100, int(np.ceil(max_rate * t / 1e-3)))
    h = t / steps
    if max_rate * h > 1e-3 * (1 + 1e-9):
        raise DomainError(f"step size too large: max rate * h = {max_rate * h:.2e}")
    lv = g1 * _dissipator_superop(a) + g2 * _dissipator_superop(nop.astype(complex))
    eye = np.eye(dim * dim)
    # one RK4 step: I + hL + (hL)^2/2 + (hL)^3/6 + (hL)^4/24
    hl = h * lv
    step = eye + hl @ (eye + hl @ (eye + hl @ (eye + hl / 4) / 3) / 2)
    prop = np.linalg.matrix_power(step, steps)
    out = (prop @ rho.rho.reshape(-1)).reshape(dim, dim)
    return DensityMatrix(dim, out)


# ---------------------------------------------------------------------------
# breeding: the exact finite-alpha bred state


def exact_bred_state(k: int, alpha: float, s: int, protocol: str, dim: int) -> FockVector:
    """Exact state after breeding k cats |i alpha> + s|-i alpha>, at any alpha: coherent dyads through
    the ideal steps j = 1 .. k-1 (T = j/(j+1), x_theta = 0), with no Fock truncation until the end."""
    if k < 1:
        raise DomainError("k must be >= 1")
    if s not in (+1, -1):
        raise DomainError("parity s must be +1 or -1")
    if protocol not in PROJECTION_THETA:
        raise DomainError(f"unknown protocol {protocol!r}")
    guard_dim(np.sqrt(k) * alpha, dim)
    state = cat = Dyads.superposition([1, s], [1j * alpha, -1j * alpha])
    for j in range(1, k):
        state = state.step(cat, j / (j + 1), PROJECTION_THETA[protocol])
    return FockVector(dim, state.fock(dim)[:, 0]).normalized()


# ---------------------------------------------------------------------------
# memory network


def euler_network(sched: CouplingSchedule, dt: float) -> NetworkResult:
    """The cascaded beamsplitter chain on its own grid of step dt, with the
    schedule resampled linearly onto it and first-order (Euler) slices:

        a      <- sqrt(1 - gamma_i dt) a + sqrt(gamma_i dt) b_i
        out_i  <- -sqrt(gamma_i dt) a + sqrt(1 - gamma_i dt) b_i

    Its effective transmittance converges to exp(-int gamma) as dt -> 0,
    with an error of order dt.  No output mode is returned.
    """
    t = np.arange(sched.t[0], sched.t[-1] + dt / 2, dt)
    gdt = np.interp(t, sched.t, sched.gamma) * dt
    if not np.all((gdt >= 0) & (gdt < 1)):
        raise DomainError("unstable discretization: gamma*dt outside [0, 1)")
    s = np.sqrt(gdt)
    prod_upto = np.exp(np.cumsum(0.5 * np.log1p(-gdt)))  # prod_{l<=i} sqrt(1 - gamma_l dt)
    prod_before = np.concatenate(([1.0], prod_upto[:-1]))
    w_in = s * prod_upto[-1] / prod_upto  # b_i -> final a weight
    v_out = -s * prod_before  # initial a -> out_i weight
    # analytic modes: g_in ~ sqrt(gamma)/F, g_out ~ sqrt(gamma) F
    F = np.exp(-np.concatenate(([0.0], np.cumsum(gdt)[:-1])) / 2 - gdt / 4)
    u_in, u_out = s / F, s * F
    in_overlap = np.dot(u_in, w_in) ** 2 / (np.dot(u_in, u_in) * np.dot(w_in, w_in))
    out_overlap = np.dot(u_out, -v_out) ** 2 / (np.dot(u_out, u_out) * np.dot(v_out, v_out))
    return NetworkResult(float(prod_upto[-1] ** 2), float(in_overlap), float(out_overlap))


def survival_amplitude(sched: CouplingSchedule) -> np.ndarray:
    """The continuum survival amplitude F(t) = exp(-1/2 int_{t0}^t gamma dt')
    of a coupling schedule, by the trapezoid rule on its grid."""
    return np.exp(-cumulative_trapezoid(sched.gamma, sched.t, initial=0.0) / 2)


def staircase_overlap_oracle(T0: float) -> float:
    """Independent check of multimode_overlap: overlap of the per-round-trip
    staircase g(t) = sqrt((1-R0)/tau) sqrt(R0)^floor(t/tau) with the ideal
    exponential sqrt(gamma) e^{-gamma t/2}, gamma = -ln(R0)/tau, summed
    interval by interval (each interval integrated in closed form)."""
    if not 0 < T0 < 1:
        raise DomainError(f"T0={T0} outside (0, 1)")
    R0 = 1.0 - T0
    # number of round trips until the residual weight drops below STAIRCASE_TAIL
    n = int(np.ceil(np.log(STAIRCASE_TAIL) / np.log(R0))) + 2
    j = np.arange(n)
    gamma_tau = -np.log(R0)
    # int_{j tau}^{(j+1) tau} sqrt((1-R0)/tau) R0^{j/2} sqrt(gamma) e^{-gamma t/2} dt
    terms = np.sqrt((1 - R0) / gamma_tau) * R0**j * 2 * (1 - np.sqrt(R0))
    return float(np.sum(terms) ** 2)


# ---------------------------------------------------------------------------
# Wigner functions


def direct_sum_wigner(rho, xs, ps):
    """W(x, p) on the (xs, ps) grid from the associated-Laguerre series of
    the displacement-parity matrix elements, summed directly over diagonals d:

        W = (1/pi) sum_d Re(e^{-r^2/2} B^d a_d),  B = sqrt2 (x + i p), r^2 = |B|^2,
        a_d = (2 if d else 1) sum_n (-1)^n rho[n, n+d] sqrt(n!/(n+d)!) L_n^{(d)}(r^2),

    every Laguerre recurrence run to n = dim - d - 1."""
    X, P = np.meshgrid(xs, ps)
    B = np.sqrt(2.0) * (X + 1j * P)
    r2 = (np.abs(B) ** 2).astype(float)
    env = np.exp(-r2 / 2)
    dim = rho.shape[0]
    signs = (-1.0) ** np.arange(dim)
    W = np.zeros_like(r2)
    for d in range(dim):
        coeffs = rho[np.arange(dim - d), np.arange(d, dim)] * signs[: dim - d]
        if not np.any(np.abs(coeffs) > 1e-16):
            continue
        phase = env * B**d if d else env
        pref = np.exp(0.5 * (log_factorial(np.arange(dim - d)) - log_factorial(np.arange(dim - d) + d)))
        Lprev = None
        Lcur = np.ones_like(r2)
        acc = coeffs[0] * pref[0] * Lcur.astype(complex)
        for n in range(1, dim - d):
            if n == 1:
                Lnew = (d + 1) - r2
            else:
                Lnew = ((2 * n + d - 1 - r2) * Lcur - (n + d - 1) * Lprev) / n
            Lprev, Lcur = Lcur, Lnew
            if abs(coeffs[n]) > 1e-18:
                acc = acc + coeffs[n] * pref[n] * Lcur
        W += (2.0 if d else 1.0) * (phase * acc).real
    return W / np.pi


# ---------------------------------------------------------------------------
# peaks


def count_peaks(density: np.ndarray, prominence: float = 0.05) -> int:
    """Number of peaks with relative prominence above `prominence` * max."""
    if prominence <= 0:
        raise DomainError("prominence must be positive")
    peaks, _ = find_peaks(np.asarray(density), prominence=prominence * np.max(density))
    return int(len(peaks))
