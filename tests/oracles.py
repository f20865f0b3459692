"""Independent references that only the tests call: the Fock-basis ladder
operators, the RK4 Lindblad integrator, the exact finite-alpha bred state,
the first-order (Euler) memory network, the Laguerre-series Wigner function,
peak counting, and checks on density matrices and two-mode Fock states.

Each one is derived apart from the library kernel it checks, and some use
scipy, a dependency of the tests alone.
"""

from __future__ import annotations

import numpy as np
from scipy.signal import find_peaks

from resomem.breeding import _projection_theta
from resomem.errors import ContractError, DomainError
from resomem.fock import DensityMatrix, FockVector, coherent_amplitudes, guard_dim, log_factorial
from resomem.gates import PROJECTION_GRID_BOUND, JointState, window_condition
from resomem.memory import CouplingSchedule, NetworkResult
from resomem.noise import NoiseParams

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


def _quadrature_zero_overlap(gamma: complex, theta: float) -> complex:
    """<x_theta = 0|gamma> = pi^{-1/4} exp(-|gamma|^2/2 - gamma^2 e^{2i theta}/2)."""
    return np.pi**-0.25 * np.exp(-abs(gamma) ** 2 / 2 - gamma**2 * np.exp(2j * theta) / 2)


def exact_bred_state(k: int, alpha: float, s: int, protocol: str, dim: int) -> FockVector:
    """Exact state after breeding k input cats of amplitude alpha, at any alpha.

    The state is tracked as a superposition sum_n c_n |i alpha n / sqrt(j)>
    over the integer lattice n after j cats, with no Fock truncation until the
    end. Step j (T = j/(j+1)) maps |i m>|i eps alpha> to
    |i(sqrt(T) m + sqrt(1-T) eps alpha)> |i(-sqrt(1-T) m + sqrt(T) eps alpha)>,
    so n -> n + eps, and the ancilla is projected with the closed-form
    <x_theta = 0|gamma> (theta = pi/2 for cat, 0 for gkp).
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    if s not in (+1, -1):
        raise DomainError("parity s must be +1 or -1")
    theta = _projection_theta(protocol)
    guard_dim(np.sqrt(k) * alpha, dim)
    coeffs = {1: 1.0 + 0j, -1: complex(s)}
    for j in range(1, k):
        nxt: dict[int, complex] = {}
        for n, c in coeffs.items():
            for eps, w in ((1, 1), (-1, s)):
                anc = 1j * alpha * (j * eps - n) / np.sqrt(j * (j + 1))
                nxt[n + eps] = nxt.get(n + eps, 0j) + c * w * _quadrature_zero_overlap(anc, theta)
        coeffs = nxt
    amp = sum(c * coherent_amplitudes(1j * alpha * n / np.sqrt(k), dim) for n, c in coeffs.items())
    return FockVector(dim, amp).normalized()


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
# quadrature marginals


def count_peaks(density: np.ndarray, prominence: float = 0.05) -> int:
    """Number of peaks with relative prominence above `prominence` * max."""
    if prominence <= 0:
        raise DomainError("prominence must be positive")
    peaks, _ = find_peaks(np.asarray(density), prominence=prominence * np.max(density))
    return int(len(peaks))
