"""Beamsplitter + homodyne conditioning: one exact quadrature-picture kernel,
and the Fock-basis gates kept as its independent oracles.

Beamsplitter convention (matching the effective resonator relations):
    a'    =  sqrt(T) a + sqrt(1-T) b,
    b_out = -sqrt(1-T) a + sqrt(T) b,
realized by U = exp[theta (a^dag b - a b^dag)] with cos(theta) = sqrt(T).
`condition_on_quadrature` works with wavefunctions, on which U only rotates
the arguments. The Fock oracles (`beamsplitter_apply`, `homodyne_project`,
`window_condition`) apply U block by block on the fixed-N subspaces, since it
conserves total photon number.

Quadrature convention: <x_theta| = <x| e^{i theta n}, so
x_theta = x cos(theta) - p sin(theta) and theta = pi/2 measures -p.
Component n of that bra is e^{i n theta} psi_n(x) with psi_n a real Hermite
function, so `quadrature_density` rotates rho instead of the bras:
<x_theta|rho|x'_theta> = psi(x)^T (rho o F_theta) psi(x'), F_theta[m, n] =
e^{i (m - n) theta}, and every contraction over the grid is real.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DimensionError, DomainError
from .fock import NORM_TOL, DensityMatrix, FockVector

PROJECTION_GRID_BOUND = 12.0
PROJECTION_GRID_STEP = 1e-3


@dataclass(frozen=True)
class JointState:
    """Two-mode pure state; amp[nA, nB] is the amplitude of |nA, nB>."""

    dimA: int
    dimB: int
    amp: np.ndarray = field(repr=False)

    def __post_init__(self):
        amp = np.asarray(self.amp, dtype=complex)
        if amp.shape != (self.dimA, self.dimB):
            raise DimensionError(f"amp shape {amp.shape} != ({self.dimA}, {self.dimB})")
        object.__setattr__(self, "amp", amp)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amp))

    def require_normalized(self):
        if abs(self.norm - 1.0) > NORM_TOL:
            raise ContractError(f"joint state not normalized: |amp|={self.norm}")

    def total_photon_distribution(self) -> np.ndarray:
        """Probability of total photon number N = nA + nB."""
        p2 = np.abs(self.amp) ** 2
        out = np.zeros(self.dimA + self.dimB - 1)
        for na in range(self.dimA):
            out[na : na + self.dimB] += p2[na]
        return out


def _bs_block(N: int, dimA: int, dimB: int, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Rotation on the fixed-N subspace; returns (valid nA indices, block unitary)."""
    from scipy.linalg import expm  # imported here: only the Fock oracles use it

    na = np.arange(max(0, N - dimB + 1), min(N, dimA - 1) + 1)
    size = len(na)
    gen = np.zeros((size, size))
    for i, n in enumerate(na[:-1]):
        # a^dag b : |n, N-n> -> sqrt((n+1)(N-n)) |n+1, N-n-1>
        c = np.sqrt((n + 1) * (N - n))
        gen[i + 1, i] += c
        gen[i, i + 1] -= c
    return na, expm(theta * gen)


def beamsplitter_apply(a: FockVector, b: FockVector, T: float) -> JointState:
    """Mix two single-mode states on a beamsplitter of transmittance T."""
    if a.dim != b.dim:
        raise DimensionError("input dimensions must match")
    if not 0.0 <= T <= 1.0:
        raise DomainError(f"T={T} outside [0, 1]")
    joint = np.outer(a.amp, b.amp)
    return beamsplitter_apply_joint(JointState(a.dim, b.dim, joint), T)


def beamsplitter_apply_joint(j: JointState, T: float) -> JointState:
    """Apply the beamsplitter unitary to an arbitrary two-mode state."""
    if not 0.0 <= T <= 1.0:
        raise DomainError(f"T={T} outside [0, 1]")
    theta = float(np.arccos(np.sqrt(T)))
    out = np.zeros_like(j.amp)
    for N in range(j.dimA + j.dimB - 1):
        na, block = _bs_block(N, j.dimA, j.dimB, theta)
        vec = j.amp[na, N - na]
        out[na, N - na] = block @ vec
    return JointState(j.dimA, j.dimB, out)


def hermite_functions(x: float | np.ndarray, dim: int) -> np.ndarray:
    """psi_n(x) = pi^{-1/4} (2^n n!)^{-1/2} H_n(x) e^{-x^2/2} via the stable
    three-term recurrence on psi_n directly; shape (dim,) + shape(x)."""
    x = np.asarray(x, dtype=float)
    psi = np.zeros((dim,) + x.shape)
    psi[0] = np.pi ** -0.25 * np.exp(-x * x / 2)
    if dim > 1:
        psi[1] = np.sqrt(2.0) * x * psi[0]
    for n in range(2, dim):
        psi[n] = np.sqrt(2.0 / n) * x * psi[n - 1] - np.sqrt((n - 1) / n) * psi[n - 2]
    return psi


def quadrature_eigenbra(x: float | np.ndarray, theta: float, dim: int) -> np.ndarray:
    """Dual vectors <x_theta = x| = <x| e^{i theta n} of the quadrature
    x_theta = x cos(theta) - p sin(theta); theta = pi/2 measures -p.
    Component n is e^{i n theta} psi_n(x); shape (dim,) + shape(x)."""
    if dim < 2:
        raise DimensionError("dim must be >= 2")
    x = np.asarray(x, dtype=float)
    phase = np.exp(1j * theta * np.arange(dim)).reshape((dim,) + (1,) * x.ndim)
    return phase * hermite_functions(x, dim)


def phase_matrix(theta: float, dim: int) -> np.ndarray:
    """F_theta[m, n] = e^{i (m - n) theta}, so rho o F_theta = e^{i theta n} rho e^{-i theta n}."""
    e = np.exp(1j * theta * np.arange(dim))
    return e[:, None] * e.conj()


def quadrature_density(rho: np.ndarray, theta: float, psi: np.ndarray, kets: np.ndarray | None = None) -> np.ndarray:
    """<x_theta|rho|x'_theta> with psi(x) in the columns of `psi` and psi(x')
    in those of `kets`, both real Hermite-function columns (dim, V) from
    `hermite_functions`.

    Each bra is <x_theta| = e^{i n theta} psi_n(x) with psi_n real, so the
    phase moves onto rho: <x_theta|rho|x'_theta> = psi(x)^T (rho o F_theta) psi(x')
    (`phase_matrix`). Rotating rho costs dim^2, and the V-sized contraction
    is real. Without `kets` this is the quadrature density
    psi(x)^T Re(rho o F_theta) psi(x), real.
    """
    rot = rho * phase_matrix(theta, rho.shape[0])
    if kets is None:
        return np.einsum("iv,iv->v", psi, rot.real @ psi)
    return np.einsum("iv,iv->v", psi, rot @ kets)


def gauss_hermite(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes, and weights times e^{x^2}: the rule integrates
    p(x) e^{-x^2} exactly for every polynomial p of degree <= `degree`, and it
    takes the integrand with its Gaussian included. The scaled weights are
    1 / (n psi_{n-1}(x)^2), which neither underflows nor overflows at large n."""
    n = degree // 2 + 1
    with np.errstate(all="ignore"):  # hermgauss's own weights underflow for n >~ 400
        x, _ = np.polynomial.hermite.hermgauss(n)
    return x, 1.0 / (n * hermite_functions(x, n)[-1] ** 2)


def projection_rule(window: tuple[float, float] | None = None):
    """Outcome nodes and weights that conditioning sums over: the ideal
    value-0 projection is the one-node rule (x = 0, w = 1); a window
    [lo, hi] is the trapezoid rule at PROJECTION_GRID_STEP."""
    if window is None:
        return np.zeros(1), np.ones(1)
    lo, hi = window
    if not lo < hi:
        raise DomainError("empty window: need lo < hi")
    npts = max(3, int(round((hi - lo) / PROJECTION_GRID_STEP)) + 1)
    grid = np.linspace(lo, hi, npts)
    w = np.full(npts, grid[1] - grid[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return grid, w


def condition_on_quadrature(
    rho: np.ndarray,
    ancilla: np.ndarray,
    T: float,
    theta: float,
    nodes: np.ndarray,
    weights: np.ndarray,
) -> tuple[np.ndarray, float]:
    """Mix `rho` (mode A) with the pure `ancilla` (mode B) on a beamsplitter
    of transmittance T, project B on x_theta = x_g for each outcome node and
    sum: returns (sum_g w_g K(x_g) rho K(x_g)^dag, its trace).

    On x_theta wavefunctions the beamsplitter only rotates the arguments:
        (K(x0) psi)(x) = psi(sqrt(T) x - sqrt(1-T) x0) phi(sqrt(1-T) x + sqrt(T) x0),
    phi being the ancilla's. The Fock amplitudes of K(x0) psi are integrals
    of a polynomial of degree <= 3(dim-1) times e^{-x^2}, so Gauss-Hermite
    quadrature gives them exactly; only the output is truncated to `dim`.
    rho enters through its eigen-factors, rho = F F^dag.
    """
    rho = np.asarray(rho, dtype=complex)
    dim = rho.shape[0]
    if np.shape(ancilla) != (dim,):
        raise DimensionError("memory and input dims must match")
    lam, vec = np.linalg.eigh((rho + rho.conj().T) / 2)
    keep = lam > 1e-12 * lam[-1]
    factors = vec[:, keep] * np.sqrt(lam[keep])
    x, wx = gauss_hermite(3 * (dim - 1))
    x0 = np.asarray(nodes, dtype=float)[:, None]
    t, r = np.sqrt(T), np.sqrt(1.0 - T)
    mem = np.tensordot(factors, quadrature_eigenbra(t * x - r * x0, theta, dim), axes=(0, 0))
    anc = np.tensordot(ancilla, quadrature_eigenbra(r * x + t * x0, theta, dim), axes=(0, 0))
    out = np.tensordot(quadrature_eigenbra(x, theta, dim).conj() * wx, mem * anc, axes=(1, 2))
    cond = (out * weights).reshape(dim, -1) @ out.reshape(dim, -1).conj().T  # out: (dim, rank, G)
    return cond, float(np.trace(cond).real)


def homodyne_project(j: JointState, mode: str, theta: float, value: float):
    """Project one mode onto the quadrature eigenvalue `value` at phase theta.

    Returns (unnormalized survivor FockVector, density). The density is the
    squared norm of the projected vector and integrates to 1 over value.
    """
    j.require_normalized()
    dim = _mode_dim(j, mode)
    bra = quadrature_eigenbra(value, theta, dim)
    if mode == "B":
        surv = j.amp @ bra
        sdim = j.dimA
    else:
        surv = j.amp.T @ bra
        sdim = j.dimB
    density = float(np.linalg.norm(surv) ** 2)
    return FockVector(sdim, surv), density


def _mode_dim(j: JointState, mode: str) -> int:
    if mode == "A":
        return j.dimA
    if mode == "B":
        return j.dimB
    raise DomainError(f"mode must be 'A' or 'B', got {mode!r}")


def homodyne_density_grid(j: JointState, mode: str, theta: float, grid: np.ndarray):
    """Vectorized projection onto every value in `grid`.

    Returns (proj, density): proj[i] is the unnormalized surviving vector for
    grid[i], density[i] its squared norm.
    """
    bras = quadrature_eigenbra(grid, theta, _mode_dim(j, mode))  # (dim, G)
    amp = j.amp if mode == "B" else j.amp.T
    proj = (amp @ bras).T  # (G, surviving dim)
    density = np.sum(np.abs(proj) ** 2, axis=1)
    return proj, density


def window_condition(j: JointState, mode: str, theta: float, lo: float, hi: float):
    """Condition on the quadrature outcome falling in [lo, hi].

    Integrates the projected states over the window by the trapezoid rule and
    returns (normalized DensityMatrix of the survivor, acceptance probability).
    """
    grid, w = projection_rule((lo, hi))
    j.require_normalized()
    proj, density = homodyne_density_grid(j, mode, theta, grid)
    rho = (proj.T * w) @ proj.conj()
    acceptance = float(np.sum(w * density))
    rho = rho / np.trace(rho).real
    sdim = j.dimA if mode == "B" else j.dimB
    return DensityMatrix(sdim, rho), acceptance


def full_line_window(j: JointState, mode: str, theta: float):
    """Window over the full projection grid [-bound, bound]; the survivor is
    the reduced state of the remaining mode."""
    return window_condition(j, mode, theta, -PROJECTION_GRID_BOUND, PROJECTION_GRID_BOUND)
