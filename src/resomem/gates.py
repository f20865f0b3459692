"""Beamsplitter + homodyne conditioning: one exact quadrature-picture kernel,
the 50:50 beamsplitter image that Wigner grids and quadrature densities read,
and the Fock-basis gates kept as the kernel's independent oracles.

Beamsplitter convention (matching the effective resonator relations):
    a'    =  sqrt(T) a + sqrt(1-T) b,
    b_out = -sqrt(1-T) a + sqrt(T) b,
realized by U = exp[theta (a^dag b - a b^dag)] with cos(theta) = sqrt(T).
`condition_on_quadrature` works with wavefunctions, on which U only rotates
the arguments. The Fock oracles (`JointState`, `beamsplitter_apply`,
`homodyne_project`, `window_condition`) apply U block by block on the fixed-N
subspaces, since it conserves total photon number. Only tests call them, and
`_bs_block` imports `scipy.linalg`, which the `test` extra installs; no
scenario or figure needs scipy. The 50:50 beamsplitter's blocks
(`fifty_fifty_blocks`) come from a recurrence instead, and `fifty_fifty_image`
applies them to a matrix read as a two-mode state: the Wigner grids read the
image of rho, and its diagonal gives the product rule
psi_m(x) psi_n(x) = sum_k T[k, (m, n)] psi_k(sqrt2 x) of every quadrature density.

Quadrature convention (Lvovsky & Raymer, Rev. Mod. Phys. 81, 299 (2009)):
<x_theta| = <x| e^{i theta n}, so x_theta = x cos(theta) - p sin(theta) and
theta = pi/2 measures -p. Component n of that bra is e^{i n theta} psi_n(x)
with psi_n a real Hermite function, so every kernel puts the phase on the
state and reads real `hermite_functions` tables: rho o F_theta with
F_theta[m, n] = e^{i (m - n) theta} (`phase_matrix`) is rho rotated by theta,
the density is psi(x)^T Re(rho o F_theta) psi(x), a sum over the 2 dim - 1
functions psi_k(sqrt2 x) by the product rule, `quadrature_density` gives the
two-point form <x_theta|rho|x'_theta>, and `condition_on_quadrature` and
`homodyne_density_grid` multiply the amplitudes by e^{i n theta}.

A `hermite_functions` table costs one Python step per row, not per point:
~7-8.5 us a row from 60 to 240 points at dims 40-79, 12-13 us at 1 424 points
(one thread, 2-core x86-64 host). So a caller that needs several tables of one dim stacks their
arguments into one call: the four shifted stabilizer tables of
`breeding.gkp_stabilizer_expectation`, the memory and ancilla tables of each
node block here, and one table per distinct axis of a batch of Wigner grids
(`wigner.wigner_grids`), which also takes one `fifty_fifty_image` of the whole
batch (its blocks ~3 ms at dim 40).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ContractError, DimensionError, DomainError
from .fock import NORM_TOL, DensityMatrix, FockVector

PROJECTION_GRID_BOUND = 12.0
PROJECTION_GRID_STEP = 1e-3  # tomography's sampling grid and bin width
WINDOW_PANEL_WIDTH = 0.25  # widest Gauss-Legendre panel of a window rule
WINDOW_PANEL_NODES = 16  # Gauss-Legendre nodes per panel
# bound on the working arrays of one block of outcome nodes in
# `condition_on_quadrature`: 16 MiB keeps a +-0.1 window (16 nodes) one block
# up to dim 150, and holds a dim-300 step with a +-2 window (256 nodes) to a
# 66 MB process peak, where one block of all its nodes peaked at 1.1 GB
NODE_BLOCK_BYTES = 16 << 20


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
    three-term recurrence on psi_n directly; shape (dim,) + shape(x).

    Elementwise in x, so tables stacked into one x are bit-identical to
    tables made one call each, and the call costs one step per row."""
    x = np.asarray(x, dtype=float)
    psi = np.zeros((dim,) + x.shape)
    psi[0] = np.pi ** -0.25 * np.exp(-x * x / 2)
    if dim > 1:
        psi[1] = np.sqrt(2.0) * x * psi[0]
    for n in range(2, dim):
        psi[n] = np.sqrt(2.0 / n) * x * psi[n - 1] - np.sqrt((n - 1) / n) * psi[n - 2]
    return psi


def phase_matrix(theta: float | np.ndarray, dim: int) -> np.ndarray:
    """F_theta[m, n] = e^{i (m - n) theta}, so rho o F_theta = e^{i theta n} rho e^{-i theta n};
    shape shape(theta) + (dim, dim)."""
    e = np.exp(1j * np.asarray(theta, dtype=float)[..., None] * np.arange(dim))
    return e[..., :, None] * e[..., None, :].conj()


def quadrature_density(rho: np.ndarray, theta: float, psi: np.ndarray, kets: np.ndarray) -> np.ndarray:
    """<x_theta|rho|x'_theta> with psi(x) in the columns of `psi` and psi(x')
    in those of `kets`, both real Hermite-function columns (dim, V) from
    `hermite_functions`.

    Each bra is <x_theta| = e^{i n theta} psi_n(x) with psi_n real, so the
    phase moves onto rho: <x_theta|rho|x'_theta> = psi(x)^T (rho o F_theta) psi(x')
    (`phase_matrix`). Rotating rho costs dim^2, and the V-sized contraction
    is real. The density itself, x' = x, is the 50:50-image sum of
    `wigner.marginal`.
    """
    return np.einsum("iv,iv->v", psi, (rho * phase_matrix(theta, rho.shape[0])) @ kets)


def fifty_fifty_blocks(dim: int):
    """Yield, for N = 0 .. 2 dim - 2, C^N[k, m] = <k, N-k|U|m, N-m> for the 50:50
    beamsplitter U a^dag U^dag = (a^dag + b^dag)/sqrt2, U b^dag U^dag = (a^dag - b^dag)/sqrt2:
    every row k, and the columns with m, N - m < dim.  A whole block (N < dim) is
    `_bs_block(N, N + 1, N + 1, pi/4)` with its columns reversed (U = U_{pi/4} SWAP).
    Each block comes from the one before by both creation paths,
    U|m, n> = (sqrt m U a^dag|m-1, n> + sqrt n U b^dag|m, n-1>)/N, which keeps
    ||C C^T - I||_2 at 4.4e-14 up to N = 298; the a^dag path alone,
    U a^dag|m-1, n>/sqrt m, lets rounding grow to 2e-5 at N = 78 and 1e56 at N = 298.
    """
    root = np.sqrt(np.arange(2 * dim))
    C, lo = np.ones((1, 1)), 0  # lo: the m of C's first column
    yield C
    for N in range(1, 2 * dim - 1):
        prev_lo, lo = lo, max(0, N - dim + 1)
        m = np.arange(lo, min(N, dim - 1) + 1)
        padded = np.zeros((N, C.shape[1] + 2))  # C^{N-1}, column i holding m = prev_lo - 1 + i
        padded[:, 1:-1] = C
        a = padded[:, lo - prev_lo:][:, :len(m)] * root[m]  # sqrt m U|m-1, n>
        b = padded[:, lo - prev_lo + 1:][:, :len(m)] * root[N - m]  # sqrt n U|m, n-1>
        C = np.empty((N + 1, len(m)))
        C[0] = 0.0
        np.multiply(root[1:N + 1, None], a + b, out=C[1:])  # a^dag: output k - 1 -> k, times sqrt k
        np.subtract(a, b, out=a)
        a *= root[N:0:-1, None]
        C[:-1] += a  # b^dag: output k stays, times sqrt(N - k)
        C /= N * np.sqrt(2.0)
        yield C


def fifty_fifty_image(S: np.ndarray) -> np.ndarray:
    """H[..., k, j] = <k, j|U|S>>, shape (..., 2 dim - 1, 2 dim - 1): each (dim, dim) matrix
    of the stack S read as the two-mode state sum S[m, n] |m, n> and passed through the
    50:50 beamsplitter U of `fifty_fifty_blocks`, which rotates the |m, n> wavefunction
    psi_m(x1) psi_n(x2) onto ((x1 + x2)/sqrt2, (x1 - x2)/sqrt2). At x1 = x2 = x this is the
    product rule sum S[m, n] psi_m(x) psi_n(x) = sum_k (H psi(0))_k psi_k(sqrt2 x), within
    2.3e-15 of psi_m psi_n on [-12, 12] at dim 20 and 8e-15 at dim 80. Anti-diagonal N of H
    is block C^N times anti-diagonal N of S: one matrix product per block for the stack.
    """
    S = np.asarray(S)
    dim = S.shape[-1]
    flipped = S[..., ::-1]  # anti-diagonal N of S is diagonal dim - 1 - N of this
    H = np.zeros(S.shape[:-2] + (2 * dim - 1, 2 * dim - 1), dtype=np.result_type(S, float))
    for N, C in enumerate(fifty_fifty_blocks(dim)):
        anti = np.diagonal(flipped, dim - 1 - N, -2, -1)  # S[m, N - m], m ascending
        k = np.arange(N + 1)
        H[..., k, N - k] = (C @ anti[..., None])[..., 0]
    return H


def product_table(dim: int) -> np.ndarray:
    """The product rule as the dense table T[k, (m, n)], shape (2 dim - 1, dim^2): bit for
    bit `fifty_fifty_image` of the dim^2 unit matrices times psi(0), scattered from the
    even rows N - k of each block (psi_{N-k}(0) vanishes for odd N - k) without that image."""
    psi0 = hermite_functions(0.0, 2 * dim - 1)
    table = np.zeros((dim * dim, 2 * dim - 1))  # T^T: T is its F-ordered view, as BLAS has always read it
    for N, C in enumerate(fifty_fifty_blocks(dim)):
        m = np.arange(max(0, N - dim + 1), min(N, dim - 1) + 1)
        # += turns a -0.0 entry into +0.0, as a sum over the image does
        table[m * dim + N - m, N::-2] += (C[N::-2] * psi0[:N + 1:2, None]).T
    return table.T


@lru_cache
def gauss_hermite(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes, and weights times e^{x^2}: the rule integrates
    p(x) e^{-x^2} exactly for every polynomial p of degree <= `degree`, and it
    takes the integrand with its Gaussian included. The scaled weights are
    1 / (n psi_{n-1}(x)^2), which neither underflows nor overflows at large n.

    Computed once per degree (1.0-1.9 ms at the degrees 117-177 of a dim 40-60
    breeding step) and shared: both arrays are read-only."""
    n = degree // 2 + 1
    with np.errstate(all="ignore"):  # hermgauss's own weights underflow for n >~ 400
        x, _ = np.polynomial.hermite.hermgauss(n)
    w = 1.0 / (n * hermite_functions(x, n)[-1] ** 2)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def projection_rule(window: tuple[float, float] | None = None):
    """Outcome nodes and weights that conditioning sums over: the ideal
    value-0 projection is the one-node rule (x = 0, w = 1); a window
    [lo, hi] inside +-PROJECTION_GRID_BOUND is the composite Gauss-Legendre
    rule of WINDOW_PANEL_NODES nodes on each of ceil((hi - lo) /
    WINDOW_PANEL_WIDTH) equal panels: 16 nodes for +-0.1, 1 536 for +-12.

    The conditioned state is an entire function of the outcome, smooth on the
    scale of its Hermite functions' oscillations, so 16 nodes (exact for
    polynomials of degree 31) per panel of width <= 0.25 reach rounding.
    Against 32 nodes per 0.05-wide panel, breeding steps 1 and 2 of cat and
    GKP memories move rho by <= 4e-16 and the acceptance by <= 6e-16
    relative, at alpha = 1 (dims 40 and 80; windows +-0.1, +-0.5, +-2,
    [0.2, 0.4]) and at alpha = 3.25, dim 80 (+-0.1, +-2, [1, 3]); 16 nodes
    per 1.0-wide panel also reach rounding there, and a 1e-3 trapezoid rule
    is off by up to 1.4e-6.
    """
    if window is None:
        return np.zeros(1), np.ones(1)
    lo, hi = window
    if not -PROJECTION_GRID_BOUND <= lo < hi <= PROJECTION_GRID_BOUND:
        raise DomainError(f"window [{lo}, {hi}]: need -{PROJECTION_GRID_BOUND:g} <= lo < hi <= {PROJECTION_GRID_BOUND:g}")
    x, w = np.polynomial.legendre.leggauss(WINDOW_PANEL_NODES)
    panels = math.ceil((hi - lo) / WINDOW_PANEL_WIDTH)
    half = (hi - lo) / (2 * panels)
    mid = lo + half * (2 * np.arange(panels) + 1)
    return (mid[:, None] + half * x).ravel(), np.tile(half * w, panels)


def _eigen_factors(state) -> np.ndarray:
    """F with F F^dag = rho, shape (dim, rank); amplitudes are their own single column."""
    state = np.asarray(state, dtype=complex)
    if state.ndim == 1:
        return state[:, None]
    lam, vec = np.linalg.eigh((state + state.conj().T) / 2)
    keep = lam > 1e-12 * lam[-1]
    return vec[:, keep] * np.sqrt(lam[keep])


def condition_on_quadrature(
    memory: np.ndarray,
    ancilla: np.ndarray,
    T: float,
    theta: float,
    nodes: np.ndarray,
    weights: np.ndarray,
) -> tuple[np.ndarray, float]:
    """Mix `memory` (mode A) with `ancilla` (mode B), each amplitudes (1-d) or a
    density matrix (2-d), on a beamsplitter of transmittance T, project B on
    x_theta = x_g for each outcome node and sum over the nodes and both ports'
    eigen-factors F (rho = F F^dag; a density matrix keeps the eigenvalues of
    its Hermitian part above 1e-12 of the largest): returns (the unnormalized
    conditioned memory, its trace). For a memory column psi and an ancilla column phi,
        (K(x0) psi)(x) = psi(sqrt(T) x - sqrt(1-T) x0) phi(sqrt(1-T) x + sqrt(T) x0),
    as the beamsplitter only rotates x_theta wavefunctions' arguments. The Fock
    amplitudes of K(x0) psi are integrals of a polynomial of degree <= 3(dim-1)
    times e^{-x^2}, so Gauss-Hermite quadrature gives them exactly; only the output
    is truncated to `dim`. The factors carry the phase e^{i n theta}, the sum is
    rotated back by conj(F_theta), and the nodes are summed a block at a time, with
    the memory and the ancilla table of a block from one `hermite_functions` call;
    a block takes as many nodes as keep its working arrays within NODE_BLOCK_BYTES.
    """
    mem, anc = _eigen_factors(memory), _eigen_factors(ancilla)
    dim = len(mem)
    if len(anc) != dim:
        raise DimensionError("memory and input dims must match")
    phase = np.exp(1j * theta * np.arange(dim))
    mem, anc = mem * phase[:, None], anc * phase[:, None]
    x, wx = gauss_hermite(3 * (dim - 1))
    psi_out = hermite_functions(x, dim) * wx
    nodes = np.asarray(nodes, dtype=float)
    t, r = np.sqrt(T), np.sqrt(1.0 - T)
    # per node: the memory and ancilla tables (2 dim len(x) floats) and the
    # rank-by-rank product m * a (len(x) complex per pair of columns)
    block = max(1, NODE_BLOCK_BYTES // (16 * len(x) * (dim + mem.shape[1] * anc.shape[1])))
    cond = None
    for lo in range(0, len(nodes), block):
        x0 = nodes[lo : lo + block, None]
        psi = hermite_functions(np.stack((t * x - r * x0, r * x + t * x0)), dim)  # memory, ancilla
        m = np.tensordot(mem, psi[:, 0], axes=(0, 0))
        a = np.tensordot(anc, psi[:, 1], axes=(0, 0))
        out = np.tensordot(psi_out, m[:, None] * a, axes=(1, 3))  # (dim, memory rank, ancilla rank, block)
        part = (out * weights[lo : lo + block]).reshape(dim, -1) @ out.reshape(dim, -1).conj().T
        cond = part if cond is None else cond + part
    cond = cond * phase_matrix(theta, dim).conj()
    return cond, float(np.trace(cond).real)


def homodyne_project(j: JointState, mode: str, theta: float, value: float):
    """Project one mode onto the quadrature eigenvalue `value` at phase theta:
    `homodyne_density_grid` at that one value.

    Returns (unnormalized survivor FockVector, density). The density is the
    squared norm of the projected vector and integrates to 1 over value.
    """
    j.require_normalized()
    proj, density = homodyne_density_grid(j, mode, theta, [value])
    return FockVector(proj.shape[1], proj[0]), float(density[0])


def homodyne_density_grid(j: JointState, mode: str, theta: float, grid: np.ndarray):
    """Vectorized projection onto every value in `grid`, with the bra's phase
    e^{i n theta} on the projected mode's amplitudes.

    Returns (proj, density): proj[i] is the unnormalized surviving vector for
    grid[i], density[i] its squared norm.
    """
    if mode not in ("A", "B"):
        raise DomainError(f"mode must be 'A' or 'B', got {mode!r}")
    amp = j.amp if mode == "B" else j.amp.T  # (surviving dim, projected dim)
    proj = ((amp * np.exp(1j * theta * np.arange(amp.shape[1]))) @ hermite_functions(grid, amp.shape[1])).T
    density = np.sum(np.abs(proj) ** 2, axis=1)
    return proj, density


def window_condition(j: JointState, mode: str, theta: float, lo: float, hi: float):
    """Condition on the quadrature outcome falling in [lo, hi].

    Integrates the projected states over the window by `projection_rule` and
    returns (normalized DensityMatrix of the survivor, acceptance probability).
    """
    grid, w = projection_rule((lo, hi))
    j.require_normalized()
    proj, density = homodyne_density_grid(j, mode, theta, grid)
    rho = (proj.T * w) @ proj.conj()
    acceptance = float(np.sum(w * density))
    return DensityMatrix(proj.shape[1], rho / np.trace(rho).real), acceptance
