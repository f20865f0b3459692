"""Wigner function grids, counting of their negative regions, and quadrature
marginals.

Convention: W(x, p) = (1/pi) Tr[rho D(2 beta) Pi] with beta = (x + i p)/sqrt(2)
and Pi the photon-number parity, so the vacuum has W(0, 0) = 1/pi. A grid is
separable in the Hermite functions of `gates`, the quadrature picture of the
marginals and the tomography: see `wigner_grid`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DomainError
from .fock import as_density_matrix
from .gates import hermite_functions, quadrature_density

DEFAULT_GRID = np.linspace(-5.0, 5.0, 201)
DEFAULT_GRID.flags.writeable = False  # the shared default of every wigner grid and config
NEGATIVE_REGION_THRESHOLD = -1e-3


@dataclass(frozen=True)
class WignerGrid:
    xs: np.ndarray
    ps: np.ndarray
    w: np.ndarray = field(repr=False)

    @property
    def dx(self) -> float:
        return float(self.xs[1] - self.xs[0])

    @property
    def dp(self) -> float:
        return float(self.ps[1] - self.ps[0])

    def integral(self) -> float:
        if len(self.xs) < 2 or len(self.ps) < 2:
            raise DomainError("the integral of a Wigner grid needs at least two points on each axis")
        return float(self.w.sum() * self.dx * self.dp)


def _fifty_fifty_blocks(dim: int):
    """Yield, for N = 0 .. 2 dim - 2, C^N[k, m] = <k, N-k|U|m, N-m> for the 50:50
    beamsplitter U a^dag U^dag = (a^dag + b^dag)/sqrt2, U b^dag U^dag = (a^dag - b^dag)/sqrt2:
    every row k, and the columns with m, N - m < dim.  A whole block (N < dim) is
    `gates._bs_block(N, N + 1, N + 1, pi/4)` with its columns reversed (U = U_{pi/4} SWAP).
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
        C = np.zeros((N + 1, len(m)))
        C[1:] = root[1:N + 1, None] * (a + b)  # a^dag: output k - 1 -> k, times sqrt k
        C[:-1] += root[N:0:-1, None] * (a - b)  # b^dag: output k stays, times sqrt(N - k)
        C /= N * np.sqrt(2.0)
        yield C


def wigner_grid(state, xs=None, ps=None) -> WignerGrid:
    """Evaluate the Wigner function of `state` on the (xs, ps) grid:

        W(x, p) = sum_{k, j < M} G_kj psi_k(sqrt2 x) psi_j(sqrt2 p),  M = 2 dim - 1,
        G_kj = pi^{-1/2} Re[(-i)^j <k, j|U|rho>>],

    rho_mn read as the amplitude of |m, n> and U the 50:50 beamsplitter of `_fifty_fifty_blocks`.
    Exact: in W = (1/pi) int <x+y|rho|x-y> e^{-2ipy} dy, psi_m(x+y) psi_n(x-y) is the |m, n>
    wavefunction, which U rotates by 45 degrees onto (sqrt2 x, sqrt2 y), and psi_j has Fourier
    eigenvalue (-i)^j.  G costs O(dim^3), one block of U per N = k + j; the grid, two real
    matrix products, O(M |xs| |ps|).  Measured against closed forms: <= 1.3e-15 for Fock,
    coherent and squeezed states to dim 80, 3.9e-15 for alpha = 4 - 3i at dim 150.
    """
    rho = as_density_matrix(state)
    xs = DEFAULT_GRID if xs is None else np.asarray(xs, dtype=float)
    ps = DEFAULT_GRID if ps is None else np.asarray(ps, dtype=float)
    radius = np.sqrt(2.0 * rho.mean_photon_number()) + 2.0
    if not any(np.min(axis) <= -radius and np.max(axis) >= radius for axis in (xs, ps)):
        raise DimensionError(
            f"grid does not cover the state support (need an axis spanning [-{radius:.1f}, {radius:.1f}])"
        )
    u, v = np.sqrt(2.0) * xs, np.sqrt(2.0) * ps
    with np.errstate(over="ignore"):  # an axis beyond the float range is refused without a warning
        if not np.all(np.isfinite(np.concatenate((u, v)) ** 2)):
            raise DomainError("Wigner function not finite on the grid (grid too far out for the float range)")
    dim, M = rho.dim, 2 * rho.dim - 1
    flipped = rho.rho[:, ::-1]  # anti-diagonal N of rho is diagonal dim - 1 - N of this
    G = np.zeros((M, M))
    for N, C in enumerate(_fifty_fifty_blocks(dim)):
        j = np.arange(N, -1, -1)  # the b photons of output row k = N - j; (-1j) ** j would round
        G[N - j, j] = ((-1j) ** (j % 4) * (C @ flipped.diagonal(dim - 1 - N))).real
    W = hermite_functions(v, M).T @ (G.T @ hermite_functions(u, M)) / np.sqrt(np.pi)
    return WignerGrid(xs, ps, W)


def negative_region_count(grid: WignerGrid) -> int:
    """Count 4-connected regions where W < NEGATIVE_REGION_THRESHOLD.

    Each row's runs of negative cells are the nodes; a run joins every run of
    the row above whose columns overlap its own, and union-find counts the
    components."""
    mask = grid.w < NEGATIVE_REGION_THRESHOLD
    edges = np.diff(np.pad(mask, ((0, 0), (1, 1))).astype(np.int8), axis=1)
    row, start = np.nonzero(edges == 1)  # row-major: runs sorted by row, then column
    end = np.nonzero(edges == -1)[1]  # one past each run's last column
    # keys that sort every run by (row, column); a run in row r + 1 overlaps
    # the runs of row r from the first ending after its start to the last
    # starting before its end
    width = mask.shape[1] + 2
    start_key, end_key = row * width + start, row * width + end
    below = row > 0
    first = np.searchsorted(end_key, start_key[below] - width, side="right")
    last = np.searchsorted(start_key, end_key[below] - width, side="left")
    parent = list(range(len(row)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    merged = 0
    for b, lo, hi in zip(np.flatnonzero(below).tolist(), first.tolist(), last.tolist()):
        for a in range(lo, hi):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
                merged += 1
    return len(row) - merged


def marginal(state, theta: float, grid: np.ndarray, psi: np.ndarray | None = None) -> np.ndarray:
    """Probability density of the x_theta quadrature, <x_theta|rho|x_theta>
    (`gates.quadrature_density`: rho rotated by theta, real Hermite functions).
    `psi`, if given, is `hermite_functions(grid, dim)`, shared across phases."""
    rho = as_density_matrix(state)
    if psi is None:
        psi = hermite_functions(grid, rho.dim)
    return quadrature_density(rho.rho, theta, psi)

