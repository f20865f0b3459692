"""Wigner function grids, counting of their negative regions, and quadrature
marginals.

Convention: W(x, p) = (1/pi) Tr[rho D(2 beta) Pi] with beta = (x + i p)/sqrt(2)
and Pi the photon-number parity, so the vacuum has W(0, 0) = 1/pi. A grid and
a marginal are both sums over the functions psi_k(sqrt2 .) of `gates`, with
coefficients read off H = `gates.fifty_fifty_image` of rho, rho passed as a
two-mode state through a 50:50 beamsplitter: see `wigner_grids` and `marginal`.
`wigner_grids` evaluates a batch of states of one dim with one image call and
one Hermite table per distinct axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DomainError
from .fock import as_density_matrix
from .gates import fifty_fifty_image, hermite_functions, phase_matrix

DEFAULT_GRID = np.linspace(-5.0, 5.0, 201)
DEFAULT_GRID.flags.writeable = False  # the shared default of every wigner grid and config
NEGATIVE_REGION_THRESHOLD = -1e-3
MARGINAL_BLOCK = 2048  # grid points whose psi_k(sqrt2 x) table `marginal` holds at once


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


def wigner_grid(state, xs=None, ps=None) -> WignerGrid:
    """The Wigner function of `state` on the (xs, ps) grid: `wigner_grids` of the one state."""
    return wigner_grids([state], xs, ps)[0]


def wigner_grids(states, xs=None, ps=None) -> list[WignerGrid]:
    """Evaluate the Wigner function of each of `states` on the (xs, ps) grid:

        W(x, p) = sum_{k, j < M} G_kj psi_k(sqrt2 x) psi_j(sqrt2 p),  M = 2 dim - 1,
        G_kj = pi^{-1/2} Re[(-i)^j H_kj],  H = `gates.fifty_fifty_image(rho)`,

    H_kj = <k, j|U|rho>> with rho_mn read as the amplitude of |m, n> and U the 50:50
    beamsplitter. Exact: in W = (1/pi) int <x+y|rho|x-y> e^{-2ipy} dy, psi_m(x+y) psi_n(x-y)
    is the |m, n> wavefunction, which U rotates by 45 degrees onto (sqrt2 x, sqrt2 y), and
    psi_j has Fourier eigenvalue (-i)^j.  G costs O(dim^3); the grid, two real matrix
    products, O(M |xs| |ps|).  Measured against closed forms: <= 1.3e-15 for Fock,
    coherent and squeezed states to dim 80, 3.9e-15 for alpha = 4 - 3i at dim 150.

    The states share one dim, and each must lie inside the grid. One image call serves
    the whole stack of states, and the Hermite table of each distinct axis (one for both
    when ps equals xs bit for bit) is built once. Both costs are set by a Python loop over
    rows, not by the grid points (the blocks of a dim-40 image ~3 ms, a 79-row table
    ~0.6 ms; see `gates`), so the five dim-40 panels of a figure cost one set of tables.
    Each state's G and W are the same products, in the same order, as for that state
    alone, so batching moves no bit.
    """
    rhos = [as_density_matrix(state) for state in states]
    xs = DEFAULT_GRID if xs is None else np.asarray(xs, dtype=float)
    ps = DEFAULT_GRID if ps is None else np.asarray(ps, dtype=float)
    for rho in rhos:
        radius = np.sqrt(2.0 * rho.mean_photon_number()) + 2.0
        if not any(np.min(axis) <= -radius and np.max(axis) >= radius for axis in (xs, ps)):
            raise DimensionError(
                f"grid does not cover the state support (need an axis spanning [-{radius:.1f}, {radius:.1f}])"
            )
    dims = sorted({rho.dim for rho in rhos})
    if len(dims) != 1:
        raise DimensionError(f"wigner_grids needs one or more states of one dim, got dims {dims}")
    u, v = np.sqrt(2.0) * xs, np.sqrt(2.0) * ps
    with np.errstate(over="ignore"):  # an axis beyond the float range is refused without a warning
        if not np.all(np.isfinite(np.concatenate((u, v)) ** 2)):
            raise DomainError("Wigner function not finite on the grid (grid too far out for the float range)")
    M = 2 * dims[0] - 1
    phase = (-1j) ** (np.arange(M) % 4)  # (-i)^j exactly; (-1j) ** j rounds at large j
    G = (phase * fifty_fifty_image(np.stack([rho.rho for rho in rhos]))).real
    psi_u = hermite_functions(u, M)
    # compared bit for bit: -0.0 == 0.0, but their odd rows differ in sign
    psi_v = psi_u if u.shape == v.shape and u.tobytes() == v.tobytes() else hermite_functions(v, M)
    return [WignerGrid(xs, ps, psi_v.T @ (G_s.T @ psi_u) / np.sqrt(np.pi)) for G_s in G]


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


def marginal(state, theta: float | np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Probability density of the x_theta quadrature on `grid`,
    <x_theta|rho|x_theta> = psi(x)^T Re(rho o F_theta) psi(x); one row per
    phase when `theta` is a 1d array.

    On the diagonal the 50:50 image turns the dim^2 terms into 2 dim - 1: the
    density is sum_k g_k psi_k(sqrt2 x) with g = H psi(0), H the
    `gates.fifty_fifty_image` of Re(rho o F_theta) (one (2 dim - 1)^2 image per
    phase), so each grid point costs 2 dim - 1 and one table serves every
    phase. g is computed once and the table MARGINAL_BLOCK grid points at
    a time, so the 24 001-point sampling grid at dim 20 holds a (39, 2048)
    table, 0.6 MB, instead of 7.5 MB. Rounding leaves values down to about
    -1e-16 where the density vanishes; they are set to 0, so the density's
    cumulative sum, the table `sample_homodyne` inverts, never decreases.
    """
    rho = as_density_matrix(state)
    g = fifty_fifty_image((rho.rho * phase_matrix(theta, rho.dim)).real) @ hermite_functions(0.0, 2 * rho.dim - 1)
    u = np.sqrt(2.0) * np.asarray(grid, dtype=float)
    dens = np.empty(g.shape[:-1] + u.shape)
    for i in range(0, len(u), MARGINAL_BLOCK):
        dens[..., i:i + MARGINAL_BLOCK] = g @ hermite_functions(u[i:i + MARGINAL_BLOCK], g.shape[-1])
    return np.maximum(dens, 0.0, out=dens)
