"""Wigner function grids, counting of their negative regions, and quadrature
marginals.

Convention: W(x, p) = (1/pi) Tr[rho D(2 beta) Pi] with beta = (x + i p)/sqrt(2)
and Pi the photon-number parity, so the vacuum has W(0, 0) = 1/pi.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DomainError
from .fock import as_density_matrix, log_factorial
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
        return float(self.w.sum() * self.dx * self.dp)


def wigner_grid(state, xs=None, ps=None) -> WignerGrid:
    """Evaluate the Wigner function of `state` on the (xs, ps) grid.

    Uses the associated-Laguerre series for the displacement-parity matrix
    elements. The radial part depends on r^2 = |2 beta|^2 alone, so its
    recurrences run over the distinct radii of the grid and are scattered back
    to the points (each point sees the same floating-point operations as a
    per-point recurrence); stable to dim ~ 100 for |x|, |p| <= 6.
    """
    rho = as_density_matrix(state)
    xs = DEFAULT_GRID if xs is None else np.asarray(xs, dtype=float)
    ps = DEFAULT_GRID if ps is None else np.asarray(ps, dtype=float)
    radius = np.sqrt(2.0 * rho.mean_photon_number()) + 2.0
    if max(np.max(np.abs(xs)), np.max(np.abs(ps))) < radius:
        raise DimensionError(
            f"grid does not cover the state support (need radius >= {radius:.1f})"
        )
    X, P = np.meshgrid(xs, ps)
    B = np.sqrt(2.0) * (X + 1j * P)  # 2 beta
    r2 = (np.abs(B) ** 2).astype(float)
    env = np.exp(-r2 / 2)
    radii, to_grid = np.unique(r2, return_inverse=True)  # distinct r^2, and each point's index
    dim = rho.dim
    n_arr = np.arange(dim)
    signs = (-1.0) ** n_arr
    log_fact = log_factorial(n_arr)
    W = np.zeros_like(r2)
    # sum over diagonals d = m - n >= 0; the d > 0 terms appear twice as
    # conjugate pairs, so only their doubled real part is accumulated.
    for d in range(dim):
        coeffs = rho.rho[np.arange(dim - d), np.arange(d, dim)] * signs[: dim - d]
        if not np.any(np.abs(coeffs) > 1e-16):
            continue
        phase = env * B**d if d else env
        # sqrt(n!/m!) prefactor folded into the recurrence start
        pref = np.exp(0.5 * (log_fact[: dim - d] - log_fact[d:]))
        # Laguerre recurrence in n at fixed order d, accumulated on the fly
        Lprev = None
        Lcur = np.ones_like(radii)  # L_0^{(d)}
        acc = coeffs[0] * pref[0] * Lcur.astype(complex)
        for n in range(1, dim - d):
            if n == 1:
                Lnew = (d + 1) - radii
            else:
                Lnew = ((2 * n + d - 1 - radii) * Lcur - (n + d - 1) * Lprev) / n
            Lprev, Lcur = Lcur, Lnew
            # rho[n, n+d] times an element of the unitary D(2 beta) Pi: skipping moves W <= 2e-18 / pi
            if abs(coeffs[n]) > 1e-18:
                acc = acc + coeffs[n] * pref[n] * Lcur
        term = phase * acc[to_grid].reshape(r2.shape)  # numpy < 2 returns to_grid flat
        W += (2.0 if d else 1.0) * term.real
    if not np.all(np.isfinite(W)):
        raise DomainError("Wigner function not finite on the grid (grid too far out for the float range)")
    return WignerGrid(xs, ps, W / np.pi)


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

