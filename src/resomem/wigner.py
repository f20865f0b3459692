"""Wigner function grids, counting of their negative regions, and quadrature
marginals.

Convention: W(x, p) = (1/pi) Tr[rho D(2 beta) Pi] with beta = (x + i p)/sqrt(2)
and Pi the photon-number parity, so the vacuum has W(0, 0) = 1/pi. A grid sums
the associated-Laguerre series of rho's diagonals by Horner's rule in 2 beta,
one Laguerre recurrence per surviving diagonal over the distinct radii of the
grid; one complex grid carries the sum, so memory is O(grid + radii).
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
        if len(self.xs) < 2 or len(self.ps) < 2:
            raise DomainError("the integral of a Wigner grid needs at least two points on each axis")
        return float(self.w.sum() * self.dx * self.dp)


# a grid point beyond the float range makes r^2 or a Laguerre value inf or NaN: the last check refuses it
@np.errstate(over="ignore", invalid="ignore")
def wigner_grid(state, xs=None, ps=None) -> WignerGrid:
    """Evaluate the Wigner function of `state` on the (xs, ps) grid.

    W = e^{-r^2/2}/pi Re sum_d B^d a_d(r^2), with B = 2 beta, r^2 = |B|^2 and
    a_d = (2 if d else 1) sum_n (-1)^n rho[n, n+d] sqrt(n!/(n+d)!) L_n^{(d)}(r^2),
    the associated-Laguerre series of the displacement-parity matrix
    elements. The sum over diagonals d runs by Horner's rule in B, from the
    top surviving diagonal down. Each a_d depends on r^2 alone, so its
    Laguerre recurrence runs over the distinct radii of the grid, stops at
    the last coefficient that the skip rule keeps, and is scattered back to
    the points (each point sees the same floating-point operations as a
    per-point recurrence); stable to dim ~ 100 for |x|, |p| <= 6.
    """
    rho = as_density_matrix(state)
    xs = DEFAULT_GRID if xs is None else np.asarray(xs, dtype=float)
    ps = DEFAULT_GRID if ps is None else np.asarray(ps, dtype=float)
    radius = np.sqrt(2.0 * rho.mean_photon_number()) + 2.0
    if not any(np.min(axis) <= -radius and np.max(axis) >= radius for axis in (xs, ps)):
        raise DimensionError(
            f"grid does not cover the state support (need an axis spanning [-{radius:.1f}, {radius:.1f}])"
        )
    X, P = np.meshgrid(xs, ps)
    B = np.sqrt(2.0) * (X + 1j * P)  # 2 beta
    r2 = (np.abs(B) ** 2).astype(float)
    radii, to_grid = np.unique(r2, return_inverse=True)  # distinct r^2, and each point's index
    to_grid = to_grid.reshape(r2.shape)  # numpy < 2 returns it flat
    dim = rho.dim
    signs = (-1.0) ** np.arange(dim)
    log_fact = log_factorial(np.arange(dim))
    # coefficients of diagonal d = m - n >= 0; the d > 0 terms appear twice as
    # conjugate pairs, so only their doubled real part is kept
    coeffs = [rho.rho[np.arange(dim - d), np.arange(d, dim)] * signs[: dim - d] for d in range(dim)]
    live = [np.any(np.abs(c) > 1e-16) for c in coeffs]
    top = max((d for d in range(dim) if live[d]), default=0)
    S = np.zeros(r2.shape, dtype=complex)
    for d in range(top, -1, -1):
        if d < top:
            S *= B
        if not live[d]:
            continue
        c = coeffs[d]
        # rho[n, n+d] times an element of the unitary D(2 beta) Pi: skipping moves W <= 2e-18 / pi
        kept = np.abs(c) > 1e-18
        last = np.flatnonzero(kept)[-1]  # a live diagonal keeps at least one term
        # sqrt(n!/m!) prefactor folded into the recurrence start
        pref = np.exp(0.5 * (log_fact[: dim - d] - log_fact[d:]))
        # Laguerre recurrence in n at fixed order d, accumulated on the fly
        Lprev = None
        Lcur = np.ones_like(radii)  # L_0^{(d)}
        acc = c[0] * pref[0] * Lcur.astype(complex)
        for n in range(1, last + 1):
            if n == 1:
                Lnew = (d + 1) - radii
            else:
                Lnew = ((2 * n + d - 1 - radii) * Lcur - (n + d - 1) * Lprev) / n
            Lprev, Lcur = Lcur, Lnew
            if kept[n]:
                acc += c[n] * pref[n] * Lcur
        if d:
            acc *= 2.0
        S += acc[to_grid]
    W = np.exp(-r2 / 2) * S.real / np.pi
    if not np.all(np.isfinite(W)):
        raise DomainError("Wigner function not finite on the grid (grid too far out for the float range)")
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

