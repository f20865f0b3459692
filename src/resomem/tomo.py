"""Simulated homodyne data pipeline: quadrature sampling by inverse CDF,
PCA temporal-mode extraction from time traces, and iterative
maximum-likelihood state reconstruction (rho <- N[R rho R]).

Every quadrature bra is <x_theta| = e^{i n theta} psi_n(x) with real Hermite
functions psi_n, so the density is pr(x) = psi(x)^T Re(rho o F_theta) psi(x)
with F_theta[m, n] = e^{i (m - n) theta}, and the ML operator is
R = sum_theta conj(F_theta) o (Psi_theta diag(c / pr) Psi_theta^T): rho is
rotated per phase (dim^2 work) and every contraction over the samples is real.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DimensionError, DomainError
from .fock import DensityMatrix, as_density_matrix
from .gates import (
    PROJECTION_GRID_BOUND,
    PROJECTION_GRID_STEP,
    hermite_functions,
    phase_matrix,
    quadrature_density,
)
from .memory import TemporalMode
from .wigner import marginal

DEFAULT_PHASES_DEG = (0.0, 30.0, 60.0, 90.0, 120.0, 150.0)
MLE_PLATEAU = 1e-9
MLE_MIN_FRAMES = 1000
MLE_MAX_DIM = 30


@dataclass(frozen=True)
class HomodyneDataset:
    """Quadrature samples: frame i was measured at phase thetas[i] (radians)
    with outcome xs[i]."""

    thetas: np.ndarray
    xs: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        th = np.asarray(self.thetas, dtype=float)
        xs = np.asarray(self.xs, dtype=float)
        if th.shape != xs.shape or th.ndim != 1:
            raise DomainError("thetas and xs must be matching 1d arrays")
        object.__setattr__(self, "thetas", th)
        object.__setattr__(self, "xs", xs)

    def __len__(self) -> int:
        return len(self.xs)

    @property
    def phase_set(self) -> np.ndarray:
        return np.unique(self.thetas)


@dataclass(frozen=True)
class TraceMatrix:
    """Homodyne time traces, one frame per row, sample interval dt."""

    data: np.ndarray = field(repr=False)
    dt: float

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 2:
            raise DomainError("trace data must be 2d (frames x samples)")
        if not np.all(np.isfinite(data)):
            raise DomainError("trace data must be finite")
        object.__setattr__(self, "data", data)


def _sampling_grid(step: float = PROJECTION_GRID_STEP) -> np.ndarray:
    npts = int(round(2 * PROJECTION_GRID_BOUND / step)) + 1
    return np.linspace(-PROJECTION_GRID_BOUND, PROJECTION_GRID_BOUND, npts)


def sample_homodyne(rho, phases, n_frames: int, seed: int) -> HomodyneDataset:
    """Draw n_frames quadrature samples, cycling round-robin through `phases`
    (radians), each drawn from marginal(rho, theta) by inverse CDF on the
    cached projection grid."""
    rho = as_density_matrix(rho)
    rho.require_normalized()
    phases = np.asarray(phases, dtype=float)
    if phases.ndim != 1 or len(phases) == 0:
        raise DomainError("phases must be a nonempty 1d array")
    grid = _sampling_grid()
    rng = np.random.default_rng(seed)
    frame_phase = np.resize(phases, n_frames)
    xs = np.empty(n_frames)
    for theta in phases:
        sel = frame_phase == theta
        dens = marginal(rho, float(theta), grid)
        cdf = np.cumsum(dens)
        cdf = cdf / cdf[-1]
        u = rng.random(int(np.sum(sel)))
        xs[sel] = np.interp(u, cdf, grid)
    return HomodyneDataset(frame_phase, xs, seed)


def _binned_projectors(data: HomodyneDataset, dim: int, step: float) -> list:
    """Bin samples onto the projection grid per phase; returns one
    (theta, psi, counts) per phase, psi the real Hermite functions of the
    occupied bins, shape (dim, n_bins)."""
    bins = []
    for theta in data.phase_set:
        x = data.xs[data.thetas == theta]
        idx = np.round(x / step).astype(np.int64)
        uniq, cnt = np.unique(idx, return_counts=True)
        bins.append((theta, hermite_functions(uniq * step, dim), cnt.astype(float)))
    return bins


def mle_reconstruct(
    data: HomodyneDataset,
    dim: int,
    iterations: int = 300,
    step: float = PROJECTION_GRID_STEP,
) -> DensityMatrix:
    """Expectation-maximization tomography: rho <- N[R rho R] with
    R = sum_frames |x_theta><x_theta| / pr(x_theta), pr = <x_theta|rho|x_theta>.

    Samples are binned onto the projection grid (bin width `step`, far below
    the sampling noise), and per phase R is the real Gram matrix of the bins'
    Hermite functions weighted by counts / pr, times conj(F_theta).  The
    log-likelihood is checked to be non-decreasing at every iteration.
    """
    if iterations < 1:
        raise DomainError("iterations must be >= 1")
    if len(data) < MLE_MIN_FRAMES:
        raise DomainError(f"need >= {MLE_MIN_FRAMES} frames for a stable reconstruction")
    if dim > MLE_MAX_DIM:
        raise DomainError(f"dim > {MLE_MAX_DIM} not supported by the reconstruction guard")
    if dim < 2:
        raise DimensionError("dim must be >= 2")
    if len(data.phase_set) < 2:
        warnings.warn("single measurement phase: reconstruction is ill-conditioned")
    bins = _binned_projectors(data, dim, step)
    phases = [phase_matrix(theta, dim).conj() for theta, _, _ in bins]
    rho = np.eye(dim, dtype=complex) / dim
    last_ll = -np.inf
    for _ in range(iterations):
        prs = [np.maximum(quadrature_density(rho, theta, psi), 1e-300) for theta, psi, _ in bins]
        ll = float(sum(np.sum(cnt * np.log(pr)) for (_, _, cnt), pr in zip(bins, prs)))
        if ll < last_ll - 1e-9 * abs(last_ll):
            raise ContractError("MLE log-likelihood decreased")
        R = sum(f * ((psi * (cnt / pr)) @ psi.T) for f, (_, psi, cnt), pr in zip(phases, bins, prs))
        rho = R @ rho @ R
        rho = (rho + rho.conj().T) / 2
        rho = rho / np.trace(rho).real
        if np.isfinite(last_ll) and abs(ll - last_ll) < MLE_PLATEAU * abs(ll):
            last_ll = ll
            break
        last_ll = ll
    return DensityMatrix(dim, rho)


def log_likelihood(data: HomodyneDataset, rho: DensityMatrix, step: float = PROJECTION_GRID_STEP) -> float:
    """Binned log-likelihood of `data` under `rho` (same binning as the MLE)."""
    return float(sum(
        np.sum(cnt * np.log(np.maximum(quadrature_density(rho.rho, theta, psi), 1e-300)))
        for theta, psi, cnt in _binned_projectors(data, rho.dim, step)
    ))


def simulate_traces(mode: TemporalMode, quad_samples, noise_var: float, seed: int) -> TraceMatrix:
    """trace_i(t) = g(t) * quad_samples[i] + white Gaussian noise of variance
    noise_var/dt per sample (so the matched-filter projection adds noise_var)."""
    if noise_var < 0:
        raise DomainError("noise_var must be >= 0")
    q = np.asarray(quad_samples, dtype=float)
    rng = np.random.default_rng(seed)
    traces = np.outer(q, mode.g)
    if noise_var > 0:
        traces = traces + rng.normal(0.0, np.sqrt(noise_var / mode.dt), traces.shape)
    return TraceMatrix(traces, mode.dt)


def project_traces(traces: TraceMatrix, mode: TemporalMode) -> np.ndarray:
    """Matched filter: quadrature estimate sum_t trace(t) g(t) dt per frame."""
    if traces.data.shape[1] != len(mode.g):
        raise DomainError("trace length does not match mode grid")
    return traces.data @ mode.g * traces.dt


def pca_temporal_mode(traces: TraceMatrix) -> tuple[TemporalMode, np.ndarray]:
    """Leading eigenvector of the empirical trace covariance as a
    TemporalMode (sign fixed: max-magnitude sample positive), plus the full
    eigenvalue spectrum in descending order."""
    frames, samples = traces.data.shape
    if frames < samples:
        raise DomainError("rank-deficient covariance: need frames >= samples")
    centered = traces.data - traces.data.mean(axis=0)
    cov = centered.T @ centered / frames
    w, v = np.linalg.eigh(cov)
    w = w[::-1]
    lead = v[:, -1]
    if lead[np.argmax(np.abs(lead))] < 0:
        lead = -lead
    t = np.arange(samples) * traces.dt
    g = lead / np.sqrt(np.trapezoid(lead**2, t))
    return TemporalMode(t, g), w
