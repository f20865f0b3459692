"""Simulated homodyne data pipeline: quadrature sampling by inverse CDF,
PCA temporal-mode extraction from time traces, and maximum-likelihood state
reconstruction that stops at a certified optimum.

Every quadrature bra is <x_theta| = e^{i n theta} psi_n(x) with real Hermite
functions psi_n, so the density is pr(x) = psi(x)^T Re(rho o F_theta) psi(x)
with F_theta[m, n] = e^{i (m - n) theta}, and the ML operator is
R = sum_theta conj(F_theta) o (Psi_theta diag(c / pr) Psi_theta^T): rho is
rotated per phase (dim^2 work) and every contraction over the samples is real.

R is the gradient of the log-likelihood L(rho) = sum c log pr, and Tr(R rho)
= N for N frames. L is concave, so L_max - L(rho) <= lambda_max(R) - N
(Glancy, Knill & Girard, NJP 14, 095017 (2012)): `mle_reconstruct` runs
L-BFGS on the factor A of rho = A A^dag / Tr(A A^dag) until that certificate
is below MLE_GAP nats, and `likelihood_gap` evaluates it for any rho.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DimensionError, DomainError, NumericalAccuracyWarning
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
MLE_GAP = 1e-2  # nats: stop once lambda_max(R) - N certifies L_max - L(rho) below this
_LBFGS_PAIRS = 10
_ARMIJO = 1e-4  # sufficient increase, as a fraction of the directional derivative
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


@dataclass(frozen=True)
class MLEstimate(DensityMatrix):
    """The rho `mle_reconstruct` returns, with the log-likelihood and the
    certificate lambda_max(R) - N of its last evaluation."""

    log_likelihood: float
    likelihood_gap: float


def sample_homodyne(rho, phases, n_frames: int, seed: int) -> HomodyneDataset:
    """Draw n_frames quadrature samples, cycling round-robin through `phases`
    (radians), each drawn from marginal(rho, theta) by inverse CDF on the
    projection grid, [-PROJECTION_GRID_BOUND, PROJECTION_GRID_BOUND] at
    PROJECTION_GRID_STEP."""
    rho = as_density_matrix(rho)
    rho.require_normalized()
    phases = np.asarray(phases, dtype=float)
    if phases.ndim != 1 or len(phases) == 0:
        raise DomainError("phases must be a nonempty 1d array")
    grid = np.linspace(-PROJECTION_GRID_BOUND, PROJECTION_GRID_BOUND,
                       int(round(2 * PROJECTION_GRID_BOUND / PROJECTION_GRID_STEP)) + 1)
    rng = np.random.default_rng(seed)
    psi = hermite_functions(grid, rho.dim)  # one table for every phase
    frame_phase = np.resize(phases, n_frames)
    xs = np.empty(n_frames)
    for theta in phases:
        sel = frame_phase == theta
        dens = marginal(rho, float(theta), grid, psi)
        cdf = np.cumsum(dens)
        cdf = cdf / cdf[-1]
        u = rng.random(int(np.sum(sel)))
        xs[sel] = np.interp(u, cdf, grid)
    return HomodyneDataset(frame_phase, xs, seed)


def _binned_projectors(data: HomodyneDataset, dim: int) -> list:
    """Bin samples onto the projection grid (bin width PROJECTION_GRID_STEP,
    far below the sampling noise) per phase; returns one
    (theta, psi, counts) per phase, psi the real Hermite functions of the
    occupied bins, shape (dim, n_bins)."""
    bins = []
    for theta in data.phase_set:
        x = data.xs[data.thetas == theta]
        idx = np.round(x / PROJECTION_GRID_STEP).astype(np.int64)
        uniq, cnt = np.unique(idx, return_counts=True)
        bins.append((theta, hermite_functions(uniq * PROJECTION_GRID_STEP, dim), cnt.astype(float)))
    return bins


def _log_likelihood(bins: list, rho: np.ndarray) -> tuple[float, list]:
    """Binned log-likelihood sum c log pr of `rho`, and the densities pr of
    the occupied bins per phase (floored at 1e-300)."""
    prs = [np.maximum(quadrature_density(rho, theta, psi), 1e-300) for theta, psi, _ in bins]
    return float(sum(np.sum(cnt * np.log(pr)) for (_, _, cnt), pr in zip(bins, prs))), prs


def _ml_operator(bins: list, prs: list) -> np.ndarray:
    """R = sum_theta conj(F_theta) o (Psi_theta diag(c / pr) Psi_theta^T), the
    gradient of the log-likelihood with respect to rho; Tr(R rho) = N."""
    return sum(
        phase_matrix(theta, psi.shape[0]).conj() * ((psi * (cnt / pr)) @ psi.T)
        for (theta, psi, cnt), pr in zip(bins, prs)
    )


def _gap(R: np.ndarray, n_frames: int) -> float:
    """Concavity bound L_max - L(rho) <= lambda_max(R) - N, in nats."""
    return float(np.linalg.eigvalsh(R)[-1]) - n_frames


def _normalized(A: np.ndarray) -> np.ndarray:
    """rho = A A^dag / Tr(A A^dag): positive semidefinite and of unit trace for any A."""
    rho = A @ A.conj().T
    return (rho + rho.conj().T) / (2 * np.trace(rho).real)


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """Real inner product Re Tr(x^dag y) of the real and imaginary parts."""
    return float(np.vdot(x, y).real)


def _lbfgs_direction(grad: np.ndarray, pairs) -> np.ndarray:
    """-H grad by the two-loop recursion, H the L-BFGS inverse Hessian of the
    stored (s, y, 1 / y.s) pairs scaled by s.y / y.y (Nocedal & Wright, Alg. 7.4)."""
    q = grad.copy()
    alphas = []
    for s, y, inv_sy in reversed(pairs):
        alphas.append(inv_sy * _dot(s, q))
        q -= alphas[-1] * y
    if pairs:
        s, y, _ = pairs[-1]
        q *= _dot(s, y) / _dot(y, y)
    for (s, y, inv_sy), a in zip(pairs, reversed(alphas)):
        q += (a - inv_sy * _dot(y, q)) * s
    return -q


def mle_reconstruct(data: HomodyneDataset, dim: int, iterations: int = 300) -> DensityMatrix:
    """Maximum-likelihood tomography: maximize L(rho) = sum c log pr over
    rho = A A^dag / Tr(A A^dag) by L-BFGS on the factor A, from A = I / sqrt(dim).

    Samples are binned onto the projection grid (`_binned_projectors`). The
    gradient of -L/N with respect to A is -2 (R - N) A / (N Tr A A^dag), R the
    ML operator (`_ml_operator`). The loop
    stops once the certificate lambda_max(R) - N, an upper bound on
    L_max - L(rho) by concavity (Glancy, Knill & Girard, NJP 14, 095017
    (2012)), is <= MLE_GAP nats; `iterations` caps the accepted steps, and
    running out first warns NumericalAccuracyWarning, as does a line search
    that finds no increase. Each step backtracks from t = 1 until the Armijo
    condition holds, so the log-likelihood increases at every accepted step.
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
    bins = _binned_projectors(data, dim)
    n = len(data)

    def gradient(A, prs):
        R = _ml_operator(bins, prs)
        return 2.0 * (n * A - R @ A) / (n * _dot(A, A)), _gap(R, n)

    A = np.eye(dim, dtype=complex) / np.sqrt(dim)
    rho = _normalized(A)
    ll, prs = _log_likelihood(bins, rho)
    grad, gap = gradient(A, prs)
    pairs = deque(maxlen=_LBFGS_PAIRS)
    for _ in range(iterations):
        if gap <= MLE_GAP:
            break
        direction = _lbfgs_direction(grad, pairs)
        slope = n * _dot(grad, direction)  # d(-L)/dt along A + t direction
        t = 1.0
        for _ in range(40):
            trial = A + t * direction
            rho_t = _normalized(trial)
            ll_t, prs_t = _log_likelihood(bins, rho_t)
            if ll_t >= ll - _ARMIJO * t * slope:
                break
            t /= 2
        else:
            break  # no increase left at double precision
        if ll_t < ll - 1e-9 * abs(ll):  # the Armijo test lets this through only if slope >= 0
            raise ContractError("MLE log-likelihood decreased")
        grad_t, gap = gradient(trial, prs_t)
        s, y = trial - A, grad_t - grad
        if _dot(s, y) > 0:
            pairs.append((s, y, 1.0 / _dot(s, y)))
        A, rho, ll, grad = trial, rho_t, ll_t, grad_t
    if gap > MLE_GAP:
        warnings.warn(
            f"MLE stopped {gap:.3g} nats short of its certified optimum (MLE_GAP = {MLE_GAP})",
            NumericalAccuracyWarning,
        )
    return MLEstimate(dim, rho, ll, gap)


def log_likelihood(data: HomodyneDataset, rho: DensityMatrix) -> float:
    """Binned log-likelihood of `data` under `rho` (same binning as the MLE)."""
    rho = as_density_matrix(rho)
    return _log_likelihood(_binned_projectors(data, rho.dim), rho.rho)[0]


def likelihood_gap(data: HomodyneDataset, rho: DensityMatrix) -> float:
    """Certified upper bound on L_max - L(rho) in nats, lambda_max(R) - N, from
    the evaluation `mle_reconstruct` stops on (same binning)."""
    rho = as_density_matrix(rho)
    bins = _binned_projectors(data, rho.dim)
    return _gap(_ml_operator(bins, _log_likelihood(bins, rho.rho)[1]), len(data))


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
