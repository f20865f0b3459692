"""Simulated homodyne data pipeline: quadrature sampling by inverse CDF,
PCA temporal-mode extraction from time traces, and maximum-likelihood state
reconstruction that stops at a certified optimum.

A `HomodyneDataset` records its phase cycle: frame i was measured at
phases[i % P], and a phase listed twice is two slots, drawn once each.

Every quadrature bra is <x_theta| = e^{i n theta} psi_n(x) with real Hermite
functions psi_n, so the density is pr(x) = psi(x)^T Re(rho o F_theta) psi(x)
with F_theta[m, n] = e^{i (m - n) theta}. The product rule
psi_m(x) psi_n(x) = sum_k T[k, (m, n)] psi_k(sqrt2 x), the diagonal of the
50:50 image `gates.fifty_fifty_image` held as the dense table
`gates.product_table`, makes that pr(x) = phi(x)^T T vec Re(rho o F_theta),
phi(x) the 2 dim - 1 functions psi_k(sqrt2 x), and the ML operator
R = sum_theta conj(F_theta) o unvec(T^T Phi_theta (c / pr)): each sample
costs 2 dim - 1 instead of dim^2, and every contraction over the samples is
real. Every frame is binned once, and all phases share one table phi, taken
at the union U of the bins any frame occupies. One product
Re(rho o F) T^T phi over the stack of the P phases gives pr at every
(phase, bin) cell of U. R is one product back and one sum over the stack.
Neither loops over phases. A cell no frame occupies still costs
2 (2 dim - 1) multiplications per evaluation, which is most of the work when
each phase has few frames.

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
from typing import NamedTuple

import numpy as np

from .errors import ContractError, DimensionError, DomainError, NumericalAccuracyWarning
from .fock import DensityMatrix, as_density_matrix
from .gates import (
    PROJECTION_GRID_BOUND,
    PROJECTION_GRID_STEP,
    hermite_functions,
    phase_matrix,
    product_table,
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
    """Quadrature samples xs[i], frame i measured at phases[i % P] (radians,
    P = len(phases) <= len(xs); a per-frame record has P = len(xs))."""

    phases: np.ndarray
    xs: np.ndarray

    def __post_init__(self):
        phases = np.asarray(self.phases, dtype=float)
        xs = np.asarray(self.xs, dtype=float)
        if phases.ndim != 1 or xs.ndim != 1 or len(phases) > len(xs) or len(phases) == 0 < len(xs):
            raise DomainError("phases must be a 1d cycle of 1 to len(xs) entries, xs a 1d array")
        for name, a in (("phases", phases), ("xs", xs)):
            if not np.all(np.isfinite(a)):
                raise DomainError(f"{name} must be finite")
        object.__setattr__(self, "phases", phases)
        object.__setattr__(self, "xs", xs)

    def __len__(self) -> int:
        return len(self.xs)

    @property
    def thetas(self) -> np.ndarray:
        return np.resize(self.phases, len(self.xs))

    @property
    def phase_set(self) -> np.ndarray:
        return np.unique(self.phases)


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
    PROJECTION_GRID_STEP. One `marginal` call gives a row per phase, and
    slot j, the frames xs[j::P], draws from row j, in list order. Phases past
    the n_frames-th get no frame and are not recorded."""
    rho = as_density_matrix(rho)
    rho.require_normalized()
    phases = np.asarray(phases, dtype=float)
    if phases.ndim != 1 or len(phases) == 0:
        raise DomainError("phases must be a nonempty 1d array")
    phases = phases[:n_frames]
    grid = np.linspace(-PROJECTION_GRID_BOUND, PROJECTION_GRID_BOUND,
                       int(round(2 * PROJECTION_GRID_BOUND / PROJECTION_GRID_STEP)) + 1)
    rng = np.random.default_rng(seed)
    xs = np.empty(n_frames)
    for j, dens in enumerate(marginal(rho, phases, grid)):
        cdf = np.cumsum(dens)
        cdf = cdf / cdf[-1]
        slot = xs[j::len(phases)]
        slot[:] = np.interp(rng.random(len(slot)), cdf, grid)
    return HomodyneDataset(phases, xs)


class _BinnedModel(NamedTuple):
    """Binned homodyne data for the ML loop. T is the dense product table
    (2 dim - 1, dim^2) of `gates.product_table`: (2 dim - 1) dim^2 numbers,
    0.42 MB at MLE_MAX_DIM. F stacks the F_theta of the P distinct phases,
    shape (P, dim, dim). phi is the one Hermite table every phase shares:
    psi_k(sqrt2 x) at the union U of the bins any frame occupies, shape
    (2 dim - 1, |U|). Each occupied (phase, bin) pair is the flat index
    p |U| + u into a P x |U| array, in `flat` (sorted), with its frame count
    in `counts`."""

    T: np.ndarray
    F: np.ndarray
    phi: np.ndarray
    flat: np.ndarray
    counts: np.ndarray


def _binned_projectors(data: HomodyneDataset, dim: int) -> _BinnedModel:
    """Bin every frame once onto the projection grid (bin width
    PROJECTION_GRID_STEP, far below the sampling noise). Frame i's key is its
    bin plus the offset of slot i % P's distinct phase; one sort of the keys
    of all frames gives the occupied (phase, bin) pairs and their counts,
    their bins the union U, and one `hermite_functions` call its table phi.
    Every phase shares phi, so `_log_likelihood` and `_ml_operator` each
    evaluate all phases in one product. T is built here, once per call."""
    if dim > MLE_MAX_DIM:
        raise DomainError(f"dim must be <= MLE_MAX_DIM = {MLE_MAX_DIM}")
    phases, slot = np.unique(data.phases, return_inverse=True)
    key = np.round(data.xs / PROJECTION_GRID_STEP).astype(np.int64)
    lo = int(key.min())
    span = int(key.max()) - lo + 1
    if len(phases) * span > np.iinfo(np.int64).max:
        raise DomainError(f"samples span {span} bins at {len(phases)} phases: too many to index")
    key -= lo
    offset = slot * span  # frame i takes slot i % P's, in place: whole cycles, then the tail
    whole = len(key) - len(key) % len(offset)
    key[:whole].reshape(-1, len(offset))[...] += offset
    key[whole:] += offset[:len(key) - whole]
    pairs, counts = np.unique(key, return_counts=True)
    p, b = np.divmod(pairs, span)
    union, u = np.unique(b, return_inverse=True)
    phi = hermite_functions(np.sqrt(2.0) * ((union + lo) * PROJECTION_GRID_STEP), 2 * dim - 1)
    return _BinnedModel(product_table(dim), phase_matrix(phases, dim), phi, p * len(union) + u,
                        counts.astype(float))


def _log_likelihood(model: _BinnedModel, rho: np.ndarray) -> tuple[float, np.ndarray]:
    """Binned log-likelihood sum c log pr of `rho` under the model of
    `_binned_projectors`, and the densities pr of the occupied (phase, bin)
    pairs (floored at 1e-300). One product Re(rho o F) T^T phi evaluates
    every phase at every bin of U; pr is read from it at the occupied pairs."""
    T, F, phi, flat, counts = model
    V = (rho * F).real.reshape(len(F), -1)
    pr = np.maximum(((V @ T.T) @ phi).ravel()[flat], 1e-300)
    return float(counts @ np.log(pr)), pr


def _ml_operator(model: _BinnedModel, pr: np.ndarray) -> np.ndarray:
    """R = sum_theta conj(F_theta) o unvec(T^T Phi_theta (c / pr)), the
    gradient of the log-likelihood with respect to rho; Tr(R rho) = N. c / pr
    is scattered into the P x |U| array W, and G = W phi^T T holds
    vec T^T Phi_theta (c / pr) of every phase in its rows."""
    T, F, phi, flat, counts = model
    W = np.zeros(len(F) * phi.shape[1])
    W[flat] = counts / pr
    G = (W.reshape(len(F), -1) @ phi.T) @ T
    return np.einsum("pij,pij->ij", F, G.reshape(F.shape)).conj()  # G is real


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
    if dim < 2:
        raise DimensionError("dim must be >= 2")
    model = _binned_projectors(data, dim)  # refuses dim > MLE_MAX_DIM
    if len(model.F) < 2:
        warnings.warn("single measurement phase: reconstruction is ill-conditioned", NumericalAccuracyWarning)
    n = len(data)

    def gradient(A, pr):
        R = _ml_operator(model, pr)
        return 2.0 * (n * A - R @ A) / (n * _dot(A, A)), _gap(R, n)

    A = np.eye(dim, dtype=complex) / np.sqrt(dim)
    rho = _normalized(A)
    ll, pr = _log_likelihood(model, rho)
    grad, gap = gradient(A, pr)
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
            ll_t, pr_t = _log_likelihood(model, rho_t)
            if ll_t >= ll - _ARMIJO * t * slope:
                break
            t /= 2
        else:
            break  # no increase left at double precision
        if ll_t < ll - 1e-9 * abs(ll):  # the Armijo test lets this through only if slope >= 0
            raise ContractError("MLE log-likelihood decreased")
        grad_t, gap = gradient(trial, pr_t)
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
    """Binned log-likelihood of `data` under `rho` (same binning as the MLE,
    so rho.dim <= MLE_MAX_DIM)."""
    rho = as_density_matrix(rho)
    return _log_likelihood(_binned_projectors(data, rho.dim), rho.rho)[0]


def likelihood_gap(data: HomodyneDataset, rho: DensityMatrix) -> float:
    """Certified upper bound on L_max - L(rho) in nats, lambda_max(R) - N, from
    the evaluation `mle_reconstruct` stops on (same binning, so rho.dim <= MLE_MAX_DIM)."""
    rho = as_density_matrix(rho)
    model = _binned_projectors(data, rho.dim)
    return _gap(_ml_operator(model, _log_likelihood(model, rho.rho)[1]), len(data))


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
