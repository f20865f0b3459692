"""Truncated Fock-space states, their observables and fidelity, and the
special functions they need at integer arguments.

Conventions (hbar = 1 throughout):
    x = (a + a^dag)/sqrt(2),  p = (a - a^dag)/(i sqrt(2)),  [x, p] = i.
Cat states live on the imaginary axis of phase space, i.e. they are
superpositions of |i alpha> and |-i alpha>, so their coherent peaks sit
along the p quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DimensionError, DomainError

DEFAULT_DIM = 60

NORM_TOL = 1e-9
# Fock weight a squeezed constructor's cut may drop (it raises above it); a
# cut is judged only where it is made, as the noise channel is exact on it
EDGE_WEIGHT_TOL = 1e-6

_lgamma = np.frompyfunc(math.lgamma, 1, 1)
_LOG_SQRT_2PI = 0.5 * math.log(2 * math.pi)


@dataclass(frozen=True)
class FockVector:
    """Pure state as amplitudes over |0> .. |dim-1>."""

    dim: int
    amp: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.dim < 2:
            raise DimensionError("dim must be >= 2")
        amp = np.asarray(self.amp, dtype=complex)
        if amp.shape != (self.dim,):
            raise DimensionError(f"amp has shape {amp.shape}, expected ({self.dim},)")
        object.__setattr__(self, "amp", amp)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amp))

    def normalized(self) -> "FockVector":
        n = self.norm
        if n == 0:
            raise DomainError("cannot normalize the zero vector")
        return FockVector(self.dim, self.amp / n)

    def to_density_matrix(self) -> "DensityMatrix":
        return DensityMatrix(self.dim, np.outer(self.amp, self.amp.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """Mixed state as a dim x dim matrix in the Fock basis."""

    dim: int
    rho: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.dim < 2:
            raise DimensionError("dim must be >= 2")
        rho = np.asarray(self.rho, dtype=complex)
        if rho.shape != (self.dim, self.dim):
            raise DimensionError(f"rho has shape {rho.shape}, expected square of dim {self.dim}")
        object.__setattr__(self, "rho", rho)

    @property
    def trace(self) -> float:
        return float(np.trace(self.rho).real)

    def require_normalized(self):
        if abs(self.trace - 1.0) > NORM_TOL:
            raise ContractError(f"density matrix not normalized: tr={self.trace}")

    def mean_photon_number(self) -> float:
        return float(np.sum(np.arange(self.dim) * np.diag(self.rho).real))


def as_density_matrix(state) -> DensityMatrix:
    """Coerce a FockVector or DensityMatrix to a DensityMatrix."""
    if isinstance(state, FockVector):
        return state.to_density_matrix()
    if isinstance(state, DensityMatrix):
        return state
    raise TypeError(f"expected FockVector or DensityMatrix, got {type(state)}")


# ---------------------------------------------------------------------------
# special functions at integer arguments

def log_factorial(n) -> np.ndarray:
    """log(n!) of each integer in n, as a float array (0-d for a scalar):
    math.lgamma(n + 1), within 4 ulp of the exact value for n <= 1000."""
    return np.asarray(_lgamma(np.asarray(n) + 1.0), dtype=float)


def _log_poisson_term(k: int, mu: float) -> float:
    """log(e^-mu mu^k / k!) as -bd0(k, mu) - log sqrt(2 pi k) - stirlerr(k),
    with bd0 = k log(k/mu) + mu - k and stirlerr(k) = log k! - log(sqrt(2 pi k)
    (k/e)^k) (C. Loader, "Fast and accurate computation of binomial
    probabilities", 2000). Summed directly, k log mu and log k! (~2 000 each at
    k = 400) cost the result ~1e-12 relative; this form costs it ~1e-13.
    """
    if k == 0:
        return -mu
    if k <= 15:
        stirlerr = float(log_factorial(k)) - (k + 0.5) * math.log(k) + k - _LOG_SQRT_2PI
    else:
        k2 = 1.0 / (k * k)
        stirlerr = (1 / 12 - k2 * (1 / 360 - k2 * (1 / 1260 - k2 * (1 / 1680 - k2 / 1188)))) / k
    v = (k - mu) / (k + mu)
    if abs(v) < 0.1:  # bd0 as a series in v, whose terms are all positive
        bd0, term, j = (k - mu) * v, 2 * k * v, 1
        while True:
            term *= v * v
            j += 2
            bd0, last = bd0 + term / j, bd0
            if bd0 == last:
                break
    else:
        bd0 = k * math.log(k / mu) + mu - k
    return -bd0 - _LOG_SQRT_2PI - 0.5 * math.log(k) - stirlerr


def poisson_tail(n: int, mu: float) -> float:
    """P(N >= n) for N ~ Poisson(mu), which is the regularized lower
    incomplete gamma function P(n, mu) for n >= 1.

    For n > mu the terms k >= n are summed, scaled by the first one, whose
    logarithm comes from `_log_poisson_term`, so a tail down to the float
    range keeps its relative accuracy. Otherwise the result is 1 - P(N < n),
    where P(N < n) sums the terms below n the same way (the result is then
    >= ~1/2 and nothing cancels).
    """
    if n <= 0:
        return 1.0
    if mu <= 0 or mu == math.inf:
        return float(mu > 0)
    upper = n > mu
    k = n if upper else n - 1  # the term the sum starts from
    log_first = _log_poisson_term(k, mu)
    total, term = 1.0, 1.0
    while term > total * 2.0**-60:
        if upper:
            k += 1
            term *= mu / k
        elif k == 0:
            break
        else:
            term *= k / mu
            k -= 1
        total += term
    part = math.exp(log_first + math.log(total))
    return part if upper else 1.0 - part


# ---------------------------------------------------------------------------
# observables

def number_parity(state) -> float:
    """Expectation of the photon-number parity (-1)^n."""
    rho = as_density_matrix(state)
    signs = (-1.0) ** np.arange(rho.dim)
    return float(np.sum(signs * np.diag(rho.rho).real))


# ---------------------------------------------------------------------------
# state constructors

def coherent_amplitudes(alpha: complex, dim: int) -> np.ndarray:
    """<n|alpha> for n < dim, via a log-stable recurrence."""
    n = np.arange(dim)
    mag = abs(alpha)
    if mag == 0:
        amp = np.zeros(dim, dtype=complex)
        amp[0] = 1.0
        return amp
    logmag = n * np.log(mag) - 0.5 * log_factorial(n) - mag**2 / 2
    return np.exp(logmag) * np.exp(1j * n * np.angle(alpha))


def coherent_state(alpha: complex, dim: int = DEFAULT_DIM) -> FockVector:
    guard_dim(abs(alpha), dim)
    return FockVector(dim, coherent_amplitudes(alpha, dim))


def guard_dim(alpha_mag: float, dim: int):
    """Truncation guard: |alpha|^2 + 6|alpha| + 10 <= dim keeps the neglected
    tail probability below ~1e-10.  Small dims still pass when the exact
    Poisson tail beyond the truncation is negligible (e.g. alpha ~ 0).
    Both rules refuse |alpha| >= sqrt(dim), where |alpha|^2 may overflow, so
    that is refused before squaring."""
    if alpha_mag < math.sqrt(dim):
        if alpha_mag**2 + 6 * alpha_mag + 10 <= dim:
            return
        if poisson_tail(dim, alpha_mag**2) < 1e-12:  # P(N >= dim), N ~ Poisson(|alpha|^2)
            return
    a = float(alpha_mag)  # a * a overflows to inf without a warning
    raise DimensionError(f"dim={dim} too small for amplitude {a:g} (need >= {a * a + 6 * a + 10:.1f})")


def cat_state(alpha: float, s: int, dim: int = DEFAULT_DIM) -> FockVector:
    """Normalized (|i alpha> + s |-i alpha>), s = +1 even / -1 odd parity."""
    if s not in (+1, -1):
        raise DomainError("parity s must be +1 or -1")
    if alpha < 0:
        raise DomainError("alpha must be >= 0")
    guard_dim(alpha, dim)
    amp = coherent_amplitudes(1j * alpha, dim) + s * coherent_amplitudes(-1j * alpha, dim)
    norm = np.linalg.norm(amp)
    if norm < 1e-12:
        raise DomainError("degenerate cat: alpha=0 with odd parity is the zero vector")
    return FockVector(dim, amp / norm)


def _squeezed_state(r: float, n0: int, dim: int) -> FockVector:
    """S(r)|n0> for n0 in {0, 1}, cut at dim and renormalized:

    c_{2m+n0} = (-tanh r)^m sqrt((2m+n0)!) / (2^m m!) / cosh^{n0+1/2} r

    Raises DimensionError when the cut drops more than EDGE_WEIGHT_TOL of
    the closed form's unit weight.
    """
    amp = np.zeros(dim, dtype=complex)
    if r == 0:
        amp[n0:n0 + 1] = 1.0  # empty where |n0> lies past the truncation
    else:
        m = np.arange((dim - n0 - 1) // 2 + 1)
        with np.errstate(over="ignore"):  # cosh r = inf leaves every amplitude 0
            logc = (
                0.5 * log_factorial(2 * m + n0)
                - m * np.log(2.0)
                - log_factorial(m)
                + m * np.log(abs(np.tanh(r)))
                - (n0 + 0.5) * np.log(np.cosh(r))
            )
        amp[2 * m + n0] = np.exp(logc) * (-np.sign(r)) ** m
    dropped = 1.0 - float(np.vdot(amp, amp).real)
    if not dropped <= EDGE_WEIGHT_TOL:  # a NaN r fails here too
        raise DimensionError(f"dim={dim} drops weight {dropped:.2e} of S({r:g})|{n0}>, "
                             f"above {EDGE_WEIGHT_TOL:g}")
    return FockVector(dim, amp).normalized()


def squeezed_vacuum(r: float, dim: int = DEFAULT_DIM) -> FockVector:
    """S(r)|0> with S(r) = exp[(r/2)(a^2 - a^dag^2)]; even support only."""
    return _squeezed_state(r, 0, dim)


def squeezed_single_photon(r: float, dim: int = DEFAULT_DIM) -> FockVector:
    """S(r)|1> with S(r) = exp[(r/2)(a^2 - a^dag^2)]; odd support only."""
    return _squeezed_state(r, 1, dim)


def cat_squeezing_for_alpha(alpha: float) -> float:
    """Squeezing r such that S(r)|1> approximates the odd cat of amplitude alpha.

    Note on sign: for cats on the imaginary axis under our S(r) convention the
    positive branch r = +arccosh(sqrt(1/2 + sqrt(9 + 4 alpha^2)/6)) is the one
    that reaches fidelity >= 0.99 for alpha <= 1; the negative branch matches
    real-axis cats instead.
    """
    if alpha < 0:
        raise DomainError("alpha must be >= 0")
    try:
        alpha2 = float(alpha) ** 2
    except OverflowError:
        raise DomainError(f"alpha={alpha:g} is too large: alpha**2 overflows") from None
    arg = np.sqrt(0.5 + np.sqrt(9.0 + 4.0 * alpha2) / 6.0)
    return float(np.arccosh(arg))


def fock_basis_state(n: int, dim: int = DEFAULT_DIM) -> FockVector:
    if not 0 <= n < dim:
        raise DimensionError(f"|{n}> does not fit in dim={dim}")
    amp = np.zeros(dim, dtype=complex)
    amp[n] = 1.0
    return FockVector(dim, amp)


def vacuum(dim: int = DEFAULT_DIM) -> FockVector:
    return fock_basis_state(0, dim)


# ---------------------------------------------------------------------------
# fidelity

def fidelity(a, b) -> float:
    """<psi|rho|psi> when either state is pure (|<a|b>|^2 when both are),
    Uhlmann fidelity when both are mixed.

    Clamped to at most 1 by np.minimum, which keeps NaN: a state holding NaN
    gets fidelity NaN, which fails every threshold check."""
    pure_a = isinstance(a, FockVector)
    pure_b = isinstance(b, FockVector)
    ra, rb = as_density_matrix(a), as_density_matrix(b)
    if ra.dim != rb.dim:
        raise DimensionError("dimension mismatch")
    if pure_a or pure_b:
        v = a.amp if pure_a else b.amp
        other = rb.rho if pure_a else ra.rho
        return float(np.minimum(1.0, np.real(np.vdot(v, other @ v))))
    # Uhlmann: (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2
    w, v = np.linalg.eigh((ra.rho + ra.rho.conj().T) / 2)
    w = np.clip(w, 0, None)
    sqrt_a = (v * np.sqrt(w)) @ v.conj().T
    m = sqrt_a @ rb.rho @ sqrt_a
    ev = np.linalg.eigvalsh((m + m.conj().T) / 2)
    return float(np.minimum(1.0, np.sum(np.sqrt(np.clip(ev, 0, None))) ** 2))
