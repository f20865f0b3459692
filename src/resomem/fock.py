"""Truncated Fock-space states and basic operators.

Conventions (hbar = 1 throughout):
    x = (a + a^dag)/sqrt(2),  p = (a - a^dag)/(i sqrt(2)),  [x, p] = i.
Cat states live on the imaginary axis of phase space, i.e. they are
superpositions of |i alpha> and |-i alpha>, so their coherent peaks sit
along the p quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammainc, gammaln

from .errors import ContractError, DimensionError, DomainError

DEFAULT_DIM = 60

NORM_TOL = 1e-9


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

    def require_normalized(self):
        if abs(self.norm - 1.0) > NORM_TOL:
            raise ContractError(f"state not normalized: |amp|={self.norm}")

    def to_density_matrix(self) -> "DensityMatrix":
        return DensityMatrix(self.dim, np.outer(self.amp, self.amp.conj()))

    def overlap(self, other: "FockVector") -> complex:
        if other.dim != self.dim:
            raise DimensionError("dimension mismatch")
        return complex(np.vdot(self.amp, other.amp))

    def mean_photon_number(self) -> float:
        return float(np.sum(np.arange(self.dim) * np.abs(self.amp) ** 2))


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

    def normalized(self) -> "DensityMatrix":
        t = self.trace
        if t <= 0:
            raise DomainError("cannot normalize: nonpositive trace")
        return DensityMatrix(self.dim, self.rho / t)

    def require_normalized(self):
        if abs(self.trace - 1.0) > NORM_TOL:
            raise ContractError(f"density matrix not normalized: tr={self.trace}")

    def check_physical(self, herm_tol: float = 1e-10, eig_floor: float = -1e-8):
        if np.max(np.abs(self.rho - self.rho.conj().T)) > herm_tol:
            raise ContractError("density matrix not Hermitian")
        w = np.linalg.eigvalsh((self.rho + self.rho.conj().T) / 2)
        if w.min() < eig_floor:
            raise ContractError(f"density matrix not positive semidefinite: min eig {w.min()}")

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
# operators

def annihilation_operator(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex)


def x_operator(dim: int) -> np.ndarray:
    a = annihilation_operator(dim)
    return (a + a.conj().T) / np.sqrt(2)


def p_operator(dim: int) -> np.ndarray:
    a = annihilation_operator(dim)
    return (a - a.conj().T) / (1j * np.sqrt(2))


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
    logmag = n * np.log(mag) - 0.5 * gammaln(n + 1) - mag**2 / 2
    return np.exp(logmag) * np.exp(1j * n * np.angle(alpha))


def coherent_state(alpha: complex, dim: int = DEFAULT_DIM) -> FockVector:
    guard_dim(abs(alpha), dim)
    return FockVector(dim, coherent_amplitudes(alpha, dim))


def guard_dim(alpha_mag: float, dim: int):
    """Truncation guard: |alpha|^2 + 6|alpha| + 10 <= dim keeps the neglected
    tail probability below ~1e-10.  Small dims still pass when the exact
    Poisson tail beyond the truncation is negligible (e.g. alpha ~ 0)."""
    if alpha_mag**2 + 6 * alpha_mag + 10 <= dim:
        return
    if gammainc(dim, alpha_mag**2) < 1e-12:  # P(N >= dim), N ~ Poisson(|alpha|^2)
        return
    raise DimensionError(
        f"dim={dim} too small for amplitude {alpha_mag:.3f} "
        f"(need >= {alpha_mag**2 + 6 * alpha_mag + 10:.1f})"
    )


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


def _squeezed_fock_amps(r: float, n0: int, dim: int) -> np.ndarray:
    """Amplitudes of S(r)|n0> for n0 in {0, 1}.

    c_{2m+n0} = (-tanh r)^m sqrt((2m+n0)!) / (2^m m!) / cosh^{n0+1/2} r
    """
    amp = np.zeros(dim, dtype=complex)
    if r == 0:
        amp[n0] = 1.0
        return amp
    m = np.arange((dim - n0 - 1) // 2 + 1)
    logc = (
        0.5 * gammaln(2 * m + n0 + 1)
        - m * np.log(2.0)
        - gammaln(m + 1)
        + m * np.log(abs(np.tanh(r)))
        - (n0 + 0.5) * np.log(np.cosh(r))
    )
    amp[2 * m + n0] = np.exp(logc) * (-np.sign(r)) ** m
    return amp


def squeezed_vacuum(r: float, dim: int = DEFAULT_DIM) -> FockVector:
    """S(r)|0> with S(r) = exp[(r/2)(a^2 - a^dag^2)]; even support only."""
    _guard_squeeze(r, dim)
    return FockVector(dim, _squeezed_fock_amps(r, 0, dim)).normalized()


def squeezed_single_photon(r: float, dim: int = DEFAULT_DIM) -> FockVector:
    """S(r)|1> with S(r) = exp[(r/2)(a^2 - a^dag^2)]; odd support only."""
    if dim < 20:
        raise DimensionError("squeezed_single_photon needs dim >= 20")
    _guard_squeeze(r, dim)
    return FockVector(dim, _squeezed_fock_amps(r, 1, dim)).normalized()


def _guard_squeeze(r: float, dim: int):
    if abs(r) > 2:
        raise DimensionError(f"|r|={abs(r):.2f} > 2 exceeds the truncation guard at dim={dim}")


def cat_squeezing_for_alpha(alpha: float) -> float:
    """Squeezing r such that S(r)|1> approximates the odd cat of amplitude alpha.

    Note on sign: for cats on the imaginary axis under our S(r) convention the
    positive branch r = +arccosh(sqrt(1/2 + sqrt(9 + 4 alpha^2)/6)) is the one
    that reaches fidelity >= 0.99 for alpha <= 1; the negative branch matches
    real-axis cats instead.
    """
    if alpha < 0:
        raise DomainError("alpha must be >= 0")
    arg = np.sqrt(0.5 + np.sqrt(9.0 + 4.0 * alpha**2) / 6.0)
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
    """|<a|b>|^2 for pure states, Uhlmann fidelity when either is mixed.

    Clamped to at most 1 by np.minimum, which keeps NaN: a state holding NaN
    gets fidelity NaN, which fails every threshold check."""
    pure_a = isinstance(a, FockVector)
    pure_b = isinstance(b, FockVector)
    if pure_a and pure_b:
        if a.dim != b.dim:
            raise DimensionError("dimension mismatch")
        return float(np.minimum(1.0, abs(a.overlap(b)) ** 2))
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
