"""Storage decoherence: closed-form amplitude-damping + dephasing evolution,
linear loss, and T1/Tphi extraction.

Closed form in the Fock basis:
    rho_{n,m}(t) = sum_k rho_{n+k,m+k}(0) sqrt(C(n+k,k) C(m+k,k))
                   (1 - e^{-t/T1})^k e^{-(n+m)t/2T1} e^{-(n-m)^2 t/Tphi}

which solves d rho/dt = (1/T1) D[a] rho + (2/Tphi) D[a^dag a] rho.  Note the
factor 2 on the dephasing dissipator: with rate 1/Tphi the (0,2) coherence
would decay as e^{-2t/Tphi}, not the e^{-4t/Tphi} the closed form (and the
R(t) = R(0) e^{-t/Tphi} coherence observable) requires.  The tests check it
against an independent RK4 integration of that equation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .fock import DensityMatrix, as_density_matrix, log_factorial


@dataclass(frozen=True)
class NoiseParams:
    """Energy relaxation time T1 and pure dephasing time Tphi, in seconds.

    Either may be math.inf to switch the corresponding channel off.
    """

    T1: float
    Tphi: float

    def __post_init__(self):
        if not (self.T1 > 0 and self.Tphi > 0):
            raise DomainError(f"T1={self.T1}, Tphi={self.Tphi} must be positive")


@dataclass(frozen=True)
class CoherenceSeries:
    """A decaying observable sampled in time (rho11(t) or R(t))."""

    t: np.ndarray
    value: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        v = np.asarray(self.value, dtype=float)
        if t.shape != v.shape or t.ndim != 1:
            raise DomainError("t and value must be 1d arrays of equal length")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "value", v)


def evolve_closed_form(rho, t: float, params: NoiseParams) -> DensityMatrix:
    """Evolve `rho`, a FockVector or DensityMatrix, for time t under amplitude
    damping (T1) and dephasing (Tphi).

    Damping only lowers n, so the channel maps the span of |0> .. |dim-1> into
    itself: the result is exact on the cut, the evolution at any larger dim
    with zeros outside."""
    if not (math.isfinite(t) and t >= 0):  # an infinite or NaN t gives a NaN state
        raise DomainError(f"t={t} must be finite and >= 0")
    rho = as_density_matrix(rho)
    rho.require_normalized()
    if t == 0:
        return rho
    dim = rho.dim
    n = np.arange(dim)
    # an infinite lifetime switches its channel off: its exponents read t = 0, as
    # n t / T1 would be inf/inf = NaN where n t overflows
    t1, tphi = (0.0 if math.isinf(T) else t for T in (params.T1, params.Tphi))
    with np.errstate(over="ignore"):  # an exponent beyond the float range sends its factor to 0
        damp = np.exp(-n * t1 / (2 * params.T1))
        loss = -np.expm1(-t1 / params.T1)  # 1 - e^{-t/T1}
        deph = np.exp(-np.subtract.outer(n, n) ** 2 * tphi / params.Tphi)
    log_fact = log_factorial(n)
    out = np.zeros((dim, dim), dtype=complex)
    kmax = dim - 1
    for k in range(kmax + 1):
        if k > 0 and loss == 0.0:
            break
        sub = rho.rho[k:, k:]  # rho_{n+k, m+k}
        w = np.exp(0.5 * (log_fact[k:] - log_fact[k] - log_fact[: dim - k]))  # sqrt C(n + k, k)
        fac = loss**k if k else 1.0
        out[: dim - k, : dim - k] += fac * (w[:, None] * w[None, :]) * sub
    out *= np.outer(damp, damp) * deph
    return DensityMatrix(dim, out)


def apply_loss(rho, eta: float) -> DensityMatrix:
    """Pure linear loss of transmission eta, as amplitude damping with
    t/T1 = -ln(eta) and no dephasing."""
    if not 0 < eta <= 1:
        raise DomainError(f"eta={eta} outside (0, 1]")
    rho = as_density_matrix(rho)
    if eta == 1:
        return rho
    return evolve_closed_form(rho, -np.log(eta), NoiseParams(T1=1.0, Tphi=np.inf))


def _decay_time(series: CoherenceSeries, name: str) -> float:
    """tau of value ~ e^{-t/tau}: -1/slope of the least-squares line through
    log-value against t, or math.inf when the log-values are constant to
    within 1e-12."""
    if len(series.t) < 3:
        raise DomainError("need at least 3 points")
    if np.any(series.value <= 0):
        raise DomainError("values must be positive for the log fit")
    log_value = np.log(series.value)
    if np.ptp(log_value) < 1e-12:
        return math.inf
    slope, _ = np.polyfit(series.t, log_value, 1)
    if slope >= 0:
        raise DomainError(f"series does not decay; cannot extract {name}")
    return float(-1.0 / slope)


def fit_T1(series: CoherenceSeries) -> float:
    """T1 from rho11(t) ~ e^{-t/T1} (see _decay_time)."""
    return _decay_time(series, "T1")


def normalized_coherence(rho) -> float:
    """R = (|rho02| / sqrt(rho00 rho22))^{1/4}.

    Constructed so that closed-form evolution gives exactly
    R(t) = R(0) e^{-t/Tphi} when T1 is infinite: the (n-m)^2 = 4 dephasing
    factor survives the 1/4 power while the diagonal is untouched.  With
    finite T1 the cancellation is approximate but sub-percent for T1 ~ 2 Tphi.
    """
    rho = as_density_matrix(rho)
    r00 = rho.rho[0, 0].real
    r22 = rho.rho[2, 2].real
    r02 = abs(rho.rho[0, 2])
    if r02 == 0 or not r00 * r22 > 0:  # |rho02|^2 <= rho00 rho22: rho22 can underflow to 0 first
        raise DomainError("zero (0,2) coherence; R undefined")
    return float((r02 / np.sqrt(r00 * r22)) ** 0.25)


def fit_Tphi(rho_series, t) -> float:
    """Tphi from R(t) = R(0) e^{-t/Tphi} over a list of density matrices (see
    _decay_time)."""
    return _decay_time(CoherenceSeries(t, [normalized_coherence(r) for r in rho_series]), "Tphi")
