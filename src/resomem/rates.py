"""Heralded interference-rate and breeding-scalability model.

Two heralded sources with rate r0 and wavepacket FWHM bandwidth Delta
interfere successfully at rate r_BS = k_match r0^2 / Delta, where k_match is
a dimensionless storage/mode-match parameter (k_match = Delta t_storage
in the memory-assisted scheme, ~p1-independent).  The n-input success
probability per wavepacket width is the Poisson tail

    p_n = (1 / max(k_match, 1)) * P(N >= n),  N ~ Poisson(k_match p1),

evaluated in the log domain so that p_20 ~ 1e-20 .. 1e-30 does not underflow.
"""

from __future__ import annotations

import math

from scipy.special import gammainc

from .errors import DomainError


def interference_rate(r0: float, delta: float, k_match: float) -> float:
    """r_BS = k_match r0^2 / delta, in 1/s, with mantissas and binary exponents
    taken apart (math.frexp): no partial product leaves the float range unless
    r_BS does, and where none did, this is k_match * (r0 * r0) / delta bit for bit."""
    if delta <= 0:
        raise DomainError("delta must be positive")
    if r0 < 0 or k_match < 0:
        raise DomainError("r0 and k_match must be nonnegative")
    (mr, er), (mk, ek), (md, ed) = map(math.frexp, (r0, k_match, delta))
    try:
        rate = math.ldexp(mk * (mr * mr) / md, 2 * er + ek - ed)
    except OverflowError:
        rate = math.inf
    if not math.isfinite(rate):
        raise DomainError(f"r_BS = k_match r0^2 / delta leaves the float range for r0={r0}, delta={delta}")
    return rate


def k_from_rates(r0: float, delta: float, r_bs: float) -> float:
    """Invert interference_rate for the mode-match parameter k_match."""
    if r0 <= 0 or delta <= 0:
        raise DomainError("r0 and delta must be positive")
    try:
        k = r_bs * delta / r0**2
    except (OverflowError, ZeroDivisionError):  # r0**2 beyond the float range
        k = math.inf
    if not math.isfinite(k):
        raise DomainError(f"k_match = r_bs delta / r0^2 leaves the float range for r0={r0}, delta={delta}")
    return k


def heralding_probability(r0: float, delta: float) -> float:
    """Single-mode heralding probability p1 = r0 / delta."""
    if delta <= 0:
        raise DomainError("delta must be positive")
    p1 = r0 / delta
    if p1 > 1:
        raise DomainError(f"p1 = r0/delta = {p1} > 1; model domain violated")
    return p1


def success_probability(n: int, k_match: float, p1: float) -> float:
    """p_n = P(Poisson(k_match p1) >= n) / max(k_match, 1).

    The Poisson tail equals the regularized lower incomplete gamma function
    gammainc(n, k_match p1), which is accurate down to ~1e-300.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    if k_match < 0 or not 0 <= p1 <= 1:
        raise DomainError("invalid (k_match, p1)")
    mu = k_match * p1
    tail = float(gammainc(n, mu))  # P(N >= n) for N ~ Poisson(mu)
    return tail / max(k_match, 1.0)
