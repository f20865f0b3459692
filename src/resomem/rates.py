"""Heralded interference-rate and breeding-scalability model.

Two heralded sources with rate r0 and wavepacket FWHM bandwidth Delta
interfere successfully at rate r_BS = k_match r0^2 / Delta, where k_match is
a dimensionless storage/mode-match parameter (k_match = Delta t_storage
in the memory-assisted scheme, ~p1-independent); `k_from_rates` reads
k_match off a measured (r0, Delta, r_BS).  The n-input success probability
per wavepacket width is the Poisson tail

    p_n = (1 / max(k_match, 1)) * P(N >= n),  N ~ Poisson(k_match p1),

evaluated in the log domain so that p_20 ~ 1e-20 .. 1e-30 does not underflow.
"""

from __future__ import annotations

import math

from .errors import DomainError
from .fock import poisson_tail


def _require_finite(**values):
    for name, value in values.items():
        if not math.isfinite(value):
            raise DomainError(f"{name}={value} must be finite")


def k_from_rates(r0: float, delta: float, r_bs: float) -> float:
    """The mode-match parameter k_match = r_bs delta / r0^2 of a source pair
    whose interference rate is r_bs."""
    _require_finite(r0=r0, delta=delta, r_bs=r_bs)
    if r0 <= 0 or delta <= 0:
        raise DomainError("r0 and delta must be positive")
    if not r_bs >= 0:
        raise DomainError(f"r_bs={r_bs} must be >= 0")
    try:
        k = r_bs * delta / r0**2
    except (OverflowError, ZeroDivisionError):  # r0**2 beyond the float range
        k = math.inf
    if not math.isfinite(k):
        raise DomainError(f"k_match = r_bs delta / r0^2 leaves the float range for r0={r0}, delta={delta}")
    return k


def heralding_probability(r0: float, delta: float) -> float:
    """Single-mode heralding probability p1 = r0 / delta."""
    _require_finite(r0=r0, delta=delta)
    if delta <= 0:
        raise DomainError("delta must be positive")
    if not r0 >= 0:
        raise DomainError(f"r0={r0} must be >= 0")
    p1 = r0 / delta
    if p1 > 1:
        raise DomainError(f"p1 = r0/delta = {p1} > 1; model domain violated")
    return p1


def success_probability(n: int, k_match: float, p1: float) -> float:
    """p_n = P(Poisson(k_match p1) >= n) / max(k_match, 1).

    The Poisson tail is `fock.poisson_tail(n, k_match p1)`, which keeps its
    relative accuracy down to ~1e-300.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    _require_finite(k_match=k_match)
    if k_match < 0 or not 0 <= p1 <= 1:
        raise DomainError("invalid (k_match, p1)")
    mu = k_match * p1
    tail = poisson_tail(n, mu)
    return tail / max(k_match, 1.0)
