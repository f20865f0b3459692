"""Dual-mode resonator memory: coupling-schedule design for arbitrary
wavepackets, and a cascaded-network simulator, exact for the sampled
schedule, that validates the effective-beamsplitter picture.

Every schedule comes from one relation, gamma(t) = g(t)^2 / D(t):
    absorbing (entangle, survival T_f): D = T_f/(1-T_f) + int_{-inf}^t g_in^2
    write = absorbing with T_f = 0:     D = int_{-inf}^t g_in^2
    read = write run backwards in time: D = int_t^inf g_out^2
With F(t) = exp(-1/2 int^t gamma), the input mode is g_in proportional to
sqrt(gamma)/F and the output mode g_out = F sqrt(gamma)/sqrt(1-T_f);
simulate_network computes both from a schedule, on the schedule's own grid.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NumericalAccuracyWarning

GAMMA0 = 2 * np.pi * 1.5e6  # the paper's output-coupling rate, 2 pi x 1.5 MHz, in 1/s
NORM_TRUNCATION = 1e-6  # residual-norm threshold at support edges
GAMMA_CAP_FACTOR = 100.0
# coarsest wavepacket grid step, in units of 1/gamma0: write and read pulses still come within
# 4e-6 of their targets there, while a one-sample wavepacket's read pulse leaves 0.37, not 0
MAX_STEP_GAMMA0 = 1.0


def _cumulative_trapezoid(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Trapezoid integral of y from t[0] to each t, in the operation order of
    scipy.integrate.cumulative_trapezoid(y, t, initial=0), so bit-equal to it."""
    return np.concatenate(([0.0], np.cumsum(np.diff(t) * (y[1:] + y[:-1]) / 2.0)))


@dataclass(frozen=True)
class TemporalMode:
    """Real wavepacket g(t) on a uniform grid, normalized so that the
    trapezoid integral of g^2 equals 1."""

    t: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        g = np.asarray(self.g, dtype=float)
        if t.ndim != 1 or t.shape != g.shape or len(t) < 3:
            raise DomainError("t and g must be matching 1d arrays, length >= 3")
        if not np.allclose(np.diff(t), t[1] - t[0], rtol=1e-9, atol=0):
            raise DomainError("time grid must be uniform")
        if not np.all(np.isfinite(g)):
            raise DomainError("mode not finite")
        if abs(np.trapezoid(g * g, t) - 1.0) > 1e-6:
            raise DomainError("mode not normalized: int g^2 dt != 1")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "g", g)

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0])


@dataclass(frozen=True)
class CouplingSchedule:
    """Output-coupling rate gamma(t) >= 0 on a uniform time grid."""

    t: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        gam = np.asarray(self.gamma, dtype=float)
        if t.shape != gam.shape or t.ndim != 1 or np.any(np.diff(t) <= 0):
            raise DomainError("t and gamma must be matching 1d arrays, t increasing")
        if np.any(gam < 0):
            raise DomainError("gamma must be nonnegative")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "gamma", gam)


@dataclass(frozen=True)
class NetworkResult:
    effective_Tf: float
    in_overlap: float
    out_overlap: float
    out_mode: TemporalMode | None = field(repr=False, default=None)


def standard_wavepacket(kind: str, gamma0: float, grid, t0: float | None = None) -> TemporalMode:
    """The three analytic wavepackets: 'exp_rising' (support t <= 0),
    'exp_decaying' (t >= 0), and 'time_bin' (rising exponential on [0, t0])."""
    if gamma0 <= 0:
        raise DomainError("gamma0 must be positive")
    t = np.asarray(grid, dtype=float)
    step = float(np.max(np.diff(t), initial=0.0))
    if step * float(gamma0) > MAX_STEP_GAMMA0:
        raise DomainError(f"grid step {step:.3g} s is longer than {MAX_STEP_GAMMA0:g}/gamma0 = "
                          f"{MAX_STEP_GAMMA0 / gamma0:.3g} s")
    margin = 8.0 / gamma0
    if kind == "exp_rising":
        if t[0] > -margin or t[-1] < 0:
            raise DomainError("grid must span [-8/gamma0, 0]")
        g = np.where(t <= 0, np.exp(gamma0 * t / 2), 0.0)
    elif kind == "exp_decaying":
        if t[0] > 0 or t[-1] < margin:
            raise DomainError("grid must span [0, 8/gamma0]")
        g = np.where(t >= 0, np.exp(-gamma0 * t / 2), 0.0)
    elif kind == "time_bin":
        if t0 is None or t0 <= 0:
            raise DomainError("time_bin requires t0 > 0")
        if t[0] > 0 or t[-1] < t0:
            raise DomainError("grid must span [0, t0]")
        g = np.where((t >= 0) & (t <= t0), np.exp(gamma0 * (t - t0) / 2), 0.0)  # peak 1: no overflow
    else:
        raise DomainError(f"unknown wavepacket kind {kind!r}")
    norm = np.sqrt(np.trapezoid(g * g, t))
    if norm == 0:
        raise DomainError("wavepacket vanishes on the grid")
    return TemporalMode(t, g / norm)


def _coupling(mode: TemporalMode, Tf: float | None, warning: str = "") -> CouplingSchedule:
    """The one design relation gamma = g^2 / D.

    Absorbing (Tf in [0, 1)): D = Tf/(1-Tf) + int_{t0}^t g^2.
    Releasing (Tf None):      D = int_t^end g^2, and gamma = 0 where D < NORM_TRUNCATION.
    D reaches 0 only when absorbing with Tf = 0 (at the support onset) or when
    releasing (at the support end); there gamma is clipped at GAMMA_CAP_FACTOR
    times the peak of g^2, and `warning` is raised when the clipped samples
    carry more than NORM_TRUNCATION of int g^2 = 1.  With Tf > 0 the schedule
    is finite (peak g(0)^2 (1-Tf)/Tf) and never clipped.
    """
    g2 = mode.g**2
    G = _cumulative_trapezoid(g2, mode.t)
    D = G[-1] - G if Tf is None else Tf / (1 - Tf) + G
    # the floor keeps gamma finite where D = 0; a rate that overflows is left
    # inf, for simulate_network's finite check
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        gam = np.where(g2 > 0, g2 / np.maximum(D, 1e-300), 0.0)
    if Tf is None:
        gam[D < NORM_TRUNCATION] = 0.0
    if Tf:  # D >= Tf/(1-Tf) > 0
        return CouplingSchedule(mode.t, gam)
    cap = GAMMA_CAP_FACTOR * float(np.max(g2))
    if np.sum(g2[gam > cap]) * mode.dt > NORM_TRUNCATION:
        warnings.warn(warning, NumericalAccuracyWarning)
    return CouplingSchedule(mode.t, np.minimum(gam, cap))


def write_pulse(g_in: TemporalMode) -> CouplingSchedule:
    """gamma(t) = g_in^2 / int_{-inf}^t g_in^2; absorbs the wavepacket fully."""
    return _coupling(g_in, 0.0, "write_pulse: gamma capped at support onset")


def read_pulse(g_out: TemporalMode) -> CouplingSchedule:
    """gamma(t) = g_out^2 / int_t^inf g_out^2; releases the stored state into
    g_out.  The tail where the remaining norm is below the truncation
    threshold is zeroed."""
    return _coupling(g_out, None, "read_pulse: gamma capped near support end")


def entangle_pulse(g_in: TemporalMode, Tf: float) -> CouplingSchedule:
    """gamma(t) = g_in^2 / (Tf/(1-Tf) + int_{-inf}^t g_in^2): leaves survival
    probability Tf in the resonator, realizing a beamsplitter of
    transmittance Tf between the stored mode and the wavepacket."""
    if not 0 < Tf < 1:
        raise DomainError(f"Tf={Tf} outside (0, 1)")
    return _coupling(g_in, Tf)


def simulate_network(sched: CouplingSchedule) -> NetworkResult:
    """Cascaded beamsplitter chain with one slice per sample of the schedule,
    of trapezoid width w_i (the grid step inside, half of it at the two ends):

        a      <- c_i a + s_i b_i,    c_i = exp(-gamma_i w_i / 2)
        out_i  <- -s_i a + c_i b_i,   s_i = sqrt(1 - exp(-gamma_i w_i))

    Each slice is the exact evolution under its constant rate, so the
    effective transmittance is exp(-int gamma) by the schedule's trapezoid
    rule.  Tracks only the linear mode-mixing coefficients (the dynamics are
    linear, so this holds for any photon number).  Reports that transmittance
    and the overlaps of the input/output weight vectors with the analytic
    B_in / B_out modes of the same schedule; raises DomainError when a
    slice's gamma * w is not finite.
    """
    steps = np.diff(sched.t)
    w = (np.concatenate(([0.0], steps)) + np.concatenate((steps, [0.0]))) / 2
    gw = sched.gamma * w
    if not np.all(np.isfinite(gw)):
        raise DomainError("a slice's gamma * width is not finite")
    s = np.sqrt(-np.expm1(-gw))
    upto = np.cumsum(gw)
    before = np.concatenate(([0.0], upto[:-1]))  # int gamma before slice i
    after = upto[-1] - upto  # and after it
    eff_Tf = float(np.exp(-upto[-1]))
    # b_i -> final a weight; initial a -> out_i weight
    w_in = s * np.exp(-after / 2)
    v_out = -s * np.exp(-before / 2)
    # analytic modes at the slice centres: g_in ~ sqrt(gamma)/F, g_out ~ sqrt(gamma) F
    u_in = np.sqrt(gw) * np.exp(-(after + gw / 2) / 2)
    u_out = np.sqrt(gw) * np.exp(-(before + gw / 2) / 2)
    win_norm = np.linalg.norm(w_in)
    if win_norm == 0:
        return NetworkResult(eff_Tf, 1.0, 1.0, None)
    in_overlap = float(np.dot(u_in / np.linalg.norm(u_in), w_in / win_norm) ** 2)
    vnorm = np.linalg.norm(v_out)
    out_overlap = float(np.dot(u_out / np.linalg.norm(u_out), -v_out / vnorm) ** 2)
    g_out = np.abs(v_out) / np.sqrt(w)
    g_out = g_out / np.sqrt(np.trapezoid(g_out**2, sched.t))
    return NetworkResult(eff_Tf, in_overlap, out_overlap, TemporalMode(sched.t, g_out))


def multimode_overlap(T0: float) -> float:
    """Mode-overlap penalty M from the discreteness of resonator round trips:
    sqrt(M) = sqrt(T0 / (-ln(1-T0))) * 2 / (1 + sqrt(1-T0))."""
    if not 0 < T0 < 1:
        raise DomainError(f"T0={T0} outside (0, 1)")
    sqrtM = np.sqrt(T0 / (-np.log1p(-T0))) * 2.0 / (1.0 + np.sqrt(1.0 - T0))
    return float(sqrtM**2)
