"""Dual-mode resonator memory: coupling-schedule design for arbitrary
wavepackets, analytic input/output mode relations, and a discretized
cascaded-network simulator that validates the effective-beamsplitter picture.

Design relations (F(t) = exp(-1/2 int^t gamma)):
    write:    gamma(t) = g_in^2 / int_{-inf}^t g_in^2
    read:     gamma(t) = g_out^2 / int_t^inf g_out^2
    entangle: gamma(t) = g_in^2 / (T_f/(1-T_f) + int_{-inf}^t g_in^2)
with g_in  proportional to sqrt(gamma)/F and g_out = F sqrt(gamma)/sqrt(1-T_f).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NumericalAccuracyWarning

SPEED_OF_LIGHT = 299792458.0
NORM_TRUNCATION = 1e-6  # residual-norm threshold at support edges
GAMMA_CAP_FACTOR = 100.0


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
    gamma_cap: float

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        gam = np.asarray(self.gamma, dtype=float)
        if t.shape != gam.shape or t.ndim != 1:
            raise DomainError("t and gamma must be matching 1d arrays")
        if np.any(gam < 0):
            raise DomainError("gamma must be nonnegative")
        if np.any(gam > self.gamma_cap * (1 + 1e-12)):
            raise DomainError("gamma exceeds gamma_cap")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "gamma", gam)

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0])

    def survival_amplitude(self) -> np.ndarray:
        """F(t) = exp(-1/2 int_{t0}^t gamma dt')."""
        integ = _cumulative_trapezoid(self.gamma, self.t)
        return np.exp(-integ / 2)


@dataclass(frozen=True)
class MemoryHardware:
    """Resonator geometry and Pockels-cell parameters."""

    L: float = 4.35
    V_pi: float = 1.8e3
    gamma0: float = 2 * np.pi * 1.5e6

    def __post_init__(self):
        if self.L <= 0 or self.V_pi <= 0:
            raise DomainError("L and V_pi must be positive")


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
        g = np.where((t >= 0) & (t <= t0), np.exp(gamma0 * t / 2), 0.0)
    else:
        raise DomainError(f"unknown wavepacket kind {kind!r}")
    norm = np.sqrt(np.trapezoid(g * g, t))
    if norm == 0:
        raise DomainError("wavepacket vanishes on the grid")
    return TemporalMode(t, g / norm)


def _cap(g2: np.ndarray) -> float:
    """The largest gamma a schedule may take: GAMMA_CAP_FACTOR times the peak of g^2."""
    return GAMMA_CAP_FACTOR * float(np.max(g2))


def write_pulse(g_in: TemporalMode) -> CouplingSchedule:
    """gamma(t) = g_in^2 / int_{-inf}^t g_in^2; absorbs the wavepacket fully."""
    g2 = g_in.g**2
    if not np.any(g2 > 0):
        raise DomainError("all-zero input mode")
    cap = _cap(g2)
    G = _cumulative_trapezoid(g2, g_in.t)
    with np.errstate(divide="ignore", invalid="ignore"):
        gam = np.where(g2 > 0, g2 / np.maximum(G, 1e-300), 0.0)
    if np.any(gam > cap):
        warnings.warn("write_pulse: gamma capped at support onset", NumericalAccuracyWarning)
        gam = np.minimum(gam, cap)
    return CouplingSchedule(g_in.t, gam, cap)


def read_pulse(g_out: TemporalMode) -> CouplingSchedule:
    """gamma(t) = g_out^2 / int_t^inf g_out^2; releases the stored state into
    g_out.  The tail where the remaining norm is below the truncation
    threshold is zeroed."""
    g2 = g_out.g**2
    if not np.any(g2 > 0):
        raise DomainError("all-zero output mode")
    cap = _cap(g2)
    G = _cumulative_trapezoid(g2, g_out.t)
    remaining = G[-1] - G
    with np.errstate(divide="ignore", invalid="ignore"):
        gam = np.where(g2 > 0, g2 / np.maximum(remaining, 1e-300), 0.0)
    gam[remaining < NORM_TRUNCATION] = 0.0
    capped = gam > cap
    if np.any(capped):
        warnings.warn("read_pulse: gamma capped near support end", NumericalAccuracyWarning)
        gam = np.minimum(gam, cap)
    return CouplingSchedule(g_out.t, gam, cap)


def entangle_pulse(g_in: TemporalMode, Tf: float) -> CouplingSchedule:
    """gamma(t) = g_in^2 / (Tf/(1-Tf) + int_{-inf}^t g_in^2): leaves survival
    probability Tf in the resonator, realizing a beamsplitter of
    transmittance Tf between the stored mode and the wavepacket."""
    if not 0 < Tf < 1:
        raise DomainError(f"Tf={Tf} outside (0, 1)")
    g2 = g_in.g**2
    if not np.any(g2 > 0):
        raise DomainError("all-zero input mode")
    G = _cumulative_trapezoid(g2, g_in.t)
    gam = g2 / (Tf / (1 - Tf) + G)
    # the schedule is finite for Tf > 0 (peak g(0)^2 (1-Tf)/Tf), so the cap
    # never clips it
    return CouplingSchedule(g_in.t, gam, max(_cap(g2), float(np.max(gam))))


def output_mode_from_schedule(sched: CouplingSchedule, Tf: float) -> TemporalMode:
    """g_out(t) = F(t) sqrt(gamma(t)) / sqrt(1 - Tf), normalized.

    Checks that the schedule is consistent with the claimed Tf, i.e. that the
    final survival probability F(t_end)^2 matches Tf to 1e-4.
    """
    if not 0 <= Tf < 1:
        raise DomainError(f"Tf={Tf} outside [0, 1)")
    F = sched.survival_amplitude()
    if abs(F[-1] ** 2 - Tf) > 1e-4:
        raise DomainError(
            f"schedule inconsistent with Tf: F(t_end)^2 = {F[-1]**2:.6f}, Tf = {Tf:.6f}"
        )
    g = F * np.sqrt(sched.gamma)
    norm = np.sqrt(np.trapezoid(g * g, sched.t))
    if norm == 0:
        raise DomainError("schedule produces no output")
    return TemporalMode(sched.t, g / norm)


def simulate_network(sched: CouplingSchedule, dt: float) -> NetworkResult:
    """Discretized cascaded beamsplitter chain over time slices of width dt:

        a      <- sqrt(1 - gamma_i dt) a + sqrt(gamma_i dt) b_i
        out_i  <- -sqrt(gamma_i dt) a + sqrt(1 - gamma_i dt) b_i

    Tracks only the linear mode-mixing coefficients (the dynamics are linear,
    so this is exact for any photon number).  Reports the effective
    transmittance and the overlaps of the accumulated input/output weight
    vectors with the analytic B_in / B_out modes of the same schedule.
    """
    if dt <= 0:
        raise DomainError("dt must be positive")
    t = np.arange(sched.t[0], sched.t[-1] + dt / 2, dt)
    gam = np.interp(t, sched.t, sched.gamma)
    gdt = gam * dt
    if np.any(gdt >= 1):
        raise DomainError("unstable discretization: gamma*dt >= 1")
    c = np.sqrt(1 - gdt)  # per-slice survival amplitudes
    s = np.sqrt(gdt)
    # cumulative survival: prod_{l<=i} c_l and prod_{l<i} c_l
    logc = np.cumsum(np.log(np.maximum(c, 1e-300)))
    prod_upto = np.exp(logc)  # prod_{l<=i}
    prod_before = np.concatenate(([1.0], prod_upto[:-1]))
    c0 = prod_upto[-1]
    # b_i -> final a weight; initial a -> out_i weight
    with np.errstate(divide="ignore"):
        w_in = s * c0 / np.maximum(prod_upto, 1e-300)
    v_out = -s * prod_before
    eff_Tf = float(c0**2)
    # analytic modes: g_in ~ sqrt(gamma)/F, g_out ~ sqrt(gamma) F
    F = np.exp(-np.concatenate(([0.0], np.cumsum(gdt)[:-1])) / 2 - gdt / 4)
    u_in = np.sqrt(gdt) / F
    u_out = np.sqrt(gdt) * F
    win_norm = np.linalg.norm(w_in)
    if win_norm == 0:
        return NetworkResult(eff_Tf, 1.0, 1.0, None)
    in_overlap = float(np.dot(u_in / np.linalg.norm(u_in), w_in / win_norm) ** 2)
    vnorm = np.linalg.norm(v_out)
    out_overlap = float(np.dot(u_out / np.linalg.norm(u_out), -v_out / vnorm) ** 2)
    g_out = np.abs(v_out) / np.sqrt(dt)
    g_out = g_out / np.sqrt(np.trapezoid(g_out**2, t))
    return NetworkResult(eff_Tf, in_overlap, out_overlap, TemporalMode(t, g_out))


def multimode_overlap(T0: float) -> float:
    """Mode-overlap penalty M from the discreteness of resonator round trips:
    sqrt(M) = sqrt(T0 / (-ln(1-T0))) * 2 / (1 + sqrt(1-T0))."""
    if not 0 < T0 < 1:
        raise DomainError(f"T0={T0} outside (0, 1)")
    sqrtM = np.sqrt(T0 / (-np.log1p(-T0))) * 2.0 / (1.0 + np.sqrt(1.0 - T0))
    return float(sqrtM**2)


def staircase_overlap_oracle(T0: float, tail: float = 1e-14) -> float:
    """Independent check of multimode_overlap: overlap of the per-round-trip
    staircase g(t) = sqrt((1-R0)/tau) sqrt(R0)^floor(t/tau) with the ideal
    exponential sqrt(gamma) e^{-gamma t/2}, gamma = -ln(R0)/tau, summed
    interval by interval (each interval integrated in closed form)."""
    if not 0 < T0 < 1:
        raise DomainError(f"T0={T0} outside (0, 1)")
    R0 = 1.0 - T0
    # number of round trips until the residual weight drops below `tail`
    n = int(np.ceil(np.log(tail) / np.log(R0))) + 2
    j = np.arange(n)
    gamma_tau = -np.log(R0)
    # int_{j tau}^{(j+1) tau} sqrt((1-R0)/tau) R0^{j/2} sqrt(gamma) e^{-gamma t/2} dt
    terms = np.sqrt((1 - R0) / gamma_tau) * R0**j * 2 * (1 - np.sqrt(R0))
    return float(np.sum(terms) ** 2)


def voltage_gamma(hardware: MemoryHardware, value: float, direction: str = "forward") -> float:
    """Pockels-cell transfer gamma = (c/L) [1 - cos(pi V / V_pi)].

    direction 'forward' maps a voltage to gamma; 'inverse' maps gamma back to
    the principal-branch voltage V in [0, V_pi].
    """
    full = 2.0 * SPEED_OF_LIGHT / hardware.L
    if direction == "forward":
        return float(full / 2 * (1.0 - np.cos(np.pi * value / hardware.V_pi)))
    if direction == "inverse":
        if not 0 <= value <= full:
            raise DomainError(f"gamma={value} outside [0, 2c/L = {full:.4g}]")
        return float(hardware.V_pi / np.pi * np.arccos(1.0 - 2.0 * value / full))
    raise DomainError(f"direction must be 'forward' or 'inverse', got {direction!r}")
