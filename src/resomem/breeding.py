"""Iterative cat/GKP breeding on a beamsplitter staircase with homodyne
conditioning, plus closed-form target states and GKP stabilizer metrics.

Step k mixes the memory with a fresh input on transmittance T_k = k/(k+1) and
conditions the output port: p = 0 for cat breeding, x = 0 for GKP breeding.
In the quadrature picture the step is a pointwise product of wavefunctions,
evaluated exactly by `gates.condition_on_quadrature` for pure and mixed
memories and inputs, ideal projections and acceptance windows alike.
The x = 0 projection is exact for superpositions of imaginary-axis coherent
states (<x=0|i gamma> = pi^{-1/4} for every real gamma), so the GKP closed
forms are reproduced to machine precision. The cat closed form is only the
large-alpha limit: the p = 0 projection also keeps lower-amplitude terms
(after one step a vacuum-like term of relative weight ~2s e^{-2 alpha^2}).
The tests' finite-alpha reference for both protocols follows the
coherent-state superposition through each step in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .fock import (
    DEFAULT_DIM,
    DensityMatrix,
    FockVector,
    as_density_matrix,
    cat_state,
    coherent_amplitudes,
    guard_dim,
)
from .gates import (
    condition_on_quadrature,
    gauss_hermite,
    hermite_functions,
    projection_rule,
    quadrature_density,
)

# Unused here: perfbench/tracing.py looks these names up on this module.
from .gates import beamsplitter_apply, homodyne_project, window_condition  # noqa: F401

# protocol -> angle theta of the quadrature x_theta it conditions on: p for cat, x for gkp
PROJECTION_THETA = {"cat": np.pi / 2, "gkp": 0.0}
STABILIZER_G = 2.46  # lattice constant g of the reported GKP stabilizers


@dataclass(frozen=True)
class BreedingPlan:
    protocol: str  # a key of PROJECTION_THETA
    steps: int
    alpha: float
    s: int = -1
    dim: int = DEFAULT_DIM
    window: tuple[float, float] | None = None  # None = ideal value-0 projection

    def __post_init__(self):
        if self.protocol not in PROJECTION_THETA:
            raise DomainError(f"protocol must be one of {list(PROJECTION_THETA)}, got {self.protocol!r}")
        if self.steps < 1:
            raise DomainError("steps must be >= 1")
        if self.s not in (+1, -1):
            raise DomainError("parity s must be +1 or -1")
        # final amplitude after `steps` steps is sqrt(steps+1) * alpha
        guard_dim(math.sqrt(self.steps + 1) * self.alpha, self.dim)


@dataclass(frozen=True)
class BreedingTrajectory:
    states: list = field(repr=False)  # DensityMatrix, length steps+1
    success_densities: list  # length steps


def breed_step(memory, input_state, k: int, protocol: str, window=None):
    """One breeding step: beamsplitter T_k = k/(k+1), then condition the
    output port on the protocol's quadrature, ideally at 0 or over `window`.

    `memory` and `input_state` are each a FockVector or a DensityMatrix. Returns
    (normalized survivor DensityMatrix, success density or window acceptance probability).
    """
    if k < 1:
        raise DomainError("step index k must be >= 1")
    if protocol not in PROJECTION_THETA:
        raise DomainError(f"unknown protocol {protocol!r}")
    ports = [s.amp if isinstance(s, FockVector) else s.rho for s in (memory, input_state)]
    out, total = condition_on_quadrature(*ports, k / (k + 1), PROJECTION_THETA[protocol], *projection_rule(window))
    if total <= 0:
        raise DomainError("zero success density; conditioning annihilated the state")
    return DensityMatrix(memory.dim, out / total), total


def run_breeding(plan: BreedingPlan) -> BreedingTrajectory:
    """Run the staircase with a fresh input cat each step, recording the
    memory state and the success density after every step."""
    inp = cat_state(plan.alpha, plan.s, plan.dim)
    state = inp.to_density_matrix()
    states = [state]
    densities = []
    for k in range(1, plan.steps + 1):
        state, dens = breed_step(state, inp, k, plan.protocol, plan.window)
        states.append(state)
        densities.append(dens)
    return BreedingTrajectory(states, densities)


def theoretical_bred_state(k: int, alpha: float, s: int, protocol: str, dim: int) -> FockVector:
    """Closed-form state built from k input cats of amplitude alpha.

    cat: (|i sqrt(k) alpha> + s^k |-i sqrt(k) alpha>)/N
    gkp: sum_{m=0}^{k} binom(k, m) s^m |i(-k+2m) alpha/sqrt(k)>, normalized

    The gkp form is exact; the cat form is the large-alpha limit of cat
    breeding.
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    if s not in (+1, -1):
        raise DomainError("parity s must be +1 or -1")
    if protocol == "cat":
        return cat_state(np.sqrt(k) * alpha, s**k, dim)
    if protocol == "gkp":
        guard_dim(np.sqrt(k) * alpha, dim)
        amp = np.zeros(dim, dtype=complex)
        for m in range(k + 1):
            amp += math.comb(k, m) * s**m * coherent_amplitudes(1j * (-k + 2 * m) * alpha / np.sqrt(k), dim)
        return FockVector(dim, amp).normalized()
    raise DomainError(f"unknown protocol {protocol!r}")


def gkp_stabilizer_expectation(state, g: float) -> tuple[float, float]:
    """(|<e^{i g x}>|, |<e^{2 pi i p / g}>|) as translation overlaps.

    e^{icp} translates x_theta wavefunctions by c, so <e^{icp}> is the
    integral of rho_theta(u + c/2, u - c/2) over u: c = g at theta = pi/2,
    where x is the momentum conjugate to x_theta, for the x stabilizer, and
    c = 2 pi / g at theta = 0 for the p stabilizer. The integrand is a
    polynomial of degree <= 2(dim-1) times e^{-u^2}, so Gauss-Hermite
    quadrature is exact. The four shifted tables u +- c/2 come from one
    `hermite_functions` call, whose cost is set by its loop over the dim rows.
    Past c/2 = max|u| + 39 every psi_n(u +- c/2) underflows to 0, so a shift
    capped at 1e150, which keeps (u +- c/2)^2 inside the float range, gives
    the same exact 0 at any larger c, 2 pi / g = inf included.
    """
    if not 0 < g < math.inf:  # a NaN or infinite g would give NaN stabilizers
        raise DomainError(f"g={g} must be positive and finite")
    rho = as_density_matrix(state)
    u, w = gauss_hermite(2 * (rho.dim - 1))
    cx, cp = min(float(g), 1e150), min(2 * math.pi / float(g), 1e150)
    psi = hermite_functions(np.stack((u + cx / 2, u - cx / 2, u + cp / 2, u - cp / 2)), rho.dim)
    return (
        float(abs(w @ quadrature_density(rho.rho, np.pi / 2, psi[:, 0], psi[:, 1]))),
        float(abs(w @ quadrature_density(rho.rho, 0.0, psi[:, 2], psi[:, 3]))),
    )
