"""Iterative cat/GKP breeding on a beamsplitter staircase with homodyne
conditioning, plus closed-form target states and GKP stabilizer metrics.

Step k mixes the memory with a fresh input on transmittance T_k = k/(k+1) and
conditions the output port: p = 0 for cat breeding, x = 0 for GKP breeding.
In the quadrature picture the step is a pointwise product of wavefunctions,
evaluated exactly by `gates.condition_on_quadrature` for pure and mixed
memories, ideal projections and acceptance windows alike.
The x = 0 projection is exact for superpositions of imaginary-axis coherent
states (<x=0|i gamma> = pi^{-1/4} for every real gamma), so the GKP closed
forms are reproduced to machine precision. The cat closed form is only the
large-alpha limit: the p = 0 projection also keeps lower-amplitude terms
(after one step a vacuum-like term of relative weight ~2s e^{-2 alpha^2}).
`exact_bred_state` is the finite-alpha reference for both protocols; it
follows the coherent-state superposition through each step in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import comb

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

CAT_PROJECTION_THETA = np.pi / 2  # condition on p
GKP_PROJECTION_THETA = 0.0  # condition on x
STABILIZER_G = 2.46  # lattice constant g of the reported GKP stabilizers


@dataclass(frozen=True)
class BreedingPlan:
    protocol: str  # 'cat' | 'gkp'
    steps: int
    alpha: float
    s: int = -1
    dim: int = DEFAULT_DIM
    window: tuple[float, float] | None = None  # None = ideal value-0 projection

    def __post_init__(self):
        if self.protocol not in ("cat", "gkp"):
            raise DomainError(f"protocol must be 'cat' or 'gkp', got {self.protocol!r}")
        if self.steps < 1:
            raise DomainError("steps must be >= 1")
        if self.s not in (+1, -1):
            raise DomainError("parity s must be +1 or -1")
        # final amplitude after `steps` steps is sqrt(steps+1) * alpha
        guard_dim(np.sqrt(self.steps + 1) * self.alpha, self.dim)


@dataclass(frozen=True)
class BreedingTrajectory:
    states: list = field(repr=False)  # DensityMatrix, length steps+1
    success_densities: list  # length steps


def _projection_theta(protocol: str) -> float:
    if protocol == "cat":
        return CAT_PROJECTION_THETA
    if protocol == "gkp":
        return GKP_PROJECTION_THETA
    raise DomainError(f"unknown protocol {protocol!r}")


def breed_step(memory, input_state: FockVector, k: int, protocol: str, window=None):
    """One breeding step: beamsplitter T_k = k/(k+1), then condition the
    output port on the protocol's quadrature, ideally at 0 or over `window`.

    `memory` may be pure or mixed. Returns (normalized survivor
    DensityMatrix, success density or window acceptance probability).
    """
    if k < 1:
        raise DomainError("step index k must be >= 1")
    mem = as_density_matrix(memory)
    out, total = condition_on_quadrature(
        mem.rho, input_state.amp, k / (k + 1), _projection_theta(protocol), *projection_rule(window)
    )
    if total <= 0:
        raise DomainError("zero success density; conditioning annihilated the state")
    return DensityMatrix(mem.dim, out / total), total


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
    breeding. `exact_bred_state` gives the finite-alpha state for both.
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
            amp += comb(k, m) * s**m * coherent_amplitudes(1j * (-k + 2 * m) * alpha / np.sqrt(k), dim)
        return FockVector(dim, amp).normalized()
    raise DomainError(f"unknown protocol {protocol!r}")


def _quadrature_zero_overlap(gamma: complex, theta: float) -> complex:
    """<x_theta = 0|gamma> = pi^{-1/4} exp(-|gamma|^2/2 - gamma^2 e^{2i theta}/2)."""
    return np.pi**-0.25 * np.exp(-abs(gamma) ** 2 / 2 - gamma**2 * np.exp(2j * theta) / 2)


def exact_bred_state(k: int, alpha: float, s: int, protocol: str, dim: int) -> FockVector:
    """Exact state after breeding k input cats of amplitude alpha, at any alpha.

    The state is tracked as a superposition sum_n c_n |i alpha n / sqrt(j)>
    over the integer lattice n after j cats, with no Fock truncation until the
    end. Step j (T = j/(j+1)) maps |i m>|i eps alpha> to
    |i(sqrt(T) m + sqrt(1-T) eps alpha)> |i(-sqrt(1-T) m + sqrt(T) eps alpha)>,
    so n -> n + eps, and the ancilla is projected with the closed-form
    <x_theta = 0|gamma> (theta = pi/2 for cat, 0 for gkp).
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    if s not in (+1, -1):
        raise DomainError("parity s must be +1 or -1")
    theta = _projection_theta(protocol)
    guard_dim(np.sqrt(k) * alpha, dim)
    coeffs = {1: 1.0 + 0j, -1: complex(s)}
    for j in range(1, k):
        nxt: dict[int, complex] = {}
        for n, c in coeffs.items():
            for eps, w in ((1, 1), (-1, s)):
                anc = 1j * alpha * (j * eps - n) / np.sqrt(j * (j + 1))
                nxt[n + eps] = nxt.get(n + eps, 0j) + c * w * _quadrature_zero_overlap(anc, theta)
        coeffs = nxt
    amp = sum(c * coherent_amplitudes(1j * alpha * n / np.sqrt(k), dim) for n, c in coeffs.items())
    return FockVector(dim, amp).normalized()


def gkp_stabilizer_expectation(state, g: float) -> tuple[float, float]:
    """(|<e^{i g x}>|, |<e^{2 pi i p / g}>|) as translation overlaps.

    e^{icp} translates x_theta wavefunctions by c, so <e^{icp}> is the
    integral of rho_theta(u + c/2, u - c/2) over u: c = 2 pi / g at theta = 0
    for the p stabilizer, and c = g at theta = pi/2, where x is the momentum
    conjugate to x_theta, for the x stabilizer.
    """
    if g <= 0:
        raise DomainError("g must be positive")
    rho = as_density_matrix(state)
    return _translation_overlap(rho, g, np.pi / 2), _translation_overlap(rho, 2 * np.pi / g, 0.0)


def _translation_overlap(rho: DensityMatrix, c: float, theta: float) -> float:
    """|int rho_theta(u + c/2, u - c/2) du|; the integrand is a polynomial of
    degree <= 2(dim-1) times e^{-u^2}, so Gauss-Hermite quadrature is exact."""
    u, w = gauss_hermite(2 * (rho.dim - 1))
    psi = hermite_functions(u + c / 2, rho.dim)
    kets = hermite_functions(u - c / 2, rho.dim)
    return float(abs(w @ quadrature_density(rho.rho, theta, psi, kets)))
