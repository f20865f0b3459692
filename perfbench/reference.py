"""Reference values for the benchmark's checks, derived with numpy alone.

Nothing here imports resomem. Conventions are the program's: hbar = 1,
x = (a + a^dag)/sqrt(2), and the quadrature bra at phase theta has Fock
components <x_theta = x|n> = e^{i n theta} psi_n(x).

Breeding. Every state the ideal breeding protocols make from imaginary-axis
cats is a finite superposition sum_b d_b |gamma_b> of coherent states. A
beamsplitter of transmittance T maps |g>|h> to
|sqrt(T) g + sqrt(1-T) h> |-sqrt(1-T) g + sqrt(T) h>, and the ancilla
projection is the closed form

    <x_theta = x|gamma> = pi^{-1/4} exp(-x^2/2 + sqrt(2) g' x - g'^2/2 - |gamma|^2/2),
    g' = gamma e^{i theta},

so the bred state stays such a superposition and every expectation value is a
Gram sum over pairs of terms, with no Fock truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

CAT_THETA = math.pi / 2  # the cat protocol conditions on p = 0
GKP_THETA = 0.0  # the GKP protocol conditions on x = 0
STABILIZER_G = 2.46


# ---------------------------------------------------------------------------
# coherent-state superpositions

@dataclass(frozen=True)
class Superposition:
    """Unnormalized state sum_b coeffs[b] |amps[b]>."""

    coeffs: np.ndarray
    amps: np.ndarray

    def gram(self, other: "Superposition | None" = None, shift: complex = 0.0) -> np.ndarray:
        """Matrix <self_b| other_c + shift> of coherent-state overlaps."""
        other = self if other is None else other
        a = self.amps[:, None]
        b = other.amps[None, :] + shift
        return np.exp(-np.abs(a) ** 2 / 2 - np.abs(b) ** 2 / 2 + np.conj(a) * b)

    def _sandwich(self, kernel: np.ndarray) -> complex:
        return complex(np.conj(self.coeffs) @ kernel @ self.coeffs)

    def norm2(self) -> float:
        return self._sandwich(self.gram()).real

    def normalized(self) -> "Superposition":
        return Superposition(self.coeffs / math.sqrt(self.norm2()), self.amps)

    def parity(self) -> float:
        """<(-1)^n>: the parity operator maps |gamma> to |-gamma>."""
        mirror = Superposition(self.coeffs, -self.amps)
        return self._sandwich(self.gram(mirror)).real / self.norm2()

    def mean_photon(self) -> float:
        kernel = np.conj(self.amps)[:, None] * self.amps[None, :] * self.gram()
        return self._sandwich(kernel).real / self.norm2()

    def displacement(self, delta: complex) -> complex:
        """<D(delta)>, with D(delta)|g> = e^{(delta g* - delta* g)/2} |g + delta>."""
        phase = np.exp((delta * np.conj(self.amps) - np.conj(delta) * self.amps) / 2)
        kernel = self.gram(shift=delta) * phase[None, :]
        return self._sandwich(kernel) / self.norm2()

    def stabilizers(self, g: float = STABILIZER_G) -> tuple[float, float]:
        """(|<e^{i g x}>|, |<e^{2 pi i p / g}>|) = (|<D(i g/sqrt2)>|, |<D(-sqrt2 pi/g)>|)."""
        return (
            abs(self.displacement(1j * g / math.sqrt(2))),
            abs(self.displacement(-math.sqrt(2) * math.pi / g)),
        )

    def fidelity(self, other: "Superposition") -> float:
        overlap = complex(np.conj(self.coeffs) @ self.gram(other) @ other.coeffs)
        return abs(overlap) ** 2 / (self.norm2() * other.norm2())


def cat(alpha: float, s: int) -> Superposition:
    """|i alpha> + s |-i alpha>, normalized."""
    return Superposition(np.array([1.0, s], complex), np.array([1j * alpha, -1j * alpha])).normalized()


def closed_form_target(k: int, alpha: float, s: int, protocol: str) -> Superposition:
    """The paper's closed form after breeding k cats: for the cat protocol
    |i sqrt(k) alpha> + s^k |-i sqrt(k) alpha>; for GKP
    sum_m binom(k, m) s^m |i (2m - k) alpha / sqrt(k)>."""
    if protocol == "cat":
        amps = np.array([1j, -1j]) * math.sqrt(k) * alpha
        return Superposition(np.array([1.0, s**k], complex), amps).normalized()
    m = np.arange(k + 1)
    coeffs = np.array([math.comb(k, int(j)) * s**j for j in m], complex)
    return Superposition(coeffs, 1j * (2 * m - k) * alpha / math.sqrt(k)).normalized()


def quadrature_overlap(x, gamma, theta: float):
    """<x_theta = x|gamma>, broadcasting over x and gamma."""
    g = gamma * np.exp(1j * theta)
    return math.pi**-0.25 * np.exp(-x * x / 2 + math.sqrt(2) * g * x - g * g / 2 - np.abs(gamma) ** 2 / 2)


def _projection_theta(protocol: str) -> float:
    return CAT_THETA if protocol == "cat" else GKP_THETA


def _mix(memory: Superposition, alpha: float, s: int, k: int):
    """Terms of the two-mode state after step k: (coeffs, memory amps,
    ancilla amps), the memory and the input cat both normalized."""
    T = k / (k + 1)
    inp = cat(alpha, s)
    c = (memory.coeffs[:, None] * inp.coeffs[None, :]).ravel()
    g = memory.amps[:, None]
    h = inp.amps[None, :]
    out_a = (math.sqrt(T) * g + math.sqrt(1 - T) * h).ravel()
    out_b = (-math.sqrt(1 - T) * g + math.sqrt(T) * h).ravel()
    return c, out_a, out_b


def breed_step(memory: Superposition, alpha: float, s: int, k: int, protocol: str):
    """Step k with the ideal value-0 projection: (normalized survivor,
    success density)."""
    c, out_a, out_b = _mix(memory.normalized(), alpha, s, k)
    surv = Superposition(c * quadrature_overlap(0.0, out_b, _projection_theta(protocol)), out_a)
    density = surv.norm2()
    return surv.normalized(), density


def breeding_rows(protocol: str, steps: int, alpha: float, s: int, g: float = STABILIZER_G):
    """The rows of the CLI's breeding.csv for the ideal projection:
    (step, success_density, parity, mean_photon, stab_x, stab_p,
    fidelity_vs_theory), where row j compares with the closed form of j+1 cats."""
    state = cat(alpha, s)
    density = 1.0
    rows = []
    for j in range(steps + 1):
        if j:
            state, density = breed_step(state, alpha, s, j, protocol)
        sx, sp = state.stabilizers(g)
        target = closed_form_target(j + 1, alpha, s, protocol)
        rows.append((j, density, state.parity(), state.mean_photon(), sx, sp, target.fidelity(state)))
    return np.array(rows, dtype=float)


def window_acceptance(alpha: float, s: int, protocol: str, lo: float, hi: float, nodes: int = 64) -> float:
    """Probability that the first breeding step (input cat on input cat,
    T = 1/2) gives an ancilla quadrature outcome in [lo, hi]: the integral
    over x of || sum_b c_b <x|B_b> |A_b> ||^2 by Gauss-Legendre quadrature,
    exact to rounding for this smooth integrand."""
    c, out_a, out_b = _mix(cat(alpha, s), alpha, s, 1)
    t, w = np.polynomial.legendre.leggauss(nodes)
    xs = (hi - lo) / 2 * t + (hi + lo) / 2
    weights = (hi - lo) / 2 * w
    gram_a = Superposition(c, out_a).gram()
    total = 0.0
    for x, wx in zip(xs, weights):
        amp = c * quadrature_overlap(x, out_b, _projection_theta(protocol))
        total += wx * complex(np.conj(amp) @ gram_a @ amp).real
    return total


# ---------------------------------------------------------------------------
# Fock amplitudes from closed forms

def _log_factorial(n: np.ndarray) -> np.ndarray:
    return np.array([math.lgamma(int(k) + 1) for k in n])


def fock_coherent(gamma: complex, dim: int) -> np.ndarray:
    """<n|gamma> = e^{-|gamma|^2/2} gamma^n / sqrt(n!)."""
    n = np.arange(dim)
    mag = np.exp(n * math.log(abs(gamma)) - 0.5 * _log_factorial(n) - abs(gamma) ** 2 / 2)
    return mag * np.exp(1j * n * np.angle(gamma))


def fock_cat(alpha: float, s: int, dim: int) -> np.ndarray:
    """Truncated, renormalized |i alpha> + s |-i alpha>."""
    amp = fock_coherent(1j * alpha, dim) + s * fock_coherent(-1j * alpha, dim)
    return amp / np.linalg.norm(amp)


def fock_number(n: int, dim: int) -> np.ndarray:
    amp = np.zeros(dim, complex)
    amp[n] = 1.0
    return amp


def squeezing_for_cat(alpha: float) -> float:
    """r for which S(r)|1> best matches the odd cat of amplitude alpha:
    cosh^2 r = 1/2 + sqrt(9 + 4 alpha^2)/6."""
    return math.acosh(math.sqrt(0.5 + math.sqrt(9.0 + 4.0 * alpha**2) / 6.0))


def fock_squeezed_single_photon(r: float, dim: int) -> np.ndarray:
    """Truncated, renormalized S(r)|1> with S(r) = exp[(r/2)(a^2 - a^dag^2)]:
    <2m+1|S(r)|1> = (-tanh r)^m sqrt((2m+1)!) / (2^m m!) / cosh^{3/2} r."""
    amp = np.zeros(dim, complex)
    m = np.arange((dim - 2) // 2 + 1)
    log_c = (
        0.5 * _log_factorial(2 * m + 1)
        - m * math.log(2.0)
        - _log_factorial(m)
        + m * math.log(math.tanh(r))
        - 1.5 * math.log(math.cosh(r))
    )
    amp[2 * m + 1] = np.exp(log_c) * (-1.0) ** m
    return amp / np.linalg.norm(amp)


def quadrature_moments(amp: np.ndarray, theta: float) -> dict:
    """<x_theta^q> for q = 1..4 of the pure state amp, with x_theta =
    (a e^{i theta} + a^dag e^{-i theta})/sqrt(2), the operator whose
    eigenbras the program projects on. The state is padded so that no power
    is truncated."""
    dim = len(amp) + 4
    psi = np.zeros(dim, complex)
    psi[: len(amp)] = amp
    a = np.diag(np.sqrt(np.arange(1, dim)), 1)
    x = (a * np.exp(1j * theta) + a.T * np.exp(-1j * theta)) / math.sqrt(2)
    return {q: np.vdot(psi, np.linalg.matrix_power(x, q) @ psi).real for q in range(1, 5)}
