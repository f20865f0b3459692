"""Coherent dyads: the tests' one oracle for coherent-state algebra.

rho = sum_bc C_bc |beta_b><beta_c| on shared coherent amplitudes is held as a factor F, C = F F^dag,
so a superposition sum_b c_b |beta_b> is one column. As in `resomem.gates`, x = (a + a^dag)/sqrt2
and <x_theta = x| = <x| e^{i theta n}, so <x_theta = x|gamma> = <x|u> with u = gamma e^{i theta}, and
    <a|b> = exp(-|a|^2/2 - |b|^2/2 + a* b),  <a|D(d)|b> = <a|b> exp(-|d|^2/2 + a* d - d* b),
    <x|u> = pi^{-1/4} exp(-x^2/2 + sqrt2 u x - u^2/2 - |u|^2/2).
Only `fock` cuts to a Fock dim. Numpy is the one module-level import; a window imports scipy's `erf`.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Dyads:
    """rho = sum_bc (F F^dag)_bc |amps[b]><amps[c]|, unnormalized."""

    amps: np.ndarray  # (n,)
    factor: np.ndarray  # F, (n, rank)

    @classmethod
    def superposition(cls, coeffs, amps) -> "Dyads":
        return cls(np.asarray(amps, dtype=complex), np.asarray(coeffs, dtype=complex).reshape(-1, 1))

    def trace(self) -> float:
        return self._weighted_trace(0.0).real

    def displacement(self, d: complex) -> complex:
        """<D(d)> of the normalized state."""
        return self._weighted_trace(d) / self.trace()

    def _weighted_trace(self, d: complex) -> complex:
        """tr(rho D(d)) = sum_bc C_bc <beta_c|D(d)|beta_b>."""
        c, b = np.conj(self.amps)[:, None], self.amps[None, :]
        kernel = np.exp(-abs(c) ** 2 / 2 - abs(b) ** 2 / 2 + c * b - abs(d) ** 2 / 2 + c * d - np.conj(d) * b)
        return complex(np.sum(np.conj(self.factor) * (kernel @ self.factor)))

    def step(self, ancilla: "Dyads", T: float, theta: float, window=None) -> "Dyads":
        """Mix with `ancilla` on transmittance T, |b>|g> -> |sqrt(T) b + sqrt(1-T) g>|sqrt(T) g - sqrt(1-T) b>,
        and condition the ancilla on x_theta = 0, or on x_theta in window = (lo, hi). The trace becomes the
        success density (acceptance) times the inputs' traces. A window weights C_bc by
            int_lo^hi <x|u_b> <x|u_c>* dx = e^{s^2/4 + e} [erf(hi - s/2) - erf(lo - s/2)] / 2,
            s = sqrt2 (u_b + u_c*), e = -(u_b^2 + u_c*^2 + |u_b|^2 + |u_c|^2)/2,
        and the weighted C is factored again by `eigh`."""
        t, r = np.sqrt(T), np.sqrt(1.0 - T)
        b, g = self.amps[:, None], ancilla.amps[None, :]
        mu, u = (t * b + r * g).ravel(), ((t * g - r * b) * np.exp(1j * theta)).ravel()
        factor = np.einsum("bi,gj->bgij", self.factor, ancilla.factor).reshape(len(mu), -1)
        if window is None:
            return Dyads(mu, np.pi**-0.25 * np.exp(-(u**2) / 2 - abs(u) ** 2 / 2)[:, None] * factor)
        from scipy.special import erf

        ub, uc = u[:, None], np.conj(u)[None, :]
        s, e = np.sqrt(2.0) * (ub + uc), -(ub**2 + uc**2 + abs(ub) ** 2 + abs(uc) ** 2) / 2
        weight = 0.5 * np.exp(s * s / 4 + e) * (erf(window[1] - s / 2) - erf(window[0] - s / 2))
        w, v = np.linalg.eigh((factor @ factor.conj().T) * weight)
        return Dyads(mu, v * np.sqrt(np.clip(w, 0.0, None)))

    def fock(self, dim: int) -> np.ndarray:
        """Columns sum_b F_bk <n|beta_b>, n < dim: rho cut to dim is cols @ cols^dag."""
        ratios = np.vstack([np.ones_like(self.amps), self.amps / np.sqrt(np.arange(1, dim))[:, None]])
        return np.exp(-abs(self.amps) ** 2 / 2) * np.cumprod(ratios, axis=0) @ self.factor
