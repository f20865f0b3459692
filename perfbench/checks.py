"""Checks of the CLI's outputs against reference.py and against properties
the method must have. Each check returns a list of failure messages; an
empty list means the output passed. No check compares with a stored copy of
earlier output.
"""

from __future__ import annotations

import json
import math
from collections import deque
from pathlib import Path

import numpy as np

import reference as ref

BREEDING_TOL = 1e-10  # reference and program agree to ~1e-15 at dim 80
# window_condition integrates by the trapezoid rule at step 1e-3; its error
# on a +-0.1 window is below 1e-6 relative
WINDOW_REL_TOL = 1e-5
PULSE_TF_TOL = 1e-3
PULSE_MIN_OVERLAP = 0.999
GAMMA_REL_TOL = 1e-6
TOMO_MIN_FIDELITY = 0.98
MOMENT_SIGMAS = 5.0
WIGNER_INTEGRAL_TOL = 1e-3
WIGNER_ORIGIN_TOL = 1e-9
NEGATIVE_THRESHOLD = -1e-3  # the program's own definition of a negative region


def load_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def manifest_results(outdir: Path) -> dict:
    return json.loads((Path(outdir) / "manifest.json").read_text()).get("results", {})


# ---------------------------------------------------------------------------
# breeding

def check_breeding(path: Path, protocol: str, steps: int, alpha: float, s: int) -> list:
    """Ideal-projection breeding.csv: every column against the coherent-state
    reference, and parity s^(j+1) after j steps."""
    got = load_csv(path)
    want = ref.breeding_rows(protocol, steps, alpha, s)
    if got.shape != want.shape:
        return [f"{path}: shape {got.shape}, expected {want.shape}"]
    out = []
    columns = ["step", "success_density", "parity", "mean_photon", "stab_x", "stab_p", "fidelity_vs_theory"]
    for c, name in enumerate(columns):
        err = np.max(np.abs(got[:, c] - want[:, c]))
        if not err <= BREEDING_TOL:
            out.append(f"{path}: {name} differs from the reference by {err:.3g}")
    parity = np.array([float(s) ** (j + 1) for j in range(steps + 1)])
    err = np.max(np.abs(got[:, 2] - parity))
    if not err <= BREEDING_TOL:
        out.append(f"{path}: parity differs from s^(j+1) by {err:.3g}")
    return out


def check_windowed_breeding(path: Path, protocol: str, alpha: float, s: int, window) -> list:
    """Windowed breeding.csv: the input row against the reference, and the
    first step's acceptance against the window integral."""
    got = load_csv(path)
    out = []
    err = np.max(np.abs(got[0] - ref.breeding_rows(protocol, 0, alpha, s)[0]))
    if not err <= BREEDING_TOL:
        out.append(f"{path}: input row differs from the reference by {err:.3g}")
    want = ref.window_acceptance(alpha, s, protocol, *window)
    rel = abs(got[1, 1] / want - 1)
    if not rel <= WINDOW_REL_TOL:
        out.append(f"{path}: first-step acceptance {got[1, 1]:.12g} vs window integral {want:.12g}")
    return out


# ---------------------------------------------------------------------------
# tomography

def check_tomo(outdir: Path, amp: np.ndarray, phases_deg) -> list:
    """rho.csv is a density matrix close to the sampled state; samples.csv
    has the state's quadrature mean and variance at every phase."""
    outdir = Path(outdir)
    out = []
    dim = len(amp)
    table = load_csv(outdir / "rho.csv")
    if table.shape != (dim * dim, 4):
        return [f"{outdir}/rho.csv: shape {table.shape}, expected ({dim * dim}, 4)"]
    rho = np.zeros((dim, dim), complex)
    rho[table[:, 0].astype(int), table[:, 1].astype(int)] = table[:, 2] + 1j * table[:, 3]
    herm = np.max(np.abs(rho - rho.conj().T))
    if not herm <= 1e-10:
        out.append(f"{outdir}/rho.csv: not Hermitian ({herm:.3g})")
    tr = np.trace(rho).real
    if not abs(tr - 1) <= 1e-9:
        out.append(f"{outdir}/rho.csv: trace {tr!r}")
    low = np.linalg.eigvalsh((rho + rho.conj().T) / 2).min()
    if not low >= -1e-9:
        out.append(f"{outdir}/rho.csv: not positive semidefinite (min eigenvalue {low:.3g})")
    fid = np.vdot(amp, rho @ amp).real
    if not fid >= TOMO_MIN_FIDELITY:
        out.append(f"{outdir}/rho.csv: fidelity {fid:.4f} to the sampled state < {TOMO_MIN_FIDELITY}")

    samples = load_csv(outdir / "samples.csv")
    for deg in phases_deg:
        x = samples[np.abs(samples[:, 0] - deg) < 1e-9, 1]
        if len(x) < 100:
            out.append(f"{outdir}/samples.csv: {len(x)} samples at {deg} deg")
            continue
        m = ref.quadrature_moments(amp, math.radians(deg))
        n = len(x)
        var = m[2] - m[1] ** 2
        mu4 = m[4] - 4 * m[1] * m[3] + 6 * m[1] ** 2 * m[2] - 3 * m[1] ** 4
        se_mean = math.sqrt(var / n)
        se_var = math.sqrt(max(mu4 - var**2, 0.0) / n)  # standard error of the sample variance
        if not abs(x.mean() - m[1]) <= MOMENT_SIGMAS * se_mean:
            out.append(f"{outdir}/samples.csv: mean {x.mean():.5f} at {deg} deg, expected {m[1]:.5f}")
        if not abs(x.var() - var) <= MOMENT_SIGMAS * se_var:
            out.append(f"{outdir}/samples.csv: variance {x.var():.5f} at {deg} deg, expected {var:.5f}")
    return out


# ---------------------------------------------------------------------------
# memory pulses, storage and decay fits

def check_pulse(outdir: Path, wavepacket: str, target_Tf: float, gamma0: float) -> list:
    """Effective transmittance, mode overlaps, and for the exponential
    wavepackets gamma = gamma0 wherever the finite grid does not bend it."""
    outdir = Path(outdir)
    res = manifest_results(outdir)
    out = []
    if not abs(res["effective_Tf"] - target_Tf) <= PULSE_TF_TOL:
        out.append(f"{outdir}: effective Tf {res['effective_Tf']:.6f}, target {target_Tf}")
    for key in ("in_overlap", "out_overlap"):
        if not res[key] >= PULSE_MIN_OVERLAP:
            out.append(f"{outdir}: {key} {res[key]:.6f} < {PULSE_MIN_OVERLAP}")
    if wavepacket in ("exp_rising", "exp_decaying"):
        sched = load_csv(outdir / "schedule.csv")
        t, gam = sched[:, 0], sched[:, 1]
        # the design divides by the weight accumulated on the grid, which
        # differs from the infinite-line weight by e^{-gamma0 * distance to
        # the grid's far end}; keep only points where that is below 1e-8
        if wavepacket == "exp_rising":
            sel = (t <= 0) & (gamma0 * (t - t[0]) > 8 * math.log(10))
        else:
            sel = (t >= 0) & (gamma0 * (t[-1] - t) > 8 * math.log(10))
        if np.count_nonzero(sel) < 100:
            out.append(f"{outdir}/schedule.csv: no support left to check")
        else:
            err = np.max(np.abs(gam[sel] / gamma0 - 1))
            if not err <= GAMMA_REL_TOL:
                out.append(f"{outdir}/schedule.csv: gamma departs from gamma0 by {err:.3g} relative")
    return out


def check_store(outdir: Path, T1: float) -> list:
    """Storing |1>: rho11 = fidelity = e^{-t/T1} (dephasing leaves it alone)."""
    data = load_csv(Path(outdir) / "storage_fidelity.csv")
    want = np.exp(-data[:, 0] / T1)
    out = []
    for c, name in ((1, "fidelity"), (2, "rho11")):
        err = np.max(np.abs(data[:, c] - want))
        if not err <= 1e-12:
            out.append(f"{outdir}/storage_fidelity.csv: {name} differs from e^(-t/T1) by {err:.3g}")
    return out


def check_fig3e(outdir: Path, T1: float, Tphi: float) -> list:
    res = manifest_results(outdir)
    out = []
    if not abs(res["fit_T1"] / T1 - 1) <= 1e-6:
        out.append(f"{outdir}: fitted T1 {res['fit_T1']!r}, expected {T1!r}")
    if not abs(res["fit_Tphi"] / Tphi - 1) <= 0.01:
        out.append(f"{outdir}: fitted Tphi {res['fit_Tphi']!r}, expected {Tphi!r} within 1%")
    return out


# ---------------------------------------------------------------------------
# Wigner grids

def load_wigner(path: Path):
    rows = np.loadtxt(path, delimiter=",", ndmin=2, converters={0: lambda v: float(v or "nan")})
    return rows[0, 1:], rows[1:, 0], rows[1:, 1:]


def count_regions(mask: np.ndarray) -> int:
    """Number of 4-connected regions of True cells."""
    seen = np.zeros_like(mask, dtype=bool)
    regions = 0
    for start in zip(*np.nonzero(mask)):
        if seen[start]:
            continue
        regions += 1
        seen[start] = True
        queue = deque([start])
        while queue:
            i, j = queue.popleft()
            for ni, nj in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
                if 0 <= ni < mask.shape[0] and 0 <= nj < mask.shape[1] and mask[ni, nj] and not seen[ni, nj]:
                    seen[ni, nj] = True
                    queue.append((ni, nj))
    return regions


def check_wigner(path: Path, parity: float | None = None, negative_regions: int | None = None) -> list:
    """Unit integral and |W| <= 1/pi always; W(0,0) = parity/pi and the
    number of negative regions where they are known."""
    xs, ps, w = load_wigner(path)
    out = []
    integral = w.sum() * (xs[1] - xs[0]) * (ps[1] - ps[0])
    if not abs(integral - 1) <= WIGNER_INTEGRAL_TOL:
        out.append(f"{path}: integral {integral:.6f}")
    peak = np.max(np.abs(w))
    if not peak <= 1 / math.pi * (1 + 1e-12):
        out.append(f"{path}: |W| reaches {peak:.6f} > 1/pi")
    if parity is not None:
        i, j = np.argmin(np.abs(ps)), np.argmin(np.abs(xs))
        if abs(ps[i]) > 1e-12 or abs(xs[j]) > 1e-12:
            out.append(f"{path}: grid has no origin")
        elif not abs(w[i, j] - parity / math.pi) <= WIGNER_ORIGIN_TOL:
            out.append(f"{path}: W(0,0) = {w[i, j]:.9f}, expected parity/pi = {parity / math.pi:.9f}")
    if negative_regions is not None:
        n = count_regions(w < NEGATIVE_THRESHOLD)
        if n != negative_regions:
            out.append(f"{path}: {n} negative regions, expected {negative_regions}")
    return out
