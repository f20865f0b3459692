"""Scenario runner: JSON-configured simulations emitting deterministic CSV
payloads plus a manifest with checksums.

Exit codes: 0 ok, 2 config/schema violation, 3 numeric guard violation,
4 I/O failure.  CSV format: '.' decimal, LF line endings, floats printed with
17 significant digits so outputs are byte-identical across platforms.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .breeding import BreedingPlan, run_breeding, theoretical_bred_state
from .errors import ResomemError
from .fock import (
    DEFAULT_DIM,
    cat_state,
    cat_squeezing_for_alpha,
    fidelity,
    fock_basis_state,
    squeezed_single_photon,
    vacuum,
)
from .memory import (
    MemoryHardware,
    entangle_pulse,
    multimode_overlap,
    output_mode_from_schedule,
    read_pulse,
    simulate_network,
    staircase_overlap_oracle,
    standard_wavepacket,
    voltage_gamma,
    write_pulse,
)
from .noise import CoherenceSeries, NoiseParams, evolve_closed_form, fit_T1, fit_Tphi
from .rates import heralding_probability, k_from_rates, success_probability
from .tomo import mle_reconstruct, sample_homodyne
from .wigner import marginal, negative_region_count, wigner_grid

FLOAT_FMT = "%.17g"
ENV_PREFIX = "RESOMEM_"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


class ConfigError(Exception):
    """Scenario configuration violates the schema."""


# ---------------------------------------------------------------------------
# serialization helpers

def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return FLOAT_FMT % float(v)


def write_csv(path: Path, header: list, rows) -> None:
    lines = [",".join(str(h) for h in header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_bytes(("\n".join(lines) + "\n").encode("ascii"))


def write_wigner_csv(path: Path, grid) -> None:
    """Bit-exact Wigner grid format: header row of xs (first cell blank),
    then one row per p value, the p value first."""
    lines = ["," + ",".join(_fmt(x) for x in grid.xs)]
    for i, p in enumerate(grid.ps):
        lines.append(_fmt(p) + "," + ",".join(_fmt(w) for w in grid.w[i]))
    path.write_bytes(("\n".join(lines) + "\n").encode("ascii"))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_manifest(outdir: Path, config: dict, files: list, extra: dict | None = None) -> Path:
    manifest = {
        "config": config,
        "versions": {
            "package": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "files": {f.name: _sha256(f) for f in files},
    }
    if extra:
        manifest["results"] = extra
    path = outdir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


# ---------------------------------------------------------------------------
# config schema

_SCENARIO_KEYS = {
    "pulse": {"kind", "wavepacket", "gamma0", "t0", "Tf", "span", "points", "dt_factor", "seed"},
    "store": {"kind", "T1", "Tphi", "times", "state", "seed"},
    "breed": {"kind", "protocol", "steps", "alpha", "s", "dim", "window", "seed"},
    "wigner": {"kind", "state", "xs", "ps", "seed"},
    "tomo": {"kind", "state", "phases_deg", "n_frames", "dim", "iterations", "seed"},
    "rates": {"kind", "sources", "k_list", "p1", "n_max", "seed"},
    "validate": {"kind", "seed"},
}

_STATE_KEYS = {
    "vacuum": {"type", "dim"},
    "fock": {"type", "n", "dim"},
    "cat": {"type", "alpha", "s", "dim"},
    "squeezed_single_photon": {"type", "r", "alpha", "dim"},
    "bred": {"type", "protocol", "steps", "alpha", "s", "dim"},
}


def validate_config(config: dict) -> dict:
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    kind = config.get("kind")
    if kind not in _SCENARIO_KEYS:
        raise ConfigError(f"unknown scenario kind {kind!r}; expected one of {sorted(_SCENARIO_KEYS)}")
    unknown = set(config) - _SCENARIO_KEYS[kind]
    if unknown:
        raise ConfigError(f"unknown keys for scenario {kind!r}: {sorted(unknown)}")
    if "state" in config:
        state = config["state"]
        if not isinstance(state, dict) or state.get("type") not in _STATE_KEYS:
            raise ConfigError(f"state must declare a type in {sorted(_STATE_KEYS)}")
        bad = set(state) - _STATE_KEYS[state["type"]]
        if bad:
            raise ConfigError(f"unknown state keys: {sorted(bad)}")
    return config


def build_state(spec: dict):
    dim = int(spec.get("dim", DEFAULT_DIM))
    t = spec["type"]
    if t == "vacuum":
        return vacuum(dim)
    if t == "fock":
        return fock_basis_state(int(spec["n"]), dim)
    if t == "cat":
        return cat_state(float(spec["alpha"]), int(spec.get("s", -1)), dim)
    if t == "squeezed_single_photon":
        r = float(spec["r"]) if "r" in spec else cat_squeezing_for_alpha(float(spec["alpha"]))
        return squeezed_single_photon(r, dim)
    if t == "bred":
        plan = BreedingPlan(
            spec["protocol"], int(spec["steps"]), float(spec["alpha"]), int(spec.get("s", -1)), dim
        )
        return run_breeding(plan).states[-1]
    raise ConfigError(f"unknown state type {t!r}")


# ---------------------------------------------------------------------------
# scenarios

def _scenario_pulse(config: dict, outdir: Path) -> dict:
    gamma0 = float(config.get("gamma0", MemoryHardware().gamma0))
    wp = config.get("wavepacket", "exp_rising")
    span = float(config.get("span", 20.0)) / gamma0
    points = int(config.get("points", 200001))
    t0 = config.get("t0")
    t0 = float(t0) / gamma0 if t0 is not None else None
    if wp == "exp_rising":
        grid = np.linspace(-span, 2.0 / gamma0, points)
    elif wp == "time_bin":
        if t0 is None:
            t0 = 1.0 / gamma0
        grid = np.linspace(0.0, t0, points)
    else:
        grid = np.linspace(0.0, span, points)
    mode = standard_wavepacket(wp, gamma0, grid, t0=t0)
    Tf = config.get("Tf")
    if wp == "exp_rising":
        sched = write_pulse(mode)
        Tf_target = 0.0
    elif Tf is not None:
        sched = entangle_pulse(mode, float(Tf))
        Tf_target = float(Tf)
    else:
        sched = read_pulse(mode)
        Tf_target = 0.0
    files = []
    p = outdir / "mode.csv"
    write_csv(p, ["t", "g"], zip(mode.t, mode.g))
    files.append(p)
    p = outdir / "schedule.csv"
    write_csv(p, ["t", "gamma"], zip(sched.t, sched.gamma))
    files.append(p)
    dt = float(config.get("dt_factor", 1e-3)) / gamma0
    net = simulate_network(sched, dt)
    results = {
        "effective_Tf": net.effective_Tf,
        "target_Tf": Tf_target,
        "in_overlap": net.in_overlap,
        "out_overlap": net.out_overlap,
    }
    if net.out_mode is not None:
        p = outdir / "out_mode.csv"
        write_csv(p, ["t", "g"], zip(net.out_mode.t, net.out_mode.g))
        files.append(p)
    return {"files": files, "results": results}


def _scenario_store(config: dict, outdir: Path) -> dict:
    params = NoiseParams(float(config.get("T1", 2.3e-6)), float(config.get("Tphi", 0.96e-6)))
    times = np.asarray(config.get("times", [0, 0.2e-6, 0.4e-6, 0.8e-6, 1.6e-6]), dtype=float)
    state = build_state(config.get("state", {"type": "fock", "n": 1, "dim": 20}))
    rho0 = state.to_density_matrix() if hasattr(state, "amp") else state
    rows = []
    for t in times:
        rho_t = evolve_closed_form(rho0, float(t), params)
        rows.append((t, fidelity(rho0, rho_t), rho_t.rho[1, 1].real))
    p = outdir / "storage_fidelity.csv"
    write_csv(p, ["t", "fidelity", "rho11"], rows)
    return {"files": [p], "results": {"T1": params.T1, "Tphi": params.Tphi}}


def _scenario_breed(config: dict, outdir: Path) -> dict:
    window = config.get("window")
    plan = BreedingPlan(
        config.get("protocol", "cat"),
        int(config.get("steps", 1)),
        float(config.get("alpha", 1.0)),
        int(config.get("s", -1)),
        int(config.get("dim", DEFAULT_DIM)),
        tuple(window) if window is not None else None,
    )
    traj = run_breeding(plan)
    rows = []
    for j, (state, m) in enumerate(zip(traj.states, traj.metrics)):
        target = theoretical_bred_state(j + 1, plan.alpha, plan.s, plan.protocol, plan.dim)
        dens = traj.success_densities[j - 1] if j else 1.0
        rows.append(
            (j, dens, m["parity"], m["mean_photon"], m["stab_x"], m["stab_p"],
             fidelity(target, state))
        )
    p = outdir / "breeding.csv"
    write_csv(
        p,
        ["step", "success_density", "parity", "mean_photon", "stab_x", "stab_p",
         "fidelity_vs_theory"],
        rows,
    )
    return {"files": [p], "results": {"final_fidelity": rows[-1][-1]}}


def _scenario_wigner(config: dict, outdir: Path) -> dict:
    state = build_state(config.get("state", {"type": "cat", "alpha": 1.0, "s": -1, "dim": 40}))
    xs = np.asarray(config["xs"], dtype=float) if "xs" in config else None
    ps = np.asarray(config["ps"], dtype=float) if "ps" in config else None
    grid = wigner_grid(state, xs, ps)
    p = outdir / "wigner.csv"
    write_wigner_csv(p, grid)
    return {
        "files": [p],
        "results": {"negative_regions": negative_region_count(grid), "integral": grid.integral()},
    }


def _scenario_tomo(config: dict, outdir: Path) -> dict:
    state = build_state(config.get("state", {"type": "vacuum", "dim": 20}))
    phases = np.deg2rad(np.asarray(config.get("phases_deg", [0, 30, 60, 90, 120, 150]), float))
    n_frames = int(config.get("n_frames", 20000))
    dim = int(config.get("dim", 20))
    seed = int(config.get("seed", 0))
    data = sample_homodyne(state, phases, n_frames, seed)
    rho = mle_reconstruct(data, dim, int(config.get("iterations", 300)))
    files = []
    p = outdir / "samples.csv"
    write_csv(p, ["theta_deg", "x"], zip(np.rad2deg(data.thetas), data.xs))
    files.append(p)
    p = outdir / "rho.csv"
    write_csv(
        p,
        ["n", "m", "re", "im"],
        ((n, m, rho.rho[n, m].real, rho.rho[n, m].imag) for n in range(dim) for m in range(dim)),
    )
    files.append(p)
    truth = state if state.dim == dim else None
    res = {}
    if truth is not None:
        res["fidelity"] = fidelity(truth, rho)
    return {"files": files, "results": res}


def _scenario_rates(config: dict, outdir: Path) -> dict:
    sources = config.get(
        "sources",
        [
            {"r0": 2e5, "delta": 1.2e8, "r_bs": 10.0},
            {"r0": 4e3, "delta": 3e6, "r_bs": 20.0},
        ],
    )
    rows = []
    for src in sources:
        k = k_from_rates(float(src["r0"]), float(src["delta"]), float(src["r_bs"]))
        p1 = heralding_probability(float(src["r0"]), float(src["delta"]))
        rows.append((src["r0"], src["delta"], src["r_bs"], k, p1))
    files = []
    p = outdir / "k_values.csv"
    write_csv(p, ["r0", "delta", "r_bs", "k_match", "p1"], rows)
    files.append(p)
    k_list = [float(k) for k in config.get("k_list", [0.03, 1.0, 3.8, 10.0, 100.0])]
    p1 = float(config.get("p1", 0.25))
    n_max = int(config.get("n_max", 20))
    table = []
    for k in k_list:
        for n in range(1, n_max + 1):
            pn = success_probability(n, k, p1)
            table.append((n, k, pn))
    p = outdir / "scaling.csv"
    write_csv(p, ["n", "k_match", "p_n"], table)
    files.append(p)
    return {"files": files, "results": {"k_values": [r[3] for r in rows]}}


def _scenario_validate(config: dict, outdir: Path) -> dict:
    """Cheap invariant sweep; raises (exit 3) if anything fails."""
    checks = {}
    checks["multimode_T0_0.3"] = abs(multimode_overlap(0.3) - 0.9974) < 5e-4
    checks["multimode_oracle"] = all(
        abs(multimode_overlap(T0) - staircase_overlap_oracle(T0)) < 1e-10
        for T0 in np.linspace(0.05, 0.9, 10)
    )
    hw = MemoryHardware()
    v = voltage_gamma(hw, hw.gamma0, "inverse")
    checks["gamma_V_roundtrip"] = abs(voltage_gamma(hw, v) - hw.gamma0) < 1e-9 * hw.gamma0
    w = wigner_grid(vacuum(20))
    checks["wigner_vacuum"] = abs(w.w[100, 100] - 1 / np.pi) < 1e-9
    dens = marginal(theoretical_bred_state(2, 1.0, -1, "gkp", 40), np.pi / 2, np.linspace(-5, 5, 501))
    checks["gkp_three_peaks"] = abs(np.trapezoid(dens, np.linspace(-5, 5, 501)) - 1) < 1e-4
    p = outdir / "validation.csv"
    write_csv(p, ["check", "passed"], ((k, int(v)) for k, v in checks.items()))
    if not all(checks.values()):
        raise ResomemError(f"validation failed: {[k for k, v in checks.items() if not v]}")
    return {"files": [p], "results": {k: bool(v) for k, v in checks.items()}}


_SCENARIOS = {
    "pulse": _scenario_pulse,
    "store": _scenario_store,
    "breed": _scenario_breed,
    "wigner": _scenario_wigner,
    "tomo": _scenario_tomo,
    "rates": _scenario_rates,
    "validate": _scenario_validate,
}


def run_scenario(config: dict, outdir: str | Path) -> Path:
    """Execute one scenario; returns the manifest path."""
    config = validate_config(config)
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    out = _SCENARIOS[config["kind"]](config, outdir)
    return write_manifest(outdir, config, out["files"], out.get("results"))


# ---------------------------------------------------------------------------
# figure data

def emit_figure_data(kind: str, outdir: str | Path, params: dict | None = None) -> Path:
    """Emit the CSVs underlying one figure panel family."""
    params = dict(params or {})
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    if kind == "fig3e":
        return _fig_decay(outdir, params)
    if kind == "fig4d":
        return _fig_wigner_panels(outdir, params)
    if kind == "edfig_rates":
        return run_scenario({"kind": "rates", **params}, outdir)
    if kind == "edfig_fidelity":
        return run_scenario({"kind": "store", **params}, outdir)
    raise ConfigError(f"unknown figure kind {kind!r}")


def _fig_decay(outdir: Path, params: dict) -> Path:
    """Energy-relaxation and coherence decay curves with fitted T1, Tphi."""
    T1 = float(params.get("T1", 2.3e-6))
    Tphi = float(params.get("Tphi", 0.96e-6))
    times = np.linspace(0, 2e-6, 11)
    noise = NoiseParams(T1, Tphi)
    one = fock_basis_state(1, 12).to_density_matrix()
    from .fock import squeezed_vacuum

    sq = squeezed_vacuum(0.5, 20).to_density_matrix()
    rho11 = np.array([evolve_closed_form(one, float(t), noise).rho[1, 1].real for t in times])
    rhos = [evolve_closed_form(sq, float(t), noise) for t in times]
    from .noise import normalized_coherence

    R = np.array([normalized_coherence(r) for r in rhos])
    files = []
    p = outdir / "relaxation.csv"
    write_csv(p, ["t", "rho11"], zip(times, rho11))
    files.append(p)
    p = outdir / "coherence.csv"
    write_csv(p, ["t", "R"], zip(times, R))
    files.append(p)
    fits = {
        "fit_T1": fit_T1(CoherenceSeries(times, rho11)),
        "fit_Tphi": fit_Tphi(rhos, times),
    }
    return write_manifest(outdir, {"figure": "fig3e", **params}, files, fits)


def _fig_wigner_panels(outdir: Path, params: dict) -> Path:
    """Input / bred / bred-after-storage Wigner grids per protocol."""
    alpha = float(params.get("alpha", 1.0))
    dim = int(params.get("dim", 40))
    t2 = float(params.get("t2", 40e-9))
    noise = NoiseParams(float(params.get("T1", 2.3e-6)), float(params.get("Tphi", 0.96e-6)))
    files = []
    for protocol in ("cat", "gkp"):
        inp = cat_state(alpha, -1, dim)
        traj = run_breeding(BreedingPlan(protocol, 1, alpha, -1, dim))
        bred = traj.states[-1]
        stored = evolve_closed_form(bred, t2, noise)
        for tag, state in (("input", inp), ("bred", bred), ("stored", stored)):
            p = outdir / f"{protocol}_{tag}.csv"
            write_wigner_csv(p, wigner_grid(state))
            files.append(p)
    return write_manifest(outdir, {"figure": "fig4d", **params}, files)


# ---------------------------------------------------------------------------
# entry point

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="resomem", description=__doc__)
    parser.add_argument("--config", type=Path, help="scenario config JSON")
    parser.add_argument("--figure", help="emit figure data: fig3e|fig4d|edfig_rates|edfig_fidelity")
    parser.add_argument("--out", type=Path, default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    args = parser.parse_args(argv)

    out = args.out or os.environ.get(ENV_PREFIX + "OUT")
    seed = args.seed if args.seed is not None else os.environ.get(ENV_PREFIX + "SEED")
    try:
        if args.config is None and args.figure is None:
            raise ConfigError("one of --config or --figure is required")
        if out is None:
            raise ConfigError("--out (or RESOMEM_OUT) is required")
        if args.figure is not None:
            emit_figure_data(args.figure, out)
        else:
            config = json.loads(Path(args.config).read_text())
            if seed is not None:
                config["seed"] = int(seed)
            run_scenario(config, out)
    except (ConfigError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ResomemError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
