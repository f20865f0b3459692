"""Scenario runner: JSON-configured simulations emitting deterministic CSV
payloads plus a manifest with checksums.

Each scenario and figure builder only computes: it returns its tables (file
name -> columns, or a Wigner grid) and its results, and `_write_outputs` is
the one place that writes them, then the manifest.

Exit codes: 0 ok, 2 config/schema violation, 3 numeric guard violation,
4 I/O failure.  CSV format: '.' decimal, LF line endings and a trailing
newline; str values printed as is, numbers with 17 significant digits
(FLOAT_FMT), so outputs are byte-identical across platforms.
"""

from __future__ import annotations

import argparse
import hashlib
import json
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
    read_pulse,
    simulate_network,
    staircase_overlap_oracle,
    standard_wavepacket,
    voltage_gamma,
    write_pulse,
)
from .noise import CoherenceSeries, NoiseParams, evolve_closed_form, fit_T1, fit_Tphi
from .rates import heralding_probability, k_from_rates, success_probability
from .tomo import MLE_MAX_DIM, MLE_MIN_FRAMES, mle_reconstruct, sample_homodyne
from .wigner import WignerGrid, marginal, negative_region_count, wigner_grid

FLOAT_FMT = "%.17g"
# rows formatted and written per file write; bounds the memory a long table
# takes while it is written
_BLOCK_ROWS = 4096

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


class ConfigError(Exception):
    """Scenario configuration violates the schema."""


# ---------------------------------------------------------------------------
# serialization helpers

def _write_rows(path: Path, head: str, columns) -> None:
    """Write the line `head`, then one CSV row per index of the equal-length
    `columns`: a str column printed as is, any other with FLOAT_FMT (which
    prints integers up to 2**53 as str() does)."""
    columns = [np.asarray(c) for c in columns]
    line = ",".join("%s" if c.dtype.kind == "U" else FLOAT_FMT for c in columns) + "\n"
    with open(path, "w", encoding="ascii", newline="\n") as f:
        f.write(head + "\n")
        for i in range(0, len(columns[0]), _BLOCK_ROWS):
            rows = zip(*(c[i:i + _BLOCK_ROWS].tolist() for c in columns))
            f.write("".join([line % row for row in rows]))


def write_csv(path: Path, header: list, columns) -> None:
    _write_rows(path, ",".join(str(h) for h in header), columns)


def write_wigner_csv(path: Path, grid) -> None:
    """Bit-exact Wigner grid format: header row of xs (first cell blank),
    then one row per p value, the p value first."""
    xs = grid.xs.tolist()
    _write_rows(path, "," + ",".join([FLOAT_FMT] * len(xs)) % tuple(xs), [grid.ps, *grid.w.T])


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


def _write_outputs(outdir: Path, config: dict, tables: dict, results: dict) -> Path:
    """Write each table (a Wigner grid, or column name -> column) to
    outdir/<file name>, then the manifest; returns the manifest path."""
    outdir.mkdir(parents=True, exist_ok=True)
    files = []
    for name, table in tables.items():
        path = outdir / name
        if isinstance(table, WignerGrid):
            write_wigner_csv(path, table)
        else:
            write_csv(path, list(table), list(table.values()))
        files.append(path)
    return write_manifest(outdir, config, files, results)


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
    if kind in _KIND_CHECKS:
        _KIND_CHECKS[kind](config)
    return config


def _is_number(value) -> bool:
    """A JSON number that converts to a finite float (not NaN, inf or a bool)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


# integer tomo keys and their (lowest, highest) values; mle_reconstruct and
# sample_homodyne keep their own guards
_TOMO_INTS = {
    "n_frames": (MLE_MIN_FRAMES, None),
    "dim": (2, MLE_MAX_DIM),
    "iterations": (1, None),
    "seed": (0, None),
}


def _check_tomo(config: dict) -> None:
    for key, (lo, hi) in _TOMO_INTS.items():
        if key not in config:
            continue
        value = config[key]
        if not isinstance(value, int) or isinstance(value, bool) or value < lo or (hi is not None and value > hi):
            bounds = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
            raise ConfigError(f"tomo {key} must be an integer {bounds}, got {value!r}")
    phases = config.get("phases_deg", [0.0])
    if not isinstance(phases, list) or not phases or not all(map(_is_number, phases)):
        raise ConfigError(f"tomo phases_deg must be a nonempty list of finite numbers, got {phases!r}")


def _check_rates(config: dict) -> None:
    sources = config.get("sources", [])
    if not isinstance(sources, list):
        raise ConfigError(f"rates sources must be a list, got {sources!r}")
    for src in sources:
        if not isinstance(src, dict) or not all(_is_number(src.get(key)) for key in ("r0", "delta", "r_bs")):
            raise ConfigError(f"each rates source needs numeric r0, delta and r_bs, got {src!r}")


_KIND_CHECKS = {"tomo": _check_tomo, "rates": _check_rates}


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

def _scenario_pulse(config: dict) -> tuple[dict, dict]:
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
    tables = {
        "mode.csv": {"t": mode.t, "g": mode.g},
        "schedule.csv": {"t": sched.t, "gamma": sched.gamma},
    }
    dt = float(config.get("dt_factor", 1e-3)) / gamma0
    net = simulate_network(sched, dt)
    results = {
        "effective_Tf": net.effective_Tf,
        "target_Tf": Tf_target,
        "in_overlap": net.in_overlap,
        "out_overlap": net.out_overlap,
    }
    if net.out_mode is not None:
        tables["out_mode.csv"] = {"t": net.out_mode.t, "g": net.out_mode.g}
    return tables, results


def _scenario_store(config: dict) -> tuple[dict, dict]:
    params = NoiseParams(float(config.get("T1", 2.3e-6)), float(config.get("Tphi", 0.96e-6)))
    times = np.asarray(config.get("times", [0, 0.2e-6, 0.4e-6, 0.8e-6, 1.6e-6]), dtype=float)
    state = build_state(config.get("state", {"type": "fock", "n": 1, "dim": 20}))
    rho0 = state.to_density_matrix() if hasattr(state, "amp") else state
    rhos = [evolve_closed_form(rho0, float(t), params) for t in times]
    table = {
        "t": times,
        "fidelity": [fidelity(rho0, rho_t) for rho_t in rhos],
        "rho11": [rho_t.rho[1, 1].real for rho_t in rhos],
    }
    return {"storage_fidelity.csv": table}, {"T1": params.T1, "Tphi": params.Tphi}


def _scenario_breed(config: dict) -> tuple[dict, dict]:
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
    table = {"step": list(range(len(traj.states))), "success_density": [1.0, *traj.success_densities]}
    for key in ("parity", "mean_photon", "stab_x", "stab_p"):
        table[key] = [m[key] for m in traj.metrics]
    table["fidelity_vs_theory"] = [
        fidelity(theoretical_bred_state(j + 1, plan.alpha, plan.s, plan.protocol, plan.dim), state)
        for j, state in enumerate(traj.states)
    ]
    return {"breeding.csv": table}, {"final_fidelity": table["fidelity_vs_theory"][-1]}


def _scenario_wigner(config: dict) -> tuple[dict, dict]:
    state = build_state(config.get("state", {"type": "cat", "alpha": 1.0, "s": -1, "dim": 40}))
    xs = np.asarray(config["xs"], dtype=float) if "xs" in config else None
    ps = np.asarray(config["ps"], dtype=float) if "ps" in config else None
    grid = wigner_grid(state, xs, ps)
    results = {"negative_regions": negative_region_count(grid), "integral": grid.integral()}
    return {"wigner.csv": grid}, results


def _scenario_tomo(config: dict) -> tuple[dict, dict]:
    state = build_state(config.get("state", {"type": "vacuum", "dim": 20}))
    phases = np.deg2rad(np.asarray(config.get("phases_deg", [0, 30, 60, 90, 120, 150]), float))
    n_frames = int(config.get("n_frames", 20000))
    dim = int(config.get("dim", 20))
    seed = int(config.get("seed", 0))
    data = sample_homodyne(state, phases, n_frames, seed)
    rho = mle_reconstruct(data, dim, int(config.get("iterations", 300)))
    n, m = np.divmod(np.arange(dim * dim), dim)
    tables = {
        "samples.csv": {"theta_deg": np.rad2deg(data.thetas), "x": data.xs},
        "rho.csv": {"n": n, "m": m, "re": rho.rho.real.ravel(), "im": rho.rho.imag.ravel()},
    }
    res = {"fidelity": fidelity(state, rho)} if state.dim == dim else {}
    return tables, res


def _scenario_rates(config: dict) -> tuple[dict, dict]:
    sources = config.get(
        "sources",
        [
            {"r0": 2e5, "delta": 1.2e8, "r_bs": 10.0},
            {"r0": 4e3, "delta": 3e6, "r_bs": 20.0},
        ],
    )
    k_values = {key: [src[key] for src in sources] for key in ("r0", "delta", "r_bs")}
    k_values["k_match"] = [
        k_from_rates(float(src["r0"]), float(src["delta"]), float(src["r_bs"])) for src in sources
    ]
    k_values["p1"] = [heralding_probability(float(src["r0"]), float(src["delta"])) for src in sources]
    k_list = [float(k) for k in config.get("k_list", [0.03, 1.0, 3.8, 10.0, 100.0])]
    p1 = float(config.get("p1", 0.25))
    ns = range(1, int(config.get("n_max", 20)) + 1)
    scaling = {
        "n": [n for _ in k_list for n in ns],
        "k_match": [k for k in k_list for _ in ns],
        "p_n": [success_probability(n, k, p1) for k in k_list for n in ns],
    }
    return {"k_values.csv": k_values, "scaling.csv": scaling}, {"k_values": k_values["k_match"]}


def _scenario_validate(config: dict) -> tuple[dict, dict]:
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
    if not all(checks.values()):
        raise ResomemError(f"validation failed: {[k for k, v in checks.items() if not v]}")
    table = {"check": list(checks), "passed": [int(v) for v in checks.values()]}
    return {"validation.csv": table}, {k: bool(v) for k, v in checks.items()}


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
    tables, results = _SCENARIOS[config["kind"]](config)
    return _write_outputs(Path(outdir), config, tables, results)


# ---------------------------------------------------------------------------
# figure data

def emit_figure_data(kind: str, outdir: str | Path, params: dict | None = None) -> Path:
    """Emit the CSVs underlying one figure panel family."""
    params = dict(params or {})
    if kind == "edfig_rates":
        return run_scenario({"kind": "rates", **params}, outdir)
    if kind == "edfig_fidelity":
        return run_scenario({"kind": "store", **params}, outdir)
    if kind not in _FIGURES:
        raise ConfigError(f"unknown figure kind {kind!r}")
    tables, results = _FIGURES[kind](params)
    return _write_outputs(Path(outdir), {"figure": kind, **params}, tables, results)


def _fig_decay(params: dict) -> tuple[dict, dict]:
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
    tables = {
        "relaxation.csv": {"t": times, "rho11": rho11},
        "coherence.csv": {"t": times, "R": R},
    }
    fits = {
        "fit_T1": fit_T1(CoherenceSeries(times, rho11)),
        "fit_Tphi": fit_Tphi(rhos, times),
    }
    return tables, fits


def _fig_wigner_panels(params: dict) -> tuple[dict, dict]:
    """Input / bred / bred-after-storage Wigner grids per protocol."""
    alpha = float(params.get("alpha", 1.0))
    dim = int(params.get("dim", 40))
    t2 = float(params.get("t2", 40e-9))
    noise = NoiseParams(float(params.get("T1", 2.3e-6)), float(params.get("Tphi", 0.96e-6)))
    tables = {}
    for protocol in ("cat", "gkp"):
        inp = cat_state(alpha, -1, dim)
        traj = run_breeding(BreedingPlan(protocol, 1, alpha, -1, dim))
        bred = traj.states[-1]
        stored = evolve_closed_form(bred, t2, noise)
        for tag, state in (("input", inp), ("bred", bred), ("stored", stored)):
            tables[f"{protocol}_{tag}.csv"] = wigner_grid(state)
    return tables, {}


_FIGURES = {"fig3e": _fig_decay, "fig4d": _fig_wigner_panels}


# ---------------------------------------------------------------------------
# entry point

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="resomem", description=__doc__)
    parser.add_argument("--config", type=Path, help="scenario config JSON")
    parser.add_argument("--figure", help="emit figure data: fig3e|fig4d|edfig_rates|edfig_fidelity")
    parser.add_argument("--out", type=Path, default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    args = parser.parse_args(argv)

    try:
        if args.config is None and args.figure is None:
            raise ConfigError("one of --config or --figure is required")
        if args.out is None:
            raise ConfigError("--out is required")
        if args.figure is not None:
            emit_figure_data(args.figure, args.out)
        else:
            config = validate_config(json.loads(Path(args.config).read_text()))
            if args.seed is not None:
                config["seed"] = args.seed
            run_scenario(config, args.out)
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
