"""Scenario runner: JSON-configured simulations emitting deterministic CSV
payloads plus a manifest with checksums.

Each scenario and figure builder only computes: it returns its tables (file
name -> columns, or a Wigner grid) and its results, and `_write_outputs` is
the one place that writes them, then the manifest.

Exit codes: 0 ok, 2 config/schema violation, 3 numeric guard violation,
4 I/O failure.  CSV format: '.' decimal, LF line endings and a trailing
newline; str values printed as is, numbers with 17 significant digits
(FLOAT_FMT), so outputs are byte-identical across platforms. One vectorized
kernel (`_format_rows`) prints every cell of every CSV, a block of rows at a
time, and equals FLOAT_FMT % x byte for byte: values it cannot decide exactly
are printed by FLOAT_FMT itself. Each writer returns the sha256 of the bytes
it wrote, and the manifest records those digests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from itertools import groupby
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
# serialization: one kernel prints every CSV cell
#
# A number's cell is cut out of one 48-byte field, held as six little-endian
# 64-bit words:
#     sign "0.000" d1 . d2 . ... d16 . d17 e +-hto <3 pad bytes> separator
# A value fills in its sign, its 17 significant digits N (10**16 <= N < 10**17,
# rounded half-even) and its decimal exponent X. A keep-mask picked by its
# layout (zero, fixed with X in [-4, 16], or scientific with a 2- or 3-digit
# exponent; times the digits left once trailing zeros go) zeroes every byte
# its FLOAT_FMT string lacks, and bytes.translate deletes the zeros.
# N = |x| * 10**(16 - X) comes from Dekker's exact product with the
# double-double 10**(16 - X) of a table, so its fraction is known to < 1e-14.
# Where that cannot decide the digits (non-finite x, |x| outside
# [1e-280, 1e280], a fraction within 1e-9 of 1/2, N outside [1e16, 1e17)) the
# cell is FLOAT_FMT % x itself, so every cell equals FLOAT_FMT % x.

_FIELD = 48
_WORD = np.dtype("<u8")
_X_MIN, _X_MAX = -281, 280  # decimal exponents the scale table covers
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split into two 26-bit halves
_ZERO, _SCI2, _SCI3 = 0, 22, 23  # layout classes; X + 5 is fixed notation


def _word(text: bytes) -> int:
    return int.from_bytes(text, "little")


def _cell_tables():
    """Lookup tables of the kernel, from exact integer arithmetic."""
    digits = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    quad = np.full((10000, 8), ord("."), np.uint8)
    quad[:, ::2] = digits + ord("0")
    quad_e = quad.copy()
    quad_e[:, 7] = ord("e")
    # digits of a 4-digit group up to its last nonzero one
    sig = 4 - np.argmax(digits[:, ::-1] != 0, axis=1)
    xs = range(_X_MIN, _X_MAX + 1)
    exponent = np.array([_word(b"%+04d\0\0\0," % x) for x in xs], _WORD)
    cls = np.array([x + 5 if -4 <= x <= 16 else _SCI3 if abs(x) >= 100 else _SCI2 for x in xs])
    scales = []  # 10**(16 - x) = hh + hl + lo: hh, hl 26-bit halves of the double nearest it
    for x in xs:
        num, den = (10 ** (16 - x), 1) if x <= 16 else (1, 10 ** (x - 16))
        hi = num / den  # correctly rounded, as is every int / int
        a, b = hi.as_integer_ratio()
        c = hi * _SPLIT
        hh = c - (c - hi)
        scales.append((hh, hi - hh, (num * b - a * den) / (den * b)))
    masks = np.zeros((24, 18, _FIELD), np.uint8)
    masks[..., [0, _FIELD - 1]] = 0xFF
    masks[_ZERO, :, 1] = 0xFF
    digit = 6 + 2 * np.arange(17)
    for s in range(1, 18):
        for x in range(-4, 17):
            m = masks[x + 5, s]
            if x < 0:
                m[1:2 - x] = 0xFF  # "0." and -x - 1 zeros
                m[digit[:s]] = 0xFF
            else:
                m[digit[:max(s, x + 1)]] = 0xFF
                if s > x + 1:
                    m[digit[x] + 1] = 0xFF
        for c in (_SCI2, _SCI3):
            m = masks[c, s]
            m[digit[:s]] = 0xFF
            m[7] = 0xFF if s > 1 else 0
            m[39:41] = 0xFF
            m[41 + (c == _SCI2):44] = 0xFF
    return (
        quad.view(_WORD).ravel(), quad_e.view(_WORD).ravel(), sig, exponent, cls,
        *np.array(scales).T, masks.reshape(-1, _FIELD).view(_WORD),
    )


_QUAD, _QUAD_E, _SIG, _EXPONENT, _CLASS, _HH, _HL, _LO, _MASKS = _cell_tables()
_SIGN_WORD = _word(b"\0" b"0.000" b"\0.")


def _number_cells(v: np.ndarray) -> np.ndarray:
    """(len(v), _FIELD) bytes: FLOAT_FMT % x of each float64 x in v, NUL-padded,
    then a ',' separator."""
    a = np.abs(v)
    zero = a == 0
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    a = np.where(fast, a, 1.0)
    j = np.floor(np.log10(a)).astype(np.intp) - _X_MIN
    hh, hl = _HH.take(j), _HL.take(j)
    p = a * (hh + hl)
    c = a * _SPLIT
    ah = c - (c - a)
    al = a - ah
    t = ((ah * hh - p) + ah * hl + al * hh) + al * hl + a * _LO.take(j)  # a * 10**(16 - X) - p
    r = np.floor(t)
    frac = t - r
    N = p.astype(np.int64) + r.astype(np.int64)
    fallback = ~(fast | zero) | (np.abs(frac - 0.5) < 1e-9) | (N < 10**16)
    N += frac > 0.5
    fallback |= N >= 10**17
    N[fallback] = 10**16
    top = N // 10**8
    low = N - top * 10**8
    d1 = top // 10**8
    mid = top - d1 * 10**8
    g1 = mid // 10**4
    g2 = mid - g1 * 10**4
    g3 = low // 10**4
    g4 = low - g3 * 10**4
    layout = _CLASS.take(j) * 18 + 13 + _SIG.take(g4)  # class * 18 + significant digits
    short = np.flatnonzero(g4 == 0)  # few values end in 0000; only those look at g1..g3
    if short.size:
        h1, h2, h3 = g1[short], g2[short], g3[short]
        layout[short] += np.where(h3, _SIG.take(h3) - 8, np.where(
            h2, _SIG.take(h2) - 12, np.where(h1, _SIG.take(h1) - 16, -16)))
    layout = np.where(zero, _ZERO, layout)
    words = (
        _SIGN_WORD | (d1.astype(_WORD) + ord("0")) << 48 | np.signbit(v).astype(_WORD) * ord("-"),
        _QUAD.take(g1), _QUAD.take(g2), _QUAD.take(g3), _QUAD_E.take(g4), _EXPONENT.take(j),
    )
    cells = _MASKS.take(layout, axis=0)
    for i, w in enumerate(words):
        cells[:, i] &= w
    cells = cells.view(np.uint8)
    slow = np.flatnonzero(fallback)
    if slow.size:
        text = np.array([FLOAT_FMT % x for x in v[slow].tolist()], f"S{_FIELD - 1}")
        cells[slow, :-1] = text.view(np.uint8).reshape(-1, _FIELD - 1)
    return cells


def _str_cells(column: np.ndarray) -> np.ndarray:
    """A str column as NUL-padded ASCII cells, each followed by a ',' separator."""
    text = column.astype(np.bytes_)  # UnicodeEncodeError beyond ASCII
    width = text.dtype.itemsize
    cells = np.zeros((len(text), width + 1), np.uint8)
    cells[:, :width] = text.view(np.uint8).reshape(-1, width)
    if np.any((cells[:, :-2] == 0) & (cells[:, 1:-1] != 0)):
        raise ValueError("a CSV str value holds a NUL character")
    cells[:, width] = ord(",")
    return cells


def _as_float(column: np.ndarray) -> np.ndarray:
    """A numeric column as the float64 values FLOAT_FMT prints."""
    if column.dtype.kind == "O":  # ints beyond 64 bits; float() rejects what FLOAT_FMT rejects
        return np.array([float(x) for x in column.tolist()], np.float64)
    if column.dtype.kind not in "biuf":
        raise TypeError(f"cannot write a {column.dtype} column as CSV numbers")
    return column.astype(np.float64)


def _format_rows(columns: list) -> bytes:
    """One CSV line per index of the equal-length 1-D arrays `columns`: a str
    column printed as is, any other with FLOAT_FMT (which prints integers up
    to 2**53 as str() does)."""
    cells = []
    for is_str, run in groupby(columns, key=lambda c: c.dtype.kind == "U"):
        if is_str:
            cells += [_str_cells(c) for c in run]
        else:
            values = np.column_stack([_as_float(c) for c in run])
            cells.append(_number_cells(values.ravel()).reshape(len(values), -1))
    block = np.hstack(cells) if len(cells) > 1 else cells[0]
    block[:, -1] = ord("\n")
    return block.tobytes().translate(None, b"\0")


def _write_rows(path: Path, head: bytes, columns) -> str:
    """Write `head`, then the rows of `columns` a block at a time; returns the
    sha256 hex digest of the bytes written."""
    columns = [np.asarray(c) for c in columns]
    digest = hashlib.sha256(head)
    with open(path, "wb") as f:
        f.write(head)
        for i in range(0, len(columns[0]), _BLOCK_ROWS):
            block = _format_rows([c[i:i + _BLOCK_ROWS] for c in columns])
            digest.update(block)
            f.write(block)
    return digest.hexdigest()


def write_csv(path: Path, header: list, columns) -> str:
    """Write a CSV with one header line; returns its sha256 hex digest."""
    return _write_rows(path, (",".join(str(h) for h in header) + "\n").encode("ascii"), columns)


def write_wigner_csv(path: Path, grid) -> str:
    """Bit-exact Wigner grid format: header row of xs (first cell blank),
    then one row per p value, the p value first. Returns the sha256 hex digest."""
    head = b"," + _format_rows(list(np.asarray(grid.xs)[:, None]))
    return _write_rows(path, head, [grid.ps, *grid.w.T])


def write_manifest(outdir: Path, config: dict, files: dict, extra: dict | None = None) -> Path:
    """Write manifest.json; `files` maps each written file's name to its
    sha256 hex digest."""
    manifest = {
        "config": config,
        "versions": {
            "package": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "files": files,
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
    files = {}
    for name, table in tables.items():
        if isinstance(table, WignerGrid):
            files[name] = write_wigner_csv(outdir / name, table)
        else:
            files[name] = write_csv(outdir / name, list(table), list(table.values()))
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

# keys a state type needs: one key of each group
_STATE_REQUIRED = {
    "fock": [("n",)],
    "cat": [("alpha",)],
    "squeezed_single_photon": [("r", "alpha")],
    "bred": [("protocol",), ("steps",), ("alpha",)],
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
        for group in _STATE_REQUIRED.get(state["type"], []):
            if not any(key in state for key in group):
                raise ConfigError(f"a {state['type']} state needs {' or '.join(group)}")
        _check_keys(f"{state['type']} state", state, _STATE_CHECKS)
    _check_keys(kind, config, _KIND_CHECKS.get(kind, {}))
    return config


def _check_keys(where: str, spec: dict, rules: dict) -> None:
    for key, (ok, what) in rules.items():
        if key in spec and not ok(spec[key]):
            raise ConfigError(f"{where} {key} must be {what}, got {spec[key]!r}")


def _is_number(value) -> bool:
    """A JSON number that converts to a finite float (not NaN, inf or a bool)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _integer(lo: int, hi: int | None = None) -> tuple:
    return (
        lambda v: _is_int(v) and lo <= v and (hi is None or v <= hi),
        f"an integer >= {lo}" if hi is None else f"an integer in [{lo}, {hi}]",
    )


def _numbers(min_len: int, item=_is_number, what: str = "finite numbers") -> tuple:
    return (
        lambda v: isinstance(v, list) and len(v) >= min_len and all(map(item, v)),
        f"a list of >= {min_len} {what}",
    )


def _is_source(src) -> bool:
    return isinstance(src, dict) and all(_is_number(src.get(key)) for key in ("r0", "delta", "r_bs"))


# (test, what the value must be) for each key a scenario or state reads; the
# library keeps its own guards (exit 3) for limits that depend on several keys
_PROTOCOL = (lambda v: v in ("cat", "gkp"), "'cat' or 'gkp'")
_PARITY = (lambda v: _is_int(v) and v in (-1, 1), "-1 or 1")
_ALPHA = (lambda v: _is_number(v) and v >= 0, "a finite number >= 0")
_LIFETIME = (lambda v: (_is_number(v) or v == math.inf) and v > 0, "a positive number or Infinity")
_POSITIVE = (lambda v: _is_number(v) and v > 0, "a finite number > 0")
_STATE_CHECKS = {
    "dim": _integer(2),
    "n": _integer(0),
    "alpha": _ALPHA,
    "s": _PARITY,
    "r": (_is_number, "a finite number"),
    "protocol": _PROTOCOL,
    "steps": _integer(1),
}
_KIND_CHECKS = {
    "pulse": {
        "wavepacket": (lambda v: v in ("exp_rising", "exp_decaying", "time_bin"),
                       "'exp_rising', 'exp_decaying' or 'time_bin'"),
        "gamma0": _POSITIVE,
        "t0": (lambda v: v is None or (_is_number(v) and v > 0), "null or a finite number > 0"),
        "Tf": (lambda v: v is None or (_is_number(v) and 0 < v < 1), "null or a number in (0, 1)"),
        "span": _POSITIVE,
        "points": _integer(3),  # a TemporalMode needs 3 samples
        "dt_factor": _POSITIVE,
    },
    "store": {
        "T1": _LIFETIME,
        "Tphi": _LIFETIME,
        "times": _numbers(1, lambda t: _is_number(t) and t >= 0, "finite numbers >= 0"),
    },
    "breed": {
        "protocol": _PROTOCOL,
        "steps": _integer(1),
        "alpha": _ALPHA,
        "s": _PARITY,
        "dim": _integer(2),
        "window": (lambda v: v is None or (isinstance(v, list) and len(v) == 2 and all(map(_is_number, v))
                                           and v[0] < v[1]),
                   "null or a list [lo, hi] of finite numbers with lo < hi"),
    },
    "wigner": {"xs": _numbers(2), "ps": _numbers(2)},
    "tomo": {
        "n_frames": _integer(MLE_MIN_FRAMES),
        "dim": _integer(2, MLE_MAX_DIM),
        "iterations": _integer(1),
        "seed": _integer(0),
        "phases_deg": _numbers(1),
    },
    "rates": {
        "sources": (lambda v: isinstance(v, list) and all(map(_is_source, v)),
                    "a list of objects with numeric r0, delta and r_bs"),
        "k_list": _numbers(1, lambda k: _is_number(k) and k >= 0, "finite numbers >= 0"),
        "p1": (lambda v: _is_number(v) and 0 <= v <= 1, "a number in [0, 1]"),
        "n_max": _integer(1, 64),  # as rates.scaling_curve
    },
}


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
    res["log_likelihood"] = rho.log_likelihood
    res["likelihood_gap"] = rho.likelihood_gap
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
    inp = wigner_grid(cat_state(alpha, -1, dim))  # both protocols breed the same input cat
    tables = {}
    for protocol in ("cat", "gkp"):
        bred = run_breeding(BreedingPlan(protocol, 1, alpha, -1, dim)).states[-1]
        tables[f"{protocol}_input.csv"] = inp
        tables[f"{protocol}_bred.csv"] = wigner_grid(bred)
        tables[f"{protocol}_stored.csv"] = wigner_grid(evolve_closed_form(bred, t2, noise))
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
