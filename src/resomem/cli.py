"""Scenario runner: JSON-configured simulations emitting deterministic CSV
payloads plus a manifest with checksums.

Every output is a scenario kind, the paper's figures (fig3e, fig4d,
edfig_rates, edfig_fidelity) among them, and `run_scenario` is the one run
path: `--figure K` is the config {"kind": K}, and `emit_figure_data` passes
its params as the other keys of that config. A manifest records the config
it was run from, and that config runs again with `--config`. A state type,
like a kind, is one table entry: its builder and the table of its keys; a
`rates` source is checked against its own table the same way, and a `pulse`
wavepacket is one `_WAVEPACKETS` entry: its grid and its pulse without `Tf`.
Each scenario only computes: it returns its tables (file name -> columns, or
a Wigner grid) and its results, and `_write_outputs` is the one place that
writes them, then the manifest.

Exit codes: 0 ok, 2 config/schema violation, 3 numeric guard violation,
4 I/O failure; a refused run (2 or 3) prints one short line and writes
nothing, and a config that gives a key twice is refused.  CSV format: '.'
decimal, LF line endings and a trailing newline; str values printed as is,
numbers with 17 significant digits (FLOAT_FMT), so the same numbers print to
the same bytes on every platform; the same config and seed give the same
numbers at a fixed BLAS thread count.
The last bits of some files move with it, and which ones depends on the BLAS
build: with OpenBLAS 0.3.31 at 1 and 2 threads, the Wigner grids of `wigner`
and `fig4d`, the `tomo` `rho.csv` of a cat or squeezed state, and a 3-step
dim-120 GKP `breeding.csv` (README, CLI section). One vectorized
kernel (`_number_cells`) prints every number of every CSV and equals
FLOAT_FMT % x byte for byte: values it cannot decide exactly are printed by
FLOAT_FMT itself. A table is converted to float64, formatted and written
_BLOCK_CELLS cells (whole rows) at a time, so a long pulse table or a wide
Wigner grid costs a bounded working set. Each writer returns the sha256 of
the bytes it wrote, and the manifest records those digests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import reprlib
import shutil
import sys
import warnings
from itertools import groupby
from pathlib import Path

import numpy as np

from . import __version__
from .breeding import PROJECTION_THETA, STABILIZER_G, BreedingPlan, run_breeding, theoretical_bred_state
from .errors import NumericalAccuracyWarning, ResomemError
from .gates import PROJECTION_GRID_BOUND
from .fock import (
    DEFAULT_DIM,
    as_density_matrix,
    cat_state,
    cat_squeezing_for_alpha,
    fidelity,
    fock_basis_state,
    number_parity,
    squeezed_single_photon,
    vacuum,
)
from .memory import (
    GAMMA0,
    entangle_pulse,
    multimode_overlap,
    read_pulse,
    simulate_network,
    standard_wavepacket,
    write_pulse,
)
from .noise import CoherenceSeries, NoiseParams, evolve_closed_form, fit_T1, fit_Tphi, normalized_coherence
from .rates import heralding_probability, k_from_rates, success_probability
from .tomo import DEFAULT_PHASES_DEG, MLE_MAX_DIM, MLE_MIN_FRAMES, mle_reconstruct, sample_homodyne
from .wigner import DEFAULT_GRID, WignerGrid, marginal, negative_region_count, wigner_grid, wigner_grids

FLOAT_FMT = "%.17g"
# cells formatted and written per file write; bounds the memory a long or
# wide table takes while it is written (a Wigner grid row is 202 cells)
_BLOCK_CELLS = 8192

PULSE_TF_TOL = 1e-3  # the largest |effective_Tf - target_Tf| a pulse leaves without a warning

# Size caps of the schema, each far above the documented configs: past them a
# run would take hours or more memory than a workstation has, or fail a guard
# with a misleading message.
MAX_DIM = 300  # Fock dim of a state, breed and fig4d; the largest dim a kernel is tested at
MAX_STEPS = 64  # breeding steps
MAX_POINTS = 10**6  # pulse samples; by 1e7, linspace rounding fails the uniform-grid check
MAX_FRAMES = 10**7  # tomo homodyne frames
MAX_AXIS_POINTS = 2001  # points on each wigner axis
MAX_PHASES = 180  # tomo phases; theta and theta + pi measure mirrored quadratures
MAX_TIMES = 1000  # store storage times
MAX_K_LIST = 1000  # rates k_match values of scaling.csv
MAX_SOURCES = 1000  # rates source pairs of k_values.csv
MAX_INPUTS = 64  # rates n_max, the largest input count n of scaling.csv

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
    return column.astype(np.float64, copy=False)


def _stack(columns: list) -> list:
    """The equal-length arrays `columns` as a list of parts: a 1-D str column
    as it is, each run of adjacent numeric columns (1-D, or 2-D with one
    column per CSV column) as one (rows, n) float64 array."""
    parts = []
    for is_str, run in groupby(columns, key=lambda c: c.dtype.kind == "U"):
        if is_str:
            parts += run
        else:
            parts.append(np.column_stack([_as_float(c) for c in run]))
    return parts


def _format_rows(columns: list) -> bytes:
    """One CSV line per row of the equal-length arrays `columns` (see `_stack`):
    a str value printed as is, a number with FLOAT_FMT (which prints integers
    up to 2**53 as str() does)."""
    cells = [_str_cells(p) if p.ndim == 1 else _number_cells(p.ravel()).reshape(len(p), -1) for p in _stack(columns)]
    block = np.hstack(cells) if len(cells) > 1 else cells[0]
    block[:, -1] = ord("\n")
    return block.tobytes().translate(None, b"\0")


def _write_rows(path: Path, head: bytes, columns) -> str:
    """Write `head`, then the rows of `columns` (see `_stack`), converted and
    formatted _BLOCK_CELLS cells (whole rows, at least one) at a time, so no
    float64 copy of the whole table is made; returns the sha256 hex digest of
    the bytes written."""
    columns = [np.asarray(c) for c in columns]
    rows = max(1, _BLOCK_CELLS // sum(c.shape[1] if c.ndim == 2 else 1 for c in columns))
    digest = hashlib.sha256(head)
    with open(path, "wb") as f:
        f.write(head)
        for i in range(0, len(columns[0]), rows):
            block = _format_rows([c[i:i + rows] for c in columns])
            digest.update(block)
            f.write(block)
    return digest.hexdigest()


def write_csv(path: Path, header: list, columns) -> str:
    """Write a CSV with one header line; returns its sha256 hex digest."""
    return _write_rows(path, (",".join(str(h) for h in header) + "\n").encode("ascii"), columns)


def write_wigner_csv(path: Path, grid) -> str:
    """Bit-exact Wigner grid format: header row of xs (first cell blank),
    then one row per p value, the p value first. Returns the sha256 hex digest."""
    head = b"," + _format_rows([np.asarray(grid.xs)[None]])
    return _write_rows(path, head, [grid.ps, grid.w])


def _strict_json(value):
    """`value` with each non-finite float replaced by the string json.dumps
    gives it ("Infinity", "-Infinity" or "NaN"), which strict JSON lacks."""
    if isinstance(value, float) and not math.isfinite(value):
        return json.dumps(value)
    if isinstance(value, dict):
        return {key: _strict_json(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(v) for v in value]
    return value


def write_manifest(outdir: Path, config: dict, files: dict, extra: dict | None = None) -> Path:
    """Write manifest.json, strict JSON; `files` maps each written file's
    name to its sha256 hex digest."""
    manifest = {
        "config": config,
        "versions": {"package": __version__, "numpy": np.__version__},
        "files": files,
    }
    if extra:
        manifest["results"] = extra
    path = outdir / "manifest.json"
    path.write_text(json.dumps(_strict_json(manifest), indent=2, sort_keys=True, allow_nan=False) + "\n")
    return path


def _write_outputs(outdir: Path, config: dict, tables: dict, results: dict) -> Path:
    """Write each table (a Wigner grid, or column name -> column) to
    outdir/<file name>, then the manifest; returns the manifest path. A table
    object listed under several names is formatted once, and its bytes are
    copied to the other names."""
    outdir.mkdir(parents=True, exist_ok=True)
    files = {}
    first_name = {}  # id of a table -> the name it was first written under
    for name, table in tables.items():
        first = first_name.setdefault(id(table), name)
        if first != name:
            shutil.copyfile(outdir / first, outdir / name)
            files[name] = files[first]
        elif isinstance(table, WignerGrid):
            files[name] = write_wigner_csv(outdir / name, table)
        else:
            files[name] = write_csv(outdir / name, list(table), list(table.values()))
    return write_manifest(outdir, config, files, results)


# ---------------------------------------------------------------------------
# config schema: one table per scenario kind (_SCENARIOS, the figure kinds
# among them) and state type maps each key it reads to (rule, default), where
# a rule is (test, what the value must be) and a JSON null takes the default.
# Two more items (key, values) allow the key only where that earlier key
# resolved to one of the values. A _STATE value is resolved by the table its
# "type" names. The library keeps its own guards (exit 3) for limits that
# couple keys.

class _Required(tuple):
    """A default that is no value: the key, or one of the keys this holds, must be given."""


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


def _numbers(min_len: int, max_len: int | None = None, item=_is_number, what: str = "finite numbers") -> tuple:
    return (
        lambda v: (isinstance(v, list) and min_len <= len(v) and (max_len is None or len(v) <= max_len)
                   and all(map(item, v))),
        f"a list of >= {min_len} {what}" if max_len is None else f"a list of {min_len} to {max_len} {what}",
    )


def _is_axis(v) -> bool:
    """Two to MAX_AXIS_POINTS finite numbers, strictly increasing and evenly
    spaced to 1e-9 relative, as a TemporalMode's time grid."""
    if not _numbers(2, MAX_AXIS_POINTS)[0](v):
        return False
    with np.errstate(over="ignore", invalid="ignore"):
        step = np.diff(np.asarray(v, dtype=float))
        return bool(np.isfinite(step).all() and step[0] > 0 and np.allclose(step, step[0], rtol=1e-9, atol=0))


# a rule is (check, what it must be) or, for a value of its own keys, (check, what, resolver)
_STATE = (lambda v: isinstance(v, dict), "an object", lambda v: _resolve_state(v))
_PROTOCOL = (lambda v: isinstance(v, str) and v in PROJECTION_THETA, " or ".join(map(repr, PROJECTION_THETA)))
_PARITY = (lambda v: _is_int(v) and v in (-1, 1), "-1 or 1")
_NONNEGATIVE = (lambda v: _is_number(v) and v >= 0, "a finite number >= 0")
_POSITIVE = (lambda v: _is_number(v) and v > 0, "a finite number > 0")
# a manifest writes an infinite lifetime as the string "Infinity", so its config reads back
_LIFETIME = (lambda v: v == "Infinity" or ((_is_number(v) or v == math.inf) and v > 0),
             "a positive number or Infinity")
_AXIS = (_is_axis, f"a list of 2 to {MAX_AXIS_POINTS} finite numbers, increasing and evenly spaced")
_DIM = (_integer(2, MAX_DIM), DEFAULT_DIM)
_NOISE = {"T1": (_LIFETIME, 2.3e-6), "Tphi": (_LIFETIME, 0.96e-6)}  # defaults: the paper's memory, s
_SOURCE = {"r0": (_POSITIVE, _Required()), "delta": (_POSITIVE, _Required()), "r_bs": (_NONNEGATIVE, _Required())}
_SOURCES = (lambda v: isinstance(v, list) and len(v) <= MAX_SOURCES and all(isinstance(s, dict) for s in v),
            f"a list of at most {MAX_SOURCES} objects with keys r0, delta and r_bs",
            lambda v: [_resolve(f"sources[{i}]", s, _SOURCE) for i, s in enumerate(v)])
# (builder, its table) per state type; a builder calls its constructor by its
# name in this module when it runs, where the benchmark's tracer patches it
_STATES = {
    "vacuum": (lambda s: vacuum(s["dim"]), {"dim": _DIM}),
    "fock": (lambda s: fock_basis_state(s["n"], s["dim"]), {"n": (_integer(0), _Required()), "dim": _DIM}),
    "cat": (lambda s: cat_state(float(s["alpha"]), s["s"], s["dim"]),
            {"alpha": (_NONNEGATIVE, _Required()), "s": (_PARITY, -1), "dim": _DIM}),
    "squeezed_single_photon": (
        lambda s: squeezed_single_photon(
            cat_squeezing_for_alpha(float(s["alpha"])) if s["r"] is None else float(s["r"]), s["dim"]),
        {"r": ((_is_number, "a finite number"), _Required(("alpha",))), "alpha": (_NONNEGATIVE, None), "dim": _DIM},
    ),
    "bred": (
        lambda s: run_breeding(BreedingPlan(s["protocol"], s["steps"], float(s["alpha"]), s["s"], s["dim"])).states[-1],
        {"protocol": (_PROTOCOL, _Required()), "steps": (_integer(1, MAX_STEPS), _Required()),
         "alpha": (_NONNEGATIVE, _Required()), "s": (_PARITY, -1), "dim": _DIM},
    ),
}


def _resolve(where: str, spec: dict, table: dict) -> dict:
    """Check `spec` against `table`; returns each key of the table, as given
    or defaulted."""
    unknown = set(spec) - set(table)
    if unknown:
        raise ConfigError(f"unknown keys for {where}: {reprlib.repr(sorted(unknown))}; it reads {sorted(table)}")
    settings = {}
    for key, (rule, default, *only) in table.items():
        if key in spec:
            value = spec[key]
            if not rule[0](value):
                raise ConfigError(f"{where} {key} must be {rule[1]}, got {reprlib.repr(value)}")
            if only and settings[only[0]] not in only[1]:
                raise ConfigError(f"{where} {key} is read only where {only[0]} is "
                                  f"{' or '.join(map(repr, only[1]))}, not {settings[only[0]]!r}")
            if value is None:
                value = default
        elif isinstance(default, _Required):
            if not any(other in spec for other in default):
                raise ConfigError(f"{where} needs {' or '.join((key, *default))}")
            value = None
        else:
            value = default
        settings[key] = rule[2](value) if len(rule) > 2 else value
    return settings


def _resolve_state(spec: dict) -> dict:
    t = spec.get("type")
    if not isinstance(t, str) or t not in _STATES:
        raise ConfigError(f"state must be an object with a type in {sorted(_STATES)}")
    rest = {k: v for k, v in spec.items() if k != "type"}
    return {"type": t, **_resolve(f"{t} state", rest, _STATES[t][1])}


def validate_config(config) -> dict:
    """Check a scenario config against its kind's table; returns the settings
    its scenario reads: kind, then each key of the table, as given or defaulted."""
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    kind = config.get("kind")
    if not isinstance(kind, str) or kind not in _SCENARIOS:
        raise ConfigError(f"unknown scenario kind {reprlib.repr(kind)}; expected one of {sorted(_SCENARIOS)}")
    rest = {k: v for k, v in config.items() if k != "kind"}
    return {"kind": kind, **_resolve(kind, rest, _SCENARIOS[kind][1])}


def build_state(spec: dict):
    """The state of a resolved state spec (see _resolve_state)."""
    return _STATES[spec["type"]][0](spec)


# ---------------------------------------------------------------------------
# scenarios

# (its grid [lo, hi] in units of 1/gamma0 from the config, its pulse without Tf)
# per wavepacket; a pulse is called by its name in this module when it runs,
# where the benchmark's tracer patches it
_WAVEPACKETS = {
    "exp_rising": (lambda c: (-c["span"], 2.0), lambda mode: write_pulse(mode)),
    "exp_decaying": (lambda c: (0.0, c["span"]), lambda mode: read_pulse(mode)),
    "time_bin": (lambda c: (0.0, c["t0"]), lambda mode: read_pulse(mode)),
}


def _scenario_pulse(c: dict) -> tuple[dict, dict]:
    gamma0 = float(c["gamma0"])
    grid_of, pulse = _WAVEPACKETS[c["wavepacket"]]
    lo, hi = (float(x) / gamma0 for x in grid_of(c))
    mode = standard_wavepacket(c["wavepacket"], gamma0, np.linspace(lo, hi, c["points"]), t0=float(c["t0"]) / gamma0)
    Tf = c["Tf"]  # read only by the releasing wavepackets, whose pulse it turns into an entangle pulse
    sched = pulse(mode) if Tf is None else entangle_pulse(mode, float(Tf))
    tables = {
        "mode.csv": {"t": mode.t, "g": mode.g},
        "schedule.csv": {"t": sched.t, "gamma": sched.gamma},
    }
    net = simulate_network(sched)
    results = {
        "effective_Tf": net.effective_Tf,
        "target_Tf": 0.0 if Tf is None else float(Tf),
        "in_overlap": net.in_overlap,
        "out_overlap": net.out_overlap,
    }
    if abs(net.effective_Tf - results["target_Tf"]) > PULSE_TF_TOL:
        warnings.warn(f"pulse: effective_Tf {net.effective_Tf:.4g} misses target_Tf {results['target_Tf']:g} at grid "
                      f"step {mode.dt:.3g} s = {mode.dt * gamma0:.3g}/gamma0; where gamma is not capped, the error "
                      "falls as the square of the step", NumericalAccuracyWarning)
    if net.out_mode is not None:
        tables["out_mode.csv"] = {"t": net.out_mode.t, "g": net.out_mode.g}
    return tables, results


def _scenario_store(c: dict) -> tuple[dict, dict]:
    params = NoiseParams(float(c["T1"]), float(c["Tphi"]))
    times = np.asarray(c["times"], dtype=float)
    state = build_state(c["state"])
    rho0 = as_density_matrix(state)
    table = {"t": times, "fidelity": [], "rho11": []}
    for t in times:  # one evolved state at a time: 1.4 MB each at MAX_DIM
        rho_t = evolve_closed_form(rho0, float(t), params)
        table["fidelity"].append(fidelity(state, rho_t))  # <psi|rho_t|psi> for a pure state
        table["rho11"].append(rho_t.rho[1, 1].real)
    return {"storage_fidelity.csv": table}, {"T1": params.T1, "Tphi": params.Tphi}


def _scenario_breed(c: dict) -> tuple[dict, dict]:
    window = tuple(c["window"]) if c["window"] is not None else None
    plan = BreedingPlan(c["protocol"], c["steps"], float(c["alpha"]), c["s"], c["dim"], window)
    traj = run_breeding(plan)
    from .breeding import gkp_stabilizer_expectation  # looked up at call time, where the benchmark's tracer patches it

    stab_x, stab_p = zip(*(gkp_stabilizer_expectation(state, STABILIZER_G) for state in traj.states))
    table = {
        "step": list(range(len(traj.states))),
        "success_density": [1.0, *traj.success_densities],
        "parity": [number_parity(state) for state in traj.states],
        "mean_photon": [state.mean_photon_number() for state in traj.states],
        "stab_x": stab_x,
        "stab_p": stab_p,
        "fidelity_vs_theory": [
            fidelity(theoretical_bred_state(j + 1, plan.alpha, plan.s, plan.protocol, plan.dim), state)
            for j, state in enumerate(traj.states)
        ],
    }
    return {"breeding.csv": table}, {"final_fidelity": table["fidelity_vs_theory"][-1]}


def _scenario_wigner(c: dict) -> tuple[dict, dict]:
    grid = wigner_grid(build_state(c["state"]), c["xs"], c["ps"])
    results = {"negative_regions": negative_region_count(grid), "integral": grid.integral()}
    return {"wigner.csv": grid}, results


def _scenario_tomo(c: dict) -> tuple[dict, dict]:
    state = build_state(c["state"])
    phases = np.deg2rad(np.asarray(c["phases_deg"], float))
    dim = c["dim"]
    data = sample_homodyne(state, phases, c["n_frames"], c["seed"])
    rho = mle_reconstruct(data, dim, c["iterations"])
    n, m = np.divmod(np.arange(dim * dim), dim)
    tables = {
        "samples.csv": {"theta_deg": np.rad2deg(data.thetas), "x": data.xs},
        "rho.csv": {"n": n, "m": m, "re": rho.rho.real.ravel(), "im": rho.rho.imag.ravel()},
    }
    res = {"fidelity": fidelity(state, rho)} if state.dim == dim else {}
    res["log_likelihood"] = rho.log_likelihood
    res["likelihood_gap"] = rho.likelihood_gap
    return tables, res


def _scenario_rates(c: dict) -> tuple[dict, dict]:
    sources = c["sources"]
    k_values = {key: [src[key] for src in sources] for key in ("r0", "delta", "r_bs")}
    k_values["k_match"] = [
        k_from_rates(float(src["r0"]), float(src["delta"]), float(src["r_bs"])) for src in sources
    ]
    k_values["p1"] = [heralding_probability(float(src["r0"]), float(src["delta"])) for src in sources]
    k_list = [float(k) for k in c["k_list"]]
    p1 = float(c["p1"])
    ns = range(1, c["n_max"] + 1)
    scaling = {
        "n": [n for _ in k_list for n in ns],
        "k_match": [k for k in k_list for _ in ns],
        "p_n": [success_probability(n, k, p1) for k in k_list for n in ns],
    }
    return {"k_values.csv": k_values, "scaling.csv": scaling}, {"k_values": k_values["k_match"]}


def _scenario_validate(c: dict) -> tuple[dict, dict]:
    """Cheap invariant sweep; raises (exit 3) if anything fails."""
    checks = {}
    checks["multimode_T0_0.3"] = abs(multimode_overlap(0.3) - 0.9974) < 5e-4
    w = wigner_grid(vacuum(20))
    checks["wigner_vacuum"] = abs(w.w[100, 100] - 1 / np.pi) < 1e-9
    xs = np.linspace(-5, 5, 501)
    dens = marginal(theoretical_bred_state(2, 1.0, -1, "gkp", 40), np.pi / 2, xs)
    inner = dens[1:-1]  # strict local maxima above 5% of the peak
    peaks = np.count_nonzero((inner > dens[:-2]) & (inner > dens[2:]) & (inner > 0.05 * dens.max()))
    checks["gkp_three_peaks"] = abs(np.trapezoid(dens, xs) - 1) < 1e-4 and peaks == 3
    if not all(checks.values()):
        raise ResomemError(f"validation failed: {[k for k, v in checks.items() if not v]}")
    table = {"check": list(checks), "passed": [int(v) for v in checks.values()]}
    return {"validation.csv": table}, {k: bool(v) for k, v in checks.items()}


def _fig_decay(c: dict) -> tuple[dict, dict]:
    """Energy-relaxation and coherence decay curves with fitted T1, Tphi."""
    times = np.linspace(0, 2e-6, 11)
    noise = NoiseParams(float(c["T1"]), float(c["Tphi"]))
    one = fock_basis_state(1, 12).to_density_matrix()
    from .fock import squeezed_vacuum  # looked up at call time, where the benchmark's tracer patches it

    sq = squeezed_vacuum(0.5, 20).to_density_matrix()
    rho11 = np.array([evolve_closed_form(one, float(t), noise).rho[1, 1].real for t in times])
    rhos = [evolve_closed_form(sq, float(t), noise) for t in times]
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


def _fig_wigner_panels(c: dict) -> tuple[dict, dict]:
    """Input / bred / bred-after-storage Wigner grids per protocol."""
    alpha, dim, t2 = float(c["alpha"]), c["dim"], float(c["t2"])
    noise = NoiseParams(float(c["T1"]), float(c["Tphi"]))
    states = [cat_state(alpha, -1, dim)]  # both protocols breed the same input cat
    for protocol in PROJECTION_THETA:
        bred = run_breeding(BreedingPlan(protocol, 1, alpha, -1, dim)).states[-1]
        states += [bred, evolve_closed_form(bred, t2, noise)]
    grids = iter(wigner_grids(states))  # one set of blocks and Hermite tables for all five
    inp = next(grids)
    tables = {}
    for protocol in PROJECTION_THETA:
        tables[f"{protocol}_input.csv"] = inp
        tables[f"{protocol}_bred.csv"] = next(grids)
        tables[f"{protocol}_stored.csv"] = next(grids)
    return tables, {}


# (scenario, its table) per kind
_SCENARIOS = {
    "pulse": (_scenario_pulse, {
        "wavepacket": ((lambda v: isinstance(v, str) and v in _WAVEPACKETS, " or ".join(map(repr, _WAVEPACKETS))),
                       "exp_rising"),
        "gamma0": (_POSITIVE, GAMMA0),
        # t0 and span in units of 1/gamma0
        "t0": ((lambda v: v is None or _POSITIVE[0](v), "null or a finite number > 0"), 1.0,
               "wavepacket", ("time_bin",)),
        "Tf": ((lambda v: v is None or (_is_number(v) and 0 < v < 1), "null or a number in (0, 1)"), None,
               "wavepacket", ("exp_decaying", "time_bin")),
        "span": (_POSITIVE, 20.0, "wavepacket", ("exp_rising", "exp_decaying")),
        "points": (_integer(3, MAX_POINTS), 20001),  # a TemporalMode needs 3 samples
    }),
    "store": (_scenario_store, {
        **_NOISE,
        "times": (_numbers(1, MAX_TIMES, _NONNEGATIVE[0], "finite numbers >= 0"), (0, 0.2e-6, 0.4e-6, 0.8e-6, 1.6e-6)),
        "state": (_STATE, {"type": "fock", "n": 1, "dim": 20}),
    }),
    "breed": (_scenario_breed, {
        "protocol": (_PROTOCOL, "cat"),
        "steps": (_integer(1, MAX_STEPS), 1),
        "alpha": (_NONNEGATIVE, 1.0),
        "s": (_PARITY, -1),
        "dim": _DIM,
        "window": ((lambda v: v is None or (_numbers(2, 2)[0](v)
                                             and -PROJECTION_GRID_BOUND <= v[0] < v[1] <= PROJECTION_GRID_BOUND),
                    f"null or a list [lo, hi] with -{PROJECTION_GRID_BOUND:g} <= lo < hi <= {PROJECTION_GRID_BOUND:g}"),
                   None),
    }),
    "wigner": (_scenario_wigner, {
        "state": (_STATE, {"type": "cat", "alpha": 1.0, "s": -1, "dim": 40}),
        "xs": (_AXIS, DEFAULT_GRID),
        "ps": (_AXIS, DEFAULT_GRID),
    }),
    "tomo": (_scenario_tomo, {
        "state": (_STATE, {"type": "vacuum", "dim": 20}),
        "phases_deg": (_numbers(1, MAX_PHASES), DEFAULT_PHASES_DEG),
        "n_frames": (_integer(MLE_MIN_FRAMES, MAX_FRAMES), 20000),
        "dim": (_integer(2, MLE_MAX_DIM), 20),
        "iterations": (_integer(1), 300),
        "seed": (_integer(0), 0),
    }),
    "rates": (_scenario_rates, {
        "sources": (_SOURCES, ({"r0": 2e5, "delta": 1.2e8, "r_bs": 10.0}, {"r0": 4e3, "delta": 3e6, "r_bs": 20.0})),
        "k_list": (_numbers(1, MAX_K_LIST, _NONNEGATIVE[0], "finite numbers >= 0"), (0.03, 1.0, 3.8, 10.0, 100.0)),
        "p1": ((lambda v: _is_number(v) and 0 <= v <= 1, "a number in [0, 1]"), 0.25),
        "n_max": (_integer(1, MAX_INPUTS), 20),
    }),
    "validate": (_scenario_validate, {}),
    "fig3e": (_fig_decay, _NOISE),
    "fig4d": (_fig_wigner_panels, {
        "alpha": (_NONNEGATIVE, 1.0),
        "dim": (_integer(2, MAX_DIM), 40),
        "t2": (_NONNEGATIVE, 40e-9),  # storage time of the stored panels, s
        **_NOISE,
    }),
}
# the extended-data figures are the rates and store scenarios under their figure names
_SCENARIOS["edfig_rates"] = _SCENARIOS["rates"]
_SCENARIOS["edfig_fidelity"] = _SCENARIOS["store"]
FIGURE_KINDS = ("fig3e", "fig4d", "edfig_rates", "edfig_fidelity")


def run_scenario(config: dict, outdir: str | Path) -> Path:
    """Execute one scenario; returns the manifest path. The manifest records
    `config` as given."""
    c = validate_config(config)
    tables, results = _SCENARIOS[c["kind"]][0](c)
    return _write_outputs(Path(outdir), config, tables, results)


def emit_figure_data(kind: str, outdir: str | Path, params: dict | None = None) -> Path:
    """Emit the CSVs underlying one figure panel family: the scenario of that
    figure kind, with `params` as its other config keys."""
    params = params or {}
    if kind not in FIGURE_KINDS:
        raise ConfigError(f"unknown figure kind {kind!r}; expected one of {list(FIGURE_KINDS)}")
    if "kind" in params:
        raise ConfigError(f"figure params take no 'kind' key: the figure kind is {kind!r}")
    return run_scenario({"kind": kind, **params}, outdir)


# ---------------------------------------------------------------------------
# entry point

def _object(pairs: list) -> dict:
    """A JSON object of a config file; a key given twice is a config error,
    where json.loads would keep the last value."""
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise ConfigError(f"key {reprlib.repr(key)} is given twice in one object")
        seen.add(key)
    return dict(pairs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="resomem", description=__doc__)
    parser.add_argument("--config", type=Path, help="scenario config JSON")
    parser.add_argument("--figure", choices=FIGURE_KINDS, help="run a figure kind with its default config")
    parser.add_argument("--out", type=Path, default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    args = parser.parse_args(argv)

    try:
        if (args.config is None) == (args.figure is None):
            raise ConfigError("give one of --config or --figure; --figure takes no --config file")
        if args.out is None:
            raise ConfigError("--out is required")
        if args.figure is not None:
            config = {"kind": args.figure}
        else:
            try:
                text = Path(args.config).read_text(encoding="utf-8")
            except UnicodeDecodeError as exc:
                raise ConfigError(f"{args.config} is not UTF-8 text: {exc}") from exc
            try:
                config = json.loads(text, object_pairs_hook=_object)
            except RecursionError as exc:
                raise ConfigError(f"{args.config} nests deeper than the JSON parser can read") from exc
            except ValueError as exc:  # a JSONDecodeError, or an integer literal past sys.get_int_max_str_digits()
                raise ConfigError(str(exc)) from exc
        if args.seed is not None and isinstance(config, dict):
            config["seed"] = args.seed  # allowed where the kind's table reads seed (tomo)
        run_scenario(config, args.out)
    except ConfigError as exc:
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
