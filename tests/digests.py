"""Run the one list of CLI runs and the one list of refused CLI runs, check
the run contracts on each, and print the manifest `files` digests and the
refusal lines as sorted JSON.

    PYTHONPATH=src python -W error::RuntimeWarning tests/digests.py > digests.json

The runs are the default config {"kind": K} of every scenario kind (a figure
kind through `resomem --figure K`), so a new kind joins by itself; the
CONFIGS below; and every operation of the benchmark's store-readout and
tomo-roundtrip workloads at workload seeds 1 and 2 (`perfbench/workloads.py`,
imported by path and used as is). Each run must keep the contracts the README
promises of every run, or the script names it on stderr and exits 1:
- its manifest's `config`, written to a file, reruns through `resomem
  --config` (`cli.main`) to the same `files` digests and the same config
- it loads no scipy module, even with scipy installed: numpy is enough
- it raises nothing, a RuntimeWarning included when the interpreter makes
  that an error (`-W` or `PYTHONWARNINGS` `error::RuntimeWarning`)

The REFUSED below are the runs `resomem` must refuse: malformed files,
flags and configs, and configs its numeric guards stop. Each runs through
`cli.main` with stdout and stderr captured and must exit with its code (2
config error, 3 numeric error), print nothing but one stderr line of at most
MAX_LINE characters that starts with its code's prefix and matches its regex,
write no `--out`, load no scipy and raise nothing; it prints as
`refused/<name>`: the exit code and the line, with its temporary directory
written as <tmp>. A name is `<kind>/...`, `<kind>/<state type>_...` for a
state's refusal, or `main/...` for one that reaches no kind, and every kind
and state type has one.

Each run writes into a temporary directory, so the printed JSON is the whole
output: two source trees, hash seeds or BLAS thread counts write the same CSV
bytes exactly when they print the same JSON. The program is the `resomem` on
the import path, so `PYTHONPATH=<other tree>/src` prints that tree's side.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import sys
import tempfile
import traceback
from functools import partial
from pathlib import Path

import resomem.cli as cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = ("store-readout", "tomo-roundtrip")
SEEDS = (1, 2)
# configs that reach paths no default and no workload operation reaches
CONFIGS = {
    "breed_window": {"kind": "breed", "window": [-0.1, 0.1]},
    "store_T1_inf": {"kind": "store", "T1": math.inf},  # recorded as "Infinity"
    "tomo_capped": {"kind": "tomo", "state": {"type": "fock", "n": 1, "dim": 12}, "n_frames": 3000, "dim": 12,
                    "iterations": 30, "seed": 5},  # stops short of the certified optimum, and warns
    "tomo_repeated_phase": {"kind": "tomo", "state": {"type": "cat", "alpha": 1.0, "s": -1, "dim": 20},
                            "phases_deg": [150, 0, 60, 0, 90], "n_frames": 20000, "dim": 20},
    # intermediate values leave the float range, and the run still writes finite numbers
    "pulse_gamma0_1e300": {"kind": "pulse", "gamma0": 1e300},  # rates near 1e302, a time step near 1e-303 s
    # e^{gamma0 t / 2} reaches e^500
    "pulse_long_time_bin": {"kind": "pulse", "wavepacket": "time_bin", "t0": 1000, "Tf": 0.5},
    "store_times_1e305": {"kind": "store", "times": [0, 1e305]},  # the damping and dephasing exponents overflow
    # every sample of the analytic output mode underflows: its exponents are shifted to peak at 0
    "pulse_Tf_1e-12": {"kind": "pulse", "wavepacket": "exp_decaying", "Tf": 1e-12},
    "pulse_three_points": {"kind": "pulse", "wavepacket": "time_bin", "points": 3, "t0": 0.5, "Tf": 1e-4},
    "pulse_Tf_1e-300": {"kind": "pulse", "wavepacket": "time_bin", "Tf": 1e-300},
}

# characters of a refusal's stderr line, its prefix included; the longest is
# 177, the unknown-kind line that lists every kind, so a new kind fits
MAX_LINE = 240
PREFIX = {2: "config error: ", 3: "numeric error: "}
CONFIG, OUT = "<config>", "<out>"  # in an argv, the paths of the config file and of --out
RUN = ("--config", CONFIG, "--out", OUT)
# name -> (config file: a JSON value, its raw text (str or bytes), or None for
# no file; exit code; regex its stderr line must match; argv, RUN if left out)
REFUSED = {
    # flags, and files that hold no config
    "main/no_config_or_figure": (None, 2, r"give one of --config or --figure", ("--out", OUT)),
    "main/figure_and_config": ({"kind": "rates"}, 2, r"--figure takes no --config",
                               ("--figure", "fig3e", "--config", CONFIG, "--out", OUT)),
    "main/no_out": ({"kind": "validate"}, 2, r"--out is required$", ("--config", CONFIG)),
    "main/not_utf8": (b"\xff\xfe{", 2, r"^config error: <tmp>/config\.json is not UTF-8 text: "),
    "main/malformed": ('{"kind": ', 2, r"^config error: Expecting value: line 1 column 10 \(char 9\)$"),
    "main/deep_nesting": ("[" * 100000, 2, r"^config error: <tmp>/config\.json nests deeper than the JSON parser"),
    "main/integer_5000_digits": ('{"kind": "tomo", "seed": ' + "9" * 5000 + "}", 2,
                                 r"integer string conversion: value has 5000 digits"),
    "main/duplicate_kind": ('{"kind": "tomo", "kind": "store"}', 2, r"key 'kind' is given twice in one object$"),
    "main/not_an_object": ([1, 2], 2, r"config must be a JSON object$", (*RUN, "--seed", "2")),
    "main/unknown_kind": ({"kind": "nope"}, 2, r"unknown scenario kind 'nope'; expected one of \['breed', "),
    "main/kind_list": ({"kind": [1]}, 2, r"unknown scenario kind \[1\]; expected"),
    "main/kind_object": ({"kind": {}}, 2, r"unknown scenario kind \{\}; expected"),
    # seed is a tomo key
    "validate/seed": ({"kind": "validate", "seed": 1}, 2, r"unknown keys for validate: \['seed'\]"),
    "validate/seed_flag": ({"kind": "validate"}, 2, r"unknown keys for validate: \['seed'\]", (*RUN, "--seed", "3")),
    "edfig_rates/seed_flag": (None, 2, r"unknown keys for edfig_rates: \['seed'\]",
                              ("--figure", "edfig_rates", "--seed", "3", "--out", OUT)),
    "edfig_fidelity/seed": ({"kind": "edfig_fidelity", "seed": 1}, 2, r"unknown keys for edfig_fidelity: \['seed'\]"),
    "breed/seed": ({"kind": "breed", "seed": [1]}, 2, r"unknown keys for breed: \['seed'\]"),
    # keys and values a table refuses
    "breed/unknown_key": ({"kind": "breed", "bogus_key": 1}, 2, r"unknown keys for breed: \['bogus_key'\]; it reads"),
    "breed/10000_unknown_keys": ({"kind": "breed", **{f"k{i}": 0 for i in range(10000)}}, 2,
                                 r"unknown keys for breed: \['k0', 'k1', .*, \.\.\.\]; it reads \['alpha', "),
    "breed/alpha_str": ({"kind": "breed", "alpha": "abc"}, 2, r"breed alpha must be a finite number >= 0, got 'abc'$"),
    "breed/alpha_100000_chars": ({"kind": "breed", "alpha": "a" * 100000}, 2,
                                 r"breed alpha must be .*, got 'a+\.\.\.a+'$"),
    "breed/window_one": ({"kind": "breed", "window": [1]}, 2, r"breed window must be null or a list \[lo, hi\]"),
    "breed/window_reversed": ({"kind": "breed", "window": [0.1, -0.1]}, 2,
                              r"breed window must be .*, got \[0\.1, -0\.1\]$"),
    # windows must stay on the +-12 projection grid; these ran out of memory
    "breed/window_1e300": ({"kind": "breed", "protocol": "gkp", "alpha": 1.0, "dim": 40, "window": [-1e300, 1e300]},
                           2, r"breed window must be .*, got \[-1e\+300, 1e\+300\]$"),
    "breed/window_1e12": ({"kind": "breed", "protocol": "gkp", "alpha": 1.0, "dim": 40, "window": [0, 1e12]},
                          2, r"breed window must be .*, got \[0, 1000000000000\.0\]$"),
    "breed/window_past_bound": ({"kind": "breed", "window": [-12.5, 0]}, 2,
                                r"breed window must be .*, got \[-12\.5, 0\]$"),
    "breed/steps_0": ({"kind": "breed", "steps": 0}, 2, r"breed steps must be an integer in \[1, 64\], got 0$"),
    "breed/steps_1e30": ({"kind": "breed", "steps": 10**30}, 2, r"breed steps must be .*, got 10{30}$"),
    "breed/s_0": ({"kind": "breed", "s": 0}, 2, r"breed s must be -1 or 1, got 0$"),
    "store/times_str": ({"kind": "store", "times": "x"}, 2, r"store times must be a list of 1 to 1000 .*, got 'x'$"),
    "store/T1_0": ({"kind": "store", "T1": 0}, 2, r"store T1 must be a positive number or Infinity, got 0$"),
    "wigner/xs_one": ({"kind": "wigner", "xs": [0]}, 2, r"wigner xs must be a list of 2 to 2001 .*, got \[0\]$"),
    "wigner/xs_decreasing": ({"kind": "wigner", "state": {"type": "fock", "n": 1}, "xs": [5, 0, -5]}, 2,
                             r"wigner xs must be .*increasing.*, got \[5, 0, -5\]$"),
    "wigner/xs_uneven": ({"kind": "wigner", "state": {"type": "fock", "n": 1}, "xs": [-5, -4.9, 5]}, 2,
                         r"wigner xs must be .*evenly spaced, got \[-5, -4\.9, 5\]$"),
    "wigner/ps_repeated": ({"kind": "wigner", "ps": [-5, -5, 5]}, 2, r"wigner ps must be .*, got \[-5, -5, 5\]$"),
    "wigner/xs_3000_points": ({"kind": "wigner", "xs": list(range(3000))}, 2,
                              r"wigner xs must be a list of 2 to 2001 .*, got \[0, 1, 2, 3, 4, 5, \.\.\.\]$"),
    "wigner/state_null": ({"kind": "wigner", "state": None}, 2, r"wigner state must be an object, got None$"),
    "wigner/state_type_list": ({"kind": "wigner", "state": {"type": [1]}}, 2,
                               r"state must be an object with a type in \['bred', 'cat', "),
    "wigner/cat_unknown_key": ({"kind": "wigner", "state": {"type": "cat", "nope": 2}}, 2,
                               r"unknown keys for cat state: \['nope'\]"),
    "wigner/cat_no_alpha": ({"kind": "wigner", "state": {"type": "cat"}}, 2, r"cat state needs alpha$"),
    "wigner/cat_duplicate_alpha": ('{"kind": "wigner", "state": {"type": "cat", "alpha": 1.0, "alpha": 2.0}}', 2,
                                   r"key 'alpha' is given twice in one object$"),
    "wigner/fock_n_-1": ({"kind": "wigner", "state": {"type": "fock", "n": -1}}, 2,
                         r"fock state n must be an integer >= 0, got -1$"),
    "wigner/vacuum_dim_1e20": ({"kind": "wigner", "state": {"type": "vacuum", "dim": 10**20}}, 2,
                               r"vacuum state dim must be an integer in \[2, 300\], got 10{20}$"),
    "wigner/bred_steps_1e30": ({"kind": "wigner", "state": {"type": "bred", "protocol": "gkp", "steps": 10**30,
                                                             "alpha": 1.0}}, 2,
                               r"bred state steps must be .*, got 10{30}$"),
    "tomo/squeezed_single_photon_no_r": ({"kind": "tomo", "state": {"type": "squeezed_single_photon", "dim": 20}}, 2,
                                         r"squeezed_single_photon state needs r or alpha$"),
    "tomo/bred_no_steps": ({"kind": "tomo", "state": {"type": "bred", "protocol": "gkp", "alpha": 1.0}}, 2,
                           r"bred state needs steps$"),
    "tomo/n_frames_10": ({"kind": "tomo", "n_frames": 10}, 2,
                         r"tomo n_frames must be an integer in \[1000, 10000000\]"),
    "tomo/n_frames_str": ({"kind": "tomo", "n_frames": "many"}, 2, r"tomo n_frames must be .*, got 'many'$"),
    "tomo/n_frames_1e30": ({"kind": "tomo", "n_frames": 10**30}, 2, r"tomo n_frames must be .*, got 10{30}$"),
    "tomo/dim_31": ({"kind": "tomo", "n_frames": 2000, "dim": 31}, 2,
                    r"tomo dim must be an integer in \[2, 30\], got 31$"),
    "tomo/dim_1": ({"kind": "tomo", "n_frames": 2000, "dim": 1}, 2, r"tomo dim must be .*, got 1$"),
    "tomo/iterations_0": ({"kind": "tomo", "n_frames": 2000, "iterations": 0}, 2,
                          r"tomo iterations must be an integer >= 1, got 0$"),
    "tomo/iterations_-5": ({"kind": "tomo", "n_frames": 2000, "iterations": -5}, 2,
                           r"tomo iterations must be .*, got -5$"),
    "tomo/seed_-1": ({"kind": "tomo", "n_frames": 2000, "seed": -1}, 2, r"tomo seed must be an integer >= 0, got -1$"),
    "tomo/phases_deg_empty": ({"kind": "tomo", "n_frames": 2000, "phases_deg": []}, 2,
                              r"tomo phases_deg must be a list of 1 to 180 finite numbers, got \[\]$"),
    "tomo/phases_deg_str": ({"kind": "tomo", "n_frames": 2000, "phases_deg": [0, "x"]}, 2,
                            r"tomo phases_deg must be .*, got \[0, 'x'\]$"),
    "tomo/phases_deg_nan": ({"kind": "tomo", "n_frames": 2000, "phases_deg": [0, math.nan]}, 2,
                            r"tomo phases_deg must be .*, got \[0, nan\]$"),
    "pulse/dt_factor": ({"kind": "pulse", "dt_factor": 1e-3}, 2, r"unknown keys for pulse: \['dt_factor'\]"),
    "pulse/points_str": ({"kind": "pulse", "points": "x"}, 2, r"pulse points must be .*, got 'x'$"),
    "pulse/points_1": ({"kind": "pulse", "points": 1}, 2, r"pulse points must be an integer in \[3, 1000000\], got 1$"),
    "pulse/points_1e30": ({"kind": "pulse", "points": 10**30}, 2, r"pulse points must be .*, got 10{30}$"),
    "pulse/wavepacket_square": ({"kind": "pulse", "wavepacket": "square"}, 2,
                                r"pulse wavepacket must be .*, got 'square'$"),
    "pulse/gamma0_0": ({"kind": "pulse", "gamma0": 0}, 2, r"pulse gamma0 must be a finite number > 0, got 0$"),
    "pulse/Tf_1": ({"kind": "pulse", "wavepacket": "time_bin", "Tf": 1.0}, 2, r"pulse Tf must be .*, got 1\.0$"),
    "pulse/Tf_exp_rising": ({"kind": "pulse", "wavepacket": "exp_rising", "Tf": 0.5}, 2,
                            r"pulse Tf is read only where wavepacket is 'exp_decaying' or 'time_bin', "
                            r"not 'exp_rising'$"),
    "pulse/Tf_default_wavepacket": ({"kind": "pulse", "Tf": 0.5}, 2, r"pulse Tf is read only .*, not 'exp_rising'$"),
    "pulse/t0_exp_decaying": ({"kind": "pulse", "wavepacket": "exp_decaying", "t0": 1.0}, 2,
                              r"pulse t0 is read only where wavepacket is 'time_bin', not 'exp_decaying'$"),
    "pulse/span_time_bin": ({"kind": "pulse", "wavepacket": "time_bin", "span": 10.0}, 2,
                            r"pulse span is read only where wavepacket is .*, not 'time_bin'$"),
    "rates/k_list_str": ({"kind": "rates", "k_list": ["a"]}, 2, r"rates k_list must be .*, got \['a'\]$"),
    "rates/k_list_negative": ({"kind": "rates", "k_list": [-1.0]}, 2, r"rates k_list must be .*, got \[-1\.0\]$"),
    "rates/p1_str": ({"kind": "rates", "p1": "x"}, 2, r"rates p1 must be .*, got 'x'$"),
    "rates/p1_1.5": ({"kind": "rates", "p1": 1.5}, 2, r"rates p1 must be a number in \[0, 1\], got 1\.5$"),
    "rates/n_max_-1": ({"kind": "rates", "n_max": -1}, 2, r"rates n_max must be .*, got -1$"),
    "rates/n_max_65": ({"kind": "rates", "n_max": 65}, 2, r"rates n_max must be an integer in \[1, 64\], got 65$"),
    "rates/sources_str": ({"kind": "rates", "sources": ["r0"]}, 2,
                          r"rates sources must be a list of at most 1000 objects with keys r0, delta and r_bs"),
    "rates/sources_no_delta": ({"kind": "rates", "sources": [{"r0": 1e5}]}, 2, r"sources\[0\] needs delta$"),
    **{f"rates/sources_r0_{name}": ({"kind": "rates", "sources": [{"r0": r0, "delta": 1e6, "r_bs": 10}]}, 2,
                                    r"sources\[0\] r0 must be a finite number > 0, got " + got)
       for name, r0, got in (("null", None, "None$"), ("true", True, "True$"), ("1e400", 10**400, r"10+\.\.\.0+$"))},
    # each source is checked key by key, and the message names the source and the key
    **{f"{kind}/sources_{name}": ({"kind": kind, "sources": [{"r0": 2e5, "delta": 1.2e8, "r_bs": 0}, source]}, 2,
                                  message) for kind in ("rates", "edfig_rates") for name, source, message in (
        ("misspelled_key", {"r0": 4e3, "delta": 3e6, "rbs": 20}, r"unknown keys for sources\[1\]: \['rbs'\]"),
        ("negative_r_bs", {"r0": 4e3, "delta": 3e6, "r_bs": -5}, r"sources\[1\] r_bs must be .* >= 0, got -5$"),
        ("negative_r0", {"r0": -1, "delta": 3e6, "r_bs": 20}, r"sources\[1\] r0 must be .* > 0, got -1$"),
        ("zero_delta", {"r0": 4e3, "delta": 0, "r_bs": 20}, r"sources\[1\] delta must be .* > 0, got 0$"))},
    # numeric guards: limits that couple keys, and values that leave the float range
    "breed/alpha_5_dim_20": ({"kind": "breed", "alpha": 5.0, "dim": 20}, 3,
                             r"dim=20 too small for amplitude 7\.07107 \(need >= 102\.4\)$"),
    "breed/alpha_1e300": ({"kind": "breed", "alpha": 1e300, "dim": 40}, 3,
                          r"dim=40 too small for amplitude 1\.41421e\+300 \(need >= inf\)$"),
    # sqrt(steps + 1) * alpha overflows
    "breed/alpha_1.7e308_steps_3": ({"kind": "breed", "alpha": 1.7e308, "steps": 3}, 3,
                                    r"dim=60 too small for amplitude inf \(need >= inf\)$"),
    # |alpha|^2 leaves the float range: the truncation guard refuses before squaring
    **{f"{kind}/cat_alpha_1e160": ({"kind": kind, "state": {"type": "cat", "alpha": 1e160, "dim": dim}}, 3,
                                   rf"dim={dim} too small for amplitude 1e\+160 \(need >= inf\)$")
       for kind, dim in (("wigner", 40), ("tomo", 20), ("store", 20))},
    "fig4d/alpha_1e160": ({"kind": "fig4d", "alpha": 1e160}, 3,
                          r"dim=40 too small for amplitude 1e\+160 \(need >= inf\)$"),
    "wigner/squeezed_single_photon_alpha_1e300": (
        {"kind": "wigner", "state": {"type": "squeezed_single_photon", "alpha": 1e300, "dim": 40}}, 3,
        r"alpha=1e\+300 is too large: alpha\*\*2 overflows$"),
    # dim 20 drops 0.25 of S(1.5)|1>, and all of S(1000)|1>, whose cosh r overflows
    "tomo/squeezed_single_photon_r_1.5": ({"kind": "tomo", "state": {"type": "squeezed_single_photon", "r": 1.5,
                                                                      "dim": 20}}, 3, r"drops weight 2\.53e-01 "),
    "tomo/squeezed_single_photon_r_1e3": ({"kind": "tomo", "state": {"type": "squeezed_single_photon", "r": 1e3,
                                                                      "dim": 20}}, 3, r"drops weight 1\.00e\+00 "),
    # rho22 underflows to 0 before rho02 does
    "fig3e/T1_1e-9": ({"kind": "fig3e", "T1": 1e-9}, 3, r"zero \(0,2\) coherence; R undefined$"),
    # r0**2 underflows to 0, and overflows
    "rates/r0_squared_underflows": ({"kind": "rates", "sources": [{"r0": 1e-200, "delta": 1, "r_bs": 1}]}, 3,
                                    r"leaves the float range for r0=1e-200, delta=1\.0$"),
    "rates/r0_squared_overflows": ({"kind": "rates", "sources": [{"r0": 1e200, "delta": 1e300, "r_bs": 1}]}, 3,
                                   r"leaves the float range for r0=1e\+200, delta=1e\+300$"),
    # the axes pass their check, but W leaves the float range on them
    "wigner/axes_1e300": ({"kind": "wigner", "state": {"type": "fock", "n": 1, "dim": 12}, "xs": [-1e300, 0, 1e300],
                           "ps": [-1e300, 0, 1e300]}, 3, r"Wigner function not finite on the grid"),
    # these axes reach past the state, but neither spans it: W would be ~3e-75 everywhere
    "wigner/axes_miss": ({"kind": "wigner", "state": {"type": "cat", "alpha": 1.0, "dim": 40},
                          "xs": list(range(-60, -9)), "ps": list(range(-60, -9))}, 3,
                         r"grid does not cover the state support \(need an axis spanning \[-3\.6, 3\.6\]\)$"),
    # one sample holds the whole wavepacket: its read pulse would leave 0.37, not 0
    **{f"pulse/grid_{name}": (config, 3, r"grid step .* s is longer than 1/gamma0 = 1\.06e-07 s$") for name, config in (
        ("span_1e300", {"kind": "pulse", "wavepacket": "exp_decaying", "span": 1e300}),
        ("t0_1e300", {"kind": "pulse", "wavepacket": "time_bin", "t0": 1e300}),
        ("points_3", {"kind": "pulse", "points": 3}))},
}


class BrokenContract(Exception):
    """A run that exits nonzero, reruns to other bytes or loads scipy, or a
    refused run that is refused otherwise than its entry says."""


def _main(*args) -> None:
    """`resomem` with `args`, in this process; a nonzero exit raises."""
    code = cli.main([str(a) for a in args])
    if code:
        raise BrokenContract(f"resomem {' '.join(map(str, args))} exited {code}")


def runs():
    """(run name, a function that writes the run into the directory it is given) for every run."""
    sys.path.insert(0, str(PERFBENCH))  # workloads.py imports checks.py and reference.py beside it
    import workloads

    for kind in sorted(cli._SCENARIOS):
        if kind in cli.FIGURE_KINDS:
            yield f"default/{kind}", lambda out, kind=kind: _main("--figure", kind, "--out", out)
        else:
            yield f"default/{kind}", lambda out, kind=kind: cli.run_scenario({"kind": kind}, out)
    for name, config in CONFIGS.items():
        yield f"config/{name}", lambda out, config=config: cli.run_scenario(dict(config), out)
    for name in WORKLOADS:
        for seed in SEEDS:
            for op in workloads.WORKLOADS[name](seed).ops:
                yield f"{name}/{seed}/{op.name}", lambda out, op=op: op.run(cli, out)


def checked(run, *, tmp: Path) -> dict:
    """Make `run` in tmp/first, rerun its manifest's config in tmp/rerun and
    check the contracts; returns the manifest's `files`."""
    run(tmp / "first")
    first = json.loads((tmp / "first" / "manifest.json").read_text())
    (tmp / "config.json").write_text(json.dumps(first["config"]))
    _main("--config", tmp / "config.json", "--out", tmp / "rerun")
    rerun = json.loads((tmp / "rerun" / "manifest.json").read_text())
    if rerun["files"] != first["files"]:
        moved = sorted({name for name, _ in first["files"].items() ^ rerun["files"].items()})
        raise BrokenContract(f"its manifest's config reruns to other bytes: {moved}")
    if rerun["config"] != first["config"]:
        raise BrokenContract(f"its rerun records the config {rerun['config']}, not {first['config']}")
    if _scipy():
        raise BrokenContract(f"it loaded {_scipy()}")
    return first["files"]


def refused(config, code: int, pattern: str, argv: tuple = RUN, *, tmp: Path) -> str:
    """Run a REFUSED entry in tmp and check its contracts; returns its exit
    code and stderr line, with tmp written as <tmp>."""
    tmp.mkdir(parents=True)
    path, out = tmp / "config.json", tmp / "out"
    if isinstance(config, bytes):
        path.write_bytes(config)
    elif config is not None:
        path.write_text(config if isinstance(config, str) else json.dumps(config))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        got = cli.main([{CONFIG: str(path), OUT: str(out)}.get(a, a) for a in argv])
    printed = stdout.getvalue() + stderr.getvalue()
    line = stderr.getvalue().replace(str(tmp), "<tmp>").removesuffix("\n")
    if got != code:
        raise BrokenContract(f"it exited {got}, not {code}: {printed[:300]!r}")
    if stdout.getvalue() or "\n" in line or not line.startswith(PREFIX[code]) or len(line) > MAX_LINE:
        raise BrokenContract(f"it printed {len(printed)} characters, not one stderr line of at most {MAX_LINE} "
                             f"that starts {PREFIX[code]!r}: {printed[:300]!r}")
    if not re.search(pattern, line):
        raise BrokenContract(f"its line {line!r} does not match {pattern!r}")
    if out.exists():
        raise BrokenContract("it wrote its --out")
    if _scipy():
        raise BrokenContract(f"it loaded {_scipy()}")
    return f"{got} {line}"


def _scipy() -> list:
    """The loaded scipy modules whose dotted names have no private part."""
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy" and "._" not in m)


def main() -> int:
    if _scipy():
        print(f"digests: import resomem.cli loaded {_scipy()}", file=sys.stderr)
        return 1
    checks = [(name, partial(checked, run)) for name, run in runs()]
    checks += [(f"refused/{name}", partial(refused, *entry)) for name, entry in REFUSED.items()]
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, (name, check) in enumerate(checks):
            try:
                digests[name] = check(tmp=Path(tmp) / str(i))
            except BrokenContract as exc:
                print(f"digests: run {name}: {exc}", file=sys.stderr)
                return 1
            except Exception as exc:  # a run that raises, a RuntimeWarning made an error among them
                traceback.print_exc()
                print(f"digests: run {name} raised {type(exc).__name__}: {exc}", file=sys.stderr)
                return 1
    print(json.dumps(digests, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
