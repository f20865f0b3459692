"""The benchmark's workloads: the CLI calls of one pass, made from the
workload seed, and the checks of the outputs they leave.

A pass is a fixed list of operations. Each operation is one call of
`resomem.cli.run_scenario` or `resomem.cli.emit_figure_data`, writing into its
own output directory, exactly as `resomem --config/--figure` would.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import reference as ref

GAMMA0 = 2 * math.pi * 1.5e6
T1 = 2.3e-6
TPHI = 0.96e-6
S = -1
ALPHA_BAND = (0.9, 1.1)
TOMO_PHASES_DEG = [0, 30, 60, 90, 120, 150]
TOMO_DIM = 20
# The number of ML iterations before the plateau rule stops depends on the
# samples (160-300 were seen), so the sampling seed is fixed and the workload
# seed does not reach it; run.py --tomo-seed 2 confirms a claim.
TOMO_SEED = 1
WINDOW = [-0.1, 0.1]


@dataclass(frozen=True)
class Op:
    """One CLI call: a scenario config, or a figure kind."""

    name: str
    config: dict | None = None
    figure: str | None = None

    def run(self, cli, outdir: Path) -> Path:
        # looked up on the module at call time, so the traced run sees them
        if self.figure is not None:
            return cli.emit_figure_data(self.figure, outdir)
        return cli.run_scenario(dict(self.config), outdir)


@dataclass(frozen=True)
class Workload:
    name: str
    ops: list
    check: Callable[[Path, set], list]  # (pass output root, failed op names) -> failures


def _alpha(rng: random.Random) -> float:
    return round(rng.uniform(*ALPHA_BAND), 6)


def _checked(root: Path, failed: set, named_checks: dict) -> list:
    """Run each operation's check on its output directory, skipping failed
    operations; an output that cannot be read fails its check."""
    out = []
    for name, check in named_checks.items():
        if name in failed:
            continue
        try:
            out += check(root / name)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            out.append(f"{name}: unreadable output: {exc!r}")
    return out


def breed_ideal(seed: int, tomo_seed: int = TOMO_SEED) -> Workload:
    rng = random.Random(seed)
    alphas = {"cat": _alpha(rng), "gkp": _alpha(rng)}
    ops = [
        Op(f"breed_{p}", {"kind": "breed", "protocol": p, "steps": 3, "alpha": a, "s": S, "dim": 80})
        for p, a in alphas.items()
    ]

    def check(root: Path, failed: set) -> list:
        return _checked(root, failed, {
            f"breed_{p}": lambda d, p=p, a=a: checks.check_breeding(d / "breeding.csv", p, 3, a, S)
            for p, a in alphas.items()
        })

    return Workload("breed-ideal", ops, check)


def tomo_roundtrip(seed: int, tomo_seed: int = TOMO_SEED) -> Workload:
    states = {
        "tomo_squeezed": (
            {"type": "squeezed_single_photon", "alpha": 1.0, "dim": TOMO_DIM},
            ref.fock_squeezed_single_photon(ref.squeezing_for_cat(1.0), TOMO_DIM),
        ),
        "tomo_cat": ({"type": "cat", "alpha": 1.0, "s": S, "dim": TOMO_DIM}, ref.fock_cat(1.0, S, TOMO_DIM)),
        "tomo_fock": ({"type": "fock", "n": 1, "dim": TOMO_DIM}, ref.fock_number(1, TOMO_DIM)),
    }
    ops = [
        Op(name, {"kind": "tomo", "state": spec, "phases_deg": TOMO_PHASES_DEG, "n_frames": 20000,
                  "dim": TOMO_DIM, "seed": tomo_seed})
        for name, (spec, _) in states.items()
    ]

    def check(root: Path, failed: set) -> list:
        return _checked(root, failed, {
            name: lambda d, amp=amp: checks.check_tomo(d, amp, TOMO_PHASES_DEG)
            for name, (_, amp) in states.items()
        })

    return Workload("tomo-roundtrip", ops, check)


def store_readout(seed: int, tomo_seed: int = TOMO_SEED) -> Workload:
    rng = random.Random(seed)
    Tf = round(rng.uniform(0.3, 0.7), 6)
    alpha_window = _alpha(rng)
    alpha_wigner = _alpha(rng)
    pulse = {"kind": "pulse", "gamma0": GAMMA0}
    ops = [
        Op("pulse_write", {**pulse, "wavepacket": "exp_rising"}),
        Op("pulse_read", {**pulse, "wavepacket": "exp_decaying"}),
        Op("pulse_entangle", {**pulse, "wavepacket": "time_bin", "Tf": Tf}),
        Op("breed_window", {"kind": "breed", "protocol": "gkp", "steps": 2, "alpha": alpha_window, "s": S,
                            "dim": 60, "window": WINDOW}),
        Op("store", {"kind": "store", "T1": T1, "Tphi": TPHI, "times": [0, 0.2e-6, 0.4e-6, 0.8e-6, 1.6e-6],
                     "state": {"type": "fock", "n": 1, "dim": 20}}),
        Op("wigner_gkp", {"kind": "wigner", "state": {"type": "bred", "protocol": "gkp", "steps": 1,
                                                      "alpha": alpha_wigner, "s": S, "dim": 40}}),
        Op("fig3e", figure="fig3e"),
        Op("fig4d", figure="fig4d"),
    ]

    def check_fig4d(d: Path) -> list:
        out = []
        for protocol in ("cat", "gkp"):
            bred_parity = ref.breeding_rows(protocol, 1, 1.0, S)[1, 2]
            out += checks.check_wigner(d / f"{protocol}_input.csv", parity=ref.cat(1.0, S).parity())
            out += checks.check_wigner(d / f"{protocol}_bred.csv", parity=bred_parity,
                                       negative_regions=2 if protocol == "gkp" else None)
            out += checks.check_wigner(d / f"{protocol}_stored.csv")
        return out

    def check(root: Path, failed: set) -> list:
        return _checked(root, failed, {
            "pulse_write": lambda d: checks.check_pulse(d, "exp_rising", 0.0, GAMMA0),
            "pulse_read": lambda d: checks.check_pulse(d, "exp_decaying", 0.0, GAMMA0),
            "pulse_entangle": lambda d: checks.check_pulse(d, "time_bin", Tf, GAMMA0),
            "breed_window": lambda d: checks.check_windowed_breeding(
                d / "breeding.csv", "gkp", alpha_window, S, WINDOW),
            "store": lambda d: checks.check_store(d, T1),
            "wigner_gkp": lambda d: checks.check_wigner(
                d / "wigner.csv", parity=ref.breeding_rows("gkp", 1, alpha_wigner, S)[1, 2], negative_regions=2),
            "fig3e": lambda d: checks.check_fig3e(d, T1, TPHI),
            "fig4d": check_fig4d,
        })

    return Workload("store-readout", ops, check)


WORKLOADS = {
    "breed-ideal": breed_ideal,
    "tomo-roundtrip": tomo_roundtrip,
    "store-readout": store_readout,
}
