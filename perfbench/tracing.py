"""Span tracing for the traced run, from outside the program.

Each traced function is replaced, at the module attribute its caller looks
up, by a wrapper that records a span (name, start, end, parent, pass). The
program's modules import names directly, so `cli` calls its own
`run_breeding` and `breeding` calls its own `beamsplitter_apply`; those are
the attributes patched here. Spans stay in memory and are written out once,
when the run ends. A layer's self time is its span's duration minus the
durations of its child spans (calls are sequential, so children never
overlap).
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
from collections import defaultdict
from pathlib import Path
from time import perf_counter


def _csv_bytes(tracer, result, args):
    tracer.count("cli.csv_bytes", Path(args[0]).stat().st_size)


def _frames(tracer, result, args):
    tracer.count("tomo.frames", len(result))


def _grid_points(tracer, result, args):
    tracer.count("wigner.grid_points", result.w.size)


# (module, attribute, span name, counter run on the result)
TARGETS = [
    ("resomem.cli", "run_scenario", "cli.run_scenario", None),
    ("resomem.cli", "emit_figure_data", "cli.emit_figure_data", None),
    ("resomem.cli", "write_csv", "cli.write_csv", _csv_bytes),
    ("resomem.cli", "write_wigner_csv", "cli.write_wigner_csv", _csv_bytes),
    ("resomem.cli", "write_manifest", "cli.write_manifest", None),
    ("resomem.cli", "run_breeding", "breeding.run_breeding", None),
    ("resomem.cli", "theoretical_bred_state", "breeding.theoretical_bred_state", None),
    ("resomem.breeding", "breed_step", "breeding.breed_step", None),
    ("resomem.breeding", "gkp_stabilizer_expectation", "breeding.gkp_stabilizer_expectation", None),
    ("resomem.breeding", "beamsplitter_apply", "gates.beamsplitter_apply", None),
    ("resomem.breeding", "homodyne_project", "gates.homodyne_project", None),
    ("resomem.breeding", "window_condition", "gates.window_condition", None),
    ("resomem.breeding", "cat_state", "fock.constructors", None),
    ("resomem.cli", "cat_state", "fock.constructors", None),
    ("resomem.cli", "fock_basis_state", "fock.constructors", None),
    ("resomem.cli", "squeezed_single_photon", "fock.constructors", None),
    ("resomem.cli", "vacuum", "fock.constructors", None),
    ("resomem.fock", "squeezed_vacuum", "fock.constructors", None),
    ("resomem.cli", "fidelity", "fock.fidelity", None),
    ("resomem.cli", "sample_homodyne", "tomo.sample_homodyne", _frames),
    ("resomem.cli", "mle_reconstruct", "tomo.mle_reconstruct", None),
    ("resomem.tomo", "marginal", "wigner.marginal", None),
    ("resomem.cli", "wigner_grid", "wigner.wigner_grid", _grid_points),
    ("resomem.cli", "negative_region_count", "wigner.negative_region_count", None),
    ("resomem.cli", "standard_wavepacket", "memory.standard_wavepacket", None),
    ("resomem.cli", "write_pulse", "memory.pulse_design", None),
    ("resomem.cli", "read_pulse", "memory.pulse_design", None),
    ("resomem.cli", "entangle_pulse", "memory.pulse_design", None),
    ("resomem.cli", "simulate_network", "memory.simulate_network", None),
    ("resomem.cli", "evolve_closed_form", "noise.evolve_closed_form", None),
    ("resomem.cli", "fit_T1", "noise.fits", None),
    ("resomem.cli", "fit_Tphi", "noise.fits", None),
]

# layers whose calls are reported, besides their self time
CALLS_REPORTED = [
    "cli.write_csv",
    "gates.beamsplitter_apply",
    "gates.homodyne_project",
    "gates.window_condition",
    "breeding.breed_step",
    "breeding.gkp_stabilizer_expectation",
    "fock.fidelity",
    "tomo.sample_homodyne",
    "tomo.mle_reconstruct",
    "wigner.marginal",
    "wigner.wigner_grid",
    "memory.simulate_network",
    "noise.evolve_closed_form",
]
COUNTS = {"cli.csv_bytes": "B", "tomo.frames": "count", "wigner.grid_points": "count"}
SPAN_NAMES = sorted({t[2] for t in TARGETS})


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, pass]
        self.counts = defaultdict(int)  # (pass, name) -> count
        self.pass_index = 0
        self._stack = []
        self._originals = []

    def count(self, name: str, n: int):
        self.counts[self.pass_index, name] += int(n)

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.pass_index]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if counter is not None:
                counter(self, result, args)
            return result

        return traced

    def install(self):
        for module, attr, name, counter in TARGETS:
            mod = importlib.import_module(module)
            original = getattr(mod, attr)
            self._originals.append((mod, attr, original))
            setattr(mod, attr, self._wrap(original, name, counter))

    def uninstall(self):
        for mod, attr, original in reversed(self._originals):
            setattr(mod, attr, original)
        self._originals.clear()

    def per_pass(self) -> dict:
        """pass -> {span name: (self seconds, calls)} and counts."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        passes = defaultdict(lambda: {n: [0.0, 0] for n in SPAN_NAMES})
        for i, (name, start, end, _, p) in enumerate(self.spans):
            passes[p][name][0] += end - start - child_time[i]
            passes[p][name][1] += 1
        return passes

    def metrics(self, passes: list) -> tuple[dict, list]:
        """Per-layer metrics over the given traced passes: median self time,
        calls and counts per pass. Returns (metrics, problems); a problem is a
        call count or count that differs between passes."""
        per = self.per_pass()
        problems = []
        out = {}

        def exact(name, values):
            if len(set(values)) != 1:
                problems.append(f"{name} differs between traced passes: {values}")
            return values[0]

        for name in SPAN_NAMES:
            out[f"{name}.self_s"] = (statistics.median(per[p][name][0] for p in passes), "s")
        for name in CALLS_REPORTED:
            out[f"{name}.calls"] = (exact(name, [per[p][name][1] for p in passes]), "count")
        for name, unit in COUNTS.items():
            out[name] = (exact(name, [self.counts[p, name] for p in passes]), unit)
        bs, steps = out["gates.beamsplitter_apply.calls"][0], out["breeding.breed_step.calls"][0]
        out["breeding.beamsplitter_per_step"] = (bs / steps if steps else 0.0, "ratio")
        mle = out["tomo.mle_reconstruct.self_s"][0]
        out["tomo.frames_per_s"] = (out["tomo.frames"][0] / mle if mle else 0.0, "1/s")
        return out, problems

    def write(self, path: Path):
        keys = ("name", "start", "end", "parent", "pass")
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]) + "\n")
