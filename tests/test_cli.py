import contextlib
import hashlib
import importlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import resomem.cli as cli
from resomem.breeding import BreedingPlan, run_breeding
from resomem.fock import cat_state
from resomem.noise import NoiseParams, evolve_closed_form
from resomem.wigner import WignerGrid, wigner_grid

pytestmark = pytest.mark.filterwarnings("error::resomem.errors.NumericalAccuracyWarning")


@contextlib.contextmanager
def accuracy_warnings_ignored():
    """Ignore NumericalAccuracyWarning, for the runs that raise it by design.
    A test's own filterwarnings mark cannot: pytest applies the module's mark
    after it, so the module's error filter matches first."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", cli.NumericalAccuracyWarning)
        yield


def read_manifest(path):
    return json.loads(path.read_text())


def test_schema_rejects_unknown_kind_and_keys():
    with pytest.raises(cli.ConfigError):
        cli.validate_config({"kind": "bogus"})
    with pytest.raises(cli.ConfigError):
        cli.validate_config({"kind": "breed", "bogus_key": 1})
    with pytest.raises(cli.ConfigError):
        cli.validate_config({"kind": "wigner", "state": {"type": "cat", "nope": 2}})
    with pytest.raises(cli.ConfigError):
        cli.validate_config([1, 2])


def test_rates_scenario(tmp_path):
    m = cli.run_scenario({"kind": "rates"}, tmp_path)
    res = read_manifest(m)
    assert res["results"]["k_values"] == pytest.approx([0.03, 3.75])
    body = (tmp_path / "scaling.csv").read_bytes()
    assert b"\r" not in body  # LF only
    assert body.decode().splitlines()[0] == "n,k_match,p_n"


def test_validate_scenario(tmp_path):
    m = cli.run_scenario({"kind": "validate"}, tmp_path)
    checks = ["multimode_T0_0.3", "wigner_vacuum", "gkp_three_peaks"]
    assert read_manifest(m)["results"] == dict.fromkeys(checks, True)
    assert (tmp_path / "validation.csv").read_text() == "check,passed\n" + "".join(f"{c},1\n" for c in checks)


@pytest.mark.parametrize("r, dropped", [(1.5, "2.53e-01"), (1e3, "1.00e+00")])
def test_tomo_of_a_cut_squeezed_state_exits_3(tmp_path, capsys, r, dropped):
    # dim 20 drops 0.25 of S(1.5)|1>, and all of S(1000)|1>, whose cosh r
    # overflows; renormalizing the cut state hid the first
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "tomo", "state": {"type": "squeezed_single_photon", "r": r, "dim": 20}}))
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == cli.EXIT_NUMERIC
    assert f"drops weight {dropped}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_breed_scenario(tmp_path):
    m = cli.run_scenario(
        {"kind": "breed", "protocol": "gkp", "steps": 1, "alpha": 1.0, "dim": 40}, tmp_path
    )
    assert read_manifest(m)["results"]["final_fidelity"] >= 0.999


def test_store_scenario_files_and_checksums(tmp_path):
    m = cli.run_scenario({"kind": "store", "T1": 2.3e-6, "Tphi": 0.96e-6}, tmp_path)
    manifest = read_manifest(m)
    for name, digest in manifest["files"].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


def test_store_fidelity_of_pure_state_is_its_overlap(tmp_path):
    # a pure input's fidelity is <psi|rho_t|psi>, not the Uhlmann form, whose
    # square roots of rounding-noise eigenvalues cost ~1e-8
    cli.run_scenario({"kind": "store", "T1": 2.3e-6, "Tphi": 0.96e-6, "state": {"type": "cat", "alpha": 1.0, "dim": 30}},
                     tmp_path)
    table = np.loadtxt(tmp_path / "storage_fidelity.csv", delimiter=",", skiprows=1)
    psi = cat_state(1.0, -1, 30)
    params = NoiseParams(2.3e-6, 0.96e-6)
    for t, fid, _ in table:
        rho_t = evolve_closed_form(psi.to_density_matrix(), t, params)
        assert abs(fid - np.vdot(psi.amp, rho_t.rho @ psi.amp).real) <= 1e-14


def test_wigner_scenario_format(tmp_path):
    cli.run_scenario(
        {"kind": "wigner", "state": {"type": "fock", "n": 1, "dim": 12}}, tmp_path
    )
    lines = (tmp_path / "wigner.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[0] == "" and len(header) == 202
    first = lines[1].split(",")
    assert float(first[0]) == -5.0  # p value leads each row


def test_determinism_byte_identical(tmp_path):
    cfg = {"kind": "tomo", "state": {"type": "fock", "n": 1, "dim": 12}, "n_frames": 3000, "dim": 12, "iterations": 30, "seed": 5}
    d1, d2 = tmp_path / "a", tmp_path / "b"
    with accuracy_warnings_ignored():  # 30 iterations stop short of the certified optimum
        cli.run_scenario(dict(cfg), d1)
        cli.run_scenario(dict(cfg), d2)
    for f in sorted(d1.iterdir()):
        if f.name == "manifest.json":
            assert read_manifest(f)["files"] == read_manifest(d2 / f.name)["files"]
        else:
            assert f.read_bytes() == (d2 / f.name).read_bytes()


def test_main_exit_codes(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "validate"}))
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "nope"}))
    assert cli.main(["--config", str(bad), "--out", str(tmp_path / "out2")]) == 2
    assert cli.main(["--out", str(tmp_path)]) == 2
    assert cli.main(["--config", str(cfg)]) == 2
    not_object = tmp_path / "list.json"
    not_object.write_text(json.dumps([1, 2]))
    assert cli.main(["--config", str(not_object), "--out", str(tmp_path / "o"), "--seed", "2"]) == 2
    numeric = tmp_path / "numeric.json"
    numeric.write_text(json.dumps({"kind": "breed", "alpha": 5.0, "dim": 20}))
    assert cli.main(["--config", str(numeric), "--out", str(tmp_path / "out3")]) == 3
    tomo_errors = [
        {"n_frames": 10},
        {"n_frames": "many"},
        {"dim": 31},
        {"dim": 1},
        {"iterations": 0},
        {"iterations": -5},
        {"seed": -1},
        {"phases_deg": []},
        {"phases_deg": [0, "x"]},
        {"phases_deg": [0, float("nan")]},
    ]
    for i, bad_tomo in enumerate(tomo_errors):
        path = tmp_path / f"tomo{i}.json"
        path.write_text(json.dumps({"kind": "tomo", "n_frames": 2000, **bad_tomo}))
        assert cli.main(["--config", str(path), "--out", str(tmp_path / f"tomo{i}")]) == 2, bad_tomo
        assert not (tmp_path / f"tomo{i}").exists()
    config_errors = [
        {"kind": "breed", "alpha": "abc"},
        {"kind": "breed", "window": [1]},
        {"kind": "breed", "window": [0.1, -0.1]},
        # windows must stay on the +-12 projection grid; these ran out of memory
        {"kind": "breed", "protocol": "gkp", "steps": 1, "alpha": 1.0, "dim": 40, "window": [-1e300, 1e300]},
        {"kind": "breed", "protocol": "gkp", "steps": 1, "alpha": 1.0, "dim": 40, "window": [0, 1e12]},
        {"kind": "breed", "window": [-12.5, 0]},
        {"kind": "breed", "steps": 0},
        {"kind": "breed", "s": 0},
        {"kind": "store", "times": "x"},
        {"kind": "store", "T1": 0},
        {"kind": "wigner", "xs": [0]},
        {"kind": "wigner", "state": {"type": "cat"}},
        {"kind": "wigner", "state": {"type": "fock", "n": -1}},
        {"kind": "tomo", "state": {"type": "squeezed_single_photon", "dim": 20}},
        {"kind": "tomo", "state": {"type": "bred", "protocol": "gkp", "alpha": 1.0}},
        {"kind": [1]},
        {"kind": {}},
        {"kind": "wigner", "state": {"type": [1]}},
        {"kind": "wigner", "state": None},
        {"kind": "wigner", "state": {"type": "fock", "n": 1}, "xs": [5, 0, -5]},
        {"kind": "wigner", "state": {"type": "fock", "n": 1}, "xs": [-5, -4.9, 5]},
        {"kind": "wigner", "ps": [-5, -5, 5]},
        {"kind": "pulse", "wavepacket": "exp_rising", "Tf": 0.5},
        {"kind": "pulse", "Tf": 0.5},
        {"kind": "pulse", "wavepacket": "exp_decaying", "t0": 1.0},
        {"kind": "pulse", "wavepacket": "time_bin", "span": 10.0},
        {"kind": "breed", "seed": [1]},
        # sizes past their caps; at the uncapped schema these left tracebacks (exit 1)
        {"kind": "breed", "steps": 10**30},
        {"kind": "wigner", "state": {"type": "bred", "protocol": "gkp", "steps": 10**30, "alpha": 1.0}},
        {"kind": "tomo", "n_frames": 10**30},
        {"kind": "pulse", "points": 10**30},
        {"kind": "wigner", "state": {"type": "vacuum", "dim": 10**20}},
    ]
    for i, bad_config in enumerate(config_errors):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(bad_config))
        assert cli.main(["--config", str(path), "--out", str(tmp_path / f"bad{i}")]) == 2, bad_config
        assert not (tmp_path / f"bad{i}").exists()
    # r0**2 underflows to 0, and overflows
    out_of_range = [{"r0": 1e-200, "delta": 1, "r_bs": 1}, {"r0": 1e200, "delta": 1e300, "r_bs": 1}]
    for i, source in enumerate(out_of_range):
        path = tmp_path / f"range{i}.json"
        path.write_text(json.dumps({"kind": "rates", "sources": [source]}))
        assert cli.main(["--config", str(path), "--out", str(tmp_path / f"range{i}")]) == 3, source
        assert not (tmp_path / f"range{i}").exists()
    # the axes pass their check, but W leaves the float range on them
    far = tmp_path / "far.json"
    far.write_text(json.dumps({"kind": "wigner", "state": {"type": "fock", "n": 1, "dim": 12},
                               "xs": [-1e300, 0, 1e300], "ps": [-1e300, 0, 1e300]}))
    assert cli.main(["--config", str(far), "--out", str(tmp_path / "far")]) == 3
    assert not (tmp_path / "far").exists()
    # these axes reach past the state, but neither spans it: W would be ~3e-75 everywhere
    miss = tmp_path / "miss.json"
    axis = list(range(-60, -9))
    miss.write_text(json.dumps({"kind": "wigner", "state": {"type": "cat", "alpha": 1.0, "dim": 40},
                                "xs": axis, "ps": axis}))
    assert cli.main(["--config", str(miss), "--out", str(tmp_path / "miss")]) == 3
    assert not (tmp_path / "miss").exists()


@pytest.mark.parametrize("config", [
    # one sample holds the whole wavepacket: its read pulse would leave 0.37, not 0
    {"kind": "pulse", "wavepacket": "exp_decaying", "span": 1e300},
    {"kind": "pulse", "wavepacket": "time_bin", "t0": 1e300},
    {"kind": "pulse", "points": 3},
], ids=["span", "t0", "points"])
def test_pulse_grid_coarser_than_one_over_gamma0_exit_3(tmp_path, capsys, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert cli.main(["--config", str(path), "--out", str(tmp_path / "out")]) == 3
    assert "is longer than 1/gamma0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_pulse_retired_dt_factor_key_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"kind": "pulse", "dt_factor": 1e-3}))
    assert cli.main(["--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "unknown keys for pulse: ['dt_factor']" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_pulse_at_huge_gamma0_matches_nominal(tmp_path):
    # every time is in units of 1/gamma0, so only rounding separates the two
    huge = read_manifest(cli.run_scenario({"kind": "pulse", "gamma0": 1e300}, tmp_path / "huge"))["results"]
    nominal = read_manifest(cli.run_scenario({"kind": "pulse"}, tmp_path / "nominal"))["results"]
    for key in ("effective_Tf", "in_overlap", "out_overlap"):
        assert abs(huge[key] - nominal[key]) <= 1e-9, key


@pytest.mark.parametrize("config, effective", [
    # the entangle design's trapezoid error at step 0.05/gamma0, where the peak rate is 99 gamma0
    ({"kind": "pulse", "wavepacket": "exp_decaying", "Tf": 0.01, "points": 401}, 0.0031),
    # a long bin's read pulse stops short where gamma ~ 1/(t0 - t) meets the grid step
    ({"kind": "pulse", "wavepacket": "time_bin", "t0": 1000}, 0.0277),
], ids=["entangle_coarse", "read_long_time_bin"])
def test_pulse_target_miss_warns(tmp_path, config, effective):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    with pytest.warns(cli.NumericalAccuracyWarning, match=r"misses target_Tf .* grid step 5\.31e-09 s = 0\.05/gamma0"):
        assert cli.main(["--config", str(path), "--out", str(tmp_path / "out")]) == 0
    results = read_manifest(tmp_path / "out" / "manifest.json")["results"]
    assert results["effective_Tf"] == pytest.approx(effective, abs=1e-4)
    assert abs(results["effective_Tf"] - results["target_Tf"]) > cli.PULSE_TF_TOL


@pytest.mark.parametrize("Tf", [0.3, 0.5, 0.7])
def test_store_readout_pulses_do_not_warn(tmp_path, Tf):
    # the benchmark's write, read and entangle pulses (T_f drawn from [0.3, 0.7]); the read pulse
    # leaves the NORM_TRUNCATION tail (1e-6) by design, the others meet their targets to 1e-7
    configs = [{"kind": "pulse", "wavepacket": "exp_rising"}, {"kind": "pulse", "wavepacket": "exp_decaying"},
               {"kind": "pulse", "wavepacket": "time_bin", "Tf": Tf}]
    for i, config in enumerate(configs):
        with warnings.catch_warnings():
            warnings.simplefilter("error", cli.NumericalAccuracyWarning)
            results = read_manifest(cli.run_scenario(config, tmp_path / str(i)))["results"]
        assert abs(results["effective_Tf"] - results["target_Tf"]) <= (1.01e-6 if i == 1 else 1e-7), config


@pytest.mark.parametrize("config, code", [
    ({"kind": "pulse", "gamma0": 1e300}, 0),  # rates near 1e302 and a time step near 1e-303 s
    ({"kind": "pulse", "wavepacket": "time_bin", "t0": 1000, "Tf": 0.5}, 0),  # e^{gamma0 t / 2} reaches e^500
    ({"kind": "store", "times": [0, 1e305]}, 0),  # the damping and dephasing exponents overflow
    # the axes pass their check, but W leaves the float range on them
    ({"kind": "wigner", "state": {"type": "fock", "n": 1, "dim": 12}, "xs": [-1e300, 0, 1e300],
      "ps": [-1e300, 0, 1e300]}, 3),
    # |alpha|^2 leaves the float range: the truncation guard refuses before squaring
    ({"kind": "wigner", "state": {"type": "cat", "alpha": 1e160, "dim": 40}}, 3),
    ({"kind": "tomo", "state": {"type": "cat", "alpha": 1e160, "dim": 20}}, 3),
    ({"kind": "store", "state": {"type": "cat", "alpha": 1e160, "dim": 20}}, 3),
    ({"kind": "fig4d", "alpha": 1e160}, 3),
    ({"kind": "wigner", "state": {"type": "squeezed_single_photon", "alpha": 1e300, "dim": 40}}, 3),
    ({"kind": "breed", "alpha": 1e300, "dim": 40}, 3),
    ({"kind": "breed", "alpha": 1.7e308, "steps": 3}, 3),  # sqrt(steps + 1) * alpha overflows
    # every sample of the analytic output mode underflows: its exponents are shifted to peak at 0
    ({"kind": "pulse", "wavepacket": "exp_decaying", "Tf": 1e-12}, 0),
    ({"kind": "pulse", "wavepacket": "time_bin", "points": 3, "t0": 0.5, "Tf": 1e-4}, 0),
    ({"kind": "pulse", "wavepacket": "time_bin", "Tf": 1e-300}, 0),
    ({"kind": "fig3e", "T1": 1e-9}, 3),  # rho22 underflows to 0 before rho02 does
], ids=["pulse", "pulse_long_time_bin", "store", "wigner", "wigner_cat", "tomo_cat", "store_cat", "fig4d",
        "wigner_squeezed", "breed", "breed_final_amplitude", "pulse_tiny_Tf", "pulse_three_points",
        "pulse_Tf_1e-300", "fig3e_short_T1"])
def test_overflow_prints_no_runtime_warning(tmp_path, capsys, config, code):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["--config", str(path), "--out", str(tmp_path / "out")]) == code
    assert (tmp_path / "out").exists() == (code == 0)
    if code:  # one line, the amplitude printed short
        assert re.fullmatch(r"numeric error: [^\n]{,120}\n", capsys.readouterr().err)
    elif config["kind"] == "store":  # the state has fully decayed: fidelity and rho11 are 0
        assert (tmp_path / "out" / "storage_fidelity.csv").read_text().splitlines()[-1] == "9.9999999999999994e+304,0,0"


@pytest.mark.parametrize("config, key, cap", [
    ({"kind": "breed", "steps": 64}, "steps", 64),
    ({"kind": "breed", "alpha": 0, "s": 1, "steps": 64}, "steps", 64),  # alpha 0 passes every numeric guard
    ({"kind": "store", "state": {"type": "bred", "protocol": "cat", "steps": 64, "alpha": 0.1}}, "steps", 64),
    ({"kind": "breed", "dim": 300}, "dim", 300),
    ({"kind": "fig4d", "dim": 300}, "dim", 300),
    *(({"kind": "wigner", "state": {"type": t, "dim": 300, **keys}}, "dim", 300) for t, keys in [
        ("vacuum", {}), ("fock", {"n": 1}), ("cat", {"alpha": 1.0}), ("squeezed_single_photon", {"r": 0.3}),
        ("bred", {"protocol": "gkp", "steps": 1, "alpha": 1.0})]),
    ({"kind": "pulse", "points": 10**6}, "points", 10**6),
    ({"kind": "tomo", "n_frames": 10**7}, "n_frames", 10**7),
    ({"kind": "wigner", "xs": list(range(2001))}, "xs", 2001),
    ({"kind": "wigner", "ps": list(range(2001))}, "ps", 2001),
    ({"kind": "tomo", "phases_deg": list(range(180))}, "phases_deg", 180),
    ({"kind": "store", "times": [1e-7] * 1000}, "times", 1000),
    ({"kind": "rates", "k_list": [1.0] * 1000}, "k_list", 1000),
    ({"kind": "rates", "sources": [{"r0": 4e3, "delta": 3e6, "r_bs": 20}] * 1000}, "sources", 1000),
    ({"kind": "rates", "n_max": 64}, "n_max", 64),
], ids=["breed_steps", "breed_steps_vacuum", "bred_steps", "breed_dim", "fig4d_dim", "vacuum_dim", "fock_dim",
        "cat_dim", "squeezed_single_photon_dim", "bred_dim", "pulse_points", "tomo_n_frames", "wigner_xs", "wigner_ps",
        "tomo_phases_deg", "store_times", "rates_k_list", "rates_sources", "rates_n_max"])
def test_sizes_are_capped_in_the_schema(config, key, cap):
    # the cap passes and one more is a config error that quotes it; only validated, never run
    cli.validate_config(config)
    value = config["state"][key] if key in config.get("state", {}) else config[key]
    if key in ("xs", "ps"):
        over = list(range(cap + 1))
    elif isinstance(value, list):
        over = value + value[-1:]  # one more valid item
    else:
        over = cap + 1
    if key in config.get("state", {}):
        config = {**config, "state": {**config["state"], key: over}}
    else:
        config = {**config, key: over}
    with pytest.raises(cli.ConfigError, match=rf"{key} must be .*\b{cap}\b"):
        cli.validate_config(config)


def _same_files(a: Path, b: Path) -> bool:
    names = sorted(p.name for p in a.iterdir())
    return names == sorted(p.name for p in b.iterdir()) and all(
        (a / n).read_bytes() == (b / n).read_bytes() for n in names)


def test_store_manifest_with_infinite_T1_reruns_byte_identically(tmp_path):
    config = read_manifest(cli.run_scenario({"kind": "store", "T1": math.inf}, tmp_path / "a"))["config"]
    assert config["T1"] == "Infinity"
    cli.run_scenario(config, tmp_path / "b")
    assert _same_files(tmp_path / "a", tmp_path / "b")


def test_fig3e_with_infinite_T1_fits_infinity_and_reruns_byte_identically(tmp_path):
    manifest = read_manifest(cli.emit_figure_data("fig3e", tmp_path / "a", {"T1": math.inf}))
    assert manifest["results"]["fit_T1"] == "Infinity"  # rho11 stays 1
    config = manifest["config"]
    assert config == {"kind": "fig3e", "T1": "Infinity"}
    cli.run_scenario(config, tmp_path / "b")
    assert _same_files(tmp_path / "a", tmp_path / "b")


def test_edfig_manifests_record_their_figure(tmp_path):
    for kind, params in (("edfig_rates", {"p1": 0.5}), ("edfig_fidelity", {})):
        m = cli.emit_figure_data(kind, tmp_path / kind, params)
        assert read_manifest(m)["config"] == {"kind": kind, **params}


def test_figure_keys_through_config(tmp_path):
    # a figure's keys arrive through --config as through emit_figure_data's params, manifest and all
    path = tmp_path / "fig4d.json"
    path.write_text(json.dumps({"kind": "fig4d", "dim": 30, "alpha": 0.8}))
    assert cli.main(["--config", str(path), "--out", str(tmp_path / "config")]) == 0
    cli.emit_figure_data("fig4d", tmp_path / "params", {"dim": 30, "alpha": 0.8})
    assert _same_files(tmp_path / "config", tmp_path / "params")


def _python(*args) -> subprocess.CompletedProcess:
    """`python` with `args`, in a new interpreter that imports the resomem this
    process imported."""
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *map(str, args)], capture_output=True, text=True, env=env)


def _resomem(*args) -> subprocess.CompletedProcess:
    return _python("-m", "resomem.cli", *args)


def test_every_kind_runs_on_numpy_alone(tmp_path):
    # the README's promise; the tests themselves run with scipy installed
    proc = _python("-c", """
import sys
sys.modules["scipy"] = None  # an import of scipy or of any scipy module raises ImportError
from resomem import cli
out = sys.argv[1]
for kind in cli._SCENARIOS:
    cli.run_scenario({"kind": kind}, f"{out}/{kind}")
cli.run_scenario({"kind": "breed", "window": [-0.1, 0.1]}, f"{out}/window")
""", tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert all((tmp_path / kind / "manifest.json").exists() for kind in [*cli._SCENARIOS, "window"])


@pytest.mark.parametrize("kind", cli.FIGURE_KINDS)
def test_module_reruns_a_figure_from_its_manifest_config(tmp_path, kind):
    # --figure exits 0, and --config on its manifest's config writes the same bytes
    proc = _resomem("--figure", kind, "--out", tmp_path / "a")
    assert proc.returncode == 0, proc.stderr
    config = read_manifest(tmp_path / "a" / "manifest.json")["config"]
    assert config == {"kind": kind}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    proc = _resomem("--config", path, "--out", tmp_path / "b")
    assert proc.returncode == 0, proc.stderr
    assert _same_files(tmp_path / "a", tmp_path / "b")


def test_module_exit_codes(tmp_path):
    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"kind": ')
    truncated = tmp_path / "truncated.json"  # a cat of alpha 5 leaves dim 20
    truncated.write_text(json.dumps({"kind": "breed", "alpha": 5.0, "dim": 20}))
    for path, code, message in ((malformed, 2, "config error"), (truncated, 3, "numeric error")):
        proc = _resomem("--config", path, "--out", tmp_path / "out")
        assert proc.returncode == code, proc.stderr
        assert message in proc.stderr
    assert not (tmp_path / "out").exists()


def test_main_rejects_unread_flags_and_non_utf8_config(tmp_path, capsys):
    rates = tmp_path / "rates.json"
    rates.write_text(json.dumps({"kind": "rates"}))
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{")
    cases = [
        (["--config", str(binary)], "UTF-8"),
        (["--figure", "edfig_rates", "--seed", "3"], "'seed'"),  # the kind's table reads no seed
        (["--figure", "fig3e", "--config", str(rates)], "--config"),
    ]
    for i, (args, message) in enumerate(cases):
        out = tmp_path / f"out{i}"
        assert cli.main([*args, "--out", str(out)]) == 2, args
        assert message in capsys.readouterr().err
        assert not out.exists()
    with pytest.raises(SystemExit) as exit_:  # --figure takes only the figure kinds
        cli.main(["--figure", "store", "--out", str(tmp_path / "store")])
    assert exit_.value.code == 2 and "invalid choice" in capsys.readouterr().err


def test_validate_counts_gkp_peaks(tmp_path, monkeypatch):
    # an odd cat's p marginal integrates to 1 but has two peaks, not three
    monkeypatch.setattr(cli, "theoretical_bred_state", lambda k, alpha, s, protocol, dim: cli.cat_state(alpha, -1, dim))
    with pytest.raises(cli.ResomemError, match="gkp_three_peaks"):
        cli.run_scenario({"kind": "validate"}, tmp_path)
    assert not (tmp_path / "validation.csv").exists()


def test_seed_is_a_tomo_key(tmp_path, capsys):
    for kind in set(cli._SCENARIOS) - {"tomo"}:
        assert "seed" not in cli._SCENARIOS[kind][1], kind
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "validate", "seed": 1}))
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path / "o1")]) == 2
    assert "'seed'" in capsys.readouterr().err
    cfg.write_text(json.dumps({"kind": "validate"}))
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path / "o2"), "--seed", "3"]) == 2
    assert "'seed'" in capsys.readouterr().err
    assert not (tmp_path / "o1").exists() and not (tmp_path / "o2").exists()


@pytest.mark.parametrize("kind, params, key", [
    ("fig4d", {"dim": "x"}, "dim"),
    ("fig4d", {"t2": -1e-9}, "t2"),
    ("fig4d", {"alpha": None}, "alpha"),
    ("fig3e", {"T1": 0}, "T1"),
    ("fig3e", {"alpha": 1.0}, "alpha"),
    ("edfig_rates", {"p1": 2}, "p1"),
    ("edfig_fidelity", {"seed": 1}, "seed"),
    ("edfig_rates", {"kind": "store"}, "kind"),
])
def test_figure_params_checked(tmp_path, kind, params, key):
    with pytest.raises(cli.ConfigError, match=key):
        cli.emit_figure_data(kind, tmp_path / "out", params)
    assert not (tmp_path / "out").exists()


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_TABLES = [table for _, table in (*cli._SCENARIOS.values(), *cli._STATES.values())]
_KEYS = st.sampled_from(sorted({key for table in _TABLES for key in table})) | st.text(max_size=4)
_VALUES = (_JSON | st.integers(-2, 40) | st.floats(-6, 6) | st.sampled_from(["cat", "gkp", "time_bin", "exp_rising"])
           | st.lists(st.integers(-6, 6) | st.floats(-6, 6), max_size=5))


def _tagged(tag, names, values):
    return st.builds(lambda rest, name: {**rest, tag: name}, st.dictionaries(_KEYS, values, max_size=5),
                     st.sampled_from(sorted(names)) | _JSON)


_CONFIGS = _tagged("kind", cli._SCENARIOS, _VALUES | _tagged("type", cli._STATES, _VALUES))


@settings(max_examples=500, deadline=None)
@given(_CONFIGS)
def test_validate_config_returns_settings_or_config_error(config):
    try:
        settings = cli.validate_config(config)
    except cli.ConfigError:
        return
    assert settings.keys() == {"kind", *cli._SCENARIOS[config["kind"]][1]}


def test_rates_sources_schema(tmp_path, capsys):
    # each source is checked key by key, and the message names the source and the key
    for i, (src, message) in enumerate([
        ({"r0": None, "delta": 1e6, "r_bs": 10}, "sources[0] r0 must be a finite number > 0"),
        ({"r0": 1e5}, "sources[0] needs delta"),
        ("r0", "sources must be a list of at most 1000 objects with keys r0, delta and r_bs"),
        ({"r0": True, "delta": 1e6, "r_bs": 10}, "sources[0] r0 must be a finite number > 0"),
        ({"r0": 10**400, "delta": 1e6, "r_bs": 10}, "sources[0] r0 must be a finite number > 0"),
    ]):
        cfg = tmp_path / f"rates{i}.json"
        cfg.write_text(json.dumps({"kind": "rates", "sources": [src]}))
        assert cli.main(["--config", str(cfg), "--out", str(tmp_path / f"o{i}")]) == 2, src
        assert message in capsys.readouterr().err
    cfg.write_text(json.dumps({"kind": "rates", "sources": [{"r0": 4000, "delta": 3e6, "r_bs": 20}]}))
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path / "ok")]) == 0
    assert (tmp_path / "ok" / "k_values.csv").read_text().splitlines()[1].startswith("4000,3000000,20,3.75,")


@pytest.mark.parametrize("kind", ["rates", "edfig_rates"])
@pytest.mark.parametrize("source, message", [
    ({"r0": 4e3, "delta": 3e6, "rbs": 20}, r"unknown keys for sources\[1\]: \['rbs'\]"),
    ({"r0": 4e3, "delta": 3e6, "r_bs": -5}, r"sources\[1\] r_bs must be a finite number >= 0, got -5$"),
    ({"r0": -1, "delta": 3e6, "r_bs": 20}, r"sources\[1\] r0 must be a finite number > 0, got -1$"),
    ({"r0": 4e3, "delta": 0, "r_bs": 20}, r"sources\[1\] delta must be a finite number > 0, got 0$"),
], ids=["misspelled_key", "negative_r_bs", "negative_r0", "zero_delta"])
def test_rates_sources_are_checked_key_by_key(tmp_path, capsys, kind, source, message):
    config = {"kind": kind, "sources": [{"r0": 2e5, "delta": 1.2e8, "r_bs": 0}, source]}
    with pytest.raises(cli.ConfigError, match=message):
        cli.validate_config(config)
    cfg = tmp_path / "rates.json"
    cfg.write_text(json.dumps(config))
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    assert re.search(message, capsys.readouterr().err.strip())
    assert not (tmp_path / "out").exists()
    # r_bs = 0 is a source that never interferes; the sources come back as given
    assert cli.validate_config({"kind": kind, "sources": config["sources"][:1]})["sources"] == config["sources"][:1]


@pytest.mark.parametrize("config, key", [
    ({"kind": "pulse", "points": "x"}, "points"),
    ({"kind": "pulse", "points": 1}, "points"),
    ({"kind": "pulse", "wavepacket": "square"}, "wavepacket"),
    ({"kind": "pulse", "wavepacket": "time_bin", "Tf": 1.0}, "Tf"),
    ({"kind": "pulse", "gamma0": 0}, "gamma0"),
    ({"kind": "rates", "k_list": ["a"]}, "k_list"),
    ({"kind": "rates", "k_list": [-1.0]}, "k_list"),
    ({"kind": "rates", "p1": "x"}, "p1"),
    ({"kind": "rates", "p1": 1.5}, "p1"),
    ({"kind": "rates", "n_max": -1}, "n_max"),
    ({"kind": "rates", "n_max": 65}, "n_max"),
])
def test_pulse_and_rates_keys_checked(tmp_path, capsys, config, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert cli.main(["--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"{config['kind']} {key} must be" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_tomo_manifest_records_certificate(tmp_path):
    from resomem.tomo import MLE_GAP

    cfg = {"kind": "tomo", "state": {"type": "vacuum", "dim": 8}, "n_frames": 2000, "dim": 8, "seed": 1}
    res = read_manifest(cli.run_scenario(cfg, tmp_path))["results"]
    assert res["log_likelihood"] < 0
    assert res["likelihood_gap"] <= MLE_GAP
    assert res["fidelity"] > 0.99


def test_tomo_of_a_larger_input_state(tmp_path):
    # the state is sampled at its own dim 150, where the quadrature density is
    # summed block by block; the reconstruction is at dim 20
    from oracles import dim_row_density
    from resomem.fock import cat_squeezing_for_alpha, squeezed_single_photon
    from resomem.gates import PROJECTION_GRID_BOUND, PROJECTION_GRID_STEP

    cfg = {"kind": "tomo", "state": {"type": "squeezed_single_photon", "alpha": 1.0, "dim": 150},
           "phases_deg": [0, 60, 120], "n_frames": 2000, "dim": 20, "seed": 4}
    path = tmp_path / "tomo.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["--config", str(path), "--out", str(tmp_path / "out")]) == 0
    table = np.loadtxt(tmp_path / "out" / "samples.csv", delimiter=",", skiprows=1)
    # the same inverse-CDF draws from the dim-row form of the density
    rho = squeezed_single_photon(cat_squeezing_for_alpha(1.0), 150).to_density_matrix().rho
    grid = np.linspace(-PROJECTION_GRID_BOUND, PROJECTION_GRID_BOUND,
                       int(round(2 * PROJECTION_GRID_BOUND / PROJECTION_GRID_STEP)) + 1)
    rng = np.random.default_rng(4)
    thetas = np.resize(np.deg2rad([0.0, 60.0, 120.0]), 2000)
    xs = np.empty(2000)
    for theta in np.deg2rad([0.0, 60.0, 120.0]):
        cdf = np.cumsum(dim_row_density(rho, theta, grid))
        sel = thetas == theta
        xs[sel] = np.interp(rng.random(int(np.sum(sel))), cdf / cdf[-1], grid)
    assert np.max(np.abs(table[:, 1] - xs)) <= 1e-12


def test_seed_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "tomo", "state": {"type": "vacuum", "dim": 8}, "n_frames": 2000, "dim": 8, "iterations": 10, "seed": 1}))
    with accuracy_warnings_ignored():  # 10 iterations stop short of the certified optimum
        assert cli.main(["--config", str(cfg), "--out", str(tmp_path / "o1"), "--seed", "2"]) == 0
        assert cli.main(["--config", str(cfg), "--out", str(tmp_path / "o2"), "--seed", "3"]) == 0
    assert (tmp_path / "o1" / "samples.csv").read_bytes() != (tmp_path / "o2" / "samples.csv").read_bytes()


def test_fig3e_fit_annotations(tmp_path):
    m = cli.emit_figure_data("fig3e", tmp_path)
    res = read_manifest(m)["results"]
    assert res["fit_T1"] == pytest.approx(2.3e-6, rel=1e-6)
    assert res["fit_Tphi"] == pytest.approx(0.96e-6, rel=0.01)


def test_fig4d_panels(tmp_path):
    m = cli.emit_figure_data("fig4d", tmp_path, {"dim": 30, "alpha": 0.8})
    files = read_manifest(m)["files"]
    assert len(files) == 6
    for proto in ("cat", "gkp"):
        for tag in ("input", "bred", "stored"):
            assert f"{proto}_{tag}.csv" in files


def test_fig4d_input_grid_formatted_once(tmp_path, monkeypatch):
    calls = []
    write = cli.write_wigner_csv
    monkeypatch.setattr(cli, "write_wigner_csv", lambda path, grid: calls.append(path.name) or write(path, grid))
    m = cli.emit_figure_data("fig4d", tmp_path, {"dim": 30, "alpha": 0.8})
    assert len(calls) == 5 and "gkp_input.csv" not in calls
    files = read_manifest(m)["files"]
    body = (tmp_path / "cat_input.csv").read_bytes()
    assert (tmp_path / "gkp_input.csv").read_bytes() == body
    assert files["cat_input.csv"] == files["gkp_input.csv"] == hashlib.sha256(body).hexdigest()


def test_fig4d_panels_are_the_single_state_grids(tmp_path):
    # the batched panels print the bytes of each state's own grid
    cli.emit_figure_data("fig4d", tmp_path / "fig4d")
    noise = NoiseParams(2.3e-6, 0.96e-6)
    panels = {}
    for protocol in ("cat", "gkp"):
        bred = run_breeding(BreedingPlan(protocol, 1, 1.0, -1, 40)).states[-1]
        panels[f"{protocol}_input.csv"] = cat_state(1.0, -1, 40)
        panels[f"{protocol}_bred.csv"] = bred
        panels[f"{protocol}_stored.csv"] = evolve_closed_form(bred, 40e-9, noise)
    for name, state in panels.items():
        cli.write_wigner_csv(tmp_path / "single.csv", wigner_grid(state))
        assert (tmp_path / "fig4d" / name).read_bytes() == (tmp_path / "single.csv").read_bytes(), name


def test_default_wigner_grid_is_read_only():
    xs = cli.validate_config({"kind": "wigner"})["xs"]
    with pytest.raises(ValueError):
        xs[0] = 0.0


def test_manifest_versions_are_package_and_numpy(tmp_path):
    m = cli.run_scenario({"kind": "rates"}, tmp_path)
    assert read_manifest(m)["versions"] == {"package": cli.__version__, "numpy": np.__version__}


def test_float_format_roundtrip(tmp_path):
    cli.run_scenario({"kind": "rates"}, tmp_path)
    rows = (tmp_path / "k_values.csv").read_text().splitlines()[1:]
    vals = [float(x) for x in rows[1].split(",")]
    # 17 significant digits reproduce the doubles exactly
    assert vals[3] == 3.75
    assert vals[4] == 4e3 / 3e6


def test_csv_writers_golden_bytes(tmp_path, monkeypatch):
    n = cli._BLOCK_CELLS // 3 + 3  # the last rows are written in a second block
    names = ["a", "b", "c", "d", "e"] + [f"r{i}" for i in range(5, n)]
    counts = [0, -1, 2, 2**53, 3] + list(range(5, n))
    values = [1.0, -0.0, 0.1, 1e-300, 2.0**53] + [i + 0.5 for i in range(5, n)]
    cli.write_csv(tmp_path / "t.csv", ["name", "count", "value"], [names, np.array(counts), values])
    expected = (
        b"name,count,value\n"
        b"a,0,1\n"
        b"b,-1,-0\n"
        b"c,2,0.10000000000000001\n"
        b"d,9007199254740992,1e-300\n"
        b"e,3,9007199254740992\n"
    ) + "".join(f"r{i},{i},{i}.5\n" for i in range(5, n)).encode()
    assert (tmp_path / "t.csv").read_bytes() == expected

    # the Wigner writer shares the row formatter, not the traced write_csv
    monkeypatch.setattr(cli, "write_csv", None)
    grid = WignerGrid(
        np.array([-1.0, 0.0, 0.5]), np.array([0.1, 2.0]), np.array([[1.0, -0.0, 1e-300], [0.25, 2.0**53, -3.5]])
    )
    cli.write_wigner_csv(tmp_path / "w.csv", grid)
    assert (tmp_path / "w.csv").read_bytes() == (
        b",-1,0,0.5\n0.10000000000000001,1,-0,1e-300\n2,0.25,9007199254740992,-3.5\n"
    )


def percent_rows(columns) -> bytes:
    """The row formatter the CSV kernel replaced: one `%` per row, str values
    as they are and every other value with FLOAT_FMT."""
    columns = [np.asarray(c) for c in columns]
    line = ",".join("%s" if c.dtype.kind == "U" else cli.FLOAT_FMT for c in columns) + "\n"
    return "".join([line % row for row in zip(*(c.tolist() for c in columns))]).encode("ascii")


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3).flatmap(lambda k: st.lists(
    st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), min_size=k, max_size=k),
    min_size=1, max_size=30,
)))
def test_csv_kernel_matches_percent_format(rows):
    columns = [np.array(c, dtype=float) for c in zip(*rows)]
    assert cli._format_rows(columns) == percent_rows(columns)


def test_csv_kernel_edge_values():
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    boundaries = np.array([1e-4, 1e-5, 1e16, 1e17, 9.9999999999999995e-5, 1.2345e-5, 0.00012345,
                           1.2345678901234567e16, 12345678901234567.0, 99999999999999999.0])
    floats = np.concatenate([
        [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, np.finfo(float).max, -np.finfo(float).max],
        tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf), -tens,
        boundaries, np.nextafter(boundaries, 0), np.nextafter(boundaries, np.inf),
        2.0 ** -np.arange(1, 80), np.arange(1, 200) * 2.0**-25,  # exact 17-digit ties among them
    ])
    assert cli._format_rows([floats]) == percent_rows([floats])
    assert cli._format_rows([np.array([2.0**-25])]) == b"2.9802322387695312e-08\n"
    ints = np.arange(2**53 - 3, 2**53 + 4)
    for column in (ints, -ints, np.array([2**63 - 1, -(2**63)]), np.array([2**64 - 1, 2**63 + 1], np.uint64),
                   np.array([2**64 + 1, 10**20, -(2**70), 3], dtype=object), np.array([True, False])):
        assert cli._format_rows([column]) == percent_rows([column]), column
    names = np.array(["", "a", "x,y", "long name " * 5])
    mixed = [names, floats[:4], np.arange(4), names, floats[4:8]]
    assert cli._format_rows(mixed) == percent_rows(mixed)


def test_csv_kernel_pulse_tables(tmp_path):
    """Every table of the default (20 001-point) write pulse, against the
    per-row formatter."""
    tables, _ = cli._scenario_pulse(cli.validate_config({"kind": "pulse"}))
    assert len(tables["mode.csv"]["t"]) == 20001
    for name, table in tables.items():
        digest = cli.write_csv(tmp_path / name, list(table), list(table.values()))
        body = (tmp_path / name).read_bytes()
        assert body == (",".join(table) + "\n").encode() + percent_rows(list(table.values())), name
        assert digest == hashlib.sha256(body).hexdigest()


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_csv_blocks_match_percent_format(tmp_path, offset):
    # a mixed str/number table whose row counts end just before, on and just
    # after the first and the second block boundary
    rows = cli._BLOCK_CELLS // 5
    for n in (rows + offset, 2 * rows + offset):
        rng = np.random.default_rng(n)
        names = np.array([f"s{i}" * (i % 3) for i in range(n)])
        scaled = rng.normal(size=n) * 10.0 ** rng.integers(-30, 30, n)
        columns = [names, scaled, np.arange(n) - n // 2, names, rng.random(n)]
        digest = cli.write_csv(tmp_path / "t.csv", list("abcde"), columns)
        body = (tmp_path / "t.csv").read_bytes()
        assert body == b"a,b,c,d,e\n" + percent_rows(columns), n
        assert digest == hashlib.sha256(body).hexdigest()


def test_wigner_csv_blocks_match_percent_format(tmp_path):
    # 201 rows of 202 cells: five whole blocks and one row
    rng = np.random.default_rng(7)
    w = rng.normal(size=(201, 201)) * 10.0 ** rng.integers(-300, 300, (201, 201))
    w[100, :5] = [0.0, -0.0, np.inf, -np.inf, np.nan]
    xs = np.linspace(-5.0, 5.0, 201)
    grid = WignerGrid(xs, xs[::-1].copy(), w)
    digest = cli.write_wigner_csv(tmp_path / "w.csv", grid)
    body = (tmp_path / "w.csv").read_bytes()
    assert body == b"," + percent_rows(list(xs[:, None])) + percent_rows([grid.ps, *w.T])
    assert digest == hashlib.sha256(body).hexdigest()


def test_csv_writers_peak_within_6_mb_of_their_input():
    # a 201 x 201 Wigner grid and a 200 001-row pulse table, written in a fresh
    # interpreter: VmHWM rose by 9.4 MB when a grid was one 40 602-cell block,
    # by 3.8-4.2 MB with _BLOCK_CELLS blocks but a float64 copy of the whole
    # pulse table, and by 0.8-1.0 MB with each block converted on its own.
    # VmHWM is the child's own peak; ru_maxrss would keep that of the pytest
    # process it came from.
    code = """
import tempfile
from pathlib import Path
import numpy as np
import resomem.cli as cli
from resomem.wigner import WignerGrid
def hwm():  # kB
    return int(next(line.split()[1] for line in open('/proc/self/status') if line.startswith('VmHWM:')))
xs = np.linspace(-5.0, 5.0, 201)
grid = WignerGrid(xs, xs, np.random.default_rng(1).normal(size=(201, 201)))
t = np.linspace(0.0, 16.0, 200001)
g = np.exp(-t / 2)
before = hwm()
with tempfile.TemporaryDirectory() as d:
    cli.write_wigner_csv(Path(d) / "w.csv", grid)
    cli.write_csv(Path(d) / "mode.csv", ["t", "g"], [t, g])
print(hwm() - before)
"""
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert int(out.stdout) / 1024 < 6


def test_csv_str_cells_reject_nul_and_non_ascii(tmp_path):
    with pytest.raises(ValueError, match="NUL"):
        cli.write_csv(tmp_path / "nul.csv", ["s"], [["a\0b"]])
    with pytest.raises(UnicodeEncodeError):
        cli.write_csv(tmp_path / "utf.csv", ["s"], [["\u00e9"]])


# every table, out_mode.csv too, has one row per point of the wavepacket's grid
@pytest.mark.parametrize(
    "config, out_rows",
    [
        ({"wavepacket": "exp_rising"}, 22001),
        ({"wavepacket": "exp_decaying"}, 20001),
        ({"wavepacket": "time_bin", "Tf": 0.43}, 1001),
    ],
)
def test_pulse_scenario(tmp_path, config, out_rows):
    m = cli.run_scenario({"kind": "pulse", "points": out_rows, **config}, tmp_path)
    manifest = read_manifest(m)
    headers = {"mode.csv": "t,g", "schedule.csv": "t,gamma", "out_mode.csv": "t,g"}
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([*headers, "manifest.json"])
    assert sorted(manifest["files"]) == sorted(headers)
    for name, header in headers.items():
        body = (tmp_path / name).read_bytes()
        assert hashlib.sha256(body).hexdigest() == manifest["files"][name]
        lines = body.decode().splitlines()
        assert lines[0] == header
        assert len(lines) - 1 == out_rows
    res = manifest["results"]
    assert res["target_Tf"] == config.get("Tf", 0.0)
    assert abs(res["effective_Tf"] - res["target_Tf"]) < 1e-3


def test_perfbench_trace_targets_resolve():
    """The traced benchmark wraps these module attributes by name; a rename
    in the program would leave its spans silently empty."""
    path = Path(__file__).parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, attr, *_ in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


@pytest.mark.parametrize("wavepacket", ["exp_rising", "exp_decaying", "time_bin"])
def test_perfbench_tracer_spans_one_pulse(tmp_path, monkeypatch, wavepacket):
    """The benchmark's tracer installs on every attribute it names (a missing
    one raises) and sees one design and one network call per pulse run."""
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    # the time-bin read pulse is capped near its support end and misses target_Tf
    quiet = accuracy_warnings_ignored() if wavepacket == "time_bin" else contextlib.nullcontext()
    try:
        tracer.install()
        with quiet:
            cli.run_scenario({"kind": "pulse", "wavepacket": wavepacket, "points": 1001}, tmp_path)
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert names.count("memory.pulse_design") == 1
    assert names.count("memory.simulate_network") == 1


def test_breed_stabilizers_looked_up_on_breeding(tmp_path, monkeypatch):
    """The traced benchmark counts the stabilizer calls by patching
    `breeding.gkp_stabilizer_expectation`; `cli` must look it up there when
    it runs, not bind it at import."""
    import resomem.breeding as breeding

    calls = []
    original = breeding.gkp_stabilizer_expectation

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(breeding, "gkp_stabilizer_expectation", counting)
    cli.run_scenario({"kind": "breed", "steps": 2}, tmp_path)
    assert len(calls) == 3  # one per row of breeding.csv


_DIMS = st.integers(2, 12)
_SMALL_STATES = st.one_of(
    st.builds(lambda dim: {"type": "vacuum", "dim": dim}, _DIMS),
    st.builds(lambda n, dim: {"type": "fock", "n": n, "dim": dim}, st.integers(0, 13), _DIMS),
    st.builds(lambda alpha, s, dim: {"type": "cat", "alpha": alpha, "s": s, "dim": dim},
              st.floats(0, 1.5), st.sampled_from([-1, 1]), _DIMS),
    st.builds(lambda r, dim: {"type": "squeezed_single_photon", "r": r, "dim": dim}, st.floats(-1, 1), _DIMS),
    st.builds(lambda protocol, steps, alpha, dim: {"type": "bred", "protocol": protocol, "steps": steps,
                                                   "alpha": alpha, "dim": dim},
              st.sampled_from(["cat", "gkp"]), st.integers(1, 2), st.floats(0, 1.2), _DIMS),
)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_LIFETIMES = st.floats(1e-9, 1e-4) | st.just(math.inf)
_AXES = st.builds(lambda lo, hi, n: np.linspace(-lo, hi, n).tolist(),
                  st.floats(0.1, 8) | st.floats(8, 1e300), st.floats(0.1, 8) | st.floats(8, 1e300), st.integers(2, 41))


def _pulse(wavepacket, points, gamma0, span, t0, Tf):
    """A pulse config with only the keys its wavepacket reads."""
    config = {"kind": "pulse", "wavepacket": wavepacket, "points": points, "gamma0": gamma0}
    if wavepacket == "time_bin":
        config["t0"] = t0
    else:
        config["span"] = span
    if wavepacket != "exp_rising":
        config["Tf"] = Tf
    return config


_RUNS = st.one_of(
    st.builds(_pulse, st.sampled_from(["exp_rising", "exp_decaying", "time_bin"]), st.integers(3, 1001),
              st.floats(1e5, 1e9), st.floats(0.5, 20), st.floats(0.1, 5) | st.none(),
              st.floats(0.01, 0.99) | st.none()),
    st.fixed_dictionaries({"kind": st.just("store"), "T1": _LIFETIMES, "Tphi": _LIFETIMES, "state": _SMALL_STATES,
                           "times": st.lists(st.floats(0, 5e-6), min_size=1, max_size=4)}),
    st.fixed_dictionaries({"kind": st.just("breed"), "protocol": st.sampled_from(["cat", "gkp"]),
                           "steps": st.integers(1, 2), "alpha": st.floats(0, 1.5), "s": st.sampled_from([-1, 1]),
                           "dim": _DIMS, "window": st.none() | st.floats(0.01, 1).map(lambda h: [-h, h])}),
    st.fixed_dictionaries({"kind": st.just("wigner"), "state": _SMALL_STATES, "xs": _AXES, "ps": _AXES}),
    st.fixed_dictionaries({"kind": st.just("tomo"), "state": _SMALL_STATES, "dim": _DIMS,
                           "n_frames": st.just(cli.MLE_MIN_FRAMES), "iterations": st.integers(1, 300),
                           "seed": st.integers(0, 2**32), "phases_deg": st.lists(st.floats(-360, 360), min_size=1,
                                                                                  max_size=4)}),
    st.fixed_dictionaries({"kind": st.just("rates"), "k_list": st.lists(st.floats(0, 1e3), min_size=1, max_size=3),
                           "p1": st.floats(0, 1), "n_max": st.integers(1, 64),
                           "sources": st.lists(st.fixed_dictionaries({"r0": _FINITE, "delta": _FINITE,
                                                                      "r_bs": _FINITE}), max_size=3)}),
    st.just({"kind": "validate"}),
)


_LOG_LIFETIMES = st.floats(-12, -3).map(lambda e: 10.0**e) | st.just("Infinity")
_LIFETIME_RESULTS = ("T1", "Tphi", "fit_T1", "fit_Tphi")
_RELEASES = st.floats(-300, 0, exclude_max=True).map(lambda e: 10.0**e) | st.none()  # Tf in [1e-300, 1) or null


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    st.builds(_pulse, st.sampled_from(list(cli._WAVEPACKETS)), st.integers(3, 2001), st.just(cli.GAMMA0),
              st.floats(0.5, 60), st.floats(0.01, 30), _RELEASES),
    st.fixed_dictionaries({"kind": st.sampled_from(["fig3e", "store"]), "T1": _LOG_LIFETIMES, "Tphi": _LOG_LIFETIMES}),
))
@example({"kind": "pulse", "wavepacket": "exp_decaying", "Tf": 1e-12})
@example({"kind": "pulse", "wavepacket": "time_bin", "points": 3, "t0": 0.5, "Tf": 1e-4})
@example({"kind": "fig3e", "T1": 1e-9})
def test_pulse_and_storage_runs_are_finite_or_refused(config):
    # a run either writes finite numbers only, or stops with a numeric or config error; never a RuntimeWarning
    with tempfile.TemporaryDirectory() as tmp, accuracy_warnings_ignored():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            manifest = read_manifest(cli.run_scenario(config, tmp))
        except (cli.ResomemError, cli.ConfigError):
            return
        for key, value in manifest["results"].items():  # an infinite lifetime, given or fitted, reads "Infinity"
            assert _is_finite_number(value) or (value == "Infinity" and key in _LIFETIME_RESULTS), (key, value)
        for name in manifest["files"]:
            assert np.isfinite(np.loadtxt(Path(tmp) / name, delimiter=",", skiprows=1, ndmin=2)).all(), name


def _is_finite_number(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def _reject_constant(name):
    raise ValueError(f"manifest holds {name}, which is not JSON")


@settings(max_examples=150, deadline=None)
@given(_RUNS)
@example({"kind": "store", "T1": math.inf, "Tphi": 1e-6, "state": {"type": "fock", "n": 1, "dim": 5}, "times": [0]})
def test_small_runs_exit_cleanly_with_strict_json_manifests(config):
    # exit 1 would be a traceback: a numeric guard the library lacks
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
        path.write_text(json.dumps(config))
        with np.errstate(all="ignore"), accuracy_warnings_ignored():
            code = cli.main(["--config", str(path), "--out", str(out)])
        assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_NUMERIC), config
        if (out / "manifest.json").exists():
            json.loads((out / "manifest.json").read_text(), parse_constant=_reject_constant)
