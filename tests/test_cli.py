import hashlib
import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import resomem.cli as cli
from resomem.wigner import WignerGrid

pytestmark = pytest.mark.filterwarnings("ignore::resomem.errors.NumericalAccuracyWarning")


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
    assert all(read_manifest(m)["results"].values())


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
    with np.errstate(over="ignore", invalid="ignore"):
        assert cli.main(["--config", str(far), "--out", str(tmp_path / "far")]) == 3
    assert not (tmp_path / "far").exists()


def test_seed_is_a_tomo_key(tmp_path, capsys):
    for kind in ("pulse", "store", "breed", "wigner", "rates", "validate"):
        assert "seed" not in cli._SCENARIOS[kind][1]
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
_TABLES = [table for _, table in cli._SCENARIOS.values()] + list(cli._STATES.values())
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
    for i, src in enumerate([
        {"r0": None, "delta": 1e6, "r_bs": 10},
        {"r0": 1e5},
        "r0",
        {"r0": True, "delta": 1e6, "r_bs": 10},
        {"r0": 10**400, "delta": 1e6, "r_bs": 10},
    ]):
        cfg = tmp_path / f"rates{i}.json"
        cfg.write_text(json.dumps({"kind": "rates", "sources": [src]}))
        assert cli.main(["--config", str(cfg), "--out", str(tmp_path / f"o{i}")]) == 2, src
        assert "r0, delta and r_bs" in capsys.readouterr().err
    cfg.write_text(json.dumps({"kind": "rates", "sources": [{"r0": 4000, "delta": 3e6, "r_bs": 20}]}))
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path / "ok")]) == 0
    assert (tmp_path / "ok" / "k_values.csv").read_text().splitlines()[1].startswith("4000,3000000,20,3.75,")


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


def test_seed_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "tomo", "state": {"type": "vacuum", "dim": 8}, "n_frames": 2000, "dim": 8, "iterations": 10, "seed": 1}))
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


def test_float_format_roundtrip(tmp_path):
    cli.run_scenario({"kind": "rates"}, tmp_path)
    rows = (tmp_path / "k_values.csv").read_text().splitlines()[1:]
    vals = [float(x) for x in rows[1].split(",")]
    # 17 significant digits reproduce the doubles exactly
    assert vals[3] == 3.75
    assert vals[4] == 4e3 / 3e6


def test_csv_writers_golden_bytes(tmp_path, monkeypatch):
    n = cli._BLOCK_ROWS + 3  # the last rows are written in a second block
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
    """Every table of the default (200 001-point) write pulse, against the
    per-row formatter."""
    tables, _ = cli._scenario_pulse(cli.validate_config({"kind": "pulse"}))
    assert len(tables["mode.csv"]["t"]) == 200001
    for name, table in tables.items():
        digest = cli.write_csv(tmp_path / name, list(table), list(table.values()))
        body = (tmp_path / name).read_bytes()
        assert body == (",".join(table) + "\n").encode() + percent_rows(list(table.values())), name
        assert digest == hashlib.sha256(body).hexdigest()


def test_csv_str_cells_reject_nul_and_non_ascii(tmp_path):
    with pytest.raises(ValueError, match="NUL"):
        cli.write_csv(tmp_path / "nul.csv", ["s"], [["a\0b"]])
    with pytest.raises(UnicodeEncodeError):
        cli.write_csv(tmp_path / "utf.csv", ["s"], [["\u00e9"]])


# out_mode.csv spans the schedule's support at dt = 1e-3/gamma0: 22, 20 and 1
# units of 1/gamma0 for the three wavepackets
@pytest.mark.parametrize(
    "config, out_rows",
    [
        ({"wavepacket": "exp_rising"}, 22001),
        ({"wavepacket": "exp_decaying"}, 20001),
        ({"wavepacket": "time_bin", "Tf": 0.43}, 1001),
    ],
)
def test_pulse_scenario(tmp_path, config, out_rows):
    m = cli.run_scenario({"kind": "pulse", "points": 1001, **config}, tmp_path)
    manifest = read_manifest(m)
    headers = {"mode.csv": "t,g", "schedule.csv": "t,gamma", "out_mode.csv": "t,g"}
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([*headers, "manifest.json"])
    assert sorted(manifest["files"]) == sorted(headers)
    for name, header in headers.items():
        body = (tmp_path / name).read_bytes()
        assert hashlib.sha256(body).hexdigest() == manifest["files"][name]
        lines = body.decode().splitlines()
        assert lines[0] == header
        assert len(lines) - 1 == (out_rows if name == "out_mode.csv" else 1001)
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
