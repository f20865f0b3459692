import hashlib
import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

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
