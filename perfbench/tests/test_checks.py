"""The benchmark's checks pass on the program's output and fail on a
deliberately wrong copy of it.

    python -m pytest perfbench/tests
"""

import json
import math

import numpy as np
import pytest

import checks
import reference as ref
import resomem.cli as cli

GAMMA0 = 2 * math.pi * 1.5e6


def rewrite_csv(path, change):
    """Apply `change` to the numeric table of a CSV with one header row."""
    header = path.read_text().splitlines()[0]
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    change(table)
    np.savetxt(path, table, delimiter=",", header=header, comments="", fmt="%.17g")


def rewrite_results(outdir, **changes):
    path = outdir / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["results"].update(changes)
    path.write_text(json.dumps(manifest))


def test_reference_breeding_matches_closed_form_where_exact():
    # GKP breeding's x = 0 projection is exact on imaginary-axis cats, so the
    # reference must reproduce the paper's closed form there
    rows = ref.breeding_rows("gkp", 3, 1.0, -1)
    assert np.allclose(rows[:, 6], 1.0, atol=1e-12)
    assert np.allclose(rows[:, 2], [-1, 1, -1, 1], atol=1e-12)


@pytest.fixture(scope="module")
def bred(tmp_path_factory):
    d = tmp_path_factory.mktemp("breed")
    cli.run_scenario({"kind": "breed", "protocol": "cat", "steps": 2, "alpha": 1.05, "s": -1, "dim": 40}, d)
    return d / "breeding.csv"


def test_breeding_check_accepts_program_output(bred):
    assert checks.check_breeding(bred, "cat", 2, 1.05, -1) == []


def test_breeding_check_rejects_perturbed_success_density(bred, tmp_path):
    wrong = tmp_path / "breeding.csv"
    wrong.write_bytes(bred.read_bytes())

    def perturb(t):
        t[1, 1] *= 1 + 1e-6

    rewrite_csv(wrong, perturb)
    failures = checks.check_breeding(wrong, "cat", 2, 1.05, -1)
    assert any("success_density" in f for f in failures)


def test_breeding_check_rejects_wrong_alpha(bred):
    assert checks.check_breeding(bred, "cat", 2, 1.06, -1)


def test_windowed_check_rejects_perturbed_acceptance(tmp_path):
    window = [-0.1, 0.1]
    cli.run_scenario({"kind": "breed", "protocol": "gkp", "steps": 1, "alpha": 1.0, "s": -1, "dim": 40,
                      "window": window}, tmp_path)
    path = tmp_path / "breeding.csv"
    assert checks.check_windowed_breeding(path, "gkp", 1.0, -1, window) == []

    def perturb(t):
        t[1, 1] *= 1 + 1e-4

    rewrite_csv(path, perturb)
    assert any("acceptance" in f for f in checks.check_windowed_breeding(path, "gkp", 1.0, -1, window))


@pytest.fixture(scope="module")
def tomo(tmp_path_factory):
    d = tmp_path_factory.mktemp("tomo")
    cli.run_scenario({"kind": "tomo", "state": {"type": "squeezed_single_photon", "alpha": 1.0, "dim": 20},
                      "n_frames": 20000, "dim": 20, "iterations": 60, "seed": 1}, d)
    amp = ref.fock_squeezed_single_photon(ref.squeezing_for_cat(1.0), 20)
    return d, amp


PHASES = [0, 30, 60, 90, 120, 150]


def copy_tomo(src, dst):
    for name in ("rho.csv", "samples.csv"):
        (dst / name).write_bytes((src / name).read_bytes())


def test_tomo_check_accepts_program_output(tomo):
    d, amp = tomo
    assert checks.check_tomo(d, amp, PHASES) == []


def test_tomo_check_rejects_rho_rotated_a_quarter_turn(tomo, tmp_path):
    d, amp = tomo
    copy_tomo(d, tmp_path)

    def rotate(t):
        # rho -> U rho U^dag with U = e^{i (pi/2) n}: a 90 degree turn in phase space
        phase = np.exp(1j * np.pi / 2 * (t[:, 0] - t[:, 1]))
        z = (t[:, 2] + 1j * t[:, 3]) * phase
        t[:, 2], t[:, 3] = z.real, z.imag

    rewrite_csv(tmp_path / "rho.csv", rotate)
    failures = checks.check_tomo(tmp_path, amp, PHASES)
    assert any("fidelity" in f for f in failures)


def test_tomo_check_rejects_rescaled_samples(tomo, tmp_path):
    d, amp = tomo
    copy_tomo(d, tmp_path)

    def stretch(t):
        t[:, 1] *= 1.05

    rewrite_csv(tmp_path / "samples.csv", stretch)
    failures = checks.check_tomo(tmp_path, amp, PHASES)
    assert any("variance" in f for f in failures)


def test_tomo_check_rejects_unnormalized_rho(tomo, tmp_path):
    d, amp = tomo
    copy_tomo(d, tmp_path)

    def scale(t):
        t[:, 2:] *= 1.01

    rewrite_csv(tmp_path / "rho.csv", scale)
    assert any("trace" in f for f in checks.check_tomo(tmp_path, amp, PHASES))


def test_pulse_check_rejects_wrong_Tf(tmp_path):
    cli.run_scenario({"kind": "pulse", "gamma0": GAMMA0, "wavepacket": "time_bin", "Tf": 0.5, "points": 20001},
                     tmp_path)
    assert checks.check_pulse(tmp_path, "time_bin", 0.5, GAMMA0) == []
    assert any("effective Tf" in f for f in checks.check_pulse(tmp_path, "time_bin", 0.49, GAMMA0))
    rewrite_results(tmp_path, effective_Tf=0.502)
    assert any("effective Tf" in f for f in checks.check_pulse(tmp_path, "time_bin", 0.5, GAMMA0))


def test_pulse_check_rejects_gamma_off_gamma0(tmp_path):
    cli.run_scenario({"kind": "pulse", "gamma0": GAMMA0, "wavepacket": "exp_decaying", "points": 20001}, tmp_path)
    assert checks.check_pulse(tmp_path, "exp_decaying", 0.0, GAMMA0) == []

    def bump(t):
        t[1000, 1] *= 1 + 1e-5

    rewrite_csv(tmp_path / "schedule.csv", bump)
    assert any("gamma0" in f for f in checks.check_pulse(tmp_path, "exp_decaying", 0.0, GAMMA0))


def test_pulse_check_rejects_low_overlap(tmp_path):
    cli.run_scenario({"kind": "pulse", "gamma0": GAMMA0, "wavepacket": "time_bin", "Tf": 0.5, "points": 20001},
                     tmp_path)
    rewrite_results(tmp_path, in_overlap=0.998)
    assert any("in_overlap" in f for f in checks.check_pulse(tmp_path, "time_bin", 0.5, GAMMA0))


def test_store_check_rejects_wrong_decay(tmp_path):
    T1 = 2.3e-6
    cli.run_scenario({"kind": "store", "T1": T1, "Tphi": 0.96e-6, "state": {"type": "fock", "n": 1, "dim": 20}},
                     tmp_path)
    assert checks.check_store(tmp_path, T1) == []
    assert checks.check_store(tmp_path, T1 * 1.001)


def test_fig3e_check_rejects_fitted_Tphi_off_by_two_percent(tmp_path):
    cli.emit_figure_data("fig3e", tmp_path)
    assert checks.check_fig3e(tmp_path, 2.3e-6, 0.96e-6) == []
    rewrite_results(tmp_path, fit_Tphi=0.96e-6 * 1.02)
    assert any("Tphi" in f for f in checks.check_fig3e(tmp_path, 2.3e-6, 0.96e-6))


@pytest.fixture(scope="module")
def gkp_wigner(tmp_path_factory):
    d = tmp_path_factory.mktemp("wigner")
    cli.run_scenario({"kind": "wigner", "state": {"type": "bred", "protocol": "gkp", "steps": 1, "alpha": 1.0,
                                                  "s": -1, "dim": 40}}, d)
    return d / "wigner.csv"


def test_wigner_check_accepts_program_output(gkp_wigner):
    parity = ref.breeding_rows("gkp", 1, 1.0, -1)[1, 2]
    assert checks.check_wigner(gkp_wigner, parity=parity, negative_regions=2) == []


def test_wigner_check_rejects_wrong_parity_and_region_count(gkp_wigner):
    assert any("W(0,0)" in f for f in checks.check_wigner(gkp_wigner, parity=-1.0))
    assert any("negative regions" in f for f in checks.check_wigner(gkp_wigner, negative_regions=3))


def test_wigner_check_rejects_rescaled_grid(gkp_wigner, tmp_path):
    lines = gkp_wigner.read_text().splitlines()
    xs, ps, w = checks.load_wigner(gkp_wigner)
    rows = [lines[0]] + [
        ",".join(["%.17g" % p] + ["%.17g" % v for v in row * 1.01]) for p, row in zip(ps, w)
    ]
    wrong = tmp_path / "wigner.csv"
    wrong.write_text("\n".join(rows) + "\n")
    assert any("integral" in f for f in checks.check_wigner(wrong))


def test_count_regions():
    mask = np.array([[1, 1, 0, 1], [0, 0, 0, 1], [1, 0, 1, 1]], dtype=bool)
    assert checks.count_regions(mask) == 3
