import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

import resomem as rm
from resomem.errors import DomainError, NumericalAccuracyWarning
from resomem.memory import SPEED_OF_LIGHT, MemoryHardware, _cumulative_trapezoid, staircase_overlap_oracle

GAMMA0 = 2 * np.pi * 1.5e6


def make_mode(kind, points=420001, span=40.0, t0=None):
    if kind == "exp_rising":
        grid = np.linspace(-span / GAMMA0, 2 / GAMMA0, points)
    elif kind == "exp_decaying":
        grid = np.linspace(0, span / GAMMA0, points)
    else:
        grid = np.linspace(0, t0, points)
    return rm.standard_wavepacket(kind, GAMMA0, grid, t0=t0)


def test_wavepacket_shapes():
    rise = make_mode("exp_rising")
    i1 = np.searchsorted(rise.t, -2 / GAMMA0)
    i2 = np.searchsorted(rise.t, 0.0) - 1
    ratio = rise.g[i2] / rise.g[i1]
    assert ratio == pytest.approx(np.exp(GAMMA0 * (rise.t[i2] - rise.t[i1]) / 2), rel=1e-9)
    dec = make_mode("exp_decaying", points=100001, span=10.0)
    assert np.trapezoid(dec.g**2, dec.t) == pytest.approx(1.0, abs=1e-6)
    tb = make_mode("time_bin", points=10001, t0=1.0 / GAMMA0)
    assert np.all(tb.g[(tb.t >= 0) & (tb.t <= 1.0 / GAMMA0)] > 0)


def test_wavepacket_grid_too_short():
    with pytest.raises(DomainError):
        rm.standard_wavepacket("exp_rising", GAMMA0, np.linspace(-1 / GAMMA0, 0, 100))


def test_write_pulse_constant_for_exp_rising():
    rise = make_mode("exp_rising")
    sched = rm.write_pulse(rise)
    G = cumulative_trapezoid(rise.g**2, rise.t, initial=0.0)
    mask = (rise.g > 0) & (G >= 1e-6)
    assert np.max(np.abs(sched.gamma[mask] / GAMMA0 - 1)) < 1e-6
    # fully absorbed: survival probability at the end is negligible
    assert sched.survival_amplitude()[-1] ** 2 <= 1e-6


def test_write_pulse_rectangular_oracle():
    # rectangular g on [0, 1] gives gamma(t) = 1/t
    t = np.linspace(0, 1, 100001)
    g = np.ones_like(t)
    mode = rm.TemporalMode(t, g / np.sqrt(np.trapezoid(g * g, t)))
    with pytest.warns(NumericalAccuracyWarning, match="capped at support onset"):  # at t = 0 only
        sched = rm.write_pulse(mode)
    mid = (t > 0.01) & (t < 1.0)
    assert np.max(np.abs(sched.gamma[mid] * t[mid] - 1)) < 1e-4


def test_read_pulse_constant_for_exp_decaying():
    dec = make_mode("exp_decaying")
    sched = rm.read_pulse(dec)
    G = cumulative_trapezoid(dec.g**2, dec.t, initial=0.0)
    mask = (dec.g > 0) & (G[-1] - G >= 1e-3)
    assert np.max(np.abs(sched.gamma[mask] / GAMMA0 - 1)) < 1e-6


def test_read_write_time_reversal_duality():
    dec = make_mode("exp_decaying")
    rs = rm.read_pulse(dec)
    # time-reversed output mode fed to write_pulse gives the reversed schedule
    rev = rm.TemporalMode(dec.t, dec.g[::-1])
    ws = rm.write_pulse(rev)
    G = cumulative_trapezoid(dec.g**2, dec.t, initial=0.0)
    interior = (dec.g > 0) & (G[-1] - G >= 1e-3) & (G >= 1e-3)
    assert np.max(np.abs(rs.gamma[interior] - ws.gamma[::-1][interior])) / GAMMA0 < 1e-6


def test_entangle_pulse_constant_for_time_bin():
    t0 = 1.0 / GAMMA0
    tb = make_mode("time_bin", points=100001, t0=t0)
    sched = rm.entangle_pulse(tb, np.exp(-GAMMA0 * t0))
    assert np.max(np.abs(sched.gamma / GAMMA0 - 1)) < 1e-6


def test_entangle_pulse_limits():
    t0 = 1.0 / GAMMA0
    tb = make_mode("time_bin", points=20001, t0=t0)
    # Tf -> 0 approaches write_pulse pointwise (past the onset region where
    # write_pulse's default gamma cap still clips the schedule)
    small = rm.entangle_pulse(tb, 1e-9)
    ws = rm.write_pulse(tb)
    G = cumulative_trapezoid(tb.g**2, tb.t, initial=0.0)
    mask = G > 1e-2
    assert np.max(np.abs(small.gamma[mask] - ws.gamma[mask])) / GAMMA0 < 1e-5
    # gamma at the support onset equals g(0)^2 (1-Tf)/Tf
    half = rm.entangle_pulse(tb, 0.5)
    assert half.gamma[0] == pytest.approx(tb.g[0] ** 2, rel=1e-9)
    with pytest.raises(DomainError):
        rm.entangle_pulse(tb, 1.5)


def test_output_mode_from_schedule():
    t0 = 1.0 / GAMMA0
    Tf = np.exp(-GAMMA0 * t0)
    tb = make_mode("time_bin", points=100001, t0=t0)
    sched = rm.entangle_pulse(tb, Tf)
    out = rm.output_mode_from_schedule(sched, Tf)
    ideal = np.exp(-GAMMA0 * out.t / 2)
    ideal /= np.sqrt(np.trapezoid(ideal**2, out.t))
    assert np.trapezoid(out.g * ideal, out.t) ** 2 >= 1 - 1e-9
    with pytest.raises(DomainError):
        rm.output_mode_from_schedule(sched, 0.7)


def test_product_relation():
    # (1 + (1-Tf)/Tf * G_in)(1 - (1-Tf) * G_out) = 1 on the support:
    # 1/F^2 = 1 + (1-Tf)/Tf G_in and F^2 = 1 - (1-Tf) G_out, so the two
    # factors are exact reciprocals at every time
    t0 = 1.0 / GAMMA0
    Tf = 0.4
    tb = make_mode("time_bin", points=100001, t0=t0)
    sched = rm.entangle_pulse(tb, Tf)
    F = sched.survival_amplitude()
    Tf_actual = F[-1] ** 2
    g_in = np.sqrt(sched.gamma) / np.maximum(F, 1e-300)
    g_in /= np.sqrt(np.trapezoid(g_in**2, sched.t))
    g_out_raw = F * np.sqrt(sched.gamma)
    g_out = g_out_raw / np.sqrt(np.trapezoid(g_out_raw**2, sched.t))
    G_in = cumulative_trapezoid(g_in**2, sched.t, initial=0.0)
    G_out = cumulative_trapezoid(g_out**2, sched.t, initial=0.0)
    lhs = (1 + (1 - Tf_actual) / Tf_actual * G_in) * (1 - (1 - Tf_actual) * G_out)
    assert np.max(np.abs(lhs - 1)) < 1e-4


def test_network_write_absorbs():
    rise = make_mode("exp_rising", points=42001)
    net = rm.simulate_network(rm.write_pulse(rise), 1e-3 / GAMMA0)
    assert net.effective_Tf <= 1e-4
    assert net.in_overlap >= 0.999


def test_network_identity_when_uncoupled():
    sched = rm.CouplingSchedule(np.linspace(0, 1e-6, 101), np.zeros(101), 1.0)
    net = rm.simulate_network(sched, 1e-8)
    assert net.effective_Tf == 1.0
    assert net.out_mode is None


def test_network_entangle_converges():
    t0 = 1.0 / GAMMA0
    Tf = 0.5
    tb = make_mode("time_bin", points=20001, t0=t0)
    sched = rm.entangle_pulse(tb, Tf)
    errs = []
    for dt in (1e-3 / GAMMA0, 0.5e-3 / GAMMA0):
        net = rm.simulate_network(sched, dt)
        errs.append(abs(net.effective_Tf - Tf))
        assert net.in_overlap >= 0.999 and net.out_overlap >= 0.999
    assert errs[0] <= 1e-3
    assert errs[1] <= 0.6 * errs[0]  # first-order convergence


def test_network_instability_error():
    sched = rm.CouplingSchedule(np.linspace(0, 1.0, 11), np.full(11, 10.0), 100.0)
    with pytest.raises(DomainError):
        rm.simulate_network(sched, 0.5)


def test_round_trip_storage():
    rise = make_mode("exp_rising", points=42001)
    dec = make_mode("exp_decaying", points=42001)
    wnet = rm.simulate_network(rm.write_pulse(rise), 1e-3 / GAMMA0)
    rnet = rm.simulate_network(rm.read_pulse(dec), 1e-3 / GAMMA0)
    out_overlap = np.trapezoid(rnet.out_mode.g * np.interp(rnet.out_mode.t, dec.t, dec.g), rnet.out_mode.t) ** 2
    assert wnet.in_overlap * out_overlap >= 0.999


def test_multimode_overlap_values():
    assert rm.multimode_overlap(0.3) == pytest.approx(0.9974, abs=5e-4)
    assert rm.multimode_overlap(1e-6) == pytest.approx(1.0, abs=1e-6)
    assert 1 - np.sqrt(rm.multimode_overlap(0.01)) == pytest.approx(0.01**2 / 96, rel=0.05)


def test_multimode_vs_staircase_oracle():
    for T0 in np.logspace(-4, np.log10(0.9), 50):
        assert abs(rm.multimode_overlap(T0) - staircase_overlap_oracle(T0)) < 1e-10


def test_voltage_gamma_roundtrip():
    hw = MemoryHardware()
    assert rm.voltage_gamma(hw, 0.0) == 0.0
    assert rm.voltage_gamma(hw, hw.V_pi) == pytest.approx(2 * SPEED_OF_LIGHT / hw.L, rel=1e-12)
    v = rm.voltage_gamma(hw, hw.gamma0, "inverse")
    assert 0 <= v <= hw.V_pi
    assert rm.voltage_gamma(hw, v) == pytest.approx(hw.gamma0, rel=1e-9)
    with pytest.raises(DomainError):
        rm.voltage_gamma(hw, 3 * SPEED_OF_LIGHT / hw.L, "inverse")


@pytest.mark.parametrize("n", [2, 3, 10, 1001, 200_001])
def test_cumulative_trapezoid_bit_equal_to_scipy(n):
    rng = np.random.default_rng(n)
    for t in (np.sort(rng.normal(size=n)), np.linspace(-3.0, 1.0, n)):
        y = rng.normal(size=n) * 10.0 ** rng.integers(-8, 8, n)
        assert np.array_equal(_cumulative_trapezoid(y, t), cumulative_trapezoid(y, t, initial=0.0))


def fresh_interpreter(code: str) -> str:
    """stdout of `code` run by a new interpreter that imports the resomem
    this process imported."""
    src = str(Path(rm.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    return out.stdout


def test_cli_import_skips_scipy_integrate_and_optimize():
    code = "import sys, resomem.cli; print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules))"
    assert fresh_interpreter(code).strip() == "[]"


def test_cli_import_skips_scipy_ndimage():
    # wigner.negative_region_count imports scipy.ndimage when it is called
    code = "import sys, resomem.cli; print('scipy.ndimage' in sys.modules)"
    assert fresh_interpreter(code).strip() == "False"


def test_cli_import_skips_scipy_linalg():
    # gates._bs_block, a Fock oracle, imports scipy.linalg when it is called
    code = "import sys, resomem.cli; print('scipy.linalg' in sys.modules)"
    assert fresh_interpreter(code).strip() == "False"
