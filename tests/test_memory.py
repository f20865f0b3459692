import warnings

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

import resomem as rm
from resomem.errors import DomainError, NumericalAccuracyWarning
from oracles import euler_network, staircase_overlap_oracle, survival_amplitude
from resomem.cli import validate_config
from resomem.memory import GAMMA_CAP_FACTOR, _cumulative_trapezoid

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
    assert survival_amplitude(sched)[-1] ** 2 <= 1e-6


def test_write_pulse_rectangular_oracle():
    # rectangular g on [0, 1] gives gamma(t) = 1/t
    t = np.linspace(0, 1, 100001)
    g = np.ones_like(t)
    mode = rm.TemporalMode(t, g / np.sqrt(np.trapezoid(g * g, t)))
    with pytest.warns(NumericalAccuracyWarning, match="capped at support onset"):  # at t = 0 only
        sched = rm.write_pulse(mode)
    mid = (t > 0.01) & (t < 1.0)
    assert np.max(np.abs(sched.gamma[mid] * t[mid] - 1)) < 1e-4


@pytest.mark.parametrize("points", [2001, 200001])
def test_write_pulse_default_pulse_is_silent(points):
    # the `pulse` scenario's default exp_rising mode: only samples at the
    # support onset cap, and they carry ~1e-11 of int g^2
    rise = make_mode("exp_rising", points=points, span=20.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", NumericalAccuracyWarning)
        sched = rm.write_pulse(rise)
    assert sched.gamma[0] == GAMMA_CAP_FACTOR * np.max(rise.g**2)  # the first sample is still capped


def test_write_pulse_warns_when_clipping_is_material():
    # a time bin starts at its full amplitude: gamma ~ 1/t caps over the
    # first ~1% of the bin, which carries far more than NORM_TRUNCATION
    tb = make_mode("time_bin", points=20001, t0=1.0 / GAMMA0)
    with pytest.warns(NumericalAccuracyWarning, match="capped at support onset"):
        rm.write_pulse(tb)


def test_read_pulse_warns_only_when_clipping_is_material():
    # span 9/gamma0 leaves ~1e-4 of the exponential past the grid: gamma caps
    # in the last samples before the zeroed tail, which carry ~6e-7 of int g^2
    short = make_mode("exp_decaying", points=2001, span=9.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", NumericalAccuracyWarning)
        sched = rm.read_pulse(short)
    assert np.any(sched.gamma == GAMMA_CAP_FACTOR * np.max(short.g**2))
    with pytest.warns(NumericalAccuracyWarning, match="capped near support end"):
        rm.read_pulse(make_mode("exp_decaying", points=2001, span=8.0))


def test_temporal_mode_rejects_non_finite_g():
    t = np.linspace(0.0, 1.0, 11)
    for bad in (np.nan, np.inf):
        g = np.ones_like(t)
        g[3] = bad
        with pytest.raises(DomainError, match="finite"):
            rm.TemporalMode(t, g)


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
    # and it releases the rest into the decaying exponential
    out = rm.simulate_network(sched).out_mode
    ideal = np.exp(-GAMMA0 * out.t / 2)
    ideal /= np.sqrt(np.trapezoid(ideal**2, out.t))
    assert np.trapezoid(out.g * ideal, out.t) ** 2 >= 1 - 1e-9


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


def test_product_relation():
    # (1 + (1-Tf)/Tf * G_in)(1 - (1-Tf) * G_out) = 1 on the support:
    # 1/F^2 = 1 + (1-Tf)/Tf G_in and F^2 = 1 - (1-Tf) G_out, so the two
    # factors are exact reciprocals at every time
    t0 = 1.0 / GAMMA0
    Tf = 0.4
    tb = make_mode("time_bin", points=100001, t0=t0)
    sched = rm.entangle_pulse(tb, Tf)
    F = survival_amplitude(sched)
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
    net = rm.simulate_network(rm.write_pulse(rise))
    assert net.effective_Tf <= 1e-4
    assert net.in_overlap >= 0.999


def test_network_identity_when_uncoupled():
    sched = rm.CouplingSchedule(np.linspace(0, 1e-6, 101), np.zeros(101))
    net = rm.simulate_network(sched)
    assert net.effective_Tf == 1.0
    assert net.out_mode is None


def test_network_entangle_converges():
    t0 = 1.0 / GAMMA0
    Tf = 0.5
    tb = make_mode("time_bin", points=20001, t0=t0)
    sched = rm.entangle_pulse(tb, Tf)
    errs = []
    for dt in (1e-3 / GAMMA0, 0.5e-3 / GAMMA0):
        net = euler_network(sched, dt)
        errs.append(abs(net.effective_Tf - Tf))
        assert net.in_overlap >= 0.999 and net.out_overlap >= 0.999
    assert errs[0] <= 1e-3
    assert errs[1] <= 0.6 * errs[0]  # first-order convergence


def test_network_effective_Tf_is_the_trapezoid_survival():
    rise = make_mode("exp_rising", points=42001)
    dec = make_mode("exp_decaying", points=20001, span=20.0)
    for sched in (rm.write_pulse(rise), rm.read_pulse(dec), rm.entangle_pulse(dec, 0.3),
                  rm.CouplingSchedule(np.linspace(0, 1.0, 11), np.full(11, 10.0))):
        net = rm.simulate_network(sched)
        assert abs(net.effective_Tf - np.exp(-np.trapezoid(sched.gamma, sched.t))) <= 1e-12


def test_network_is_the_product_of_its_slice_beamsplitters():
    # modes (a, b_0, ..., b_4); slice i mixes a and b_i by [[c, s], [-s, c]],
    # c = e^{-gamma w / 2} and s = sqrt(1 - c^2), at trapezoid widths w
    t = np.linspace(0.0, 2.0, 5)
    gamma = np.array([0.3, 2.0, 0.7, 1.5, 4.0])
    w = np.array([0.25, 0.5, 0.5, 0.5, 0.25])
    U = np.eye(6)
    for i, x in enumerate(gamma * w):
        c, s = np.exp(-x / 2), np.sqrt(1 - np.exp(-x))
        B = np.eye(6)
        B[np.ix_([0, i + 1], [0, i + 1])] = [[c, s], [-s, c]]
        U = B @ U
    net = rm.simulate_network(rm.CouplingSchedule(t, gamma))
    assert net.effective_Tf == pytest.approx(U[0, 0] ** 2, abs=1e-15)
    # no later slice touches b_i, so row i + 1 is out_i; its weight on the first a is v_out_i
    v_out = U[1:, 0]
    assert np.allclose(net.out_mode.g**2 * w * (1 - net.effective_Tf), v_out**2, rtol=0, atol=1e-14)


@pytest.mark.parametrize("kind", ["time_bin", "exp_decaying"])
@pytest.mark.parametrize("Tf", [0.5, 2 / 3, 0.75])
def test_network_meets_Tf_at_default_points(kind, Tf):
    # the pulse scenario's grid: 20001 points over t0 = 1/gamma0 or span = 20/gamma0
    t0 = 1.0 / GAMMA0
    mode = make_mode("time_bin", points=20001, t0=t0) if kind == "time_bin" else make_mode(kind, 20001, 20.0)
    net = rm.simulate_network(rm.entangle_pulse(mode, Tf))
    assert abs(net.effective_Tf - Tf) <= 1e-7
    assert net.in_overlap >= 0.999 and net.out_overlap >= 0.999


@pytest.mark.parametrize("kind", ["time_bin", "exp_decaying"])
@pytest.mark.parametrize("Tf", [1e-12, 1e-300])
def test_network_output_overlap_when_every_mode_sample_underflows(kind, Tf):
    # the first slice's gamma * w is 3e7 or more, so e^{-gamma w / 4} underflows in every sample of
    # the analytic output mode; shifted to peak at 0, the mode keeps its shape
    t0 = 1.0 / GAMMA0
    mode = make_mode("time_bin", points=20001, t0=t0) if kind == "time_bin" else make_mode(kind, 20001, 20.0)
    net = rm.simulate_network(rm.entangle_pulse(mode, Tf))
    assert net.out_overlap == pytest.approx(1.0, abs=1e-12)
    assert 0 < net.in_overlap <= 1


def test_network_converges_second_order():
    t0 = 1.0 / GAMMA0
    errs = [abs(rm.simulate_network(rm.entangle_pulse(make_mode("time_bin", points, t0=t0), 0.5)).effective_Tf - 0.5)
            for points in (2001, 4001)]
    assert errs[1] <= errs[0] / 3


def test_network_rejects_infinite_rate():
    sched = rm.CouplingSchedule(np.linspace(0, 1.0, 11), np.r_[np.full(10, 1.0), np.inf])
    with pytest.raises(DomainError, match="not finite"):
        rm.simulate_network(sched)


def test_schedule_times_must_increase():
    with pytest.raises(DomainError, match="increasing"):
        rm.CouplingSchedule(np.array([0.0, 1.0, 1.0]), np.zeros(3))


def test_wavepacket_grid_step_at_most_one_over_gamma0():
    rm.standard_wavepacket("exp_decaying", GAMMA0, np.linspace(0, 8 / GAMMA0, 10))
    with pytest.raises(DomainError, match="grid step 1.21e-07 s is longer than 1/gamma0"):
        rm.standard_wavepacket("exp_decaying", GAMMA0, np.linspace(0, 8 / GAMMA0, 8))


def test_round_trip_storage():
    rise = make_mode("exp_rising", points=42001)
    dec = make_mode("exp_decaying", points=42001)
    wnet = rm.simulate_network(rm.write_pulse(rise))
    rnet = rm.simulate_network(rm.read_pulse(dec))
    out_overlap = np.trapezoid(rnet.out_mode.g * np.interp(rnet.out_mode.t, dec.t, dec.g), rnet.out_mode.t) ** 2
    assert wnet.in_overlap * out_overlap >= 0.999


def test_multimode_overlap_values():
    assert rm.multimode_overlap(0.3) == pytest.approx(0.9974, abs=5e-4)
    assert rm.multimode_overlap(1e-6) == pytest.approx(1.0, abs=1e-6)
    assert 1 - np.sqrt(rm.multimode_overlap(0.01)) == pytest.approx(0.01**2 / 96, rel=0.05)


def test_multimode_vs_staircase_oracle():
    for T0 in np.logspace(-4, np.log10(0.9), 50):
        assert abs(rm.multimode_overlap(T0) - staircase_overlap_oracle(T0)) < 1e-10


def test_pulse_default_gamma0_is_the_paper_rate():
    assert validate_config({"kind": "pulse"})["gamma0"] == rm.memory.GAMMA0 == GAMMA0


@pytest.mark.parametrize("n", [2, 3, 10, 1001, 200_001])
def test_cumulative_trapezoid_bit_equal_to_scipy(n):
    rng = np.random.default_rng(n)
    for t in (np.sort(rng.normal(size=n)), np.linspace(-3.0, 1.0, n)):
        y = rng.normal(size=n) * 10.0 ** rng.integers(-8, 8, n)
        assert np.array_equal(_cumulative_trapezoid(y, t), cumulative_trapezoid(y, t, initial=0.0))
