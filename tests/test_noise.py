import math
import warnings

import numpy as np
import pytest

import resomem as rm
from oracles import annihilation_operator, check_physical, lindblad_oracle
from resomem.errors import DomainError
from resomem.gates import beamsplitter_apply
from resomem.noise import normalized_coherence

T1 = 2.3e-6
TPHI = 0.96e-6
PARAMS = rm.NoiseParams(T1, TPHI)


def random_state(seed, dim=8):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = A @ A.conj().T
    return rm.DensityMatrix(dim, rho / np.trace(rho).real)


def test_t0_identity():
    rho = random_state(0)
    out = rm.evolve_closed_form(rho, 0.0, PARAMS)
    assert np.max(np.abs(out.rho - rho.rho)) == 0


def test_vacuum_fixed_point():
    vac = rm.vacuum(10).to_density_matrix()
    out = rm.evolve_closed_form(vac, 5e-6, PARAMS)
    assert np.max(np.abs(out.rho - vac.rho)) < 1e-12


def test_one_photon_decay():
    one = rm.fock_basis_state(1, 10).to_density_matrix()
    out = rm.evolve_closed_form(one, T1, PARAMS)
    assert out.rho[1, 1].real == pytest.approx(np.exp(-1), abs=1e-12)
    assert out.rho[0, 0].real == pytest.approx(1 - np.exp(-1), abs=1e-12)


def test_closed_form_vs_lindblad_oracle():
    for seed in range(10):
        rho = random_state(seed)
        for t in (0.1 * T1, T1, 3 * T1):
            a = rm.evolve_closed_form(rho, t, PARAMS)
            b = lindblad_oracle(rho, t, PARAMS)
            assert np.max(np.abs(a.rho - b.rho)) <= 1e-6


def test_oracle_step_guard():
    with pytest.raises(DomainError):
        lindblad_oracle(random_state(1), T1, PARAMS, steps=10)


def test_amplitude_damping_of_coherent_state():
    # Tphi = inf: <a> decays as e^{-t/2T1}
    alpha = 0.8
    rho = rm.coherent_state(alpha, 25).to_density_matrix()
    params = rm.NoiseParams(T1, np.inf)
    a = annihilation_operator(25)
    for t in (0.5 * T1, 2 * T1):
        out = rm.evolve_closed_form(rho, t, params)
        mean_a = np.trace(a @ out.rho)
        assert abs(mean_a - alpha * np.exp(-t / (2 * T1))) < 1e-9


def test_pure_dephasing_coherence_factor():
    # T1 = inf: diagonal invariant, (0,2) coherence decays as e^{-4 t/Tphi}
    rho = rm.squeezed_vacuum(0.5, 20).to_density_matrix()
    params = rm.NoiseParams(np.inf, TPHI)
    t = 0.7e-6
    out = rm.evolve_closed_form(rho, t, params)
    assert np.max(np.abs(np.diag(out.rho) - np.diag(rho.rho))) < 1e-12
    assert abs(out.rho[0, 2]) == pytest.approx(abs(rho.rho[0, 2]) * np.exp(-4 * t / TPHI), rel=1e-9)


def test_semigroup_property():
    rho = random_state(3)
    a = rm.evolve_closed_form(rm.evolve_closed_form(rho, 1e-6, PARAMS), 0.5e-6, PARAMS)
    b = rm.evolve_closed_form(rho, 1.5e-6, PARAMS)
    assert np.max(np.abs(a.rho - b.rho)) < 1e-9


def test_trace_hermiticity_positivity_preserved():
    rho = rm.cat_state(1.0, -1, 40).to_density_matrix()
    out = rm.evolve_closed_form(rho, TPHI, PARAMS)
    assert out.trace == pytest.approx(1.0, abs=1e-9)
    check_physical(out)


def test_apply_loss_identity_and_one_photon():
    one = rm.fock_basis_state(1, 10).to_density_matrix()
    assert rm.apply_loss(one, 1.0) is one
    assert rm.apply_loss(one, 0.93).rho[1, 1].real == pytest.approx(0.93, abs=1e-12)
    with pytest.raises(DomainError):
        rm.apply_loss(one, 0.0)


def test_apply_loss_vs_beamsplitter_oracle():
    # loss channel == beamsplitter with vacuum + trace over the output port
    eta = 0.5
    cat = rm.cat_state(1.0, -1, 40)
    joint = beamsplitter_apply(cat, rm.vacuum(40), eta)
    traced = joint.amp @ joint.amp.conj().T
    out = rm.apply_loss(cat.to_density_matrix(), eta)
    assert np.max(np.abs(out.rho - traced)) < 1e-8


def test_fit_T1_exact_and_errors():
    t = np.linspace(0, 2e-6, 5)
    series = rm.CoherenceSeries(t, np.exp(-t / T1))
    assert rm.fit_T1(series) == pytest.approx(T1, abs=1e-9 * T1)
    assert rm.fit_T1(rm.CoherenceSeries(t, np.ones(5))) == math.inf  # no decay at all
    with pytest.raises(DomainError, match="does not decay"):
        rm.fit_T1(rm.CoherenceSeries(t, np.exp(t / T1)))
    with pytest.raises(DomainError):
        rm.fit_T1(rm.CoherenceSeries(t[:2], np.exp(-t[:2] / T1)))


def test_fit_T1_noisy_within_5_percent():
    rng = np.random.default_rng(11)
    t = np.linspace(0, 3e-6, 12)
    vals = np.exp(-t / T1) * (1 + 0.01 * rng.normal(size=len(t)))
    assert abs(rm.fit_T1(rm.CoherenceSeries(t, vals)) - T1) < 0.05 * T1


def test_fit_Tphi_exact_at_infinite_T1():
    t = np.array([0.0, 0.2e-6, 0.4e-6])
    sq = rm.squeezed_vacuum(0.5, 20).to_density_matrix()
    rhos = [rm.evolve_closed_form(sq, float(ti), rm.NoiseParams(np.inf, TPHI)) for ti in t]
    assert rm.fit_Tphi(rhos, t) == pytest.approx(TPHI, rel=1e-6)


def test_fit_Tphi_finite_T1_subpercent():
    # with finite T1 the R(t) construction cancels relaxation only
    # approximately; at T1 = 2.3 us the residual bias is ~0.8%
    t = np.linspace(0, 0.4e-6, 5)
    sq = rm.squeezed_vacuum(0.5, 20).to_density_matrix()
    rhos = [rm.evolve_closed_form(sq, float(ti), PARAMS) for ti in t]
    assert abs(rm.fit_Tphi(rhos, t) - TPHI) < 0.01 * TPHI


def test_R_exponent_exactness():
    sq = rm.squeezed_vacuum(0.4, 16).to_density_matrix()
    params = rm.NoiseParams(np.inf, TPHI)
    R0 = normalized_coherence(sq)
    for t in (0.1e-6, 0.5e-6, 1.1e-6):
        R = normalized_coherence(rm.evolve_closed_form(sq, t, params))
        assert abs(R / R0 - np.exp(-t / TPHI)) < 1e-9


def test_fit_Tphi_constant_returns_inf():
    t = np.array([0.0, 0.1e-6, 0.2e-6])
    sq = rm.squeezed_vacuum(0.5, 16).to_density_matrix()
    rhos = [rm.evolve_closed_form(sq, float(ti), rm.NoiseParams(np.inf, np.inf)) for ti in t]
    assert rm.fit_Tphi(rhos, t) == np.inf


@pytest.mark.parametrize("T1_, Tphi", [(T1, TPHI), (math.inf, TPHI), (T1, math.inf), (math.inf, math.inf),
                                       (1e-9, 1e-9)])
def test_channel_is_exact_on_the_cut(T1_, Tphi):
    # damping only lowers n: the evolution at dim d is, bit for bit, that of the state zero-padded
    # to a larger dim, with zeros outside the kept block, however much weight sits at the top
    params = rm.NoiseParams(T1_, Tphi)
    top = rm.fock_basis_state(5, 6).to_density_matrix()
    for rho in [top, *(random_state(seed, dim) for seed, dim in enumerate((7, 16, 40)))]:
        dim = rho.dim
        out = rm.evolve_closed_form(rho, 1e-6, params).rho
        for pad in (1, 7, 30):
            padded = np.zeros((dim + pad, dim + pad), complex)
            padded[:dim, :dim] = rho.rho
            big = rm.evolve_closed_form(rm.DensityMatrix(dim + pad, padded), 1e-6, params).rho
            assert np.array_equal(big[:dim, :dim], out), (dim, pad)
            assert not big[dim:].any() and not big[:, dim:].any(), (dim, pad)


def test_params_validation():
    with pytest.raises(DomainError):
        rm.NoiseParams(-1.0, 1.0)


@pytest.mark.parametrize("t", [math.inf, math.nan, -1e-9])
def test_time_must_be_finite_and_nonnegative(t):
    # an infinite or NaN t would leave a state whose trace is NaN
    with pytest.raises(DomainError, match="finite and >= 0"):
        rm.evolve_closed_form(random_state(3), t, PARAMS)


@pytest.mark.parametrize("T1_, Tphi", [(math.inf, math.inf), (math.inf, TPHI), (T1, math.inf)])
def test_infinite_lifetime_at_the_float_range_edge(T1_, Tphi):
    # n t and (n - m)^2 t overflow to inf at t = 1.7e308; an infinite lifetime still switches its channel off
    rho = random_state(4)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = rm.evolve_closed_form(rho, 1.7e308, rm.NoiseParams(T1_, Tphi))
    if math.isinf(T1_):  # the diagonal stays; infinite Tphi keeps the coherences, finite Tphi ends them
        expected = rho.rho if math.isinf(Tphi) else np.diag(np.diag(rho.rho))
    else:  # everything has decayed to the vacuum
        expected = np.diag(np.eye(rho.dim)[0]).astype(complex)
    assert np.array_equal(out.rho, expected)


def test_closed_form_takes_a_fock_vector():
    # a pure state is coerced as apply_loss coerces it: the same rho, bit for bit
    for state in (rm.fock_basis_state(1, 12), rm.cat_state(1.0, -1, 20)):
        for t in (0.0, 1e-7):
            out = rm.evolve_closed_form(state, t, PARAMS).rho
            assert np.array_equal(out, rm.evolve_closed_form(state.to_density_matrix(), t, PARAMS).rho)
