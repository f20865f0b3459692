import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.special import erf

import resomem as rm
from resomem.errors import ContractError, DimensionError, DomainError
from resomem.gates import full_line_window, hermite_functions, quadrature_density


def dense_bs_oracle(dimA, dimB, T):
    """U = expm(theta (a^dag b - a b^dag)) on the full product space."""
    theta = np.arccos(np.sqrt(T))
    gen = np.zeros((dimA * dimB, dimA * dimB))
    idx = lambda na, nb: na * dimB + nb
    for na in range(dimA):
        for nb in range(dimB):
            if na + 1 < dimA and nb >= 1:
                gen[idx(na + 1, nb - 1), idx(na, nb)] += np.sqrt((na + 1) * nb)
            if na >= 1 and nb + 1 < dimB:
                gen[idx(na - 1, nb + 1), idx(na, nb)] -= np.sqrt(na * (nb + 1))
    return expm(theta * gen)


def test_single_photon_convention():
    j = rm.beamsplitter_apply(rm.fock_basis_state(1, 6), rm.vacuum(6), 0.5)
    assert j.amp[1, 0] == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert j.amp[0, 1] == pytest.approx(-1 / np.sqrt(2), abs=1e-12)


def test_vacuum_invariance():
    for T in (0.0, 0.3, 1.0):
        j = rm.beamsplitter_apply(rm.vacuum(6), rm.vacuum(6), T)
        assert abs(j.amp[0, 0] - 1) < 1e-12


def test_hong_ou_mandel_vs_dense_oracle():
    a = rm.fock_basis_state(1, 8)
    j = rm.beamsplitter_apply(a, a, 0.5)
    assert abs(j.amp[1, 1]) < 1e-12
    assert abs(abs(j.amp[2, 0]) - 1 / np.sqrt(2)) < 1e-12
    oracle = dense_bs_oracle(8, 8, 0.5) @ np.kron(a.amp, a.amp)
    assert np.max(np.abs(j.amp.reshape(-1) - oracle)) < 1e-10


def test_beamsplitter_vs_dense_oracle_random():
    rng = np.random.default_rng(2)
    for T in (0.2, 0.75):
        va = rng.normal(size=6) + 1j * rng.normal(size=6)
        vb = rng.normal(size=6) + 1j * rng.normal(size=6)
        a = rm.FockVector(6, va).normalized()
        b = rm.FockVector(6, vb).normalized()
        j = rm.beamsplitter_apply(a, b, T)
        oracle = dense_bs_oracle(6, 6, T) @ np.kron(a.amp, b.amp)
        assert np.max(np.abs(j.amp.reshape(-1) - oracle)) < 1e-10


def test_beamsplitter_errors():
    with pytest.raises(DimensionError):
        rm.beamsplitter_apply(rm.vacuum(6), rm.vacuum(8), 0.5)
    with pytest.raises(DomainError):
        rm.beamsplitter_apply(rm.vacuum(6), rm.vacuum(6), 1.5)


def test_quadrature_eigenbra_values():
    bra = rm.quadrature_eigenbra(0.0, 0.0, 4)
    assert bra[0] == pytest.approx(np.pi**-0.25, abs=1e-9)
    assert bra[1] == 0
    assert bra[2].real == pytest.approx(-(np.pi**-0.25) / np.sqrt(2), abs=1e-9)


def test_eigenbra_phase_rotation():
    bra = rm.quadrature_eigenbra(0.7, np.pi / 2, 10)
    psi = hermite_functions(0.7, 10)
    assert np.allclose(bra, np.exp(1j * np.arange(10) * np.pi / 2) * psi)


def _random_mixed_state(dim, rank, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


@pytest.mark.parametrize("theta", [0.0, 0.3, np.pi / 2, 2.5, -1.0])
def test_quadrature_density_matches_complex_contraction(theta):
    """Rotating rho by theta with real Hermite functions equals the complex
    contraction <x_theta|rho|x'_theta> over the eigenbras."""
    x = np.linspace(-5, 5, 301)
    xp = 0.8 * x[::-1] + 0.3
    states = [rm.coherent_state(1 + 0.7j, 20).to_density_matrix().rho, _random_mixed_state(12, 4, 3)]
    for rho in states:
        dim = rho.shape[0]
        bras = rm.quadrature_eigenbra(x, theta, dim)
        kets = rm.quadrature_eigenbra(xp, theta, dim)
        diag = quadrature_density(rho, theta, hermite_functions(x, dim))
        assert diag.dtype == float
        assert np.max(np.abs(diag - np.einsum("iv,iv->v", bras, rho @ bras.conj()))) < 1e-13
        off = quadrature_density(rho, theta, hermite_functions(x, dim), hermite_functions(xp, dim))
        assert np.max(np.abs(off - np.einsum("iv,iv->v", bras, rho @ kets.conj()))) < 1e-13


def test_hermite_functions_orthonormal():
    x = np.linspace(-12, 12, 24001)
    psi = hermite_functions(x, 12)
    gram = psi @ psi.T * (x[1] - x[0])
    assert np.max(np.abs(gram - np.eye(12))) < 1e-6


def test_project_product_state():
    j = rm.beamsplitter_apply(rm.vacuum(8), rm.vacuum(8), 0.5)
    for x in (0.0, 0.8):
        surv, dens = rm.homodyne_project(j, "B", 0.0, x)
        assert dens == pytest.approx(np.pi**-0.5 * np.exp(-x * x), abs=1e-12)
        assert abs(rm.fidelity(surv.normalized(), rm.vacuum(8)) - 1) < 1e-12


def test_project_requires_normalized():
    j = rm.JointState(4, 4, np.eye(4) * 0.3)
    with pytest.raises(ContractError):
        rm.homodyne_project(j, "B", 0.0, 0.0)


def test_gkp_breeding_step_matches_closed_form():
    # x = 0 conditioning is exact for imaginary-axis coherent superpositions
    cat = rm.cat_state(1.0, -1, 60)
    j = rm.beamsplitter_apply(cat, cat, 0.5)
    surv, _ = rm.homodyne_project(j, "B", 0.0, 0.0)
    target = rm.theoretical_bred_state(2, 1.0, -1, "gkp", 60)
    assert rm.fidelity(surv.normalized(), target) >= 0.999


def test_cat_breeding_step_close_to_asymptotic_form():
    # p = 0 conditioning only approximately yields the sqrt(2)-amplitude cat;
    # the exact Fock-space value saturates near 0.9686 at alpha = 1
    cat = rm.cat_state(1.0, -1, 60)
    j = rm.beamsplitter_apply(cat, cat, 0.5)
    surv, _ = rm.homodyne_project(j, "B", np.pi / 2, 0.0)
    target = rm.theoretical_bred_state(2, 1.0, -1, "cat", 60)
    f = rm.fidelity(surv.normalized(), target)
    assert 0.96 < f < 0.98


def test_window_vacuum_acceptance():
    j = rm.beamsplitter_apply(rm.vacuum(8), rm.vacuum(8), 0.5)
    _, acc = rm.window_condition(j, "B", np.pi / 2, -0.1, 0.1)
    assert acc == pytest.approx(erf(0.1), abs=1e-6)


def test_full_line_window_is_reduced_state():
    a = rm.cat_state(0.8, -1, 30)
    b = rm.vacuum(30)
    j = rm.JointState(30, 30, np.outer(a.amp, b.amp))
    rho, acc = full_line_window(j, "B", 0.3)
    assert acc == pytest.approx(1.0, abs=1e-4)
    assert rm.fidelity(a, rho) >= 1 - 1e-6


def test_window_converges_to_ideal_projection():
    cat = rm.cat_state(1.0, -1, 40)
    j = rm.beamsplitter_apply(cat, cat, 0.5)
    surv, _ = rm.homodyne_project(j, "B", np.pi / 2, 0.0)
    rho, _ = rm.window_condition(j, "B", np.pi / 2, -0.1, 0.1)
    assert rm.fidelity(surv.normalized(), rho) >= 0.995
    rho2, _ = rm.window_condition(j, "B", np.pi / 2, -0.005, 0.005)
    assert rm.fidelity(surv.normalized(), rho2) >= 0.999


def test_window_condition_is_not_conjugated():
    # a complex-valued joint state: the conditional state differs from its
    # complex conjugate, so a narrow window must reproduce the ideal projection
    a = rm.coherent_state(1 + 0.7j, 30)
    b = rm.squeezed_vacuum(0.3, 30)
    j = rm.beamsplitter_apply(a, b, 0.5)
    surv, _ = rm.homodyne_project(j, "B", 0.3, 0.05)
    rho, _ = rm.window_condition(j, "B", 0.3, 0.049, 0.051)
    assert rm.fidelity(surv.normalized(), rho) >= 0.9999


def test_window_empty_error():
    j = rm.beamsplitter_apply(rm.vacuum(6), rm.vacuum(6), 0.5)
    with pytest.raises(DomainError):
        rm.window_condition(j, "B", 0.0, 0.2, 0.1)


def test_density_completeness():
    cat = rm.cat_state(1.0, -1, 40)
    j = rm.beamsplitter_apply(cat, rm.squeezed_single_photon(0.5, 40), 0.5)
    grid = np.arange(-12, 12 + 5e-4, 1e-3)
    from resomem.gates import homodyne_density_grid

    _, dens = homodyne_density_grid(j, "A", 0.4, grid)
    assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-4)


@given(T=st.floats(0.0, 1.0))
@settings(max_examples=25, deadline=None)
def test_unitarity_and_photon_conservation(T):
    rng = np.random.default_rng(7)
    amp = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    j = rm.JointState(8, 8, amp / np.linalg.norm(amp))
    out = rm.gates.beamsplitter_apply_joint(j, T)
    assert abs(out.norm - 1) < 1e-9
    assert np.max(np.abs(out.total_photon_distribution() - j.total_photon_distribution())) < 1e-9


def test_identity_at_T1():
    a = rm.cat_state(0.7, -1, 30)
    b = rm.squeezed_single_photon(0.4, 30)
    j0 = rm.JointState(30, 30, np.outer(a.amp, b.amp))
    j = rm.gates.beamsplitter_apply_joint(j0, 1.0)
    assert np.max(np.abs(j.amp - j0.amp)) < 1e-9
