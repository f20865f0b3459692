import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import resomem as rm
from dyads import Dyads
from oracles import (
    eigenbra_density,
    fock_conditioning,
    full_line_window,
    quadrature_eigenbra,
    total_photon_distribution,
)
from resomem.errors import ContractError, DimensionError, DomainError
from resomem.gates import (
    PROJECTION_GRID_BOUND,
    JointState,
    beamsplitter_apply,
    beamsplitter_apply_joint,
    condition_on_quadrature,
    fifty_fifty_image,
    gauss_hermite,
    hermite_functions,
    homodyne_project,
    product_table,
    projection_rule,
    quadrature_density,
    window_condition,
)


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
    j = beamsplitter_apply(rm.fock_basis_state(1, 6), rm.vacuum(6), 0.5)
    assert j.amp[1, 0] == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert j.amp[0, 1] == pytest.approx(-1 / np.sqrt(2), abs=1e-12)


def test_vacuum_invariance():
    for T in (0.0, 0.3, 1.0):
        j = beamsplitter_apply(rm.vacuum(6), rm.vacuum(6), T)
        assert abs(j.amp[0, 0] - 1) < 1e-12


def test_hong_ou_mandel_vs_dense_oracle():
    a = rm.fock_basis_state(1, 8)
    j = beamsplitter_apply(a, a, 0.5)
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
        j = beamsplitter_apply(a, b, T)
        oracle = dense_bs_oracle(6, 6, T) @ np.kron(a.amp, b.amp)
        assert np.max(np.abs(j.amp.reshape(-1) - oracle)) < 1e-10


def test_beamsplitter_errors():
    with pytest.raises(DimensionError):
        beamsplitter_apply(rm.vacuum(6), rm.vacuum(8), 0.5)
    with pytest.raises(DomainError):
        beamsplitter_apply(rm.vacuum(6), rm.vacuum(6), 1.5)


def test_quadrature_eigenbra_values():
    bra = quadrature_eigenbra(0.0, 0.0, 4)
    assert bra[0] == pytest.approx(np.pi**-0.25, abs=1e-9)
    assert bra[1] == 0
    assert bra[2].real == pytest.approx(-(np.pi**-0.25) / np.sqrt(2), abs=1e-9)


def test_eigenbra_phase_rotation():
    bra = quadrature_eigenbra(0.7, np.pi / 2, 10)
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
    contraction <x_theta|rho|x'_theta> over the eigenbras; at x' = x that is
    the product-basis density of `marginal`."""
    x = np.linspace(-5, 5, 301)
    xp = 0.8 * x[::-1] + 0.3
    states = [rm.coherent_state(1 + 0.7j, 20).to_density_matrix().rho, _random_mixed_state(12, 4, 3)]
    for rho in states:
        dim = rho.shape[0]
        diag = rm.marginal(rm.DensityMatrix(dim, rho), theta, x)
        assert diag.dtype == float
        assert np.max(np.abs(diag - eigenbra_density(rho, theta, x))) < 1e-13
        off = quadrature_density(rho, theta, hermite_functions(x, dim), hermite_functions(xp, dim))
        assert np.max(np.abs(off - eigenbra_density(rho, theta, x, xp))) < 1e-13


@pytest.mark.parametrize("dim", [2, 20, 30, 40])
def test_product_rule_of_hermite_functions(dim):
    # psi_m(x) psi_n(x) = sum_k T[k, (m, n)] psi_k(sqrt2 x); 2.3e-15 measured at dim 20, 4.3e-15 at 40
    x = np.linspace(-12, 12, 2401)
    psi = hermite_functions(x, dim)
    products = (psi[:, None] * psi[None, :]).reshape(dim * dim, -1)
    expansion = product_table(dim).T @ hermite_functions(np.sqrt(2.0) * x, 2 * dim - 1)
    assert np.max(np.abs(products - expansion)) <= 1e-13


@pytest.mark.parametrize("dim", [2, 7, 20, 30])
def test_fifty_fifty_image_matches_fock_beamsplitter(dim):
    # U = U_{pi/4} SWAP on the zero-padded two-mode state sum S[m, n] |m, n>, U_{pi/4} through scipy's expm
    rng = np.random.default_rng(dim)
    S = rng.normal(size=(3, dim, dim)) + 1j * rng.normal(size=(3, dim, dim))
    S /= np.linalg.norm(S, axis=(1, 2))[:, None, None]  # normalized two-mode states; 1.9e-14 measured at dim 30
    M = 2 * dim - 1
    H = fifty_fifty_image(S)
    assert H.shape == (3, M, M) and H.dtype == complex
    for S_s, H_s in zip(S, H):
        swapped = np.zeros((M, M), dtype=complex)
        swapped[:dim, :dim] = S_s.T
        ref = beamsplitter_apply_joint(JointState(M, M, swapped), 0.5).amp
        assert np.max(np.abs(H_s - ref)) <= 1e-13
    # a real stack has a real image, each matrix as alone
    real = fifty_fifty_image(S.real)
    assert real.dtype == float
    assert np.array_equal(real[1], fifty_fifty_image(S[1].real))


@pytest.mark.parametrize("dim", [1, 2, 7, 20, 30])
def test_tomography_table_is_the_dense_table_bit_for_bit(dim):
    # the ML loop's T, scattered from the blocks, is the 50:50 image of the dim^2 unit matrices times psi(0)
    units = np.eye(dim * dim).reshape(dim * dim, dim, dim)
    ref = (fifty_fifty_image(units) @ hermite_functions(0.0, 2 * dim - 1)).T
    T = product_table(dim)
    assert T.shape == ref.shape and T.strides == ref.strides
    assert np.array_equal(T.view(np.uint64), ref.view(np.uint64))


@pytest.mark.parametrize("dim", [2, 5, 20, 60, 150])
def test_marginal_matches_dim_row_form(dim):
    # random complex mixed states at generic phases, against the complex eigenbras (dim rows
    # per point, no product rule); every phase in one call
    rho = _random_mixed_state(dim, 3, dim)
    thetas = np.array([0.37, -1.3, 2.9])
    x = np.linspace(-PROJECTION_GRID_BOUND, PROJECTION_GRID_BOUND, 2401)
    dens = rm.marginal(rm.DensityMatrix(dim, rho), thetas, x)
    assert dens.shape == (3, len(x))
    for theta, row in zip(thetas, dens):
        assert np.max(np.abs(row - eigenbra_density(rho, theta, x))) <= 1e-13
    single = rm.marginal(rm.DensityMatrix(dim, rho), thetas[0], x)
    assert np.max(np.abs(single - eigenbra_density(rho, thetas[0], x))) <= 1e-13


@pytest.mark.parametrize("theta", [0.3, 2.5, -1.0])
@pytest.mark.parametrize("window", [None, (0.2, 0.4)])
def test_kernel_matches_fock_oracle_at_generic_phase(theta, window):
    # complex, parity-free states at a phase other than 0 or pi/2: the sign
    # of theta in the kernel's phase factors is visible here
    mem = rm.coherent_state(0.8 + 0.5j, 30)
    anc = rm.coherent_state(-0.4 + 0.9j, 30)
    T = 2 / 3
    ref, ref_dens = fock_conditioning(mem, anc, T, theta, 0.37 if window is None else window)
    nodes, weights = (np.array([0.37]), np.ones(1)) if window is None else projection_rule(window)
    cond, dens = condition_on_quadrature(mem.to_density_matrix().rho, anc.amp, T, theta, nodes, weights)
    assert np.max(np.abs(cond / dens - ref / ref_dens)) <= 1e-12
    assert abs(dens - ref_dens) <= 1e-10 * ref_dens


@pytest.mark.parametrize("window", [None, (0.2, 0.4)])
def test_mixed_ancilla_is_the_weighted_sum_of_its_pure_parts(window):
    # a rank-2 ancilla at a generic phase: each eigen-factor pair is one term,
    # so the sum equals the Fock-oracle runs of its two (non-orthogonal) parts
    mem = rm.coherent_state(0.8 + 0.5j, 30)
    parts = [(0.7, rm.coherent_state(-0.4 + 0.9j, 30)), (0.3, rm.cat_state(0.7, +1, 30))]
    T, theta = 2 / 3, 0.3
    ref, ref_total = fock_conditioning(mem, parts, T, theta, 0.37 if window is None else window)
    rule = (np.array([0.37]), np.ones(1)) if window is None else projection_rule(window)
    ancilla = sum(p * anc.to_density_matrix().rho for p, anc in parts)
    cond, total = condition_on_quadrature(mem.amp, ancilla, T, theta, *rule)
    assert np.max(np.abs(cond / total - ref / ref_total)) <= 1e-12
    assert abs(total - ref_total) <= 1e-10 * ref_total


@pytest.mark.parametrize("window", [None, (0.2, 0.4)])
def test_pure_memory_as_amplitudes_matches_its_density_matrix(window):
    mem = rm.cat_state(1.0, -1, 30)
    anc = rm.coherent_state(-0.4 + 0.9j, 30)
    rule = (np.array([0.37]), np.ones(1)) if window is None else projection_rule(window)
    cond, total = condition_on_quadrature(mem.amp, anc.amp, 2 / 3, 0.3, *rule)
    ref, ref_total = condition_on_quadrature(mem.to_density_matrix().rho, anc.amp, 2 / 3, 0.3, *rule)
    assert np.max(np.abs(cond - ref)) <= 1e-14
    assert abs(total - ref_total) <= 1e-14


def test_conditioning_ports_of_different_dims_raise():
    rule = projection_rule(None)
    big, small = rm.cat_state(1.0, -1, 30), rm.cat_state(1.0, -1, 20)
    for memory, ancilla in [(big.amp, small.amp), (small.to_density_matrix().rho, big.amp),
                            (big.amp, small.to_density_matrix().rho)]:
        with pytest.raises(DimensionError):
            condition_on_quadrature(memory, ancilla, 0.5, 0.0, *rule)


@pytest.mark.parametrize("dim", [1, 2, 40, 79])
def test_stacked_hermite_tables_are_the_per_argument_tables_bit_for_bit(dim):
    # the conditioning kernel stacks its memory and ancilla arguments (2, block, nodes), and the
    # stabilizers their four shifted ones (4, nodes), into one call: no table may move a bit
    x, u = gauss_hermite(3 * (dim - 1))[0], gauss_hermite(2 * (dim - 1))[0]
    x0 = projection_rule((-0.1, 0.1))[0][:, None]
    t, r = np.sqrt(2 / 3), np.sqrt(1 / 3)
    cx, cp = 2.46, 2 * np.pi / 2.46
    conditioning = np.stack((t * x - r * x0, r * x + t * x0))
    stabilizers = np.stack((u + cx / 2, u - cx / 2, u + cp / 2, u - cp / 2))
    for stack in (conditioning, stabilizers):
        tables = hermite_functions(stack, dim)
        for i, arg in enumerate(stack):
            assert tables[:, i].tobytes() == hermite_functions(arg, dim).tobytes()


def test_gauss_hermite_rule_is_computed_once_and_read_only():
    x, w = gauss_hermite(117)
    again = gauss_hermite(117)
    assert again[0] is x and again[1] is w
    assert not x.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        w[0] = 0.0
    # exact for p(x) e^{-x^2}, degree <= 117: int x^116 e^{-x^2} dx = Gamma(58.5)
    assert w @ (x**116 * np.exp(-x * x)) == pytest.approx(math.gamma(58.5), rel=1e-12)


def test_windows_stay_on_the_projection_grid():
    assert len(projection_rule((-PROJECTION_GRID_BOUND, PROJECTION_GRID_BOUND))[0]) == 1536
    for window in [(-1e300, 1e300), (0.0, 1e12), (-12.5, 0.0), (0.0, 12.001)]:
        with pytest.raises(DomainError):
            projection_rule(window)


def test_hermite_functions_orthonormal():
    x = np.linspace(-12, 12, 24001)
    psi = hermite_functions(x, 12)
    gram = psi @ psi.T * (x[1] - x[0])
    assert np.max(np.abs(gram - np.eye(12))) < 1e-6


def test_project_product_state():
    j = beamsplitter_apply(rm.vacuum(8), rm.vacuum(8), 0.5)
    for x in (0.0, 0.8):
        surv, dens = homodyne_project(j, "B", 0.0, x)
        assert dens == pytest.approx(np.pi**-0.5 * np.exp(-x * x), abs=1e-12)
        assert abs(rm.fidelity(surv.normalized(), rm.vacuum(8)) - 1) < 1e-12


def test_project_requires_normalized():
    j = JointState(4, 4, np.eye(4) * 0.3)
    with pytest.raises(ContractError):
        homodyne_project(j, "B", 0.0, 0.0)


def test_gkp_breeding_step_matches_closed_form():
    # x = 0 conditioning is exact for imaginary-axis coherent superpositions
    cat = rm.cat_state(1.0, -1, 60)
    j = beamsplitter_apply(cat, cat, 0.5)
    surv, _ = homodyne_project(j, "B", 0.0, 0.0)
    target = rm.theoretical_bred_state(2, 1.0, -1, "gkp", 60)
    assert rm.fidelity(surv.normalized(), target) >= 0.999


def test_cat_breeding_step_close_to_asymptotic_form():
    # p = 0 conditioning only approximately yields the sqrt(2)-amplitude cat;
    # the exact Fock-space value saturates near 0.9686 at alpha = 1
    cat = rm.cat_state(1.0, -1, 60)
    j = beamsplitter_apply(cat, cat, 0.5)
    surv, _ = homodyne_project(j, "B", np.pi / 2, 0.0)
    target = rm.theoretical_bred_state(2, 1.0, -1, "cat", 60)
    f = rm.fidelity(surv.normalized(), target)
    assert 0.96 < f < 0.98


def test_window_vacuum_acceptance():
    j = beamsplitter_apply(rm.vacuum(8), rm.vacuum(8), 0.5)
    _, acc = window_condition(j, "B", np.pi / 2, -0.1, 0.1)
    vac = Dyads.superposition([1.0], [0.0])
    assert acc == pytest.approx(vac.step(vac, 0.5, np.pi / 2, (-0.1, 0.1)).trace(), abs=1e-6)


def test_full_line_window_is_reduced_state():
    a = rm.cat_state(0.8, -1, 30)
    b = rm.vacuum(30)
    j = JointState(30, 30, np.outer(a.amp, b.amp))
    rho, acc = full_line_window(j, "B", 0.3)
    assert acc == pytest.approx(1.0, abs=1e-4)
    assert rm.fidelity(a, rho) >= 1 - 1e-6


def test_window_converges_to_ideal_projection():
    cat = rm.cat_state(1.0, -1, 40)
    j = beamsplitter_apply(cat, cat, 0.5)
    surv, _ = homodyne_project(j, "B", np.pi / 2, 0.0)
    rho, _ = window_condition(j, "B", np.pi / 2, -0.1, 0.1)
    assert rm.fidelity(surv.normalized(), rho) >= 0.995
    rho2, _ = window_condition(j, "B", np.pi / 2, -0.005, 0.005)
    assert rm.fidelity(surv.normalized(), rho2) >= 0.999


def test_window_condition_is_not_conjugated():
    # a complex-valued joint state: the conditional state differs from its
    # complex conjugate, so a narrow window must reproduce the ideal projection
    a = rm.coherent_state(1 + 0.7j, 30)
    b = rm.squeezed_vacuum(0.3, 30)
    j = beamsplitter_apply(a, b, 0.5)
    surv, _ = homodyne_project(j, "B", 0.3, 0.05)
    rho, _ = window_condition(j, "B", 0.3, 0.049, 0.051)
    assert rm.fidelity(surv.normalized(), rho) >= 0.9999


def test_window_empty_error():
    j = beamsplitter_apply(rm.vacuum(6), rm.vacuum(6), 0.5)
    with pytest.raises(DomainError):
        window_condition(j, "B", 0.0, 0.2, 0.1)


def test_density_completeness():
    cat = rm.cat_state(1.0, -1, 40)
    j = beamsplitter_apply(cat, rm.squeezed_single_photon(0.5, 40), 0.5)
    grid = np.arange(-12, 12 + 5e-4, 1e-3)
    from resomem.gates import homodyne_density_grid

    _, dens = homodyne_density_grid(j, "A", 0.4, grid)
    assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-4)


@given(T=st.floats(0.0, 1.0))
@settings(max_examples=25, deadline=None)
def test_unitarity_and_photon_conservation(T):
    rng = np.random.default_rng(7)
    amp = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    j = JointState(8, 8, amp / np.linalg.norm(amp))
    out = rm.gates.beamsplitter_apply_joint(j, T)
    assert abs(out.norm - 1) < 1e-9
    assert np.max(np.abs(total_photon_distribution(out) - total_photon_distribution(j))) < 1e-9


def test_identity_at_T1():
    a = rm.cat_state(0.7, -1, 30)
    b = rm.squeezed_single_photon(0.4, 30)
    j0 = JointState(30, 30, np.outer(a.amp, b.amp))
    j = rm.gates.beamsplitter_apply_joint(j0, 1.0)
    assert np.max(np.abs(j.amp - j0.amp)) < 1e-9
