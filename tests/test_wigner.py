from itertools import islice

import numpy as np
import pytest
from numpy.polynomial.laguerre import lagval

import resomem as rm
from oracles import count_peaks, direct_sum_wigner
from resomem.errors import DimensionError, DomainError
from resomem.fock import as_density_matrix
from resomem.gates import _bs_block
from resomem.wigner import DEFAULT_GRID, NEGATIVE_REGION_THRESHOLD, WignerGrid, _fifty_fifty_blocks


def analytic_odd_cat_wigner(alpha, x, p):
    """Two displaced Gaussians plus the interference fringe, for the
    normalized (|i alpha> - |-i alpha>) cat under W_vac(0,0) = 1/pi."""
    n2 = 2 * (1 - np.exp(-2 * alpha**2))
    lobes = np.exp(-x**2 - (p - np.sqrt(2) * alpha) ** 2) + np.exp(-x**2 - (p + np.sqrt(2) * alpha) ** 2)
    fringe = -2 * np.exp(-x**2 - p**2) * np.cos(2 * np.sqrt(2) * alpha * x)
    return (lobes + fringe) / (np.pi * n2)


def test_vacuum_anchor():
    g = rm.wigner_grid(rm.vacuum(15))
    i0 = len(g.xs) // 2
    assert g.w[i0, i0] == pytest.approx(1 / np.pi, abs=1e-10)
    assert g.integral() == pytest.approx(1.0, abs=1e-3)
    assert rm.negative_region_count(g) == 0


def test_fock_one_anchor():
    g = rm.wigner_grid(rm.fock_basis_state(1, 15))
    i0 = len(g.xs) // 2
    assert g.w[i0, i0] == pytest.approx(-1 / np.pi, abs=1e-10)
    assert rm.negative_region_count(g) == 1


def test_fock_n_origin_values():
    for n in range(5):
        g = rm.wigner_grid(rm.fock_basis_state(n, 20), np.linspace(-5, 5, 21), np.linspace(-5, 5, 21))
        assert g.w[10, 10] == pytest.approx((-1) ** n / np.pi, abs=1e-9)


def test_odd_cat_matches_analytic_form():
    alpha = 1.0
    cat = rm.cat_state(alpha, -1, 40)
    xs = np.linspace(-5, 5, 41)
    g = rm.wigner_grid(cat, xs, xs)
    X, P = np.meshgrid(xs, xs)
    ana = analytic_odd_cat_wigner(alpha, X, P)
    assert np.max(np.abs(g.w - ana)) < 1e-9


def test_grid_guard():
    with pytest.raises(DimensionError):
        rm.wigner_grid(rm.coherent_state(3.0, 50), np.linspace(-2, 2, 21), np.linspace(-2, 2, 21))


def test_grid_guard_rejects_axes_that_miss_the_state():
    # |x|, |p| reach 60, but no axis spans [-r, r]: W would be ~3e-75 everywhere
    far = np.linspace(-60, -10, 51)
    with pytest.raises(DimensionError, match="spanning"):
        rm.wigner_grid(rm.cat_state(1.0, -1, 40), far, far)
    # one spanning axis is enough
    assert rm.wigner_grid(rm.cat_state(1.0, -1, 40), np.linspace(-5, 5, 11), far).w.shape == (51, 11)


def test_gkp_bred_state_structure():
    st = rm.theoretical_bred_state(2, 1.0, -1, "gkp", 40)
    g = rm.wigner_grid(st)
    assert rm.negative_region_count(g) == 2
    dens = rm.marginal(st, np.pi / 2, np.linspace(-5, 5, 1001))
    assert count_peaks(dens) == 3


def test_marginal_normalization_and_peaks():
    grid = np.linspace(-8, 8, 2001)
    dens = rm.marginal(rm.vacuum(15), 0.7, grid)
    assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-4)
    assert count_peaks(dens) == 1
    # vacuum variance 1/2
    assert np.trapezoid(grid**2 * dens, grid) == pytest.approx(0.5, abs=1e-6)
    dens1 = rm.marginal(rm.fock_basis_state(1, 15), 0.0, grid)
    assert count_peaks(dens1) == 2


def test_marginal_consistency_with_grid():
    cat = rm.cat_state(1.0, -1, 40)
    xs = np.linspace(-6, 6, 241)
    g = rm.wigner_grid(cat, xs, xs)
    proj = np.trapezoid(g.w, xs, axis=0)  # integrate over p
    dens = rm.marginal(cat, 0.0, xs)
    assert np.max(np.abs(proj - dens)) < 1e-3


def test_rotation_covariance():
    theta = 0.6
    st = rm.squeezed_single_photon(0.5, 30)
    rotated = rm.FockVector(30, np.exp(-1j * theta * np.arange(30)) * st.amp)
    grid = np.linspace(-5, 5, 101)
    a = rm.marginal(st, theta, grid)
    b = rm.marginal(rotated, 0.0, grid)
    assert np.max(np.abs(a - b)) < 1e-9


def test_marginal_phase_convention():
    # <x_theta| = <x| e^{i theta n}: x_theta = x cos(theta) - p sin(theta)
    alpha = 1 + 0.7j
    grid = np.linspace(-8, 8, 3201)
    for theta in (0.0, 0.4, np.pi / 2):
        dens = rm.marginal(rm.coherent_state(alpha, 30), theta, grid)
        mean = np.sqrt(2) * (alpha.real * np.cos(theta) - alpha.imag * np.sin(theta))
        assert np.trapezoid(grid * dens, grid) == pytest.approx(mean, abs=1e-9)


def test_mixed_state_grid():
    rho = rm.apply_loss(rm.cat_state(1.0, -1, 30).to_density_matrix(), 0.8)
    g = rm.wigner_grid(rho)
    assert g.integral() == pytest.approx(1.0, abs=1e-3)
    assert np.max(np.abs(g.w.imag if np.iscomplexobj(g.w) else 0)) == 0


@pytest.fixture(scope="module")
def kernel_states():
    rng = np.random.default_rng(11)
    G = np.zeros((30, 3), dtype=complex)  # rank 3, support on n < 7 so the default grid covers it
    G[:7] = rng.normal(size=(7, 3)) + 1j * rng.normal(size=(7, 3))
    mixed = rm.DensityMatrix(30, G @ G.conj().T / np.sum(np.abs(G) ** 2))
    bred = rm.run_breeding(rm.BreedingPlan("gkp", 1, 1.0, -1, 40)).states[-1]
    stored = rm.evolve_closed_form(bred, 40e-9, rm.NoiseParams(2.3e-6, 0.96e-6))
    return {"coherent": rm.coherent_state(0.8 + 0.5j, 30), "mixed": mixed, "bred_gkp": bred, "stored_gkp": stored}


def kernel_grids():
    rng = np.random.default_rng(5)
    xs = np.concatenate([rng.uniform(-6, 6, 30), [1.5, 1.5, -1.5, 0.0, 6.0]])  # repeats and +-x pairs
    ps = np.concatenate([np.geomspace(0.01, 6, 20), -np.geomspace(0.01, 6, 20)[::3], [1.5, 0.0, 0.0]])
    rng.shuffle(xs)
    rng.shuffle(ps)
    return {
        "default": (DEFAULT_GRID, DEFAULT_GRID),
        "unsorted": (xs, ps),
        "one_x": (np.array([0.3]), ps),
        "one_p": (xs, np.array([-5.9])),
    }


@pytest.mark.parametrize("name", ["coherent", "mixed", "bred_gkp", "stored_gkp"])
def test_horner_kernel_matches_direct_sum(kernel_states, name):
    # two exact forms of W, summed in different orders: 5.6e-16 measured
    rho = as_density_matrix(kernel_states[name]).rho
    odd_diagonals = any(np.abs(np.diag(rho, d)).max() > 1e-3 for d in (1, 3))
    assert odd_diagonals == (name in ("coherent", "mixed"))  # the GKP states have even ones only
    for xs, ps in kernel_grids().values():
        g = rm.wigner_grid(kernel_states[name], xs, ps)
        assert np.max(np.abs(g.w - direct_sum_wigner(rho, xs, ps))) <= 1e-15


@pytest.mark.parametrize("n", [0, 1, 4, 12])
def test_fock_state_matches_closed_form(n):
    # W = (-1)^n e^{-r^2} L_n(2 r^2) / pi, r^2 = x^2 + p^2; 1.3e-15 measured
    xs = np.linspace(-7, 7, 141)
    X, P = np.meshgrid(xs, xs)
    r2 = X**2 + P**2
    ref = (-1) ** n * np.exp(-r2) * lagval(2 * r2, np.eye(n + 1)[n]) / np.pi
    g = rm.wigner_grid(rm.fock_basis_state(n, 30), xs, xs)
    assert np.max(np.abs(g.w - ref)) <= 1e-12


def test_integral_needs_two_points_per_axis():
    g = rm.wigner_grid(rm.vacuum(5), [0.3], np.linspace(-5, 5, 11))
    with pytest.raises(DomainError, match="two points"):
        g.integral()
    with pytest.raises(DomainError, match="two points"):
        rm.wigner_grid(rm.vacuum(5), np.linspace(-5, 5, 11), [0.3]).integral()


def test_coherent_state_matches_closed_form():
    # W = exp(-(x - x0)^2 - (p - p0)^2) / pi, (x0, p0) = sqrt(2) (Re alpha, Im alpha).
    # At dim 30 the neglected amplitudes are ~1e-17; the kernel measured 3.9e-16 here.
    alpha = 0.8 + 0.5j
    x0, p0 = np.sqrt(2) * alpha.real, np.sqrt(2) * alpha.imag
    for xs, ps in [(DEFAULT_GRID, DEFAULT_GRID), (np.linspace(-6, 6, 97), np.linspace(-4, 6.5, 61))]:
        g = rm.wigner_grid(rm.coherent_state(alpha, 30), xs, ps)
        X, P = np.meshgrid(xs, ps)
        assert np.max(np.abs(g.w - np.exp(-(X - x0) ** 2 - (P - p0) ** 2) / np.pi)) <= 1e-12


def test_far_coherent_state_matches_closed_form():
    # complex coefficients on every diagonal; 5.0e-16 measured at dim 60
    alpha = 1.5 - 1.2j
    x0, p0 = np.sqrt(2) * alpha.real, np.sqrt(2) * alpha.imag
    xs = np.linspace(-8, 8, 161)
    X, P = np.meshgrid(xs, xs)
    g = rm.wigner_grid(rm.coherent_state(alpha, 60), xs, xs)
    assert np.max(np.abs(g.w - np.exp(-(X - x0) ** 2 - (P - p0) ** 2) / np.pi)) <= 1e-12


def test_large_dim_coherent_state_matches_closed_form():
    # every block of the 50:50 beamsplitter up to N = 298 enters G; 3.9e-15 measured
    alpha = 4 - 3j
    x0, p0 = np.sqrt(2) * alpha.real, np.sqrt(2) * alpha.imag
    xs = np.linspace(-12, 12, 201)
    X, P = np.meshgrid(xs, xs)
    g = rm.wigner_grid(rm.coherent_state(alpha, 150), xs, xs)
    assert np.max(np.abs(g.w - np.exp(-(X - x0) ** 2 - (P - p0) ** 2) / np.pi)) <= 1e-14


def test_fifty_fifty_blocks_are_orthogonal():
    # the first 299 blocks at dim 299 are whole: N <= 298 = 2 * 150 - 2, the largest N at dim 150
    full = list(islice(_fifty_fifty_blocks(299), 299))
    for N, C in enumerate(full):
        assert C.shape == (N + 1, N + 1)
        assert np.linalg.norm(C @ C.T - np.eye(N + 1), 2) <= 1e-13, N  # 4.4e-14 measured at N = 298
    # at dim 150 each block keeps the columns m, N - m < 150 of the whole one, bit for bit
    for N, C in enumerate(_fifty_fifty_blocks(150)):
        assert np.array_equal(C, full[N][:, max(0, N - 149):min(N, 149) + 1]), N


def test_fifty_fifty_blocks_match_fock_oracle():
    # U = U_{pi/4} SWAP in the gates convention, so the columns of the oracle block come reversed
    for N, C in enumerate(islice(_fifty_fifty_blocks(61), 61)):
        na, block = _bs_block(N, N + 1, N + 1, np.pi / 4)
        assert np.array_equal(na, np.arange(N + 1))
        assert np.max(np.abs(C - block[:, ::-1])) <= 1e-12, N  # 1.1e-13 measured


def test_squeezed_single_photon_matches_closed_form():
    # S(r)|1> with S^dag x S = x e^{-r}: W = (2 (u^2 + v^2) - 1) exp(-u^2 - v^2) / pi,
    # u = x e^r, v = p e^{-r}. Truncation at dim 80 is far below 1e-12 (2.8e-16 measured).
    r = 0.4
    xs = np.linspace(-6, 6, 121)
    X, P = np.meshgrid(xs, xs)
    u, v = X * np.exp(r), P * np.exp(-r)
    g = rm.wigner_grid(rm.squeezed_single_photon(r, 80), xs, xs)
    assert np.max(np.abs(g.w - (2 * (u**2 + v**2) - 1) * np.exp(-(u**2) - v**2) / np.pi)) <= 1e-12


def test_negative_region_count_matches_ndimage_label():
    from scipy import ndimage

    rng = np.random.default_rng(7)
    masks = [np.zeros((3, 4), bool), np.ones((5, 2), bool)]
    for _ in range(1200):  # densities around the site-percolation threshold give tangled shapes
        rows, cols = rng.integers(1, 41, 2)
        masks.append(rng.random((rows, cols)) < rng.uniform(0.1, 0.9))
    for mask in masks:
        grid = WignerGrid(np.arange(mask.shape[1]), np.arange(mask.shape[0]), np.where(mask, -1.0, 0.0))
        assert rm.negative_region_count(grid) == ndimage.label(mask)[1]
    for steps in (1, 2, 3):
        bred = rm.run_breeding(rm.BreedingPlan("gkp", steps, 1.0, -1, 60)).states[-1]
        for state in (bred, rm.evolve_closed_form(bred, 40e-9, rm.NoiseParams(2.3e-6, 0.96e-6))):
            grid = rm.wigner_grid(state)
            n = ndimage.label(grid.w < NEGATIVE_REGION_THRESHOLD)[1]
            assert n >= 2 and rm.negative_region_count(grid) == n
