import numpy as np
import pytest

import resomem as rm
from resomem.errors import DimensionError


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
    assert rm.negativity_volume(g) == 0.0
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


def test_gkp_bred_state_structure():
    st = rm.theoretical_bred_state(2, 1.0, -1, "gkp", 40)
    g = rm.wigner_grid(st)
    assert rm.negative_region_count(g) == 2
    dens = rm.marginal(st, np.pi / 2, np.linspace(-5, 5, 1001))
    assert rm.count_peaks(dens) == 3


def test_marginal_normalization_and_peaks():
    grid = np.linspace(-8, 8, 2001)
    dens = rm.marginal(rm.vacuum(15), 0.7, grid)
    assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-4)
    assert rm.count_peaks(dens) == 1
    # vacuum variance 1/2
    assert np.trapezoid(grid**2 * dens, grid) == pytest.approx(0.5, abs=1e-6)
    dens1 = rm.marginal(rm.fock_basis_state(1, 15), 0.0, grid)
    assert rm.count_peaks(dens1) == 2


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
