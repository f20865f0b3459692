import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.special import gammainc

import resomem as rm
from dyads import Dyads
from oracles import annihilation_operator, p_operator, x_operator
from resomem.errors import DimensionError, DomainError
from resomem.fock import EDGE_WEIGHT_TOL, coherent_amplitudes, log_factorial, poisson_tail


def test_cat_alpha0_even_is_vacuum():
    c = rm.cat_state(0.0, +1, 8)
    assert abs(c.amp[0] - 1) < 1e-12
    assert np.allclose(c.amp[1:], 0)


def test_cat_odd_parity_support():
    c = rm.cat_state(0.5, -1, 20)
    assert np.allclose(c.amp[::2], 0)


def test_cat_matches_brute_force_coherent_sum():
    c = rm.cat_state(1.0, +1, 30)
    raw = Dyads.superposition([1, 1], [1j, -1j]).fock(30)[:, 0]
    raw = raw / np.linalg.norm(raw)
    assert np.max(np.abs(c.amp - raw)) < 1e-12


def test_cat_degenerate_and_guard_errors():
    with pytest.raises(DomainError):
        rm.cat_state(0.0, -1, 20)
    with pytest.raises(DimensionError):
        rm.cat_state(3.0, +1, 10)


def test_squeezed_single_photon_r0():
    s = rm.squeezed_single_photon(0.0, 20)
    assert abs(s.amp[1] - 1) < 1e-12
    # the truncation rule asks only that the cut keep the state's weight
    assert np.array_equal(rm.squeezed_single_photon(0.0, 2).amp, [0, 1])


def test_squeezed_single_photon_odd_support_and_norm():
    s = rm.squeezed_single_photon(0.5, 40)
    assert np.allclose(s.amp[::2], 0)
    assert abs(s.norm - 1) < 1e-9


def test_squeezed_single_photon_vs_expm_oracle():
    # dense matrix exponential of (r/2)(a^2 - a^dag^2) at dim 80, truncated
    r, dim = 0.3, 40
    a = annihilation_operator(80)
    gen = (r / 2) * (a @ a - a.conj().T @ a.conj().T)
    e1 = np.zeros(80)
    e1[1] = 1.0
    oracle = (expm(gen) @ e1)[:dim]
    s = rm.squeezed_single_photon(r, dim)
    assert np.max(np.abs(s.amp - oracle)) < 1e-10


def test_squeezed_vacuum_vs_expm_oracle():
    r = -0.4
    a = annihilation_operator(80)
    gen = (r / 2) * (a @ a - a.conj().T @ a.conj().T)
    e0 = np.zeros(80)
    e0[0] = 1.0
    oracle = (expm(gen) @ e0)[:40]
    s = rm.squeezed_vacuum(r, 40)
    assert np.max(np.abs(s.amp - oracle)) < 1e-10


def test_cat_squeezing_alpha0():
    assert rm.cat_squeezing_for_alpha(0.0) == 0.0
    with pytest.raises(DomainError):
        rm.cat_squeezing_for_alpha(-1.0)


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_cat_squeezing_fidelity(alpha):
    r = rm.cat_squeezing_for_alpha(alpha)
    f = rm.fidelity(rm.squeezed_single_photon(r, 40), rm.cat_state(alpha, -1, 40))
    assert f >= 0.99


def test_fidelity_trivial():
    assert rm.fidelity(rm.vacuum(10), rm.vacuum(10)) == 1.0
    assert rm.fidelity(rm.vacuum(10), rm.fock_basis_state(1, 10)) == 0.0
    assert rm.fidelity(rm.cat_state(1.0, -1, 30), rm.cat_state(1.0, +1, 30)) < 1e-20


def test_fidelity_mixed_agrees_with_pure():
    a = rm.cat_state(0.8, -1, 30)
    b = rm.squeezed_single_photon(0.6, 30)
    f_pure = rm.fidelity(a, b)
    f_mixed = rm.fidelity(a.to_density_matrix(), b.to_density_matrix())
    assert abs(f_pure - f_mixed) < 1e-7
    assert abs(rm.fidelity(a, b.to_density_matrix()) - f_pure) < 1e-10


def test_fidelity_symmetric_uhlmann():
    rng = np.random.default_rng(1)
    mats = []
    for _ in range(2):
        A = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = A @ A.conj().T
        mats.append(rm.DensityMatrix(8, rho / np.trace(rho).real))
    assert abs(rm.fidelity(mats[0], mats[1]) - rm.fidelity(mats[1], mats[0])) < 1e-10


def test_fidelity_of_nan_state_is_nan():
    cat = rm.cat_state(1.0, -1, 20)
    nan_rho = rm.DensityMatrix(20, np.full((20, 20), np.nan))
    nan_amp = rm.FockVector(20, np.full(20, np.nan))
    for f in (rm.fidelity(cat, nan_rho), rm.fidelity(cat, nan_amp)):
        assert math.isnan(f)
        assert not f >= 0.999


@given(alpha=st.floats(0.0, 1.5), s=st.sampled_from([+1, -1]))
@settings(max_examples=40, deadline=None)
def test_cat_norm_and_parity(alpha, s):
    if alpha < 1e-3 and s == -1:
        return
    c = rm.cat_state(alpha, s, 40)
    assert abs(c.norm - 1) < 1e-9
    # support consistent with the parity label
    dead = c.amp[1::2] if s == +1 else c.amp[::2]
    assert np.max(np.abs(dead)) < 1e-12


def squeezed_dropped_weight(r, n0, dim):
    """1 - sum_{n < dim} P(n) for S(r)|n0>, from its photon-number distribution
    P(2m + n0) = (2m + 1)^n0 C(2m, m) / 4^m tanh^2m r / cosh^(2 n0 + 1) r."""
    t2 = math.tanh(r) ** 2
    kept = sum((2 * m + 1) ** n0 * math.comb(2 * m, m) / 4**m * t2**m for m in range((dim - n0 + 1) // 2))
    return 1 - kept / math.cosh(r) ** (2 * n0 + 1)


@given(r=st.floats(-1.5, 1.5))
@example(r=1.5)  # S(1.5)|1> drops 7.2e-3 at dim 60
@example(r=0.5)
@settings(max_examples=30, deadline=None)
def test_squeezed_norm(r):
    for make, n0 in ((rm.squeezed_single_photon, 1), (rm.squeezed_vacuum, 0)):
        if squeezed_dropped_weight(r, n0, 60) > EDGE_WEIGHT_TOL:
            with pytest.raises(DimensionError, match="drops weight"):
                make(r, 60)
        else:
            assert abs(make(r, 60).norm - 1) < 1e-9


@pytest.mark.parametrize(
    "make",
    [
        lambda d: rm.cat_state(1.2, -1, d),
        lambda d: rm.squeezed_single_photon(0.8, d),
        lambda d: rm.coherent_state(1.5, d),
    ],
)
def test_truncation_convergence(make):
    a, b = make(60), make(80)
    assert abs(np.vdot(a.amp, b.amp[:60])) ** 2 >= 1 - 1e-8


def test_commutator_convention():
    dim = 40
    x, p = x_operator(dim), p_operator(dim)
    comm = x @ p - p @ x
    block = comm[: dim - 5, : dim - 5] - 1j * np.eye(dim - 5)
    assert np.max(np.abs(block)) <= 1e-9


def test_number_parity():
    assert rm.number_parity(rm.vacuum(10)) == 1.0
    assert rm.number_parity(rm.fock_basis_state(1, 10)) == -1.0
    assert rm.number_parity(rm.cat_state(1.0, -1, 40)) == pytest.approx(-1.0, abs=1e-9)


def test_coherent_amplitudes_zero():
    amp = coherent_amplitudes(0.0, 5)
    assert amp[0] == 1.0 and np.allclose(amp[1:], 0)


def test_log_factorial_within_4_ulp():
    got = log_factorial(np.arange(1001))
    assert got.dtype == np.float64
    assert log_factorial(7).dtype == np.float64 and log_factorial(7).shape == ()
    with localcontext() as ctx:
        ctx.prec = 50
        for n, value in enumerate(got.tolist()):
            exact = Decimal(math.factorial(n)).ln()
            assert abs(Decimal(value) - exact) <= 4 * Decimal(math.ulp(float(exact))), n


@pytest.mark.parametrize("upper", [True, False])
def test_poisson_tail_matches_gammainc(upper):
    # the branch summing the terms k >= n (n > mu), and 1 - the lower sum
    grid = np.linspace(0.0, 400.0, 161)
    checked, worst = 0, 0.0
    for n in range(1, 401):
        near = [n - 1.0, n - 0.5, n - 1e-9, n + 1e-9, n + 0.5, n + 1.0, 1e-300 * n]
        for mu in [*grid, *near]:
            if not 0 <= mu <= 400 or (n > mu) != upper:
                continue
            ref = gammainc(n, mu)
            if ref < 1e-300:
                continue
            worst = max(worst, abs(poisson_tail(n, float(mu)) - ref) / ref)
            checked += 1
    assert checked > 10_000
    assert worst <= 1e-12


def test_poisson_tail_edges():
    assert poisson_tail(0, 3.0) == 1.0
    assert poisson_tail(5, 0.0) == 0.0
    assert poisson_tail(5, math.inf) == 1.0
    assert poisson_tail(1, 0.25) == pytest.approx(-math.expm1(-0.25), rel=1e-15)
    assert poisson_tail(400, 1.0) == 0.0  # e^-1 / 400! ~ 1e-869
