import warnings

import numpy as np
import pytest
from scipy.stats import kstest

import resomem as rm
from oracles import quadrature_eigenbra
from resomem.errors import DomainError, NumericalAccuracyWarning
from resomem.gates import PROJECTION_GRID_BOUND, PROJECTION_GRID_STEP, hermite_functions
from resomem.tomo import (
    MLE_GAP,
    HomodyneDataset,
    _binned_projectors,
    _log_likelihood,
    _ml_operator,
    likelihood_gap,
    log_likelihood,
    project_traces,
)

PHASES = np.deg2rad([0.0, 30.0, 60.0, 90.0, 120.0, 150.0])


def test_vacuum_sample_variance():
    data = rm.sample_homodyne(rm.vacuum(15), PHASES, 100_000, seed=1)
    for theta in PHASES:
        v = np.var(data.xs[data.thetas == theta])
        assert v == pytest.approx(0.5, abs=0.01)


def test_fock_one_ks_statistic():
    data = rm.sample_homodyne(rm.fock_basis_state(1, 15), PHASES, 100_000, seed=2)
    grid = np.linspace(-12, 12, 24001)
    dens = hermite_functions(grid, 2)[1] ** 2
    cdf_grid = np.cumsum(dens)
    cdf_grid /= cdf_grid[-1]
    stat, _ = kstest(data.xs, lambda x: np.interp(x, grid, cdf_grid))
    assert stat < 0.01


def test_squeezed_vacuum_phase_variances():
    r = 0.5
    data = rm.sample_homodyne(rm.squeezed_vacuum(r, 30), PHASES, 120_000, seed=3)
    v0 = np.var(data.xs[data.thetas == 0.0])
    v90 = np.var(data.xs[np.isclose(data.thetas, np.pi / 2)])
    assert v0 == pytest.approx(np.exp(-2 * r) / 2, rel=0.02)
    assert v90 == pytest.approx(np.exp(2 * r) / 2, rel=0.02)


def test_sampling_deterministic():
    a = rm.sample_homodyne(rm.vacuum(10), PHASES, 5000, seed=9)
    b = rm.sample_homodyne(rm.vacuum(10), PHASES, 5000, seed=9)
    assert np.array_equal(a.xs, b.xs) and np.array_equal(a.thetas, b.thetas)


def test_sampling_density_is_a_distribution():
    # on the sampling grid the dim-row density of this cat had 2 804 values
    # down to -1.9e-20, and its cumulative sum, the inverse CDF's table,
    # decreased at 1 384 points
    grid = np.linspace(-PROJECTION_GRID_BOUND, PROJECTION_GRID_BOUND,
                       int(round(2 * PROJECTION_GRID_BOUND / PROJECTION_GRID_STEP)) + 1)
    dens = rm.marginal(rm.cat_state(3.0, +1, 60), 0.0, grid)
    assert np.min(dens) >= 0
    assert np.all(np.diff(np.cumsum(dens)) >= 0)


def test_mle_vacuum_self_consistency():
    data = rm.sample_homodyne(rm.vacuum(20), PHASES, 20_000, seed=1)
    rho = rm.mle_reconstruct(data, 20, 200)
    assert rm.fidelity(rm.vacuum(20), rho) >= 0.995


def test_mle_complex_coherent_state():
    # complex rho: a reconstruction of rho* instead of rho reaches F ~ 0.14
    st = rm.coherent_state(1 + 0.7j, 20)
    data = rm.sample_homodyne(st, PHASES, 20_000, seed=1)
    rho = rm.mle_reconstruct(data, 20, 100)
    assert rm.fidelity(st, rho) >= 0.99


def test_mle_lossy_single_photon():
    lossy = rm.apply_loss(rm.fock_basis_state(1, 20).to_density_matrix(), 0.93)
    data = rm.sample_homodyne(lossy, PHASES, 50_000, seed=4)
    rho = rm.mle_reconstruct(data, 20, 250)
    assert rho.rho[1, 1].real == pytest.approx(0.93, abs=0.02)


def test_mle_bred_gkp_state():
    st = rm.theoretical_bred_state(2, 1.0, -1, "gkp", 20)
    data = rm.sample_homodyne(st, PHASES, 20_000, seed=5)
    rho = rm.mle_reconstruct(data, 20, 300)
    assert rm.fidelity(st, rho) >= 0.98


def complex_bins(data, dim, step=PROJECTION_GRID_STEP):
    """The concatenated complex eigenbras of the occupied bins, and their counts."""
    bras, counts = [], []
    for theta in data.phase_set:
        idx = np.round(data.xs[data.thetas == theta] / step).astype(np.int64)
        uniq, cnt = np.unique(idx, return_counts=True)
        bras.append(quadrature_eigenbra(uniq * step, theta, dim))
        counts.append(cnt.astype(float))
    return np.concatenate(bras, axis=1), np.concatenate(counts)


def complex_evaluate(B, counts, rho):
    """Log-likelihood and R = sum_v c_v |x_v><x_v| / pr_v from the eigenbras."""
    pr = np.maximum(np.einsum("iv,iv->v", B, rho @ B.conj()).real, 1e-300)
    return float(np.sum(counts * np.log(pr))), (B.conj() * (counts / pr)) @ B.T


def complex_em(B, counts, iterations):
    """RrhoR iterations from I/dim; the log-likelihood of every iterate."""
    rho = np.eye(B.shape[0], dtype=complex) / B.shape[0]
    lls = []
    for _ in range(iterations):
        ll, R = complex_evaluate(B, counts, rho)
        lls.append(ll)
        rho = R @ rho @ R
        rho = (rho + rho.conj().T) / 2
        rho = rho / np.trace(rho).real
    return np.array(lls)


def test_mle_matches_complex_em_oracle():
    st = rm.coherent_state(1 + 0.7j, 20)
    data = rm.sample_homodyne(st, PHASES, 6000, seed=11)
    rho = rm.mle_reconstruct(data, 20)
    B, counts = complex_bins(data, 20)
    bins = _binned_projectors(data, 20)
    # (a) the loop's log-likelihood and R are the eigenbra evaluation, at a
    # random complex mixed rho and at the returned rho
    rng = np.random.default_rng(3)
    G = rng.normal(size=(20, 4)) + 1j * rng.normal(size=(20, 4))
    for sigma in (G @ G.conj().T / np.trace(G @ G.conj().T).real, rho.rho):
        ll, prs = _log_likelihood(bins, sigma)
        ll_ref, R_ref = complex_evaluate(B, counts, sigma)
        assert abs(ll - ll_ref) <= 1e-12 * abs(ll_ref)
        assert np.max(np.abs(_ml_operator(bins, prs) - R_ref)) <= 1e-12 * np.max(np.abs(R_ref))
    # (b) the certificate holds: EM, which reaches L_max here, never climbs
    # past ll(returned rho) + gap, and gap <= MLE_GAP
    gain = np.max(complex_em(B, counts, 3000)) - log_likelihood(data, rho)
    assert gain <= likelihood_gap(data, rho) <= MLE_GAP


@pytest.mark.parametrize("phases_deg, n_frames", [
    ([150.0, 0.0, 60.0, 0.0, 90.0], 6000),
    (np.arange(180.0), 2000),  # ~11 frames per phase, so most (phase, bin) cells are empty
], ids=["unsorted_with_duplicate", "180_sparse_phases"])
def test_one_product_matches_complex_eigenbras(phases_deg, n_frames):
    # the likelihood and R over the phase stack against the eigenbras of each phase's own bins
    dim = 20
    cat = rm.cat_state(1.0, -1, dim)
    data = rm.sample_homodyne(cat, np.deg2rad(phases_deg), n_frames, seed=4)
    model = _binned_projectors(data, dim)
    assert np.sum(model.counts) == n_frames
    B, counts = complex_bins(data, dim)
    # a random complex mixed rho and the sampled state: both keep pr well above
    # the rounding of its sum over 2 dim - 1 terms at every occupied bin
    rng = np.random.default_rng(5)
    G = rng.normal(size=(dim, 4)) + 1j * rng.normal(size=(dim, 4))
    for sigma in (G @ G.conj().T / np.trace(G @ G.conj().T).real, cat.to_density_matrix().rho):
        ll, pr = _log_likelihood(model, sigma)
        ll_ref, R_ref = complex_evaluate(B, counts, sigma)
        assert abs(ll - ll_ref) <= 1e-12 * abs(ll_ref)
        assert np.max(np.abs(_ml_operator(model, pr) - R_ref)) <= 1e-12 * np.max(np.abs(R_ref))


def test_binning_refuses_keys_past_int64():
    # 1 000 phases x 1.8e16 bins of samples at +-9e12 cannot be flat indices
    thetas = np.repeat(np.arange(1000) * 1e-3, 2)
    xs = np.tile([-9e12, 9e12], 1000)
    with pytest.raises(DomainError, match="too many to index"):
        _binned_projectors(HomodyneDataset(thetas, xs), 4)


def test_dataset_refuses_non_finite_data():
    thetas, xs = np.resize(PHASES, 3000), np.zeros(3000)
    xs[5] = np.nan
    with pytest.raises(DomainError, match="xs must be finite"):
        HomodyneDataset(thetas, xs)
    with pytest.raises(DomainError, match="phases must be finite"):
        HomodyneDataset([0.0, np.inf, 1.0], np.zeros(3000))


def test_repeated_phase_draws_each_slot_once_from_one_stream():
    phases = np.deg2rad([150.0, 0.0, 60.0, 0.0, 90.0])
    cat = rm.cat_state(1.0, -1, 20)
    data = rm.sample_homodyne(cat, phases, 2003, seed=3)
    # slot j, frames j, j + 5, ..., draws from row j of one marginal call, in list order
    grid = np.linspace(-PROJECTION_GRID_BOUND, PROJECTION_GRID_BOUND,
                       int(round(2 * PROJECTION_GRID_BOUND / PROJECTION_GRID_STEP)) + 1)
    rng = np.random.default_rng(3)
    ref = np.empty(2003)
    for j, dens in enumerate(rm.marginal(cat, phases, grid)):
        cdf = np.cumsum(dens)
        ref[j::5] = np.interp(rng.random(len(range(j, 2003, 5))), cdf / cdf[-1], grid)
    assert np.array_equal(data.xs, ref)
    assert np.array_equal(data.phases, phases) and np.array_equal(data.thetas, np.resize(phases, 2003))


def test_cycle_bins_as_its_per_frame_record():
    cat = rm.cat_state(1.0, -1, 20)
    data = rm.sample_homodyne(cat, np.deg2rad([150.0, 0.0, 60.0, 0.0, 90.0]), 6003, seed=4)  # a 3-frame tail
    per_frame = HomodyneDataset(data.thetas, data.xs)
    assert len(per_frame.phases) == len(data) and np.array_equal(per_frame.phase_set, data.phase_set)
    for cycled, listed in zip(_binned_projectors(data, 12), _binned_projectors(per_frame, 12)):
        assert np.array_equal(cycled, listed)


def test_phases_without_a_frame_are_not_recorded():
    data = rm.sample_homodyne(rm.vacuum(6), PHASES, 4, seed=1)
    assert np.array_equal(data.phases, PHASES[:4]) and len(data) == 4
    with pytest.raises(DomainError, match="cycle"):
        HomodyneDataset(PHASES, np.zeros(4))


def test_sampler_refuses_a_bad_frame_count():
    for n_frames in (-1, 2.5, "10"):
        with pytest.raises(DomainError, match="n_frames"):
            rm.sample_homodyne(rm.vacuum(6), PHASES, n_frames, seed=1)
    empty = rm.sample_homodyne(rm.vacuum(6), PHASES, 0, seed=1)
    assert len(empty) == 0 and len(empty.phases) == 0 and len(empty.xs) == 0
    assert len(rm.sample_homodyne(rm.vacuum(6), PHASES, np.int64(3), seed=1)) == 3


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("state", [
    rm.squeezed_single_photon(rm.cat_squeezing_for_alpha(1.0), 20),
    rm.cat_state(1.0, -1, 20),
    rm.fock_basis_state(1, 20),
], ids=["squeezed", "cat", "fock1"])
def test_mle_stops_at_certified_optimum(state, seed):
    data = rm.sample_homodyne(state, PHASES, 20_000, seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error", NumericalAccuracyWarning)
        rho = rm.mle_reconstruct(data, 20)
    assert likelihood_gap(data, rho) <= MLE_GAP


def test_mle_warns_when_iterations_run_out():
    data = rm.sample_homodyne(rm.cat_state(1.0, -1, 20), PHASES, 20_000, seed=1)
    with pytest.warns(NumericalAccuracyWarning, match="short of its certified optimum"):
        rho = rm.mle_reconstruct(data, 20, iterations=1)
    assert likelihood_gap(data, rho) > MLE_GAP


@pytest.mark.parametrize("iterations", [1, 300])
def test_mle_estimate_carries_its_last_evaluation(iterations):
    data = rm.sample_homodyne(rm.cat_state(0.8, -1, 16), PHASES, 5000, seed=6)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NumericalAccuracyWarning)
        rho = rm.mle_reconstruct(data, 16, iterations)
    assert rho.log_likelihood == log_likelihood(data, rho)
    assert rho.likelihood_gap == likelihood_gap(data, rho)


def test_mle_rejects_nonpositive_iterations():
    data = rm.sample_homodyne(rm.vacuum(10), PHASES, 2000, seed=7)
    for iterations in (0, -5):
        with pytest.raises(DomainError):
            rm.mle_reconstruct(data, 10, iterations)


def test_mle_likelihood_nondecreasing():
    st = rm.cat_state(0.8, -1, 16)
    data = rm.sample_homodyne(st, PHASES, 5000, seed=6)
    prev = -np.inf
    for iters in (1, 5, 20, 80):
        rho = rm.mle_reconstruct(data, 16, iters)
        ll = log_likelihood(data, rho)
        assert ll >= prev - 1e-6 * abs(prev)
        prev = ll


def test_mle_guards_and_warning():
    small = rm.sample_homodyne(rm.vacuum(10), PHASES, 100, seed=7)
    with pytest.raises(DomainError):
        rm.mle_reconstruct(small, 10)
    single = rm.sample_homodyne(rm.vacuum(10), np.array([0.0]), 2000, seed=8)
    with pytest.warns(NumericalAccuracyWarning, match="single measurement phase"):
        rm.mle_reconstruct(single, 6, 5)


def make_mode(points=80):
    g0 = 2 * np.pi * 1.5e6
    grid = np.linspace(0, 8.0000001 / g0, points)
    return rm.standard_wavepacket("exp_decaying", g0, grid)


def test_simulate_traces_noiseless():
    mode = make_mode()
    tr = rm.simulate_traces(mode, np.ones(5), noise_var=0.0, seed=0)
    assert np.allclose(tr.data, np.tile(mode.g, (5, 1)))


def test_matched_filter_recovery():
    mode = make_mode()
    rng = np.random.default_rng(12)
    q = rng.normal(0, 1, 20_000)
    tr = rm.simulate_traces(mode, q, noise_var=0.05, seed=13)
    proj = project_traces(tr, mode)
    # the rectangle-rule filter gain on this coarse grid is s = sum g^2 dt
    # (~1.05 here); projection = s*q + noise of variance noise_var * s
    s = np.sum(mode.g**2) * mode.dt
    assert np.var(proj - s * q) == pytest.approx(0.05 * s, rel=0.05)
    assert np.var(proj) == pytest.approx(s**2 * np.var(q) + 0.05 * s, rel=0.03)


def test_pca_recovers_exponential_mode():
    mode = make_mode()
    rng = np.random.default_rng(3)
    q = rng.normal(0, 1.0, 10_000)
    tr = rm.simulate_traces(mode, q, noise_var=0.1, seed=7)
    lead, eigs = rm.pca_temporal_mode(tr)
    overlap = np.trapezoid(lead.g * mode.g, lead.t) ** 2
    assert overlap >= 0.99
    assert eigs[0] > 3 * np.median(eigs)


def test_pca_white_noise_flat_spectrum():
    rng = np.random.default_rng(5)
    tr = rm.TraceMatrix(rng.normal(size=(4000, 40)), dt=1e-9)
    _, eigs = rm.pca_temporal_mode(tr)
    assert eigs[0] / eigs.mean() < 1.5


def test_pca_two_embedded_modes():
    n = 64
    t = np.arange(n) * 1e-9
    g1 = np.sin(np.pi * np.arange(n) / n)
    g1 /= np.linalg.norm(g1)
    g2 = np.sin(2 * np.pi * np.arange(n) / n)
    g2 /= np.linalg.norm(g2)
    rng = np.random.default_rng(6)
    data = np.outer(rng.normal(0, np.sqrt(3), 30_000), g1) + np.outer(rng.normal(0, 1, 30_000), g2)
    data += rng.normal(0, 0.05, data.shape)
    _, eigs = rm.pca_temporal_mode(rm.TraceMatrix(data, dt=1e-9))
    assert eigs[0] / eigs[1] == pytest.approx(3.0, rel=0.1)


def test_pca_rank_deficient_error():
    with pytest.raises(DomainError):
        rm.pca_temporal_mode(rm.TraceMatrix(np.zeros((10, 40)), dt=1e-9))
