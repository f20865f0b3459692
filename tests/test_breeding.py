import numpy as np
import pytest

import resomem as rm
from resomem.breeding import CAT_PROJECTION_THETA, GKP_PROJECTION_THETA
from resomem.errors import DomainError
from resomem.fock import coherent_amplitudes


def test_theoretical_k1_is_input_cat():
    for protocol in ("cat", "gkp"):
        t = rm.theoretical_bred_state(1, 0.9, -1, protocol, 40)
        assert rm.fidelity(t, rm.cat_state(0.9, -1, 40)) >= 1 - 1e-12


def test_theoretical_cat_k2_parity_flip():
    t = rm.theoretical_bred_state(2, 1.0, -1, "cat", 40)
    assert rm.fidelity(t, rm.cat_state(np.sqrt(2), +1, 40)) >= 1 - 1e-12


def test_theoretical_gkp_k2_norm_and_gram():
    t = rm.theoretical_bred_state(2, 1.0, +1, "gkp", 40)
    assert abs(t.norm - 1) < 1e-9
    # independent Gram-matrix construction of the three-peak superposition
    amps = [1j * (-2 + 2 * m) / np.sqrt(2) for m in range(3)]
    weights = [1.0, 2.0, 1.0]
    raw = sum(w * coherent_amplitudes(a, 40) for w, a in zip(weights, amps))
    gram = np.array([[np.vdot(coherent_amplitudes(x, 40), coherent_amplitudes(y, 40)) for y in amps] for x in amps])
    norm2 = np.real(np.array(weights) @ gram @ np.array(weights))
    assert abs(np.vdot(t.amp, raw / np.sqrt(norm2)) ** 2 - 1) < 1e-9


def test_theoretical_k0_error():
    with pytest.raises(DomainError):
        rm.theoretical_bred_state(0, 1.0, -1, "cat", 40)


@pytest.mark.parametrize("protocol", ["cat", "gkp"])
@pytest.mark.parametrize("s", [+1, -1])
def test_run_breeding_matches_exact_bred_state(protocol, s):
    # the Fock beamsplitter + homodyne kernel against the coherent-state
    # derivation, which shares no code with it
    for alpha in (0.5, 1.0, 1.5):
        traj = rm.run_breeding(rm.BreedingPlan(protocol, 3, alpha, s, 40))
        for j, state in enumerate(traj.states):
            exact = rm.exact_bred_state(j + 1, alpha, s, protocol, 40)
            assert 1 - rm.fidelity(exact, state) <= 1e-10


def test_exact_gkp_equals_closed_form():
    # the x = 0 projection of imaginary-axis coherent states is exact
    for alpha in (0.5, 1.0, 1.5):
        for s in (+1, -1):
            for k in (1, 2, 3, 4):
                exact = rm.exact_bred_state(k, alpha, s, "gkp", 40)
                closed = rm.theoretical_bred_state(k, alpha, s, "gkp", 40)
                assert 1 - rm.fidelity(exact, closed) <= 1e-10


def test_exact_cat_approaches_closed_form_at_large_alpha():
    for s in (+1, -1):
        for k in (2, 3, 4):
            exact = rm.exact_bred_state(k, 2.5, s, "cat", 120)
            closed = rm.theoretical_bred_state(k, 2.5, s, "cat", 120)
            assert 1 - rm.fidelity(exact, closed) <= 1e-8


def test_exact_bred_state_errors():
    with pytest.raises(DomainError):
        rm.exact_bred_state(0, 1.0, -1, "cat", 40)
    with pytest.raises(DomainError):
        rm.exact_bred_state(2, 1.0, 2, "cat", 40)
    with pytest.raises(DomainError):
        rm.exact_bred_state(2, 1.0, -1, "foo", 40)


def test_breed_step_vacua_fixed_point():
    vac = rm.vacuum(20)
    for protocol in ("cat", "gkp"):
        out, dens = rm.breed_step(vac.to_density_matrix(), vac, 1, protocol)
        assert rm.fidelity(vac, out) >= 1 - 1e-10
        assert dens == pytest.approx(np.pi**-0.5, abs=1e-9)


def test_breed_step_gkp_exact():
    # dim 300 needs 449 Gauss-Hermite nodes, beyond where w e^{x^2} is finite
    for dim in (60, 300):
        cat = rm.cat_state(1.0, -1, dim)
        out, _ = rm.breed_step(cat.to_density_matrix(), cat, 1, "gkp")
        target = rm.theoretical_bred_state(2, 1.0, -1, "gkp", dim).to_density_matrix()
        assert np.max(np.abs(out.rho - target.rho)) <= 1e-10


def test_breed_step_mixed_memory_matches_pure():
    cat = rm.cat_state(1.0, -1, 40)
    pure_out, d1 = rm.breed_step(cat.to_density_matrix(), cat, 1, "gkp")
    # a rank-1 density matrix passed with an arbitrary eigenbasis phase
    rho = np.outer(cat.amp * np.exp(0.3j), (cat.amp * np.exp(0.3j)).conj())
    mixed_out, d2 = rm.breed_step(rm.DensityMatrix(40, rho), cat, 1, "gkp")
    assert np.max(np.abs(pure_out.rho - mixed_out.rho)) < 1e-8
    assert abs(d1 - d2) < 1e-10


def test_gkp_peak_recursion():
    grid = np.linspace(-7, 7, 1401)
    traj = rm.run_breeding(rm.BreedingPlan("gkp", 3, 1.0, -1, 60))
    counts = [rm.count_peaks(rm.marginal(s, np.pi / 2, grid)) for s in traj.states]
    # k+1 peaks after the k-th step at the default 5% prominence; the outer
    # peaks of the k=4 state carry binomial weight (1/6)^2 ~ 2.8% and need a
    # lower prominence to resolve
    assert counts[:3] == [2, 3, 4]
    assert rm.count_peaks(rm.marginal(traj.states[3], np.pi / 2, grid), prominence=0.01) == 5


def test_cat_parity_alternation():
    traj = rm.run_breeding(rm.BreedingPlan("cat", 3, 0.8, -1, 60))
    for j, state in enumerate(traj.states):
        expected = (-1) ** (j + 1)
        assert np.sign(rm.number_parity(state)) == expected


def test_run_breeding_gkp_matches_closed_forms():
    traj = rm.run_breeding(rm.BreedingPlan("gkp", 2, 1.0, -1, 60))
    for j, state in enumerate(traj.states):
        target = rm.theoretical_bred_state(j + 1, 1.0, -1, "gkp", 60)
        assert rm.fidelity(target, state) >= 0.999
    assert len(traj.states) == 3
    assert len(traj.success_densities) == 2


def test_window_conditioning_converges_to_ideal():
    cat = rm.cat_state(1.0, -1, 40)
    # a complex-valued memory tells the conditional state from its conjugate
    for memory in (cat, rm.coherent_state(0.8 + 0.5j, 40)):
        ideal, _ = rm.breed_step(memory, cat, 1, "cat")
        windowed, acc = rm.breed_step(memory, cat, 1, "cat", window=(-0.005, 0.005))
        assert rm.fidelity(ideal, windowed) >= 0.999
        assert 0 < acc < 1


def fock_oracle_step(memory, inp, k, protocol, window):
    """breed_step from the Fock gates: every eigen-branch of the memory goes
    through beamsplitter_apply, then homodyne_project or window_condition."""
    theta = CAT_PROJECTION_THETA if protocol == "cat" else GKP_PROJECTION_THETA
    w, v = np.linalg.eigh(memory.rho)
    out = np.zeros_like(memory.rho)
    total = 0.0
    for wi, vi in zip(w, v.T):
        if wi < 1e-12:
            continue
        joint = rm.beamsplitter_apply(rm.FockVector(memory.dim, vi), inp, k / (k + 1))
        if window is None:
            surv, dens = rm.homodyne_project(joint, "B", theta, 0.0)
            out += wi * np.outer(surv.amp, surv.amp.conj())
        else:
            rho, dens = rm.window_condition(joint, "B", theta, *window)
            out += wi * dens * rho.rho
        total += wi * dens
    return rm.DensityMatrix(memory.dim, out / total), total


@pytest.mark.parametrize("protocol", ["cat", "gkp"])
@pytest.mark.parametrize("window", [None, (-0.1, 0.1)])
def test_breed_step_matches_fock_oracle(protocol, window):
    # states well inside guard_dim, so that the Fock beamsplitter, which
    # truncates its two-mode output, is exact to rounding here
    cat = rm.cat_state(1.0, -1, 40)
    coherent = rm.coherent_state(0.8 + 0.5j, 40)
    rank2 = 0.6 * cat.to_density_matrix().rho + 0.4 * coherent.to_density_matrix().rho
    for memory in (cat.to_density_matrix(), coherent.to_density_matrix(), rm.DensityMatrix(40, rank2)):
        for k in (1, 2, 3):
            out, dens = rm.breed_step(memory, cat, k, protocol, window)
            ref, ref_dens = fock_oracle_step(memory, cat, k, protocol, window)
            assert 1 - rm.fidelity(ref, out) <= 1e-12
            assert np.max(np.abs(ref.rho - out.rho)) <= 1e-12
            assert abs(dens - ref_dens) <= 1e-10 * ref_dens


def test_plan_validation():
    with pytest.raises(DomainError):
        rm.BreedingPlan("cat", 0, 1.0)
    with pytest.raises(DomainError):
        rm.BreedingPlan("foo", 1, 1.0)
    with pytest.raises(DomainError):
        rm.BreedingPlan("cat", 1, 1.0, s=2)


def test_stabilizers_vacuum():
    g = 2.46
    sx, sp = rm.gkp_stabilizer_expectation(rm.vacuum(30), g)
    assert sx == pytest.approx(np.exp(-g * g / 4), abs=1e-9)
    assert sp == pytest.approx(np.exp(-((np.pi / g) ** 2)), abs=1e-9)


def test_stabilizer_x_grows_with_breeding():
    g = 2.46
    vals = [
        rm.gkp_stabilizer_expectation(
            rm.theoretical_bred_state(k, 1.0, -1, "gkp", 60).to_density_matrix(), g
        )[0]
        for k in (1, 2, 3)
    ]
    assert vals[0] < vals[1] < vals[2]


def coherent_sum_displacement(coeffs, gammas, beta):
    """<D(beta)> of sum_k c_k |gamma_k> from coherent-state algebra alone:
    D(beta)|gamma> = e^{(beta gamma* - beta* gamma)/2} |gamma + beta> and
    <a|b> = exp(-|a|^2/2 - |b|^2/2 + a* b)."""

    def inner(a, b):
        return np.exp(-abs(a) ** 2 / 2 - abs(b) ** 2 / 2 + np.conj(a) * b)

    num = norm = 0j
    for cj, gj in zip(coeffs, gammas):
        for ck, gk in zip(coeffs, gammas):
            phase = np.exp((beta * np.conj(gk) - np.conj(beta) * gk) / 2)
            num += np.conj(cj) * ck * phase * inner(gj, gk + beta)
            norm += np.conj(cj) * ck * inner(gj, gk)
    return num / norm


@pytest.mark.parametrize(
    "coeffs,gammas",
    [
        ([1.0, -1.0], [1.0j, -1.0j]),  # odd cat, alpha = 1
        ([1.0, -3.0, 3.0, -1.0], [1j * (-3 + 2 * m) / np.sqrt(3) for m in range(4)]),  # bred GKP, k = 3
        ([1.0, 0.5j], [0.8 + 0.5j, -0.3 + 1.1j]),  # complex-valued superposition
    ],
)
def test_stabilizers_match_coherent_gram_sums(coeffs, gammas):
    # e^{igx} = D(ig/sqrt 2), e^{2 pi i p/g} = D(-sqrt(2) pi/g)
    g = 2.46
    amp = sum(c * coherent_amplitudes(gm, 60) for c, gm in zip(coeffs, gammas))
    state = rm.FockVector(60, amp).normalized()
    sx, sp = rm.gkp_stabilizer_expectation(state.to_density_matrix(), g)
    assert sx == pytest.approx(abs(coherent_sum_displacement(coeffs, gammas, 1j * g / np.sqrt(2))), abs=1e-10)
    assert sp == pytest.approx(abs(coherent_sum_displacement(coeffs, gammas, -np.sqrt(2) * np.pi / g)), abs=1e-10)

