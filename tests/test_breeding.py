import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import resomem as rm
from dyads import Dyads
from oracles import count_peaks, exact_bred_state, fock_conditioning
from resomem.breeding import PROJECTION_THETA
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
            exact = exact_bred_state(j + 1, alpha, s, protocol, 40)
            assert 1 - rm.fidelity(exact, state) <= 1e-10


def test_exact_gkp_equals_closed_form():
    # the x = 0 projection of imaginary-axis coherent states is exact
    for alpha in (0.5, 1.0, 1.5):
        for s in (+1, -1):
            for k in (1, 2, 3, 4):
                exact = exact_bred_state(k, alpha, s, "gkp", 40)
                closed = rm.theoretical_bred_state(k, alpha, s, "gkp", 40)
                assert 1 - rm.fidelity(exact, closed) <= 1e-10


def test_exact_cat_approaches_closed_form_at_large_alpha():
    for s in (+1, -1):
        for k in (2, 3, 4):
            exact = exact_bred_state(k, 2.5, s, "cat", 120)
            closed = rm.theoretical_bred_state(k, 2.5, s, "cat", 120)
            assert 1 - rm.fidelity(exact, closed) <= 1e-8


def test_exact_bred_state_errors():
    with pytest.raises(DomainError):
        exact_bred_state(0, 1.0, -1, "cat", 40)
    with pytest.raises(DomainError):
        exact_bred_state(2, 1.0, 2, "cat", 40)
    with pytest.raises(DomainError):
        exact_bred_state(2, 1.0, -1, "foo", 40)


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


@pytest.mark.parametrize("window", [None, (-0.1, 0.1)])
def test_breed_step_mixed_input_is_the_weighted_mixture_of_pure_inputs(window):
    memory = rm.cat_state(1.0, -1, 40).to_density_matrix()
    parts = [(0.7, rm.cat_state(1.0, -1, 40)), (0.3, rm.coherent_state(0.8 + 0.5j, 40))]
    mixed = rm.DensityMatrix(40, sum(p * state.to_density_matrix().rho for p, state in parts))
    out, density = rm.breed_step(memory, mixed, 1, "gkp", window)
    runs = [(p, *rm.breed_step(memory, state, 1, "gkp", window)) for p, state in parts]
    ref_density = sum(p * d for p, _, d in runs)
    ref = sum(p * d * rho.rho for p, rho, d in runs) / ref_density
    assert np.max(np.abs(out.rho - ref)) <= 1e-12
    assert abs(density - ref_density) <= 1e-12 * ref_density


def test_gkp_peak_recursion():
    grid = np.linspace(-7, 7, 1401)
    traj = rm.run_breeding(rm.BreedingPlan("gkp", 3, 1.0, -1, 60))
    counts = [count_peaks(rm.marginal(s, np.pi / 2, grid)) for s in traj.states]
    # k+1 peaks after the k-th step at the default 5% prominence; the outer
    # peaks of the k=4 state carry binomial weight (1/6)^2 ~ 2.8% and need a
    # lower prominence to resolve
    assert counts[:3] == [2, 3, 4]
    assert count_peaks(rm.marginal(traj.states[3], np.pi / 2, grid), prominence=0.01) == 5


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
            rho, ref_dens = fock_conditioning(memory, cat, k / (k + 1), PROJECTION_THETA[protocol],
                                              0.0 if window is None else window)
            ref = rm.DensityMatrix(40, rho / ref_dens)
            assert 1 - rm.fidelity(ref, out) <= 1e-12
            assert np.max(np.abs(ref.rho - out.rho)) <= 1e-12
            assert abs(dens - ref_dens) <= 1e-10 * ref_dens


@pytest.mark.parametrize("protocol", ["cat", "gkp"])
@pytest.mark.parametrize("window", [(-0.1, 0.1), (0.2, 0.4)])
def test_windowed_step_matches_closed_form(protocol, window):
    # one windowed step of cat (x) cat at T = 1/2 against complex-erf integrals
    # of the coherent product terms; a 1e-3 trapezoid window rule is off by
    # 4e-8 to 3e-7 in rho here
    alpha, s, dim = 1.0, -1, 40
    cat = rm.cat_state(alpha, s, dim)
    out, dens = rm.breed_step(cat, cat, 1, protocol, window)
    terms = Dyads.superposition([1.0, s], [1j * alpha, -1j * alpha])
    ref = terms.step(terms, 0.5, PROJECTION_THETA[protocol], window)
    cols, ref_dens = ref.fock(dim), ref.trace() / terms.trace() ** 2
    assert np.max(np.abs(out.rho - cols @ cols.conj().T / ref.trace())) <= 1e-12
    assert abs(dens - ref_dens) <= 1e-12 * ref_dens


def test_wide_window_step_peaks_below_100_mb():
    # the kernel sums the outcome nodes in blocks whose working arrays stay
    # within NODE_BLOCK_BYTES; one block of all 256 nodes of the dim-300 step
    # peaked at 1.1 GB. VmHWM is the child's own peak, where ru_maxrss would
    # keep that of the pytest process it came from.
    code = (
        "import resomem as rm\n"
        "for dim in (60, 300):\n"
        "    cat = rm.cat_state(1.0, -1, dim)\n"
        "    rm.breed_step(cat, cat, 1, 'gkp', (-2.0, 2.0))\n"
        "print(next(line.split()[1] for line in open('/proc/self/status') if line.startswith('VmHWM:')))"  # kB
    )
    src = str(Path(rm.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert int(out.stdout) / 1024 < 100


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
    # at extreme g the vacuum's values are 0 and 1; no shifted table leaves the float range, and a
    # shift past the underflow of every psi_n(u +- c/2) gives exactly 0
    for g, ref in ((1e300, (0.0, 1.0)), (1e-154, (1.0, 0.0)), (1e-300, (1.0, 0.0)), (5e-324, (1.0, 0.0))):
        stabilizers = rm.gkp_stabilizer_expectation(rm.vacuum(10), g)
        assert np.max(np.abs(np.subtract(stabilizers, ref))) <= 1e-15 and 0.0 in stabilizers


@pytest.mark.parametrize("g", [0.0, -1.0, np.nan, np.inf])
def test_stabilizers_refuse_a_nonpositive_or_nonfinite_g(g):
    with pytest.raises(DomainError, match="positive and finite"):
        rm.gkp_stabilizer_expectation(rm.vacuum(30), g)


def test_stabilizer_x_grows_with_breeding():
    g = 2.46
    vals = [
        rm.gkp_stabilizer_expectation(
            rm.theoretical_bred_state(k, 1.0, -1, "gkp", 60).to_density_matrix(), g
        )[0]
        for k in (1, 2, 3)
    ]
    assert vals[0] < vals[1] < vals[2]


@pytest.mark.parametrize(
    "coeffs,gammas",
    [
        ([1.0, -1.0], [1.0j, -1.0j]),  # odd cat, alpha = 1
        ([1.0, -3.0, 3.0, -1.0], [1j * (-3 + 2 * m) / np.sqrt(3) for m in range(4)]),  # bred GKP, k = 3
        ([1.0, 0.5j], [0.8 + 0.5j, -0.3 + 1.1j]),  # complex-valued superposition
        ([[1.0, 0.3j], [-1.0, 0.0], [0.0, 0.8]], [1.0j, -1.0j, 0.8 + 0.5j]),  # rank-2 mixture, one part per column
    ],
)
def test_stabilizers_match_coherent_gram_sums(coeffs, gammas):
    # e^{igx} = D(ig/sqrt 2), e^{2 pi i p/g} = D(-sqrt(2) pi/g)
    g = 2.46
    ref = Dyads(np.asarray(gammas, dtype=complex), np.asarray(coeffs, dtype=complex).reshape(len(gammas), -1))
    parts = [sum(c * coherent_amplitudes(gm, 60) for c, gm in zip(column, gammas)) for column in ref.factor.T]
    rho = sum(np.outer(amp, amp.conj()) for amp in parts)
    sx, sp = rm.gkp_stabilizer_expectation(rm.DensityMatrix(60, rho / np.trace(rho).real), g)
    assert sx == pytest.approx(abs(ref.displacement(1j * g / np.sqrt(2))), abs=1e-10)
    assert sp == pytest.approx(abs(ref.displacement(-np.sqrt(2) * np.pi / g)), abs=1e-10)


def test_dyads_import_without_scipy_or_resomem():
    # an entry of None in sys.modules makes that import fail; the ideal step needs numpy alone
    code = ("import sys; sys.modules.update(scipy=None, resomem=None); from dyads import Dyads; "
            "d = Dyads.superposition([1, -1], [1j, -1j]); d.step(d, 0.5, 0.0).fock(20)")
    subprocess.run([sys.executable, "-c", code], cwd=Path(__file__).parent, check=True)
