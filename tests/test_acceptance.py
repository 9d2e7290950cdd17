"""Acceptance suite: one test per release criterion, at the pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from densecoding import (
    BellLabel,
    DephasingTimes,
    EncodingScheme,
    JointSpectrum,
    NoiseOrder,
    bell_state,
    capacity_bob_noise,
    capacity_from_non_markovianity,
    capacity_pre_encoding,
    closed_form_mi3,
    closed_form_mi4,
    concurrence,
    conditional_probabilities,
    dense_coding_capacity,
    dephasing_mask,
    estimate_mi_with_errors,
    evolve_pre_encoding,
    expected_tomography_counts,
    fidelity,
    fit_k_s,
    mutual_information,
    non_markovianity,
    reconstruct_linear_inversion,
    simulate_protocol,
)

THREE = EncodingScheme.three_state()
FOUR = EncodingScheme.four_state()


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"[FAIL] acceptance {number:02d}: {name}")
        raise
    print(f"[PASS] acceptance {number:02d}: {name}")


def equal_times(kappa, spec):
    return math.sqrt(-2.0 * math.log(kappa) / (spec.c_aa * spec.delta_n ** 2))


def test_01_three_state_endpoint():
    with criterion(1, "3-state fitted endpoint value and runtime"):
        closed_form_mi3(0.5, -1.0, 0.0)  # warm-up
        start = time.perf_counter()
        value = closed_form_mi3(0.163, -1.0, 0.0749)
        elapsed = time.perf_counter() - start
        assert value == pytest.approx(math.log2(3.0) - 0.0749, abs=1e-12)
        assert value == pytest.approx(1.51006, abs=1e-5)
        # consistent with the measured 1.52 +- 0.02
        assert abs(value - 1.52) <= 0.02
        assert elapsed < 1e-3


def test_02_four_state_endpoint():
    with criterion(2, "4-state fitted endpoint value and runtime"):
        closed_form_mi4(0.5, -1.0, 0.0)  # warm-up
        start = time.perf_counter()
        value = closed_form_mi4(0.163, -0.99995, 0.0975)
        elapsed = time.perf_counter() - start
        assert value == pytest.approx(1.9012, abs=5e-4)
        # consistent with the measured 1.89 +- 0.05
        assert abs(value - 1.89) <= 0.05
        assert elapsed < 1e-3


def test_03_flatness_at_perfect_anticorrelation():
    with criterion(3, "theory MI flat in the noise level at k = -1"):
        start = time.perf_counter()
        kappas = np.linspace(0.1, 1.0, 19)
        mi3 = [closed_form_mi3(k, -1.0, 0.0) for k in kappas]
        mi4 = [closed_form_mi4(k, -1.0, 0.0) for k in kappas]
        elapsed = time.perf_counter() - start
        assert max(mi3) - min(mi3) < 1e-9
        assert max(mi4) - min(mi4) < 1e-9
        assert elapsed < 1e-2


def test_04_oracle_equivalence():
    with criterion(4, "Born-rule pipeline equals the closed forms"):
        start = time.perf_counter()
        for kappa in np.linspace(0.05, 0.95, 10):
            for k in (-1.0, -0.5, 0.0, 0.5):
                spec = JointSpectrum(k=k)
                times = DephasingTimes(equal_times(kappa, spec), equal_times(kappa, spec))
                mi3 = mutual_information(THREE, simulate_protocol(spec, times, THREE))
                mi4 = mutual_information(FOUR, simulate_protocol(spec, times, FOUR))
                assert mi3 == pytest.approx(closed_form_mi3(kappa, k), abs=1e-10)
                assert mi4 == pytest.approx(closed_form_mi4(kappa, k), abs=1e-10)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0


def test_05_capacity_chain():
    with criterion(5, "entropy, visibility and backflow capacity routes agree"):
        start = time.perf_counter()
        spec = JointSpectrum()
        for t in np.linspace(0.0, 2.5, 11):
            rho = evolve_pre_encoding(spec, t)
            kappa = abs(2.0 * rho[0, 3])
            assert dense_coding_capacity(rho) == pytest.approx(
                capacity_pre_encoding(kappa), abs=1e-10)
        for kappa in np.arange(0.1, 0.95, 0.1):
            assert capacity_bob_noise(kappa, 0.0) == pytest.approx(
                capacity_pre_encoding(kappa ** 2), abs=1e-10)
            for k in (-1.0, -0.75, -0.5, -0.25, 0.0):
                n = non_markovianity(kappa, k)
                assert capacity_from_non_markovianity(n, kappa) == pytest.approx(
                    capacity_bob_noise(kappa, k), abs=1e-10)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0


def test_06_anticorrelated_noise_recreates_bell_state():
    with criterion(6, "k = -1 receiver noise recreates the encoded Bell state"):
        spec = JointSpectrum(k=-1.0)
        t = equal_times(0.163, spec)
        start = time.perf_counter()
        mask = dephasing_mask(spec, DephasingTimes(t, t), flip_sender=True)
        out = bell_state(BellLabel.PSI_PLUS) * mask
        f = fidelity(out, bell_state(BellLabel.PSI_PLUS))
        elapsed = time.perf_counter() - start
        assert f >= 1.0 - 1e-10
        assert elapsed < 1e-2


def test_07_concurrence_identity():
    with criterion(7, "concurrence equals the coherence magnitude"):
        spec = JointSpectrum()
        start = time.perf_counter()
        for t in np.linspace(0.0, 2.4, 20):
            rho = evolve_pre_encoding(spec, t)
            kappa = abs(2.0 * rho[0, 3])
            assert concurrence(rho) == pytest.approx(kappa, abs=1e-10)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.1


def test_08_noise_reordering():
    with criterion(8, "3-state MI reorder-invariant; 4-state never gains"):
        start = time.perf_counter()
        for kappa in (0.1, 0.3, 0.5, 0.7, 0.9):
            for k in (-1.0, -0.5, 0.0, 0.5):
                spec = JointSpectrum(k=k)
                t = equal_times(kappa, spec)
                times = DephasingTimes(t, t)
                before3 = mutual_information(THREE, simulate_protocol(
                    spec, times, THREE, NoiseOrder.NOISE_BEFORE_ENCODING))
                after3 = mutual_information(THREE, simulate_protocol(
                    spec, times, THREE, NoiseOrder.NOISE_AFTER_ENCODING))
                assert after3 == pytest.approx(before3, abs=1e-10)
                if k <= 0.0:
                    # the reordered 4-state protocol loses ground only for
                    # anticorrelated environments; for k > 0 the cross term
                    # flips sign and reordering would help instead
                    before4 = mutual_information(FOUR, simulate_protocol(
                        spec, times, FOUR, NoiseOrder.NOISE_BEFORE_ENCODING))
                    after4 = mutual_information(FOUR, simulate_protocol(
                        spec, times, FOUR, NoiseOrder.NOISE_AFTER_ENCODING))
                    assert after4 <= before4 + 1e-12
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0


def test_09_fit_recovery():
    with criterion(9, "least-squares fit recovers the generator parameters"):
        start = time.perf_counter()
        kappas = np.linspace(0.1, 0.95, 10)

        pts3 = [(k, closed_form_mi3(k, -1.0, 0.0749)) for k in kappas]
        fit3 = fit_k_s(pts3, THREE)
        assert abs(fit3.k_hat - (-1.0)) <= 1e-3
        assert abs(fit3.s_hat - 0.0749) <= 1e-4

        pts4 = [(k, closed_form_mi4(k, -0.99995, 0.0975)) for k in kappas]
        fit4 = fit_k_s(pts4, FOUR)
        # -0.99995 sits half a final-grid step off the k lattice: the fit
        # lands on the nearest representable point and s absorbs the rest
        assert abs(fit4.k_hat - (-0.99995)) <= 1e-4
        assert abs(fit4.s_hat - 0.0975) <= 1e-3

        spec = JointSpectrum(k=-1.0)
        s_gen = 0.0749
        points = []
        for i, kappa in enumerate((0.163, 0.35, 0.55, 0.75, 0.9)):
            t = equal_times(kappa, spec)
            table = simulate_protocol(spec, DephasingTimes(t, t), THREE)
            mean, _ = estimate_mi_with_errors(table, THREE, 10_000, 1000, 600 + i)
            points.append((kappa, mean - s_gen))
        mc_fit = fit_k_s(points, THREE)
        assert abs(mc_fit.s_hat - s_gen) <= 0.02

        elapsed = time.perf_counter() - start
        assert elapsed < 30.0


def test_10_tomography_pipeline():
    with criterion(10, "linear inversion is exact and tracks entanglement decay"):
        start = time.perf_counter()
        rng = np.random.default_rng(1234)
        for _ in range(50):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = g @ g.conj().T
            rho /= rho.trace()
            back = reconstruct_linear_inversion(expected_tomography_counts(rho, 1e6), 1e6)
            assert np.max(np.abs(back - rho)) < 1e-10
        spec = JointSpectrum()
        curve = []
        for t in np.linspace(0.0, 2.4, 13):
            counts = expected_tomography_counts(evolve_pre_encoding(spec, t), 1e5)
            curve.append(concurrence(reconstruct_linear_inversion(counts, 1e5)))
        assert curve[0] == pytest.approx(1.0, abs=1e-10)
        assert all(b < a for a, b in zip(curve, curve[1:]))
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0


def test_11_counting_statistics():
    with criterion(11, "error bars scale as 1/sqrt(n) and match the reported size"):
        start = time.perf_counter()
        table3 = conditional_probabilities(THREE, 0.5)
        _, std_small = estimate_mi_with_errors(table3, THREE, 10_000, 500, 21)
        _, std_large = estimate_mi_with_errors(table3, THREE, 40_000, 500, 22)
        assert 0.4 <= std_large / std_small <= 0.6
        # at coincidence-scale shot counts the bars land at the size the
        # headline figure reports (a few times 0.01 bits)
        for scheme in (THREE, FOUR):
            table = conditional_probabilities(scheme, 0.5)
            _, std = estimate_mi_with_errors(table, scheme, 500, 600, 23)
            assert 0.01 <= std <= 0.05
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0
