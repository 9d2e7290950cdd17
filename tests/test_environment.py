"""Tests for the correlated dephasing environment and its closed forms.

The decoherence factors have an independent oracle here: two-dimensional
Gauss-Hermite quadrature of the phase average over the joint Gaussian
frequency density.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from densecoding import (
    BellLabel,
    DephasingTimes,
    JointSpectrum,
    PAULI_FOR_BELL,
    PauliLabel,
    Party,
    apply_pauli,
    bell_state,
    capacity_bob_noise,
    capacity_from_non_markovianity,
    concurrence,
    decoherence_function,
    dephasing_mask,
    evolve_pre_encoding,
    fidelity,
    non_markovianity,
    validate_density_matrix,
)
from densecoding.environment import _characteristic_function

_GH_NODES, _GH_WEIGHTS = np.polynomial.hermite.hermgauss(96)


def phase_average_quadrature(spec: JointSpectrum, u: float, v: float) -> complex:
    """Oracle: E[exp(i(u wA + v wB))] by 2-D Gauss-Hermite quadrature."""
    cov = np.array([
        [spec.c_aa, spec.k * math.sqrt(spec.c_aa * spec.c_bb)],
        [spec.k * math.sqrt(spec.c_aa * spec.c_bb), spec.c_bb],
    ])
    vals, vecs = np.linalg.eigh(cov)
    scale = vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None)))
    z1, z2 = np.meshgrid(_GH_NODES, _GH_NODES, indexing="ij")
    w = (spec.omega0 / 2.0) + math.sqrt(2.0) * np.stack(
        [scale[0, 0] * z1 + scale[0, 1] * z2, scale[1, 0] * z1 + scale[1, 1] * z2])
    integrand = np.exp(1j * (u * w[0] + v * w[1]))
    weights = np.outer(_GH_WEIGHTS, _GH_WEIGHTS)
    return complex((weights * integrand).sum() / math.pi)


def joint_factor(spec: JointSpectrum, times: DephasingTimes) -> complex:
    """Total coherence factor after both stages, cross-correlation included:
    the mask's |HH><VV| entry, the characteristic function at (t_a, t_b)."""
    return dephasing_mask(spec, times, include_phase=True)[0, 3]


class TestDecoherenceFunction:
    def test_no_interaction(self):
        assert decoherence_function(JointSpectrum(), 0.0) == pytest.approx(1.0 + 0.0j)

    def test_reference_point(self):
        # omega0=2, c_aa=1, delta_n=1, t=1 -> exp(i) * exp(-1/2)
        val = decoherence_function(JointSpectrum(omega0=2, c_aa=1, delta_n=1), 1.0)
        assert val == pytest.approx(np.exp(1j) * math.exp(-0.5), abs=1e-14)

    def test_monotone_decay(self):
        spec = JointSpectrum()
        mags = [abs(decoherence_function(spec, t)) for t in np.linspace(0, 3, 20)]
        assert all(a > b for a, b in zip(mags, mags[1:]))

    @pytest.mark.parametrize("c_aa", [0.3, 0.7, 1.0, 1.8, 3.0])
    @pytest.mark.parametrize("t", [0.2, 0.5, 0.9, 1.4, 2.1])
    def test_against_quadrature(self, c_aa, t):
        spec = JointSpectrum(omega0=1.6, c_aa=c_aa, c_bb=0.9, k=0.4, delta_n=1.1)
        oracle = phase_average_quadrature(spec, spec.delta_n * t, 0.0)
        assert decoherence_function(spec, t) == pytest.approx(oracle, abs=1e-8)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            decoherence_function(JointSpectrum(), -0.5)

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_time(self, t):
        with pytest.raises(ValueError, match="t_a must be finite and non-negative"):
            decoherence_function(JointSpectrum(), t)


class TestJointDephasingFactor:
    def test_idle_receiver_reduces_to_sender_factor(self):
        spec = JointSpectrum(k=-0.7)
        t = 1.3
        assert joint_factor(spec, DephasingTimes(t, 0.0)) == pytest.approx(
            decoherence_function(spec, t), abs=1e-14)

    def test_perfect_anticorrelation_preserves_magnitude(self):
        spec = JointSpectrum(c_aa=1.2, c_bb=1.2, k=-1.0)
        for t in (0.4, 1.1, 2.5):
            assert abs(joint_factor(spec, DephasingTimes(t, t))) == pytest.approx(
                1.0, abs=1e-12)

    def test_uncorrelated_environments_factorize(self):
        spec = JointSpectrum(c_aa=0.8, c_bb=1.5, k=0.0)
        times = DephasingTimes(0.9, 1.4)
        joint = abs(joint_factor(spec, times))
        local_a = abs(phase_average_quadrature(spec, spec.delta_n * times.t_a, 0.0))
        local_b = abs(phase_average_quadrature(spec, 0.0, spec.delta_n * times.t_b))
        assert joint == pytest.approx(local_a * local_b, abs=1e-8)

    @pytest.mark.parametrize("k", [-1.0, -0.5, 0.0, 0.6, 1.0])
    def test_against_quadrature(self, k):
        spec = JointSpectrum(omega0=2.3, c_aa=1.1, c_bb=0.6, k=k, delta_n=0.8)
        times = DephasingTimes(0.7, 1.2)
        oracle = phase_average_quadrature(
            spec, spec.delta_n * times.t_a, spec.delta_n * times.t_b)
        assert joint_factor(spec, times) == pytest.approx(oracle, abs=1e-8)

    @given(st.floats(0.0, 3.0), st.floats(0.0, 3.0), st.floats(-1.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_magnitude_never_exceeds_one(self, t_a, t_b, k):
        spec = JointSpectrum(c_aa=1.0, c_bb=1.4, k=k)
        assert abs(joint_factor(spec, DephasingTimes(t_a, t_b))) <= 1.0 + 1e-12

    @given(st.floats(0.05, 20.0), st.floats(0.05, 20.0), st.floats(-1.0, 1.0),
           st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))
    @settings(max_examples=300, deadline=None)
    def test_exponent_agrees_with_the_term_by_term_form(self, c_aa, c_bb, k, u, v):
        spec = JointSpectrum(c_aa=c_aa, c_bb=c_bb, k=k)
        cf = _characteristic_function(spec, u, v, include_phase=False)
        terms = (c_aa * u * u, c_bb * v * v, 2.0 * k * math.sqrt(c_aa * c_bb) * u * v)
        term_by_term = math.exp(-sum(terms) / 2.0)
        # A few ulp of the largest term in the exponent, and of exp itself.
        ulps = 4.0 * (1.0 + sum(map(abs, terms))) * np.finfo(float).eps
        assert cf.imag == 0.0
        assert abs(cf.real - term_by_term) <= ulps * max(cf.real, term_by_term)

    @pytest.mark.parametrize("c", [0.7, 1.0, 1.3])
    def test_overflowing_exponent_reads_its_limit(self, c):
        times = DephasingTimes(1e300, 1e300)
        assert abs(joint_factor(JointSpectrum(c_aa=c, c_bb=c, k=-1.0), times)) == 1.0
        assert joint_factor(JointSpectrum(c_aa=c, c_bb=c, k=-0.5), times) == 0.0
        assert abs(joint_factor(JointSpectrum(c_aa=c, k=-1.0), times)) == (c == 1.0)

    @pytest.mark.parametrize("k", [-1.0, -0.5, 0.0, 1.0])
    @pytest.mark.parametrize("flip_sender", [False, True])
    def test_overflowing_scale_reads_its_limit(self, k, flip_sender):
        # delta_n * t overflows at delta_n = 1e10 but not at delta_n = 1.
        times = DephasingTimes(1e300, 1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            masks = [dephasing_mask(JointSpectrum(k=k, delta_n=dn), times, flip_sender)
                     for dn in (1.0, 1e10)]
            for omega0 in (0.0, 2.0):
                spec = JointSpectrum(omega0=omega0, k=k, delta_n=1e10)
                assert decoherence_function(spec, 1e300) == 0.0
        np.testing.assert_array_equal(masks[1], masks[0])

    def test_degradation_monotone_unless_perfectly_anticorrelated(self):
        grid = np.linspace(0.0, 2.5, 26)
        for k in (-0.99, -0.5, 0.0, 0.7):
            spec = JointSpectrum(k=k)
            mags = [abs(joint_factor(spec, DephasingTimes(t, t))) for t in grid]
            assert all(a >= b - 1e-12 for a, b in zip(mags, mags[1:]))
        spec = JointSpectrum(k=-1.0)
        mags = [abs(joint_factor(spec, DephasingTimes(t, t))) for t in grid]
        assert all(m == pytest.approx(1.0, abs=1e-12) for m in mags)


class TestEvolvePreEncoding:
    def test_no_noise_gives_bell_state(self):
        np.testing.assert_allclose(
            evolve_pre_encoding(JointSpectrum(), 0.0),
            bell_state(BellLabel.PHI_PLUS), atol=1e-14)

    def test_full_dephasing(self):
        rho = evolve_pre_encoding(JointSpectrum(), 50.0)
        assert abs(rho[0, 3]) < 1e-12
        assert rho[0, 0] == pytest.approx(0.5) and rho[3, 3] == pytest.approx(0.5)

    def test_coherence_entry_is_decoherence_function(self):
        spec = JointSpectrum(omega0=1.7, c_aa=0.9, delta_n=1.2)
        t = 0.8
        rho = evolve_pre_encoding(spec, t)
        assert rho[0, 3] == pytest.approx(decoherence_function(spec, t) / 2.0, abs=1e-15)

    def test_always_valid(self):
        for t in (0.0, 0.3, 1.0, 4.0):
            validate_density_matrix(evolve_pre_encoding(JointSpectrum(k=0.2), t), dim=4)

    @given(st.floats(-3.0, 5.0), st.floats(0.2, 2.5), st.floats(0.2, 2.5),
           st.floats(-1.0, 1.0), st.floats(-2.0, 2.0), st.floats(0.0, 3.0))
    @settings(max_examples=200, deadline=None)
    def test_concurrence_is_the_coherence_modulus(self, omega0, c_aa, c_bb, k, delta_n, t):
        # Wootters' concurrence of |Phi+> with coherence kappa is |kappa|.
        spec = JointSpectrum(omega0=omega0, c_aa=c_aa, c_bb=c_bb, k=k, delta_n=delta_n)
        assert concurrence(evolve_pre_encoding(spec, t)) == pytest.approx(
            abs(decoherence_function(spec, t)), abs=1e-12)


# The mask acts on an encoded Bell state; with the noise before the encoding
# the X and Y encodings (Psi sector) take the sender coefficient flipped.
_PSI_SECTOR = (BellLabel.PSI_PLUS, BellLabel.PSI_MINUS)
_BASIS_H = ((1, 1), (1, 0), (0, 1), (0, 0))  # (Alice H, Bob H) per basis index


class TestEvolvePostEncoding:
    """Both stages with the noise before the encoding, in the encoded frame."""

    def test_idle_receiver_without_compensation_is_identity(self):
        # with t_b = 0 the mask is the sender stage carried through the X
        # encoding: the pre-encoding state, then X
        spec = JointSpectrum(k=-0.4)
        staged = apply_pauli(evolve_pre_encoding(spec, 1.1), PauliLabel.X, Party.ALICE)
        out = bell_state(BellLabel.PSI_PLUS) * dephasing_mask(
            spec, DephasingTimes(1.1, 0.0), flip_sender=True, include_phase=True)
        np.testing.assert_allclose(out, staged, atol=1e-14)

    @pytest.mark.parametrize("label", list(BellLabel))
    def test_anticorrelated_noise_recreates_bell_state(self, label):
        spec = JointSpectrum(k=-1.0)
        t = 1.905  # |kappa| ~ 0.163
        out = bell_state(label) * dephasing_mask(
            spec, DephasingTimes(t, t), flip_sender=label in _PSI_SECTOR)
        assert fidelity(out, bell_state(label)) >= 1.0 - 1e-10

    @pytest.mark.parametrize("k", [-1.0, -0.6, 0.0, 0.5])
    @pytest.mark.parametrize("kappa", [0.2, 0.5, 0.8])
    def test_total_coherence_magnitude(self, k, kappa):
        # with equal times and variances the surviving coherence magnitude
        # is |kappa| ** (2 (1 + k))
        spec = JointSpectrum(k=k)
        t = math.sqrt(-2.0 * math.log(kappa))
        out = bell_state(BellLabel.PSI_PLUS) * dephasing_mask(
            spec, DephasingTimes(t, t), flip_sender=True)
        assert 2.0 * abs(out[2, 1]) == pytest.approx(kappa ** (2 * (1 + k)), abs=1e-10)

    def test_total_factor_against_quadrature(self):
        spec = JointSpectrum(omega0=2.2, c_aa=1.3, c_bb=0.7, k=-0.8, delta_n=0.9)
        times = DephasingTimes(0.9, 1.6)
        mask = dephasing_mask(spec, times, include_phase=True)
        oracle = phase_average_quadrature(
            spec, spec.delta_n * times.t_a, spec.delta_n * times.t_b)
        assert mask[0, 3] == pytest.approx(oracle, abs=1e-8)

    def test_phase_compensation_leaves_real_magnitude(self):
        spec = JointSpectrum(k=-0.3)
        times = DephasingTimes(0.8, 0.8)
        coh = dephasing_mask(spec, times)[0, 3]
        assert coh.imag == pytest.approx(0.0, abs=1e-12)
        assert coh.real == pytest.approx(abs(joint_factor(spec, times)), abs=1e-12)


class TestDephaseEncodedState:
    """Both stages with the noise after the encoding."""

    def test_matches_staged_route_for_phi_sector(self):
        # Z commutes with the sender-side noise, so dephasing before and
        # after the Z encoding must give the same state
        spec = JointSpectrum(k=-0.6)
        mask = dephasing_mask(spec, DephasingTimes(1.2, 1.2))
        staged = apply_pauli(bell_state(BellLabel.PHI_PLUS) * mask, PauliLabel.Z, Party.ALICE)
        reordered = apply_pauli(bell_state(BellLabel.PHI_PLUS), PauliLabel.Z, Party.ALICE) * mask
        np.testing.assert_allclose(staged, reordered, atol=1e-12)

    def test_psi_sector_sees_opposite_cross_term(self):
        # sender noise after an X encoding reverses the sign of the frequency
        # coefficient on Alice's side: cross term flips, oracle by quadrature
        spec = JointSpectrum(k=-0.8)
        times = DephasingTimes(0.9, 0.9)
        rho = bell_state(BellLabel.PSI_PLUS) * dephasing_mask(spec, times, include_phase=True)
        oracle = phase_average_quadrature(
            spec, -spec.delta_n * times.t_a, spec.delta_n * times.t_b)
        assert 2.0 * rho[2, 1] == pytest.approx(oracle, abs=1e-8)

    def test_output_valid(self):
        spec = JointSpectrum(k=0.3)
        out = bell_state(BellLabel.PSI_MINUS) * dephasing_mask(spec, DephasingTimes(0.7, 1.1))
        validate_density_matrix(out, dim=4)


class TestDephasingMask:
    @given(st.floats(0.2, 2.5), st.floats(0.2, 2.5), st.floats(-1.0, 1.0),
           st.floats(-1.5, 1.5), st.floats(-3.0, 3.0), st.floats(0.0, 1.5),
           st.floats(0.0, 1.5), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_every_entry_matches_quadrature(self, c_aa, c_bb, k, delta_n, omega0,
                                            t_a, t_b, flip_sender):
        spec = JointSpectrum(omega0=omega0, c_aa=c_aa, c_bb=c_bb, k=k, delta_n=delta_n)
        mask = dephasing_mask(spec, DephasingTimes(t_a, t_b), flip_sender=flip_sender,
                              include_phase=True)
        sign = -1.0 if flip_sender else 1.0
        for i, (a_i, b_i) in enumerate(_BASIS_H):
            for j, (a_j, b_j) in enumerate(_BASIS_H):
                u = sign * delta_n * t_a * (a_i - a_j)
                v = delta_n * t_b * (b_i - b_j)
                assert mask[i, j] == pytest.approx(
                    phase_average_quadrature(spec, u, v), abs=1e-8)

    @pytest.mark.parametrize("label", list(BellLabel))
    def test_noise_before_encoding_is_the_flipped_mask(self, label):
        # dephasing |Phi+> and then encoding equals encoding and then the
        # mask with the sender coefficient of the pre-encoding frame
        spec = JointSpectrum(omega0=1.3, c_aa=0.8, c_bb=1.7, k=-0.45, delta_n=1.2)
        times = DephasingTimes(0.7, 1.3)
        before = apply_pauli(
            bell_state(BellLabel.PHI_PLUS) * dephasing_mask(spec, times, include_phase=True),
            PAULI_FOR_BELL[label], Party.ALICE)
        encoded = bell_state(label) * dephasing_mask(
            spec, times, flip_sender=label in _PSI_SECTOR, include_phase=True)
        np.testing.assert_allclose(encoded, before, atol=1e-14)


class TestNonMarkovianity:
    def test_markovian_case_is_zero(self):
        assert non_markovianity(0.37, 0.0) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("k", [-1.0, 1.0])
    def test_extremal_correlation(self, k):
        assert non_markovianity(0.3, k) == pytest.approx(0.7, abs=1e-12)

    def test_reference_point(self):
        assert non_markovianity(0.5, -0.5) == pytest.approx(0.09460355750136051, abs=1e-12)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.3])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            non_markovianity(bad, -0.5)

    def test_correlation_domain(self):
        with pytest.raises(ValueError, match=r"k must lie in \[-1, 1\], got 1.5"):
            non_markovianity(0.5, 1.5)

    @given(st.floats(0.1, 3.0), st.floats(0.1, 3.0), st.floats(-1.0, 0.0),
           st.floats(0.2, 2.0), st.sampled_from([-1.0, 1.0]), st.floats(0.05, 1.5))
    @settings(max_examples=60, deadline=None)
    def test_equals_trace_distance_backflow(self, c_aa, c_bb, k, dn, sign, t_a):
        # Breuer-Laine-Piilo measure: the largest trace distance of the dephased
        # Phi+/Phi- pair over the receiver time t_b, less its value |kappa| at
        # t_b = 0.  The optimum t_b* = -k sqrt(c_aa / c_bb) t_a is on the grid.
        spec = JointSpectrum(c_aa=c_aa, c_bb=c_bb, k=k, delta_n=sign * dn)
        ratio = math.sqrt(c_aa / c_bb)
        grid = np.union1d(np.linspace(0.0, 2.0 * ratio * t_a, 101), [-k * ratio * t_a])
        pair = bell_state(BellLabel.PHI_PLUS) - bell_state(BellLabel.PHI_MINUS)

        def distance(t_b):
            diff = pair * dephasing_mask(spec, DephasingTimes(t_a, t_b))
            return 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum()

        kappa = abs(decoherence_function(spec, t_a))
        assert distance(0.0) == pytest.approx(kappa, abs=1e-12)
        backflow = max(distance(t_b) for t_b in grid) - kappa
        assert backflow == pytest.approx(non_markovianity(kappa, k), abs=1e-12)


class TestCapacityFromNonMarkovianity:
    def test_zero_backflow_matches_uncorrelated_capacity(self):
        for kappa in (0.2, 0.5, 0.8):
            assert capacity_from_non_markovianity(0.0, kappa) == pytest.approx(
                capacity_bob_noise(kappa, 0.0), abs=1e-12)

    def test_maximal_backflow_gives_two_bits(self):
        for kappa in (0.1, 0.45, 0.9):
            assert capacity_from_non_markovianity(1.0 - kappa, kappa) == pytest.approx(
                2.0, abs=1e-10)

    @pytest.mark.parametrize("kappa", np.arange(0.1, 0.95, 0.1))
    @pytest.mark.parametrize("k", [-1.0, -0.75, -0.5, -0.25, 0.0])
    def test_round_trip_through_backflow(self, kappa, k):
        n = non_markovianity(kappa, k)
        assert capacity_from_non_markovianity(n, kappa) == pytest.approx(
            capacity_bob_noise(kappa, k), abs=1e-10)

    @pytest.mark.parametrize("kappa", [0.0, 1.0])
    def test_singular_domain(self, kappa):
        with pytest.raises(ValueError):
            capacity_from_non_markovianity(0.1, kappa)

    def test_out_of_range_backflow(self):
        with pytest.raises(ValueError):
            capacity_from_non_markovianity(0.9, 0.5)
        with pytest.raises(ValueError):
            capacity_from_non_markovianity(-0.1, 0.5)

    def test_nan_backflow_names_n(self):
        with pytest.raises(ValueError, match="n must satisfy"):
            capacity_from_non_markovianity(math.nan, 0.5)


class TestJointSpectrumValidation:
    def test_rejects_bad_variance(self):
        with pytest.raises(ValueError):
            JointSpectrum(c_aa=0.0)
        with pytest.raises(ValueError):
            JointSpectrum(c_bb=-1.0)

    def test_rejects_bad_correlation(self):
        with pytest.raises(ValueError):
            JointSpectrum(k=1.5)

    @pytest.mark.parametrize("field, value", [("omega0", math.inf), ("delta_n", math.nan)])
    def test_rejects_non_finite_frequencies(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite, got {value}"):
            JointSpectrum(**{field: value})

    def test_rejects_negative_times(self):
        with pytest.raises(ValueError):
            DephasingTimes(-1.0, 0.0)
        with pytest.raises(ValueError):
            DephasingTimes(0.0, -2.0)

    @pytest.mark.parametrize("t", [math.inf, math.nan])
    def test_rejects_non_finite_times(self, t):
        with pytest.raises(ValueError, match="t_a must be finite and non-negative"):
            DephasingTimes(t, 0.0)
        with pytest.raises(ValueError, match="t_b must be finite and non-negative"):
            DephasingTimes(0.0, t)
