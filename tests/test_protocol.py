"""Tests for encoding schemes, outcome tables, mutual information and capacities."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from densecoding import (
    BELL_OUTPUT_ORDER,
    BellLabel,
    ConditionalTable,
    DephasingTimes,
    EncodingScheme,
    JointSpectrum,
    NoiseOrder,
    SchemeVariant,
    bell_state,
    binary_entropy,
    capacity_bob_noise,
    capacity_pre_encoding,
    closed_form_mi,
    closed_form_mi3,
    closed_form_mi4,
    conditional_probabilities,
    decoherence_function,
    dense_coding_capacity,
    dephasing_mask,
    effective_visibility,
    evolve_pre_encoding,
    mutual_information,
    simulate_protocol,
    von_neumann_entropy,
)
from densecoding.protocol import (
    _born_tables,
    _checked_probabilities,
    _mi_bits,
    _mi_curve,
    _sector_mi,
    _sector_tables,
    _sector_visibilities,
)

THREE = EncodingScheme.three_state()
FOUR = EncodingScheme.four_state()

KAPPA_GRID = np.arange(0.05, 0.96, 0.1)
K_GRID = (-1.0, -0.5, 0.0, 0.5)


def equal_times_for_kappa(kappa, spec):
    """Interaction duration t with |decoherence| = kappa for this spectrum."""
    return math.sqrt(-2.0 * math.log(kappa) / (spec.c_aa * spec.delta_n ** 2))


def blahut_arimoto(p, tol=1e-14, max_iterations=10_000):
    """Lower and upper bounds in bits on the capacity of the channel p(y|x),
    rows x (Blahut 1972; Arimoto 1972).  With q the output law of the input
    law r and D_x = D(p(.|x) || q): I(r) = sum_x r_x D_x <= C <= max_x D_x."""
    r = np.full(p.shape[0], 1.0 / p.shape[0])
    for _ in range(max_iterations):
        q = r @ p
        d = np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0) / q), 0.0).sum(axis=1)
        lower, upper = r @ d, d.max()
        if upper - lower < tol:
            break
        r = r * np.exp(d)
        r /= r.sum()
    return lower / math.log(2.0), upper / math.log(2.0)


class TestEncodingScheme:
    def test_alphabets(self):
        assert THREE.alphabet == (BellLabel.PHI_PLUS, BellLabel.PHI_MINUS, BellLabel.PSI_PLUS)
        assert FOUR.alphabet == BELL_OUTPUT_ORDER

    def test_default_priors_uniform(self):
        assert THREE.priors == pytest.approx((1 / 3,) * 3)
        assert FOUR.priors == pytest.approx((1 / 4,) * 4)

    def test_rejects_bad_priors(self):
        with pytest.raises(ValueError):
            EncodingScheme.three_state((0.5, 0.5))
        with pytest.raises(ValueError):
            EncodingScheme.four_state((0.5, 0.5, 0.5, -0.5))
        with pytest.raises(ValueError):
            EncodingScheme.three_state((0.5, 0.4, 0.2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_priors(self, bad):
        with pytest.raises(ValueError, match="priors must be finite and non-negative"):
            EncodingScheme.three_state((bad, 0.5, 0.5))


class TestEffectiveVisibility:
    def test_perfect_anticorrelation(self):
        for kappa in (0.01, 0.163, 0.9):
            assert effective_visibility(kappa, -1.0) == 1.0

    def test_markovian_square(self):
        assert effective_visibility(0.5, 0.0) == pytest.approx(0.25, abs=1e-15)

    def test_no_sender_noise(self):
        for k in (-1.0, 0.0, 1.0):
            assert effective_visibility(1.0, k) == 1.0

    def test_degenerate_point_warns(self):
        with pytest.warns(UserWarning):
            assert effective_visibility(0.0, -1.0) == 1.0

    def test_zero_coherence_markovian(self):
        # Also at k != 0, with no RuntimeWarning (log 0), which would be an error here.
        for k in (0.0, -0.999, 1.0):
            assert effective_visibility(0.0, k) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            effective_visibility(1.2, 0.0)
        with pytest.raises(ValueError):
            effective_visibility(0.5, -1.2)


class TestConditionalProbabilities:
    def test_noiseless_identity(self):
        table = conditional_probabilities(FOUR, 1.0)
        np.testing.assert_allclose(table.p_y_given_x, np.eye(4), atol=1e-15)

    def test_full_dephasing_splits_sectors(self):
        table = conditional_probabilities(THREE, 0.0)
        expected = np.array([
            [0.5, 0.5, 0.0, 0.0],
            [0.5, 0.5, 0.0, 0.0],
            [0.0, 0.0, 0.5, 0.5],
        ])
        np.testing.assert_allclose(table.p_y_given_x, expected, atol=1e-15)

    def test_half_visibility_against_born_rule(self):
        # independent route: explicit density matrix and Bell projectors
        m = 0.5
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = rho[3, 3] = 0.5
        rho[0, 3] = rho[3, 0] = m / 2.0
        born = [np.trace(bell_state(y) @ rho).real for y in BELL_OUTPUT_ORDER]
        table = conditional_probabilities(THREE, m)
        np.testing.assert_allclose(table.p_y_given_x[0], born, atol=1e-12)
        assert table.p_y_given_x[0, 0] == pytest.approx(0.75)
        assert table.p_y_given_x[0, 1] == pytest.approx(0.25)
        assert table.p_y_given_x[0, 2] == table.p_y_given_x[0, 3] == 0.0

    def test_table_validation(self):
        with pytest.raises(ValueError):
            ConditionalTable((BellLabel.PHI_PLUS,), BELL_OUTPUT_ORDER,
                             np.array([[0.5, 0.2, 0.0, 0.0]]))
        with pytest.raises(ValueError):
            ConditionalTable((BellLabel.PHI_PLUS,), BELL_OUTPUT_ORDER,
                             np.array([[1.5, -0.5, 0.0, 0.0]]))
        with pytest.raises(ValueError, match="conditional probabilities must be finite"):
            ConditionalTable((BellLabel.PHI_PLUS,), BELL_OUTPUT_ORDER,
                             np.array([[math.nan, 1.0, 0.0, 0.0]]))

    def test_rejects_table_of_wrong_shape(self):
        with pytest.raises(ValueError, match=r"shape \(1, 4\) does not match 2 inputs x 4"):
            ConditionalTable(THREE.alphabet[:2], BELL_OUTPUT_ORDER, np.eye(4)[:1])

    def test_rejects_visibility_outside_unit_interval(self):
        with pytest.raises(ValueError, match=r"visibility must lie in \[0, 1\], got 1.5"):
            conditional_probabilities(THREE, 1.5)


class TestMutualInformation:
    def test_perfect_four_state_channel(self):
        assert mutual_information(FOUR, conditional_probabilities(FOUR, 1.0)) == pytest.approx(
            2.0, abs=1e-12)

    def test_perfect_three_state_channel(self):
        assert mutual_information(THREE, conditional_probabilities(THREE, 1.0)) == pytest.approx(
            math.log2(3.0), abs=1e-12)

    def test_fully_dephased_three_state(self):
        # closed form at zero visibility: log2(27/4) / 3
        oracle = math.log2(27.0 / 4.0) / 3.0
        assert mutual_information(THREE, conditional_probabilities(THREE, 0.0)) == pytest.approx(
            oracle, abs=1e-12)
        assert oracle == pytest.approx(0.9182958340544896, abs=1e-12)

    def test_offset_subtraction_and_clamp(self):
        table = conditional_probabilities(THREE, 1.0)
        assert mutual_information(THREE, table, 0.0749) == pytest.approx(
            math.log2(3.0) - 0.0749, abs=1e-12)
        assert mutual_information(THREE, table, 5.0) == 0.0

    def test_rejects_nan_offset(self):
        with pytest.raises(ValueError, match="s must be non-negative"):
            mutual_information(THREE, conditional_probabilities(THREE, 0.5), math.nan)

    @given(st.lists(st.floats(0.01, 1.0), min_size=16, max_size=16))
    @settings(max_examples=60, deadline=None)
    def test_bounds_on_arbitrary_tables(self, raw):
        rows = np.array(raw).reshape(4, 4)
        rows = rows / rows.sum(axis=1, keepdims=True)
        table = ConditionalTable(FOUR.alphabet, BELL_OUTPUT_ORDER, rows)
        mi = mutual_information(FOUR, table)
        assert 0.0 <= mi <= 2.0 + 1e-12
        three_table = ConditionalTable(THREE.alphabet, BELL_OUTPUT_ORDER, rows[:3])
        assert 0.0 <= mutual_information(THREE, three_table) <= math.log2(3.0) + 1e-12

    def test_rejects_mismatched_alphabet(self):
        with pytest.raises(ValueError):
            mutual_information(FOUR, conditional_probabilities(THREE, 0.5))


class TestCapacities:
    def test_pre_encoding_domain(self):
        with pytest.raises(ValueError, match=r"kappa_abs must lie in \[0, 1\], got 1.5"):
            capacity_pre_encoding(1.5)

    def test_endpoints(self):
        assert capacity_pre_encoding(1.0) == pytest.approx(2.0, abs=1e-12)
        assert capacity_pre_encoding(0.0) == pytest.approx(1.0, abs=1e-12)

    def test_matches_entropy_route(self):
        spec = JointSpectrum()
        for t in np.linspace(0.0, 2.5, 11):
            rho = evolve_pre_encoding(spec, t)
            kappa = abs(2.0 * rho[0, 3])
            assert capacity_pre_encoding(kappa) == pytest.approx(
                dense_coding_capacity(rho), abs=1e-10)

    def test_receiver_noise_at_perfect_anticorrelation(self):
        assert capacity_bob_noise(0.163, -1.0) == pytest.approx(2.0, abs=1e-12)

    def test_markovian_reduces_to_squared_coherence(self):
        for kappa in (0.1, 0.4, 0.75):
            assert capacity_bob_noise(kappa, 0.0) == pytest.approx(
                capacity_pre_encoding(kappa ** 2), abs=1e-12)

    def test_no_noise_limit(self):
        for k in (-1.0, -0.2, 0.9):
            assert capacity_bob_noise(1.0, k) == pytest.approx(2.0, abs=1e-12)

    def test_receiver_noise_dominates_for_anticorrelated_environments(self):
        for kappa in np.arange(0.05, 1.0, 0.05):
            for k in (-1.0, -0.9, -0.7, -0.5):
                gain = capacity_bob_noise(kappa, k) - capacity_pre_encoding(kappa)
                assert gain >= -1e-12
                if k < -0.5 and kappa < 1.0:
                    assert gain > 0.0


    @given(st.floats(0.0, 1.0, exclude_min=True), st.floats(-1.0, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_capacity_against_blahut_arimoto(self, kappa, k):
        # With Bell decoding the four-input channel is a sum of two binary
        # symmetric channels of one visibility.
        lower, upper = blahut_arimoto(
            conditional_probabilities(FOUR, effective_visibility(kappa, k)).p_y_given_x)
        assert abs(lower - capacity_bob_noise(kappa, k)) <= 1e-12
        assert abs(upper - capacity_bob_noise(kappa, k)) <= 1e-12
        # k = -1/2 leaves the sender-side visibility kappa.
        lower, upper = blahut_arimoto(
            conditional_probabilities(FOUR, effective_visibility(kappa, -0.5)).p_y_given_x)
        assert abs(lower - capacity_pre_encoding(kappa)) <= 1e-12
        assert abs(upper - capacity_pre_encoding(kappa)) <= 1e-12


class TestHolevoOracle:
    """With the mean phase compensated every encoded state is diagonal in the
    Bell basis, so the Bell measurement reaches the Holevo bound: chi of the
    encoded ensemble equals the Born-rule mutual information."""

    @given(st.integers(0, 2**32 - 1), st.sampled_from(list(SchemeVariant)),
           st.sampled_from(list(NoiseOrder)), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_chi_equals_bell_measurement_mi(self, seed, variant, order, uniform):
        rng = np.random.default_rng(seed)
        n = len(EncodingScheme(variant).alphabet)
        scheme = EncodingScheme(variant, () if uniform else tuple(rng.dirichlet(np.ones(n))))
        spec = JointSpectrum(omega0=rng.uniform(-3.0, 5.0), c_aa=rng.uniform(0.2, 3.0),
                             c_bb=rng.uniform(0.2, 3.0), k=rng.uniform(-1.0, 1.0),
                             delta_n=rng.uniform(-2.0, 2.0))
        times = DephasingTimes(*rng.uniform(0.0, 2.0, 2).tolist())
        # Before the encoding the X and Y symbols see the pre-encoding frame.
        before = order is NoiseOrder.NOISE_BEFORE_ENCODING
        states = [bell_state(x) * dephasing_mask(
            spec, times, flip_sender=before and x in (BellLabel.PSI_PLUS, BellLabel.PSI_MINUS))
            for x in scheme.alphabet]
        priors = scheme.priors
        average = sum(p * rho for p, rho in zip(priors, states))
        chi = von_neumann_entropy(average) - sum(
            p * von_neumann_entropy(rho) for p, rho in zip(priors, states))
        mi = mutual_information(scheme, simulate_protocol(spec, times, scheme, order))
        assert abs(chi - mi) <= 1e-12


class TestClosedForms:
    def test_three_state_noiseless_limit(self):
        assert closed_form_mi3(0.163, -1.0) == pytest.approx(math.log2(3.0), abs=1e-12)
        assert closed_form_mi3(1.0, 0.3) == pytest.approx(math.log2(3.0), abs=1e-12)

    def test_three_state_zero_visibility(self):
        assert closed_form_mi3(0.0, 0.0) == pytest.approx(math.log2(27.0 / 4.0) / 3.0, abs=1e-12)

    def test_three_state_fitted_endpoint(self):
        value = closed_form_mi3(0.163, -1.0, 0.0749)
        assert value == pytest.approx(math.log2(3.0) - 0.0749, abs=1e-12)
        assert value == pytest.approx(1.51006, abs=1e-5)

    @pytest.mark.parametrize("variant", list(SchemeVariant))
    def test_rejects_nan_offset(self, variant):
        with pytest.raises(ValueError, match="s must be non-negative"):
            closed_form_mi(variant, 0.5, -0.5, math.nan)

    def test_four_state_endpoints(self):
        assert closed_form_mi4(1.0, -0.3) == pytest.approx(2.0, abs=1e-12)
        assert closed_form_mi4(0.0, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_four_state_fitted_endpoint(self):
        value = closed_form_mi4(0.163, -0.99995, 0.0975)
        assert value == pytest.approx(1.9011512921579625, abs=1e-12)
        assert value == pytest.approx(1.9012, abs=5e-4)

    @pytest.mark.parametrize("kappa", KAPPA_GRID)
    @pytest.mark.parametrize("k", K_GRID)
    def test_four_state_equals_binary_entropy_identity(self, kappa, k):
        x = kappa ** (2.0 + 2.0 * k)
        assert closed_form_mi4(kappa, k) == pytest.approx(
            2.0 - binary_entropy((1.0 + x) / 2.0), abs=1e-12)

    @pytest.mark.parametrize("gap", [1e-11, 9.9e-13, 1e-13, 2.0 ** -52])
    def test_three_state_form_holds_next_to_full_visibility(self, gap):
        x = 1.0 - gap
        table = conditional_probabilities(THREE, x)
        assert float(_sector_mi(THREE.priors, x, x)) == pytest.approx(
            mutual_information(THREE, table), abs=1e-14)

    def test_monotone_in_visibility(self):
        xs = np.linspace(0.0, 1.0, 200)
        mi3 = [closed_form_mi3(x, 0.0) for x in np.sqrt(xs)]  # x = kappa^2 at k=0
        mi4 = [closed_form_mi4(x, 0.0) for x in np.sqrt(xs)]
        assert all(b >= a - 1e-12 for a, b in zip(mi3, mi3[1:]))
        assert all(b >= a - 1e-12 for a, b in zip(mi4, mi4[1:]))


class TestBellProjectors:
    def test_bell_projectors_complete_and_orthogonal(self):
        projectors = [bell_state(y) for y in BELL_OUTPUT_ORDER]
        np.testing.assert_allclose(sum(projectors), np.eye(4), atol=1e-14)
        for i, p in enumerate(projectors):
            for j, q in enumerate(projectors):
                expected = p if i == j else np.zeros((4, 4))
                np.testing.assert_allclose(p @ q, expected, atol=1e-14)


class TestSimulateProtocol:
    def test_no_noise_gives_identity_table(self):
        table = simulate_protocol(JointSpectrum(), DephasingTimes(0.0, 0.0), FOUR)
        np.testing.assert_allclose(table.p_y_given_x, np.eye(4), atol=1e-12)

    @pytest.mark.parametrize("k", K_GRID)
    def test_matches_closed_form_visibility(self, k):
        spec = JointSpectrum(k=k)
        for kappa in (0.1, 0.45, 0.9):
            t = equal_times_for_kappa(kappa, spec)
            table = simulate_protocol(spec, DephasingTimes(t, t), FOUR)
            ref = conditional_probabilities(FOUR, effective_visibility(kappa, k))
            assert np.max(np.abs(table.p_y_given_x - ref.p_y_given_x)) < 1e-10

    @pytest.mark.parametrize("k", K_GRID)
    @pytest.mark.parametrize("kappa", (0.05, 0.35, 0.65, 0.95))
    def test_oracle_equivalence_with_closed_forms(self, k, kappa):
        spec = JointSpectrum(k=k)
        t = equal_times_for_kappa(kappa, spec)
        times = DephasingTimes(t, t)
        mi3 = mutual_information(THREE, simulate_protocol(spec, times, THREE))
        mi4 = mutual_information(FOUR, simulate_protocol(spec, times, FOUR))
        assert mi3 == pytest.approx(closed_form_mi3(kappa, k), abs=1e-10)
        assert mi4 == pytest.approx(closed_form_mi4(kappa, k), abs=1e-10)

    @pytest.mark.parametrize("k", K_GRID)
    @pytest.mark.parametrize("kappa", (0.15, 0.5, 0.85))
    def test_three_state_reordering_invariance(self, k, kappa):
        spec = JointSpectrum(k=k)
        t = equal_times_for_kappa(kappa, spec)
        times = DephasingTimes(t, t)
        before = mutual_information(
            THREE, simulate_protocol(spec, times, THREE, NoiseOrder.NOISE_BEFORE_ENCODING))
        after = mutual_information(
            THREE, simulate_protocol(spec, times, THREE, NoiseOrder.NOISE_AFTER_ENCODING))
        assert after == pytest.approx(before, abs=1e-10)

    @pytest.mark.parametrize("k", (-1.0, -0.5))
    @pytest.mark.parametrize("kappa", (0.15, 0.5, 0.85))
    def test_four_state_reordering_never_gains(self, k, kappa):
        spec = JointSpectrum(k=k)
        t = equal_times_for_kappa(kappa, spec)
        times = DephasingTimes(t, t)
        before = mutual_information(
            FOUR, simulate_protocol(spec, times, FOUR, NoiseOrder.NOISE_BEFORE_ENCODING))
        after = mutual_information(
            FOUR, simulate_protocol(spec, times, FOUR, NoiseOrder.NOISE_AFTER_ENCODING))
        assert after <= before + 1e-12

    def test_rows_are_probability_distributions(self):
        spec = JointSpectrum(k=-0.4)
        table = simulate_protocol(spec, DephasingTimes(0.9, 1.3), THREE)
        assert np.all(table.p_y_given_x >= 0.0)
        np.testing.assert_allclose(table.p_y_given_x.sum(axis=1), 1.0, atol=1e-12)


class TestSectorKernel:
    @given(st.integers(0, 2**32 - 1), st.sampled_from(list(SchemeVariant)),
           st.sampled_from(list(NoiseOrder)))
    @settings(max_examples=200, deadline=None)
    def test_equals_born_rule_mi(self, seed, variant, order):
        rng = np.random.default_rng(seed)
        n = len(EncodingScheme(variant).alphabet)
        priors = rng.dirichlet(np.ones(n))
        priors[rng.random(n) < 0.2] = 0.0  # empty and one-sided sectors too
        priors = priors / priors.sum() if priors.any() else np.full(n, 1.0 / n)
        scheme = EncodingScheme(variant, tuple(priors))
        spec = JointSpectrum(omega0=rng.uniform(-3.0, 5.0), c_bb=rng.uniform(0.2, 3.0),
                             k=rng.uniform(-1.0, 1.0), delta_n=rng.uniform(-2.0, 2.0))
        t = rng.uniform(0.0, 2.0)
        table = _born_tables(spec, t, t, scheme, order)
        born = float(_mi_bits(np.asarray(scheme.priors), table))
        # Visibilities read off the Phi+ and Psi+ rows of the Born table.
        m_phi, m_psi = table[0, 0] - table[0, 1], table[2, 2] - table[2, 3]
        assert float(_sector_mi(scheme.priors, m_phi, m_psi)) == pytest.approx(
            born, abs=1e-14)


class TestSectorTables:
    """The sweep's tables, read from one coherence per sector, are the checked
    Born tables of the density-matrix route to the last bit (sign of 0 too)."""

    @staticmethod
    def assert_same_bits(spec, t_a, t_b, scheme, order):
        born = _checked_probabilities(_born_tables(spec, t_a, t_b, scheme, order))
        sector = _sector_tables(spec, t_a, t_b, scheme, order)
        assert np.array_equal(sector, born) and sector.tobytes() == born.tobytes()

    @given(st.floats(-5.0, 5.0), st.floats(0.05, 4.0), st.floats(0.05, 4.0),
           st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-1.0, 1.0)),
           st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
           st.lists(st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 3.0)),
                    min_size=1, max_size=8),
           st.sampled_from([THREE, FOUR]), st.sampled_from(list(NoiseOrder)))
    @settings(max_examples=300, deadline=None)
    def test_equal_the_checked_born_tables(self, omega0, c_aa, c_bb, k, delta_n, times,
                                           scheme, order):
        spec = JointSpectrum(omega0, c_aa, c_bb, k, delta_n)
        t_a, t_b = np.array(times).T
        self.assert_same_bits(spec, t_a, t_b, scheme, order)

    @pytest.mark.parametrize("delta_n, t", [(1.0, 0.0), (1.0, 1e300), (1e150, 1e160)])
    @pytest.mark.parametrize("c_bb, k", [(1.0, -1.0), (2.0, -0.5), (1.0, 1.0)])
    @pytest.mark.parametrize("scheme", [THREE, FOUR], ids=["three", "four"])
    @pytest.mark.parametrize("order", list(NoiseOrder))
    def test_equal_the_checked_born_tables_at_the_ends(self, delta_n, t, c_bb, k, scheme,
                                                       order):
        # t = 0 keeps every coherence; 1e300, and dn t = 1e310 past the float
        # range, read the overflow limit (exactly 1 for k = -1 at equal variances).
        spec = JointSpectrum(omega0=-1.5, c_bb=c_bb, k=k, delta_n=delta_n)
        times = np.array([t, 0.0, 0.5 * t])
        for t_a, t_b in ((times, times), (times, times[::-1]), (t, 0.0)):
            self.assert_same_bits(spec, t_a, t_b, scheme, order)


class TestMiCurve:
    @given(st.floats(0.1, 3.0), st.floats(0.1, 3.0), st.floats(-1.0, 1.0),
           st.floats(-2.0, 2.0), st.floats(-3.0, 5.0), st.floats(0.0, 2.0),
           st.sampled_from(list(SchemeVariant)), st.sampled_from(list(NoiseOrder)))
    @settings(max_examples=200, deadline=None)
    def test_equals_born_rule_mi(self, c_aa, c_bb, k, delta_n, omega0, t, variant, order):
        spec = JointSpectrum(omega0=omega0, c_aa=c_aa, c_bb=c_bb, k=k, delta_n=delta_n)
        scheme = EncodingScheme(variant)
        born = mutual_information(
            scheme, simulate_protocol(spec, DephasingTimes(t, t), scheme, order))
        kappa = abs(decoherence_function(spec, t))
        curve = float(_mi_curve(kappa, k, scheme, c_bb / c_aa, order))
        assert curve == pytest.approx(born, abs=1e-12)

    @pytest.mark.parametrize("variant", list(SchemeVariant))
    def test_equal_variances_before_encoding_are_the_closed_forms(self, variant):
        kappas, ks = np.meshgrid(KAPPA_GRID, np.linspace(-1.0, 1.0, 21))
        scheme = EncodingScheme(variant)
        curve = _mi_curve(kappas, ks, scheme)
        # At r = 1 the exponent 1 + r + 2 sqrt(r) k is bitwise 2 + 2k.
        x = np.exp((2.0 + 2.0 * ks) * np.log(kappas))
        np.testing.assert_array_equal(curve, _sector_mi(scheme.priors, x, x))
        closed = [[closed_form_mi(variant, x, k) for x in row] for row, k in zip(kappas, ks[:, 0])]
        np.testing.assert_array_equal(curve, closed)

    @given(st.floats(0.0, 1.0, exclude_min=True), st.floats(-1.0, 1.0), st.floats(0.0, 2.0),
           st.sampled_from(list(SchemeVariant)))
    @example(5e-324, -0.5, 0.0, SchemeVariant.THREE_STATE)
    @example(5e-324, 1.0, 0.1, SchemeVariant.FOUR_STATE)
    @example(1.0, 0.3, 0.0, SchemeVariant.FOUR_STATE)
    @example(1.0, -1.0, 0.2, SchemeVariant.THREE_STATE)
    @settings(max_examples=500, deadline=None)
    def test_closed_forms_are_the_curve_at_equal_variances_bit_for_bit(self, kappa, k, s,
                                                                       variant):
        curve = float(_mi_curve(kappa, k, EncodingScheme(variant)))
        assert closed_form_mi(variant, kappa, k, s) == max(0.0, curve - s)

    @given(st.integers(0, 2**32 - 1), st.sampled_from(list(SchemeVariant)),
           st.sampled_from(list(NoiseOrder)))
    @settings(max_examples=40, deadline=None)
    def test_finite_at_both_ends_of_k(self, seed, variant, order):
        # fl(1 + r) >= 2 fl(sqrt(r)), so no exponent goes negative at k = -1 or 1.
        rng = np.random.default_rng(seed)
        kappas = np.concatenate([rng.uniform(0.0, 1.0, 50), [1e-300, 0.5, 1.0]])
        kappas[kappas == 0.0] = 1.0
        for ratio in np.exp(rng.uniform(-20.0, 20.0, 50)).tolist() + [1.0, 0.3, 2.5]:
            curve = _mi_curve(kappas, np.array([[-1.0], [1.0]]), EncodingScheme(variant), ratio,
                              order)
            assert np.all(np.isfinite(curve)), ratio

    @pytest.mark.parametrize("ratio", [1e300, 2.5e305, 1.7e308])
    @pytest.mark.parametrize("order", list(NoiseOrder))
    def test_a_huge_variance_ratio_reads_its_limit_without_warning(self, ratio, order):
        # At kappa = 5e-324, r ln(kappa) overflows a float once r passes ~2.4e305.
        kappas = np.array([5e-324, 1e-300, 0.5, 1.0 - 2**-53, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sectors = _sector_visibilities(kappas, np.array([[-1.0], [0.0], [1.0]]), ratio, order)
        for m in sectors:
            np.testing.assert_array_equal(m, np.broadcast_to([0.0, 0.0, 0.0, 0.0, 1.0], (3, 5)))

    @given(st.integers(0, 2**32 - 1), st.sampled_from(list(SchemeVariant)),
           st.sampled_from([1.0, 0.3, 2.5]), st.sampled_from(list(NoiseOrder)),
           st.integers(0, 15))
    @settings(max_examples=40, deadline=None)
    def test_a_k_row_does_not_depend_on_the_rows_beside_it(self, seed, variant, ratio, order,
                                                            where):
        # numpy's pow takes another kernel for one or two k rows than for
        # more; the fit evaluates a k alone or inside a window of 16.
        rng = np.random.default_rng(seed)
        kappas = rng.uniform(1e-3, 1.0, 333)
        ks = rng.integers(-100, 101, 16) / 100
        ks[rng.integers(16)] = 0.0  # at r = 1 the exponent is 2, which ** squares
        scheme = EncodingScheme(variant)
        window = _mi_curve(kappas, ks[:, None], scheme, ratio, order)
        for rows in (1, 2):
            alone = _mi_curve(kappas, ks[where:where + rows, None], scheme, ratio, order)
            np.testing.assert_array_equal(alone, window[where:where + rows])

    @given(st.integers(0, 2**32 - 1), st.floats(-1.0, 1.0), st.floats(0.05, 5.0),
           st.sampled_from(list(SchemeVariant)), st.sampled_from(list(NoiseOrder)),
           st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_non_decreasing_in_kappa_at_every_k(self, seed, k, ratio, variant, order,
                                                uniform):
        # The fit sorts its points by kappa once for every k row.  A sector
        # visibility kappa^e has e = 1 + r +- 2 sqrt(r) k >= (1 - sqrt r)^2 >= 0,
        # so it cannot fall as kappa rises.  Inside a sector the channel is
        # binary symmetric, and one of visibility m1 <= m2 is the m2 channel
        # followed by one of visibility m1/m2: by data processing the MI
        # cannot rise as a visibility falls.
        rng = np.random.default_rng(seed)
        n = len(EncodingScheme(variant).alphabet)
        scheme = EncodingScheme(variant, () if uniform else tuple(rng.dirichlet(np.ones(n))))
        kappas = np.sort(np.concatenate([rng.uniform(0.0, 1.0, 200), [1e-9, 1.0]]))
        kappas = kappas[kappas > 0.0]
        curve = _mi_curve(kappas, k, scheme, ratio, order)
        assert np.diff(curve).min() >= -1e-15

    @pytest.mark.parametrize("spec, order", [
        pytest.param(JointSpectrum(c_bb=2.0, k=-0.5), NoiseOrder.NOISE_BEFORE_ENCODING,
                     id="c_bb=2"),
        pytest.param(JointSpectrum(k=-0.5), NoiseOrder.NOISE_AFTER_ENCODING,
                     id="after_encoding"),
    ])
    def test_equal_variance_form_misses_other_regimes(self, spec, order):
        born = mutual_information(FOUR, simulate_protocol(spec, DephasingTimes(1.0, 1.0),
                                                          FOUR, order))
        kappa = abs(decoherence_function(spec, 1.0))
        assert abs(born - closed_form_mi4(kappa, -0.5)) > 0.1
        curve = _mi_curve(kappa, -0.5, FOUR, spec.c_bb / spec.c_aa, order)
        assert float(curve) == pytest.approx(born, abs=1e-12)
