"""Tests for counting statistics, fitting, tomography and sweeps."""

import csv
import functools
import io
import itertools
import math
import re
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from densecoding import (
    BELL_OUTPUT_ORDER,
    BellLabel,
    ConditionalTable,
    CountTable,
    DephasingTimes,
    EncodingScheme,
    JointSpectrum,
    NoiseOrder,
    SchemeVariant,
    bell_state,
    closed_form_mi3,
    closed_form_mi4,
    concurrence,
    conditional_probabilities,
    decoherence_function,
    effective_visibility,
    estimate_mi_with_errors,
    evolve_pre_encoding,
    expected_tomography_counts,
    fidelity,
    fit_k_s,
    fit_result_to_csv,
    mutual_information,
    reconstruct_linear_inversion,
    run_sweep,
    sample_counts,
    simulate_protocol,
    sweep_rows_to_csv,
    tomography_counts,
    validate_density_matrix,
)
from densecoding import environment, experiment, protocol
from densecoding.cli import main
from densecoding.config import build_config
from densecoding.experiment import (
    _bootstrap_stats,
    _draw_counts,
    _best_offsets,
    _screened_offsets,
)
from densecoding.protocol import _mi_curve
from densecoding.states import _DESIGN, _KETS, TOMOGRAPHY_SETTINGS

THREE = EncodingScheme.three_state()
FOUR = EncodingScheme.four_state()
DEMO_CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"


def random_density_matrix(rng):
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return rho / rho.trace()


class TestSampleCounts:
    def test_identity_table_is_deterministic(self):
        table = conditional_probabilities(FOUR, 1.0)
        for seed in (0, 1, 12345):
            counts = sample_counts(table, 500, seed)
            np.testing.assert_array_equal(counts.counts, 500 * np.eye(4, dtype=int))

    def test_same_seed_same_counts(self):
        table = conditional_probabilities(THREE, 0.4)
        a = sample_counts(table, 10_000, 99)
        b = sample_counts(table, 10_000, 99)
        np.testing.assert_array_equal(a.counts, b.counts)

    def test_different_seeds_differ(self):
        table = conditional_probabilities(THREE, 0.4)
        a = sample_counts(table, 10_000, 1)
        b = sample_counts(table, 10_000, 2)
        assert np.any(a.counts != b.counts)

    def test_rows_sum_to_shot_budget(self):
        table = conditional_probabilities(FOUR, 0.3)
        counts = sample_counts(table, 777, 5)
        np.testing.assert_array_equal(counts.counts.sum(axis=1), 777)

    def test_large_sample_matches_probabilities(self):
        n = 1_000_000
        table = conditional_probabilities(THREE, 0.5)
        counts = sample_counts(table, n, 42)
        p_hat = counts.counts[0, 0] / n
        bound = 3.0 * math.sqrt(0.1875 / n)  # 3 binomial standard errors at p=0.75
        assert abs(p_hat - 0.75) < bound

    def test_rejects_non_positive_n_per_input(self):
        with pytest.raises(ValueError, match="n_per_input must be positive, got 0"):
            sample_counts(conditional_probabilities(THREE, 0.4), 0, 1)

    def test_rejects_n_per_input_beyond_int64(self):
        # numpy draws at most 2**63 - 1 shots; one more would overflow its C long.
        table = conditional_probabilities(THREE, 0.4)
        assert sample_counts(table, 2**63 - 1, 0).counts.sum(axis=1).tolist() == [2**63 - 1] * 3
        with pytest.raises(ValueError, match=r"must be < 2\*\*63, got 9223372036854775808$"):
            sample_counts(table, 2**63, 0)

    @pytest.mark.parametrize("counts, message", [
        (np.full((2, 4), 5), r"count matrix shape \(2, 4\) mismatches labels"),
        (np.array([[5, 5, 0, 0], [4, 5, 0, 0], [0, 0, 5, 5]]), "sum to n_per_input"),
    ], ids=["shape", "row_sum"])
    def test_count_table_rejects_bad_counts(self, counts, message):
        with pytest.raises(ValueError, match=message):
            CountTable(THREE.alphabet, BELL_OUTPUT_ORDER, counts, 10)

    def test_bootstrap_trial_zero_is_sample_counts(self):
        table = conditional_probabilities(THREE, 0.4)
        draws = _draw_counts(table.p_y_given_x, 1000, 30, np.random.default_rng(8))
        np.testing.assert_array_equal(draws[0], sample_counts(table, 1000, 8).counts)
        # reference: the plug-in MI of each trial's table, one table at a time
        values = np.array([
            mutual_information(THREE, ConditionalTable(table.inputs, table.outputs, c / 1000))
            for c in draws])
        assert estimate_mi_with_errors(table, THREE, 1000, 30, 8) == (
            values.mean(), values.std(ddof=1))

    def test_stack_draws_its_tables_in_turn_from_one_generator(self):
        # rows off 1 by rounding and a tiny negative entry, as Born tables come
        tables = np.stack([conditional_probabilities(FOUR, m).p_y_given_x
                           for m in (0.0, 0.3, 0.9)])
        tables[1, 2] *= 1.0 + 1e-12
        tables[2, 0, 3] = -1e-15
        draws = _draw_counts(tables, 1000, 5, np.random.default_rng(4))
        assert draws.shape == (3, 5, 4, 4)
        rng = np.random.default_rng(4)
        for p, d in zip(tables, draws):
            np.testing.assert_array_equal(d, _draw_counts(p, 1000, 5, rng))
        # a stack of one draws what the table alone draws
        np.testing.assert_array_equal(
            _draw_counts(tables[1:2], 1000, 5, np.random.default_rng(4))[0],
            _draw_counts(tables[1], 1000, 5, np.random.default_rng(4)))


class TestEstimateMi:
    def test_identity_table_has_zero_spread(self):
        for scheme, expected in ((THREE, math.log2(3.0)), (FOUR, 2.0)):
            table = conditional_probabilities(scheme, 1.0)
            mean, std = estimate_mi_with_errors(table, scheme, 1000, 10, 0)
            assert mean == pytest.approx(expected, abs=1e-12)
            assert std == 0.0

    def test_determinism(self):
        table = conditional_probabilities(THREE, 0.5)
        a = estimate_mi_with_errors(table, THREE, 2000, 50, 7)
        b = estimate_mi_with_errors(table, THREE, 2000, 50, 7)
        assert a == b

    def test_inverse_sqrt_scaling(self):
        table = conditional_probabilities(THREE, 0.5)
        _, std_small = estimate_mi_with_errors(table, THREE, 10_000, 500, 11)
        _, std_large = estimate_mi_with_errors(table, THREE, 40_000, 500, 13)
        ratio = std_large / std_small
        assert 0.4 <= ratio <= 0.6

    def test_plugin_bias_small_at_large_counts(self):
        table = conditional_probabilities(THREE, 0.5)
        exact = mutual_information(THREE, table)
        mean, _ = estimate_mi_with_errors(table, THREE, 100_000, 60, 3)
        assert abs(mean - exact) < 0.01

    def test_rejects_too_few_trials(self):
        table = conditional_probabilities(THREE, 0.5)
        with pytest.raises(ValueError):
            estimate_mi_with_errors(table, THREE, 100, 1, 0)

    def test_rejects_table_of_another_alphabet(self):
        table = conditional_probabilities(FOUR, 0.5)
        with pytest.raises(ValueError, match="table inputs do not match the scheme alphabet"):
            estimate_mi_with_errors(table, THREE, 100, 10, 0)

    def test_equal_trials_give_their_value_and_zero_std(self):
        # The default configuration (k = -1, THREE_STATE) is noiseless: every
        # trial draws the same count table.  A plain mean of the 1000 equal
        # values gives 1.5849625007211556 and a std of 4.4e-16.
        cfg = build_config([])
        assert (cfg.spectrum.k, cfg.scheme) == (-1.0, THREE)
        table = conditional_probabilities(THREE, effective_visibility(0.5, -1.0))
        mean, std = estimate_mi_with_errors(table, THREE, cfg.n_per_input, cfg.trials, cfg.seed)
        assert mean == mutual_information(THREE, table) == 1.5849625007211561
        assert std == 0.0


class TestFit:
    def test_three_state_noiseless_recovery(self):
        kappas = np.linspace(0.1, 0.95, 10)
        pts = [(k, closed_form_mi3(k, -1.0, 0.0749)) for k in kappas]
        fit = fit_k_s(pts, THREE)
        assert abs(fit.k_hat - (-1.0)) <= 1e-3
        assert abs(fit.s_hat - 0.0749) <= 1e-4
        assert fit.residual_sum_squares < 1e-20
        assert fit.n_points == 10

    def test_four_state_noiseless_recovery(self):
        # the generator k = -0.99995 sits half a step off the final k lattice,
        # so the recovered k is the nearest lattice point and s absorbs the
        # sub-resolution curve offset
        kappas = np.linspace(0.1, 0.95, 10)
        pts = [(k, closed_form_mi4(k, -0.99995, 0.0975)) for k in kappas]
        fit = fit_k_s(pts, FOUR)
        assert abs(fit.k_hat - (-0.99995)) <= 1e-4
        assert abs(fit.s_hat - 0.0975) <= 1e-3

    @pytest.mark.parametrize("variant,k_true,expected", [
        (SchemeVariant.THREE_STATE, 1.0, (1.0, 0.050000000000000044, 0.0)),
        (SchemeVariant.FOUR_STATE, -1.0, (-1.0, 0.050000000000000044, 0.0)),
        (SchemeVariant.FOUR_STATE, 0.99995, (1.0, 0.049997769365350234, 7.711043163055089e-11)),
    ])
    def test_windows_clipped_at_the_ends_of_k(self, variant, k_true, expected):
        # A k_hat of -1 or 1 clips the 21-point window of both refinement
        # levels to its 11 lattice points inside [-1, 1].  Pinned values.
        kappas = np.linspace(0.1, 0.95, 10)
        scheme = EncodingScheme(variant)
        mis = _mi_curve(kappas, k_true, scheme) - 0.05
        assert fit_k_s(zip(kappas, mis), scheme) == experiment.FitResult(*expected, 10)

    def test_constant_ideal_curve(self):
        pts = [(k, math.log2(3.0)) for k in (0.2, 0.4, 0.6, 0.8)]
        fit = fit_k_s(pts, THREE)
        assert fit.k_hat == pytest.approx(-1.0, abs=1e-12)
        assert fit.s_hat == pytest.approx(0.0, abs=1e-12)

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            fit_k_s([(0.5, 1.0)], THREE)
        with pytest.raises(ValueError):
            fit_k_s([(0.0, 1.0), (0.5, 1.2)], THREE)
        with pytest.raises(ValueError):
            fit_k_s([(0.5, 1.0), (1.5, 1.2)], THREE)
        with pytest.raises(ValueError, match=r"\(kappa_abs, mi\) pairs, got shape \(2, 3\)"):
            fit_k_s([(0.5, 1.0, 0.1), (0.4, 0.9, 0.1)], THREE)

    @pytest.mark.parametrize("ratio", [0.0, -1.0, math.nan])
    def test_rejects_non_positive_variance_ratio(self, ratio):
        with pytest.raises(ValueError, match="variance_ratio must be positive"):
            fit_k_s([(0.5, 1.0), (0.4, 0.9)], FOUR, variance_ratio=ratio)

    @pytest.mark.parametrize("bad", [(0.5, math.nan), (0.5, math.inf), (math.nan, 1.0)])
    def test_rejects_non_finite_points(self, bad):
        with pytest.raises(ValueError, match="finite"):
            fit_k_s([bad, (0.4, 0.3)], FOUR)

    @pytest.mark.parametrize("points", [
        [(0.5, 1e200), (0.3, 0.2), (0.1, 0.1)],
        [(0.5, -1e155), (0.4, 0.3)],
        [(0.5, 1e154), (0.4, 1e154)],  # each square is finite, their sum is not
    ])
    def test_rejects_points_whose_squares_overflow(self, points):
        # sum (2 + |mi|)^2 bounds every RSS of the search (_screened_offsets).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"mi values too large: .*\(2 \+ \|mi\|\)\^2"):
                fit_k_s(points, FOUR)

    def test_fits_the_largest_points_it_accepts_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_k_s([(0.5, 1.3e154), (0.3, 0.2), (0.1, 0.1)], FOUR)
        assert math.isfinite(fit.residual_sum_squares)

    @pytest.mark.parametrize("scheme", [EncodingScheme.three_state((0.5, 0.3, 0.2)),
                                        EncodingScheme.four_state((0.4, 0.3, 0.2, 0.1))],
                             ids=["three_state", "four_state"])
    @pytest.mark.parametrize("order", list(NoiseOrder))
    def test_recovers_k_and_s_from_born_points_with_priors(self, scheme, order):
        spec = JointSpectrum(c_aa=0.7, c_bb=1.8, k=-0.6)
        points = []
        for t in np.linspace(0.1, 2.0, 40):
            table = simulate_protocol(spec, DephasingTimes(t, t), scheme, order)
            points.append((abs(decoherence_function(spec, t)),
                           mutual_information(scheme, table, 0.05)))
        fit = fit_k_s(points, scheme, spec.c_bb / spec.c_aa, order)
        assert fit.residual_sum_squares <= 1e-12
        assert fit.k_hat == pytest.approx(-0.6, abs=1e-3)
        assert fit.s_hat == pytest.approx(0.05, abs=1e-3)

    @pytest.mark.parametrize("scheme", [EncodingScheme.three_state((0.5, 0.0, 0.5)),
                                        EncodingScheme.three_state((0.0, 0.5, 0.5)),
                                        EncodingScheme.four_state((1.0, 0.0, 0.0, 0.0)),
                                        EncodingScheme.four_state((0.5, 0.0, 0.5, 0.0))],
                             ids=["three_no_phi_minus", "three_no_phi_plus", "four_one_state",
                                  "four_one_per_sector"])
    def test_rejects_priors_that_leave_k_out_of_the_model(self, scheme):
        pts = [(k, 0.9) for k in np.linspace(0.2, 0.9, 10)]
        with pytest.raises(ValueError, match="the model does not depend on k"):
            fit_k_s(pts, scheme)

    def test_one_sector_with_two_states_is_enough(self):
        # Only the Psi sector holds two states, and it carries k.
        scheme = EncodingScheme.four_state((0.5, 0.0, 0.25, 0.25))
        spec = JointSpectrum(k=-0.6)
        points = []
        for t in np.linspace(0.1, 2.0, 20):
            table = simulate_protocol(spec, DephasingTimes(t, t), scheme)
            points.append((abs(decoherence_function(spec, t)),
                           mutual_information(scheme, table)))
        fit = fit_k_s(points, scheme)
        assert fit.k_hat == pytest.approx(-0.6, abs=1e-3)
        assert fit.residual_sum_squares <= 1e-12

    def test_csv_format(self):
        pts = [(k, math.log2(3.0)) for k in (0.2, 0.8)]
        text = fit_result_to_csv(fit_k_s(pts, THREE))
        lines = text.splitlines()
        assert lines[0] == "k_hat,s_hat,rss,n_points"
        assert lines[1].split(",")[3] == "2"


class TestTomographyCounts:
    def test_bell_state_expectations(self):
        probs = expected_tomography_counts(bell_state(BellLabel.PHI_PLUS), 1.0)
        idx_hh = TOMOGRAPHY_SETTINGS.index(("H", "H"))
        idx_hv = TOMOGRAPHY_SETTINGS.index(("H", "V"))
        assert probs[idx_hh] == pytest.approx(0.5, abs=1e-12)
        assert probs[idx_hv] == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_expectations(self):
        probs = expected_tomography_counts(np.eye(4) / 4, 1.0)
        np.testing.assert_allclose(probs, 0.25, atol=1e-12)

    def test_diagonal_setting_sees_coherence(self):
        # shared state with real coherence 0.5: <DD| rho |DD> = (1 + 0.5)/4
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = rho[3, 3] = 0.5
        rho[0, 3] = rho[3, 0] = 0.25
        probs = expected_tomography_counts(rho, 1.0)
        idx_dd = TOMOGRAPHY_SETTINGS.index(("D", "D"))
        assert probs[idx_dd] == pytest.approx(0.375, abs=1e-12)

    @pytest.mark.parametrize("n", [0.0, -1.0, math.nan, math.inf, 10**400, -10**400])
    def test_rejects_non_positive_or_non_finite_n_per_projector(self, n):
        # An int beyond the float range counts as not finite.
        with pytest.raises(ValueError, match="n_per_projector must be finite and positive"):
            expected_tomography_counts(bell_state(BellLabel.PHI_PLUS), n)

    @pytest.mark.parametrize("n", [2.5, 0.5, math.nan, math.inf, 0, -3, -2.0])
    def test_sampled_counts_need_a_positive_integer_n_per_projector(self, n):
        with pytest.raises(ValueError, match="n_per_projector must be a positive integer"):
            tomography_counts(bell_state(BellLabel.PHI_PLUS), n, 0)

    @pytest.mark.parametrize("n", [2**63, float(2**63), 1e300])
    def test_sampled_counts_need_n_per_projector_below_2_to_the_63(self, n):
        # numpy draws binomial counts as int64.
        with pytest.raises(ValueError, match="n_per_projector must be a positive integer"):
            tomography_counts(bell_state(BellLabel.PHI_PLUS), n, 0)

    def test_sampled_counts_draw_at_2_to_the_62(self):
        counts = tomography_counts(bell_state(BellLabel.PHI_PLUS), 2**62, 0)
        assert counts.shape == (16,) and np.all((counts >= 0) & (counts <= 2**62))

    def test_integral_n_per_projector_of_any_type_draws_alike(self):
        rho = bell_state(BellLabel.PHI_PLUS)
        expected = tomography_counts(rho, 7, 0)
        for n in (7.0, np.int64(7), np.float64(7.0)):
            np.testing.assert_array_equal(tomography_counts(rho, n, 0), expected)

    def test_sampling_determinism(self):
        rho = bell_state(BellLabel.PSI_PLUS)
        a = tomography_counts(rho, 10_000, 3)
        b = tomography_counts(rho, 10_000, 3)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (16,)
        assert np.all(a >= 0) and np.all(a <= 10_000)


_SETTING_KETS = {"H": np.array([1.0, 0.0]), "V": np.array([0.0, 1.0]),
                 "D": np.array([1.0, 1.0]) / math.sqrt(2.0),
                 "L": np.array([1.0, 1.0j]) / math.sqrt(2.0)}


def _random_states(seed, count):
    """Density matrices of random rank from 1 to 4, as a (count, 4, 4) stack."""
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(count):
        rank = rng.integers(1, 5)
        g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
        rho = g @ g.conj().T
        states.append(rho / np.trace(rho).real)
    return np.array(states)


class TestTomographyProbabilities:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 40))
    @settings(max_examples=50, deadline=None)
    def test_equals_projector_expectations(self, seed, count):
        states = _random_states(seed, count)
        kets = [np.kron(_SETTING_KETS[a], _SETTING_KETS[b]) for a, b in TOMOGRAPHY_SETTINGS]
        explicit = np.array([[np.vdot(ket, rho @ ket).real for ket in kets] for rho in states])
        probs = np.array([expected_tomography_counts(rho, 1.0) for rho in states])
        np.testing.assert_allclose(probs, np.clip(explicit, 0.0, 1.0), rtol=0.0, atol=1e-15)

    def test_design_matrix_has_the_bits_of_the_kron_products(self):
        kets = [np.kron(_KETS[a], _KETS[b]) for a, b in TOMOGRAPHY_SETTINGS]
        kron = np.array([np.kron(ket.conj(), ket) for ket in kets])
        assert _DESIGN.tobytes() == kron.tobytes()


class TestPreEncodingStates:
    """The sender-stage state and its exact-count reconstruction are valid states."""

    @given(st.floats(0.2, 2.5), st.floats(0.2, 2.5), st.floats(-1.0, 1.0),
           st.floats(-2.0, 2.0), st.floats(-3.0, 5.0),
           st.lists(st.floats(0.0, 2.5), min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_pre_encoding_and_reconstructed_states_are_valid(self, c_aa, c_bb, k, delta_n,
                                                             omega0, grid):
        spec = JointSpectrum(omega0=omega0, c_aa=c_aa, c_bb=c_bb, k=k, delta_n=delta_n)
        for t in grid:
            rho = validate_density_matrix(evolve_pre_encoding(spec, t), dim=4)
            # reconstruct_linear_inversion validates the state it returns.
            reconstruct_linear_inversion(expected_tomography_counts(rho, 1.0), 1.0)


class TestSweepFactorisations:
    """The sweep's concurrence column is |kappa|, written without a tomography
    round trip: no state of the sweep is factored."""

    @pytest.mark.parametrize("rows", [1, 128, 300])
    def test_no_eigh_and_no_svd(self, rows, monkeypatch):
        calls = {"eigh": 0, "svd": 0}
        for name in calls:
            def counted(*args, _name=name, _real=getattr(np.linalg, name), **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        values = experiment._sweep_values(JointSpectrum(k=-0.5, c_bb=2.0),
                                          np.linspace(0.0, 2.0, rows), FOUR, 100, 2, 0, 0.0,
                                          NoiseOrder.NOISE_AFTER_ENCODING)
        assert values.shape == (rows, 6)
        assert calls == {"eigh": 0, "svd": 0}


class TestReconstruction:
    def test_identity_on_exact_counts(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            rho = random_density_matrix(rng)
            counts = expected_tomography_counts(rho, 1e6)
            back = reconstruct_linear_inversion(counts, 1e6)
            assert np.max(np.abs(back - rho)) < 1e-10

    def test_concurrence_pipeline_matches_coherence(self):
        spec = JointSpectrum()
        for t in np.linspace(0.0, 2.2, 12):
            rho = evolve_pre_encoding(spec, t)
            kappa = abs(2.0 * rho[0, 3])
            counts = expected_tomography_counts(rho, 1e5)
            back = reconstruct_linear_inversion(counts, 1e5)
            assert concurrence(back) == pytest.approx(kappa, abs=1e-10)

    def test_finite_count_fidelity_regression(self):
        # calibration bound frozen once from these 100 seeds: every Bell-state
        # reconstruction at n = 1e4 reached fidelity 0.9549, so 0.95 in at
        # least 95 of 100 trials is the regression floor
        target = bell_state(BellLabel.PHI_PLUS)
        good = 0
        for seed in range(100):
            counts = tomography_counts(target, 10_000, seed)
            back = reconstruct_linear_inversion(counts, 10_000)
            if fidelity(back, target) >= 0.95:
                good += 1
        assert good >= 95

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -5.0])
    def test_rejects_non_finite_or_negative_counts(self, bad):
        counts = expected_tomography_counts(bell_state(BellLabel.PHI_PLUS), 1e4)
        counts[3] = bad
        with pytest.raises(ValueError, match="finite and non-negative"):
            reconstruct_linear_inversion(counts, 1e4)

    @pytest.mark.parametrize("n", [0, -3, 0.0, math.nan, math.inf, 10**400])
    def test_rejects_non_positive_or_non_finite_n_per_projector(self, n):
        with pytest.raises(ValueError, match="n_per_projector must be finite and positive"):
            reconstruct_linear_inversion(np.full(16, 100.0), n)

    @pytest.mark.parametrize("top, n", [(101.0, 100), (1e308, 1.0), (1.7e308, 1e308)])
    def test_rejects_a_count_above_n_per_projector(self, top, n):
        # Each frequency is then at most 1, so the inversion cannot overflow.
        counts = np.full(16, 1.0)
        counts[5] = top
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(
                    f"counts must not exceed n_per_projector = {float(n)}, got {top}")):
                reconstruct_linear_inversion(counts, n)

    def test_accepts_counts_equal_to_n_per_projector(self):
        # In the state |HH>, the HH projector fires on every shot.
        hh = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        counts = expected_tomography_counts(hh, 1e308)
        assert counts.max() == 1e308
        assert np.max(np.abs(reconstruct_linear_inversion(counts, 1e308) - hh)) < 1e-10

    @pytest.mark.parametrize("counts, message", [
        (np.zeros(16), "reconstruction gives a zero state; counts unusable"),
        (np.full(15, 100.0), r"expected 16 counts, got shape \(15,\)"),
    ], ids=["zeros", "15_counts"])
    def test_rejects_unusable_counts(self, counts, message):
        with pytest.raises(ValueError, match=message):
            reconstruct_linear_inversion(counts, 100)


class TestRunSweep:
    def test_flat_theory_curve_at_perfect_anticorrelation(self):
        spec = JointSpectrum(k=-1.0)
        rows = run_sweep(spec, np.linspace(0.0, 2.0, 6), THREE, 1000, 10, 0, s=0.0749)
        for row in rows:
            assert row.mi_theory == pytest.approx(1.5100625007211562, abs=1e-12)

    def test_zero_noise_row(self):
        rows = run_sweep(JointSpectrum(), [0.0], THREE, 1000, 10, 0)
        assert rows[0].kappa_abs == pytest.approx(1.0, abs=1e-12)
        assert rows[0].concurrence == pytest.approx(1.0, abs=1e-10)

    def test_markovian_four_state_theory_decreases(self):
        spec = JointSpectrum(k=0.0)
        rows = run_sweep(spec, np.linspace(0.0, 2.0, 8), FOUR, 1000, 10, 0)
        theory = [r.mi_theory for r in rows]
        assert all(b < a for a, b in zip(theory, theory[1:]))

    def test_concurrence_column_equals_kappa_column(self):
        spec = JointSpectrum(k=-0.5)
        rows = run_sweep(spec, np.linspace(0.0, 1.8, 7), FOUR, 1000, 10, 0)
        for row in rows:
            assert row.concurrence == row.kappa_abs

    def test_mc_mean_tracks_exact_mi(self):
        spec = JointSpectrum(k=-0.5)
        grid = np.linspace(0.0, 1.8, 5)
        rows = run_sweep(spec, grid, THREE, 10_000, 500, 17)
        violations = 0
        for row, t in zip(rows, grid):
            table = simulate_protocol(spec, DephasingTimes(t, t), THREE)
            exact = mutual_information(THREE, table)
            if abs(row.mi_mc_mean - exact) > 3.0 * max(row.mi_mc_std, 1e-12):
                violations += 1
        assert violations <= 1  # flaky tolerance: one violation per 40 rows allowed

    @pytest.mark.parametrize("c_bb, order, expected", [
        (2.0, NoiseOrder.NOISE_BEFORE_ENCODING, 1.1532),
        (1.0, NoiseOrder.NOISE_AFTER_ENCODING, 1.1604),
    ])
    def test_theory_is_born_rule_outside_closed_form_regime(self, c_bb, order, expected):
        # the equal-variance, noise-before-encoding closed form gives 1.2847
        # here; the theory column must follow the simulated channel instead
        spec = JointSpectrum(c_bb=c_bb, k=-0.5)
        row = run_sweep(spec, [1.0], FOUR, 1000, 2, 0, noise_order=order)[0]
        assert row.mi_theory == pytest.approx(expected, abs=1e-4)

    def test_csv_determinism_and_header(self):
        spec = JointSpectrum(k=-0.5)
        rows_a = run_sweep(spec, [0.0, 0.5, 1.0], THREE, 2000, 20, 123, s=0.01)
        rows_b = run_sweep(spec, [0.0, 0.5, 1.0], THREE, 2000, 20, 123, s=0.01)
        csv_a, csv_b = sweep_rows_to_csv(rows_a), sweep_rows_to_csv(rows_b)
        assert csv_a == csv_b
        assert csv_a.splitlines()[0] == (
            "t_a,kappa_abs,concurrence,mi_theory,mi_mc_mean,mi_mc_std,scheme")
        assert csv_a.splitlines()[1].endswith("THREE_STATE")

    def test_csv_text_is_csv_writer_of_17_digit_floats(self):
        # The text the release before the array-written CSV produced.  A
        # concurrence that is not kappa_abs's nonzero value gets its own text.
        values = [(0.1, 1.0, 1 - 2.0**-53, 1e-300, -0.0, 0.0),
                  (2, math.inf, math.nan, 5e-324, 1.5849625007211561, 0.016)]
        values += [(0.5, kappa, conc, 0.25, 0.5, 0.0) for kappa, conc in (
            (0.0, -0.0), (-0.0, 0.0), (0.0, 0.0), (-0.0, -0.0), (math.nan, math.nan),
            (0.25, math.nan), (math.nan, 0.25), (0.25, 0.25), (0.25, 0.25 + 2.0**-54),
            (1e-300, 5e-324))]
        rows = [experiment.SweepRow(*v, scheme) for v, scheme in
                zip(values, itertools.cycle(SchemeVariant))]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["t_a", "kappa_abs", "concurrence", "mi_theory",
                         "mi_mc_mean", "mi_mc_std", "scheme"])
        for r in rows:
            writer.writerow([f"{x:.17g}" for x in (r.t_a, r.kappa_abs, r.concurrence,
                                                   r.mi_theory, r.mi_mc_mean, r.mi_mc_std)]
                            + [r.scheme.value])
        assert sweep_rows_to_csv(rows) == buf.getvalue()

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            run_sweep(JointSpectrum(), [], THREE, 100, 10, 0)

    @pytest.mark.parametrize("grid, n, trials, s", [
        ([0.5, -0.1], 100, 10, 0.0),
        ([0.5, math.nan], 100, 10, 0.0),
        ([0.5], 0, 10, 0.0),
        ([0.5], 100, 1, 0.0),
        ([0.5], 100, 10, -0.01),
        ([0.5], 100, 10, math.nan),
    ])
    def test_bad_arguments_rejected(self, grid, n, trials, s):
        with pytest.raises(ValueError):
            run_sweep(JointSpectrum(), grid, THREE, n, trials, 0, s=s)


class TestBatchedSweep:
    """Every row of the stacked sweep against the scalar route at its t."""

    @given(st.floats(0.2, 2.5), st.floats(0.2, 2.5), st.floats(-1.0, 1.0),
           st.floats(-2.0, 2.0), st.floats(-3.0, 5.0),
           st.lists(st.floats(0.0, 2.5), min_size=1, max_size=5),
           st.sampled_from([THREE, FOUR]), st.sampled_from(list(NoiseOrder)),
           st.integers(0, 2**31 - 1), st.floats(0.0, 0.2))
    @settings(max_examples=40, deadline=None)
    def test_rows_equal_scalar_route(self, c_aa, c_bb, k, delta_n, omega0, grid,
                                     scheme, order, seed, s):
        spec = JointSpectrum(omega0=omega0, c_aa=c_aa, c_bb=c_bb, k=k, delta_n=delta_n)
        n, trials = 500, 7
        rows = run_sweep(spec, grid, scheme, n, trials, seed, s, order)
        assert len(rows) == len(grid)
        tables = [simulate_protocol(spec, DephasingTimes(t, t), scheme, order) for t in grid]
        # The bootstrap columns: one stacked draw over the whole grid from default_rng(seed).
        draws = _draw_counts(np.stack([table.p_y_given_x for table in tables]), n, trials,
                             np.random.default_rng(seed))
        means, stds = _bootstrap_stats(np.asarray(scheme.priors), draws, n)
        for row, t, table, mean, std in zip(rows, grid, tables, means, stds):
            counts = expected_tomography_counts(evolve_pre_encoding(spec, t), float(n))
            conc = concurrence(reconstruct_linear_inversion(counts, float(n)))
            assert row.t_a == t
            assert row.kappa_abs == pytest.approx(abs(decoherence_function(spec, t)), abs=1e-12)
            assert row.concurrence == row.kappa_abs
            assert row.concurrence == pytest.approx(conc, abs=1e-12)
            assert row.mi_theory == pytest.approx(mutual_information(scheme, table, s),
                                                  abs=1e-12)
            assert row.mi_mc_mean == max(0.0, mean - s)
            assert row.mi_mc_std == std

    @pytest.fixture
    def density_matrix_calls(self, monkeypatch):
        """A list that grows by one name per call of the density-matrix route."""
        names = []

        def spy(module, name):
            original = getattr(module, name)

            def counting(*args, **kwargs):
                names.append(name)
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, counting)

        spy(protocol, "_born_tables")
        spy(protocol, "_dephasing_masks")
        spy(environment, "_dephasing_masks")
        return names

    def test_sweep_takes_no_density_matrix(self, density_matrix_calls, tmp_path, capsys):
        spec = JointSpectrum(c_bb=2.0, k=-0.5)
        for order in NoiseOrder:
            run_sweep(spec, np.linspace(0.0, 2.0, 9), FOUR, 1000, 2, 5, noise_order=order)
        assert main(["sweep", "--t-list", "0, 0.5, 1e300", "--trials", "2",
                     "--noise-order", "NOISE_AFTER_ENCODING", "--c-bb", "2"]) == 0
        assert main(["sweep", "--config", str(DEMO_CONFIGS / "three_state.cfg"),
                     "--out", str(tmp_path / "sweep.csv")]) == 0
        assert capsys.readouterr().out.startswith("t_a,kappa_abs,")
        assert density_matrix_calls == []
        # The spies see the route the oracle takes: one mask per sender frame.
        simulate_protocol(spec, DephasingTimes(0.5, 0.5), FOUR)
        assert density_matrix_calls == ["_born_tables", "_dephasing_masks", "_dephasing_masks"]

    @pytest.mark.parametrize("order", list(NoiseOrder))
    def test_two_characteristic_function_calls_per_block(self, monkeypatch, order):
        # kappa, then both sector coherences from one call on stacked durations.
        calls = []
        for module in (experiment, protocol):
            def counting(*args, _original=module._characteristic_function, **kwargs):
                calls.append(args[1].shape)
                return _original(*args, **kwargs)
            monkeypatch.setattr(module, "_characteristic_function", counting)
        run_sweep(JointSpectrum(c_bb=2.0, k=-0.5), np.linspace(0.0, 2.0, 600), FOUR, 1000, 2,
                  5, noise_order=order)
        # two trials put 256 rows in a block
        assert calls == [(256,), (2, 256)] * 2 + [(88,), (2, 88)]

    @pytest.mark.parametrize("m", [1, 255, 256, 257, 280])
    def test_prefix_of_grid_gives_prefix_of_rows(self, m):
        # two trials put 256 rows in a block
        spec = JointSpectrum(c_bb=2.0, k=-0.5)
        grid = np.linspace(0.0, 2.0, 300)
        full = run_sweep(spec, grid, FOUR, 1000, 2, 5)
        assert run_sweep(spec, grid[:m], FOUR, 1000, 2, 5) == full[:m]

    def test_bytes_do_not_depend_on_block_size(self, monkeypatch):
        spec = JointSpectrum(k=-0.5)
        grid = np.linspace(0.0, 2.0, 41)
        outputs = set()
        for tables in (1, 14, 256, 512, 10**6):
            monkeypatch.setattr(experiment, "_TABLES_PER_BLOCK", tables)
            outputs.add(sweep_rows_to_csv(run_sweep(spec, grid, THREE, 1000, 3, 9)))
        assert len(outputs) == 1

    @pytest.mark.parametrize("order", list(NoiseOrder))
    def test_bytes_do_not_depend_on_block_size_in_benchmark_regimes(self, monkeypatch, order):
        # Blocks of 1, 2, 128 and 256 rows at two trials: a BLAS product would
        # switch between gemv and gemm here and move the last bit.
        spec = JointSpectrum(c_bb=2.0, k=-0.5)
        grid = np.linspace(0.0, 2.0, 300)
        outputs = set()
        for tables in (2, 4, 256, 512):
            monkeypatch.setattr(experiment, "_TABLES_PER_BLOCK", tables)
            outputs.add(sweep_rows_to_csv(run_sweep(spec, grid, FOUR, 10_000, 2, 7,
                                                    noise_order=order)))
        assert len(outputs) == 1


class TestFitValley:
    def test_refinement_follows_the_k_s_valley(self):
        # Points drawn as bench/inputs.py draws the analysis workload's fit
        # input, from default_rng([2, 45]).  The optimum lies along the k-s
        # valley outside the first refinement window around the coarse
        # optimum; a search kept inside that window stops at RSS 0.02501.
        rng = np.random.default_rng([2, 45])
        for _ in range(2):  # the draws made for the workload's show and mc inputs
            rng.uniform(-0.9, 0.5), rng.uniform(0.0, 0.1), rng.integers(0, 2**31 - 1)
            rng.uniform(0.1, 3.0)
        k_true, s_true = rng.uniform(-0.9, -0.2), rng.uniform(0.02, 0.1)
        t = np.sort(rng.uniform(0.05, 2.2, 1000))
        kappas = np.array([abs(decoherence_function(JointSpectrum(), x)) for x in t])
        clean = np.array([closed_form_mi4(x, k_true, s_true) for x in kappas])
        mis = clean + rng.normal(0.0, 0.005, t.size)

        def rss(k, s):
            model = np.array([closed_form_mi4(x, k, s) for x in kappas])
            return float(((model - mis) ** 2).sum())

        fit = fit_k_s(zip(kappas, mis), FOUR)
        assert fit.residual_sum_squares == pytest.approx(rss(fit.k_hat, fit.s_hat), rel=1e-9)
        assert fit.residual_sum_squares <= rss(k_true, s_true)

    @pytest.mark.parametrize("variant", list(SchemeVariant))
    def test_reaches_offsets_above_one_bit(self, variant):
        # MI = 0 is fitted exactly only with s at or above every model value,
        # 1.14 or more here; the coarse s grid ends at 1.
        fit = fit_k_s([(x, 0.0) for x in (0.5, 0.6, 0.7, 0.8, 0.9)], EncodingScheme(variant))
        assert fit.residual_sum_squares <= 1e-12
        assert fit.s_hat >= 1.14

    def test_reaches_offsets_above_the_k_equal_one_curve(self):
        # The model values at k = 1 stay below 1.15 on these points, so the
        # optimum (-0.9, 1.45) needs s searched up to log2(3).
        kappas = np.linspace(0.3, 0.9, 40)
        mis = [closed_form_mi3(x, -0.9, 1.45) for x in kappas]
        fit = fit_k_s(zip(kappas, mis), THREE)
        assert fit.residual_sum_squares <= 1e-12
        assert (fit.k_hat, fit.s_hat) == pytest.approx((-0.9, 1.45), abs=1e-3)

    @pytest.mark.parametrize("k_true, s_true, kappa_max", [(-0.8, 1.35, 0.9), (-1.0, 1.5, 0.8)])
    def test_reaches_offsets_above_one_bit_from_inside_the_grid(self, k_true, s_true,
                                                                kappa_max):
        # The best (k, s) with s <= 1 does not lie on s = 1 here, so a (k, s)
        # grid widened only from that edge stopped at RSS 0.0061 and 0.019.
        kappas = np.linspace(0.3, kappa_max, 40)
        mis = [closed_form_mi3(x, k_true, s_true) for x in kappas]
        fit = fit_k_s(zip(kappas, mis), THREE)
        assert fit.residual_sum_squares <= 1e-12
        assert (fit.k_hat, fit.s_hat) == pytest.approx((k_true, s_true), abs=1e-3)

    @pytest.mark.parametrize("ratio", [1.0, 2.5])
    @pytest.mark.parametrize("k_true", [0.6, -0.6])
    def test_even_four_state_curve_after_encoding_reports_k_at_most_zero(self, k_true, ratio):
        # After the encoding the four-state curve is bitwise even in k, so k
        # and -k tie exactly; the tie goes to the smaller k, on its lattice value.
        order = NoiseOrder.NOISE_AFTER_ENCODING
        kappas = np.linspace(0.1, 0.95, 30)
        mis = _mi_curve(kappas, k_true, FOUR, ratio, order)
        fit = fit_k_s(zip(kappas, mis), FOUR, ratio, order)
        assert fit.k_hat == -0.6


COARSE_K = np.arange(-100, 101) / 100


def _seeded_fit_points(seed, variant):
    """1000 noisy points of the closed-form curve at a seeded (k, s)."""
    rng = np.random.default_rng([6, seed])
    k_true, s_true = rng.uniform(-0.9, -0.2), rng.uniform(0.02, 0.1)
    t = np.sort(rng.uniform(0.05, 2.2, 1000))
    kappas = [abs(decoherence_function(JointSpectrum(), x)) for x in t]
    closed = closed_form_mi3 if variant is SchemeVariant.THREE_STATE else closed_form_mi4
    mis = np.array([closed(x, k_true, s_true) for x in kappas]) + rng.normal(0.0, 0.005, t.size)
    return list(zip(kappas, mis.tolist()))


def _offsets_against_a_dense_s_scan(variant, n, seed, ratio, order, drop):
    """Check ``_best_offsets`` on one random draw against a dense s scan that
    holds every model value; return the number of k rows whose offset lies
    above the row's smallest model value."""
    rng = np.random.default_rng(seed)
    model = functools.partial(_mi_curve, scheme=EncodingScheme(variant),
                              variance_ratio=ratio, noise_order=order)
    kappas = 1.0 - rng.uniform(0.0, 1.0, n)
    # Tiny kappas put many model values at the same end of the curve.
    kappas[rng.random(n) < 0.1] = 1e-9
    mis = rng.uniform(0.0, 2.0, n)
    k_grid = np.concatenate([rng.uniform(-1.0, 1.0, 5), [-1.0, 0.0, 1.0]])
    f = model(kappas, k_grid[rng.integers(k_grid.size)])
    exact = rng.random(n) < 0.3
    mis[exact] = f[exact]
    # Every model value is at least 0.918 bits, and with MI on [0, 2] the
    # offset stays below them all; one bit lower, it reaches the later pieces.
    mis -= drop
    s_hat, rss = _best_offsets(kappas, mis, model, k_grid)
    assert np.all(s_hat >= 0.0)
    above = 0
    for k, s, value in zip(k_grid, s_hat, rss):
        f = model(kappas, k)
        above += s > f.min()
        # Every model value is on the scan, so every piece's ends are too.
        scan = np.union1d(np.linspace(0.0, 2.5, 2501), f[f >= 0.0])
        resid = np.maximum(f - scan[:, None], 0.0) - mis
        assert value <= np.einsum("sp,sp->s", resid, resid).min() + 1e-12
        resid = np.maximum(f - s, 0.0) - mis
        assert value == pytest.approx(resid @ resid, rel=1e-12, abs=1e-15)
    return above


class TestRssProfile:
    @given(st.sampled_from(list(SchemeVariant)), st.integers(2, 500),
           st.integers(0, 2**32 - 1), st.sampled_from([1.0, 0.3, 2.5]),
           st.sampled_from(list(NoiseOrder)), st.sampled_from([0.0, 1.0]))
    @settings(max_examples=12, deadline=None)
    def test_offsets_match_a_dense_s_scan(self, variant, n, seed, ratio, order, drop):
        _offsets_against_a_dense_s_scan(variant, n, seed, ratio, order, drop)

    @pytest.mark.parametrize("ratio", [1.0, 0.3, 2.5])
    @pytest.mark.parametrize("order", list(NoiseOrder))
    @pytest.mark.parametrize("variant", list(SchemeVariant))
    def test_lowered_draws_put_offsets_above_model_values(self, variant, order, ratio):
        # The scan check above is only as good as the pieces its draws reach:
        # with MI one bit lower, offsets lie above some model values.
        assert _offsets_against_a_dense_s_scan(variant, 300, 0, ratio, order, 1.0) > 0

    @pytest.mark.parametrize("variant", list(SchemeVariant))
    def test_a_k_alone_gets_the_bits_it_gets_in_a_window(self, variant):
        # The coarse screen and the refinement windows evaluate a k among
        # other rows or alone; its RSS must not move by an ulp.
        # Noisy points of the curve at k = 0, where the exponent is 2 at r = 1.
        rng = np.random.default_rng(11)
        kappas = rng.uniform(0.05, 1.0, 1000)
        model = functools.partial(_mi_curve, scheme=EncodingScheme(variant))
        mis = np.maximum(model(kappas, 0.0) - 0.05, 0.0) + rng.normal(0.0, 0.005, 1000)
        k_grid = np.arange(-8, 8) / 100
        s_window, rss_window = _best_offsets(kappas, mis, model, k_grid)
        for i in range(k_grid.size):
            s_alone, rss_alone = _best_offsets(kappas, mis, model, k_grid[i:i + 1])
            assert (s_alone[0], rss_alone[0]) == (s_window[i], rss_window[i])

    @pytest.mark.parametrize("k_grid", [np.array([-0.3]), COARSE_K], ids=["1 row", "201 rows"])
    def test_one_sort_per_call(self, k_grid, monkeypatch):
        # The points are sorted by kappa once; no k row is sorted again.
        calls, argsort = [], np.argsort
        monkeypatch.setattr(np, "argsort", lambda *a, **kw: calls.append(1) or argsort(*a, **kw))
        kappas, mis = np.array(_seeded_fit_points(0, SchemeVariant.FOUR_STATE)).T
        _best_offsets(kappas, mis, functools.partial(_mi_curve, scheme=FOUR), k_grid)
        assert len(calls) == 1

    @pytest.mark.parametrize("drop", [0.0, 1.0])
    def test_point_order_does_not_matter(self, drop):
        # The seeded points come with kappa descending.  Every four-state
        # model value is at least one bit, so at drop 0 every point lies
        # above the offset; dropped by one bit, the points of small kappa
        # fall below it, and a fit that trusted the input order to sort the
        # model rows picks another offset for some of these orders.
        points = [(x, max(m - drop, 0.0))
                  for x, m in _seeded_fit_points(0, SchemeVariant.FOUR_STATE)]
        shuffled = [points[i] for i in np.random.default_rng(3).permutation(len(points))]
        fits = [fit_k_s(p, FOUR) for p in (points, shuffled, points[::-1])]
        for fit in fits[1:]:
            assert fit.k_hat == fits[0].k_hat
            assert fit.s_hat == pytest.approx(fits[0].s_hat, rel=1e-12)
            assert fit.residual_sum_squares == pytest.approx(fits[0].residual_sum_squares,
                                                             rel=1e-12)

    def test_exact_ties_break_as_on_the_full_grid(self):
        # MI = 0 everywhere: every k has RSS exactly 0 with s at or above its
        # largest model value.  Ties go to smaller |k|, then smaller s.
        kappas = np.linspace(0.05, 0.3, 12)
        mis = np.zeros(kappas.size)
        model = functools.partial(_mi_curve, scheme=THREE)
        _, rss = _best_offsets(kappas, mis, model, COARSE_K)
        assert np.count_nonzero(rss == 0.0) > 10
        expected = experiment.FitResult(0.0, float(model(kappas, 0.0).max()), 0.0, 12)
        assert fit_k_s(zip(kappas, mis), THREE) == expected

    @pytest.mark.parametrize("seed,variant,expected", [
        (0, SchemeVariant.FOUR_STATE, (-0.5237999999999996, 0.04731, 0.025879182672130612)),
        (1, SchemeVariant.FOUR_STATE, (-0.5015999999999996, 0.07026, 0.026407906975492675)),
        (2, SchemeVariant.THREE_STATE, (-0.2086999999999993, 0.02744, 0.026025829155892567)),
        (3, SchemeVariant.THREE_STATE, (-0.4931999999999995, 0.03986, 0.025823283331395632)),
    ])
    def test_fit_matches_the_full_grid_search(self, seed, variant, expected):
        # Values from a search that evaluated the whole (k, s) grid with steps
        # 0.01 and 0.001; the exact offsets reach them or better.
        k_grid, s_grid, rss_grid = expected
        fit = fit_k_s(_seeded_fit_points(seed, variant), EncodingScheme(variant))
        assert fit.residual_sum_squares <= rss_grid
        assert fit.k_hat == pytest.approx(k_grid, abs=1e-3)
        assert fit.s_hat == pytest.approx(s_grid, abs=1e-3)
        assert fit.n_points == 1000


def _screen_draw(variant, order, ratio, uniform, n, mode, seed):
    """A curve and points for the screen: kappas with repeats, and MI of the
    model at a random (k, s), exact, noisy or replaced by pure noise."""
    rng = np.random.default_rng(seed)
    size = len(EncodingScheme(variant).priors)
    scheme = EncodingScheme(variant, () if uniform else tuple(rng.dirichlet(np.ones(size))))
    model = functools.partial(_mi_curve, scheme=scheme, variance_ratio=ratio, noise_order=order)
    kappas = rng.uniform(0.01, 1.0, n)
    kappas[rng.random(n) < 0.3] = kappas[0]
    mis = np.maximum(model(kappas, rng.uniform(-1.0, 1.0)) - rng.uniform(0.0, 0.2), 0.0)
    if mode == "noisy":
        mis += rng.normal(0.0, 0.01, n)
    elif mode == "noise":
        mis = rng.uniform(0.0, 2.0, n)
    return scheme, model, kappas, mis


_SCREEN_DRAWS = (st.sampled_from(list(SchemeVariant)), st.sampled_from(list(NoiseOrder)),
                 st.floats(0.2, 5.0), st.booleans(),
                 st.one_of(st.integers(2, 9), st.integers(10, 300)),
                 st.sampled_from(["exact", "noisy", "noise"]), st.integers(0, 2**32 - 1))


class TestCoarseScreen:
    @given(*_SCREEN_DRAWS)
    @settings(max_examples=40, deadline=None)
    def test_screen_equals_the_full_coarse_profile(self, variant, order, ratio, uniform, n,
                                                   mode, seed):
        scheme, model, kappas, mis = _screen_draw(variant, order, ratio, uniform, n, mode, seed)
        s_full, rss_full = _best_offsets(kappas, mis, model, COARSE_K)
        s_kept, rss_kept = _screened_offsets(kappas, mis, model, COARSE_K)
        kept = np.isfinite(rss_kept)
        assert kept.any()
        # A kept row has its own bits; a skipped one could not hold the minimum.
        assert np.array_equal(s_kept[kept], s_full[kept])
        assert np.array_equal(rss_kept[kept], rss_full[kept])
        assert np.all(rss_full[~kept] > rss_full.min())
        points = list(zip(kappas.tolist(), mis.tolist()))
        fit = fit_k_s(points, scheme, ratio, order)
        with mock.patch.object(experiment, "_screened_offsets", _best_offsets):
            assert fit_k_s(points, scheme, ratio, order) == fit

    @given(*_SCREEN_DRAWS, st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_a_subset_bounds_each_row_from_below(self, variant, order, ratio, uniform, n, mode,
                                                 seed, strided):
        _, model, kappas, mis = _screen_draw(variant, order, ratio, uniform, n, mode, seed)
        if strided:  # the screen's subset
            sub = np.argsort(kappas, kind="stable")[::experiment._SCREEN_STRIDE]
        else:  # any non-empty subset
            rng = np.random.default_rng([seed, 1])
            sub = np.flatnonzero((rng.random(n) < 0.5) | (np.arange(n) == rng.integers(n)))
        _, bound = _best_offsets(kappas[sub], mis[sub], model, COARSE_K)
        _, rss = _best_offsets(kappas, mis, model, COARSE_K)
        # The screen's allowance for rounding, as in _screened_offsets.
        eps = 8 * (n + 1) * 2.0**-52 * np.sum((2.0 + np.abs(mis)) ** 2)
        assert np.all(bound <= rss + eps)

    @pytest.mark.parametrize("variant", list(SchemeVariant))
    def test_most_coarse_rows_are_skipped(self, variant, monkeypatch):
        # Seeded model-plus-noise points: fewer than half of the 201 coarse
        # rows reach the full evaluation, whether asked for directly or by the fit.
        kappas, mis = np.array(_seeded_fit_points(0, variant)).T
        model = functools.partial(_mi_curve, scheme=EncodingScheme(variant))
        full_rows, best_offsets = [], _best_offsets

        def counted(kappas, mis, curve, k_grid):
            if kappas.size == 1000:
                full_rows.extend(np.round(k_grid * 10_000).astype(int).tolist())
            return best_offsets(kappas, mis, curve, k_grid)

        monkeypatch.setattr(experiment, "_best_offsets", counted)
        _screened_offsets(kappas, mis, model, COARSE_K)
        assert len(full_rows) < COARSE_K.size / 2
        full_rows.clear()
        fit_k_s(zip(kappas, mis), EncodingScheme(variant))
        # Refinement windows reach a few multiples of 0.01 too.
        assert sum(n % 100 == 0 for n in full_rows) < COARSE_K.size / 2

    def test_a_lone_row_of_many_points_keeps_its_bits(self):
        # Over 8192 points numpy sums a lone einsum row in another order; a
        # window of 17 k rows must not leave one alone in its last pass.
        rng = np.random.default_rng(5)
        kappas = rng.uniform(0.05, 1.0, 9000)
        model = functools.partial(_mi_curve, scheme=FOUR)
        mis = model(kappas, -0.3) - 0.05 + rng.normal(0.0, 0.005, kappas.size)
        s_all, rss_all = _best_offsets(kappas, mis, model, COARSE_K)
        s_window, rss_window = _best_offsets(kappas, mis, model, COARSE_K[-17:])
        assert np.array_equal(s_window, s_all[-17:])
        assert np.array_equal(rss_window, rss_all[-17:])


class TestFitOnMonteCarloData:
    def test_recovers_offset_from_sampled_sweep(self):
        # synthetic measured points: bootstrap means minus the generator offset
        spec = JointSpectrum(k=-1.0)
        s_gen = 0.0749
        kappas = (0.163, 0.3, 0.45, 0.6, 0.75, 0.9)
        points = []
        for i, kappa in enumerate(kappas):
            t = math.sqrt(-2.0 * math.log(kappa))
            table = simulate_protocol(spec, DephasingTimes(t, t), THREE)
            mean, _ = estimate_mi_with_errors(table, THREE, 10_000, 200, 1000 + i)
            points.append((kappa, mean - s_gen))
        fit = fit_k_s(points, THREE)
        assert abs(fit.s_hat - s_gen) <= 0.02
