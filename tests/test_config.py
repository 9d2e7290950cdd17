"""Tests for the flat key = value configuration format."""

import pytest

from densecoding import (
    ConfigError,
    NoiseOrder,
    SchemeVariant,
    closed_form_mi4,
    parse_config,
)
from densecoding import config


class TestDefaults:
    def test_empty_text_gives_documented_defaults(self):
        cfg = parse_config("")
        assert cfg.spectrum.omega0 == 2.0
        assert cfg.spectrum.c_aa == 1.0
        assert cfg.spectrum.c_bb == 1.0
        assert cfg.spectrum.k == -1.0
        assert cfg.spectrum.delta_n == 1.0
        assert cfg.s == 0.0
        assert cfg.n_per_input == 10_000
        assert cfg.trials == 1000
        assert cfg.seed == 42
        assert cfg.scheme.variant is SchemeVariant.THREE_STATE
        assert cfg.noise_order is NoiseOrder.NOISE_BEFORE_ENCODING
        assert cfg.time_grid[0] == 0.0
        assert cfg.time_grid[-1] == pytest.approx(2.0)
        assert len(cfg.time_grid) == 21
        assert cfg.output_path == ""

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# a comment\n\nk = -0.5  # inline comment\n")
        assert cfg.spectrum.k == -0.5


class TestParsing:
    def test_fitted_four_state_configuration(self):
        cfg = parse_config("scheme = FOUR_STATE\ns = 0.0975\nk = -0.99995\n")
        assert cfg.scheme.variant is SchemeVariant.FOUR_STATE
        value = closed_form_mi4(0.163, cfg.spectrum.k, cfg.s)
        assert value == pytest.approx(1.9012, abs=5e-4)

    def test_explicit_time_list_wins(self):
        cfg = parse_config("t_start = 0\nt_stop = 5\nt_step = 1\nt_list = 0.25, 0.5, 1.0\n")
        assert cfg.time_grid == (0.25, 0.5, 1.0)

    def test_grid_from_start_stop_step(self):
        cfg = parse_config("t_start = 0.5\nt_stop = 1.0\nt_step = 0.25\n")
        assert cfg.time_grid == pytest.approx((0.5, 0.75, 1.0))

    def test_priors(self):
        cfg = parse_config("priors = 0.5, 0.25, 0.25\n")
        assert cfg.scheme.priors == pytest.approx((0.5, 0.25, 0.25))

    def test_scientific_notation(self):
        cfg = parse_config("s = 7.49e-2\n")
        assert cfg.s == pytest.approx(0.0749)

    def test_later_occurrence_wins(self):
        cfg = parse_config("k = -0.3\nk = -0.8\n")
        assert cfg.spectrum.k == -0.8


class TestErrors:
    def test_out_of_range_correlation_names_range(self):
        with pytest.raises(ConfigError, match=r"\[-1, 1\]"):
            parse_config("k = 1.5\n")

    def test_unknown_key_names_key_and_line(self):
        with pytest.raises(ConfigError, match=r"line 2.*banana"):
            parse_config("k = 0\nbanana = 1\n")

    def test_malformed_float_names_key_and_line(self):
        with pytest.raises(ConfigError, match=r"line 1.*omega0"):
            parse_config("omega0 = fast\n")

    def test_malformed_int(self):
        with pytest.raises(ConfigError, match="n_per_input"):
            parse_config("n_per_input = 1.5\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("omega0 2\n")

    def test_bad_scheme(self):
        with pytest.raises(ConfigError, match="scheme"):
            parse_config("scheme = FIVE_STATE\n")

    def test_bad_noise_order(self):
        with pytest.raises(ConfigError, match="noise_order"):
            parse_config("noise_order = SOMETIMES\n")

    def test_nonpositive_step(self):
        with pytest.raises(ConfigError, match="t_step"):
            parse_config("t_step = 0\n")

    def test_negative_time_in_list(self):
        with pytest.raises(ConfigError):
            parse_config("t_list = 0.5, -0.1\n")

    def test_bad_priors_sum(self):
        with pytest.raises(ConfigError, match="priors"):
            parse_config("priors = 0.5, 0.4, 0.2\n")

    def test_too_few_trials(self):
        with pytest.raises(ConfigError, match="trials"):
            parse_config("trials = 1\n")

    def test_nonpositive_variance(self):
        with pytest.raises(ConfigError, match="c_aa"):
            parse_config("c_aa = 0\n")

    @pytest.mark.parametrize("text, message", [
        ("k = nan\n", "line 1: key 'k': value must be finite, got 'nan'"),
        ("s = -1\n", "line 1: key 's': must be non-negative, got -1.0"),
        ("n_per_input = 0\n", "line 1: key 'n_per_input': must be positive"),
        ("seed = -1\n", "line 1: key 'seed': must be non-negative"),
        ("t_start = 1\nt_stop = 0.5\n", "line 2: key 't_stop': must be >= t_start"),
        ("t_stop = 1e300\nt_step = 1e-300\n",
         "line 2: key 't_step': 1e-300 gives too many points: inf > 10000000"),
        ("t_stop = 1e9\nt_step = 1e-9\n",
         "line 2: key 't_step': 1e-09 gives too many points: 1e+18 > 10000000"),
        ("scheme = FIVE_STATE\n",
         "line 1: key 'scheme': expected THREE_STATE or FOUR_STATE, got 'FIVE_STATE'"),
        ("noise_order = SOMETIMES\n", "line 1: key 'noise_order': expected "
         "NOISE_BEFORE_ENCODING or NOISE_AFTER_ENCODING, got 'SOMETIMES'"),
    ], ids=["k=nan", "s<0", "n_per_input=0", "seed<0", "t_stop<t_start", "t_step_overflow",
            "t_step_above_cap",
            "scheme", "noise_order"])
    def test_rejection_names_key_and_location(self, text, message):
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert str(info.value) == message

    def test_seed_zero_is_accepted(self):
        assert parse_config("seed = 0\n").seed == 0

    def test_huge_time_range_is_refused_before_a_grid_is_built(self, monkeypatch):
        def no_grid(*args):
            raise AssertionError("a time grid was built")
        monkeypatch.setattr(config, "range", no_grid, raising=False)
        with pytest.raises(ConfigError, match=r"key 't_step': 1e-09 gives too many points"):
            parse_config("t_stop = 1e9\nt_step = 1e-9\n")

    @pytest.mark.parametrize("t_stop, points", [(0.99, 100), (1.0, 101)])
    def test_point_cap_is_on_the_grid_length(self, monkeypatch, t_stop, points):
        monkeypatch.setattr(config, "_MAX_TIME_POINTS", 100)
        text = f"t_stop = {t_stop}\nt_step = 0.01\n"
        if points <= 100:
            assert len(parse_config(text).time_grid) == points
        else:
            with pytest.raises(ConfigError, match="101 > 100"):
                parse_config(text)
