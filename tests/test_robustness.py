"""Whole-command-line robustness: every input the parser accepts gives a
finite answer or one loud refusal, and no command raises or warns.

Each run goes through ``main`` in-process with every warning an error.  It
must exit 0 with every numeric field of its output finite, exit 1 with one
``error:`` line, or exit 2 from argparse.  Sizes stay tiny (n, trials and
the time grid) for runtime only: the size refusals have their own tests.
"""

import cmath
import contextlib
import io
import re
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from densecoding.cli import main

_SPECIAL = [0.0, 5e-324, 1e-300, 1e-10, 0.5, 1.0, 2.0, 1e10, 1e300, 1.7e308]
# Magnitudes from the least subnormal to near the largest float.
MAGNITUDES = st.sampled_from(_SPECIAL) | st.floats(5e-324, 1.7e308)
SIGNED = MAGNITUDES | MAGNITUDES.map(lambda x: -x)
# Values a config key refuses by name: not a number, or not finite.
ODD = st.sampled_from(["nan", "inf", "-inf", "x", ""])


def _value(numbers):
    return numbers.map(repr) | ODD


def _priors():
    weights = st.lists(st.sampled_from([0.0, 0.0, 1.0]) | st.floats(0.0, 1.0), min_size=2,
                       max_size=5).filter(lambda w: sum(w) > 0)
    normalized = weights.map(lambda w: ",".join(repr(x / sum(w)) for x in w))
    return normalized | st.lists(SIGNED.map(repr), min_size=1, max_size=4).map(",".join)


def _t_range():
    """A start, stop and step of at most about 2m + 1 points, m <= 3."""
    def flags(start, step, m):
        return [f"--t-start={start!r}", f"--t-step={step!r}", f"--t-stop={start + step * m!r}"]
    return st.builds(flags, MAGNITUDES, MAGNITUDES, st.integers(0, 3))


RUN_FLAGS = {
    "--omega0": _value(SIGNED),
    "--c-aa": _value(SIGNED),
    "--c-bb": _value(SIGNED),
    "--k": _value(st.sampled_from([-1.0, 1.0, 0.0]) | st.floats(-1.0, 1.0) | SIGNED),
    "--delta-n": _value(st.just(0.0) | SIGNED),
    "--s": _value(SIGNED),
    "--n-per-input": st.integers(-1, 20).map(str),
    "--trials": st.integers(1, 4).map(str),
    "--seed": st.integers(-1, 2**70).map(str),
    "--scheme": st.sampled_from(["THREE_STATE", "FOUR_STATE"]),
    "--noise-order": st.sampled_from(["NOISE_BEFORE_ENCODING", "NOISE_AFTER_ENCODING"]),
    "--priors": _priors(),
}
# Some of fit's override flags, each as "--flag=value".
FIT_FLAGS = st.lists(st.sampled_from(["--c-aa", "--c-bb", "--scheme", "--noise-order", "--priors"]),
                     unique=True, max_size=3).flatmap(lambda names: st.tuples(*(
                         RUN_FLAGS[name].map(f"{name}={{}}".format) for name in names)))


@st.composite
def run_argv(draw, command):
    """A command's flags: some of the config keys, a short time grid, and for
    mc a stage time or a coherence, near 0 and 1 among others."""
    names = draw(st.lists(st.sampled_from(sorted(RUN_FLAGS)), unique=True, max_size=8))
    argv = [command] + [f"{name}={draw(RUN_FLAGS[name])}" for name in names]
    if draw(st.booleans()):
        argv += draw(_t_range())
    else:
        times = st.lists(MAGNITUDES.map(repr), min_size=1, max_size=3).map(",".join)
        argv.append(f"--t-list={draw(times | ODD)}")
    if command == "mc":
        near = st.sampled_from([5e-324, 1e-300, 1e-16, 1.0 - 1e-16, 1.0 - 2**-53, 1.0])
        argv += draw(st.sampled_from([[], ["--t-a"], ["--kappa-abs"]]).flatmap(
            lambda flag: st.just(flag) if not flag else _value(
                near | st.floats(0.0, 1.0) | SIGNED).map(lambda v: [f"{flag[0]}={v}"])))
    return argv


def run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process run; a warning raises."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with (warnings.catch_warnings(), contextlib.redirect_stdout(stdout),
          contextlib.redirect_stderr(stderr)):
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue()


def _numbers(text: str) -> list[complex]:
    """Every token of the output that reads as a number: a CSV field, a
    "key = value" value or list entry, or a matrix entry "re+imj"."""
    found = []
    for token in re.split(r"[\s,=]+", text):
        with contextlib.suppress(ValueError):
            found.append(complex(token))
    return found


def assert_finite_or_refused(argv: list[str], outputs: tuple[Path, ...] = ()) -> None:
    code, stdout, stderr = run(argv)
    if code == 0:
        assert stderr == "", argv
        texts = [stdout] + [path.read_text(encoding="utf-8") for path in outputs if path.exists()]
        numbers = [z for text in texts for z in _numbers(text)]
        assert numbers, (argv, stdout)
        assert all(map(cmath.isfinite, numbers)), (argv, stdout)
    elif code == 1:
        # One refusal, on one line.
        assert stdout == "" and stderr.startswith("error: "), (argv, stdout, stderr)
        assert stderr.count("\n") == 1 and stderr.endswith("\n"), (argv, stderr)
    else:
        assert code == 2 and re.match(r"densecoding( \w+)?: error: ", stderr.splitlines()[-1]), (
            argv, code, stderr)


class TestEveryRunIsFiniteOrRefused:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), command=st.sampled_from(["sweep", "show", "mc"]))
    def test_sweep_show_and_mc(self, data, command):
        assert_finite_or_refused(data.draw(run_argv(command), label="argv"))

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.tuples(st.floats(5e-324, 1.0).map(repr), st.floats(0.0, 2.0).map(repr)),
                         min_size=2, max_size=6)
           | st.lists(st.tuples(_value(SIGNED), _value(SIGNED)), max_size=6),
           header=st.sampled_from(["", "kappa_abs,mi\n", "kappa_abs,mi_mc_mean\n"]),
           flags=FIT_FLAGS)
    @example(rows=[("0.5", "0.5")] * 4, header="", flags=())  # one kappa: degenerate
    @example(rows=[("1e300", "1e300"), ("0.5", "-1e300")], header="", flags=())
    @example(rows=[("5e-324", "0.0")] * 2, header="", flags=("--c-bb=1.7e+308",))
    def test_fit(self, rows, header, flags):
        with tempfile.TemporaryDirectory() as tmp:
            points = Path(tmp) / "points.csv"
            points.write_text(header + "".join(f"{k},{m}\n" for k, m in rows), encoding="utf-8")
            assert_finite_or_refused(["fit", "--in", str(points), *flags])

    @settings(max_examples=100, deadline=None)
    @given(counts=st.lists(st.floats(0.0, 1.0), min_size=16, max_size=16)
           | st.lists(MAGNITUDES, min_size=16, max_size=16)
           | st.lists(_value(SIGNED), min_size=15, max_size=17),
           n=st.integers(-1, 10**6) | st.sampled_from([2**63, 10**308, 10**309, 10**400]),
           by_config=st.booleans())
    @example(counts=[1e308] * 16, n=1, by_config=False)
    @example(counts=[100.0] * 16, n=10**400, by_config=False)
    def test_tomo(self, counts, n, by_config):
        with tempfile.TemporaryDirectory() as tmp:
            path, state = Path(tmp) / "counts.txt", Path(tmp) / "state.txt"
            path.write_text(" ".join(c if isinstance(c, str) else repr(c) for c in counts),
                            encoding="utf-8")
            argv = ["tomo", "--in", str(path), "--out", str(state)]
            if by_config:
                config = Path(tmp) / "run.cfg"
                config.write_text(f"n_per_input = {n}\n", encoding="utf-8")
                argv += ["--config", str(config)]
            else:
                argv.append(f"--n-per-projector={n}")
            assert_finite_or_refused(argv, (state,))
