"""Benchmark of the densecoding command line: two workloads, each output
checked against an independent reference.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the repository root is the parent of this directory and
the program is imported from its ``src``.  Workloads (see README.md):
``sweep-dense``, ``analysis-short``.

One benchmark process runs a closed loop: each CLI command starts only after
the previous one has ended.  Set-up writes the seeded inputs and imports
the package once in a fresh interpreter, to fill the bytecode cache.  A
warm-up pass runs the command list in-process.  Then, for ``--seconds``,
whole rounds repeat; a round is

* ``import densecoding`` in three fresh interpreters (``setup_s``),
* the command list in fresh subprocesses, one at a time (``wall_s``,
  ``cpu_s`` and ``peak_rss_mb`` from ``os.wait4``), and
* the same list in-process through ``densecoding.cli.main`` (``compute_s``).

With ``--trace 1`` a round also runs the in-process list once traced (see
``tracing.py``), and set-up also runs ``python -X importtime``.  Times are
scaled to a nominal host speed (see ``HostSpeed``).  Every pass's outputs
are checked.  The last line of stdout is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end with ``--trace 0``;
per layer, with the unscaled end-to-end times, with ``--trace 1``), each
the median over the run's repeats.  A summary, with the unscaled times,
goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import inputs
import reference
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
IMPORTS_PER_ROUND = 3      # timed fresh-interpreter imports (setup_s) per round
IMPORTTIME_REPEATS = 3
CALIBRATION_NOMINAL_S = 0.04   # seconds of calibrate.py's loop at the nominal speed
CALIBRATION_SHARE = 0.1        # of a run's time spent in that loop, at the least
IMPORT_PROBE = ("import time; t = time.perf_counter(); import densecoding; "
                "print(time.perf_counter() - t)")

END_TO_END = {"setup_s": "s", "wall_s": "s", "compute_s": "s", "cpu_s": "s",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "import.numpy_s": "s",
    "import.scipy_s": "s",
    "import.densecoding_self_s": "s",
    "cli.self_s": "s",
    "config.self_s": "s",
    "config.build_config.calls": "count",
    "states.self_s": "s",
    "states.validate_density_matrix.calls": "count",
    "states.apply_pauli.calls": "count",
    "states.concurrence.calls": "count",
    "environment.self_s": "s",
    "environment.evolve_pre_encoding.calls": "count",
    "environment.evolve_post_encoding.calls": "count",
    "environment.dephase_encoded_state.calls": "count",
    "protocol.self_s": "s",
    "protocol.simulate_protocol.calls": "count",
    "protocol.simulate_protocol.mean_us": "us",
    "protocol.mutual_information.calls": "count",
    "protocol.ConditionalTable.calls": "count",
    "experiment.self_s": "s",
    "experiment.estimate_mi_with_errors.calls": "count",
    "experiment.estimate_mi_with_errors.mean_ms": "ms",
    "experiment.sample_counts.calls": "count",
    "experiment.fit_k_s.mean_ms": "ms",
    "experiment.reconstruct_linear_inversion.calls": "count",
    "trace.overhead_s": "s",
    "raw.setup_s": "s",
    "raw.wall_s": "s",
    "raw.cpu_s": "s",
    "raw.compute_s": "s",
    "host.loop_s": "s",
}
UNITS = {**END_TO_END, **PER_LAYER, "traced_s": "s"}
_MEAN_SCALE = {"mean_us": 1e6, "mean_ms": 1e3}
_TIME_SCALE = ("s", "ms", "us")


class Tally:
    """Operations attempted and failed, and problems found, over a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, command, returncode: int, stdout: str, stderr: str) -> None:
        if returncode != 0:
            ops = checks.expected_operations(command)
            self.attempted += ops
            self.failed += ops
            self.problems.append(f"{command.kind} exited {returncode}: {stderr.strip()[-300:]}")
            return
        try:
            text = command.out.read_text(encoding="utf-8")
        except OSError as exc:
            text = ""
            self.problems.append(f"{command.kind} wrote no output: {exc}")
        attempted, failed, problems = checks.check(command, stdout, text)
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(f"{command.kind}: {p}" for p in problems)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _spawn(argv: list[str], env: dict, log_dir: Path):
    """Run one child to its end; return (returncode, wall, rusage, stdout, stderr)."""
    out_path, err_path = log_dir / "child.stdout", log_dir / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage, out_path.read_text(encoding="utf-8"),
            err_path.read_text(encoding="utf-8"))


def _clear_outputs(commands) -> None:
    for command in commands:
        command.out.unlink(missing_ok=True)


class HostSpeed:
    """Scale from measured seconds to seconds at a nominal host speed.

    The host is shared, and its speed drifts by half or more over an hour,
    for the calibration loop and the program alike.  The loop
    (``calibrate.py``) runs in a helper process of its own between timed
    steps, for a fixed share of the elapsed time, so its samples spread
    evenly over the run.  The speed also moves by a tenth or more from one
    second to the next, so one sample is a poor guide to the step next to
    it.  Every time of a run is therefore multiplied by one factor:
    CALIBRATION_NOMINAL_S over the median of all the run's samples.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._start = time.perf_counter()
        self._helper = subprocess.Popen([sys.executable, str(HERE / "calibrate.py")],
                                        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                        text=True, cwd=ROOT)

    def sample(self) -> None:
        """Call after each timed step: runs the loop at least once, and until
        it has taken CALIBRATION_SHARE of the time since the start."""
        while True:
            self._helper.stdin.write("\n")
            self._helper.stdin.flush()
            self.samples.append(float(self._helper.stdout.readline()))
            if sum(self.samples) >= CALIBRATION_SHARE * (time.perf_counter() - self._start):
                return

    def factor(self) -> float:
        return CALIBRATION_NOMINAL_S / statistics.median(self.samples)

    def close(self) -> None:
        self._helper.stdin.close()
        self._helper.stdout.close()
        self._helper.wait()


def subprocess_pass(commands, env, work: Path, tally: Tally, speed: HostSpeed):
    """Run the list as fresh subprocesses; unscaled wall and CPU seconds, MB."""
    _clear_outputs(commands)
    out = {"wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0}
    for command in commands:
        code, seconds, usage, stdout, stderr = _spawn(
            [sys.executable, "-m", "densecoding.cli", *command.argv], env, work)
        speed.sample()
        out["wall_s"] += seconds
        out["cpu_s"] += usage.ru_utime + usage.ru_stime
        out["peak_rss_mb"] = max(out["peak_rss_mb"], usage.ru_maxrss / 1024.0)  # KiB
        tally.add(command, code, stdout, stderr)
    return out


def inprocess_pass(commands, tally: Tally, speed: HostSpeed) -> float:
    """Run the list through ``densecoding.cli.main``; unscaled seconds."""
    import densecoding.cli

    _clear_outputs(commands)
    total = 0.0
    for command in commands:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            try:
                code = densecoding.cli.main(list(command.argv))
            except Exception:  # a crash fails the command's operations; the run goes on
                traceback.print_exc()
                code = -1
            total += time.perf_counter() - start
        speed.sample()
        tally.add(command, code, stdout.getvalue(), stderr.getvalue())
    return total


def import_seconds(env, speed: HostSpeed) -> float:
    """Unscaled seconds of ``import densecoding`` in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True)
    speed.sample()
    return float(out.stdout)


def import_layers(env, speed: HostSpeed) -> dict[str, float]:
    """Unscaled import seconds from ``-X importtime``, median of its runs."""
    runs = []
    for _ in range(IMPORTTIME_REPEATS):
        out = subprocess.run([sys.executable, "-X", "importtime", "-c", "import densecoding"],
                             env=env, cwd=ROOT, capture_output=True, text=True, check=True)
        speed.sample()
        runs.append(tracing.import_costs(out.stderr))
    return {key: statistics.median(run[key] for run in runs) for key in runs[0]}


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer counts and unscaled times of one traced pass."""
    summary = tracing.summarize(spans)
    out = {}
    for name, unit in PER_LAYER.items():
        if name.startswith(("import.", "trace.", "raw.", "host.")):
            continue
        stem, _, kind = name.rpartition(".")
        if kind in _MEAN_SCALE:
            calls = summary.get(f"{stem}.calls", 0)
            mean = summary.get(f"{stem}.total_s", 0.0) / calls if calls else 0.0
            out[name] = mean * _MEAN_SCALE[kind]
        elif unit == "count":
            out[name] = summary.get(name, 0)
        else:
            out[name] = summary.get(name, 0.0)
    return out


def measure(commands, seconds: float, traced: bool, env, work: Path, tally: Tally,
            speed: HostSpeed):
    """Whole rounds until ``seconds`` have passed; unscaled per-round samples."""
    samples: dict[str, list[float]] = {}
    deadline = time.perf_counter() + seconds
    longest = 0.0
    while True:
        start = time.perf_counter()
        samples.setdefault("setup_s", []).extend(
            import_seconds(env, speed) for _ in range(IMPORTS_PER_ROUND))
        values = subprocess_pass(commands, env, work, tally, speed)
        values["compute_s"] = inprocess_pass(commands, tally, speed)
        if traced:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                values["traced_s"] = inprocess_pass(commands, tally, speed)
            finally:
                tracer.uninstall()
            values.update(layer_metrics(tracer.spans))
        for key, value in values.items():
            samples.setdefault(key, []).append(value)
        longest = max(longest, time.perf_counter() - start)
        if time.perf_counter() + longest > deadline:
            return samples


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    if not (SRC / "densecoding" / "__init__.py").is_file():
        raise SystemExit(f"error: no densecoding package under {SRC}")
    reference.self_check()
    env = _child_env()
    sys.path.insert(0, str(SRC))
    work = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    tally = Tally()
    speed = HostSpeed()
    try:
        commands = inputs.generate(workload, seed, work)
        import_seconds(env, speed)  # untimed: fills the bytecode cache
        raw = import_layers(env, speed) if traced else {}
        inprocess_pass(commands, tally, speed)  # warm-up
        samples = measure(commands, seconds, traced, env, work, tally, speed)
    finally:
        speed.close()
        shutil.rmtree(work, ignore_errors=True)
    rounds = len(samples["wall_s"])
    factor = speed.factor()
    scaled = {name: value * factor for name, value in raw.items()}
    raw.update({name: statistics.median(values) for name, values in samples.items()})
    scaled.update({name: statistics.median(values) * factor if UNITS[name] in _TIME_SCALE
                   else statistics.median(values) for name, values in samples.items()})
    if traced:
        for name, unit in PER_LAYER.items():
            if unit == "count" and len(set(samples[name])) > 1:
                tally.problems.append(f"{name} differs between rounds: {samples[name]}")
        scaled["trace.overhead_s"] = scaled["traced_s"] - scaled["compute_s"]
        scaled.update({f"raw.{name}": raw[name]
                       for name in ("setup_s", "wall_s", "cpu_s", "compute_s")})
        scaled["host.loop_s"] = statistics.median(speed.samples)
        units = PER_LAYER
    else:
        units = END_TO_END
    print(f"{workload} seed={seed} trace={int(traced)} rounds={rounds} "
          f"attempted={tally.attempted} failed={tally.failed}; {len(speed.samples)} "
          f"calibration loops; scale factor {factor:.4f}", file=sys.stderr)
    for name, unit in units.items():
        print(f"  {name:48s} {scaled[name]:>12.6g} {unit}", file=sys.stderr)
    for name in ("setup_s", "wall_s", "cpu_s", "compute_s"):
        print(f"  {name + ' (as timed, unscaled)':48s} {raw[name]:>12.6g} s", file=sys.stderr)
    for problem in tally.problems[:20]:
        print(f"  problem: {problem}", file=sys.stderr)
    return {"correct": not tally.problems, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": scaled[name], "unit": unit}
                        for name, unit in units.items()}}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))


if __name__ == "__main__":
    main()
