"""Seeded input generator for the benchmark workloads.

``generate(workload, seed, directory)`` writes every file a workload's
commands read (run configurations, the fit points, the tomography counts)
and returns the command list.  Only these files and flags reach the
program; the parameters that produced them travel with each command so
the checks can recompute the expected values from ``reference``.

The sizes of every input (grid lengths, point and file counts) are fixed;
the seed moves only values (seeds of the program's own sampling, the fit's
true (k, s), the tomography states and their counts), so call counts repeat
between seeds.

Run standalone to inspect the inputs of one seed:

    python3 bench/inputs.py --workload analysis-short --seed 1 --dir /tmp/x
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference

WORKLOADS = ("sweep-dense", "analysis-short")

# Sweep configurations.  The grid keys are fixed; ``seed`` is set per run.
_DENSE_GRID = {"n_per_input": 10000, "trials": 2, "s": 0.0,
               "t_start": 0.0, "t_stop": 2.0, "t_step": 0.002}
SWEEP_DENSE = (
    {"scheme": "FOUR_STATE", "k": -0.5, "c_aa": 1.0, "c_bb": 1.0,
     "noise_order": "NOISE_AFTER_ENCODING", **_DENSE_GRID},
    {"scheme": "FOUR_STATE", "k": -0.5, "c_aa": 1.0, "c_bb": 2.0,
     "noise_order": "NOISE_BEFORE_ENCODING", **_DENSE_GRID},
)

FIT_POINTS = 1000
FIT_NOISE = 0.005          # bits, standard deviation added to each point
TOMO_FILES = 4
TOMO_SHOTS = 100_000       # per projector


@dataclass
class Command:
    """One CLI invocation: its arguments, where its data lands, and what
    the checks need to know about how its inputs were made."""

    kind: str
    argv: list[str]
    out: Path
    expect: dict = field(default_factory=dict)


def _write_config(path: Path, cfg: dict) -> None:
    lines = [f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}"
             for key, value in cfg.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _sweep(directory: Path, name: str, cfg: dict) -> Command:
    path = directory / f"{name}.cfg"
    _write_config(path, cfg)
    out = directory / f"{name}.csv"
    return Command("sweep", ["sweep", "--config", str(path), "--out", str(out)], out, cfg)


def _program_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def generate(workload: str, seed: int, directory: Path) -> list[Command]:
    """Write the inputs of one workload for one seed; return its commands."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    if workload == "sweep-dense":
        return [_sweep(directory, f"dense{i}", {**cfg, "seed": _program_seed(rng)})
                for i, cfg in enumerate(SWEEP_DENSE)]
    if workload == "analysis-short":
        return _analysis(directory, rng)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def _analysis(directory: Path, rng: np.random.Generator) -> list[Command]:
    commands = []

    show_cfg = {"scheme": "THREE_STATE", "k": float(rng.uniform(-0.9, 0.5)),
                "c_aa": 1.0, "c_bb": 1.0, "noise_order": "NOISE_BEFORE_ENCODING",
                "s": float(rng.uniform(0.0, 0.1)), "n_per_input": 10000, "trials": 1000,
                "seed": _program_seed(rng), "t_start": 0.0,
                "t_stop": float(rng.uniform(1.0, 3.0)), "t_step": 0.1}
    path = directory / "show.cfg"
    _write_config(path, show_cfg)
    out = directory / "show.txt"
    commands.append(Command("show", ["show", "--config", str(path), "--out", str(out)],
                            out, show_cfg))

    # mc reads no noise order; its closed-form channel is exact before encoding.
    mc = {"scheme": "FOUR_STATE", "k": float(rng.uniform(-0.9, 0.5)), "c_aa": 1.0,
          "c_bb": 1.0, "noise_order": "NOISE_BEFORE_ENCODING",
          "s": float(rng.uniform(0.0, 0.1)), "n_per_input": 10000, "trials": 1000,
          "seed": _program_seed(rng), "t_a": float(rng.uniform(0.1, 2.0))}
    out = directory / "mc.csv"
    commands.append(Command("mc", [
        "mc", "--scheme", mc["scheme"], f"--k={mc['k']!r}", f"--s={mc['s']!r}",
        "--n-per-input", str(mc["n_per_input"]), "--trials", str(mc["trials"]),
        "--seed", str(mc["seed"]), f"--t-a={mc['t_a']!r}", "--out", str(out)], out, mc))

    # Fit points: reference four-state MI at a true (k, s), plus Gaussian noise.
    k_true, s_true = float(rng.uniform(-0.9, -0.2)), float(rng.uniform(0.02, 0.1))
    t = np.sort(rng.uniform(0.05, 2.2, FIT_POINTS))
    kappas = reference.kappa_abs(t)
    mis = reference.mutual_information(reference.born_table(t, t, "FOUR_STATE", k=k_true))
    mis = np.maximum(mis - s_true, 0.0) + rng.normal(0.0, FIT_NOISE, t.size)
    path = directory / "fit_points.csv"
    path.write_text("kappa_abs,mi\n" + "".join(f"{x!r},{y!r}\n" for x, y in
                                               zip(kappas.tolist(), mis.tolist())),
                    encoding="utf-8")
    out = directory / "fit.csv"
    commands.append(Command("fit", ["fit", "--scheme", "FOUR_STATE", "--in", str(path),
                                    "--out", str(out)], out,
                            {"k": k_true, "s": s_true, "kappa_abs": kappas, "mi": mis}))

    # Tomography: binomial counts from dephased encoded Bell states.
    for i in range(TOMO_FILES):
        order = reference.NOISE_ORDERS[int(rng.integers(2))]
        t_i = float(rng.uniform(0.0, 2.0))
        rho = reference.dephased_states(t_i, t_i, k=float(rng.uniform(-1.0, 1.0)),
                                        noise_order=order)[0, int(rng.integers(4))]
        counts = rng.binomial(TOMO_SHOTS, reference.tomography_probabilities(rho))
        path = directory / f"tomo{i}.txt"
        path.write_text(" ".join(str(c) for c in counts.tolist()) + "\n", encoding="utf-8")
        out = directory / f"rho{i}.txt"
        commands.append(Command("tomo", ["tomo", "--in", str(path), "--n-per-projector",
                                         str(TOMO_SHOTS), "--out", str(out)],
                                out, {"rho": rho}))
    return commands


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    args = parser.parse_args()
    for command in generate(args.workload, args.seed, args.dir):
        print("densecoding " + " ".join(command.argv))


if __name__ == "__main__":
    main()
