"""Steadiness mode: repeat each workload, report medians and quartiles, and
compare two sets of runs within the bounds in BENCHMARK.json.

    python3 bench/steady.py --runs 10 --out set-a.json [--first-seed 1] [--trace 1]
    python3 bench/steady.py --compare set-a.json set-b.json

Each run is ``bench/run.py`` for ``run_seconds`` in a fresh process with its
own seed (``first-seed``, ``first-seed + 1``, ...), run one after another,
for every workload in BENCHMARK.json.  A metric is steady when the
distance between its first and third quartiles
(``statistics.quantiles(values, n=4)``) is below a third of its bound, as
a share of the median.  ``--compare``
fails when a median of the second set is worse than the first's by more
than the bound, when the share of failed operations differs, or when
per-layer call counts differ.

Exit status is 1 when a check fails.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
LOWER_IS_BETTER = {m["name"]: m["better"] == "lower"
                   for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def machine() -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    return {"cpu_model": model, "nproc": os.cpu_count(), "python": platform.python_version(),
            **versions,
            "isolation": "none: no CPU pinning, cgroup or cache control was used"}


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
                          workload, "--seed", str(seed), "--seconds", str(seconds),
                          "--trace", str(trace)], cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(values: list[float], bound: float | None) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    out = {"values": values, "median": median, "q1": q1, "q3": q3, "spread": spread}
    if bound is not None:
        out.update(bound=bound, steady=spread < bound / 3)
    return out


def collect(args) -> int:
    workloads = [w["name"] for w in SPEC["workloads"]]
    seconds = SPEC["run_seconds"]
    result = {"machine": machine(), "runs": args.runs, "seconds": seconds,
              "trace": args.trace, "workloads": {}}
    ok = True
    for workload in workloads:
        seeds = list(range(args.first_seed, args.first_seed + args.runs))
        runs = [one_run(workload, seed, seconds, args.trace) for seed in seeds]
        names = list(runs[0]["metrics"])
        metrics = {}
        for name in names:
            metrics[name] = summarize([r["metrics"][name]["value"] for r in runs],
                                      BOUNDS.get(name))
            metrics[name]["unit"] = runs[0]["metrics"][name]["unit"]
        shares = sorted({str(Fraction(r["failed"], r["attempted"])) for r in runs})
        result["workloads"][workload] = {
            "seeds": seeds, "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs], "failed": [r["failed"] for r in runs],
            "failed_shares": shares, "metrics": metrics}
        print(f"{workload}: correct={all(r['correct'] for r in runs)} "
              f"failed share={','.join(shares)}")
        for name, m in metrics.items():
            flag = "" if m.get("steady", True) else "  NOT STEADY"
            print(f"  {name:48s} median {m['median']:.6g} {m['unit']}  q1 {m['q1']:.6g}  "
                  f"q3 {m['q3']:.6g}  spread {m['spread']:.4f}{flag}")
        ok &= all(r["correct"] for r in runs) and len(shares) == 1 and all(
            m.get("steady", True) for m in metrics.values())
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


def compare(path_a: str, path_b: str) -> int:
    a = json.loads(Path(path_a).read_text(encoding="utf-8"))
    b = json.loads(Path(path_b).read_text(encoding="utf-8"))
    ok = True
    for workload, wa in a["workloads"].items():
        wb = b["workloads"].get(workload)
        if wb is None:
            print(f"{workload}: missing from {path_b}")
            ok = False
            continue
        same_share = wa["failed_shares"] == wb["failed_shares"] and len(wa["failed_shares"]) == 1
        ok &= same_share
        print(f"{workload}: failed share {wa['failed_shares']} vs {wb['failed_shares']}"
              f"{'' if same_share else '  DIFFERS'}")
        for name, ma in wa["metrics"].items():
            mb = wb["metrics"][name]
            change = (mb["median"] - ma["median"]) / ma["median"] if ma["median"] else 0.0
            worse = change if LOWER_IS_BETTER.get(name, True) else -change
            bound = BOUNDS.get(name)
            if bound is None:  # per-layer: counts must repeat exactly
                verdict = ("" if not name.endswith(".calls") or ma["values"] == mb["values"]
                           else "  COUNTS DIFFER")
            else:
                verdict = f"  bound {bound}" + ("  WORSE" if worse > bound else "")
            ok &= "DIFFER" not in verdict and "WORSE" not in verdict
            print(f"  {name:48s} {ma['median']:.6g} -> {mb['median']:.6g} "
                  f"({change:+.2%}){verdict}")
    return 0 if ok else 1


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", help="write the set of runs here as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()
    if args.compare:
        raise SystemExit(compare(*args.compare))
    if not args.out:
        parser.error("--out is required unless --compare is given")
    raise SystemExit(collect(args))


if __name__ == "__main__":
    main()
