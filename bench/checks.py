"""Checks of every CLI output against ``reference`` or a property the method
must have.  Nothing is compared with a stored copy of earlier output.

``check(command, stdout, out_text)`` returns ``(attempted, failed, problems)``.  An
operation is one sweep row, one fit, one tomography reconstruction, or one
``mc`` or ``show`` call.  An operation *fails* when its ``mi_theory`` value
misses the reference in the regime where the program's closed form is known
not to hold (unequal variances, or four states with the noise after the
encoding).  Any other miss is a *problem*: it makes the run incorrect.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

import reference

TOL_KAPPA = 1e-12          # |kappa| and time-grid values
TOL_CONCURRENCE = 1e-9     # sweep concurrence against |kappa|
TOL_THEORY = 1e-9          # mi_theory against the Born-rule MI minus s
Z_MC = 6.0                 # Gaussian part of the Monte Carlo bound
MIN_TRIALS_FOR_STD = 30    # fewer trials give no usable sample std
MIN_CELL_COUNT = 10        # expected count of the rarest outcome, for the std check
STD_RATIO = 2.0            # mi_mc_std within [sigma / 2, 2 sigma]
FIT_TOL_K, FIT_TOL_S = 0.02, 0.01
TOMO_MIN_FIDELITY = 0.95
TOL_TOMO_CONCURRENCE = 1e-6

SWEEP_HEADER = ["t_a", "kappa_abs", "concurrence", "mi_theory", "mi_mc_mean",
                "mi_mc_std", "scheme"]


def closed_form_known_wrong(cfg: dict) -> bool:
    """The regime where the program's closed-form mi_theory is a known fault."""
    return (cfg["c_aa"] != cfg["c_bb"]
            or (cfg["noise_order"] == "NOISE_AFTER_ENCODING"
                and cfg["scheme"] == "FOUR_STATE"))


def time_grid(cfg: dict) -> np.ndarray:
    count = int(math.floor((cfg["t_stop"] - cfg["t_start"]) / cfg["t_step"] + 1e-9)) + 1
    return cfg["t_start"] + cfg["t_step"] * np.arange(count)


def _channel(cfg: dict) -> dict:
    return {"k": cfg["k"], "c_aa": cfg["c_aa"], "c_bb": cfg["c_bb"],
            "noise_order": cfg["noise_order"]}


def mc_bound(p, n_per_input: int, trials: int):
    """Largest |mi_mc_mean - (MI - s)| a correct bootstrap may show.

    Plug-in bias allowance, plus Z_MC standard errors of the mean over
    ``trials`` tables, plus two stray counts in a cell of tiny probability
    (each moves the plug-in MI by at most p1 log2(e n) / n), which covers
    the Poisson tail where the expected count is far below one.  The
    standard deviation is the reference's delta-method one at
    ``n_per_input``, never the program's own ``mi_mc_std``, so a wrong
    error bar cannot widen the bound.
    """
    sigma, bias = reference.plugin_mi_spread(p, n_per_input)
    p1_max = 1.0 / np.asarray(p).shape[-2]
    stray = 2.0 * p1_max * math.log2(math.e * n_per_input) / (n_per_input * trials)
    return bias + Z_MC * sigma / math.sqrt(trials) + stray


def std_checkable(p, n_per_input: int, trials: int):
    """Rows whose ``mi_mc_std`` is held to the delta-method sigma: enough
    trials for a sample std, and every possible outcome expected at least
    MIN_CELL_COUNT times per input, so the plug-in MI is near Gaussian."""
    p = np.asarray(p, dtype=float)
    smallest = np.where(p > 0, p, np.inf).min(axis=(-2, -1))
    return (trials >= MIN_TRIALS_FOR_STD) & (smallest * n_per_input >= MIN_CELL_COUNT)


def _monte_carlo_ok(p, mean, std, expected, n_per_input, trials):
    """Vectorised check of the Monte Carlo columns: (mean ok, std ok).

    Where the channel is noiseless both must be exact.  Elsewhere the mean
    must lie within ``mc_bound``, and on ``std_checkable`` rows the std must
    be within a factor STD_RATIO of the reference sigma.
    """
    exact = reference.is_deterministic(p)
    sigma, _ = reference.plugin_mi_spread(p, n_per_input)
    mean_ok = np.abs(mean - expected) <= mc_bound(p, n_per_input, trials)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = std / sigma
    std_ok = (std >= 0.0) & (~std_checkable(p, n_per_input, trials)
                             | ((ratio >= 1.0 / STD_RATIO) & (ratio <= STD_RATIO)))
    return (np.where(exact, mean == expected, mean_ok),
            np.where(exact, std == 0.0, std_ok))


def _parse_csv(text: str, header: list[str]) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        raise ValueError(f"header {rows[0] if rows else None!r} is not {header!r}")
    return rows[1:]


def check_sweep(cfg: dict, text: str):
    grid = time_grid(cfg)
    n = grid.size
    try:
        rows = _parse_csv(text, SWEEP_HEADER)
        if len(rows) != n:
            raise ValueError(f"{len(rows)} rows for a {n}-point grid")
        data = np.array([[float(v) for v in row[:6]] for row in rows])
        schemes = {row[6] for row in rows}
    except (ValueError, IndexError) as exc:
        return n, n, [f"sweep output unreadable: {exc}"]
    t, kappa, conc, theory, mc_mean, mc_std = data.T
    p = reference.born_table(t, t, cfg["scheme"], **_channel(cfg))
    expected = np.maximum(reference.mutual_information(p) - cfg["s"], 0.0)

    other = {
        "t_a off the grid": np.abs(t - grid) > TOL_KAPPA,
        "kappa_abs off the reference": np.abs(kappa - reference.kappa_abs(t, cfg["c_aa"]))
        > TOL_KAPPA,
        "concurrence differs from kappa_abs": np.abs(conc - kappa) > TOL_CONCURRENCE,
    }
    mean_ok, std_ok = _monte_carlo_ok(p, mc_mean, mc_std, expected, cfg["n_per_input"],
                                      cfg["trials"])
    other["mi_mc_mean outside its Monte Carlo bound"] = ~mean_ok
    other["mi_mc_std off the delta-method sigma"] = ~std_ok
    theory_miss = np.abs(theory - expected) > TOL_THEORY
    problems = [f"{what}: {int(bad.sum())} rows, first at t_a={float(t[bad][0])!r}"
                for what, bad in other.items() if bad.any()]
    if schemes != {cfg["scheme"]}:
        problems.append(f"scheme column {sorted(schemes)} is not {cfg['scheme']}")
    failed = int(theory_miss.sum())
    if failed and not closed_form_known_wrong(cfg):
        problems.append(f"mi_theory off the reference in the closed form's exact regime: "
                        f"{failed} rows, first at t_a={float(t[theory_miss][0])!r}")
    return n, failed, problems


def check_mc(cfg: dict, text: str):
    try:
        (row,) = _parse_csv(text, ["kappa_abs", "mi_theory", "mi_mc_mean", "mi_mc_std"])
        kappa, theory, mc_mean, mc_std = (float(v) for v in row)
    except ValueError as exc:
        return 1, 1, [f"mc output unreadable: {exc}"]
    t = cfg["t_a"]
    p = reference.born_table(t, t, cfg["scheme"], **_channel(cfg))
    expected = max(float(reference.mutual_information(p)[0]) - cfg["s"], 0.0)
    problems = []
    if abs(kappa - float(reference.kappa_abs(t, cfg["c_aa"]))) > TOL_KAPPA:
        problems.append(f"mc kappa_abs {kappa!r} off the reference")
    mean_ok, std_ok = _monte_carlo_ok(p, np.array([mc_mean]), np.array([mc_std]), expected,
                                      cfg["n_per_input"], cfg["trials"])
    if not mean_ok[0]:
        problems.append(f"mc mi_mc_mean {mc_mean!r} outside its bound around {expected!r}")
    if not std_ok[0]:
        problems.append(f"mc mi_mc_std {mc_std!r} off the delta-method sigma")
    failed = int(abs(theory - expected) > TOL_THEORY)
    if failed and not closed_form_known_wrong(cfg):
        problems.append(f"mc mi_theory {theory!r} is not {expected!r}")
    return 1, failed, problems


def check_show(cfg: dict, text: str):
    values = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            values[key] = value
    grid = time_grid(cfg)
    ends = {"first": grid[0], "last": grid[-1]}
    problems = []
    try:
        for key in ("k", "c_aa", "c_bb", "s"):
            if float(values[key]) != cfg[key]:
                problems.append(f"show echoes {key} = {values[key]}, not {cfg[key]!r}")
        for key in ("scheme", "noise_order", "n_per_input", "trials", "seed"):
            if values[key] != str(cfg[key]):
                problems.append(f"show echoes {key} = {values[key]}, not {cfg[key]}")
        shown = np.array([float(v) for v in values["time_grid"].split(",")])
        if shown.shape != grid.shape or np.any(np.abs(shown - grid) > TOL_KAPPA):
            problems.append("show time_grid differs from the configured grid")
        theory_miss = 0
        for tag, t in ends.items():
            kappa = float(values[f"kappa_abs_{tag}"])
            if abs(kappa - float(reference.kappa_abs(t, cfg["c_aa"]))) > TOL_KAPPA:
                problems.append(f"show kappa_abs_{tag} {kappa!r} off the reference")
            p = reference.born_table(t, t, cfg["scheme"], **_channel(cfg))
            expected = max(float(reference.mutual_information(p)[0]) - cfg["s"], 0.0)
            theory_miss |= abs(float(values[f"mi_theory_{tag}"]) - expected) > TOL_THEORY
    except (KeyError, ValueError) as exc:
        return 1, 1, [f"show output unreadable: {exc!r}"]
    if theory_miss and not closed_form_known_wrong(cfg):
        problems.append("show mi_theory off the reference")
    return 1, int(theory_miss), problems


def _fit_rss(expect: dict, k: float, s: float) -> float:
    t = reference.time_for_kappa(expect["kappa_abs"])
    model = reference.mutual_information(reference.born_table(t, t, "FOUR_STATE", k=k))
    return float(((np.maximum(model - s, 0.0) - expect["mi"]) ** 2).sum())


def check_fit(expect: dict, text: str):
    try:
        (row,) = _parse_csv(text, ["k_hat", "s_hat", "rss", "n_points"])
        k_hat, s_hat, rss = (float(v) for v in row[:3])
        n_points = int(row[3])
    except ValueError as exc:
        return 1, 1, [f"fit output unreadable: {exc}"]
    problems = []
    if abs(k_hat - expect["k"]) > FIT_TOL_K or abs(s_hat - expect["s"]) > FIT_TOL_S:
        problems.append(f"fit ({k_hat!r}, {s_hat!r}) misses the generating "
                        f"({expect['k']!r}, {expect['s']!r})")
    if n_points != len(expect["mi"]):
        problems.append(f"fit reports {n_points} points, not {len(expect['mi'])}")
    rss_here = _fit_rss(expect, k_hat, s_hat)
    if abs(rss - rss_here) > 1e-9 + 1e-6 * rss_here:
        problems.append(f"fit rss {rss!r} is not the RSS at its own optimum, {rss_here!r}")
    return 1, 0, problems


def check_tomo(expect: dict, text: str, stdout: str):
    try:
        printed = float(stdout.strip().removeprefix("concurrence = "))
        rows = [line.split() for line in text.strip().splitlines()]
        rho = np.array([[complex(tok) for tok in row] for row in rows])
        if rho.shape != (4, 4):
            raise ValueError(f"matrix of shape {rho.shape}")
    except ValueError as exc:
        return 1, 1, [f"tomo output unreadable: {exc}"]
    if not reference.density_matrix_is_valid(rho):
        return 1, 1, ["tomo wrote an invalid density matrix"]
    problems = []
    fid = reference.fidelity(expect["rho"], rho)
    if fid < TOMO_MIN_FIDELITY:
        problems.append(f"tomo fidelity {fid:.4f} to the generating state is below "
                        f"{TOMO_MIN_FIDELITY}")
    conc = reference.concurrence(rho)
    if abs(printed - conc) > TOL_TOMO_CONCURRENCE:
        problems.append(f"tomo prints concurrence {printed!r}; its matrix has {conc!r}")
    return 1, 0, problems


def check(command, stdout: str, out_text: str):
    """Check one command's output; see the module docstring."""
    if command.kind == "sweep":
        return check_sweep(command.expect, out_text)
    if command.kind == "mc":
        return check_mc(command.expect, out_text)
    if command.kind == "show":
        return check_show(command.expect, out_text)
    if command.kind == "fit":
        return check_fit(command.expect, out_text)
    return check_tomo(command.expect, out_text, stdout)


def expected_operations(command) -> int:
    return time_grid(command.expect).size if command.kind == "sweep" else 1
