"""Command-line front end: sweep, mc, fit, tomo and show subcommands.

Data goes to ``--out`` (or the config ``output_path``, or stdout);
diagnostics go to stderr.  Every run with identical inputs and seed
produces byte-identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import math
import os
import sys
from pathlib import Path

# Each command imports the modules it computes with: help and usage errors load no numpy.
from .config import CONFIG_DEFAULTS, ConfigError, RunConfig, build_config, tokenize_config

__all__ = ["main"]


def _load_config(args: argparse.Namespace) -> RunConfig:
    text = Path(args.config).read_text(encoding="utf-8") if args.config else ""
    pairs = tokenize_config(text)
    for key in CONFIG_DEFAULTS:
        override = getattr(args, f"cfg_{key}", None)
        if override is not None:
            pairs.append((key, override, f"command-line flag --{key.replace('_', '-')}"))
    return build_config(pairs)


def _emit(text: str, args: argparse.Namespace, cfg: RunConfig) -> None:
    path = args.out or cfg.output_path
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .experiment import _sweep_csv, _sweep_values

    cfg = _load_config(args)
    # The run_sweep columns, written from the stacked array: no SweepRow per row.
    values = _sweep_values(cfg.spectrum, cfg.time_grid, cfg.scheme, cfg.n_per_input,
                           cfg.trials, cfg.seed, cfg.s, cfg.noise_order).tolist()
    _emit(_sweep_csv(values, [cfg.scheme.variant.value] * len(values)), args, cfg)
    return 0


def _cmd_mc(args: argparse.Namespace) -> int:
    from .environment import DephasingTimes, decoherence_function
    from .experiment import estimate_mi_with_errors
    from .protocol import mutual_information, simulate_protocol

    cfg = _load_config(args)
    spec = cfg.spectrum
    if args.kappa_abs is not None:
        kappa_abs = args.kappa_abs
        # |kappa_A(t)| = exp(-c_aa dn^2 t^2 / 2); kappa_abs = 1 is t = 0 for every dn,
        # and no t reaches a kappa_abs outside (0, 1], or below 1 when dn = 0.
        t = 0.0 if kappa_abs == 1.0 else math.inf
        if 0.0 < kappa_abs < 1.0 and spec.delta_n != 0.0:
            t = math.sqrt(-2.0 * math.log(kappa_abs) / spec.c_aa) / abs(spec.delta_n)
        if not math.isfinite(t):
            raise ValueError(f"kappa_abs must lie in (0, 1], and be 1 when delta_n = 0, so that "
                             f"the stage time sqrt(-2 ln kappa_abs / c_aa) / |delta_n| is finite; "
                             f"got {kappa_abs!r} with delta_n = {spec.delta_n:g} "
                             f"and c_aa = {spec.c_aa:g}")
    else:
        t = args.t_a if args.t_a is not None else cfg.time_grid[-1]
        kappa_abs = abs(decoherence_function(spec, t))
    table = simulate_protocol(spec, DephasingTimes(t, t), cfg.scheme, cfg.noise_order)
    mean, std = estimate_mi_with_errors(table, cfg.scheme, cfg.n_per_input,
                                        cfg.trials, cfg.seed)
    theory = mutual_information(cfg.scheme, table, cfg.s)
    _emit(f"kappa_abs,mi_theory,mi_mc_mean,mi_mc_std\n{kappa_abs:.17g},{theory:.17g},"
          f"{max(0.0, mean - cfg.s):.17g},{std:.17g}\n", args, cfg)
    return 0


def _read_fit_points(path: str) -> list[tuple[float, float]]:
    """Accept either a sweep CSV (kappa_abs / mi_mc_mean columns) or bare
    (kappa_abs, mi) rows with an optional header."""
    import csv

    rows = list(csv.reader(Path(path).read_text(encoding="utf-8").splitlines()))
    rows = [r for r in rows if r]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    header = rows[0]
    if "kappa_abs" in header:
        k_col = header.index("kappa_abs")
        if "mi_mc_mean" in header:
            m_col = header.index("mi_mc_mean")
        elif "mi" in header:
            m_col = header.index("mi")
        else:
            raise ValueError(f"{path}: no mi or mi_mc_mean column next to kappa_abs")
        data = rows[1:]
    else:
        k_col, m_col = 0, 1
        data = rows
    points = []
    for row in data:
        try:
            points.append((float(row[k_col]), float(row[m_col])))
        except (ValueError, IndexError):
            raise ValueError(f"{path}: malformed data row {row!r}") from None
    return points


def _cmd_fit(args: argparse.Namespace) -> int:
    from .experiment import fit_k_s, fit_result_to_csv

    cfg = _load_config(args)
    points = _read_fit_points(args.input_path)
    spec = cfg.spectrum
    result = fit_k_s(points, cfg.scheme, spec.c_bb / spec.c_aa, cfg.noise_order)
    _emit(fit_result_to_csv(result), args, cfg)
    return 0


def _cmd_tomo(args: argparse.Namespace) -> int:
    from .tomography import concurrence, matrix_text, reconstruct  # no numpy

    cfg = _load_config(args)
    text = Path(args.input_path).read_text(encoding="utf-8")
    tokens = text.replace(",", " ").split()
    try:
        counts = [float(tok) for tok in tokens]
    except ValueError:
        raise ValueError(f"{args.input_path}: counts must be numeric") from None
    if len(counts) != 16:
        raise ValueError(f"{args.input_path}: expected 16 counts, got {len(counts)}")
    n = args.n_per_projector if args.n_per_projector is not None else cfg.n_per_input
    rho, vals, vecs = reconstruct(counts, n)  # the one check of the state
    sys.stdout.write(f"concurrence = {concurrence(vals, vecs):.17g}\n")
    path = args.out or cfg.output_path
    if path:
        Path(path).write_text(matrix_text(rho), encoding="utf-8")
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    from .environment import DephasingTimes, decoherence_function
    from .protocol import mutual_information, simulate_protocol

    cfg = _load_config(args)
    spec = cfg.spectrum
    lines = [
        f"omega0 = {spec.omega0:.17g}",
        f"c_aa = {spec.c_aa:.17g}",
        f"c_bb = {spec.c_bb:.17g}",
        f"k = {spec.k:.17g}",
        f"delta_n = {spec.delta_n:.17g}",
        f"s = {cfg.s:.17g}",
        f"n_per_input = {cfg.n_per_input}",
        f"trials = {cfg.trials}",
        f"seed = {cfg.seed}",
        f"scheme = {cfg.scheme.variant.value}",
        f"noise_order = {cfg.noise_order.value}",
        f"priors = {','.join(f'{p:.17g}' for p in cfg.scheme.priors)}",
        f"time_grid = {','.join(f'{t:.17g}' for t in cfg.time_grid)}",
        f"output_path = {cfg.output_path}",
    ]
    for tag, t in (("first", cfg.time_grid[0]), ("last", cfg.time_grid[-1])):
        kappa_abs = abs(decoherence_function(spec, t))
        table = simulate_protocol(spec, DephasingTimes(t, t), cfg.scheme, cfg.noise_order)
        theory = mutual_information(cfg.scheme, table, cfg.s)
        lines.append(f"kappa_abs_{tag} = {kappa_abs:.17g}")
        lines.append(f"mi_theory_{tag} = {theory:.17g}")
    _emit("\n".join(lines) + "\n", args, cfg)
    return 0


# One override flag per config key a command reads; --out sets the output path.
_RUN_KEYS = tuple(key for key in CONFIG_DEFAULTS if key != "output_path")
# Per command: its function, help line, override keys and own flags.  Both parsers read it.
_COMMANDS = {
    "sweep": (_cmd_sweep, "mutual-information sweep CSV over the time grid", _RUN_KEYS, {}),
    "mc": (_cmd_mc, "single-point Monte Carlo MI estimate with error bar", _RUN_KEYS, {
        "--kappa-abs": dict(type=float, metavar="X",
                            help="coherence magnitude of the shared state (overrides --t-a)"),
        "--t-a": dict(type=float, metavar="T",
                      help="noise duration; defaults to the last grid point")}),
    "fit": (_cmd_fit, "least-squares (k, s) fit from a CSV of points",
            ("c_aa", "c_bb", "scheme", "noise_order", "priors"), {
        "--in": dict(dest="input_path", required=True, metavar="PATH",
                     help="CSV of (kappa_abs, mi) points or a sweep CSV")}),
    "tomo": (_cmd_tomo, "reconstruct a state from 16 projector counts", (), {
        "--in": dict(dest="input_path", required=True, metavar="PATH",
                     help="file with 16 counts (whitespace or comma separated)"),
        "--n-per-projector": dict(type=int, metavar="N",
                                  help="shots per projector; defaults to n_per_input")}),
    "show": (_cmd_show, "echo the resolved configuration and derived values", _RUN_KEYS, {}),
}


def _add_flags(parser: argparse.ArgumentParser, name: str, named: set[str] | None = None) -> None:
    """The command's flags in help order; of its override flags, only those in named, if given."""
    func, _, keys, own = _COMMANDS[name]
    parser.set_defaults(command=name, func=func)
    parser.add_argument("--config", metavar="PATH", help="run configuration file")
    parser.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
    for key in keys:
        flag = "--" + key.replace("_", "-")
        if named is None or flag in named:
            parser.add_argument(flag, dest=f"cfg_{key}", metavar="VALUE",
                                help=f"override config key {key}")
    for flag, kwargs in own.items():
        parser.add_argument(flag, **kwargs)


def _build_parser() -> argparse.ArgumentParser:
    """All five subcommands with every flag: the parser of help, usage and error text."""
    # No abbreviations: a prefix would turn a flag the command lacks into another.
    parser = argparse.ArgumentParser(
        prog="densecoding", allow_abbrev=False,
        description="Dense-coding simulator over correlated dephasing environments.")
    subs = parser.add_subparsers(dest="command")
    for name, (_, help_text, _, _) in _COMMANDS.items():
        _add_flags(subs.add_parser(name, help=help_text, allow_abbrev=False), name)
    return parser


class _RunParser(argparse.ArgumentParser):
    """A command's parser with no help and only the override flags its argv names
    (before any "="): with no abbreviations, no other flag can change how argv
    parses.  It raises where argparse would print, and main then asks _build_parser."""

    _metavar_check = argparse.HelpFormatter("densecoding", width=80)  # no terminal read

    def error(self, message: str):
        raise argparse.ArgumentError(None, message)

    def _get_formatter(self) -> argparse.HelpFormatter:  # add_argument's check of a metavar
        return self._metavar_check


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = None
    if argv and argv[0] in _COMMANDS:
        parser = _RunParser(prog="densecoding", add_help=False, allow_abbrev=False)
        _add_flags(parser, argv[0], {arg.split("=", 1)[0] for arg in argv})
        with contextlib.suppress(argparse.ArgumentError):  # a refusal leaves args None
            args = parser.parse_args(argv[1:])
    if args is None:
        parser = _build_parser()  # the only source of help, usage and error text
        args = parser.parse_args(argv)
        if args.command is None:  # checked here, not by argparse, so an unknown flag is named
            parser.error("the following arguments are required: command")
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _process_main() -> int:
    """:func:`main` as the whole of a process (the ``densecoding`` script or
    ``python -m densecoding.cli``).  The heap is frozen before the command and
    again after it, with numpy and what else it imported: a frozen object is never
    walked again by a collection, in the run or at exit; refcounting still frees it."""
    # One BLAS thread unless the user set a count: BLAS reads these once, when numpy
    # loads it, and never splits the package's 4 x 4 stacks, so extra threads spin.
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(variable, "1")
    gc.freeze()
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(_process_main())
