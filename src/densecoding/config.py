"""Flat key = value run configuration shared by all command-line entry points.

One pair per line, ``#`` starts a comment, keys are case-sensitive and
every unset key takes a documented default.  The time grid is given either
as ``t_start``/``t_stop``/``t_step`` or as an explicit comma list
``t_list`` (the explicit list wins when both are present).
"""

from __future__ import annotations

import math

from .environment import JointSpectrum
from .protocol import EncodingScheme, NoiseOrder, SchemeVariant
from .states import _frozen_record

__all__ = ["ConfigError", "RunConfig", "parse_config"]

CONFIG_DEFAULTS = {
    "omega0": "2",
    "c_aa": "1",
    "c_bb": "1",
    "k": "-1",
    "delta_n": "1",
    "s": "0",
    "n_per_input": "10000",
    "trials": "1000",
    "seed": "42",
    "scheme": "THREE_STATE",
    "noise_order": "NOISE_BEFORE_ENCODING",
    "t_start": "0",
    "t_stop": "2",
    "t_step": "0.1",
    "t_list": "",
    "priors": "",
    "output_path": "",
}

# Most points a t_start/t_stop/t_step range may give (the grid alone holds ~0.3 GB).
_MAX_TIME_POINTS = 10**7

_FLOAT_KEYS = {"omega0", "c_aa", "c_bb", "k", "delta_n", "s", "t_start", "t_stop", "t_step"}
_INT_KEYS = {"n_per_input", "trials", "seed"}


class ConfigError(ValueError):
    """Configuration problem, reported with the offending key and location."""


@_frozen_record
class RunConfig:
    """Fully resolved, validated run parameters."""

    spectrum: JointSpectrum
    scheme: EncodingScheme
    time_grid: tuple[float, ...]
    s: float
    n_per_input: int
    trials: int
    seed: int
    noise_order: NoiseOrder
    output_path: str


def tokenize_config(text: str) -> list[tuple[str, str, str]]:
    """Split config text into (key, value, location) triples."""
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        pairs.append((key, value, f"line {lineno}"))
    return pairs


def _parse_float(key: str, value: str, where: str) -> float:
    try:
        out = float(value)
    except ValueError:
        raise ConfigError(f"{where}: key {key!r}: malformed number {value!r}") from None
    if not math.isfinite(out):
        raise ConfigError(f"{where}: key {key!r}: value must be finite, got {value!r}")
    return out


def _parse_int(key: str, value: str, where: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{where}: key {key!r}: malformed integer {value!r}") from None


def _parse_choice(key: str, value: str, where: str, choices: type):
    try:
        return choices(value)
    except ValueError:
        names = " or ".join(member.value for member in choices)
        raise ConfigError(f"{where}: key {key!r}: expected {names}, got {value!r}") from None


def build_config(pairs: list[tuple[str, str, str]]) -> RunConfig:
    """Resolve key/value pairs (later occurrences win) into a RunConfig."""
    values = dict(CONFIG_DEFAULTS)
    where = {key: "default" for key in values}
    for key, value, loc in pairs:
        if key not in CONFIG_DEFAULTS:
            raise ConfigError(f"{loc}: unknown key {key!r}")
        values[key] = value
        where[key] = loc

    floats = {k: _parse_float(k, values[k], where[k]) for k in _FLOAT_KEYS}
    ints = {k: _parse_int(k, values[k], where[k]) for k in _INT_KEYS}

    if not -1.0 <= floats["k"] <= 1.0:
        raise ConfigError(f"{where['k']}: key 'k': value {floats['k']} outside range [-1, 1]")
    for key in ("c_aa", "c_bb"):
        if floats[key] <= 0:
            raise ConfigError(f"{where[key]}: key {key!r}: must be positive, got {floats[key]}")
    if floats["s"] < 0:
        raise ConfigError(f"{where['s']}: key 's': must be non-negative, got {floats['s']}")
    if ints["n_per_input"] <= 0:
        raise ConfigError(f"{where['n_per_input']}: key 'n_per_input': must be positive")
    if ints["trials"] < 2:
        raise ConfigError(f"{where['trials']}: key 'trials': must be at least 2")
    if ints["seed"] < 0:
        raise ConfigError(f"{where['seed']}: key 'seed': must be non-negative")

    spectrum = JointSpectrum(omega0=floats["omega0"], c_aa=floats["c_aa"],
                             c_bb=floats["c_bb"], k=floats["k"], delta_n=floats["delta_n"])
    variant = _parse_choice("scheme", values["scheme"], where["scheme"], SchemeVariant)
    priors: tuple[float, ...] = ()
    if values["priors"]:
        priors = tuple(_parse_float("priors", tok.strip(), where["priors"])
                       for tok in values["priors"].split(","))
    try:
        scheme = EncodingScheme(variant, priors)
    except ValueError as exc:
        raise ConfigError(f"{where['priors']}: key 'priors': {exc}") from None

    noise_order = _parse_choice("noise_order", values["noise_order"], where["noise_order"],
                                NoiseOrder)

    if values["t_list"]:
        grid = tuple(_parse_float("t_list", tok.strip(), where["t_list"])
                     for tok in values["t_list"].split(","))
    else:
        start, stop, step = floats["t_start"], floats["t_stop"], floats["t_step"]
        if step <= 0:
            raise ConfigError(f"{where['t_step']}: key 't_step': must be positive, got {step}")
        if stop < start:
            raise ConfigError(f"{where['t_stop']}: key 't_stop': must be >= t_start")
        count = (stop - start) / step + 1e-9  # the range has floor(count) + 1 points
        if not count < _MAX_TIME_POINTS:
            raise ConfigError(f"{where['t_step']}: key 't_step': {step} gives too many "
                              f"points: {count + 1:.4g} > {_MAX_TIME_POINTS}")
        grid = tuple(start + i * step for i in range(math.floor(count) + 1))
    if any(not math.isfinite(t) or t < 0 for t in grid):
        raise ConfigError("time grid values must be finite and non-negative")

    return RunConfig(spectrum=spectrum, scheme=scheme, time_grid=grid,
                     s=floats["s"], n_per_input=ints["n_per_input"],
                     trials=ints["trials"], seed=ints["seed"],
                     noise_order=noise_order, output_path=values["output_path"])


def parse_config(text: str) -> RunConfig:
    """Parse and validate a configuration document (empty text = all defaults)."""
    return build_config(tokenize_config(text))

