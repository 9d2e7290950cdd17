"""A run's parameters: the records every module takes, and the flat key = value
configuration that sets them.  Loads no numpy, so the command line can parse,
print help and refuse input without it.  Also the error and tolerances of the
density-matrix checks, which both ``states`` and the numpy-free
``tomography`` apply.

One pair per line, ``#`` starts a comment, keys are case-sensitive and every
unset key takes a documented default.  The time grid is given either as
``t_start``/``t_stop``/``t_step`` or as an explicit comma list ``t_list`` (the
explicit list wins when both are present).
"""

from __future__ import annotations

import enum
import inspect
import math

__all__ = [
    "BELL_OUTPUT_ORDER",
    "BellLabel",
    "ConfigError",
    "EncodingScheme",
    "InvariantViolation",
    "JointSpectrum",
    "NoiseOrder",
    "RunConfig",
    "SchemeVariant",
    "parse_config",
]


def _frozen_record(cls: type) -> type:
    """Make ``cls`` an immutable value class over its annotated fields.

    It gets the shared, already compiled methods below rather than ones
    written and compiled per class at import: ``__init__`` binds arguments
    to the fields in order, class-level values being defaults, through
    ``__signature__`` unless every field is given in order (by position, then
    by keyword), then calls the class's ``__post_init__`` if it has one;
    equality, hashing and repr work over the field values; assignment and
    deletion raise ``AttributeError``.
    """
    annotations = vars(cls)["__annotations__"]
    cls.__match_args__ = tuple(annotations)
    cls.__signature__ = inspect.Signature([
        inspect.Parameter(name, inspect.Parameter.POSITIONAL_OR_KEYWORD, annotation=annotation,
                          default=vars(cls).get(name, inspect.Parameter.empty))
        for name, annotation in annotations.items()], return_annotation=None)
    cls.__init__ = _record_init
    cls.__eq__ = _record_eq
    cls.__hash__ = _record_hash
    cls.__repr__ = _record_repr
    cls.__setattr__ = _record_setattr
    cls.__delattr__ = _record_delattr
    return cls


def _record_init(self, *args, **kwargs) -> None:
    cls = type(self)
    fields = cls.__match_args__
    if kwargs and tuple(kwargs) == fields[len(args):]:
        args += tuple(kwargs.values())
    elif kwargs or len(args) != len(fields):
        try:
            bound = cls.__signature__.bind(*args, **kwargs)
        except TypeError as exc:
            raise TypeError(f"{cls.__qualname__}() {exc}") from None
        bound.apply_defaults()
        args = bound.args
    vars(self).update(zip(fields, args))
    post_init = getattr(cls, "__post_init__", None)
    if post_init is not None:
        post_init(self)


def _record_values(self) -> tuple:
    return tuple(getattr(self, name) for name in self.__match_args__)


def _record_eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return _record_values(self) == _record_values(other)


def _record_hash(self) -> int:
    return hash(_record_values(self))


def _record_repr(self) -> str:
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
    return f"{type(self).__qualname__}({fields})"


def _record_setattr(self, name: str, value) -> None:
    raise AttributeError(f"cannot assign to field {name!r}")


def _record_delattr(self, name: str) -> None:
    raise AttributeError(f"cannot delete field {name!r}")


class BellLabel(enum.Enum):
    """The four maximally entangled two-qubit states."""

    PHI_PLUS = "PHI_PLUS"
    PHI_MINUS = "PHI_MINUS"
    PSI_PLUS = "PSI_PLUS"
    PSI_MINUS = "PSI_MINUS"


_ROW_SUM_TOL = 1e-12
_HERMITICITY_TOL = 1e-12
_TRACE_TOL = 1e-12
_EIGENVALUE_FLOOR = -1e-10


class InvariantViolation(ValueError):
    """Raised when a matrix fails the density-matrix checks."""


#: Fixed ordering of measurement outcomes in every conditional table.
BELL_OUTPUT_ORDER = (
    BellLabel.PHI_PLUS,
    BellLabel.PHI_MINUS,
    BellLabel.PSI_PLUS,
    BellLabel.PSI_MINUS,
)


class SchemeVariant(enum.Enum):
    THREE_STATE = "THREE_STATE"
    FOUR_STATE = "FOUR_STATE"


class NoiseOrder(enum.Enum):
    NOISE_BEFORE_ENCODING = "NOISE_BEFORE_ENCODING"
    NOISE_AFTER_ENCODING = "NOISE_AFTER_ENCODING"


_ALPHABETS = {
    SchemeVariant.THREE_STATE: (
        BellLabel.PHI_PLUS, BellLabel.PHI_MINUS, BellLabel.PSI_PLUS),
    SchemeVariant.FOUR_STATE: BELL_OUTPUT_ORDER,
}


@_frozen_record
class EncodingScheme:
    """Alphabet of encoded Bell states with a prior distribution."""

    variant: SchemeVariant
    priors: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        n = len(_ALPHABETS[self.variant])
        priors = self.priors if self.priors else tuple([1.0 / n] * n)
        if len(priors) != n:
            raise ValueError(f"{self.variant.value} needs {n} priors, got {len(priors)}")
        if not all(math.isfinite(p) and p >= 0 for p in priors):
            raise ValueError(f"priors must be finite and non-negative, got {priors}")
        if abs(sum(priors) - 1.0) > _ROW_SUM_TOL:
            raise ValueError(f"priors must sum to 1, got {sum(priors)!r}")
        object.__setattr__(self, "priors", tuple(float(p) for p in priors))

    @property
    def alphabet(self) -> tuple[BellLabel, ...]:
        return _ALPHABETS[self.variant]

    @classmethod
    def three_state(cls, priors: tuple[float, ...] = ()) -> EncodingScheme:
        return cls(SchemeVariant.THREE_STATE, priors)

    @classmethod
    def four_state(cls, priors: tuple[float, ...] = ()) -> EncodingScheme:
        return cls(SchemeVariant.FOUR_STATE, priors)


@_frozen_record
class JointSpectrum:
    """Second moments of the joint two-photon frequency distribution.

    Both marginals have mean ``omega0 / 2``; ``c_aa`` and ``c_bb`` are the
    marginal variances, ``k`` the correlation coefficient and ``delta_n``
    the birefringence difference that couples polarization to frequency.
    """

    omega0: float = 2.0
    c_aa: float = 1.0
    c_bb: float = 1.0
    k: float = -1.0
    delta_n: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.c_aa) and self.c_aa > 0):
            raise ValueError(f"c_aa must be positive, got {self.c_aa}")
        if not (math.isfinite(self.c_bb) and self.c_bb > 0):
            raise ValueError(f"c_bb must be positive, got {self.c_bb}")
        if not (math.isfinite(self.k) and -1.0 <= self.k <= 1.0):
            raise ValueError(f"k must lie in [-1, 1], got {self.k}")
        if not math.isfinite(self.omega0):
            raise ValueError(f"omega0 must be finite, got {self.omega0}")
        if not math.isfinite(self.delta_n):
            raise ValueError(f"delta_n must be finite, got {self.delta_n}")


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
        grid = tuple([start + i * step for i in range(math.floor(count) + 1)])
    if min(grid) < 0 or not math.isfinite(max(grid)):
        raise ConfigError("time grid values must be finite and non-negative")

    return RunConfig(spectrum=spectrum, scheme=scheme, time_grid=grid,
                     s=floats["s"], n_per_input=ints["n_per_input"],
                     trials=ints["trials"], seed=ints["seed"],
                     noise_order=noise_order, output_path=values["output_path"])


def parse_config(text: str) -> RunConfig:
    """Parse and validate a configuration document (empty text = all defaults)."""
    return build_config(tokenize_config(text))

