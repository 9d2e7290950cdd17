"""The package's eight frozen records keep the behaviour they had as frozen
dataclasses: repr, signature, equality and hashing over the fields,
immutability, defaults, and a construction hook looked up on the class
(which the benchmark's tracer patches).  A call that gives every field in
order skips ``inspect.Signature.bind``; a bad call raises its ``TypeError``,
prefixed with the class name."""

import inspect

import pytest

from densecoding.config import RunConfig
from densecoding.environment import DephasingTimes, JointSpectrum
from densecoding.experiment import CountTable, FitResult, SweepRow
from densecoding.protocol import ConditionalTable, EncodingScheme, NoiseOrder, SchemeVariant
from densecoding.states import BellLabel

PHI_P, PHI_M, PSI_P = BellLabel.PHI_PLUS, BellLabel.PHI_MINUS, BellLabel.PSI_PLUS
BELL_REPR = {PHI_P: "<BellLabel.PHI_PLUS: 'PHI_PLUS'>",
             PHI_M: "<BellLabel.PHI_MINUS: 'PHI_MINUS'>",
             PSI_P: "<BellLabel.PSI_PLUS: 'PSI_PLUS'>"}
LABELS = (f"inputs=({BELL_REPR[PHI_P]}, {BELL_REPR[PSI_P]}), "
          f"outputs=({BELL_REPR[PHI_P]}, {BELL_REPR[PHI_M]})")
FOUR = ("EncodingScheme(variant=<SchemeVariant.FOUR_STATE: 'FOUR_STATE'>, "
        "priors=(0.25, 0.25, 0.25, 0.25))")

# Per record: its arguments, arguments that differ in one field, and the
# repr and signature it had as a frozen dataclass.
RECORDS = {
    JointSpectrum: (
        (2.0, 0.75, 1.5, -0.5, 1.0), (2.0, 0.75, 1.5, -0.25, 1.0),
        "JointSpectrum(omega0=2.0, c_aa=0.75, c_bb=1.5, k=-0.5, delta_n=1.0)",
        "(omega0: 'float' = 2.0, c_aa: 'float' = 1.0, c_bb: 'float' = 1.0, k: 'float' = -1.0, "
        "delta_n: 'float' = 1.0) -> None"),
    DephasingTimes: (
        (0.5, 1.25), (0.5, 1.5),
        "DephasingTimes(t_a=0.5, t_b=1.25)",
        "(t_a: 'float', t_b: 'float') -> None"),
    EncodingScheme: (
        (SchemeVariant.FOUR_STATE, (0.125, 0.125, 0.25, 0.5)), (SchemeVariant.FOUR_STATE,),
        "EncodingScheme(variant=<SchemeVariant.FOUR_STATE: 'FOUR_STATE'>, "
        "priors=(0.125, 0.125, 0.25, 0.5))",
        "(variant: 'SchemeVariant', priors: 'tuple[float, ...]' = ()) -> None"),
    ConditionalTable: (
        ((PHI_P, PSI_P), (PHI_P, PHI_M), [[0.75, 0.25], [0.5, 0.5]]),
        ((PHI_P, PSI_P), (PHI_P, PHI_M), [[1.0, 0.0], [0.5, 0.5]]),
        f"ConditionalTable({LABELS}, p_y_given_x=array([[0.75, 0.25],\n       [0.5 , 0.5 ]]))",
        "(inputs: 'tuple[BellLabel, ...]', outputs: 'tuple[BellLabel, ...]', "
        "p_y_given_x: 'np.ndarray') -> None"),
    RunConfig: (
        (JointSpectrum(), EncodingScheme(SchemeVariant.FOUR_STATE), (0.0, 0.5), 0.0, 100, 10, 7,
         NoiseOrder.NOISE_AFTER_ENCODING, ""),
        (JointSpectrum(), EncodingScheme(SchemeVariant.FOUR_STATE), (0.0, 0.5), 0.0, 100, 10, 8,
         NoiseOrder.NOISE_AFTER_ENCODING, ""),
        "RunConfig(spectrum=JointSpectrum(omega0=2.0, c_aa=1.0, c_bb=1.0, k=-1.0, delta_n=1.0), "
        f"scheme={FOUR}, time_grid=(0.0, 0.5), s=0.0, n_per_input=100, trials=10, seed=7, "
        "noise_order=<NoiseOrder.NOISE_AFTER_ENCODING: 'NOISE_AFTER_ENCODING'>, output_path='')",
        "(spectrum: 'JointSpectrum', scheme: 'EncodingScheme', time_grid: 'tuple[float, ...]', "
        "s: 'float', n_per_input: 'int', trials: 'int', seed: 'int', noise_order: 'NoiseOrder', "
        "output_path: 'str') -> None"),
    CountTable: (
        ((PHI_P, PSI_P), (PHI_P, PHI_M), [[3, 1], [0, 4]], 4),
        ((PHI_P, PSI_P), (PHI_P, PHI_M), [[4, 0], [0, 4]], 4),
        f"CountTable({LABELS}, counts=array([[3, 1],\n       [0, 4]]), n_per_input=4)",
        "(inputs: 'tuple[BellLabel, ...]', outputs: 'tuple[BellLabel, ...]', "
        "counts: 'np.ndarray', n_per_input: 'int') -> None"),
    SweepRow: (
        (0.5, 0.25, 0.75, 1.25, 1.1875, 0.0625, SchemeVariant.THREE_STATE),
        (0.5, 0.25, 0.75, 1.25, 1.1875, 0.0625, SchemeVariant.FOUR_STATE),
        "SweepRow(t_a=0.5, kappa_abs=0.25, concurrence=0.75, mi_theory=1.25, mi_mc_mean=1.1875, "
        "mi_mc_std=0.0625, scheme=<SchemeVariant.THREE_STATE: 'THREE_STATE'>)",
        "(t_a: 'float', kappa_abs: 'float', concurrence: 'float', mi_theory: 'float', "
        "mi_mc_mean: 'float', mi_mc_std: 'float', scheme: 'SchemeVariant') -> None"),
    FitResult: (
        (-0.5, 0.125, 0.001, 10), (-0.5, 0.125, 0.001, 11),
        "FitResult(k_hat=-0.5, s_hat=0.125, residual_sum_squares=0.001, n_points=10)",
        "(k_hat: 'float', s_hat: 'float', residual_sum_squares: 'float', n_points: 'int') -> None"),
}
ARRAY_RECORDS = (ConditionalTable, CountTable)

each_record = pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)


def fields(cls):
    return tuple(inspect.signature(cls).parameters)


@each_record
def test_repr_and_signature(cls):
    args, _, expected_repr, expected_signature = RECORDS[cls]
    assert repr(cls(*args)) == expected_repr
    assert str(inspect.signature(cls)) == expected_signature
    assert cls.__match_args__ == fields(cls)


@each_record
def test_keywords_bind_as_positions_do(cls):
    args = RECORDS[cls][0]
    record = cls(**dict(zip(fields(cls), args)))
    assert repr(record) == repr(cls(*args))
    # The instance holds the fields alone, in order: cls(**{**vars(r), f: x})
    # gives a copy of r with field f replaced.
    assert tuple(vars(record)) == fields(cls)
    assert repr(cls(**vars(record))) == repr(record)


@each_record
def test_equality_and_hash_over_the_fields(cls):
    args, other_args, _, _ = RECORDS[cls]
    record, twin, other = cls(*args), cls(*args), cls(*other_args)
    assert record == record
    values = tuple(getattr(record, name) for name in fields(cls))
    assert record != values
    assert all(record != cls2(*RECORDS[cls2][0]) for cls2 in RECORDS if cls2 is not cls)
    if cls in ARRAY_RECORDS:
        # The field tuples compare arrays, whose truth value numpy refuses.
        with pytest.raises(ValueError, match="ambiguous"):
            record == twin
        with pytest.raises(TypeError, match="unhashable type: 'numpy.ndarray'"):
            hash(record)
    else:
        assert record == twin and hash(record) == hash(twin) == hash(values)
        assert record != other


@each_record
@pytest.mark.parametrize("name", ["first field", "other"])
def test_assignment_and_deletion_raise(cls, name):
    record = cls(*RECORDS[cls][0])
    name = fields(cls)[0] if name == "first field" else name
    before = repr(record)
    with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
        setattr(record, name, 1.0)
    with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
        delattr(record, name)
    assert repr(record) == before


@each_record
def test_argument_errors(cls):
    args, names = RECORDS[cls][0], fields(cls)
    where = rf"^{cls.__name__}\(\) "
    with pytest.raises(TypeError, match=where + "got an unexpected keyword argument 'bogus'$"):
        cls(*args, bogus=1)
    with pytest.raises(TypeError, match=where + f"multiple values for argument '{names[0]}'$"):
        cls(*args, **{names[0]: args[0]})
    with pytest.raises(TypeError, match=where + "too many positional arguments$"):
        cls(*args, None)


@pytest.mark.parametrize("call, message", [
    (lambda: DephasingTimes(), "DephasingTimes() missing a required argument: 't_a'"),
    (lambda: DephasingTimes(1.0), "DephasingTimes() missing a required argument: 't_b'"),
    (lambda: FitResult(1.0, n_points=1), "FitResult() missing a required argument: 's_hat'"),
    (lambda: SweepRow(1.0, 2.0), "SweepRow() missing a required argument: 'concurrence'"),
    (lambda: EncodingScheme(), "EncodingScheme() missing a required argument: 'variant'"),
    (lambda: JointSpectrum(1, 2, 3, 4, 5, 6), "JointSpectrum() too many positional arguments"),
    (lambda: EncodingScheme(SchemeVariant.THREE_STATE, (), 3),
     "EncodingScheme() too many positional arguments"),
    (lambda: DephasingTimes(1.0, 2.0, 3.0), "DephasingTimes() too many positional arguments"),
    # A keyword that repeats a positional field is named before the surplus.
    (lambda: DephasingTimes(1.0, 2.0, 3.0, t_a=1.0),
     "DephasingTimes() multiple values for argument 't_a'"),
    (lambda: DephasingTimes(1.0, 2.0, 3.0, x=1.0),
     "DephasingTimes() too many positional arguments"),
    # Keywords that are not the remaining fields in order keep the bind wording.
    (lambda: DephasingTimes(t_b=2.0), "DephasingTimes() missing a required argument: 't_a'"),
    (lambda: DephasingTimes(t_a=1.0, t_b=2.0, x=3.0),
     "DephasingTimes() got an unexpected keyword argument 'x'"),
    (lambda: DephasingTimes(1.0, t_a=1.0, t_b=2.0),
     "DephasingTimes() multiple values for argument 't_a'"),
    (lambda: DephasingTimes(1.0, 2.0, t_b=2.0),
     "DephasingTimes() multiple values for argument 't_b'"),
    (lambda: FitResult(k_hat=1.0, s_hat=0.0, residual_sum_squares=0.0),
     "FitResult() missing a required argument: 'n_points'"),
])
def test_argument_error_messages(call, message):
    with pytest.raises(TypeError) as info:
        call()
    assert str(info.value) == message


@each_record
def test_every_field_in_order_skips_the_signature(cls, monkeypatch):
    calls = []
    bind = inspect.Signature.bind
    monkeypatch.setattr(inspect.Signature, "bind",
                        lambda *args, **kwargs: calls.append(1) or bind(*args, **kwargs))
    args = RECORDS[cls][0]
    by_name = dict(zip(fields(cls), args))
    expected = repr(cls(*args))
    # By position, by keyword in declaration order, or positions then the rest in order.
    assert repr(cls(**by_name)) == expected
    assert repr(cls(args[0], **dict(list(by_name.items())[1:]))) == expected
    assert calls == []
    # Keywords out of order, and a field left to its default, are bound.
    assert repr(cls(**dict(reversed(by_name.items())))) == expected
    assert calls == [1]
    if cls is JointSpectrum:
        assert cls(omega0=2.0, c_aa=1.0, c_bb=1.0, k=-1.0) == cls(2.0, 1.0, 1.0, -1.0, 1.0)
        assert calls == [1, 1]


def test_defaults():
    assert JointSpectrum() == JointSpectrum(2.0, 1.0, 1.0, -1.0, 1.0)
    assert JointSpectrum(k=-0.5) == JointSpectrum(2.0, 1.0, 1.0, -0.5, 1.0)
    assert EncodingScheme(SchemeVariant.THREE_STATE).priors == (1 / 3,) * 3
    assert EncodingScheme(SchemeVariant.FOUR_STATE) == EncodingScheme(SchemeVariant.FOUR_STATE,
                                                                      (0.25,) * 4)


def test_pattern_matching_by_position():
    match DephasingTimes(0.5, 1.25):
        case DephasingTimes(t_a, t_b):
            assert (t_a, t_b) == (0.5, 1.25)
        case _:
            pytest.fail("no match")


@pytest.mark.parametrize("cls", [cls for cls in RECORDS if "__post_init__" in vars(cls)],
                         ids=lambda cls: cls.__name__)
def test_construction_calls_the_hook_on_the_class(cls, monkeypatch):
    calls = []
    hook = vars(cls)["__post_init__"]
    monkeypatch.setattr(cls, "__post_init__", lambda self: calls.append(hook(self)))
    cls(*RECORDS[cls][0])
    assert calls == [None]
