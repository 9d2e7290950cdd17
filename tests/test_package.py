"""The lazy package namespace and its lookup order, what each command's
process imports, the command line's BLAS thread default and import-heap
freeze, the bytes of the process route, the demos and README's quick start,
each checked in fresh interpreters where import order matters."""

import ast
import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import densecoding

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(densecoding.__file__).resolve().parents[1]
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SUBMODULES = ("cli", "config", "environment", "experiment", "protocol", "states", "tomography")
LOOKUP_ORDER = ("config", "states", "environment", "protocol", "experiment")

PUBLIC_NAMES = [
    "BELL_OUTPUT_ORDER", "BellLabel", "ConditionalTable", "ConfigError",
    "CountTable", "DephasingTimes", "EncodingScheme", "FitResult",
    "InvariantViolation", "JointSpectrum", "NoiseOrder", "PAULI_FOR_BELL",
    "Party", "PauliLabel", "RunConfig", "SECTOR_PARTNER", "SchemeVariant",
    "SweepRow", "apply_pauli", "bell_state", "binary_entropy",
    "capacity_bob_noise", "capacity_from_non_markovianity",
    "capacity_pre_encoding", "closed_form_mi", "closed_form_mi3",
    "closed_form_mi4", "concurrence", "conditional_probabilities",
    "decoherence_function", "dense_coding_capacity", "dephasing_mask",
    "density_matrix_from_text", "density_matrix_to_text",
    "effective_visibility", "estimate_mi_with_errors", "evolve_pre_encoding",
    "expected_tomography_counts", "fidelity", "fit_k_s", "fit_result_to_csv",
    "mutual_information", "non_markovianity", "parse_config", "partial_trace",
    "reconstruct_linear_inversion", "run_sweep", "sample_counts",
    "simulate_protocol", "sweep_rows_to_csv", "tomography_counts",
    "validate_density_matrix", "von_neumann_entropy",
]


# (kappa_abs, mi) points for fit, and 16 tomography counts of 100 shots each.
FIT_POINTS = "kappa_abs,mi\n0.2,0.31\n0.4,0.58\n0.6,0.87\n0.8,1.21\n0.95,1.52\n"
TOMO_COUNTS = "50 0 25 25 0 50 25 25 25 25 9 41 25 25 41 9\n"


def run_python(*args, **env_changes):
    """Run a fresh interpreter that finds the package; its stdout."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(env_changes)
    proc = subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestLazyPackage:
    def test_import_loads_no_numpy(self):
        out = run_python("-c", "import sys, densecoding; print(sorted(m for m in sys.modules "
                         "if m.split('.')[0] in ('numpy', 'densecoding')))")
        assert out.split() == ["['densecoding']"]

    def test_public_names_are_unchanged(self):
        # The eager package's 58 names in sorted order, less the regime
        # predicate that mc and fit no longer need.
        assert len(set(PUBLIC_NAMES)) == 53
        assert densecoding.__all__ == sorted(PUBLIC_NAMES)

    def test_each_name_is_its_submodules_object(self):
        modules = [importlib.import_module(f"densecoding.{m}") for m in SUBMODULES]
        for name in PUBLIC_NAMES:
            owners = [m for m in modules if name in getattr(m, "__all__", ())]
            assert len(owners) == 1, name
            assert getattr(densecoding, name) is getattr(owners[0], name)
            assert name in dir(densecoding)

    @pytest.mark.parametrize("module, name", [
        ("environment", "JointSpectrum"), ("protocol", "BELL_OUTPUT_ORDER"),
        ("protocol", "EncodingScheme"), ("protocol", "NoiseOrder"), ("protocol", "SchemeVariant"),
        ("states", "BellLabel"), ("states", "InvariantViolation"),
        ("experiment", "expected_tomography_counts"),
        ("experiment", "reconstruct_linear_inversion"), ("experiment", "tomography_counts"),
    ])
    def test_a_moved_name_keeps_its_old_path(self, module, name):
        assert getattr(importlib.import_module(f"densecoding.{module}"), name) is getattr(
            densecoding, name)

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from densecoding import *", namespace)
        assert set(PUBLIC_NAMES) <= set(namespace)
        assert all(namespace[name] is getattr(densecoding, name) for name in PUBLIC_NAMES)

    def test_submodules_resolve_after_a_bare_import(self):
        out = run_python("-c", "import densecoding\n"
                         f"for m in {SUBMODULES!r}: print(getattr(densecoding, m).__name__)")
        assert out.split() == [f"densecoding.{m}" for m in SUBMODULES]

    def test_fit_loads_no_numpy_ma(self, tmp_path):
        points = tmp_path / "points.csv"
        points.write_text(FIT_POINTS, encoding="utf-8")
        out = run_python("-c", "import sys, densecoding.cli\n"
                         f"assert densecoding.cli.main(['fit', '--in', {str(points)!r}]) == 0\n"
                         "print('numpy.ma' in sys.modules)")
        assert out.splitlines()[-1] == "False"

    @pytest.mark.parametrize("route", ["import", "python -m", "script"])
    def test_cli_loads_no_dataclasses(self, route):
        # The records are built without dataclasses' per-class code generation.
        out = run_python("-c", "import atexit, sys\n"
                         "atexit.register(lambda: print('dataclasses' in sys.modules))\n"
                         "sys.argv = ['densecoding', 'show']\n"
                         + ROUTES.get(route, "import densecoding.cli"))
        assert out.splitlines()[-1] == "False"

    @pytest.mark.parametrize("name, loaded", [
        ("concurrence", ["config", "states"]),
        ("JointSpectrum", ["config"]),
        ("closed_form_mi", ["config", "states", "environment", "protocol"]),
        ("parse_config", ["config"]),
        ("fit_k_s", ["config", "states", "environment", "protocol", "experiment"]),
        ("tomography_counts", ["config", "states"]),
        ("InvariantViolation", ["config"]),
    ])
    def test_a_name_loads_the_modules_up_to_its_own(self, name, loaded):
        out = run_python("-c", f"import sys, densecoding; densecoding.{name}\n"
                         "print(*sorted(m for m in sys.modules if m.startswith('densecoding.')))")
        assert out.split() == sorted(f"densecoding.{m}" for m in loaded)

    @pytest.mark.parametrize("index", range(len(LOOKUP_ORDER)),
                             ids=lambda index: LOOKUP_ORDER[index])
    def test_each_module_imports_only_modules_before_it(self, index):
        # The lookup relies on this: it never loads a later module to find a name.
        out = run_python("-c", f"import sys, densecoding.{LOOKUP_ORDER[index]}\n"
                         "print(*sorted(m for m in sys.modules if m.startswith('densecoding.')))")
        loaded = {m.removeprefix("densecoding.") for m in out.split()}
        assert loaded - {LOOKUP_ORDER[index]} <= set(LOOKUP_ORDER[:index])

    def test_config_loads_no_numpy(self):
        out = run_python("-c", "import sys, densecoding.config\n"
                         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))")
        assert out.strip() == "[]"

    def test_private_name_raises_before_any_import(self):
        out = run_python("-c", "import sys, densecoding\n"
                         "try:\n    densecoding._no_such\n"
                         "except AttributeError as exc:\n    print(exc)\n"
                         "print(sorted(m for m in sys.modules "
                         "if m.split('.')[0] in ('numpy', 'densecoding')))")
        assert out.splitlines() == ["module 'densecoding' has no attribute '_no_such'",
                                    "['densecoding']"]

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            densecoding.no_such_name
        with pytest.raises(ImportError):
            exec("from densecoding import no_such_name", {})


# Runs ``python -m densecoding.cli`` with the given arguments; prints its exit
# code, then, as the process exits, numpy and the library modules it loaded.
LOADED_PROBE = """
import atexit, runpy, sys
atexit.register(lambda: print(*sorted(m for m in sys.modules if m == "numpy"
                                      or m.startswith("densecoding.") and m != "densecoding.cli")))
sys.argv = ["densecoding", *{argv!r}]
try:
    runpy.run_module("densecoding.cli", run_name="__main__")
except SystemExit as exc:
    print(exc.code)
"""


class TestCommandImports:
    """Help and usage errors need only config; a command loads what it computes with."""

    def loaded(self, *argv):
        exit_code, modules = run_python("-c", LOADED_PROBE.format(argv=argv)).splitlines()[-2:]
        return int(exit_code), modules.split()

    @pytest.mark.parametrize("argv, exit_code", [
        (["--help"], 0), (["fit"], 2), (["tomo", "--help"], 0), (["show", "--bogus"], 2),
    ], ids=["help", "fit-without-in", "tomo-help", "unknown-flag"])
    def test_help_and_usage_errors_load_no_numpy(self, argv, exit_code):
        assert self.loaded(*argv) == (exit_code, ["densecoding.config"])

    def test_tomo_loads_only_config_and_tomography(self, tmp_path):
        # No states and no numpy: the tomography kernel is plain Python.
        (tmp_path / "counts.txt").write_text(TOMO_COUNTS, encoding="utf-8")
        argv = ["tomo", "--in", str(tmp_path / "counts.txt"), "--n-per-projector", "100"]
        assert self.loaded(*argv) == (0, ["densecoding.config", "densecoding.tomography"])

    @pytest.mark.parametrize("argv", [
        ["sweep", "--t-list", "0,1", "--n-per-input", "100", "--trials", "2"],
        ["mc", "--t-a", "0.5", "--n-per-input", "100", "--trials", "5"],
        ["fit", "--in", "{points}"], ["show"],
    ], ids=["sweep", "mc", "fit", "show"])
    def test_numpy_commands_load_no_tomography(self, argv, tmp_path):
        # states imports the tomography kernel only in the functions that call it.
        points = tmp_path / "points.csv"
        points.write_text("0.2,1.51\n0.5,1.51\n0.9,1.51\n", encoding="utf-8")
        code, modules = self.loaded(*(arg.format(points=points) for arg in argv))
        assert (code, "numpy" in modules, "densecoding.tomography" in modules) == (0, True, False)

    def test_show_loads_no_experiment(self):
        code, modules = self.loaded("show")
        assert (code, "densecoding.experiment" in modules) == (0, False)
        assert {"densecoding.environment", "densecoding.protocol", "numpy"} <= set(modules)


# Records the thread variables at the moment numpy is first imported, runs
# the route under test, then prints them and the environment after it.
THREAD_PROBE = """
import importlib.abc, json, os, sys
names = {names!r}
at_numpy = []

class Spy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not at_numpy:
            at_numpy.append({{v: os.environ.get(v) for v in names}})
        return None

sys.meta_path.insert(0, Spy())
sys.argv = ["densecoding", "show"]
{route}
print(json.dumps([at_numpy[0], {{v: os.environ.get(v) for v in names}}]))
"""

ROUTES = {
    "python -m": ("import runpy\n"
                  "try:\n"
                  "    runpy.run_module('densecoding.cli', run_name='__main__')\n"
                  "except SystemExit as exc:\n"
                  "    assert exc.code == 0, exc.code"),
    "script": "import densecoding\nassert densecoding.main() == 0",
}


def thread_settings(route, **env_changes):
    code = THREAD_PROBE.format(names=THREAD_VARIABLES, route=route)
    at_numpy, after = json.loads(run_python("-c", code, **env_changes).splitlines()[-1])
    assert at_numpy == after  # set before numpy loads BLAS, and not after
    return after


class TestBlasThreadDefault:
    @pytest.mark.parametrize("route", ROUTES.values(), ids=ROUTES.keys())
    def test_unset_variables_default_to_one(self, route):
        assert thread_settings(route) == dict.fromkeys(THREAD_VARIABLES, "1")

    @pytest.mark.parametrize("route", ROUTES.values(), ids=ROUTES.keys())
    def test_a_users_setting_is_kept(self, route):
        settings = thread_settings(route, OPENBLAS_NUM_THREADS="4")
        assert settings == {"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1",
                            "MKL_NUM_THREADS": "1"}

    def test_library_import_leaves_the_environment_alone(self):
        out = run_python("-c", "import os, densecoding, densecoding.cli, numpy\n"
                         f"print([os.environ.get(v) for v in {THREAD_VARIABLES!r}])")
        assert out.strip() == "[None, None, None]"


# Prints the size of the collector's permanent generation as the process exits.
FREEZE_PROBE = """
import atexit, gc, sys
atexit.register(lambda: print(gc.get_freeze_count()))
sys.argv = ["densecoding", "show"]
{route}
"""


def freeze_count(route):
    return int(run_python("-c", FREEZE_PROBE.format(route=route)).splitlines()[-1])


# Prints, as the process exits, whether a collection would still walk numpy's
# namespace: gc.get_objects() leaves out the frozen objects.
NUMPY_HEAP_PROBE = """
import atexit, gc, sys
atexit.register(lambda: print(any(obj is sys.modules["numpy"].__dict__
                                  for obj in gc.get_objects())))
sys.argv = ["densecoding", "show"]
{route}
"""


def numpy_walked_at_exit(route):
    return run_python("-c", NUMPY_HEAP_PROBE.format(route=route)).splitlines()[-1] == "True"


class TestImportHeapFreeze:
    @pytest.mark.parametrize("route", ROUTES.values(), ids=ROUTES.keys())
    def test_process_routes_freeze_the_import_heap(self, route):
        assert freeze_count(route) > 0

    def test_in_process_main_leaves_the_collector_alone(self):
        assert freeze_count("import densecoding.cli\n"
                            "assert densecoding.cli.main(['show']) == 0") == 0

    @pytest.mark.parametrize("route", ROUTES.values(), ids=ROUTES.keys())
    def test_process_routes_freeze_numpy_which_the_command_loads(self, route):
        assert not numpy_walked_at_exit(route)

    def test_the_probe_sees_an_unfrozen_numpy(self):
        assert numpy_walked_at_exit("import densecoding.cli\n"
                                    "assert densecoding.cli.main(['show']) == 0")


@pytest.mark.parametrize("argv", [
    ["show", "--scheme", "FOUR_STATE", "--k=-0.5"],
    ["fit", "--in", "{dir}/points.csv"],
    ["tomo", "--in", "{dir}/counts.txt", "--n-per-projector", "100"],
], ids=lambda argv: argv[0])
def test_process_route_writes_the_bytes_of_main(argv, tmp_path, capsys):
    (tmp_path / "points.csv").write_text(FIT_POINTS, encoding="utf-8")
    (tmp_path / "counts.txt").write_text(TOMO_COUNTS, encoding="utf-8")
    argv = [arg.format(dir=tmp_path) for arg in argv]
    stdout = run_python("-m", "densecoding.cli", *argv, "--out", str(tmp_path / "process.out"))
    assert densecoding.cli.main([*argv, "--out", str(tmp_path / "main.out")]) == 0
    assert capsys.readouterr().out == stdout
    assert (tmp_path / "process.out").read_bytes() == (tmp_path / "main.out").read_bytes()
    assert (tmp_path / "main.out").stat().st_size > 0


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    run_python(str(ROOT / "demos" / demo))


def test_readme_quick_start_gives_the_values_it_states():
    # Each expression statement of the block is compared with the value its
    # comment states, at the decimals printed there; a name such as log2(3)
    # is a math expression, compared to the last few ulps.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1]
    block = block.split("```", 1)[0]
    comments = {token.start[0]: token.string[1:].split()[0]
                for token in tokenize.generate_tokens(io.StringIO(block).readline)
                if token.type == tokenize.COMMENT}
    namespace, stated = {}, []
    for statement in ast.parse(block).body:
        if not isinstance(statement, ast.Expr):
            exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(statement.value), "README.md", "eval"), namespace)
        text = comments[statement.end_lineno]
        if re.fullmatch(r"\d+\.\d+", text):
            assert f"{value:.{len(text.split('.')[1])}f}" == text, statement.lineno
        else:
            assert value == pytest.approx(eval(text, vars(math)), rel=1e-15), statement.lineno
        stated.append(text)
    assert stated == ["0.163", "1.02", "2.0", "log2(3)", "1.51006"]
