"""Per-layer tracing of the densecoding package from outside it.

The layers are the package's modules.  ``Tracer`` wraps every public
function of each module (every name defined there that does not start with
``_``) and the ``__post_init__`` of every public dataclass, so a
construction counts as a call.  A function is patched under every name it
is bound to, for example ``densecoding.experiment.simulate_protocol`` as
well as ``densecoding.protocol.simulate_protocol``, so calls between
modules are seen too.  Each call records a span (name, layer, start, end,
parent) in memory; ``summarize`` turns the spans into counts and times.

Import costs come from ``python -X importtime``; see ``import_costs``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("cli", "config", "states", "environment", "protocol", "experiment")


class Tracer:
    """Patches the package while installed; records spans into ``spans``."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, str, float, float, int] | None] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, layer: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (name, layer, start, clock(), parent)
                stack.pop()

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        package = importlib.import_module("densecoding")
        modules = {layer: importlib.import_module(f"densecoding.{layer}") for layer in LAYERS}
        owners = [package, *modules.values()]
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    traced = self._wrap(f"{layer}.{name}", layer, obj)
                    for owner in owners:
                        for attr, value in list(vars(owner).items()):
                            if value is obj:
                                self._patch(owner, attr, traced)
                elif inspect.isclass(obj) and "__post_init__" in vars(obj):
                    self._patch(obj, "__post_init__",
                                self._wrap(f"{layer}.{name}", layer, vars(obj)["__post_init__"]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def summarize(spans) -> dict[str, float]:
    """Counts and times of one traced pass.

    ``<layer>.self_s`` is the time inside the layer's spans that no child
    span covers; the sum over a layer's spans of each span's duration minus
    its direct children's equals the layer's spans minus the parts covered
    by child spans in other layers.  ``<name>.calls`` and ``<name>.total_s``
    are per wrapped name.
    """
    child = [0.0] * len(spans)
    for _, _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for (name, layer, start, end, _), covered in zip(spans, child):
        out[f"{layer}.self_s"] += end - start - covered
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        out[f"{name}.total_s"] = out.get(f"{name}.total_s", 0.0) + end - start
    return out


def import_costs(importtime_stderr: str) -> dict[str, float]:
    """Import seconds from ``python -X importtime`` output.

    ``import.numpy_s`` and ``import.scipy_s`` are the cumulative times of
    the outermost numpy and scipy imports (everything they pulled in);
    ``import.densecoding_self_s`` sums the self times of the package's own
    modules.
    """
    entries = []
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            self_us, cumulative_us = int(fields[0]), int(fields[1])
        except ValueError:
            continue  # the column header
        name = fields[2].rstrip()
        depth = len(name) - len(name.lstrip())
        entries.append((depth, name.strip(), self_us, cumulative_us))
    # importtime prints children before parents; walk backwards to see
    # each entry's ancestors before the entry itself.
    out = {"import.numpy_s": 0.0, "import.scipy_s": 0.0, "import.densecoding_self_s": 0.0}
    ancestors: list[tuple[int, str]] = []
    for depth, name, self_us, cumulative_us in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        top = name.split(".")[0]
        if top in ("numpy", "scipy") and not any(a.split(".")[0] == top for _, a in ancestors):
            out[f"import.{top}_s"] += cumulative_us / 1e6
        if top == "densecoding":
            out["import.densecoding_self_s"] += self_us / 1e6
        ancestors.append((depth, name))
    return out
