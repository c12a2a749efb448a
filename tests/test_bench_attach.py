"""The points where the benchmark (``perfbench/``) attaches to the program.

The benchmark wraps module attributes of ``npcount`` (``child.WRAPPED``) and
refuses a traced run in which a span it needs never fires
(``run.MUST_FIRE``). Only its own self-tests, outside this suite, would
otherwise notice a change to the program that drops one of those names or
calls. These tests read ``perfbench/`` and change nothing there.
"""
import importlib
import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import npcount.asymptotics as amod
from npcount import cli, special

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

#: One small invocation per traced workload, in the shape the benchmark runs.
INVOCATIONS = {
    "compare": ["compare", "-n", "10", "--k-zeros", "2", "--bits", "64"],
    "logf": ["logf-check", "--tau", "0.5", "--k-zeros", "1", "--bits", "64"],
}


@pytest.fixture
def bench(monkeypatch):
    """perfbench's ``child`` and ``run`` modules; sys.path and sys.modules are restored after."""
    names = ("child", "run", "workloads")
    saved = {name: sys.modules.pop(name) for name in names if name in sys.modules}
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        yield importlib.import_module("child"), importlib.import_module("run")
    finally:
        for name in names:
            sys.modules.pop(name, None)
        sys.modules.update(saved)


def test_every_wrapped_name_is_a_callable_of_the_package(bench):
    child, _ = bench
    for module, attr, _, _ in child.WRAPPED:
        assert module.split(".")[0] == "npcount", module
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"


@pytest.mark.parametrize("workload", sorted(INVOCATIONS))
def test_traced_invocation_fires_every_required_span(bench, workload, monkeypatch):
    child, run = bench
    # a c_γ or a pass cached by an earlier test would skip the kernel calls the spans time
    amod._coefficient.cache_clear()
    special._pass_cache.clear()
    tracer = child.Tracer()
    for module, attr, name, info in child.WRAPPED:
        mod = importlib.import_module(module)
        monkeypatch.setattr(mod, attr, tracer._wrap(getattr(mod, attr), name, info))
    with redirect_stdout(io.StringIO()):
        assert cli.main(INVOCATIONS[workload]) == 0
    run.check_spans(workload, {"spans": tracer.spans})
