"""The benchmark's tracer and clock wrap treesdp entry points by name
(``bench/spans.py`` and ``bench/clock.py``).  A renamed or moved entry point
would silently drop out of the benchmark's timings, so every name they list
must resolve to what ``rebind`` expects: a module-level function of that
module, or a method defined on a class of that module, and a solve must
still call it: a pinned function that is no longer called reads 0 in the
benchmark.  Likewise every counter the traced run (``bench/run.py``) reads
from a normal engine must exist on one."""

import ast
import functools
import importlib
import importlib.util
import io
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _module_tables(path, names):
    """Literal values of the module-level assignments ``names`` in the file,
    read without importing it."""
    tree = ast.parse(path.read_text())
    found = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in names:
                    found[target.id] = ast.literal_eval(node.value)
    assert set(found) == set(names), f"{path.name} lacks {names}"
    return found


def _literal_rebinds():
    """(module, qualname) of every ``rebind("mod", "qual", ...)`` call with
    literal names in the benchmark's files."""
    out = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "rebind"
                and len(node.args) >= 2
                and all(isinstance(a, ast.Constant) for a in node.args[:2])
            ):
                out.append((node.args[0].value, node.args[1].value))
    return out


def _entry_points():
    spans = _module_tables(BENCH / "spans.py", ("SPANS", "PEAK_LAYERS"))
    clock = _module_tables(BENCH / "clock.py", ("PROBES",))
    names = (
        list(spans["SPANS"])
        + list(spans["PEAK_LAYERS"])
        + list(clock["PROBES"])
        + _literal_rebinds()
    )
    return sorted(set(names))


def test_bench_tables_are_found():
    names = _entry_points()
    assert ("convert", "verify_split") in names
    assert ("ipm", "adaptive_step_solve") in names


@pytest.mark.parametrize("mod, qual", _entry_points())
def test_bench_entry_point_resolves(mod, qual):
    module = importlib.import_module(f"treesdp.{mod}")
    if "." in qual:
        cls_name, meth = qual.split(".")
        cls = getattr(module, cls_name)
        assert cls.__module__ == module.__name__
        assert callable(cls.__dict__[meth])
    else:
        fn = getattr(module, qual)
        assert fn.__module__ == module.__name__
        assert fn.__qualname__ == qual


def _bench_rebind():
    """``rebind`` from ``bench/spans.py``, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        "bench_spans", BENCH / "spans.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.rebind


def test_every_bench_entry_point_is_called():
    from treesdp import frontends

    from util import random_partially_separable_problem, with_wide_constraint

    rebind = _bench_rebind()
    calls = Counter()

    def counting(key):
        def make(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return counted

        return make

    problem, _ = random_partially_separable_problem(
        np.random.default_rng(3), 6, 3
    )
    runs = []
    for method, sdp in (
        ("dctc", problem),
        ("dctc-aux", with_wide_constraint(problem)),  # a multi-bag row
    ):
        text = io.StringIO()
        frontends.write_sdpa(sdp, text)
        runs.append((method, text.getvalue()))
    entry = (frontends.read_sdpa, frontends.solve_sdp)
    names = _entry_points()
    undo = []
    try:
        for mod, qual in names:
            undo += rebind(mod, qual, counting((mod, qual)))
        for method, text in runs:
            # module attributes, so the wrappers are the ones called
            sdp = frontends.read_sdpa(io.StringIO(text))
            frontends.solve_sdp(sdp, method=method, eps=1e-6)
    finally:
        for owner, name, orig in reversed(undo):
            setattr(owner, name, orig)
    assert (frontends.read_sdpa, frontends.solve_sdp) == entry
    never = [name for name in names if not calls[name]]
    assert not never, f"no solve called {never}"


def _normal_counters():
    """Attributes ``traced_op`` in ``bench/run.py`` reads from each normal
    system ``s`` it sums over."""
    tree = ast.parse((BENCH / "run.py").read_text())
    fn = next(
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "traced_op"
    )
    return sorted(
        {
            node.attr
            for node in ast.walk(fn)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "s"
        }
    )


def test_bench_counters_exist_on_the_normal_engine():
    from treesdp.convert import build_ctc, dualize
    from treesdp.normal import TreeNormalSystem

    from util import random_partially_separable_problem, random_scaling_data

    names = _normal_counters()
    assert "n_solve_columns" in names
    rng = np.random.default_rng(5)
    problem, td = random_partially_separable_problem(rng, 6, 2)
    ctc = build_ctc(problem, td)
    engine = TreeNormalSystem(dualize(ctc))
    engine.update(*random_scaling_data(rng, ctc))
    missing = [name for name in names if not hasattr(engine, name)]
    assert not missing, f"bench/run.py reads {missing} from the engine"
