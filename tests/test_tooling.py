"""The benchmark harness's tracer names only functions the package has.

`perfbench/tracer.py` wraps functions by name; a renamed or deleted one
would otherwise show up only as a failed `--trace 1` run.  Its tables are
read from the source, so the harness is neither imported nor changed.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tracer_tables() -> dict:
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    tables = {}
    for node in tree.body:
        target = node.targets[0] if isinstance(node, ast.Assign) else getattr(node, "target", None)
        if isinstance(target, ast.Name) and target.id in ("FUNCTIONS", "KERNELS"):
            tables[target.id] = ast.literal_eval(node.value)
    return tables


def test_every_traced_name_resolves_in_the_package():
    tables = _tracer_tables()
    assert tables["FUNCTIONS"] and tables["KERNELS"]
    for modname, fn in tables["FUNCTIONS"]:
        mod = importlib.import_module(f"pretzelslice.{modname}")
        assert callable(getattr(mod, fn, None)), f"{modname}.{fn}"
    kernels = importlib.import_module("pretzelslice._kernels")
    for fn in tables["KERNELS"]:
        assert callable(getattr(kernels, fn, None)), f"_kernels.{fn}"
