"""The benchmark's tracer finds every function it wraps."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_exists():
    # perfbench/tracing.py wraps functions by module and name; a deleted or
    # renamed one breaks the benchmark, so it fails here first.  The file is
    # read, not imported: LAYERS is a literal.
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    layers = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "LAYERS" for t in node.targets)
    )
    missing = [
        f"{module}.{name}"
        for module, names in layers.values()
        for name in names
        if not hasattr(importlib.import_module(f"halfscatter.{module}"), name)
    ]
    assert missing == []
