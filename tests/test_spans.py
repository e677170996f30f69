"""The benchmark's span tables name functions the package still defines.

``bench/spans.py`` wraps functions by (defining module, name); a name
that no longer resolves is skipped without a word, and its per-layer
metric silently reads 0.
"""

import ast
import importlib
import inspect
from pathlib import Path

SPANS_PY = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_span_keys_name_defined_functions():
    tables = {}
    for node in ast.parse(SPANS_PY.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("SPANS", "COUNTS"):
                tables[name] = ast.literal_eval(node.value)
    keys = [*tables["SPANS"], *tables["COUNTS"]]
    assert tables["SPANS"] and tables["COUNTS"]
    for module, name in keys:
        mod = importlib.import_module(f"linkfold.{module}")
        fn = getattr(mod, name, None)
        assert inspect.isfunction(fn), (module, name)
        assert fn.__module__ == mod.__name__, (module, name)
