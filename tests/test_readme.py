"""The Python examples in README.md run as written, and the names
``linkfold`` exports, which its Library section imports, all resolve."""

import re
import types
from pathlib import Path

import linkfold

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_all_exports_resolve():
    names = linkfold.__all__
    assert names == sorted(set(names))
    for name in names:
        assert getattr(linkfold, name, None) is not None, name
    # and every public non-module attribute is exported
    public = {
        name
        for name, value in vars(linkfold).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(names)
