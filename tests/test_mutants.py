"""The mutant table in tests/mutants.py still fits the code it mutates."""

import ast
from pathlib import Path

from mutants import MUTANTS

REPO = Path(__file__).resolve().parent.parent


def test_mutant_snippets_occur_once_and_tests_exist():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        text = (REPO / "src" / "linkfold" / m.file).read_text(encoding="utf-8")
        assert text.count(m.snippet) == 1, m.name
        assert m.tests, m.name
        for node_id in m.tests:
            path, name = node_id.split("::")
            name, case, _ = name.partition("[")
            tree = ast.parse((REPO / path).read_text(encoding="utf-8"))
            defined = {
                n.name: any("parametrize" in ast.unparse(d) for d in n.decorator_list)
                for n in tree.body
                if isinstance(n, ast.FunctionDef)
            }
            assert name in defined, (m.name, node_id)
            # the runner reads pass lines by node id, which carry the case
            assert defined[name] == bool(case), (m.name, node_id)
