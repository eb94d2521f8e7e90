"""Source checks: invariants must survive `python -O`, which strips
`assert` statements, so the package raises explicit errors instead."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qcat"


def _catches_assertion_error(handler: ast.ExceptHandler) -> bool:
    kinds = handler.type.elts if isinstance(handler.type, ast.Tuple) \
        else [handler.type]
    return any(isinstance(k, ast.Name) and k.id == "AssertionError"
               for k in kinds)


def test_no_assert_statements_or_assertion_handlers_in_src():
    files = sorted(SRC.rglob("*.py"))
    assert files
    offences = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert):
                offences.append(f"{path.name}:{node.lineno}: assert")
            elif isinstance(node, ast.ExceptHandler) and node.type is not None \
                    and _catches_assertion_error(node):
                offences.append(f"{path.name}:{node.lineno}: "
                                "except AssertionError")
    assert offences == []
