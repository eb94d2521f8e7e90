"""Source checks.  Invariants must survive `python -O`, which strips
`assert` statements, so the package raises explicit errors instead; and
starting the command line must not pay for modules it never uses."""

import ast
import os
import subprocess
import sys
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


def test_cli_import_skips_thread_pool_and_logging():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import sys, qcat.cli; "
            "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
