"""Source checks.  Invariants must survive `python -O`, which strips
`assert` statements, so the package raises explicit errors instead; and
starting the command line must not pay for modules it never uses."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def test_cli_import_skips_thread_pool_and_logging():
    code = ("import sys, qcat.cli; "
            "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], env=_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


SPAN_STACK = {"delta", "deviss", "fincat", "gammastr", "qcons"}


def _qcat_modules_imported(*args) -> set:
    """The `qcat` submodules a fresh `python -X importtime ARGS` imports,
    read off the import-time lines on its stderr."""
    done = subprocess.run([sys.executable, "-X", "importtime", *args],
                          cwd=SRC.parent.parent, env=_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    names = {line.rsplit("|", 1)[1].strip() for line in
             done.stderr.splitlines() if line.startswith("import time:")}
    return {n[len("qcat."):] for n in names if n.startswith("qcat.")}


@pytest.mark.parametrize("args", [
    ["-c", "import qcat.cli"],
    ["-m", "qcat", "homology", "--in", "fixtures/rp2.sset"],
    ["-m", "qcat", "pi1", "--in", "fixtures/rp2.sset"],
], ids=["import", "homology", "pi1"])
def test_cli_and_surface_commands_skip_the_span_stack(args):
    loaded = _qcat_modules_imported(*args)
    assert {"cli", "formats", "simpset"} <= loaded
    assert loaded & (SPAN_STACK | {"parallel"}) == set()


def test_check_instance_loads_only_the_instance_layer():
    loaded = _qcat_modules_imported(
        "-m", "qcat", "check-instance", "--instance", "abp:2:4")
    assert "exact" in loaded
    assert loaded & SPAN_STACK == set()
