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


def _modules_imported(*args) -> set:
    """The modules a fresh `python -X importtime ARGS` imports, read off
    the import-time lines on its stderr."""
    done = subprocess.run([sys.executable, "-X", "importtime", *args],
                          cwd=SRC.parent.parent, env=_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return {line.rsplit("|", 1)[1].strip() for line in
            done.stderr.splitlines() if line.startswith("import time:")}


def _qcat_modules_imported(*args) -> set:
    """The `qcat` submodules among `_modules_imported(*args)`."""
    return {n[len("qcat."):] for n in _modules_imported(*args)
            if n.startswith("qcat.")}


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


# `dataclasses` imports `inspect` (and with it `ast`, `dis` and
# `tokenize`), and each decorated class execs generated code: together
# more than half of what importing qcat.cli cost, paid by every command
STARTUP_FREE = {"dataclasses", "inspect"}


@pytest.mark.parametrize("args", [
    ["-c", "import qcat.cli"],
    ["-m", "qcat", "homology", "--in", "fixtures/rp2.sset"],
    ["-m", "qcat", "pi1", "--in", "fixtures/rp2.sset"],
    ["-m", "qcat", "check-instance", "--instance", "abp:2:4"],
    ["-m", "qcat", "k0", "--instance", "abp:2:4", "--depth", "2"],
    ["-m", "qcat", "segal", "--instance", "abp:2:4", "--n", "1"],
    ["-m", "qcat", "subdivide", "--word", "op,id", "--mmax", "1",
     "--depth", "2"],
    ["-m", "qcat", "twisted", "--in", "fixtures/poset3.cat", "--depth", "2"],
    ["-m", "qcat", "devissage", "--source", "vect:2:1", "--target",
     "abp:2:2", "--probes", "c2", "--depth", "2"],
    ["-m", "qcat", "gamma", "--check", "u-functoriality",
     "--max-arity", "1"],
], ids=["import", "homology", "pi1", "check-instance", "k0", "segal",
        "subdivide", "twisted", "devissage", "gamma"])
def test_no_command_imports_dataclasses(args):
    assert _modules_imported(*args) & STARTUP_FREE == set()


def test_no_src_module_imports_dataclasses():
    offences = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n.split(".")[0] == "dataclasses" for n in names):
                offences.append(f"{path.name}:{node.lineno}")
    assert offences == []


def test_only_record_and_simplicial_set_define_equality():
    """Value classes inherit `__eq__` and `__hash__` from `record.Record`;
    `SimplicialSet` compares structurally and stays unhashable."""
    owners = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(item, ast.FunctionDef)
                    and item.name in ("__eq__", "__hash__")
                    for item in node.body):
                owners.add(f"{path.stem}.{node.name}")
    assert owners == {"record.Record", "simpset.SimplicialSet"}
