"""Checks of the benchmark's own machinery.

Run with: python3 -m pytest perfbench -q
"""

import json
import subprocess
import sys

import pytest

import run
import surfaces

COMMANDS = [
    "k0 --instance abp:2:4 --depth 3",
    "twisted --in fixtures/bz2.cat --depth 3",
    "devissage --source vect:2:2 --target abp:2:4 --probes 0,c2 --depth 2",
]


def _qcat(args, trace_out=None):
    if trace_out is None:
        cmd = [sys.executable, "-m", "qcat", *args]
    else:
        cmd = [sys.executable, str(run.HERE / "tracer.py"), str(trace_out),
               "t", "--", *args]
    return subprocess.run(cmd, cwd=run.ROOT, env=run.child_env(),
                          capture_output=True, timeout=120, check=True).stdout


@pytest.fixture(scope="module")
def surface_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("surf") / "rp2.sset"
    (tris, text), = [v for k, v in surfaces.generate(5, 40).items()
                     if k == "rp2"]
    path.write_text(text, "utf-8")
    return path, tris


def test_traced_stdout_matches_untraced_and_counts_repeat(tmp_path,
                                                          surface_file):
    path, _ = surface_file
    for k, line in enumerate(COMMANDS + [f"homology --in {path}",
                                         f"pi1 --in {path}"]):
        args = line.split()
        plain = _qcat(args)
        counts = []
        for rep in range(2):
            out = tmp_path / f"trace{k}_{rep}.json"
            assert _qcat(args, out) == plain, line
            trace = json.loads(out.read_text("utf-8"))
            counts.append((trace["counts"], trace["distinct"]))
        assert counts[0] == counts[1], line
        assert counts[0][0]["cli.main.calls"] == 1


def test_tracer_rebinds_from_imports(tmp_path, surface_file):
    path, _ = surface_file
    out = tmp_path / "trace.json"
    _qcat(["homology", "--in", str(path)], out)
    trace = json.loads(out.read_text("utf-8"))
    # smith_diagonal is reached through simpset's own binding
    assert trace["counts"]["snf.smith_diagonal.calls"] > 0
    assert trace["counts"]["formats.load_sset.calls"] == 1
    names = {name for name, *_ in trace["spans"]}
    assert "simpset.homology" in names
    assert all(v >= -1e-6 for v in run.self_seconds(trace).values())


def test_surface_checks_accept_the_program_and_reject_a_wrong_report(
        surface_file):
    path, tris = surface_file
    hom = json.loads(_qcat(["homology", "--in", str(path)]))
    pi1 = json.loads(_qcat(["pi1", "--in", str(path)]))
    assert surfaces.check_homology("rp2", tris, hom) is None
    assert surfaces.check_pi1("rp2", pi1) is None
    assert surfaces.check_homology("s2", tris, hom) is not None
    assert surfaces.check_pi1("t2", pi1) is not None


def test_surfaces_are_seeded_and_keep_their_euler_characteristic():
    a, b = surfaces.generate(3, 60), surfaces.generate(3, 60)
    assert a == b
    assert surfaces.generate(4, 60)["s2"][1] != a["s2"][1]
    for name, euler in (("s2", 2), ("t2", 0), ("rp2", 1)):
        c = surfaces.counts(a[name][0])
        assert c["triangles"] == 60
        assert c["vertices"] - c["edges"] + c["triangles"] == euler
        # a closed surface: every edge lies on exactly two triangles
        assert 2 * c["edges"] == 3 * c["triangles"]


def test_self_seconds_subtracts_children_and_hooks():
    trace = {"spans": [["a", 0.0, 10.0, None, 1.0],
                       ["b", 2.0, 5.0, 0, 0.5],
                       ["b", 6.0, 7.0, 0, 0.0]]}
    assert run.self_seconds(trace) == pytest.approx({"a": 5.0, "b": 3.5})
