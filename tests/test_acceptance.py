"""Acceptance gate: one test per shipped guarantee, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.  Time limits are asserted inside the
tests, so a pathological slowdown fails the gate rather than stalling it.
"""

import json
import time
from contextlib import contextmanager
from itertools import product
from pathlib import Path

from qcat.cli import main
from qcat.delta import ConstWord, JoinWord, is_combinatorial_subdivision
from qcat.deviss import VectToAbP, admissible_filtration, devissage_certificate
from qcat.exact import (AbPInstance, VectInstance, ambigressive_pullback,
                        bicartesian_check, exact_sequence_squares,
                        parse_instance)
from qcat.fincat import (corpus, nerve, nerve_map, nerve_twisted_vs_edgewise,
                         twisted_projection)
from qcat.gammastr import retraction_set, u_functoriality_report, u_on_objects
from qcat.ordmaps import DeltaMap, all_maps
from qcat.qcons import groupoid_rigidity, k0, q_category, segal_spine_check
from qcat.simpset import left_fibration_check

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@contextmanager
def criterion(n, label):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {n:2d} FAIL  {label}")
        raise
    print(f"criterion {n:2d} PASS  {label}"
          f"  [{time.perf_counter() - started:.1f}s]")


def test_criterion_01_subdivision_verdicts():
    with criterion(1, "subdivision words certified, constant word refuted"):
        t0 = time.perf_counter()
        words = [JoinWord(toks) for k in (1, 2, 3)
                 for toks in product(("op", "id"), repeat=k)]
        assert len(words) == 14
        for word in words:
            v = is_combinatorial_subdivision(word, 3, depth=4)
            assert v.status == "subdivision", (word, v)
            for m, cert in v.per_m:
                assert cert.status == "contractible_up_to"
                assert cert.depth == 3
        v = is_combinatorial_subdivision(ConstWord(0), 3, depth=4)
        assert v.status == "not_subdivision"
        assert v.witness_m == 1
        witness = v.certificate(1)
        assert witness.status == "not_contractible"
        assert "disconnected" in witness.reason
        assert time.perf_counter() - t0 < 30


def test_criterion_02_twisted_nerve_matches_edgewise():
    with criterion(2, "twisted arrow nerve is the edgewise one, bit-exact"):
        t0 = time.perf_counter()
        cats = corpus()
        assert len(cats) >= 6
        for name, c in cats.items():
            ok, witness = nerve_twisted_vs_edgewise(c, 3)
            assert ok, (name, witness)
        assert time.perf_counter() - t0 < 10


def test_criterion_03_projection_is_a_left_fibration():
    with criterion(3, "twisted projection nerve lifts left horns uniquely"):
        for name, c in corpus().items():
            shadow = nerve_map(twisted_projection(c), 3)
            ok, witness = left_fibration_check(shadow, 3)
            assert ok, (name, witness)


def test_criterion_04_span_category_class_group():
    with criterion(4, "line instance: hom counts, nerve H_1, class label"):
        t0 = time.perf_counter()
        inst = parse_instance("vect:2:1")
        c = q_category(inst).category
        counts = tuple(len(c.hom(x, y))
                       for x, y in [(0, 0), (0, 1), (1, 1), (1, 0)])
        assert counts == (1, 2, 1, 0)
        h1 = nerve(c, 3).homology(1)[1]
        assert h1 == (1, [])
        assert k0(inst, 3).label == "Z"
        assert time.perf_counter() - t0 < 5


SPINE_TOTALS = {
    ("vect:2:1", 0): 2, ("vect:2:1", 1): 4, ("vect:2:1", 2): 6,
    ("abp:2:4", 0): 4, ("abp:2:4", 1): 28, ("abp:2:4", 2): 154,
}


def test_criterion_05_segal_spine_counts():
    with criterion(5, "diagram classes equal composable strings, n <= 2"):
        for (desc, n), total in sorted(SPINE_TOTALS.items()):
            rep = segal_spine_check(parse_instance(desc), n)
            assert rep.passed, (desc, n, rep)
            assert rep.diagram_classes == total, (desc, n, rep)


def test_criterion_06_groupoid_rigidity():
    with criterion(6, "span groupoids have no parallel pairs, exhaustively"):
        for desc in ["vect:2:1", "abp:2:4"]:
            inst = parse_instance(desc)
            for x in inst.objects():
                for y in inst.objects():
                    rep = groupoid_rigidity(inst, x, y)
                    assert rep.passed, (desc, x, y, rep.failures)
        za = parse_instance("abp:2:4")
        assert groupoid_rigidity(za, (2,), (1,)).objects == 0
        assert groupoid_rigidity(za, (), ()).components == 1


def test_criterion_07_bicartesian_squares_and_sizes():
    with criterion(7, "exact squares bicartesian, pullback sizes multiply"):
        squares = pullbacks = 0
        for desc in ["vect:2:1", "abp:2:4"]:
            inst = parse_instance(desc)
            for sq in exact_sequence_squares(inst):
                assert bicartesian_check(inst, sq), (desc, sq)
                squares += 1
            for y in inst.objects():
                for u in inst.objects():
                    for i in inst.monos(u, y):
                        for v in inst.objects():
                            for e in inst.epis(v, y):
                                sq = ambigressive_pullback(inst, i, e)
                                assert (inst.order(sq.nw) * inst.order(y)
                                        == inst.order(u) * inst.order(v))
                                pullbacks += 1
        assert squares == 20
        assert pullbacks == 86


def test_criterion_08_devissage_certificate():
    with criterion(8, "filtrations elementary-abelian, stage homology equal"):
        t0 = time.perf_counter()
        psi = VectToAbP(VectInstance(2, 2), AbPInstance(2, 4))
        targets = psi.target.objects()
        for x in targets:
            filt = admissible_filtration(psi, x)
            for q in filt.quotient_objects:
                assert all(e == 1 for e in q), (x, q)
            assert filt.stage_objects[-1] == x
        cert = devissage_certificate(psi, targets, 3)
        assert cert.stages_consistent
        for s in cert.stages:
            assert s.equal, (s.probe, s.lower, s.upper)
            assert len(s.lower_homology) == 3
            assert s.lower_homology == s.upper_homology
        assert cert.all_contractible
        assert time.perf_counter() - t0 < 120


def test_criterion_09_cut_functor_combinatorics():
    with criterion(9, "cut functoriality, cut counts, retraction sets"):
        rep = u_functoriality_report(4)
        assert rep.passed
        assert rep.checked == 73085
        for n in range(7):
            assert len(u_on_objects(n)) == n
        ident = DeltaMap.identity(1)
        for alpha in all_maps(1, 2):
            oracle = {g.values for g in all_maps(2, 1)
                      if not g.misses() and g.compose(alpha) == ident}
            assert retraction_set(2, alpha) == oracle, alpha


CLI_CALLS = [
    ["subdivide", "--word", "op", "--mmax", "2"],
    ["twisted", "--in", str(FIXTURES / "bz2.cat"), "--depth", "2"],
    ["homology", "--in", str(FIXTURES / "rp2.sset"), "--depth", "2"],
    ["pi1", "--in", str(FIXTURES / "rp2.sset")],
    ["k0", "--instance", "vect:2:1", "--depth", "3"],
    ["segal", "--instance", "vect:2:1", "--n", "2"],
    ["devissage", "--source", "vect:2:1", "--target", "abp:2:2",
     "--probes", "0,c2", "--depth", "2"],
    ["gamma", "--check", "u-functoriality", "--max-arity", "2"],
    ["check-instance", "--instance", "vect:2:1"],
]


def test_criterion_10_cli_determinism(capsys, monkeypatch):
    with criterion(10, "every subcommand byte-identical across runs/threads"):
        for argv in CLI_CALLS:
            outputs = set()
            for threads in ["1", "4"]:
                monkeypatch.setenv("QCAT_THREADS", threads)
                for _ in range(3):
                    assert main(argv) == 0, argv
                    out = capsys.readouterr().out
                    json.loads(out)
                    outputs.add(out)
            assert len(outputs) == 1, (argv[0], len(outputs))
