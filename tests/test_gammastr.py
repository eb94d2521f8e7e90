"""Basepointed set maps, the cut functor, retraction sets, and subset
categories.

Cut counts are checked against a brute-force enumeration of monotone
maps; check totals are frozen so a silently shrinking enumeration fails
loudly.
"""

from itertools import product as iproduct

import pytest

from qcat import gammastr
from qcat.errors import GuardError
from qcat.fincat import check_axioms
from qcat.gammastr import (
    BASEPOINT,
    CheckReport,
    L_of,
    LambdaMorphism,
    L_restriction,
    all_lam,
    lam,
    lam_compose,
    lam_preimage,
    retraction_naturality_report,
    retraction_set,
    smash_table,
    u_functoriality_report,
    u_on_maps,
    u_on_objects,
)
from qcat.ordmaps import DeltaMap, all_maps


# -- maps only the tests use ----------------------------------------------


def lam_identity(i) -> LambdaMorphism:
    return lam(i, i, lambda x: x)


def u_power(n: int, gs) -> LambdaMorphism:
    """Componentwise cut action on n-tuples, smashed together.

    The one-fold smash is the identity, so n = 1 gives back the plain
    cut action on raw cuts rather than on 1-tuples.
    """
    gs = tuple(gs)
    if len(gs) != n:
        raise ValueError(f"expected {n} maps, got {len(gs)}")
    if n == 1:
        return u_on_maps(gs[0])
    parts = [u_on_maps(g) for g in gs]

    def step(etas):
        images = [p(eta) for p, eta in zip(parts, etas)]
        if any(im is BASEPOINT for im in images):
            return BASEPOINT
        return tuple(images)

    source = frozenset(iproduct(*[p.source for p in parts]))
    target = frozenset(iproduct(*[p.target for p in parts]))
    return lam(source, target, step)


def smash(i, j) -> frozenset:
    """Product of underlying sets; basepoints of the factors collapse,
    which is why there is no extra point to track."""
    return frozenset((a, b) for a in i for b in j)


def smash_mor(phi: LambdaMorphism, psi: LambdaMorphism) -> LambdaMorphism:
    def step(pair):
        a, b = phi(pair[0]), psi(pair[1])
        if a is BASEPOINT or b is BASEPOINT:
            return BASEPOINT
        return (a, b)

    return lam(smash(phi.source, psi.source),
               smash(phi.target, psi.target), step)


GROUND_SETS = [frozenset(), frozenset({0}), frozenset({0, 1})]


# -- basepointed maps ------------------------------------------------------


def test_identity_and_absorbing_composition():
    i = frozenset({0, 1})
    ident = lam_identity(i)
    kill = lam(i, i, {0: 0, 1: BASEPOINT})
    assert ident.is_identity()
    assert lam_compose(ident, kill) == kill
    assert lam_compose(kill, ident) == kill
    swap = lam(i, i, {0: 1, 1: 0})
    assert lam_compose(kill, swap) == lam(i, i, {0: BASEPOINT, 1: 0})


def test_morphism_validation():
    with pytest.raises(ValueError, match="outside the target"):
        lam({0}, {1}, {0: 2})
    with pytest.raises(ValueError, match="cover the source"):
        lam({0, 1}, {0}, {0: 0})


# -- smash product ---------------------------------------------------------


def test_smash_sizes():
    assert len(smash(frozenset({0, 1}), frozenset({0, 1, 2}))) == 6
    assert smash(frozenset({0, 1}), frozenset()) == frozenset()


def test_smash_functoriality_exhaustive_on_small_sets():
    arrows = [(src, dst, f) for src in GROUND_SETS for dst in GROUND_SETS
              for f in all_lam(src, dst)]
    composable = [(g, f) for (fs, ft, f) in arrows for (gs, gt, g) in arrows
                  if ft == gs]
    checked = 0
    for g1, f1 in composable:
        for g2, f2 in composable:
            checked += 1
            lhs = smash_mor(lam_compose(g1, f1), lam_compose(g2, f2))
            rhs = lam_compose(smash_mor(g1, g2), smash_mor(f1, f2))
            assert lhs == rhs
    assert checked == len(composable) ** 2


def test_smash_associativity_up_to_canonical_bijection():
    i, j, k = frozenset({0, 1}), frozenset({0, 1, 2}), frozenset({5, 6})
    left = smash(smash(i, j), k)
    right = smash(i, smash(j, k))
    assert {((a, b), c) for ((a, b), c) in left} == \
        {((a, b), c) for (a, (b, c)) in right}


# -- the reports before cut tables -----------------------------------------
#
# The two exhaustive reports as they were when they compared LambdaMorphisms,
# kept unchanged as oracles for the cut-table versions.


def reference_u_functoriality_report(max_arity: int) -> CheckReport:
    """Exhaustively compare u(g o h) with u(h) o u(g) over all
    composable pairs of monotone maps with arities up to max_arity."""
    if max_arity < 0:
        raise ValueError("max arity must be nonnegative")
    cache = {}

    def u_of(g):
        u = cache.get(g)
        if u is None:
            u = cache[g] = u_on_maps(g)
        return u

    checked = 0
    failures = []
    arities = range(max_arity + 1)
    for a in arities:
        for b in arities:
            for h in all_maps(a, b):
                uh = u_of(h)
                for c in arities:
                    for g in all_maps(b, c):
                        checked += 1
                        lhs = u_of(g.compose(h))
                        rhs = lam_compose(uh, u_of(g))
                        if lhs != rhs:
                            failures.append((h.values, g.values))
    return CheckReport(checked, tuple(failures))


def reference_retraction_naturality_report(max_arity: int) -> CheckReport:
    """Check that precomposing an edge commutes with pulling retraction
    sets back along the cut action, for single maps and for smashed
    pairs of maps with arities up to max_arity."""
    if max_arity < 0:
        raise ValueError("max arity must be nonnegative")
    singles = []
    for s in range(1, max_arity + 1):
        for t in range(1, max_arity + 1):
            for g in all_maps(s, t):
                for alpha in all_maps(1, s):
                    singles.append((g, alpha))
    checked = 0
    failures = []
    sets = []  # per single, its retraction sets after the edge and before g
    for g, alpha in singles:
        checked += 1
        lhs = retraction_set(g.target_arity, g.compose(alpha))
        rho = retraction_set(g.source_arity, alpha)
        sets.append((lhs, rho))
        if lhs != lam_preimage(u_on_maps(g), rho):
            failures.append((g.values, alpha.values))
    # singles sharing a g are adjacent: keep u_power(2, (g1, g2)) by g2
    # only while g1 stays the same
    powers, g_now = {}, None
    for ((g1, a1), (l1, r1)), ((g2, a2), (l2, r2)) in iproduct(
            zip(singles, sets), repeat=2):
        checked += 1
        if g1 != g_now:
            powers, g_now = {}, g1
        if g2 not in powers:
            powers[g2] = u_power(2, (g1, g2))
        if smash(l1, l2) != lam_preimage(powers[g2], smash(r1, r2)):
            failures.append(((g1.values, a1.values), (g2.values, a2.values)))
    return CheckReport(checked, tuple(failures))


def patch(monkeypatch, name, fn):
    """Replace a gammastr function for the reports and their references,
    which read it from this module, alike."""
    monkeypatch.setattr(gammastr, name, fn)
    monkeypatch.setitem(globals(), name, fn)


def lossy_u_on_maps(g, real=u_on_maps):
    # a cut action that sends the cut (0, 1, 1) to the basepoint breaks
    # functoriality and naturality in some pairs
    u = real(g)
    return lam(u.source, u.target,
               lambda cut: BASEPOINT if cut == (0, 1, 1) else u(cut))


def cut_table(g):
    """g's cut table from its cut action: for each cut of the target in
    sorted order, the position of its image among the sorted cuts of the
    source, or -1 for the basepoint."""
    u = u_on_maps(g)
    into = sorted(u_on_objects(g.source_arity))
    return tuple(-1 if u(cut) is BASEPOINT else into.index(u(cut))
                 for cut in sorted(u_on_objects(g.target_arity)))


# -- the cut functor -------------------------------------------------------


def test_cut_counts_match_brute_force():
    for n in range(7):
        oracle = {g.values for g in all_maps(n, 1) if not g.misses()}
        assert u_on_objects(n) == oracle
        assert len(oracle) == n


def test_cut_action_on_identity_and_collapse():
    assert u_on_maps(DeltaMap.identity(3)).is_identity()
    m = u_on_maps(DeltaMap(3, 0, (0, 0, 0, 0)))
    assert m.source == frozenset()
    assert len(m.target) == 3


def test_u_functoriality_exhaustive_through_arity_four():
    report = u_functoriality_report(4)
    assert report.passed
    assert report.checked == 73085


@pytest.mark.parametrize("max_arity", range(5))
def test_u_functoriality_matches_the_lambda_morphism_report(max_arity):
    report = u_functoriality_report(max_arity)
    oracle = reference_u_functoriality_report(max_arity)
    assert (report.checked, report.failures) == \
        (oracle.checked, oracle.failures)


def test_u_functoriality_reports_failures_in_pair_order(monkeypatch):
    patch(monkeypatch, "u_on_maps", lossy_u_on_maps)
    report = u_functoriality_report(3)
    oracle = reference_u_functoriality_report(3)
    assert not report.passed
    assert (report.checked, report.failures) == \
        (oracle.checked, oracle.failures)


def test_cut_tables_read_the_cut_action():
    maps = [g for a in range(4) for b in range(4) for g in all_maps(a, b)]
    numbers, tables = gammastr._cut_tables(maps)
    assert tables == [cut_table(g) for g in maps]
    assert numbers == {n: {cut: k for k, cut in
                           enumerate(sorted(u_on_objects(n)))}
                       for n in range(4)}


def test_smash_table_is_the_smashed_cut_action():
    # entry k1 * t2 + k2 of the table is the image of the cut pair
    # (k1, k2) under u_power(2, (g1, g2)), numbered j1 * s2 + j2
    maps = [g for a in range(3) for b in range(3) for g in all_maps(a, b)]
    for g1, g2 in iproduct(maps, repeat=2):
        cuts1, cuts2 = (sorted(u_on_objects(g.target_arity))
                        for g in (g1, g2))
        images1, images2 = (sorted(u_on_objects(g.source_arity))
                            for g in (g1, g2))
        power = u_power(2, (g1, g2))
        want = []
        for pair in iproduct(cuts1, cuts2):
            image = power(pair)
            want.append(-1 if image is BASEPOINT else
                        images1.index(image[0]) * len(images2)
                        + images2.index(image[1]))
        assert smash_table(cut_table(g1), cut_table(g2),
                           g2.source_arity) == tuple(want)


def test_u_power_unary_is_the_plain_action():
    for a, b in iproduct(range(3), repeat=2):
        for g in all_maps(a, b):
            assert u_power(1, (g,)) == u_on_maps(g)


def test_u_power_on_identities_is_the_identity():
    m = u_power(2, (DeltaMap.identity(2), DeltaMap.identity(3)))
    assert m.is_identity()
    assert len(m.source) == 6


def test_u_power_arity_mismatch():
    with pytest.raises(ValueError, match="expected 2"):
        u_power(2, (DeltaMap.identity(1),))


def test_u_power_pair_functoriality_exhaustive():
    maps = {(a, b): list(all_maps(a, b)) for a in range(3) for b in range(3)}
    pairs = [(h, g) for (a, b), hs in maps.items() for h in hs
             for c in range(3) for g in maps[(b, c)]]
    powers = {}

    def power_of(g1, g2):
        if (g1, g2) not in powers:
            powers[(g1, g2)] = u_power(2, (g1, g2))
        return powers[(g1, g2)]

    for h1, g1 in pairs:
        for h2, g2 in pairs:
            lhs = power_of(g1.compose(h1), g2.compose(h2))
            rhs = lam_compose(power_of(h1, h2), power_of(g1, g2))
            assert lhs == rhs


# -- retraction sets -------------------------------------------------------


def test_retraction_examples():
    assert retraction_set(1, DeltaMap(1, 1, (0, 1))) == {(0, 1)}
    assert len(retraction_set(2, DeltaMap(1, 2, (0, 2)))) == 2
    assert len(retraction_set(2, DeltaMap(1, 2, (0, 1)))) == 1
    assert retraction_set(2, DeltaMap(1, 2, (1, 1))) == frozenset()


def test_retraction_argument_guards():
    with pytest.raises(ValueError, match="edge"):
        retraction_set(2, DeltaMap(2, 2, (0, 1, 2)))
    with pytest.raises(ValueError, match="lands in"):
        retraction_set(3, DeltaMap(1, 2, (0, 2)))


def test_retractions_live_inside_the_cut_set():
    for s in range(1, 4):
        for alpha in all_maps(1, s):
            assert retraction_set(s, alpha) <= u_on_objects(s)


def test_retraction_naturality_exhaustive():
    report = retraction_naturality_report(2)
    assert report.passed
    assert report.checked == 12432


def _naturality_by_pairs(max_arity):
    """The report as it was first written: every pair of singles rebuilds
    its four retraction sets and its smashed cut action."""
    singles = [(g, alpha) for s in range(1, max_arity + 1)
               for t in range(1, max_arity + 1)
               for g in all_maps(s, t) for alpha in all_maps(1, s)]
    rset = gammastr.retraction_set
    failures = []
    for g, alpha in singles:
        lhs = rset(g.target_arity, g.compose(alpha))
        rhs = lam_preimage(gammastr.u_on_maps(g),
                           rset(g.source_arity, alpha))
        if lhs != rhs:
            failures.append((g.values, alpha.values))
    for (g1, a1), (g2, a2) in iproduct(singles, repeat=2):
        lhs = smash(rset(g1.target_arity, g1.compose(a1)),
                    rset(g2.target_arity, g2.compose(a2)))
        rho = smash(rset(g1.source_arity, a1), rset(g2.source_arity, a2))
        if lhs != lam_preimage(u_power(2, (g1, g2)), rho):
            failures.append(((g1.values, a1.values), (g2.values, a2.values)))
    return len(singles) + len(singles) ** 2, tuple(failures)


def test_retraction_naturality_builds_each_smashed_action_once(monkeypatch):
    calls = []
    real = gammastr.smash_table

    def spy(t1, t2, width):
        calls.append((t1, t2, width))
        return real(t1, t2, width)

    monkeypatch.setattr(gammastr, "smash_table", spy)
    assert retraction_naturality_report(2).checked == 12432
    maps = [g for s in (1, 2) for t in (1, 2) for g in all_maps(s, t)]
    # one table per ordered pair of the 23 maps, in pair order, where
    # every pair of the 111 (map, edge) singles once built its own smashed
    # action: 12,321 builds
    assert calls == [(cut_table(g1), cut_table(g2), g2.source_arity)
                     for g1 in maps for g2 in maps]
    assert len(calls) == len(maps) ** 2 == 529


@pytest.mark.parametrize("max_arity", range(3))
def test_retraction_naturality_matches_the_lambda_morphism_report(max_arity):
    report = retraction_naturality_report(max_arity)
    oracle = reference_retraction_naturality_report(max_arity)
    assert (report.checked, report.failures) == \
        (oracle.checked, oracle.failures)


REPORTS = {"u-functoriality": u_functoriality_report,
           "retraction-naturality": retraction_naturality_report}


@pytest.mark.parametrize("check,max_arity", [
    *(("u-functoriality", n) for n in range(6)),
    *(("retraction-naturality", n) for n in range(4))])
def test_gamma_checks_count_their_comparisons_in_closed_form(monkeypatch,
                                                             check,
                                                             max_arity):
    counts = []
    real = gammastr._require_comparisons

    def spy(check_, max_arity_, count):
        counts.append(count(max_arity_))
        return real(check_, max_arity_, count)

    monkeypatch.setattr(gammastr, "_require_comparisons", spy)
    assert [REPORTS[check](max_arity).checked] == counts


@pytest.mark.parametrize("check,count", [
    ("u-functoriality", 393), ("retraction-naturality", 12432)])
def test_gamma_guard_reads_the_comparison_limit(monkeypatch, check, count):
    monkeypatch.setattr(gammastr, "COMPARISON_LIMIT", count)
    assert REPORTS[check](2).checked == count
    monkeypatch.setattr(gammastr, "COMPARISON_LIMIT", count - 1)
    with pytest.raises(GuardError, match=f"^{check}: arity 2 would make "
                                         f"{count} comparisons, over the "
                                         f"limit of {count - 1}$"):
        REPORTS[check](2)


def test_retraction_naturality_follows_a_lossy_cut_action(monkeypatch):
    patch(monkeypatch, "u_on_maps", lossy_u_on_maps)
    report = retraction_naturality_report(2)
    oracle = reference_retraction_naturality_report(2)
    assert not report.passed
    assert (report.checked, report.failures) == \
        (oracle.checked, oracle.failures)


def test_retraction_naturality_reports_failures_in_pair_order(monkeypatch):
    # a retraction set that loses the cut (0, 1, 1) breaks naturality in
    # some singles and pairs; the failures and their order are those of
    # the pair-by-pair report
    real = gammastr.retraction_set

    def lossy(s, alpha):
        return real(s, alpha) - {(0, 1, 1)}

    patch(monkeypatch, "retraction_set", lossy)
    report = retraction_naturality_report(2)
    assert not report.passed
    assert (report.checked, report.failures) == _naturality_by_pairs(2)
    oracle = reference_retraction_naturality_report(2)
    assert (report.checked, report.failures) == \
        (oracle.checked, oracle.failures)


def test_retraction_naturality_through_the_subset_functor():
    # pulling a retraction set back along the cut action is exactly the
    # object action of the induced subset functor
    for s, t in [(1, 2), (2, 2), (1, 1)]:
        for g in all_maps(s, t):
            functor = L_restriction(u_on_maps(g))
            for alpha in all_maps(1, s):
                rho = retraction_set(s, alpha)
                assert functor.on_objects[rho] == \
                    retraction_set(t, g.compose(alpha))


# -- subset categories -----------------------------------------------------


def test_subset_category_counts():
    sizes = []
    for k in range(4):
        cat = L_of(range(k))
        assert check_axioms(cat) == []
        sizes.append((len(cat.objects), len(cat.morphisms())))
    assert sizes == [(1, 1), (2, 5), (4, 25), (8, 125)]


def test_subset_category_morphisms_fix_what_they_keep():
    cat = L_of(range(2))
    for psi in cat.morphisms():
        k, j = cat.morph[psi]
        for x in k:
            assert psi(x) is BASEPOINT or (psi(x) == x and psi(x) in j)
    # a map that moves an element is not admitted
    moved = lam(frozenset({0}), frozenset({1}), {0: 1})
    assert moved not in cat.morph


def test_restriction_along_identity_is_the_identity_functor():
    ground = frozenset({0, 1})
    f = L_restriction(lam_identity(ground))
    assert all(f.on_objects[j] == j for j in f.source.objects)
    assert all(f.on_morphisms[m] == m for m in f.source.morphisms())


def test_restriction_is_contravariantly_functorial():
    arrows = [(src, dst, f) for src in GROUND_SETS for dst in GROUND_SETS
              for f in all_lam(src, dst)]
    for (fs, ft, f) in arrows:
        for (gs, gt, g) in arrows:
            if ft != gs:
                continue
            outer = L_restriction(lam_compose(g, f))
            via_g = L_restriction(g)
            via_f = L_restriction(f)
            assert outer.on_objects == \
                {j: via_f.on_objects[via_g.on_objects[j]]
                 for j in outer.source.objects}
            assert outer.on_morphisms == \
                {m: via_f.on_morphisms[via_g.on_morphisms[m]]
                 for m in outer.source.morphisms()}


def test_preimage_drops_basepoint_hits():
    phi = lam(frozenset({0, 1, 2}), frozenset({0, 1}),
              {0: 0, 1: BASEPOINT, 2: 1})
    assert lam_preimage(phi, frozenset({0, 1})) == frozenset({0, 2})
    assert lam_preimage(phi, frozenset({1})) == frozenset({2})
