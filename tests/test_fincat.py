"""Finite categories, their nerves, and the twisted arrow comparison."""

import random
from pathlib import Path

import pytest

from qcat import errors, fincat
from qcat.cli import main
from qcat.errors import GuardError
from qcat.exact import AbPInstance, VectInstance, parse_instance
from qcat.formats import load_category
from qcat.gammastr import L_of
from qcat.fincat import (
    FiniteCategory,
    FunctorData,
    _nerve_levels,
    chain_poset,
    check_axioms,
    comma,
    corpus,
    cyclic_group_category,
    nerve,
    nerve_map,
    nerve_model,
    nerve_twisted_vs_edgewise,
    opposite_cat,
    parallel_pair,
    product_category,
    twisted_arrow,
    twisted_projection,
)
from qcat.qcons import k0, q_category
from qcat.simpset import left_fibration_check

BZ2 = Path(__file__).resolve().parent.parent / "fixtures" / "bz2.cat"


def identity_functor(c: FiniteCategory) -> FunctorData:
    return FunctorData(c, c, {x: x for x in c.objects},
                       {m: m for m in c.morph})


def test_corpus_satisfies_axioms():
    for name, c in corpus().items():
        assert check_axioms(c) == [], name


def test_axiom_checker_flags_nonassociative_table():
    morph = {"e": ("*", "*"), "a": ("*", "*"), "b": ("*", "*")}
    table = {
        ("e", "e"): "e", ("e", "a"): "a", ("e", "b"): "b",
        ("a", "e"): "a", ("b", "e"): "b",
        # (a.a).a = b.a = b  but  a.(a.a) = a.b = a
        ("a", "a"): "b", ("a", "b"): "a",
        ("b", "a"): "b", ("b", "b"): "a",
    }
    c = FiniteCategory(("*",), morph, {"*": "e"}, table)
    problems = check_axioms(c)
    assert any("associativity" in p for p in problems)


def test_axiom_checker_flags_missing_composite():
    morph = {"id0": (0, 0), "id1": (1, 1), "f": (0, 1)}
    table = {("id0", "id0"): "id0", ("id1", "id1"): "id1",
             ("f", "id0"): "f"}  # (id1, f) left out on purpose
    c = FiniteCategory((0, 1), morph, {0: "id0", 1: "id1"}, table)
    problems = check_axioms(c)
    assert any("missing composite" in p for p in problems)


def test_axioms_are_checked_once_per_category(monkeypatch):
    calls = []

    def spy(c):
        calls.append(c)
        return check_axioms(c)

    monkeypatch.setattr(fincat, "check_axioms", spy)
    k0(VectInstance(2, 2), 3)
    assert len(calls) == 1


def test_a_failing_axiom_check_is_not_recorded():
    morph = {"id0": (0, 0), "id1": (1, 1), "f": (0, 1)}
    table = {("id0", "id0"): "id0", ("id1", "id1"): "id1",
             ("f", "id0"): "f"}
    c = FiniteCategory((0, 1), morph, {0: "id0", 1: "id1"}, table)
    for _ in range(2):
        with pytest.raises(ValueError, match="missing composite"):
            fincat.require_category(c)


def test_opposite_cat_is_an_involution():
    for name, c in corpus().items():
        back = opposite_cat(opposite_cat(c))
        assert back.objects == c.objects, name
        assert back.morph == c.morph, name
        assert back.identity == c.identity, name
        assert back.compose_table == c.compose_table, name


def test_product_category_sizes():
    p = product_category(chain_poset(1), chain_poset(1))
    assert len(p.objects) == 4
    assert len(p.morph) == 9
    assert check_axioms(p) == []


def test_functor_data_rejects_wrong_endpoints():
    one = chain_poset(1)
    with pytest.raises(ValueError, match="endpoints"):
        FunctorData(
            chain_poset(0), one,
            on_objects={0: 0},
            on_morphisms={"0->0": "0->1"},
        )


def test_nerve_of_chain_poset_is_complete_and_contractible():
    ns = nerve(chain_poset(2))
    assert ns.truncation is None
    assert [len(ns.nondeg(n)) for n in range(3)] == [3, 3, 1]
    assert ns.homology() == [(1, []), (0, []), (0, [])]


def test_nerve_of_group_needs_explicit_depth():
    with pytest.raises(ValueError, match="nerve depth"):
        nerve(cyclic_group_category(2))


def test_nerve_of_cyclic_groups_truncated():
    for k in (2, 3):
        ns = nerve(cyclic_group_category(k), 3)
        assert ns.truncation == 3
        assert [len(ns.nondeg(n)) for n in range(4)] == \
            [1, k - 1, (k - 1) ** 2, (k - 1) ** 3]
        assert ns.homology(1) == [(1, []), (0, [k])]


def test_nerve_of_parallel_pair_is_a_circle():
    ns = nerve(parallel_pair())
    assert ns.truncation is None
    assert ns.homology() == [(1, []), (1, [])]
    assert ns.fundamental_group().abelianization() == (1, [])


def test_twisted_arrow_of_the_walking_arrow():
    tw = twisted_arrow(chain_poset(1))
    assert sorted(tw.objects) == ["0->0", "0->1", "1->1"]
    assert check_axioms(tw) == []
    non_ids = {m for m in tw.morph if not tw.is_identity(m)}
    assert non_ids == {("0->0", "0->0", "0->1"), ("0->1", "1->1", "1->1")}
    # both non-identities point into the long arrow
    assert {tw.dst(m) for m in non_ids} == {"0->1"}


def test_twisted_arrow_morphisms_count_three_step_strings():
    # morphisms f -> g are factorizations g = b f a, and those biject with
    # composable triples (a, f, b), i.e. with 3-simplices of the nerve
    for name, c in corpus().items():
        tw = twisted_arrow(c)
        assert check_axioms(tw) == [], name
        n3 = len(nerve(c, 3).values(3))
        assert len(tw.morph) == n3, name


def test_twisted_arrow_of_discrete_is_discrete():
    from qcat.fincat import discrete_category

    tw = twisted_arrow(discrete_category(3))
    assert len(tw.objects) == 3
    assert all(tw.is_identity(m) for m in tw.morph)


def test_twisted_nerve_matches_edgewise_subdivision():
    for name, c in corpus().items():
        ok, witness = nerve_twisted_vs_edgewise(c, 3)
        assert ok, (name, witness)


def test_twisted_projection_nerve_is_a_left_fibration():
    for name, c in corpus().items():
        shadow = nerve_map(twisted_projection(c), 3)
        ok, witness = left_fibration_check(shadow, 3)
        assert ok, (name, witness)


@pytest.fixture
def poset_inclusion():
    one, two = chain_poset(1), chain_poset(2)
    return FunctorData(
        one, two,
        on_objects={0: 0, 1: 1},
        on_morphisms={"0->0": "0->0", "0->1": "0->1", "1->1": "1->1"},
    )


def test_comma_slice_over_top_object(poset_inclusion):
    sl = comma(poset_inclusion, 2)
    assert sorted(sl.objects) == [(0, "0->2"), (1, "1->2")]
    assert check_axioms(sl) == []
    assert nerve(sl).homology() == [(1, []), (0, [])]


def test_comma_of_identity_functor_is_contractible():
    two = chain_poset(2)
    sl = comma(identity_functor(two), 2)
    assert len(sl.objects) == 3
    ns = nerve(sl)
    assert ns.truncation is None
    assert ns.homology() == [(1, []), (0, []), (0, [])]


def test_nerve_map_deepens_target_when_images_degenerate():
    terminal = chain_poset(0)
    fun = FunctorData(
        cyclic_group_category(2), terminal,
        on_objects={"*": 0},
        on_morphisms={"r0": "0->0", "r1": "0->0"},
    )
    f = nerve_map(fun, 3)
    assert f.source.truncation == 3
    # the single nondegenerate edge collapses onto the vertex
    edge = f.source.nondeg(1)[0]
    assert f.on_value(((), edge)) == ((0,), f.target.nondeg(0)[0])


# -- composition tables and pi_1 read off them -------------------------------


def pairwise_table(morph, compose):
    """The pairwise scan that `composites` replaced: every g, then every f,
    both in `morph` order, kept where f arrives at g's source."""
    table = {}
    for g, (g_src, _) in morph.items():
        for f, (_, f_dst) in morph.items():
            if f_dst == g_src:
                table[(g, f)] = compose(g, f)
    return table


def test_composites_matches_the_pairwise_scan(poset_inclusion):
    cats = {f"Tw({name})": twisted_arrow(c) for name, c in corpus().items()}
    cats["slice over 2"] = comma(poset_inclusion, 2)
    cats["identity slice"] = comma(identity_functor(chain_poset(2)), 2)
    cats["L({0, 1, 2})"] = L_of(frozenset({0, 1, 2}))
    cats["Q(abp:2:4)"] = q_category(AbPInstance(2, 4)).category
    for name, c in cats.items():
        want = pairwise_table(c.morph, c.compose)
        assert want, name
        for got in (c.compose_table, fincat.composites(c.morph, c.compose)):
            assert got == want, name
            assert list(got) == list(want), name


def test_category_pi1_matches_the_nerve():
    cats = dict(corpus())
    cats.update({f"Tw({name})": twisted_arrow(c)
                 for name, c in corpus().items()})
    cats["bz2 x poset_0<1<2"] = product_category(cyclic_group_category(2),
                                                 chain_poset(2))
    for desc in ("vect:2:1", "vect:2:2", "abp:2:4", "abp:3:9"):
        cats[f"Q({desc})"] = q_category(parse_instance(desc)).category
    relators = 0
    for name, c in cats.items():
        got = fincat.pi1_presentation(c)
        assert got == nerve(c, 2).pi1_presentation(), name
        relators += len(got.relators)
    assert relators > 3000    # Q(abp:3:9) alone has about 3,100


# -- the nerve size guard ----------------------------------------------------


def test_nerve_guard_names_the_level_and_its_size(monkeypatch):
    c = q_category(AbPInstance(2, 4)).category
    assert len(_nerve_levels(c, 3)) == 852
    monkeypatch.setattr(errors, "SIZE_LIMIT", 852)
    assert nerve_model(c, 3).max_dim == 3
    monkeypatch.setattr(errors, "SIZE_LIMIT", 851)
    with pytest.raises(GuardError, match="^nerve: 852 strings at level 3, "
                                         "over the limit of 851$"):
        nerve_model(c, 3)


def test_nerve_guard_exits_one_through_the_cli(monkeypatch, capsys):
    # twisted compares level n of the twisted arrow nerve with level 2n+1
    # of the category's nerve, so --depth 3 reaches level 7
    c = load_category(BZ2.read_text())
    count = len(_nerve_levels(c, 7))
    monkeypatch.setattr(errors, "SIZE_LIMIT", count - 1)
    rc = main(["twisted", "--in", str(BZ2), "--depth", "3"])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert err == (f"qcat twisted: guard: nerve: {count} strings at level 7, "
                   f"over the limit of {count - 1}\n")


def test_nerve_guard_covers_the_long_strings_of_the_twisted_comparison(
        monkeypatch):
    c = cyclic_group_category(3)
    count = len(_nerve_levels(c, 5))
    monkeypatch.setattr(errors, "SIZE_LIMIT", count - 1)
    with pytest.raises(GuardError, match=f"^nerve: {count} strings at level "
                                         f"5, over the limit of {count - 1}$"):
        nerve_twisted_vs_edgewise(c, 2)


def test_nerve_guard_covers_the_deepened_target_of_a_nerve_map(monkeypatch):
    # five parallel arrows a -> b: complete at level 1 (7 strings), but a
    # level-2 source string needs its level 2 (12 strings)
    morph = {"ida": ("a", "a"), "idb": ("b", "b")}
    morph.update({f"f{i}": ("a", "b") for i in range(5)})
    ident = {"a": "ida", "b": "idb"}
    table = {}
    for m, (s, t) in morph.items():
        table[(m, ident[s])] = m
        table[(ident[t], m)] = m
    arrows = FiniteCategory(("a", "b"), morph, ident, table)
    fun = FunctorData(
        chain_poset(2), arrows,
        on_objects={0: "a", 1: "b", 2: "b"},
        on_morphisms={"0->0": "ida", "1->1": "idb", "2->2": "idb",
                      "0->1": "f0", "0->2": "f0", "1->2": "idb"},
    )
    monkeypatch.setattr(errors, "SIZE_LIMIT", 10)
    assert nerve_model(chain_poset(2)).max_dim == 2
    assert nerve_model(arrows).max_dim == 1
    with pytest.raises(GuardError, match="^nerve: 12 strings at level 2, "
                                         "over the limit of 10$"):
        nerve_map(fun)


# -- index and axiom check against the scans they replaced -----------------


def reference_check_axioms(c):
    """check_axioms as an exhaustive scan over all M^3 triples."""
    problems = []
    for x in c.objects:
        e = c.identity.get(x)
        if e is None or e not in c.morph:
            problems.append(f"object {x!r} has no identity morphism")
        elif c.morph[e] != (x, x):
            problems.append(f"identity of {x!r} is not an endomorphism of it")
    for m, (s, t) in c.morph.items():
        if s not in c.objects or t not in c.objects:
            problems.append(f"morphism {m!r} has unknown endpoints")
    for g in c.morph:
        for f in c.morph:
            composable = c.dst(f) == c.src(g)
            present = (g, f) in c.compose_table
            if composable and not present:
                problems.append(f"missing composite {g!r} after {f!r}")
            if present and not composable:
                problems.append(f"composite defined for non-composable {g!r}, {f!r}")
            if present:
                gf = c.compose_table[(g, f)]
                if gf not in c.morph:
                    problems.append(f"composite {g!r} after {f!r} is unknown")
                elif composable and c.morph[gf] != (c.src(f), c.dst(g)):
                    problems.append(f"composite {g!r} after {f!r} has wrong endpoints")
    if problems:
        return problems
    for f in c.morph:
        if c.compose((c.identity[c.dst(f)]), f) != f:
            problems.append(f"left unit law fails at {f!r}")
        if c.compose(f, c.identity[c.src(f)]) != f:
            problems.append(f"right unit law fails at {f!r}")
    for h in c.morph:
        for g in c.morph:
            if c.dst(g) != c.src(h):
                continue
            hg = c.compose(h, g)
            for f in c.morph:
                if c.dst(f) != c.src(g):
                    continue
                if c.compose(hg, f) != c.compose(h, c.compose(g, f)):
                    problems.append(f"associativity fails at ({h!r}, {g!r}, {f!r})")
    return problems


@pytest.fixture(scope="module")
def sample_categories():
    cats = dict(corpus())
    for name, c in corpus().items():
        cats["tw " + name] = twisted_arrow(c)
    cats["bz2 x poset_0<1<2"] = product_category(
        cyclic_group_category(2), chain_poset(2))
    cats["Q(vect:2:1)"] = q_category(VectInstance(2, 1)).category
    cats["Q(abp:2:4)"] = q_category(AbPInstance(2, 4)).category
    return cats


def test_morphism_index_keeps_the_sorted_scan_order(sample_categories):
    for name, c in sample_categories.items():
        order = sorted(c.morph, key=repr)
        assert c.morphisms() == order, name
        for x in c.objects:
            assert c.morphisms_from(x) == tuple(
                m for m in order if c.src(m) == x), name
            assert c.morphisms_to(x) == tuple(
                m for m in order if c.dst(m) == x), name
            for y in c.objects:
                assert c.hom(x, y) == [m for m in order
                                       if c.morph[m] == (x, y)], name
        strings = [(m,) for m in order]
        for n in (1, 2, 3):
            assert _nerve_levels(c, n) == strings, (name, n)
            strings = [s + (m,) for s in strings for m in order
                       if c.dst(s[-1]) == c.src(m)]


def test_check_axioms_matches_full_scan(sample_categories):
    for name, c in sample_categories.items():
        assert check_axioms(c) == reference_check_axioms(c) == [], name


def test_check_axioms_matches_full_scan_on_corrupted_tables(sample_categories):
    rng = random.Random(7)
    flagged = 0
    for name, c in sample_categories.items():
        pairs = sorted(c.compose_table, key=repr)
        for _ in range(6):
            g, f = pairs[rng.randrange(len(pairs))]
            # a wrong composite with the right endpoints reaches the
            # associativity scan; one with wrong endpoints stops before it
            same_ends = [m for m in c.morph if c.morph[m] == (c.src(f), c.dst(g))]
            bad = rng.choice(same_ends if rng.random() < 0.8 else sorted(c.morph, key=repr))
            table = dict(c.compose_table)
            table[(g, f)] = bad
            broken = FiniteCategory(c.objects, c.morph, c.identity, table)
            problems = check_axioms(broken)
            assert problems == reference_check_axioms(broken), (name, g, f, bad)
            flagged += any("associativity" in p for p in problems)
        # a deleted composable pair, and a key for a non-composable pair
        g, f = pairs[rng.randrange(len(pairs))]
        table = dict(c.compose_table)
        del table[(g, f)]
        tables = [table]
        loose = sorted(((g, f) for g in c.morph for f in c.morph
                        if c.dst(f) != c.src(g)), key=repr)
        if loose:
            g, f = loose[rng.randrange(len(loose))]
            tables.append({**c.compose_table, (g, f): g})
        for table in tables:
            broken = FiniteCategory(c.objects, c.morph, c.identity, table)
            problems = check_axioms(broken)
            assert problems and problems == reference_check_axioms(broken), name
    assert flagged >= 10
