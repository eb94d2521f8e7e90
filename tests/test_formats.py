import json
from pathlib import Path

import pytest

from qcat.fincat import check_axioms
from qcat.formats import (dump_category, dump_sset, load_category, load_sset,
                          relabel_to_strings)
from qcat.simpset import SimplicialSet, simplicial_set_from_triangulation

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def read(name):
    return (FIXTURES / name).read_text(encoding="utf-8")


def test_sset_fixture_round_trips():
    text = read("rp2.sset")
    assert dump_sset(load_sset(text)) == text


@pytest.mark.parametrize("name", ["poset3.cat", "bz2.cat"])
def test_category_fixtures_round_trip(name):
    text = read(name)
    assert dump_category(load_category(text)) == text


def test_projective_plane_fixture_homology():
    ss = load_sset(read("rp2.sset"))
    assert ss.homology(2) == [(1, []), (0, [2]), (0, [])]


@pytest.mark.parametrize("name", ["poset3.cat", "bz2.cat"])
def test_category_fixtures_satisfy_axioms(name):
    assert check_axioms(load_category(read(name))) == []


def test_invalid_json_reports_the_location():
    with pytest.raises(ValueError, match=r"line 2 column \d+"):
        load_sset('{\n  "dims: []\n}')
    with pytest.raises(ValueError, match=r"line 1 column 1"):
        load_category("not json")


def test_top_level_must_be_an_object():
    with pytest.raises(ValueError, match="top level"):
        load_sset("[1, 2]")


def test_sset_field_validation():
    with pytest.raises(ValueError, match="non-string id"):
        load_sset(json.dumps({"dims": [[0]], "faces": {}}))
    with pytest.raises(ValueError, match="duplicate id"):
        load_sset(json.dumps({"dims": [["v", "v"]], "faces": {}}))
    with pytest.raises(ValueError, match="unknown id"):
        load_sset(json.dumps({"dims": [["v"]], "faces": {"w": []}}))
    with pytest.raises(ValueError, match=r"faces\['e'\]\[0\]"):
        load_sset(json.dumps(
            {"dims": [["v"], ["e"]], "faces": {"e": [["0", "v"]]}}))
    with pytest.raises(ValueError, match="'truncation' must be an integer"):
        load_sset(json.dumps(
            {"dims": [["v"]], "faces": {}, "truncation": "2"}))


@pytest.mark.parametrize("data,message", [
    ({"dims": [["v"]], "truncation": True}, "'truncation' must be an integer"),
    # a 3-simplex whose faces are all s_1 s_0 v, one letter written as true
    ({"dims": [["v"], [], [], ["x"]],
      "faces": {"x": [[[True, 0], "v"]] + [[[1, 0], "v"]] * 3}},
     r"faces\['x'\]\[0\] must be \[word, id\]"),
    ({"dims": [["v"], [], ["t"]],
      "faces": {"t": [[[0], "v"], [[0], "v"], [[-1], "v"]]}},
     "sset file: degeneracy word out of range"),
], ids=["boolean-truncation", "boolean-letter", "negative-letter"])
def test_sset_rejects_booleans_and_negative_letters(data, message):
    with pytest.raises(ValueError, match=message):
        load_sset(json.dumps(data))


def test_sset_face_targets_are_checked_by_the_wrapped_constructor():
    # structurally fine JSON, semantically broken presentation
    bad = json.dumps({"dims": [["v"], ["e"]],
                      "faces": {"e": [[[0], "missing"], [[1], "v"]]}})
    with pytest.raises(ValueError, match="sset file:"):
        load_sset(bad)


def test_truncation_survives_the_round_trip():
    text = dump_sset(load_sset(json.dumps(
        {"dims": [["v"]], "faces": {}, "truncation": 1})))
    assert load_sset(text).truncation == 1
    assert '"truncation":1' in text


def test_dump_sset_refuses_tuple_ids():
    ss = simplicial_set_from_triangulation([(1, 2, 3)])
    with pytest.raises(ValueError, match="relabel before writing"):
        dump_sset(ss)


def test_relabel_joins_tuple_ids_with_dots():
    ss = relabel_to_strings(simplicial_set_from_triangulation([(1, 2, 3)]))
    assert "1.2.3" in ss.dims
    assert ss.dims["1.2.3"] == 2
    assert dump_sset(load_sset(dump_sset(ss))) == dump_sset(ss)


def test_relabel_rejects_collisions():
    ss = SimplicialSet({"1.2": 0, (1, 2): 0}, {})
    with pytest.raises(ValueError, match="merge distinct"):
        relabel_to_strings(ss)


def category_payload():
    return {
        "objects": ["a"],
        "morphisms": [{"id": "ida", "src": "a", "dst": "a"}],
        "identities": {"a": "ida"},
        "compose": [["ida", "ida", "ida"]],
    }


def test_minimal_category_loads():
    c = load_category(json.dumps(category_payload()))
    assert c.objects == ("a",)
    assert check_axioms(c) == []


def test_category_field_validation():
    bad = category_payload()
    bad["objects"] = ["a", "a"]
    with pytest.raises(ValueError, match="duplicate object"):
        load_category(json.dumps(bad))

    bad = category_payload()
    bad["morphisms"].append({"id": "f", "src": "a", "dst": "b"})
    with pytest.raises(ValueError, match="endpoints are unknown"):
        load_category(json.dumps(bad))

    bad = category_payload()
    bad["identities"] = {}
    with pytest.raises(ValueError, match="lacks a known identity"):
        load_category(json.dumps(bad))

    bad = category_payload()
    bad["identities"]["b"] = "ida"
    with pytest.raises(ValueError, match="identity for unknown object"):
        load_category(json.dumps(bad))

    bad = category_payload()
    bad["compose"].append(["ida", "ida", "ida"])
    with pytest.raises(ValueError, match="repeats a pair"):
        load_category(json.dumps(bad))

    bad = category_payload()
    bad["compose"] = [["ida", "ida", "ghost"]]
    with pytest.raises(ValueError, match="unknown morphism 'ghost'"):
        load_category(json.dumps(bad))


def test_dump_category_requires_string_names():
    from qcat.fincat import chain_poset
    with pytest.raises(ValueError, match="is not a string"):
        dump_category(chain_poset(1))
