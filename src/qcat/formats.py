"""Readers and writers for the on-disk JSON formats.

Two kinds of files: simplicial-set presentations ("dims" levels plus
face records) and finite categories (objects, morphism records,
identities, composition triples).  Canonical output is UTF-8 with
sorted keys, no padding, and a trailing newline, so dumping a freshly
parsed file reproduces it byte for byte.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from .simpset import SimplicialSet

if TYPE_CHECKING:
    from .fincat import FiniteCategory


def _canon(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False) + "\n"


def _json_of(text: str, kind: str):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(
            f"{kind} file: invalid JSON at line {e.lineno} column {e.colno}")
    if not isinstance(data, dict):
        raise ValueError(f"{kind} file: top level must be an object")
    return data


# -- simplicial sets -------------------------------------------------------


def load_sset(text: str) -> SimplicialSet:
    data = _json_of(text, "sset")
    levels = data.get("dims")
    if not isinstance(levels, list) or \
            not all(isinstance(level, list) for level in levels):
        raise ValueError("sset file: 'dims' must be a list of id lists")
    dims = {}
    for n, level in enumerate(levels):
        for x in level:
            if not isinstance(x, str):
                raise ValueError(f"sset file: dims[{n}] holds non-string id {x!r}")
            if x in dims:
                raise ValueError(f"sset file: duplicate id {x!r}")
            dims[x] = n
    faces_in = data.get("faces", {})
    if not isinstance(faces_in, dict):
        raise ValueError("sset file: 'faces' must be an object")
    faces = {}
    for x, vals in faces_in.items():
        if x not in dims:
            raise ValueError(f"sset file: face record for unknown id {x!r}")
        if not isinstance(vals, list):
            raise ValueError(f"sset file: faces[{x!r}] must be a list")
        recs = []
        for k, v in enumerate(vals):
            ok = (isinstance(v, list) and len(v) == 2
                  and isinstance(v[0], list)
                  and all(type(j) is int for j in v[0])
                  and isinstance(v[1], str))
            if not ok:
                raise ValueError(
                    f"sset file: faces[{x!r}][{k}] must be [word, id]")
            recs.append((tuple(v[0]), v[1]))
        faces[x] = tuple(recs)
    truncation = data.get("truncation")
    if truncation is not None and type(truncation) is not int:
        raise ValueError("sset file: 'truncation' must be an integer")
    try:
        return SimplicialSet(dims, faces, truncation)
    except ValueError as e:
        raise ValueError(f"sset file: {e}")


def dump_sset(ss: SimplicialSet) -> str:
    for x in ss.dims:
        if not isinstance(x, str):
            raise ValueError(
                f"simplex id {x!r} is not a string; relabel before writing")
    top = max(ss.dims.values(), default=-1)
    levels = [[] for _ in range(top + 1)]
    for x, n in ss.dims.items():
        levels[n].append(x)
    for level in levels:
        level.sort()
    faces = {x: [[list(w), t] for (w, t) in fs]
             for x, fs in ss.faces.items() if fs}
    data = {"dims": levels, "faces": faces}
    if ss.truncation is not None:
        data["truncation"] = ss.truncation
    return _canon(data)


# -- finite categories -----------------------------------------------------


def load_category(text: str) -> FiniteCategory:
    from .fincat import FiniteCategory
    data = _json_of(text, "category")
    objects = data.get("objects")
    if not isinstance(objects, list) or \
            not all(isinstance(o, str) for o in objects):
        raise ValueError("category file: 'objects' must be a string list")
    if len(set(objects)) != len(objects):
        raise ValueError("category file: duplicate object names")
    obj_set = set(objects)

    morph = {}
    recs = data.get("morphisms")
    if not isinstance(recs, list):
        raise ValueError("category file: 'morphisms' must be a list")
    for k, rec in enumerate(recs):
        if not isinstance(rec, dict) or \
                not {"id", "src", "dst"} <= set(rec):
            raise ValueError(
                f"category file: morphisms[{k}] needs id, src and dst")
        mid, src, dst = rec["id"], rec["src"], rec["dst"]
        if not isinstance(mid, str) or mid in morph:
            raise ValueError(
                f"category file: morphisms[{k}] has a bad or duplicate id")
        if src not in obj_set or dst not in obj_set:
            raise ValueError(
                f"category file: morphism {mid!r} endpoints are unknown")
        morph[mid] = (src, dst)

    identity = data.get("identities")
    if not isinstance(identity, dict):
        raise ValueError("category file: 'identities' must be an object")
    for obj in objects:
        mid = identity.get(obj)
        if mid not in morph:
            raise ValueError(
                f"category file: object {obj!r} lacks a known identity")
    for obj in identity:
        if obj not in obj_set:
            raise ValueError(f"category file: identity for unknown object {obj!r}")

    table = {}
    triples = data.get("compose")
    if not isinstance(triples, list):
        raise ValueError("category file: 'compose' must be a list")
    for k, triple in enumerate(triples):
        if not (isinstance(triple, list) and len(triple) == 3):
            raise ValueError(f"category file: compose[{k}] must be [g, f, gf]")
        g, f, gf = triple
        for name in (g, f, gf):
            if name not in morph:
                raise ValueError(
                    f"category file: compose[{k}] names unknown morphism {name!r}")
        if (g, f) in table:
            raise ValueError(f"category file: compose[{k}] repeats a pair")
        table[(g, f)] = gf

    return FiniteCategory(objects, morph, identity, table)


def dump_category(c: FiniteCategory) -> str:
    for x in c.objects:
        if not isinstance(x, str):
            raise ValueError(f"object id {x!r} is not a string")
    for m in c.morph:
        if not isinstance(m, str):
            raise ValueError(f"morphism id {m!r} is not a string")
    data = {
        "objects": sorted(c.objects),
        "morphisms": [{"id": m, "src": c.morph[m][0], "dst": c.morph[m][1]}
                      for m in sorted(c.morph)],
        "identities": dict(sorted(c.identity.items())),
        "compose": sorted([g, f, gf] for (g, f), gf in c.compose_table.items()),
    }
    return _canon(data)
