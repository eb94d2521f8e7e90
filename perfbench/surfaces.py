"""Seeded triangulated surfaces for the `surfaces` workload.

Each surface starts from a minimal triangulation (the tetrahedron
boundary for S^2, the 7-vertex torus, the 6-vertex RP^2) and grows by
seeded stellar moves until it reaches its target triangle count.  A face
move puts a new vertex inside a triangle; an edge move puts one on an
edge and splits both triangles that share it.  Both keep the space a
simplicial complex homeomorphic to the start, and each adds one vertex,
three edges and two triangles, so the Euler characteristic is fixed.

The files are written in the `.sset` JSON format (string ids, vertex
ids joined by dots in increasing order) directly, so the program under
test sees nothing but the file.
"""

import json
import random
from itertools import combinations

# name -> (seed triangles, expected homology [(betti, torsion)] in degrees
# 0..2, expected abelianized pi_1 (betti, torsion))
SURFACES = {
    "s2": (
        [tuple(t) for t in combinations(range(1, 5), 3)],
        [(1, []), (0, []), (1, [])],
        (0, []),
    ),
    "t2": (
        [tuple(sorted(((i + a) % 7) + 1 for a in shape))
         for i in range(7) for shape in ((0, 1, 3), (0, 2, 3))],
        [(1, []), (2, []), (1, [])],
        (2, []),
    ),
    "rp2": (
        [(1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 6), (1, 4, 5),
         (2, 3, 4), (2, 3, 5), (2, 4, 6), (3, 5, 6), (4, 5, 6)],
        [(1, []), (0, [2]), (0, [])],
        (0, [2]),
    ),
}


def refine(triangles, target: int, rng: random.Random):
    """Apply seeded stellar moves until there are `target` triangles."""
    tris = {tuple(sorted(t)) for t in triangles}
    if (target - len(tris)) % 2 or target < len(tris):
        raise ValueError(f"cannot reach {target} triangles from {len(tris)}")
    nxt = max(v for t in tris for v in t) + 1
    while len(tris) < target:
        order = sorted(tris)
        t = order[rng.randrange(len(order))]
        v, nxt = nxt, nxt + 1
        if rng.random() < 0.5:
            a, b, c = t
            tris.remove(t)
            tris.update({tuple(sorted(e + (v,)))
                         for e in ((a, b), (b, c), (a, c))})
        else:
            a, b = rng.choice(list(combinations(t, 2)))
            for s in [s for s in order if a in s and b in s]:
                (x,) = set(s) - {a, b}
                tris.remove(s)
                tris.add(tuple(sorted((a, v, x))))
                tris.add(tuple(sorted((b, v, x))))
    return sorted(tris)


def _id(simplex) -> str:
    return ".".join(str(v) for v in simplex)


def sset_text(triangles) -> str:
    """Canonical `.sset` JSON for a 2-dimensional simplicial complex."""
    verts = sorted({v for t in triangles for v in t})
    edges = sorted({e for t in triangles for e in combinations(t, 2)})
    faces = {}
    for s in list(edges) + list(triangles):
        faces[_id(s)] = [[[], _id(s[:i] + s[i + 1:])] for i in range(len(s))]
    data = {"dims": [sorted(_id((v,)) for v in verts),
                     sorted(_id(e) for e in edges),
                     sorted(_id(t) for t in triangles)],
            "faces": faces}
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


def generate(seed: int, target: int):
    """{name: (triangles, sset text)} for every surface, from one seed."""
    out = {}
    for k, (name, (start, _, _)) in enumerate(sorted(SURFACES.items())):
        rng = random.Random(seed * 1000 + k)
        goal = target + (target - len(start)) % 2
        tris = refine(start, goal, rng)
        out[name] = (tris, sset_text(tris))
    return out


def counts(triangles) -> dict:
    """Vertex, edge and triangle counts of a complex given by triangles."""
    return {"vertices": len({v for t in triangles for v in t}),
            "edges": len({e for t in triangles for e in combinations(t, 2)}),
            "triangles": len(triangles)}


def check_homology(name: str, triangles, report: dict) -> str | None:
    """None when a `qcat homology` report matches the construction."""
    expected = SURFACES[name][1]
    got = [(g["betti"], g["torsion"]) for g in report["groups"]]
    if got != [(b, list(t)) for b, t in expected]:
        return f"{name}: homology {got}, expected {expected}"
    c = counts(triangles)
    euler = c["vertices"] - c["edges"] + c["triangles"]
    alternating = sum((-1) ** n * b for n, (b, _) in enumerate(got))
    if euler != alternating:
        return f"{name}: V-E+F = {euler} but alternating Betti sum {alternating}"
    return None


def check_pi1(name: str, report: dict) -> str | None:
    """None when a `qcat pi1` report's abelianization matches."""
    betti, torsion = SURFACES[name][2]
    got = report["abelianization"]
    if (got["betti"], got["torsion"]) != (betti, torsion):
        return f"{name}: abelianization {got}, expected {(betti, torsion)}"
    return None
