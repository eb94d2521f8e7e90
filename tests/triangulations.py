"""Seeded triangulated surfaces built in code, for property tests.

Each surface starts from a minimal triangulation (the tetrahedron
boundary for S^2, the 7-vertex torus, the 6-vertex RP^2) and grows by
seeded stellar moves.  A face move puts a new vertex inside a triangle;
an edge move puts one on an edge and splits both triangles that share
it.  Both keep a simplicial complex homeomorphic to the start.
"""

import random
from itertools import combinations

from qcat.simpset import simplicial_set_from_triangulation

SEEDS = {
    "s2": [tuple(t) for t in combinations(range(1, 5), 3)],
    "t2": [tuple(sorted(((i + a) % 7) + 1 for a in shape))
           for i in range(7) for shape in ((0, 1, 3), (0, 2, 3))],
    "rp2": [(1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 6), (1, 4, 5),
            (2, 3, 4), (2, 3, 5), (2, 4, 6), (3, 5, 6), (4, 5, 6)],
}

# integral homology in degrees 0, 1, 2 as (betti, torsion)
HOMOLOGY = {
    "s2": [(1, []), (0, []), (1, [])],
    "t2": [(1, []), (2, []), (1, [])],
    "rp2": [(1, []), (0, [2]), (0, [])],
}


def refine(triangles, moves: int, seed: int):
    """Apply `moves` seeded stellar moves; each adds two triangles."""
    rng = random.Random(seed)
    tris = {tuple(sorted(t)) for t in triangles}
    nxt = max(v for t in tris for v in t) + 1
    for _ in range(moves):
        order = sorted(tris)
        t = order[rng.randrange(len(order))]
        v, nxt = nxt, nxt + 1
        if rng.random() < 0.5:
            tris.remove(t)
            tris.update(tuple(sorted(e + (v,))) for e in combinations(t, 2))
        else:
            a, b = rng.choice(list(combinations(t, 2)))
            for s in [s for s in order if a in s and b in s]:
                (x,) = set(s) - {a, b}
                tris.remove(s)
                tris.add(tuple(sorted((a, v, x))))
                tris.add(tuple(sorted((b, v, x))))
    return sorted(tris)


def surface(name: str, moves: int, seed: int):
    return simplicial_set_from_triangulation(refine(SEEDS[name], moves, seed))
