"""Integral homology and edge-path groups of some tiny triangulated surfaces.

Each surface is handed over as a list of increasing vertex triples; the
face maps and the chain complex come for free.  The projective plane is
the interesting one: its middle homology is pure 2-torsion and its
fundamental group simplifies down to a single generator squaring to the
identity.
"""

from qcat.presentation import abelian_label
from qcat.simpset import simplicial_set_from_triangulation

SPHERE = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]

PROJECTIVE_PLANE = [
    (1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 6), (1, 4, 5),
    (2, 3, 4), (2, 3, 5), (2, 4, 6), (3, 5, 6), (4, 5, 6),
]

DISK = [(1, 2, 3)]


def describe(name, triangles):
    ss = simplicial_set_from_triangulation(triangles)
    print(f"{name}: {len(triangles)} triangles, "
          f"euler characteristic {ss.euler_characteristic()}")
    for degree, (betti, torsion) in enumerate(ss.homology()):
        print(f"  H_{degree} = {abelian_label(betti, torsion)}")
    pres = ss.fundamental_group()
    betti, torsion = pres.abelianization()
    print(f"  pi_1: {len(pres.generators)} generators, "
          f"{len(pres.relators)} relators after simplification, "
          f"abelianization {abelian_label(betti, torsion)}")
    print()


if __name__ == "__main__":
    describe("disk", DISK)
    describe("sphere", SPHERE)
    describe("projective plane", PROJECTIVE_PLANE)
