"""Filtration certificates for the vector-space to abelian-group embedding.

Every finite abelian 2-group with order at most 4 is filtered by the
kernels of multiplication by increasing powers of 2; the successive
quotients are elementary abelian, so they come from the vector-space
side.  The slice complexes over each probe object stay contractible as
the filtration climbs, and their homology agrees stage by stage, which
is the finite shadow of the embedding inducing an equivalence.
"""

from qcat.deviss import (VectToAbP, admissible_filtration, comma_over,
                         devissage_certificate, q_functor)
from qcat.exact import AbPInstance, VectInstance
from qcat.qcons import abelian_label


def filtration_table(psi):
    t = psi.target
    print(f"filtrations over {psi.describe()}")
    for x in t.objects():
        filt = admissible_filtration(psi, x)
        stages = " < ".join(t.label(s) for s in filt.stage_objects)
        quots = ", ".join(t.label(q) for q in filt.quotient_objects)
        print(f"  {t.label(x):8s} stages {stages:22s} quotients [{quots}]")


def slice_homology(psi, depth):
    t = psi.target
    fun = q_functor(psi)
    print(f"\nslice homology at depth {depth}")
    for x in t.objects():
        ss = comma_over(fun, x, depth)
        line = ", ".join(f"H_{d} = {abelian_label(b, tors)}"
                         for d, (b, tors) in enumerate(ss.homology(depth - 1)))
        print(f"  over {t.label(x):8s} {line}")


def certificate(psi, depth):
    cert = devissage_certificate(psi, psi.target.objects(), depth)
    print(f"\ncertificate at depth {depth}: "
          f"stages consistent: {cert.stages_consistent}, "
          f"all probes contractible: {cert.all_contractible}")
    for p in cert.probes:
        print(f"  probe {p.probe:8s} {p.certificate.status} "
              f"(depth {p.certificate.depth})")


if __name__ == "__main__":
    psi = VectToAbP(VectInstance(2, 2), AbPInstance(2, 4))
    filtration_table(psi)
    slice_homology(psi, 2)
    certificate(psi, 2)
