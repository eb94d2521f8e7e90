"""Command line front end.

Every subcommand writes one canonical JSON report to stdout and a short
human-readable summary to stderr.  Reports depend only on the
arguments.  Exit status: 0 for any completed run (negative verdicts
are data, not errors), 1 when a construction guard trips, 2 for
malformed input, with a message naming where the problem sits.
"""

import argparse
import sys
from pathlib import Path

from .delta import is_combinatorial_subdivision, parse_word
from .deviss import VectToAbP, devissage_certificate
from .errors import GuardError
from .exact import AbPInstance, VectInstance, parse_instance, verify_triple
from .fincat import nerve_map, nerve_twisted_vs_edgewise, twisted_projection
from .formats import _canon, load_category, load_sset
from .gammastr import retraction_naturality_report, u_functoriality_report
from .qcons import abelian_label, k0, segal_spine_check
from .simpset import left_fibration_check


def _read(path: str, kind: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ValueError(f"cannot read {kind} file {path!r}: {e.strerror}")


def _cert_json(cert) -> dict:
    return {"status": cert.status, "depth": cert.depth, "reason": cert.reason}


def _homology_json(pairs) -> list:
    return [{"degree": n, "betti": b, "torsion": list(t)}
            for n, (b, t) in enumerate(pairs)]


def _homology_summary(pairs) -> str:
    return ", ".join(f"H_{n} = {abelian_label(b, t)}"
                     for n, (b, t) in enumerate(pairs))


def _presentation_json(pres) -> dict:
    return {"generators": list(pres.generators),
            "relators": [[[g, e] for g, e in rel] for rel in pres.relators]}


# -- subcommands -------------------------------------------------------------


def run_subdivide(args):
    word = parse_word(args.word)
    verdict = is_combinatorial_subdivision(word, args.mmax, args.depth)
    report = {
        "command": "subdivide",
        "word": args.word,
        "m_max": verdict.m_max,
        "depth": verdict.depth,
        "status": verdict.status,
        "witness_m": verdict.witness_m,
        "per_m": [{"m": m, **_cert_json(c)} for m, c in verdict.per_m],
    }
    if verdict.status == "subdivision":
        summary = (f"subdivision: every simplex through m = {verdict.m_max} "
                   f"certified contractible through depth {verdict.depth - 1}")
    else:
        culprit = verdict.certificate(verdict.witness_m)
        summary = (f"{verdict.status.replace('_', ' ')}: "
                   f"m = {verdict.witness_m} ({culprit.reason})")
    return report, summary


def run_twisted(args):
    c = load_category(_read(args.infile, "category"))
    ok, witness = nerve_twisted_vs_edgewise(c, args.depth)
    shadow = nerve_map(twisted_projection(c), args.depth)
    fib_ok, fib_witness = left_fibration_check(shadow, args.depth)
    report = {
        "command": "twisted",
        "input": args.infile,
        "depth": args.depth,
        "levels": [len(shadow.source.values(n))
                   for n in range(args.depth + 1)],
        "matches_edgewise": ok,
        "mismatch_witness": None if witness is None else str(witness),
        "left_fibration": fib_ok,
        "fibration_witness": None if fib_witness is None else str(fib_witness),
    }
    a = "matches" if ok else "DIFFERS FROM"
    b = "is" if fib_ok else "is NOT"
    summary = (f"twisted nerve {a} the edgewise one through depth "
               f"{args.depth}; the projection {b} a left fibration")
    return report, summary


def run_homology(args):
    ss = load_sset(_read(args.infile, "sset"))
    pairs = ss.homology(args.depth)
    report = {
        "command": "homology",
        "input": args.infile,
        "depth": args.depth,
        "groups": _homology_json(pairs),
    }
    return report, _homology_summary(pairs)


def run_pi1(args):
    ss = load_sset(_read(args.infile, "sset"))
    raw = ss.pi1_presentation()
    simplified = raw.simplified(args.budget)
    betti, torsion = simplified.abelianization()
    report = {
        "command": "pi1",
        "input": args.infile,
        "raw": {"generators": len(raw.generators),
                "relators": len(raw.relators)},
        "presentation": _presentation_json(simplified),
        "abelianization": {"betti": betti, "torsion": list(torsion)},
        "abelianization_label": abelian_label(betti, torsion),
    }
    summary = (f"pi_1: {len(simplified.generators)} generators, "
               f"{len(simplified.relators)} relators after simplification; "
               f"abelianization {abelian_label(betti, torsion)}")
    return report, summary


def run_k0(args):
    inst = parse_instance(args.instance)
    rep = k0(inst, args.depth)
    report = {
        "command": "k0",
        "instance": rep.instance,
        "depth": rep.depth,
        "k0": rep.label,
        "betti": rep.betti,
        "torsion": list(rep.torsion),
        "raw": {"generators": len(rep.raw_presentation.generators),
                "relators": len(rep.raw_presentation.relators)},
        "simplified": {"generators": len(rep.presentation.generators),
                       "relators": len(rep.presentation.relators)},
    }
    return report, f"K_0({rep.instance}) = {rep.label}"


def run_segal(args):
    inst = parse_instance(args.instance)
    rep = segal_spine_check(inst, args.n)
    report = {
        "command": "segal",
        "instance": inst.describe(),
        "n": rep.n,
        "diagram_classes": rep.diagram_classes,
        "composable_strings": rep.composable_strings,
        "passed": rep.passed,
    }
    verdict = "pass" if rep.passed else "FAIL"
    summary = (f"segal at n = {rep.n}: {rep.diagram_classes} diagram classes "
               f"vs {rep.composable_strings} strings ({verdict})")
    return report, summary


def _parse_probe(token: str, target: AbPInstance):
    if token == "0":
        return ()
    exps = []
    for part in token.split("+"):
        if not part.startswith("c") or not part[1:].isdigit():
            raise ValueError(
                f"probe {token!r}: expected 0 or a +-joined list of cN terms")
        order = int(part[1:])
        e = 0
        while order % target.p == 0:
            order //= target.p
            e += 1
        if order != 1 or e == 0:
            raise ValueError(
                f"probe {token!r}: {part!r} is not a nontrivial power "
                f"of {target.p}")
        exps.append(e)
    obj = tuple(sorted(exps, reverse=True))
    if obj not in target.objects():
        raise ValueError(f"probe {token!r} is outside the target bound")
    return obj


def run_devissage(args):
    source = parse_instance(args.source)
    target = parse_instance(args.target)
    if not isinstance(source, VectInstance):
        raise ValueError(f"devissage source {args.source!r} must be a "
                         "vect instance")
    if not isinstance(target, AbPInstance):
        raise ValueError(f"devissage target {args.target!r} must be an "
                         "abp instance")
    psi = VectToAbP(source, target)
    tokens = [t.strip() for t in args.probes.split(",")]
    if not all(tokens):
        raise ValueError("probe list has an empty token")
    probes = [_parse_probe(t, target) for t in tokens]
    cert = devissage_certificate(psi, probes, args.depth)
    report = {
        "command": "devissage",
        "embedding": cert.embedding,
        "depth": cert.depth,
        "probes": [{"probe": p.probe,
                    "certificate": _cert_json(p.certificate),
                    "homology": _homology_json(p.homology)}
                   for p in cert.probes],
        "stages": [{"probe": s.probe, "lower": s.lower, "upper": s.upper,
                    "equal": s.equal,
                    "lower_homology": _homology_json(s.lower_homology),
                    "upper_homology": _homology_json(s.upper_homology)}
                   for s in cert.stages],
        "stages_consistent": cert.stages_consistent,
        "all_contractible": cert.all_contractible,
    }
    bits = []
    bits.append("all probe slices contractible" if cert.all_contractible
                else "some probe slice is NOT certified contractible")
    bits.append("stage homology consistent" if cert.stages_consistent
                else "stage homology MISMATCH")
    summary = (f"devissage {cert.embedding} at depth {cert.depth}: "
               f"{len(cert.probes)} probes, " + ", ".join(bits))
    return report, summary


def run_gamma(args):
    if args.check == "u-functoriality":
        rep = u_functoriality_report(args.max_arity)
    else:
        rep = retraction_naturality_report(args.max_arity)
    report = {
        "command": "gamma",
        "check": args.check,
        "max_arity": args.max_arity,
        "checked": rep.checked,
        "failures": [str(f) for f in rep.failures],
        "passed": rep.passed,
    }
    summary = (f"{args.check} through arity {args.max_arity}: "
               f"{rep.checked} comparisons, {len(rep.failures)} failures")
    return report, summary


def run_check_instance(args):
    inst = parse_instance(args.instance)
    rep = verify_triple(inst)
    report = {
        "command": "check-instance",
        "instance": inst.describe(),
        "passed": rep.passed,
        "squares_checked": rep.squares_checked,
        "failures": list(rep.failures),
    }
    verdict = "pass" if rep.passed else f"{len(rep.failures)} failures"
    summary = (f"{inst.describe()}: {rep.squares_checked} ambigressive "
               f"squares checked ({verdict})")
    return report, summary


# -- wiring ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcat",
        description="finite checks for subdivision, twisted arrows, "
                    "class groups and filtration certificates")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, handler, help_):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(handler=handler)
        p.add_argument("--out", metavar="PATH",
                       help="also write the JSON report to this file")
        return p

    p = add("subdivide", run_subdivide,
            "test whether an ordinal word acts as a subdivision")
    p.add_argument("--word", required=True,
                   help="comma-joined tokens like op,id or const:K")
    p.add_argument("--mmax", type=int, required=True,
                   help="largest simplex dimension to restrict")
    p.add_argument("--depth", type=int, default=None,
                   help="truncation depth for the certificates")

    p = add("twisted", run_twisted,
            "compare the twisted arrow nerve against the edgewise one")
    p.add_argument("--in", dest="infile", required=True,
                   help="category file to read")
    p.add_argument("--depth", type=int, default=3,
                   help="top simplicial level to compare")

    p = add("homology", run_homology,
            "integral homology of a simplicial set file")
    p.add_argument("--in", dest="infile", required=True,
                   help="sset file to read")
    p.add_argument("--depth", type=int, default=None,
                   help="top degree to report")

    p = add("pi1", run_pi1,
            "edge-path fundamental group of a simplicial set file")
    p.add_argument("--in", dest="infile", required=True,
                   help="sset file to read")
    p.add_argument("--budget", type=int, default=10000,
                   help="cap on simplification passes")

    p = add("k0", run_k0, "class group read off the span category")
    p.add_argument("--instance", required=True,
                   help="instance descriptor like vect:2:1 or abp:2:4")
    p.add_argument("--depth", type=int, default=3,
                   help="at least 2; echoed, but only the 2-skeleton is built")

    p = add("segal", run_segal,
            "compare diagram classes with composable strings")
    p.add_argument("--instance", required=True)
    p.add_argument("--n", type=int, required=True,
                   help="string length to compare at")

    p = add("devissage", run_devissage,
            "filtration and slice certificates for an exact embedding")
    p.add_argument("--source", required=True,
                   help="vect instance descriptor")
    p.add_argument("--target", required=True,
                   help="abp instance descriptor")
    p.add_argument("--probes", required=True,
                   help="comma list of target objects: 0, c2, c4, c2+c2, ...")
    p.add_argument("--depth", type=int, default=2,
                   help="slice nerve depth (bounded at 4)")

    p = add("gamma", run_gamma, "exhaustive checks on the cut functor")
    p.add_argument("--check", required=True,
                   choices=["u-functoriality", "retraction-naturality"])
    p.add_argument("--max-arity", dest="max_arity", type=int, default=3,
                   help="largest ordinal arity to sweep")

    p = add("check-instance", run_check_instance,
            "verify the ambigressive square laws on an instance")
    p.add_argument("--instance", required=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        depth = getattr(args, "depth", None)
        if depth is not None and depth < 1:
            raise ValueError("depth must be at least 1")
        report, summary = args.handler(args)
    except GuardError as e:
        print(f"qcat {args.subcommand}: guard: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"qcat {args.subcommand}: error: {e}", file=sys.stderr)
        return 2
    text = _canon(report)
    sys.stdout.write(text)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    print(summary, file=sys.stderr)
    return 0
