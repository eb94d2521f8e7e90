"""Run one `qcat` command with timing spans around its public layers.

Usage: python3 perfbench/tracer.py TRACE_OUT TASK_ID -- QCAT_ARGS...

The wrappers are installed from outside the package: each public
function named in LAYERS is replaced, in its defining module and in every
`qcat.*` module that bound it with `from .x import ...`, by a wrapper
that records a span (name, start, end, parent id, task id) and the
layer's counts.  Methods are replaced on their class.  Spans and counts
stay in memory and are written as one JSON object to TRACE_OUT when the
command ends.  Stdout is left to the command, so it is byte-identical to
an untraced `python -m qcat` run.

Elementwise hot paths (`zmod.add`, `zmod.closure`, `zmod.mat_apply`,
everything in `ordmaps`) are deliberately not wrapped: a span per call
would cost more than the call, so their time lands in the self time of
the wrapped caller.
"""

import functools
import importlib
import json
import sys
import time
from collections import Counter

UNWRAPPED = ("zmod.add", "zmod.closure", "zmod.mat_apply", "ordmaps.*")

# (module, attribute path, span name)
LAYERS = [
    ("snf", "smith_diagonal", "snf.smith_diagonal"),
    ("snf", "hermite_rows", "snf.hermite_rows"),
    ("simpset", "LevelModel.compile", "simpset.compile"),
    ("simpset", "SimplicialSet.homology", "simpset.homology"),
    ("simpset", "SimplicialSet.boundary_matrix", "simpset.boundary_matrix"),
    ("simpset", "SimplicialSet.pi1_presentation", "simpset.pi1_presentation"),
    ("simpset", "contractibility", "simpset.contractibility"),
    ("simpset", "left_fibration_check", "simpset.left_fibration_check"),
    ("zmod", "all_subgroups", "zmod.all_subgroups"),
    ("zmod", "hom_rows", "zmod.hom_rows"),
    ("exact", "verify_triple", "exact.verify_triple"),
    ("exact", "all_spans", "exact.all_spans"),
    ("exact", "span_compose", "exact.span_compose"),
    ("qcons", "q_category", "qcons.q_category"),
    ("qcons", "enumerate_ambigressive", "qcons.enumerate_ambigressive"),
    ("fincat", "check_axioms", "fincat.check_axioms"),
    ("fincat", "nerve_model", "fincat.nerve_model"),
    ("fincat", "twisted_arrow", "fincat.twisted_arrow"),
    ("fincat", "comma", "fincat.comma"),
    ("presentation", "GroupPresentation.simplified", "presentation.simplified"),
    ("presentation", "GroupPresentation.abelianization",
     "presentation.abelianization"),
    ("delta", "pullback", "delta.pullback"),
    ("deviss", "relative_q_objects", "deviss.relative_q_objects"),
    ("deviss", "comma_over", "deviss.comma_over"),
    ("deviss", "admissible_filtration", "deviss.admissible_filtration"),
    ("gammastr", "u_functoriality_report", "gammastr.u_functoriality_report"),
    ("formats", "load_sset", "formats.load_sset"),
    ("formats", "load_category", "formats.load_category"),
    ("formats", "_canon", "formats.canon"),
    ("cli", "main", "cli.main"),
    ("parallel", "parallel_map", "parallel.parallel_map"),
]


class Recorder:
    """Spans and counts of one traced process."""

    def __init__(self, task_id: str):
        self.task_id = task_id
        self.spans = []          # [name, start, end, parent index, hook s]
        self.counts = Counter()
        self.stack = []
        self.distinct = {}       # counter name -> set of input keys
        self.nerve_models = {}   # id -> LevelModel built by nerve_model

    def add(self, key: str, n: int):
        self.counts[key] += n

    def distinct_key(self, name: str, key):
        self.distinct.setdefault(name, set()).add(key)

    def wrap(self, name: str, fn, before=None, after=None):
        """`before(rec, args)` may return replacement args; `after(rec,
        args, result)` records counts.  Their time is kept in the span's
        hook seconds, so it counts toward no layer's self time."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else None
            span = [name, time.perf_counter(), 0.0, parent, 0.0]
            self.spans.append(span)
            if before is not None:
                args = before(self, args) or args
            self.stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.counts[name + ".calls"] += 1
                span[2] = end
                span[4] = start - span[1]
            if after is not None:
                after(self, args, result)
                span[2] = time.perf_counter()
                span[4] += span[2] - end
            return result
        return wrapper

    def dump(self) -> dict:
        return {"task": self.task_id,
                "spans": self.spans,
                "counts": dict(self.counts),
                "distinct": {k: len(v) for k, v in self.distinct.items()}}


# -- per-layer counts ----------------------------------------------------------


def _smith_before(rec, args):
    # materialize the rows once, so a generator argument can be read twice
    rows = [list(r) for r in args[0]]
    n_cols = args[1] if len(args) > 1 and args[1] is not None else (
        len(rows[0]) if rows else 0)
    c = rec.counts
    c["snf.entries"] += len(rows) * n_cols
    c["snf.nnz"] += sum(1 for r in rows for x in r if x)
    c["snf.max_rows"] = max(c["snf.max_rows"], len(rows))
    c["snf.max_cols"] = max(c["snf.max_cols"], n_cols)
    rec.distinct_key("snf.smith_diagonal",
                     (n_cols, tuple(tuple(r) for r in rows)))
    return (rows,) + tuple(args[1:])


def _compile_after(rec, args, result):
    rec.add("simpset.cells", len(result.space.dims))
    if id(args[0]) in rec.nerve_models:
        rec.add("fincat.nerve_tokens",
                sum(len(toks) for toks in result.tokens.values()))


def _nerve_model_after(rec, args, result):
    rec.nerve_models[id(result)] = result


def _simplified_after(rec, args, result):
    rec.add("presentation.gens_in", len(args[0].generators))
    rec.add("presentation.rels_in", len(args[0].relators))
    rec.add("presentation.gens_out", len(result.generators))
    rec.add("presentation.rels_out", len(result.relators))


def _q_category_after(rec, args, result):
    rec.add("qcons.morphisms", len(result.category.morph))
    rec.add("qcons.compose_entries", len(result.category.compose_table))


def _subgroups_before(rec, args):
    rec.distinct_key("zmod.all_subgroups", tuple(args[0]))


def _bytes_in(rec, args):
    rec.add("formats.bytes_in", len(args[0].encode("utf-8")))


def _size(counter):
    return lambda rec, args, result: rec.add(counter, len(result))


# span name -> (before, after)
HOOKS = {
    "snf.smith_diagonal": (_smith_before, lambda rec, args, result: rec.add(
        "snf.torsion_calls", int(any(d > 1 for d in result)))),
    "simpset.compile": (None, _compile_after),
    "fincat.nerve_model": (None, _nerve_model_after),
    "zmod.all_subgroups": (_subgroups_before, _size("zmod.subgroups")),
    "zmod.hom_rows": (None, _size("zmod.homs")),
    "exact.verify_triple": (None, lambda rec, args, result: rec.add(
        "exact.squares", result.squares_checked)),
    "exact.all_spans": (None, _size("exact.spans")),
    "qcons.q_category": (None, _q_category_after),
    "qcons.enumerate_ambigressive": (None, _size("qcons.diagrams")),
    "presentation.simplified": (None, _simplified_after),
    "deviss.relative_q_objects": (None, lambda rec, args, result: rec.add(
        "deviss.relative_objects", len(result.objects))),
    "gammastr.u_functoriality_report": (None, lambda rec, args, result:
                                        rec.add("gammastr.checked",
                                                result.checked)),
    "formats.load_sset": (_bytes_in, None),
    "formats.load_category": (_bytes_in, None),
    "formats.canon": (None, lambda rec, args, result: rec.add(
        "formats.bytes_out", len(result.encode("utf-8")))),
}


def install(rec: Recorder):
    """Wrap every layer and rebind each `qcat.*` name that holds it."""
    importlib.import_module("qcat.cli")
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "qcat" or name.startswith("qcat.")]
    for mod_name, path, span in LAYERS:
        owner = importlib.import_module("qcat." + mod_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        wrapped = rec.wrap(span, original, *HOOKS.get(span, (None, None)))
        setattr(owner, attr, wrapped)
        if not outer:
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapped)
    return importlib.import_module("qcat.cli").main


def main(argv) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py TRACE_OUT TASK_ID -- QCAT_ARGS...",
              file=sys.stderr)
        return 2
    out, task_id, qcat_args = argv[0], argv[1], argv[3:]
    rec = Recorder(task_id)
    cli_main = install(rec)
    try:
        return cli_main(qcat_args)
    finally:
        sys.stdout.flush()
        with open(out, "w", encoding="utf-8") as f:
            json.dump(rec.dump(), f)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
