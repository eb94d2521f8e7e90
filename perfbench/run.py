"""End-to-end benchmark of the `qcat` command line.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One closed-loop client runs the
workload's commands one at a time, each as a fresh `python -m qcat`
process (users run one command per process, so no module cache carries
over between commands).  A pass runs every command of the workload once,
in an order shuffled by the seed; passes repeat while another one fits
in S seconds, and every timing is the median over passes.  Every output
is checked: fixed commands against the sha256 and exit code recorded in
oracles.json, generated surfaces against their construction.

With --trace 0 the last stdout line carries the end-to-end metrics named
in BENCHMARK.json.  With --trace 1, untraced and traced passes alternate
(tracer.py wraps the package's public layers from outside) and the last
line carries the per-layer metrics; end-to-end numbers never come from a
traced pass.  Earlier lines give a readable table and one JSON detail
record with per-command and per-subcommand times, sample counts, input
properties and the steadiness diagnostics (calib_s, Python version,
nproc, child environment).

README.md beside this file gives the reasons for each workload.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import surfaces
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
DEADLINE_S = 170          # a run must end within 180 s
SURFACE_TRIANGLES = 200

WORKLOADS = {
    "spans": [
        "k0 --instance abp:2:4 --depth 3",
        "k0 --instance vect:2:2 --depth 4",
        "segal --instance abp:2:4 --n 2",
        "check-instance --instance abp:3:9",
        "check-instance --instance vect:3:2",
    ],
    "certificates": [
        "subdivide --word op,id,op --mmax 3 --depth 5",
        "subdivide --word id,op,id --mmax 3 --depth 5",
        "subdivide --word op,id --mmax 4 --depth 5",
        "devissage --source vect:2:2 --target abp:2:4 "
        "--probes 0,c2,c4,c2+c2 --depth 2",
        "twisted --in fixtures/bz2.cat --depth 3",
        "gamma --check u-functoriality --max-arity 3",
    ],
    "surfaces": [f"{cmd} --in {WORK.name}/{name}.sset"
                 for name in sorted(surfaces.SURFACES)
                 for cmd in ("homology", "pi1")],
}


class Task:
    def __init__(self, line: str):
        self.line = line
        self.args = line.split()
        self.subcommand = self.args[0]


# -- checks ------------------------------------------------------------------


def oracle_check(oracles: dict):
    def check(task, code, out):
        want = oracles[task.line]
        got = hashlib.sha256(out).hexdigest()
        if code != want["exit"] or got != want["sha256"]:
            return (f"exit {code} sha256 {got[:12]}, expected exit "
                    f"{want['exit']} sha256 {want['sha256'][:12]}")
        return None
    return check


def surface_check(generated: dict):
    def check(task, code, out):
        if code != 0:
            return f"exit {code}"
        name = Path(task.args[-1]).stem
        try:
            report = json.loads(out)
        except ValueError:
            return "stdout is not JSON"
        if task.subcommand == "homology":
            return surfaces.check_homology(name, generated[name], report)
        return surfaces.check_pi1(name, report)
    return check


# -- processes ---------------------------------------------------------------


CHILD_ENV_REMOVED = ("QCAT_THREADS", "PYTHONDONTWRITEBYTECODE")


def child_env() -> dict:
    """The caller's environment without the thread switch, and with
    bytecode caching on as for a user, so repeat imports read .pyc."""
    env = {k: v for k, v in os.environ.items() if k not in CHILD_ENV_REMOVED}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_process(cmd, env, deadline):
    """(exit code, stdout bytes, stderr bytes, wall s, max RSS MB)."""
    out_path, err_path = WORK / "stdout", WORK / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out,
                                stderr=err, stdin=subprocess.DEVNULL)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()),
                                proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, out_path.read_bytes(), err_path.read_bytes(),
            wall, usage.ru_maxrss / 1024)


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: host speed at this moment."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def setup_args(tasks) -> list:
    """Probe flags that parse every input the workload's commands read."""
    flags = []
    for task in tasks:
        for flag, value in zip(task.args, task.args[1:]):
            if flag in ("--instance", "--source", "--target"):
                pair = ["--instance", value]
            elif flag == "--in":
                pair = ["--sset" if value.endswith(".sset") else "--cat", value]
            else:
                continue
            if pair not in flags:
                flags.append(pair)
    return [x for pair in flags for x in pair]


def setup_seconds(probe, env, deadline) -> float:
    """Wall time of one set-up probe; ends the run if the probe fails."""
    code, _, err, wall, _ = run_process(probe, env, deadline)
    if code != 0:
        print("perfbench: set-up probe failed: "
              + err.decode("utf-8", "replace")[-500:], file=sys.stderr)
        raise SystemExit(1)
    return wall


# -- passes ------------------------------------------------------------------


class Pass:
    def __init__(self):
        self.wall = {}        # task line -> seconds
        self.rss = {}
        self.traces = []
        self.failures = []

    @property
    def total(self) -> float:
        return sum(self.wall.values())


def run_pass(tasks, order_rng, check, env, deadline, traced=False) -> Pass:
    p = Pass()
    order = list(tasks)
    order_rng.shuffle(order)
    for k, task in enumerate(order):
        if traced:
            trace_path = WORK / f"trace{k}.json"
            cmd = [sys.executable, str(HERE / "tracer.py"), str(trace_path),
                   task.line, "--", *task.args]
        else:
            cmd = [sys.executable, "-m", "qcat", *task.args]
        code, out, err, wall, rss = run_process(cmd, env, deadline)
        p.wall[task.line], p.rss[task.line] = wall, rss
        problem = check(task, code, out)
        if traced and problem is None:
            p.traces.append(json.loads(trace_path.read_text("utf-8")))
        if problem is not None:
            p.failures.append(f"{task.line}: {problem}; stderr: "
                              + err.decode("utf-8", "replace")[-300:])
    return p


def quartiles(values) -> dict:
    values = sorted(values)
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": values[0], "max": values[-1], "n": len(values)}


# -- per-layer aggregation ---------------------------------------------------


def self_seconds(trace: dict) -> dict:
    """Span name -> self seconds: duration minus child spans and hooks."""
    spans = trace["spans"]
    own = [end - start - hook for _, start, end, _, hook in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    out = {}
    for (name, *_), s in zip(spans, own):
        out[name] = out.get(name, 0.0) + s
    return out


MAX_COUNTS = ("snf.max_rows", "snf.max_cols")


def pass_counts(traces) -> dict:
    counts = {}
    for trace in traces:
        for key, n in trace["counts"].items():
            if key in MAX_COUNTS:
                counts[key] = max(counts.get(key, 0), n)
            else:
                counts[key] = counts.get(key, 0) + n
        for key, n in trace["distinct"].items():
            counts[key + ".distinct"] = counts.get(key + ".distinct", 0) + n
    return counts


def layer_metrics(spec, traced, untraced) -> dict:
    counts = pass_counts(traced[0].traces)
    selfs = [{} for _ in traced]
    for acc, p in zip(selfs, traced):
        for trace in p.traces:
            for name, s in self_seconds(trace).items():
                acc[name] = acc.get(name, 0.0) + s

    def ratio(distinct, calls):
        return counts.get(distinct, 0) / counts[calls] if counts.get(calls) \
            else 0.0

    values = {
        "snf.unique_ratio": ratio("snf.smith_diagonal.distinct",
                                  "snf.smith_diagonal.calls"),
        "zmod.all_subgroups.unique_ratio": ratio(
            "zmod.all_subgroups.distinct", "zmod.all_subgroups.calls"),
        "trace.overhead_s": (
            statistics.median(p.total for p in traced)
            - statistics.median(p.total for p in untraced)),
    }
    out = {}
    for m in spec:
        name = m["name"]
        if name in values:
            value = values[name]
        elif name.endswith(".s"):
            value = statistics.median(acc.get(name[:-2], 0.0) for acc in selfs)
        else:
            value = counts.get(name, 0)
        out[name] = {"value": value, "unit": m["unit"]}
    return out


# -- main --------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    spec_path = ROOT / "BENCHMARK.json"
    needed = [spec_path, ROOT / "src" / "qcat" / "cli.py",
              ROOT / "fixtures" / "bz2.cat"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: not a qcat checkout, missing {missing}",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text("utf-8"))

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    env = child_env()
    calib = [calibrate()]

    tasks = [Task(line) for line in WORKLOADS[args.workload]]
    properties = {}
    if args.workload == "surfaces":
        made = surfaces.generate(args.seed, SURFACE_TRIANGLES)
        for name, (tris, text) in made.items():
            (WORK / f"{name}.sset").write_text(text, "utf-8")
            properties[name] = surfaces.counts(tris)
        check = surface_check({n: tris for n, (tris, _) in made.items()})
    else:
        oracles = json.loads((HERE / "oracles.json").read_text("utf-8"))
        check = oracle_check(oracles)

    probe = [sys.executable, str(HERE / "setup_probe.py"), *setup_args(tasks)]
    # The first probe only warms bytecode and disk.  The timed ones run one
    # before each pass, so set-up is sampled over the same stretch of host
    # speed as the commands.
    setup_seconds(probe, env, deadline)
    setup = [setup_seconds(probe, env, deadline)]

    rng = random.Random(args.seed)
    measure_end = time.monotonic() + args.seconds
    untraced, traced = [], []
    while True:
        t0 = time.monotonic()
        if untraced:
            setup.append(setup_seconds(probe, env, deadline))
        untraced.append(run_pass(tasks, rng, check, env, deadline))
        if args.trace:
            traced.append(run_pass(tasks, rng, check, env, deadline, True))
        step = time.monotonic() - t0
        if time.monotonic() + step > measure_end:
            break
    calib.append(calibrate())

    passes = untraced + traced
    failures = [f for p in passes for f in p.failures]
    attempted = sum(len(p.wall) for p in passes)
    correct = not failures
    if traced:
        first = pass_counts(traced[0].traces)
        if any(pass_counts(p.traces) != first for p in traced[1:]):
            correct = False
            print("  FAILED trace counts differ between traced passes",
                  file=sys.stderr)

    per_task = {t.line: quartiles([p.wall[t.line] for p in untraced])
                for t in tasks}
    by_sub = {}
    for t in tasks:
        key = t.subcommand.replace("-", "_") + "_s"
        by_sub.setdefault(key, []).append(t.line)
    per_sub = {key: quartiles([sum(p.wall[line] for line in lines)
                               for p in untraced])
               for key, lines in by_sub.items()}
    walls = quartiles([p.total for p in untraced])
    e2e = {
        "wall_s": walls["median"],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(max(p.rss.values()) for p in untraced),
    }

    print(f"perfbench {args.workload} seed {args.seed}: {len(untraced)} "
          f"passes, {attempted} commands, {len(failures)} failed "
          f"(fail_ratio {len(failures) / attempted:.3f})")
    for key, q in [("wall_s", walls), *per_sub.items()]:
        print(f"  {key:<20} {q['median']:9.4f} s  (median of {q['n']}; "
              f"q1 {q['q1']:.4f}, q3 {q['q3']:.4f})")
    print(f"  {'setup_s':<20} {e2e['setup_s']:9.4f} s  "
          f"(median of {len(setup)})")
    print(f"  {'peak_rss_mb':<20} {e2e['peak_rss_mb']:9.2f} MB")
    for f in failures:
        print(f"  FAILED {f}", file=sys.stderr)

    detail = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "passes": len(untraced),
        "fail_ratio": len(failures) / attempted,
        "per_command_s": per_task, "per_subcommand_s": per_sub,
        "wall_s": walls, "setup_s": quartiles(setup),
        "properties": properties,
        "calib_s": calib, "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "child_env": {k: v for k, v in sorted(env.items())
                      if k.startswith(("PYTHON", "QCAT"))},
        "child_env_removed": list(CHILD_ENV_REMOVED),
    }
    if traced:
        detail["unwrapped"] = list(tracer.UNWRAPPED)
    print(json.dumps({"detail": detail}, sort_keys=True))

    if args.trace:
        metrics = layer_metrics(spec["per_layer"], traced, untraced)
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
