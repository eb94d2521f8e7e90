"""Record the output oracle of every fixed benchmark command.

Usage: python3 perfbench/record_oracles.py

Runs each command of the fixed workloads once and writes the sha256 of
its stdout and its exit code to oracles.json.  The recorded outputs are
the reference that later runs must reproduce byte for byte, so rerun
this only when a report format changes on purpose.
"""

import hashlib
import json
import shutil
import sys
import time

import run


def main() -> int:
    shutil.rmtree(run.WORK, ignore_errors=True)
    run.WORK.mkdir()
    env = run.child_env()
    oracles = {}
    for name, lines in sorted(run.WORKLOADS.items()):
        if name == "surfaces":
            continue              # checked against the construction instead
        for line in lines:
            code, out, _, wall, _ = run.run_process(
                [sys.executable, "-m", "qcat", *line.split()], env,
                time.monotonic() + 600)
            oracles[line] = {"exit": code,
                             "sha256": hashlib.sha256(out).hexdigest()}
            print(f"{wall:8.3f} s  exit {code}  {line}")
    (run.HERE / "oracles.json").write_text(
        json.dumps(oracles, indent=1, sort_keys=True) + "\n", "utf-8")
    shutil.rmtree(run.WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
