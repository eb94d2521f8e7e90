"""Set-up cost of one workload: import the CLI and parse its inputs.

Usage: python3 perfbench/setup_probe.py [--instance DESCRIPTOR | --sset PATH
                                          | --cat PATH] ...

This is the work every `qcat` command pays before its real computation,
so work moved to import or parse time shows up here.
"""

import sys
from pathlib import Path


def main(argv) -> int:
    from qcat.cli import parse_instance, load_category, load_sset

    parse = {"--instance": parse_instance,
             "--sset": lambda p: load_sset(Path(p).read_text("utf-8")),
             "--cat": lambda p: load_category(Path(p).read_text("utf-8"))}
    if len(argv) % 2:
        print("setup_probe: flags come in pairs", file=sys.stderr)
        return 2
    for flag, value in zip(argv[::2], argv[1::2]):
        if flag not in parse:
            print(f"setup_probe: unknown flag {flag}", file=sys.stderr)
            return 2
        parse[flag](value)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
