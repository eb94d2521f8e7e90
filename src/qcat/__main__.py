import gc
import sys

from .cli import main


def run() -> int:
    """Entry of `python -m qcat` and the `qcat` script.  It freezes the
    start-up heap, so the cyclic collector does not walk it again during
    the run and at exit; `cli.main`, which tests call, stays free of it."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
