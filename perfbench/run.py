"""Run one benchmark workload against the package in ../src.

    python3 perfbench/run.py --workload model_queries --seed 1 \
        --seconds 30 --trace 0

Prints one JSON object as the last line of standard output: whether every
output was correct, the operations attempted and failed, and the
end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  Exits 1 when an output is wrong and 2 when the package
cannot be found.
"""

import os
import time


def _process_start():
    """Boot-clock time at which this process started, or now."""
    try:
        with open("/proc/self/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return int(fields[19]) / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return time.clock_gettime(time.CLOCK_BOOTTIME)


PROCESS_START = _process_start()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("model_queries", "all_modules",
                                 "nori_integer"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    try:
        import abquiver
    except ImportError as err:
        print("cannot import the package from %s: %s" % (SRC, err),
              file=sys.stderr)
        return 2
    if not os.path.abspath(abquiver.__file__).startswith(SRC + os.sep):
        print("abquiver was imported from %s, not from %s"
              % (abquiver.__file__, SRC), file=sys.stderr)
        return 2
    from abqbench import harness

    result, errors = harness.run(
        args.workload, args.seed, args.seconds, bool(args.trace),
        PROCESS_START, lambda: time.clock_gettime(time.CLOCK_BOOTTIME))
    for err in errors[:20]:
        print("WRONG: %s" % err, file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
