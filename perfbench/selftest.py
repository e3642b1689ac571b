"""Show that every check of the benchmark rejects a corrupted answer.

    python3 perfbench/selftest.py

For each workload, one round is run through the program; every answer must
pass its check, and deliberately corrupted copies of the answers must fail
it.  Exits 0 when every corruption is caught.
"""

import copy
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from abqbench import harness  # noqa: E402


def corruptions(kind, out):
    """(label, corrupted answer) pairs for one answer."""
    if kind == "pair_value":
        rank, torsion = out
        yield "free rank + 1", (rank + 1, torsion)
        yield "extra torsion", (rank, torsion + (2,))
    elif kind == "in_kernel":
        yield "flipped", "no" if out == "yes" else "yes"
    elif kind == "evaluate_object":
        (rank, torsion), other = out
        yield "one route off", ((rank + 1, torsion), other)
    elif kind in ("check_morphism", "equal_in_quotient", "implies_all"):
        yield "flipped", not out
    elif kind == "hom_basis":
        if out:
            yield "element dropped", out[1:]
            yield "element doubled", out + out[:1]
        else:
            yield "element invented", [[]]
    elif kind == "serre_search":
        yield "answer no", "no"
        if out == "unknown":
            yield "claimed yes", "yes"
    elif kind == "homology":
        fibers, verdict = out
        yield "verdict false", (fibers, False)
        bad = copy.deepcopy(fibers)
        dim, cols = bad["XY_h1"]
        bad["XY_h1"] = (dim + 1, [c + [0] for c in cols])
        yield "H1 one rank larger", (bad, verdict)
        bad = copy.deepcopy(fibers)
        dim, cols = bad["XP_h1"]
        bad["XP_h1"] = (dim + 1, [c + [0] for c in cols] + [[0] * dim + [2]])
        yield "torsion added to H1", (bad, verdict)


def main():
    failures = 0
    for name, cls in harness.WORKLOADS.items():
        workload = cls(7)
        workload.setup()
        caught = missed = 0
        claimed_yes = []
        for op in workload.make_round(0):
            kind = op.kind
            out = workload.plain(workload.execute(op))
            err = workload.check(op, out)
            if err:
                print("%s: a correct answer was rejected: %s" % (name, err))
                failures += 1
            for label, bad in corruptions(kind, out):
                rejected = workload.check(op, bad) is not None
                if label == "claimed yes":
                    claimed_yes.append(rejected)
                elif rejected:
                    caught += 1
                else:
                    missed += 1
                    print("%s: %s corruption '%s' was accepted"
                          % (name, kind, label))
        if claimed_yes and not any(claimed_yes):
            print("%s: no false 'yes' of the Serre search was refuted" % name)
            missed += 1
        print("%s: %d corruptions rejected, %d accepted%s" % (
            name, caught, missed,
            "; %d of %d false Serre 'yes' refuted" % (
                sum(claimed_yes), len(claimed_yes)) if claimed_yes else ""))
        failures += missed
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
