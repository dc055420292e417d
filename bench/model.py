#!/usr/bin/env python3
"""Benchmark model for oproj's subprocess protocol, standard library only.

    python3 bench/model.py COUNT_FILE < features.csv > predictions

Reads CSV on stdin (a header of feature names x1..xk, then one row per
sample) and writes one prediction per row: the sum over columns of
(k + 1 - j) * xj. The weight comes from the column's header name, so column
order does not matter. Each invocation appends one line to COUNT_FILE.
"""

import sys


def main(argv):
    with open(argv[1], "a", encoding="utf-8") as fh:
        fh.write("invocation\n")
    lines = sys.stdin.read().splitlines()
    header = lines[0].split(",")
    k = len(header)
    weights = [float(k + 1 - int(name.strip()[1:])) for name in header]
    out = [
        repr(sum(w * float(cell) for w, cell in zip(weights, row.split(","))))
        for row in lines[1:]
        if row.strip()
    ]
    sys.stdout.write("\n".join(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
