#!/usr/bin/env python3
"""Fixture model that violates the wire protocol on demand.

Usage: misbehaving_model.py MODE [COLUMNS]
  short     emit n-1 prediction lines
  malformed emit a non-numeric line at row 1
  nonfinite emit NaN at row 0
  fail      exit 3 after reading input
  noisy     write 10 KB of noise to stderr, then a last line, and exit 3
  hang      read input then sleep far past any test timeout
  constant  exit 1 if a column named in COLUMNS is constant, else emit the
            row sums
  stall     sleep far past any test timeout if a column named in COLUMNS
            is constant, else emit the row sums
  binary    emit the row sums, with a byte that is not UTF-8 in place of
            row 0's if a column named in COLUMNS is constant

COLUMNS is one column name or several joined by commas.
"""
import sys
import time


def main():
    mode = sys.argv[1]
    lines = sys.stdin.read().splitlines()
    n = len([row for row in lines[1:] if row.strip()])
    if mode == "short":
        for _ in range(n - 1):
            print("0.0")
    elif mode == "malformed":
        print("0.0")
        print("not-a-number")
        for _ in range(n - 2):
            print("0.0")
    elif mode == "nonfinite":
        print("nan")
        for _ in range(n - 1):
            print("0.0")
    elif mode == "fail":
        print("something broke", file=sys.stderr)
        sys.exit(3)
    elif mode == "noisy":
        for i in range(200):
            print(f"noise line {i:04d} " + "." * 33, file=sys.stderr)
        print("ValueError: the real cause", file=sys.stderr)
        sys.exit(3)
    elif mode == "hang":
        time.sleep(60)
    elif mode in ("constant", "stall", "binary"):
        rows = [[float(c) for c in row.split(",")] for row in lines[1:] if row.strip()]
        header = lines[0].split(",")
        named = [header.index(name) for name in sys.argv[2].split(",")]
        if any(len({row[j] for row in rows}) == 1 for j in named):
            if mode == "binary":
                sys.stdout.buffer.write(b"\xff\n")
                rows = rows[1:]
            else:
                if mode == "stall":
                    time.sleep(60)
                sys.exit(f"column {sys.argv[2]} is constant")
        for row in rows:
            print(repr(sum(row)))
    else:
        sys.exit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main()
