#!/usr/bin/env python3
"""Fixture model that refuses to run alongside another copy of itself.

Usage: exclusive_model.py LOCK_FILE COUNT_FILE

Creates LOCK_FILE with O_EXCL on start and removes it on exit; if the file
already exists, another invocation is still running, and this one exits
with status 4. Each invocation appends one line to COUNT_FILE. The
prediction for each row is 4*x1 + 2*x2 + 1*x3, matched by header name.
"""
import os
import sys
import time

WEIGHTS = {"x1": 4.0, "x2": 2.0, "x3": 1.0}


def main():
    lock, count_file = sys.argv[1], sys.argv[2]
    with open(count_file, "a", encoding="utf-8") as fh:
        fh.write("invocation\n")
    try:
        os.close(os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        sys.exit(f"{lock} exists: another model invocation is running")
    try:
        lines = sys.stdin.read().splitlines()
        header = lines[0].split(",")
        weights = [WEIGHTS.get(name, 0.0) for name in header]
        # Stay alive a while, so that an overlapping launch would find the lock.
        time.sleep(0.05)
        for row in lines[1:]:
            if row.strip():
                print(repr(sum(w * float(c) for w, c in zip(weights, row.split(",")))))
    finally:
        os.unlink(lock)


if __name__ == "__main__":
    main()
