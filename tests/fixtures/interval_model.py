#!/usr/bin/env python3
"""Fixture model that records when it runs.

Usage: interval_model.py LOG_FILE

Reads the query, sleeps 0.3 s so that runs launched together overlap,
emits the row sums, then appends one line "START END" to LOG_FILE: the
wall-clock times (time.time()) at which it started and finished.
"""
import sys
import time


def main():
    start = time.time()
    lines = sys.stdin.read().splitlines()
    time.sleep(0.3)
    for row in lines[1:]:
        if row.strip():
            print(repr(sum(float(c) for c in row.split(","))))
    with open(sys.argv[1], "a", encoding="utf-8") as fh:
        fh.write(f"{start!r} {time.time()!r}\n")


if __name__ == "__main__":
    main()
