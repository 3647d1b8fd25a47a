"""Fixed reference work that perfbench/run.py times between CLI invocations.

Usage: ``python3 perfbench/probe.py``; it prints one checksum line,
``PROBE_OUTPUT`` in run.py.

The work does not change with the freehedra sources: interpreter start,
the imports the CLI also pays (argparse, json), then tuples, frozensets,
dicts and a sort over a working set of about 20 MB, the kind of work the
CLI does. On a shared host the speed of the machine moves by tens of
percent from one second to the next; the wall time of this probe, taken
right before and after an invocation, measures that speed, and run.py
divides it out of the invocation's wall time.
"""

import argparse  # noqa: F401  (import cost, as in the CLI)
import json


def main() -> None:
    faces = {}
    for j in range(16000):
        key = frozenset((j, j * 3 % 1001, j * 7 % 2003, j >> 3))
        faces[key] = (len(key), j % 17)
    ranked = sorted(faces.items(), key=lambda item: (item[1], min(item[0])))
    pairs = {(a, b) for a in range(0, 16000, 97) for b in range(a, a + 40)}
    total = sum(v[0] * v[1] for _, v in ranked) + len(pairs)
    print(json.dumps({"checksum": total}))


if __name__ == "__main__":
    main()
