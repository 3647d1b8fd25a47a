"""Pin the stdout digest and exit code of every invocation perfbench can run.

Usage, from the repository root: ``python3 perfbench/pin.py``. It rewrites
``perfbench/digests.json`` from the current sources. Run it only when a
change alters CLI output on purpose, and say so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import sys

from run import DIGESTS, HILBERT_COLORS, SETUP, SRC, WORKLOADS, child_env, hilbert_color, invoke, key_of


def all_invocations() -> list[tuple]:
    out = [SETUP]
    for invocations in WORKLOADS.values():
        out.extend(invocations)
    out.extend(hilbert_color(c) for c in HILBERT_COLORS)
    return out


def main() -> int:
    sys.path.insert(0, str(SRC))
    from freehedra import families

    dims = {f.id: f.dim for f in families.freehedron_complex(4).faces}
    if sorted(c for c, d in dims.items() if d == 3) != list(HILBERT_COLORS):
        raise SystemExit("HILBERT_COLORS are no longer the 3-faces of the 4th freehedron")
    env = child_env()
    pinned = {}
    for args in all_invocations():
        outcome = invoke(args, False, 600.0, env)
        pinned[key_of(args)] = {
            "exit": outcome.exit_code,
            "sha256": hashlib.sha256(outcome.stdout).hexdigest(),
        }
        print(f"{outcome.wall_s:7.2f} s  exit {outcome.exit_code}  {key_of(args)}", flush=True)
    DIGESTS.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
