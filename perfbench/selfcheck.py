"""Show that perfbench counts a wrong output as a failed operation.

Usage, from the repository root: ``python3 perfbench/selfcheck.py``. It
runs the set-up invocation once, then feeds the output checks the real
outcome and altered copies of it: one changed stdout byte, a wrong exit
code, exit 3, a timeout, and cross-check inputs that break a closed form.
A probe run with a changed output must be reported as well. It also checks that BENCHMARK.json names exactly the metrics run.py
reports, with the same units. It exits 0 when all of this holds.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys

from run import (
    DIGESTS,
    END_TO_END_UNITS,
    LAYER_UNITS,
    ROOT,
    SETUP,
    SRC,
    WORKLOADS,
    Runner,
    child_env,
    cross_checks,
    failures,
    invoke,
    key_of,
)


def spec_matches() -> bool:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for section, units in (("end_to_end", END_TO_END_UNITS), ("per_layer", LAYER_UNITS)):
        listed = {m["name"]: m["unit"] for m in spec[section]}
        if listed != units:
            print(f"BENCHMARK.json {section} differs from run.py: {sorted(set(listed.items()) ^ set(units.items()))}")
            ok = False
    return ok


def main() -> int:
    sys.path.insert(0, str(SRC))
    pinned = json.loads(DIGESTS.read_text())
    checks = cross_checks()
    real = invoke(SETUP, False, 60.0, child_env())
    flipped = bytes([real.stdout[0] ^ 1]) + real.stdout[1:]
    altered = [
        dataclasses.replace(real, stdout=flipped),
        dataclasses.replace(real, exit_code=1),
        dataclasses.replace(real, exit_code=3),
        dataclasses.replace(real, exit_code=None, timed_out=True),
        dataclasses.replace(real, traced=True),  # traced, but no trace record
    ]
    # Cross-checks, with the digests pinned to the altered output so that
    # only the closed-form check can catch it.
    faces_args = WORKLOADS["build"][0]
    witness_args = WORKLOADS["controls"][2]
    short_faces = b"[]\n"
    bad_witness = json.dumps(
        {"short": False, "witness": {"ambient": {"dim": 3}, "members": [{"dim": 1}], "excess": 2}}
    ).encode()
    for args, stdout in ((faces_args, short_faces), (witness_args, bad_witness)):
        pinned[key_of(args)] = {"exit": 0, "sha256": hashlib.sha256(stdout).hexdigest()}
        altered.append(dataclasses.replace(real, args=args, stdout=stdout))

    runner = Runner(child_env())
    runner.probe()
    probe_ok = runner.probe_problems() == []
    runner.probes.append(dataclasses.replace(runner.probes[0], stdout=b"{}\n"))
    probe_caught = runner.probe_problems()
    print("reported:", *probe_caught)

    ok = failures([real], pinned, checks) == [] and spec_matches() and probe_ok and len(probe_caught) == 1
    caught = failures(altered, pinned, checks)
    for line in caught:
        print("counted as failed:", line)
    if not ok or len(caught) != len(altered):
        print(f"SELF-CHECK FAILED: real outcome, probe and spec ok={ok}, {len(caught)} of {len(altered)} altered outcomes caught")
        return 1
    print(
        f"self-check passed: the real outcome and probe pass, all {len(altered)} altered outcomes "
        "count as failed and the altered probe is reported"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
