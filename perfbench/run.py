"""Closed-loop benchmark of the freehedra CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload build --seed 1 --seconds 30 --trace 0

One client runs one CLI invocation at a time, each in a fresh interpreter
(``python3 -m freehedra`` with ``src`` on ``PYTHONPATH``), so the
``lru_cache``s in ``triples`` and ``families`` start cold as they do for
users. A job is a workload's list of invocations, run back to back in an
order drawn from the seed; rounds of jobs repeat until the next round would
end after ``--seconds``. Every invocation's stdout digest and exit code are
checked against ``digests.json`` (pinned at the seed commit), and some
outputs are also checked against independent closed forms.

The host's speed moves by tens of percent from one second to the next, so
every invocation is bracketed by runs of ``probe.py``, fixed reference work
in a fresh interpreter. An invocation's wall time is scaled by
``PROBE_REF_S`` over the mean wall time of the probes right before and
after it: the time it would take on a machine where the probe takes
``PROBE_REF_S``.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` sums, over a job's
invocations, each invocation's median scaled wall time over the run's jobs.
``--trace 1`` alternates untraced jobs with jobs whose invocations run
under ``trace_child.py`` and reports the per-layer metrics. Human-readable
lines come first; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import random
import selectors
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DIGESTS = BENCH_DIR / "digests.json"
TRACE_CHILD = BENCH_DIR / "trace_child.py"
PROBE = BENCH_DIR / "probe.py"
PROBE_OUTPUT = b'{"checksum": 518374}\n'
#: Scaled times are wall times on a machine where the probe takes this long.
PROBE_REF_S = 0.2
TRACE_PREFIX = b"PERFBENCH_TRACE "  # as written by trace_child.py

#: The set-up invocation: interpreter start, ``import freehedra``, argparse
#: and a trivial build, which every invocation pays.
SETUP = ("faces", "--n", "0", "--format", "json")
SETUP_SAMPLES_PER_JOB = 3

#: The 3-dimensional faces of the 4th freehedron. Every one costs about the
#: same at --max-len 4, so the seed's draw does not change the run's cost.
HILBERT_COLORS = tuple(range(123, 134))
HILBERT_COLORS_PER_JOB = 3

#: An invocation that runs longer than this counts as failed.
INVOCATION_TIMEOUT_S = 60.0
#: No invocation may run past this point of a run, so a run ends within 180 s.
RUN_DEADLINE_S = 150.0

WORKLOADS = {
    "build": (
        ("faces", "--n", "7", "--format", "json"),
        ("lattice", "--n", "7", "--format", "json"),
    ),
    "certify": (
        ("check-short", "--n", "6", "--format", "json"),
        ("audit-chains", "--n", "6", "--format", "json"),
        ("verify-supdim", "--n", "6", "--format", "csv"),
    ),
    "controls": (
        ("check-short", "--family", "cube", "--n", "7", "--format", "json"),
        ("check-short", "--family", "simplex", "--n", "9", "--format", "json"),
        ("check-short", "--family", "associahedron", "--n", "6", "--format", "json"),
    ),
    "hilbert": (
        ("hilbert", "--n", "3", "--max-len", "4", "--residual", "--format", "json"),
        ("hilbert", "--n", "4", "--max-len", "3", "--format", "csv"),
    ),
}

SUBCOMMANDS = ("faces", "lattice", "check-short", "audit-chains", "verify-supdim", "hilbert")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

#: Per-layer metric -> (span name, field) for span totals; field is the
#: inclusive time, the self time or the call count of the span.
SPAN_METRICS = {
    "triples.enumerate_faces_s": ("triples.enumerate_faces", "inclusive"),
    "words.word_of_s": ("words.word_of", "inclusive"),
    "words.word_of_calls": ("words.word_of", "calls"),
    "words.vertex_bounds_s": ("words.vertex_bounds", "inclusive"),
    "words.vertex_bounds_calls": ("words.vertex_bounds", "calls"),
    "families.build_s": ("families.build", "inclusive"),
    "families.assemble_self_s": ("families.build", "self"),
    "complexes.validate_s": ("complexes.validate", "inclusive"),
    "complexes.is_short_s": ("complexes.is_short", "inclusive"),
    "complexes.audit_s": ("complexes.audit", "inclusive"),
    "complexes.check_supdim_s": ("complexes.check_supdim", "inclusive"),
    "complexes.to_json_dict_s": ("complexes.to_json_dict", "inclusive"),
    "operad.hilbert_image_s": ("operad.hilbert_image", "inclusive"),
    "operad.residual_s": ("operad.residual", "inclusive"),
    "operad.image_rows_s": ("operad.image_rows", "inclusive"),
    "cli.render_self_s": ("cli.main", "self"),
}
#: Counts taken from the objects the traced functions return.
COUNT_METRICS = (
    "triples.faces",
    "families.incidence_pairs",
    "families.skeleton_edges",
    "complexes.cert_members",
    "complexes.cert_chains",
    "complexes.audit_chains",
    "operad.hilbert_terms",
    "operad.residual_terms",
)


def _cmd_metric(sub: str) -> str:
    return "cmd." + sub.replace("-", "_") + "_s"


LAYER_UNITS = {
    **{name: "count" if part == "calls" else "s" for name, (_, part) in SPAN_METRICS.items()},
    **{name: "count" for name in COUNT_METRICS},
    "families.build_rss_mb": "MB",
    "cli.stdout_bytes": "bytes",
    "cli.startup_s": "s",
    **{_cmd_metric(sub): "s" for sub in SUBCOMMANDS},
    "trace.overhead_s": "s",
    "machine.probe_s": "s",
    "machine.raw_wall_s": "s",
}


def key_of(args) -> str:
    return " ".join(args)


def child_env() -> dict[str, str]:
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("FREEHEDRA_") and k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPATH")
    }
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass
class Outcome:
    args: tuple
    traced: bool
    wall_s: float
    rss_mb: float
    exit_code: int | None
    stdout: bytes
    stderr: bytes
    timed_out: bool
    #: Mean wall time of the probes right before and after this invocation.
    probe_s: float = PROBE_REF_S

    @property
    def sub(self) -> str:
        return self.args[0]

    @property
    def scaled_s(self) -> float:
        return self.wall_s * PROBE_REF_S / self.probe_s

    @functools.cached_property
    def trace(self) -> dict | None:
        for line in reversed(self.stderr.splitlines()):
            if line.startswith(TRACE_PREFIX):
                return json.loads(line[len(TRACE_PREFIX):])
        return None


def invoke(args, traced: bool, timeout: float, env: dict[str, str]) -> Outcome:
    """Run one CLI invocation; its peak RSS comes from wait4 on that child."""
    entry = [str(TRACE_CHILD)] if traced else ["-m", "freehedra"]
    return spawn(tuple(args), traced, [sys.executable, *entry, *args], timeout, env)


def spawn(args: tuple, traced: bool, cmd: list[str], timeout: float, env: dict[str, str]) -> Outcome:
    out: list[bytes] = []
    err: list[bytes] = []
    timed_out = False
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ, out)
            sel.register(proc.stderr, selectors.EVENT_READ, err)
            while sel.get_map():
                left = start + timeout - time.perf_counter()
                if left <= 0:
                    timed_out = True
                    break
                for key, _ in sel.select(left):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        key.data.append(data)
                    else:
                        sel.unregister(key.fileobj)
    finally:
        if timed_out or sys.exc_info()[0] is not None:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    return Outcome(
        args,
        traced,
        wall,
        usage.ru_maxrss / 1024,
        None if timed_out else proc.returncode,
        b"".join(out),
        b"".join(err),
        timed_out,
    )


# -- output checks -------------------------------------------------------------


def _faces_check(n: int, field: str | None):
    from freehedra import triples

    def check(stdout: bytes) -> str | None:
        record = json.loads(stdout)
        faces = record if field is None else record[field]
        if len(faces) != triples.count_faces(n):
            return f"{len(faces)} faces, closed form gives {triples.count_faces(n)}"
        return None

    return check


def _certificate_check(faces_checked: int):
    def check(stdout: bytes) -> str | None:
        cert = json.loads(stdout)
        if not cert["short"] or cert["witness"] is not None or cert["faces_checked"] != faces_checked:
            return f"expected a short certificate over {faces_checked} faces"
        return None

    return check


def _witness_check(stdout: bytes) -> str | None:
    witness = json.loads(stdout)["witness"]
    recomputed = (witness["ambient"]["dim"] - 1) - sum(m["dim"] - 1 for m in witness["members"])
    if recomputed != witness["excess"] or recomputed > 0:
        return f"witness excess {witness['excess']} (recomputed {recomputed}) is not <= 0"
    return None


def cross_checks() -> dict[str, object]:
    """Checks of outputs against closed forms, independent of the digests."""
    from freehedra import triples

    return {
        key_of(WORKLOADS["build"][0]): _faces_check(7, None),
        key_of(WORKLOADS["build"][1]): _faces_check(7, "faces"),
        key_of(WORKLOADS["certify"][0]): _certificate_check(triples.count_faces(6)),
        key_of(WORKLOADS["controls"][0]): _certificate_check(3**7),
        key_of(WORKLOADS["controls"][1]): _certificate_check(2**10 - 1),
        key_of(WORKLOADS["controls"][2]): _witness_check,
    }


def failure(outcome: Outcome, pinned: dict, checks: dict) -> str | None:
    """Why the outcome counts as a failed operation, or None."""
    key = key_of(outcome.args)
    if outcome.timed_out:
        return "timed out"
    expected = pinned.get(key)
    if expected is None:
        return "no pinned digest"
    if outcome.exit_code != expected["exit"]:
        return f"exit {outcome.exit_code}, expected {expected['exit']}"
    digest = hashlib.sha256(outcome.stdout).hexdigest()
    if digest != expected["sha256"]:
        return f"stdout sha256 {digest[:12]}, expected {expected['sha256'][:12]}"
    check = checks.get(key)
    reason = check(outcome.stdout) if check else None
    if reason is None and outcome.traced and outcome.trace is None:
        reason = "no trace record"
    return reason


def failures(outcomes: list[Outcome], pinned: dict, checks: dict) -> list[str]:
    """One line per failed operation among the outcomes."""
    out = []
    for o in outcomes:
        reason = failure(o, pinned, checks)
        if reason:
            out.append(f"{key_of(o.args)}{' (traced)' if o.traced else ''}: {reason}")
    return out


# -- measurement ---------------------------------------------------------------


def hilbert_color(color: int) -> tuple:
    return ("hilbert", "--n", "4", "--max-len", "4", "--color", str(color))


def make_job(workload: str, rng: random.Random) -> list[tuple]:
    job = list(WORKLOADS[workload])
    if workload == "hilbert":
        job += [hilbert_color(c) for c in rng.sample(HILBERT_COLORS, HILBERT_COLORS_PER_JOB)]
    rng.shuffle(job)
    return job


class Runner:
    def __init__(self, env: dict[str, str]):
        self.env = env
        self.started = time.perf_counter()
        self.outcomes: list[Outcome] = []
        self.probes: list[Outcome] = []
        self.unprobed: list[Outcome] = []

    def timeout(self) -> float:
        left = self.started + RUN_DEADLINE_S - time.perf_counter()
        return max(0.0, min(INVOCATION_TIMEOUT_S, left))

    def invoke(self, args, traced: bool = False) -> Outcome:
        outcome = invoke(args, traced, self.timeout(), self.env)
        self.outcomes.append(outcome)
        self.unprobed.append(outcome)
        return outcome

    def probe(self) -> None:
        """Time the probe; the invocations since the previous one get the
        mean of the two probe times."""
        probe = spawn(("probe",), False, [sys.executable, str(PROBE)], self.timeout(), self.env)
        if self.probes:
            for outcome in self.unprobed:
                outcome.probe_s = (self.probes[-1].wall_s + probe.wall_s) / 2
        self.unprobed.clear()
        self.probes.append(probe)

    def job(self, invocations, traced: bool = False) -> list[Outcome]:
        """The invocations in order, each followed by a probe."""
        outcomes = []
        for args in invocations:
            outcomes.append(self.invoke(args, traced))
            self.probe()
        return outcomes

    def probe_problems(self) -> list[str]:
        return [
            f"probe: exit {p.exit_code}, stdout {p.stdout[:40]!r}"
            for p in self.probes
            if p.timed_out or p.exit_code != 0 or p.stdout != PROBE_OUTPUT
        ]


def measure(runner: Runner, invocations, seconds: float, traced: bool):
    """Rounds of set-up samples and an untraced job, or of an untraced and a
    traced job, until the next round would end after seconds. A probe runs
    first and after every invocation (after every group of set-up samples).

    Set-up samples are spread over the run so that their median does not
    hang on the machine's speed during one second of it.
    """
    setup: list[Outcome] = []
    plain: list[list[Outcome]] = []
    with_trace: list[list[Outcome]] = []
    durations: list[float] = []
    start = time.perf_counter()
    runner.probe()
    while True:
        round_start = time.perf_counter()
        if not traced:
            setup += [runner.invoke(SETUP) for _ in range(SETUP_SAMPLES_PER_JOB)]
            runner.probe()
        plain.append(runner.job(invocations))
        if traced:
            with_trace.append(runner.job(invocations, traced=True))
        durations.append(time.perf_counter() - round_start)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return setup, plain, with_trace


def typical(jobs: list[list[Outcome]], field: str) -> list[float]:
    """For each invocation of the job, the median of field over the jobs.

    A job's invocations run in the same order in every job, so position i
    is the same invocation throughout.
    """
    return [statistics.median([getattr(job[i], field) for job in jobs]) for i in range(len(jobs[0]))]


def cmd_times(jobs: list[list[Outcome]]) -> dict[str, float]:
    """Typical scaled wall time per subcommand, summed over its invocations in a job."""
    times = {_cmd_metric(sub): 0.0 for sub in SUBCOMMANDS}
    for outcome, wall in zip(jobs[0], typical(jobs, "scaled_s")):
        times[_cmd_metric(outcome.sub)] += wall
    return times


def end_to_end(setup: list[Outcome], jobs: list[list[Outcome]]) -> dict[str, float]:
    return {
        "setup_s": statistics.median([o.scaled_s for o in setup]),
        "wall_s": sum(typical(jobs, "scaled_s")),
        "peak_rss_mb": max(typical(jobs, "rss_mb")),
    }


def layer_values(job: list[Outcome]) -> dict[str, float]:
    """Per-layer values of one traced job, summed over its invocations."""
    values = {name: 0 if part == "calls" else 0.0 for name, (_, part) in SPAN_METRICS.items()}
    values.update({name: 0 for name in COUNT_METRICS})
    values.update({"families.build_rss_mb": 0.0, "cli.stdout_bytes": 0, "cli.startup_s": 0.0})
    field = {"inclusive": 0, "self": 1, "calls": 2}
    for o in job:
        trace = o.trace or {"spans": {}, "counts": {}, "peaks": {}}
        for name, (span, part) in SPAN_METRICS.items():
            values[name] += trace["spans"].get(span, (0.0, 0.0, 0))[field[part]]
        for name in COUNT_METRICS:
            values[name] += trace["counts"].get(name, 0)
        values["families.build_rss_mb"] = max(
            values["families.build_rss_mb"], trace["peaks"].get("families.build_rss_mb", 0.0)
        )
        values["cli.stdout_bytes"] += len(o.stdout)
        values["cli.startup_s"] += o.wall_s - trace["spans"].get("cli.main", (0.0,))[0]
    return values


def machine_values(plain: list[list[Outcome]], probes: list[Outcome]) -> dict[str, float]:
    """The probe's median wall time, and wall_s before scaling."""
    return {
        "machine.probe_s": statistics.median([p.wall_s for p in probes]),
        "machine.raw_wall_s": sum(typical(plain, "wall_s")),
    }


def self_time_gap(outcome: Outcome) -> float:
    """|sum of span self times - cli.main time|; 0 when spans nest properly."""
    trace = outcome.trace
    if trace is None:
        return 0.0
    spans = trace["spans"]
    return abs(sum(s[1] for s in spans.values()) - spans.get("cli.main", (0.0,))[0])


def per_layer(
    plain: list[list[Outcome]], traced: list[list[Outcome]], probes: list[Outcome]
) -> tuple[dict[str, float], list[str]]:
    """Medians over the traced jobs; counts must repeat exactly across them."""
    rows = [layer_values(j) for j in traced]
    problems = []
    values = {}
    for name in rows[0]:
        series = [r[name] for r in rows]
        if LAYER_UNITS[name] in ("count", "bytes"):
            if len(set(series)) != 1:
                problems.append(f"{name} differs between traced jobs: {series}")
            values[name] = series[0]
        else:
            values[name] = statistics.median(series)
    values.update(cmd_times(plain))
    values["trace.overhead_s"] = sum(typical(traced, "scaled_s")) - sum(typical(plain, "scaled_s"))
    values.update(machine_values(plain, probes))
    gaps = [self_time_gap(o) for job in traced for o in job]
    if max(gaps) > 1e-3:
        problems.append(f"span self times miss cli.main time by {max(gaps):.6f} s")
    return values, problems


# -- entry point -----------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # Turn SIGTERM into SystemExit, so that invoke() kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "freehedra" / "cli.py").is_file():
        print(f"perfbench: no freehedra sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pinned = json.loads(DIGESTS.read_text())
    checks = cross_checks()
    invocations = make_job(args.workload, random.Random(args.seed))

    runner = Runner(child_env())
    runner.invoke(SETUP)  # untimed: fills __pycache__, which users do not pay per run
    setup, plain, traced = measure(runner, invocations, args.seconds, bool(args.trace))

    problems = failures(runner.outcomes, pinned, checks)
    failed = len(problems)
    problems += runner.probe_problems()

    if args.trace:
        values, trace_problems = per_layer(plain, traced, runner.probes)
        problems += trace_problems
        units = LAYER_UNITS
    else:
        values = end_to_end(setup, plain)
        units = dict(END_TO_END_UNITS)

    print(
        f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} python={platform.python_version()} nproc={os.cpu_count()}"
    )
    print(
        f"  median over {len(plain)} untraced jobs{f' ({len(traced)} traced)' if args.trace else ''}, "
        f"scaled to a {PROBE_REF_S} s probe ({len(runner.probes)} probes); samples as wall/scaled:"
    )
    for i, (wall, rss) in enumerate(zip(typical(plain, "scaled_s"), typical(plain, "rss_mb"))):
        samples = " ".join(f"{job[i].wall_s:.3f}/{job[i].scaled_s:.3f}" for job in plain)
        print(f"  {wall:9.3f} s {rss:8.1f} MB  freehedra {key_of(invocations[i])}  [{samples}]")
    if not args.trace:
        print(f"  setup_s is the median of {len(setup)} samples")
        values_shown = {**values, **cmd_times(plain), **machine_values(plain, runner.probes)}
    else:
        values_shown = values
    print(f"  {'metric':<28} {'value':>14}  unit")
    for name, value in values_shown.items():
        print(f"  {name:<28} {value:>14.6g}  {units.get(name, 's')}")
    print(f"  failed_ops {failed}/{len(runner.outcomes)} = {failed / len(runner.outcomes):.4f}")
    for p in problems:
        print(f"  FAILED {p}")

    result = {
        "correct": not problems,
        "attempted": len(runner.outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
