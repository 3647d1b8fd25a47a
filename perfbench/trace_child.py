"""Run one freehedra CLI invocation with per-layer spans, for perfbench/run.py.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``):

    python3 perfbench/trace_child.py faces --n 3 --format json

The CLI's stdout and exit code are passed through untouched. After the
CLI returns, one JSON line with the aggregated spans and counts is
written to stderr, prefixed by ``TRACE_PREFIX``.

Wrappers are installed where each name is looked up at call time: the
CLI binds ``is_short``, ``audit_connected_chains`` and ``check_supdim``
by ``from .complexes import ...``, so those names are replaced in both
``complexes`` and ``cli``; ``families`` and ``cli`` reach ``triples``,
``words``, ``families`` and ``operad`` through module attributes, so the
module attribute is replaced. Spans are aggregated per name as they
close (inclusive time, self time, calls); a call nested inside a span of
the same name is part of the outer span. The self times of all spans add
up to the inclusive time of ``cli.main``.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import weakref
from collections import Counter
from time import perf_counter

from freehedra import cli, complexes, families, operad, triples, words

TRACE_PREFIX = "PERFBENCH_TRACE "

CONSTRUCTORS = (
    "family_complex",
    "freehedron_complex",
    "cube_complex",
    "simplex_complex",
    "associahedron_complex",
)


class Tracer:
    """Per-name span totals for one process; single-threaded."""

    def __init__(self) -> None:
        self.inclusive: Counter = Counter()
        self.self_time: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.peaks: dict[str, float] = {}
        self._open: Counter = Counter()
        self._child_time: list[float] = []

    def wrap(self, name, fn, count=None):
        """Wrap fn in a span called name; count(result) gives counts to add."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._open[name]:
                return fn(*args, **kwargs)
            self._open[name] += 1
            self._child_time.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                child = self._child_time.pop()
                self._open[name] -= 1
                if self._child_time:
                    self._child_time[-1] += duration
                self.inclusive[name] += duration
                self.self_time[name] += duration - child
                self.calls[name] += 1
            if count is not None:
                self.counts.update(count(result))
            return result

        return traced

    def peak(self, name: str, value: float) -> None:
        self.peaks[name] = max(self.peaks.get(name, value), value)

    def summary(self) -> dict:
        return {
            "spans": {
                name: [self.inclusive[name], self.self_time[name], self.calls[name]]
                for name in sorted(self.inclusive)
            },
            "counts": dict(sorted(self.counts.items())),
            "peaks": self.peaks,
        }


def install(tracer: Tracer) -> None:
    """Replace the traced names in the freehedra modules by wrappers."""

    def build_counts(c):
        tracer.peak(
            "families.build_rss_mb",
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
        return {"families.incidence_pairs": len(c.incidence), "families.skeleton_edges": len(c.skeleton)}

    triples.enumerate_faces = tracer.wrap(
        "triples.enumerate_faces", triples.enumerate_faces, lambda faces: {"triples.faces": len(faces)}
    )
    words.word_of = tracer.wrap("words.word_of", words.word_of)
    words.min_vertex = tracer.wrap("words.vertex_bounds", words.min_vertex)
    words.max_vertex = tracer.wrap("words.vertex_bounds", words.max_vertex)
    for attr in CONSTRUCTORS:
        setattr(families, attr, tracer.wrap("families.build", getattr(families, attr), build_counts))

    for attr, name, count in (
        (
            "is_short",
            "complexes.is_short",
            lambda cert: {
                "complexes.cert_members": sum(s.members for s in cert.per_face),
                "complexes.cert_chains": cert.chains_counted,
            },
        ),
        (
            "audit_connected_chains",
            "complexes.audit",
            lambda report: {"complexes.audit_chains": report.chains_examined},
        ),
        ("check_supdim", "complexes.check_supdim", None),
    ):
        wrapped = tracer.wrap(name, getattr(complexes, attr), count)
        setattr(complexes, attr, wrapped)
        setattr(cli, attr, wrapped)

    # Validation runs on the first directed_report() of each complex; later
    # calls return the cached report and are not spans.
    validated = weakref.WeakSet()
    directed_report = complexes.FaceComplex.directed_report
    validate = tracer.wrap("complexes.validate", directed_report)

    def first_report(self):
        if self in validated:
            return directed_report(self)
        validated.add(self)
        return validate(self)

    complexes.FaceComplex.directed_report = first_report
    complexes.FaceComplex.to_json_dict = tracer.wrap(
        "complexes.to_json_dict", complexes.FaceComplex.to_json_dict
    )

    operad.hilbert_image = tracer.wrap(
        "operad.hilbert_image", operad.hilbert_image, lambda image: {"operad.hilbert_terms": len(image.terms)}
    )
    operad.selfduality_residual = tracer.wrap(
        "operad.residual",
        operad.selfduality_residual,
        lambda images: {"operad.residual_terms": sum(len(i.terms) for i in images.values())},
    )
    operad.image_rows = tracer.wrap("operad.image_rows", operad.image_rows)


def main(argv: list[str]) -> int:
    tracer = Tracer()
    install(tracer)
    code = tracer.wrap("cli.main", cli.main)(argv)
    sys.stdout.flush()
    sys.stderr.write("\n" + TRACE_PREFIX + json.dumps(tracer.summary()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
