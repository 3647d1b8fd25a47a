"""Golden CLI outputs: stdout SHA-256 and exit code per invocation.

The matrix covers every subcommand and format on small sizes of every
family. A refactor must keep every digest; a change that alters output on
purpose re-pins the file with ``PYTHONPATH=src python tests/test_golden.py``
and says so in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib

from freehedra import cli

GOLDEN = pathlib.Path(__file__).with_name("golden_digests.json")


def _matrix() -> list[tuple[str, ...]]:
    out: list[tuple[str, ...]] = []
    sizes = [("freehedron", n) for n in range(6)]
    for family, n in sizes + [("cube", 3), ("simplex", 3), ("associahedron", 5)]:
        for fmt in ("text", "json", "csv"):
            out.append(("faces", "--family", family, "--n", str(n), "--format", fmt))
    for family, n in [("freehedron", n) for n in range(2, 6)] + [
        ("cube", 3), ("associahedron", 5)
    ]:
        base = ("lattice", "--family", family, "--n", str(n))
        out += [base + ("--kind", "hasse"), base + ("--kind", "skeleton"),
                base + ("--format", "json")]
    for family, n in [("freehedron", n) for n in range(1, 6)] + [
        ("cube", 3), ("simplex", 3), ("associahedron", 5), ("associahedron", 6)
    ]:
        for fmt in ("text", "json"):
            out.append(("check-short", "--family", family, "--n", str(n), "--format", fmt))
    for n in range(3, 6):
        for fmt in ("text", "json", "csv"):
            out.append(("verify-supdim", "--n", str(n), "--format", fmt))
        for fmt in ("text", "json"):
            out.append(("audit-chains", "--n", str(n), "--format", fmt))
            out.append(("audit-chains", "--n", str(n), "--sample", "25", "--format", fmt))
    out += [
        ("hilbert", "--family", "freehedron", "--n", "1", "--max-len", "2", "--format", "csv"),
        ("hilbert", "--family", "freehedron", "--n", "2", "--max-len", "3", "--residual",
         "--format", "json"),
        ("hilbert", "--family", "freehedron", "--n", "2", "--max-len", "3", "--no-repeats"),
        ("hilbert", "--family", "cube", "--n", "2", "--max-len", "3", "--color", "8",
         "--format", "json"),
        ("hilbert", "--family", "freehedron", "--n", "3", "--max-len", "3", "--residual",
         "--no-repeats", "--format", "csv"),
        ("hilbert", "--family", "cube", "--n", "3", "--max-len", "3", "--residual"),
        ("hilbert", "--family", "associahedron", "--n", "5", "--max-len", "3", "--residual",
         "--format", "json"),
        ("hilbert", "--family", "freehedron", "--n", "3", "--max-len", "3", "--residual",
         "--color", "20"),
    ]
    # the certifier, slack table and audit at one size past the rest of the matrix
    out += [
        ("check-short", "--family", "freehedron", "--n", "7", "--format", "json"),
        ("audit-chains", "--n", "7", "--format", "json"),
        ("verify-supdim", "--n", "7", "--format", "csv"),
        ("check-short", "--family", "associahedron", "--n", "7", "--format", "json"),
    ]
    return out


def _run(argv: tuple[str, ...]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    text = buf.getvalue()
    # the writer cuts blocks by chars, one byte each only in ASCII text
    assert text.isascii(), argv
    return {"sha256": hashlib.sha256(text.encode()).hexdigest(), "exit": code}


def _results() -> dict[str, dict]:
    return {" ".join(argv): _run(argv) for argv in _matrix()}


def test_cli_outputs_match_golden_digests():
    pinned = json.loads(GOLDEN.read_text())
    assert _results() == pinned


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_results(), indent=1, sort_keys=True) + "\n")
