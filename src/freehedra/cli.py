"""Command-line front end.

Subcommands: faces, check-short, verify-supdim, hilbert, lattice,
audit-chains. Outputs are deterministic (sorted emission, no
timestamps); JSON outputs follow the schema files shipped under
freehedra/schemas/.

Exit codes: 0 data emitted / property holds, 1 property violated
(witness emitted), 2 usage error, 3 resource bound exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import families, operad, triples, words
from .complexes import (
    FaceComplex,
    audit_connected_chains,
    check_supdim,
    freehedron_D,
    is_short,
)
from .errors import ResourceLimitError

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

def _emit(text: str, path: str | None) -> None:
    if path:
        try:
            handle = open(path, "w", encoding="utf-8")
        except OSError as exc:
            raise ValueError(f"cannot write {path}: {exc.strerror}") from exc
        with handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _csv_text(fieldnames: list[str], rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _face_record(c: FaceComplex, fid: int) -> dict:
    report = c.directed_report()
    f = c.faces[fid]
    lo, hi = c.faces[report.min_of[fid]], c.faces[report.max_of[fid]]
    record = {
        "id": f.id,
        "dim": f.dim,
        "label": f.label,
        "vertices": sorted(f.vertices),
        "min": lo.label,
        "max": hi.label,
    }
    if isinstance(f.payload, triples.Triple):
        record["triple"] = triples.to_json(f.payload)
        record["min"] = words.word_of(lo.payload)
        record["max"] = record["min"] if hi is lo else words.word_of(hi.payload)
        if f.dim == 0:
            record["word"] = record["min"]
    return record


def _witness_record(c: FaceComplex, witness, excess_value: int) -> dict:
    return {
        "ambient": _face_record(c, witness.ambient),
        "members": [_face_record(c, g) for g in witness.face_ids],
        "excess": excess_value,
    }


# -- subcommands ----------------------------------------------------------------


def cmd_faces(args) -> int:
    c = families.family_complex(args.family, args.n)
    records = [_face_record(c, f.id) for f in c.faces]
    if args.format == "json":
        _emit(_json_text(records), args.output)
    elif args.format == "csv":
        rows = [
            {
                "id": r["id"],
                "dim": r["dim"],
                "label": r["label"],
                "min": r["min"],
                "max": r["max"],
                "word": r.get("word", ""),
            }
            for r in records
        ]
        _emit(_csv_text(["id", "dim", "label", "min", "max", "word"], rows), args.output)
    else:
        lines = [f"# {args.family} n={args.n}: {len(records)} faces"]
        for r in records:
            word = f"  word={r['word']}" if "word" in r else ""
            lines.append(
                f"{r['id']:4d}  dim {r['dim']}  {r['label']}  "
                f"[min {r['min']}, max {r['max']}]{word}"
            )
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def cmd_check_short(args) -> int:
    c = families.family_complex(args.family, args.n)
    cert = is_short(c)
    payload = {
        "family": args.family,
        "size": args.n,
        "short": cert.short,
        "faces_checked": cert.faces_checked,
        "chains_counted": cert.chains_counted,
        "witness": None,
        "per_face": [
            {
                "face": s.face_id,
                "dim": s.dim,
                "members": s.members,
                "chains": s.chains,
                "max_weight": s.max_weight,
                "bound": s.bound,
            }
            for s in cert.per_face
        ],
    }
    if cert.witness is not None:
        payload["witness"] = _witness_record(c, cert.witness, cert.witness_excess)
    if args.format == "json":
        _emit(_json_text(payload), args.output)
    else:
        lines = [
            f"# shortness certificate: {args.family} n={args.n}",
            f"faces checked: {cert.faces_checked}",
            f"nontrivial chains counted: {cert.chains_counted}",
            f"short: {cert.short}",
        ]
        if cert.witness is not None:
            labels = [c.faces[g].label for g in cert.witness.face_ids]
            lines.append(
                f"witness (excess {cert.witness_excess}) in "
                f"{c.faces[cert.witness.ambient].label}: {labels}"
            )
            lines.append("witness-json: " + json.dumps(payload["witness"], sort_keys=True))
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK if cert.short else EXIT_VIOLATED


def cmd_verify_supdim(args) -> int:
    c = families.freehedron_complex(args.n)
    D = freehedron_D(c)
    report = check_supdim(c, D)
    rep = c.directed_report()
    rows = []
    for f in c.faces:
        rows.append(
            {
                "face": f.id,
                "dim": f.dim,
                "label": f.label,
                "D_min": D[rep.min_of[f.id]],
                "D_max": D[rep.max_of[f.id]],
                "slack": report.slack[f.id],
            }
        )
    payload = {
        "family": "freehedron",
        "size": args.n,
        "ok": report.ok,
        "violations": list(report.violations),
        "rows": rows,
    }
    if args.format == "json":
        _emit(_json_text(payload), args.output)
    elif args.format == "csv":
        _emit(
            _csv_text(["face", "dim", "label", "D_min", "D_max", "slack"], rows),
            args.output,
        )
    else:
        lines = [f"# slack table: freehedron n={args.n} ({len(rows)} faces)"]
        for r in rows:
            lines.append(
                f"{r['face']:4d}  dim {r['dim']}  D(min)={r['D_min']} "
                f"D(max)={r['D_max']}  slack {r['slack']}  {r['label']}"
            )
        lines.append(f"sup-dimensional: {report.ok}")
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK if report.ok else EXIT_VIOLATED


def cmd_hilbert(args) -> int:
    c = families.family_complex(args.family, args.n)
    labels = {f.id: f.label for f in c.faces}
    color_ids = [f.id for f in c.faces]
    if args.color is not None:
        if not 0 <= args.color < len(c.faces):
            raise ValueError(f"no color {args.color}")
        color_ids = [args.color]
    if args.residual:
        images = operad.selfduality_residual(c, args.max_len, not args.no_repeats)
        images = {cid: images[cid] for cid in color_ids}
    else:
        images = {
            cid: operad.hilbert_image(c, cid, args.max_len, not args.no_repeats)
            for cid in color_ids
        }
    rows = []
    for cid in color_ids:
        rows.extend(operad.image_rows(images[cid], labels))
    if args.format == "json":
        _emit(_json_text(rows), args.output)
    elif args.format == "csv":
        flat = [
            {
                "color": r["color"],
                "color_label": r["color_label"],
                "word": ";".join(str(g) for g in r["word"]),
                "exponent": r["exponent"],
                "coefficient": r["coefficient"],
            }
            for r in rows
        ]
        _emit(
            _csv_text(["color", "color_label", "word", "exponent", "coefficient"], flat),
            args.output,
        )
    else:
        kind = "residual" if args.residual else "image"
        lines = [
            f"# hilbert {kind}: {args.family} n={args.n} max-len={args.max_len} "
            f"repeats={'off' if args.no_repeats else 'on'}"
        ]
        for r in rows:
            word = " ".join(labels[g] for g in r["word"])
            lines.append(
                f"{labels[r['color']]}  <-  t^{r['exponent']} * {r['coefficient']} * ({word})"
            )
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def cmd_lattice(args) -> int:
    c = families.family_complex(args.family, args.n)
    if args.format == "json":
        _emit(_json_text(c.to_json_dict()), args.output)
    else:
        text = c.skeleton_dot() if args.kind == "skeleton" else c.hasse_dot()
        _emit(text, args.output)
    return EXIT_OK


def cmd_audit_chains(args) -> int:
    c = families.freehedron_complex(args.n)
    D = freehedron_D(c)
    report = audit_connected_chains(c, D, sample=args.sample)
    payload = {
        "family": "freehedron",
        "size": args.n,
        "ok": report.ok,
        "exhaustive": report.exhaustive,
        "chains_examined": report.chains_examined,
        "failures": [
            {"members": list(r.face_ids), "slacks": list(r.slacks)}
            for r in report.failures
        ],
        "chains": [
            {
                "members": list(r.face_ids),
                "slacks": list(r.slacks),
                "middle_empty": None if r.middle_empty is None else list(r.middle_empty),
                "trivial": r.trivial,
                "has_positive_slack": r.has_positive_slack,
            }
            for r in report.records
        ],
    }
    if args.format == "json":
        _emit(_json_text(payload), args.output)
    else:
        lines = [
            f"# connected-chain audit: freehedron n={args.n}",
            f"chains examined: {report.chains_examined} "
            f"({'exhaustive' if report.exhaustive else 'sampled'})",
            f"every nontrivial chain has a positive-slack member: {report.ok}",
        ]
        for r in report.records:
            mark = "trivial" if r.trivial else ("ok" if r.has_positive_slack else "FAIL")
            lines.append(f"  [{mark}] slacks={list(r.slacks)} members={list(r.face_ids)}")
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK if report.ok else EXIT_VIOLATED


# -- parser -----------------------------------------------------------------------


def _add_family(p, families_allowed=families.FAMILIES):
    p.add_argument("--family", choices=families_allowed, default="freehedron")
    p.add_argument("--n", type=int, required=True, help="family size parameter")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freehedra",
        description="Exact face combinatorics of freehedra and friends: "
        "enumeration, shortness certification, slack audits, Hilbert data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("faces", help="list faces with labels, dims, min/max")
    _add_family(p)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--output")
    p.set_defaults(func=cmd_faces)

    p = sub.add_parser("check-short", help="certify positive excess of nontrivial chains")
    _add_family(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--output")
    p.set_defaults(func=cmd_check_short)

    p = sub.add_parser("verify-supdim", help="slack table for the freehedron potential")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--output")
    p.set_defaults(func=cmd_verify_supdim)

    p = sub.add_parser("hilbert", help="truncated Hilbert images or residuals")
    _add_family(p)
    p.add_argument("--max-len", type=int, required=True, help="word length truncation")
    p.add_argument("--color", type=int, help="restrict to one color (face id)")
    p.add_argument("--no-repeats", action="store_true", help="forbid repeated vertex members")
    p.add_argument("--residual", action="store_true", help="emit self-duality residuals")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--output")
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("lattice", help="DOT export of the Hasse diagram or skeleton")
    _add_family(p)
    p.add_argument("--kind", choices=("hasse", "skeleton"), default="hasse")
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.add_argument("--output")
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("audit-chains", help="connected min-to-max chain audit")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sample", type=int, help="sample this many chains instead")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--output")
    p.set_defaults(func=cmd_audit_chains)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"resource bound: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
