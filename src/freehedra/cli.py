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
import os
import signal
import sys
from contextlib import suppress
from functools import lru_cache
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii as _quote
from types import GeneratorType

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


def _emit(pieces, path: str | None) -> None:
    """Write text pieces to stdout as made, or to path only whole: to a temporary
    file beside it, renamed onto path once every piece is written."""
    if not path:
        sys.stdout.writelines(pieces)
        return
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "x", encoding="utf-8") as handle:
            handle.writelines(pieces)
        os.replace(tmp, path)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from exc
    finally:
        with suppress(OSError):
            os.unlink(tmp)


# -- JSON -------------------------------------------------------------------------
#
# The JSON outputs are json.dumps(obj, indent=2, sort_keys=True) + "\n", byte
# for byte. json.dumps runs its pure-Python encoder whenever indent is set and
# holds every chunk until the end, so the writer lays the same text out itself,
# one way per kind. A dict with str keys fills the % template cached for its
# key order and indent, a slot per value (_layout, _json_value). A list goes
# through _json_list: one C-level string operation when it holds ints, strs or
# nonempty int lists, item by item otherwise. _json_stream hands the text on
# in pieces, so it is written as it is made: a generator, as every record
# sequence that grows with the data is, as the list of its items, _SLICE items
# at a time; the outermost dict, and each dict among its values, entry by
# entry; any other value, a list too, whole.

#: Items per piece of a streamed generator: a slice of 128 face records is about
#: 64 KB of text, and longer slices raise the peak memory of faces and lattice.
_SLICE = 128
#: Characters per write: the default capacity of a Linux pipe.
_BLOCK = 1 << 16


@lru_cache(maxsize=256)
def _layout(order: tuple, nl: str):
    """The layout at indent nl of a dict whose keys come in this order, or None
    unless every key is a str: the keys sorted, the indent of the values, the
    % template of the dict with a slot per value, the text before each value
    and the text after the last."""
    if not all(type(k) is str for k in order):
        return None
    keys = sorted(order)
    inner = nl + "  "
    heads = [("," if i else "{") + inner + _quote(k) + ": " for i, k in enumerate(keys)]
    close = nl + "}" if heads else "{}"
    template = "".join([h.replace("%", "%%") + "%s" for h in heads]) + close
    return keys, inner, template, heads, close


def _json_value(obj, nl: str, trusted: bool = False) -> str:
    """The json.dumps(obj, indent=2, sort_keys=True) text of obj, indented at nl;
    trusted as for _json_list."""
    layout = _layout(tuple(obj), nl) if type(obj) is dict else None
    if layout is not None:
        keys, inner, template, _, _ = layout
        return template % tuple([
            v if type(v) is int else _quote(v) if type(v) is str
            else _json_list(v, inner, trusted) if type(v) is list
            else "null" if v is None else _json_value(v, inner, trusted)
            for v in map(obj.__getitem__, keys)
        ])
    t = type(obj)
    if t is str:
        return _quote(obj)
    if t is int:
        return int.__repr__(obj)
    if t is list:
        return _json_list(obj, nl, trusted)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    # floats, tuples, subclasses and non-str keys: json.dumps itself, whose
    # text holds no raw newline, so indenting every line break re-indents it
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", nl)


def _json_list(items: list, nl: str, trusted: bool = False) -> str:
    """The json.dumps(items, indent=2, sort_keys=True) text of a list, at indent nl.

    A list of ints, of strs or of nonempty int lists takes one C-level
    string operation; any other list goes item by item, a dict by its
    template. The scan for those kinds tests exact types: True and False
    are ints, but json writes them as true and false. trusted skips it, for
    lists that are nonempty and hold one type each, and whose lists hold
    nonempty int lists: hilbert's rows.
    """
    sep = f",{nl}  "  # between items; sep[1:] is their indent
    if trusted:
        kind = type(items[0])
    elif not items:
        return "[]"
    else:
        kinds = set(map(type, items))
        kind = kinds.pop() if len(kinds) == 1 else None
    if kind is int:
        body = repr(items)[1:-1].replace(", ", sep)
    elif kind is str:
        body = sep.join(map(_quote, items))
    elif kind is list and (
        trusted or all(items) and set(map(type, chain.from_iterable(items))) == {int}
    ):
        # one % form per length, each int list a bracketed run of slots
        slots = sep + "  "
        forms = {
            k: f"[{slots[1:]}{slots.join(['%d'] * k)}{sep[1:]}]" for k in set(map(len, items))
        }
        body = sep.join([forms[len(x)] for x in items]) % tuple(chain.from_iterable(items))
    else:
        body = sep.join(map(_json_value, items, repeat(sep[1:]), repeat(trusted)))
    return f"[{nl}  {body}{nl}]"


def _json_stream(obj, nl: str, trusted: bool = False):
    """Yield the text of obj at indent nl in pieces, as _json_value lays it out:
    a generator as the list of its items, _SLICE items at a time; a dict with
    str keys entry by entry, each value in pieces in turn; anything else whole."""
    layout = _layout(tuple(obj), nl) if type(obj) is dict else None
    if type(obj) is GeneratorType:
        head = "["
        while part := list(islice(obj, _SLICE)):
            # the slice's text with its brackets cut off: its items, indented
            yield head + _json_list(part, nl, trusted)[1 : -len(nl) - 1]
            head = ","
        yield "[]" if head == "[" else nl + "]"
    elif layout is not None:
        keys, inner, _, heads, close = layout
        for key, head in zip(keys, heads):
            yield head
            yield from _json_stream(obj[key], inner, trusted)
        yield close
    else:
        yield _json_value(obj, nl, trusted)


def _blocks(pieces):
    """The text of the pieces, re-cut into whole blocks of _BLOCK chars and a tail.

    Whole blocks, because each write can be a system call (stdout writes
    through when unbuffered, as under PYTHONUNBUFFERED): a block fills a
    pipe once, so a reader taking a pipe's capacity per read gets whole
    blocks, as from one large write. JSON text is ASCII, one byte a char.
    """
    text = ""
    for piece in pieces:
        text += piece
        if len(text) >= _BLOCK:
            cut = len(text) - len(text) % _BLOCK
            yield text[:cut]
            text = text[cut:]
    yield text


def _json_pieces(obj):
    """json.dumps(obj, indent=2, sort_keys=True) + "\n", in blocks of _BLOCK chars."""
    return _blocks(chain(_json_stream(obj, "\n"), ["\n"]))


def _csv_pieces(header: tuple, batches):
    """The csv text of the header and of each batch of row tuples, a piece each."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for rows in chain([[header]], batches):
        writer.writerows(rows)
        yield buf.getvalue()
        buf.seek(0)
        buf.truncate()


def _vertex_words(c: FaceComplex) -> dict[int, str]:
    """The coordinate word of every vertex labelled by a triple."""
    vertices = [c.faces[v] for v in c.vertex_ids]
    return {f.id: words.word_of(f.payload) for f in vertices if isinstance(f.payload, triples.Triple)}


def _face_record(c: FaceComplex, fid: int, vertex_words: dict[int, str]) -> dict:
    report = c.directed_report()
    f = c.faces[fid]
    lo, hi = report.min_of[fid], report.max_of[fid]
    record = {
        "id": f.id,
        "dim": f.dim,
        "label": f.label,
        "vertices": list(c.vertices(fid)),
        "min": c.faces[lo].label,
        "max": c.faces[hi].label,
    }
    if isinstance(f.payload, triples.Triple):
        record["triple"] = triples.to_json(f.payload)
        record["min"] = vertex_words[lo]
        record["max"] = vertex_words[hi]
        if f.dim == 0:
            record["word"] = record["min"]
    return record


def _witness_record(c: FaceComplex, witness, excess_value: int) -> dict:
    vertex_words = _vertex_words(c)
    return {
        "ambient": _face_record(c, witness.ambient, vertex_words),
        "members": [_face_record(c, g, vertex_words) for g in witness.face_ids],
        "excess": excess_value,
    }


# -- subcommands ----------------------------------------------------------------


def cmd_faces(args) -> int:
    c = families.family_complex(args.family, args.n)
    vertex_words = _vertex_words(c)
    records = (_face_record(c, f.id, vertex_words) for f in c.faces)
    if args.format == "json":
        _emit(_json_pieces(records), args.output)
    elif args.format == "csv":
        rows = (
            (r["id"], r["dim"], r["label"], r["min"], r["max"], r.get("word", "")) for r in records
        )
        _emit(_csv_pieces(("id", "dim", "label", "min", "max", "word"), [rows]), args.output)
    else:
        lines = (
            f"{r['id']:4d}  dim {r['dim']}  {r['label']}  [min {r['min']}, max {r['max']}]"
            f"{'  word=' + r['word'] if 'word' in r else ''}\n"
            for r in records
        )
        head = f"# {args.family} n={args.n}: {len(c.faces)} faces\n"
        _emit(_blocks(chain([head], lines)), args.output)
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
        "per_face": (
            {
                "face": s.face_id,
                "dim": s.dim,
                "members": s.members,
                "chains": s.chains,
                "max_weight": s.max_weight,
                "bound": s.bound,
            }
            for s in cert.per_face
        ),
    }
    if cert.witness is not None:
        payload["witness"] = _witness_record(c, cert.witness, cert.witness_excess)
    if args.format == "json":
        _emit(_json_pieces(payload), args.output)
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
        _emit(["\n".join(lines) + "\n"], args.output)
    return EXIT_OK if cert.short else EXIT_VIOLATED


def cmd_verify_supdim(args) -> int:
    c = families.freehedron_complex(args.n)
    D = freehedron_D(c)
    report = check_supdim(c, D)
    rep = c.directed_report()
    rows = (
        {
            "face": f.id,
            "dim": f.dim,
            "label": f.label,
            "D_min": D[rep.min_of[f.id]],
            "D_max": D[rep.max_of[f.id]],
            "slack": report.slack[f.id],
        }
        for f in c.faces
    )
    payload = {
        "family": "freehedron",
        "size": args.n,
        "ok": report.ok,
        "violations": list(report.violations),
        "rows": rows,
    }
    if args.format == "json":
        _emit(_json_pieces(payload), args.output)
    elif args.format == "csv":
        header = ("face", "dim", "label", "D_min", "D_max", "slack")
        _emit(_csv_pieces(header, [([r[k] for k in header] for r in rows)]), args.output)
    else:
        lines = (
            f"{r['face']:4d}  dim {r['dim']}  D(min)={r['D_min']} "
            f"D(max)={r['D_max']}  slack {r['slack']}  {r['label']}\n"
            for r in rows
        )
        head = f"# slack table: freehedron n={args.n} ({len(c.faces)} faces)\n"
        _emit(_blocks(chain([head], lines, [f"sup-dimensional: {report.ok}\n"])), args.output)
    return EXIT_OK if report.ok else EXIT_VIOLATED


def cmd_hilbert(args) -> int:
    c = families.family_complex(args.family, args.n)
    color_ids = range(len(c.faces))
    if args.color is not None:
        if not 0 <= args.color < len(c.faces):
            raise ValueError(f"no color {args.color}")
        color_ids = [args.color]
    repeats = not args.no_repeats

    def rows_of(cid: int):
        if args.residual:
            image = operad.selfduality_residual(c, args.max_len, repeats, [cid])[cid]
        else:
            image = operad.hilbert_image(c, cid, args.max_len, repeats)
        return cid, operad.image_rows(image)

    # one color at a time, each written before the next is computed; a
    # refused argument raises in the first color, before _blocks writes
    per_color = map(rows_of, color_ids)
    labels = [f.label for f in c.faces]
    if args.format == "json":
        records = (
            {"color": cid, "color_label": labels[cid], "word": list(w),
             "word_labels": [labels[g] for g in w], "exponent": e, "coefficient": n}
            for cid, rows in per_color
            for w, e, n in rows
        )
        pieces = chain(_json_stream(records, "\n", trusted=True), ["\n"])
    elif args.format == "csv":
        header = ("color", "color_label", "word", "exponent", "coefficient")
        ids = list(map(str, range(len(c.faces))))
        pieces = _csv_pieces(
            header,
            (((cid, labels[cid], ";".join([ids[g] for g in w]), e, n) for w, e, n in rows)
             for cid, rows in per_color),
        )
    else:
        kind = "residual" if args.residual else "image"
        header = (
            f"# hilbert {kind}: {args.family} n={args.n} max-len={args.max_len} "
            f"repeats={'off' if args.no_repeats else 'on'}\n"
        )
        lines = (
            f"{labels[cid]}  <-  t^{e} * {n} * ({' '.join([labels[g] for g in w])})\n"
            for cid, rows in per_color
            for w, e, n in rows
        )
        pieces = chain([header], lines)
    _emit(_blocks(pieces), args.output)
    return EXIT_OK


def cmd_lattice(args) -> int:
    c = families.family_complex(args.family, args.n)
    if args.format == "json":
        _emit(_json_pieces(c.to_json_dict()), args.output)
    else:
        text = c.skeleton_dot() if args.kind == "skeleton" else c.hasse_dot()
        _emit([text], args.output)
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
        "failures": (
            {"members": list(r.face_ids), "slacks": list(r.slacks)}
            for r in report.failures
        ),
        "chains": (
            {
                "members": list(r.face_ids),
                "slacks": list(r.slacks),
                "middle_empty": None if r.middle_empty is None else list(r.middle_empty),
                "trivial": r.trivial,
                "has_positive_slack": r.has_positive_slack,
            }
            for r in report.records
        ),
    }
    if args.format == "json":
        _emit(_json_pieces(payload), args.output)
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
        _emit(["\n".join(lines) + "\n"], args.output)
    return EXIT_OK if report.ok else EXIT_VIOLATED


# -- parser -----------------------------------------------------------------------


def _add_family(p):
    p.add_argument("--family", choices=families.FAMILIES, default="freehedron")
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
    p.add_argument(
        "--kind", choices=("hasse", "skeleton"), default="hasse", help="DOT output only"
    )
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
    previous_hook = sys.unraisablehook

    def unraisable(info) -> None:
        # while a MemoryError unwinds, a suspended generator can fail again
        # as it is closed; that exhaustion is reported once, below
        if not issubclass(info.exc_type, MemoryError):
            previous_hook(info)

    sys.unraisablehook = unraisable
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"resource bound: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        pass
    finally:
        sys.unraisablehook = previous_hook
    # past the handler, which frees the traceback and the frames it holds
    print("resource bound: out of memory", file=sys.stderr)
    return EXIT_RESOURCE


def run() -> None:
    """main() as a program, the console script and python -m freehedra: a reader
    that closes stdout early ends it by SIGPIPE, with no traceback and not status 1."""
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    run()
