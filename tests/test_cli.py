import json
import os
import pathlib
import subprocess
import sys

import jsonschema
import pytest
from hypothesis import given
from hypothesis import strategies as st
from referencing import Registry, Resource

import freehedra
from freehedra import cli
from freehedra.errors import LIMITS

SCHEMA_DIR = pathlib.Path(freehedra.__file__).parent / "schemas"


def _registry():
    resources = []
    for path in SCHEMA_DIR.glob("*.json"):
        contents = json.loads(path.read_text())
        resources.append((contents["$id"], Resource.from_contents(contents)))
    return Registry().with_resources(resources)


REGISTRY = _registry()


def validate(instance, schema_name):
    schema = json.loads((SCHEMA_DIR / schema_name).read_text())
    jsonschema.Draft7Validator(schema, registry=REGISTRY).validate(instance)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_faces_listing(capsys):
    code, out = run_cli(capsys, "faces", "--family", "freehedron", "--n", "2",
                        "--format", "json")
    assert code == 0
    records = json.loads(out)
    assert len(records) == 11
    for record in records:
        validate(record, "face_record.schema.json")
    words = [r["word"] for r in records if "word" in r]
    assert sorted(words) == ["00", "02", "20", "21", "22"]

    code, out = run_cli(capsys, "faces", "--family", "freehedron", "--n", "1")
    assert code == 0
    assert out.count("\n") == 4  # header + 3 faces

    code, out = run_cli(capsys, "faces", "--family", "cube", "--n", "2",
                        "--format", "csv")
    assert code == 0
    assert out.count("\n") == 10  # header + 9 faces


def test_check_short_certificates(capsys):
    code, out = run_cli(capsys, "check-short", "--family", "freehedron",
                        "--n", "4", "--format", "json")
    assert code == 0
    cert = json.loads(out)
    validate(cert, "shortness_certificate.schema.json")
    assert cert["short"] is True and cert["witness"] is None
    assert cert["faces_checked"] == 135
    assert len(cert["per_face"]) == 135

    code, out = run_cli(capsys, "check-short", "--family", "simplex", "--n", "5",
                        "--format", "json")
    assert code == 0
    assert json.loads(out)["short"] is True

    # family negative control: first non-short associahedron has 6 leaves
    code, out = run_cli(capsys, "check-short", "--family", "associahedron",
                        "--n", "6", "--format", "json")
    assert code == 1
    cert = json.loads(out)
    validate(cert, "shortness_certificate.schema.json")
    assert cert["short"] is False
    validate(cert["witness"], "witness.schema.json")
    assert cert["witness"]["excess"] <= 0

    code, out = run_cli(capsys, "check-short", "--family", "associahedron",
                        "--n", "6")
    assert code == 1
    line = next(l for l in out.splitlines() if l.startswith("witness-json: "))
    validate(json.loads(line.removeprefix("witness-json: ")), "witness.schema.json")


def test_verify_supdim(capsys):
    code, out = run_cli(capsys, "verify-supdim", "--n", "3", "--format", "json")
    assert code == 0
    report = json.loads(out)
    validate(report, "supdim_report.schema.json")
    assert report["ok"] is True
    assert len(report["rows"]) == 39
    assert {r["slack"] for r in report["rows"]} == {0, 1}

    code, out = run_cli(capsys, "verify-supdim", "--n", "1", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "face,dim,label,D_min,D_max,slack"

    code, out = run_cli(capsys, "verify-supdim", "--n", "2")
    assert code == 0 and "sup-dimensional: True" in out


def test_hilbert_rows(capsys):
    code, out = run_cli(capsys, "hilbert", "--family", "freehedron", "--n", "1",
                        "--max-len", "2", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    for row in rows:
        validate(row, "hilbert_row.schema.json")
    edge_rows = [r for r in rows if r["color"] == 2]
    assert len(edge_rows) == 8

    code, out = run_cli(capsys, "hilbert", "--family", "freehedron", "--n", "1",
                        "--max-len", "2", "--color", "2", "--format", "csv")
    assert code == 0
    assert len(out.splitlines()) == 9

    code, out = run_cli(capsys, "hilbert", "--family", "freehedron", "--n", "1",
                        "--max-len", "2", "--residual", "--format", "json")
    assert code == 0
    for row in json.loads(out):
        validate(row, "hilbert_row.schema.json")

    code, out = run_cli(capsys, "hilbert", "--family", "freehedron", "--n", "1",
                        "--max-len", "3", "--no-repeats", "--format", "text")
    assert code == 0


@pytest.mark.parametrize("max_len", ["0", "-1"])
def test_residual_refuses_max_len_below_one(capsys, max_len):
    code = cli.main(["hilbert", "--n", "1", "--max-len", max_len, "--residual"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "word length truncation must be at least 1" in captured.err


def test_lattice_exports(capsys):
    code, out = run_cli(capsys, "lattice", "--family", "freehedron", "--n", "2")
    assert code == 0
    assert out.startswith("digraph face_lattice")
    assert out.count("[label=") == 11

    code, out = run_cli(capsys, "lattice", "--family", "freehedron", "--n", "2",
                        "--kind", "skeleton")
    assert code == 0
    assert out.count("->") == 5

    code, out = run_cli(capsys, "lattice", "--family", "associahedron", "--n", "4",
                        "--format", "json")
    assert code == 0
    validate(json.loads(out), "complex.schema.json")


def test_audit_chains(capsys):
    code, out = run_cli(capsys, "audit-chains", "--n", "2", "--format", "json")
    assert code == 0
    report = json.loads(out)
    validate(report, "audit_report.schema.json")
    assert report["ok"] is True and report["exhaustive"] is True
    assert report["chains_examined"] == 3

    code, out = run_cli(capsys, "audit-chains", "--n", "3", "--sample", "10",
                        "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["exhaustive"] is False
    assert report["chains_examined"] == 10


@pytest.mark.parametrize("sample", ["0", "-1"])
def test_audit_chains_rejects_empty_sample(capsys, sample):
    code = cli.main(["audit-chains", "--n", "3", "--sample", sample])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "sample must be at least 1" in captured.err


def test_sampled_audit_counts_against_the_chain_bound(capsys):
    code = cli.main(["audit-chains", "--n", "3", "--sample", "500001"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == (
        "resource bound: audited chains = 500001 exceeds the limit 500000\n"
    )


def test_usage_errors():
    with pytest.raises(SystemExit) as err:
        cli.main(["faces", "--family", "dodecahedron", "--n", "2"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        cli.main(["faces"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        cli.main(["no-such-command"])
    assert err.value.code == 2


@pytest.mark.parametrize("command", ["check-short", "audit-chains", "verify-supdim"])
def test_resource_errors(capsys, command):
    code = cli.main([command, "--n", "9"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "resource bound: freehedron n = 9 exceeds the limit 8\n"


@pytest.mark.parametrize("residual", [(), ("--residual",)], ids=["image", "residual"])
@pytest.mark.parametrize("color", ["11", "-1"])
def test_hilbert_rejects_unknown_color(capsys, color, residual):
    argv = ["hilbert", "--n", "2", "--max-len", "2", "--color", color, *residual]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"no color {color}" in captured.err


# One case per LIMITS row: (row, limit lowered to, value reached, argv).
# A limit of None keeps the row's own value; the work cap is lowered to
# one below the count the invocation reaches.
LIMIT_CASES = [
    ("freehedron n", None, 9, ("faces", "--n", "9")),
    ("cube dim", None, 9, ("faces", "--family", "cube", "--n", "9")),
    ("simplex dim", None, 10, ("faces", "--family", "simplex", "--n", "10")),
    ("associahedron leaves", None, 8, ("faces", "--family", "associahedron", "--n", "8")),
    ("hilbert max-len", None, 7, ("hilbert", "--n", "1", "--max-len", "7")),
    ("residual max-len", None, 6, ("hilbert", "--n", "1", "--max-len", "6", "--residual")),
    ("audited chains", 164, 165, ("audit-chains", "--n", "4")),
]


def test_every_limit_exits_3_one_past_its_bound(capsys, monkeypatch):
    assert {row for row, *_ in LIMIT_CASES} == set(LIMITS)
    for row, lowered, value, argv in LIMIT_CASES:
        if lowered is not None:
            monkeypatch.setitem(LIMITS, row, lowered)
        assert value == LIMITS[row] + 1
        code = cli.main(list(argv))
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == (
            f"resource bound: {row} = {value} exceeds the limit {LIMITS[row]}\n"
        )
    # at the count itself, the work cap lets the run finish
    monkeypatch.setitem(LIMITS, "audited chains", 165)
    assert cli.main(["audit-chains", "--n", "4"]) == 0
    capsys.readouterr()


def test_output_file(tmp_path, capsys):
    target = tmp_path / "faces.json"
    code, out = run_cli(capsys, "faces", "--family", "freehedron", "--n", "1",
                        "--format", "json", "--output", str(target))
    assert code == 0 and out == ""
    assert len(json.loads(target.read_text())) == 3
    # the mode a plain open(path, "w") gives, though the text goes through
    # a temporary file
    mask = os.umask(0)
    os.umask(mask)
    assert target.stat().st_mode & 0o777 == 0o666 & ~mask
    assert list(tmp_path.iterdir()) == [target]


def test_unwritable_output_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "faces.json"
    for fmt in ("text", "json"):
        code = cli.main(["faces", "--n", "1", "--format", fmt, "--output", str(target)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {target}: ")
        assert "Traceback" not in captured.err
        assert not target.exists()


def test_repeat_runs_are_byte_identical(capsys):
    commands = [
        ["faces", "--family", "freehedron", "--n", "3", "--format", "json"],
        ["check-short", "--family", "associahedron", "--n", "6", "--format", "json"],
        ["verify-supdim", "--n", "3", "--format", "csv"],
        ["hilbert", "--family", "freehedron", "--n", "2", "--max-len", "3",
         "--format", "csv"],
        ["lattice", "--family", "cube", "--n", "3", "--kind", "skeleton"],
        ["audit-chains", "--n", "3", "--format", "json"],
    ]
    for argv in commands:
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "freehedra", "faces", "--family", "freehedron",
         "--n", "1", "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert len(json.loads(result.stdout)) == 3


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _written(obj) -> str:
    return "".join(cli._json_pieces(obj))


texts = st.text(st.characters() | st.sampled_from('"\\/\n\t\x00\x1f\x7fé\u2028\U0001f600'))
ints = st.integers() | st.integers(-(10**40), 10**40)
int_lists = st.lists(ints, max_size=4)
json_trees = st.recursive(
    st.none() | st.booleans() | ints | st.floats() | texts | int_lists
    | st.lists(int_lists, max_size=4) | st.lists(texts, max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(texts, inner, max_size=4),
    max_leaves=30,
)


@given(json_trees)
def test_json_writer_matches_json_dumps(obj):
    assert _written(obj) == _dumps(obj)


@pytest.mark.parametrize(
    "obj",
    [
        [], {}, [[]], [[], [1]], [[1], []], [True, 1], [1, True], [[1], [True]],
        [[1, 2], [3, 4.0]], ["a", 1], [1.5, float("nan"), float("-inf")],
        (1, 2), {"t": ((1, 2), (3,))}, {1: "a", 2: [1]}, {"k": {3: None}},
        list(range(-1500, 1500)),
        [[i, -i, 2**70] for i in range(2500)] + [[1], [2, 3, 4]],
        {"rows": [{"word": [i], "label": f"é{i}"} for i in range(1100)], "top": 3},
        {f"key {i:05d}": [i, [i]] for i in range(1200)},
        [[str(i)] * 2 for i in range(1100)],
    ],
    ids=lambda obj: type(obj).__name__ + str(len(obj)),
)
def test_json_writer_edge_cases(obj):
    # bools inside int lists, non-str keys, tuples, floats, and containers
    # longer than the writer's slice, which it streams entry by entry
    assert _written(obj) == _dumps(obj)


@pytest.mark.parametrize(
    "argv",
    [
        ("faces", "--n", "3", "--format", "json"),
        ("lattice", "--family", "cube", "--n", "3", "--format", "json"),
        ("check-short", "--family", "associahedron", "--n", "6", "--format", "json"),
        ("hilbert", "--n", "2", "--max-len", "3", "--residual", "--format", "json"),
        ("verify-supdim", "--n", "3", "--format", "csv"),
        ("lattice", "--n", "2"),
    ],
)
def test_output_file_bytes_equal_stdout_bytes(tmp_path, capsysbinary, argv):
    code = cli.main(list(argv))
    printed = capsysbinary.readouterr().out
    target = tmp_path / "out"
    assert cli.main([*argv, "--output", str(target)]) == code
    assert capsysbinary.readouterr().out == b""
    assert target.read_bytes() == printed


# an address-space cap 64 MB above the child's own size, set in the child
# only and after its imports
_CAPPED = (
    "import os, resource, sys\n"
    "from freehedra import cli\n"
    "vsz = int(open('/proc/self/statm').read().split()[0]) * os.sysconf('SC_PAGE_SIZE')\n"
    "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
    "cap = vsz + 64 * 2**20\n"
    "resource.setrlimit(resource.RLIMIT_AS, (cap if hard < 0 else min(cap, hard), hard))\n"
    "sys.exit(cli.main(sys.argv[1:]))\n"
)


def _run_capped(argv):
    return subprocess.run(
        [sys.executable, "-c", _CAPPED, *argv], capture_output=True, text=True, timeout=120
    )


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc and needs RLIMIT_AS")
def test_memory_exhaustion_exits_3():
    # under the cap the image of the 8-cube's top face (color 6560) is a
    # MemoryError; the first color is computed before anything is written
    result = _run_capped(["hilbert", "--family", "cube", "--n", "8", "--max-len", "3",
                          "--color", "6560", "--format", "json"])
    assert result.returncode == 3
    assert result.stdout == ""
    assert result.stderr == "resource bound: out of memory\n"


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc and needs RLIMIT_AS")
def test_memory_exhaustion_after_output_began(tmp_path, capsys):
    # every color of freehedron 4 at max-len 6 without repeats: the first
    # colors' rows fill blocks of stdout before a later color exhausts the cap
    argv = ["hilbert", "--n", "4", "--max-len", "6", "--no-repeats", "--format", "csv"]
    result = _run_capped(argv)
    assert result.returncode == 3
    assert result.stderr == "resource bound: out of memory\n"
    lines = result.stdout.split("\n")[:-1]
    written = [int(line.split(",")[0]) for line in lines[1:]]
    assert len(set(written)) > 1
    # stdout is a prefix of the full output: its whole lines are the
    # header and the rows of colors 0, 1, ... as each color prints them
    expected = []
    for cid in range(written[-1] + 1):
        code, out = run_cli(capsys, *argv, "--color", str(cid))
        expected.extend(out.split("\n")[0 if cid == 0 else 1 : -1])
    assert lines == expected[: len(lines)]
    # a file given by --output is left as it was, with no temporary file
    target = tmp_path / "rows.csv"
    target.write_text("earlier\n")
    result = _run_capped([*argv, "--output", str(target)])
    assert result.returncode == 3
    assert result.stdout == ""
    assert result.stderr == "resource bound: out of memory\n"
    assert target.read_text() == "earlier\n"
    assert list(tmp_path.iterdir()) == [target]
