"""The README's Python API example runs and gives the values its comments
state, and the package exports exactly the names pinned here."""

import pathlib
import re
import types

import freehedra

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    ns: dict = {}
    exec(compile(blocks[0], "README.md", "exec"), ns)
    assert len(ns["closure"](ns["top"])) == 11
    assert ns["word_of"](ns["min_vertex"](ns["top"])) == "00"
    assert ns["cert"].short
    assert ns["report"].ok
    assert len(ns["c"].vertices(ns["c"].top)) == 28


def test_package_exports():
    exports = sorted(
        name
        for name, value in vars(freehedra).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert exports == [
        "AuditReport", "Chain", "DirectedReport", "EncodingError", "Face",
        "FaceComplex", "HilbertImage", "LocatorError", "ResourceLimitError",
        "ShortnessCertificate", "SpaceLocator", "SupdimReport",
        "Triple", "associahedron_complex", "audit_connected_chains", "boundary",
        "check_supdim", "closure", "count_faces", "cube_complex", "dimension",
        "enumerate_faces", "excess", "family_complex", "freehedron_D",
        "freehedron_complex", "hilbert_image", "image_rows", "is_chain",
        "is_short", "iter_chains", "label_of", "leaf_count",
        "least_violating_chain", "max_vertex", "merge", "min_vertex",
        "move_left", "move_right", "push_apart",
        "selfduality_residual", "simplex_complex", "space_count",
        "validate_word", "word_of",
    ]
