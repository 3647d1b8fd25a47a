"""The README's Python API example runs and gives the values its comments state."""

import pathlib
import re

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
