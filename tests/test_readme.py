"""The README's "Library use" example runs as written and converges."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_use_block() -> str:
    text = README.read_text()
    section = text[text.index("## Library use"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_example_converges():
    scope = {}
    exec(compile(_library_use_block(), "README.md (Library use)", "exec"), scope)
    report = scope["report"]
    assert report.converged
    assert 0 < report.iterations < 100
    assert report.final_residual <= 1e-7
    assert scope["field"].even.shape == (scope["mesh"].n_vertices, scope["basis"].n_plus)
