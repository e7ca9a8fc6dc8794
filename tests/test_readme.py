"""The README's examples: "Library use" runs as written and converges, and
the complete config example holds only keys and values the runner accepts."""

import re
from pathlib import Path

from pnpml.cli import RunConfig, _solver_options, geometry_from_config, physics_from_config

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


def test_complete_config_example_is_accepted():
    text = README.read_text()
    section = text[text.index("A complete example"):]
    cfg = RunConfig.parse(re.search(r"```ini\n(.*?)```", section, re.S).group(1))
    cfg.check_keys()
    assert _solver_options(cfg) == (1e-7, 20000, "block_spatial")
    geometry_from_config(cfg)
    physics_from_config(cfg)
