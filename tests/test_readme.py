"""The README's examples: "Library use" runs as written and converges, the
complete config example holds only keys and values the runner accepts, and
the README names every config key and command-line flag the runner takes."""

import re
from pathlib import Path

import pytest

from pnpml.cli import (
    CONFIG_KEYS,
    RunConfig,
    _solver_options,
    geometry_from_config,
    main,
    physics_from_config,
)

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


def test_every_config_key_and_flag_is_named(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert {"--tol", "--precond", "--out-dir", "--threads"} <= flags
    text = README.read_text()
    missing = [name for name in sorted(CONFIG_KEYS | flags)
               if not re.search(rf"(?<![\w.-]){re.escape(name)}(?![\w-])", text)]
    assert not missing
