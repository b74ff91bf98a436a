"""The helper scripts under ``tools/``."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ci_console_block_extracts_the_run_block():
    block = _load("ci_console_block").console_block()
    assert len(block) >= 30
    assert not any("pip" in line for line in block)
    assert block[0].startswith("lineparadox ")  # dedented, the install line gone
