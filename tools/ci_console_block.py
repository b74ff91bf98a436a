"""Run the CI workflow's "Installed console script" block against ``src/``.

The block is read from ``.github/workflows/tests.yml`` without its
``pip install`` line and run under ``bash -e``, with ``RUNNER_TEMP`` set to
a temporary directory and a ``lineparadox`` shim first on ``PATH`` that runs
``python -m lineparadox`` from this checkout's ``src/``.  The script prints
how many lines ran, the exit code and, on failure, the failing line, and
exits with the block's code.  Stdlib only:

    python tools/ci_console_block.py
"""

from __future__ import annotations

import os
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
STEP = "Installed console script"


def console_block() -> list[str]:
    """The lines of the step's ``run: |`` block, dedented, without the
    ``pip install`` line."""
    lines = WORKFLOW.read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.strip() == f"- name: {STEP}")
    run = next(i for i in range(start + 1, len(lines)) if lines[i].strip() == "run: |")
    key_indent = len(lines[run]) - len(lines[run].lstrip())
    block = []
    for line in lines[run + 1 :]:
        if line.strip() and len(line) - len(line.lstrip()) <= key_indent:
            break
        block.append(line)
    indent = min(len(line) - len(line.lstrip()) for line in block if line.strip())
    return [line[indent:] for line in block if "pip install" not in line]


def main() -> int:
    block = console_block()
    with tempfile.TemporaryDirectory(prefix="ci-console-") as tmp:
        bin_dir = Path(tmp, "bin")
        bin_dir.mkdir()
        shim = bin_dir / "lineparadox"
        shim.write_text(
            "#!/bin/sh\n"
            f"PYTHONPATH={shlex.quote(str(ROOT / 'src'))}"
            '${PYTHONPATH:+:$PYTHONPATH}\n'
            "export PYTHONPATH\n"
            f'exec {shlex.quote(sys.executable)} -m lineparadox "$@"\n'
        )
        shim.chmod(0o755)
        runner_temp = Path(tmp, "runner")
        runner_temp.mkdir()
        failed_at = Path(tmp, "failed_at")
        # The trap takes the script's first line, so block line n is line n + 1.
        script = Path(tmp, "block.sh")
        script.write_text(
            f"trap 'echo $LINENO > {shlex.quote(str(failed_at))}' ERR\n" + "\n".join(block) + "\n"
        )
        env = dict(os.environ, RUNNER_TEMP=str(runner_temp))
        env["PATH"] = f"{bin_dir}{os.pathsep}{env.get('PATH', '')}"
        began = time.perf_counter()
        code = subprocess.run(["bash", "-e", str(script)], env=env, cwd=ROOT).returncode
        elapsed = time.perf_counter() - began
        print(f"{len(block)} lines, exit {code}, {elapsed:.1f} s")
        if code and failed_at.exists():
            n = int(failed_at.read_text()) - 1
            print(f"failed at line {n}: {block[n - 1]}")
    return code


if __name__ == "__main__":
    sys.exit(main())
