"""The package boundary: src/teelab holds what the CLI runs, and the dense
oracles live with the tests."""

import os
import subprocess
import sys
from pathlib import Path

import teelab

PACKAGE = Path(teelab.__file__).resolve().parent

# The top-level modules of src/teelab.  A module joins this list only if the
# CLI runs it; a test-only reference path belongs under tests/.
MODULES = {"audit", "cli", "errors", "fusion", "gfp", "ring", "stabilizer"}


def test_cli_import_loads_exactly_the_package_modules():
    code = "import sys, teelab.cli\nprint(' '.join(m for m in sys.modules if m.startswith('teelab.')))\n"
    src = str(PACKAGE.parent)
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    loaded = {name.removeprefix("teelab.") for name in out.stdout.split()}
    loaded = {name for name in loaded if name != "data" and not name.startswith("data.")}
    files = {path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__"}
    assert files == MODULES
    assert loaded == files
