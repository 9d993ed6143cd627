"""The demos import only names that exist; the quick ones also run."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demo_imports_resolve():
    assert DEMOS
    missing = []
    for path in DEMOS:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "ecdensity":
                mod = importlib.import_module(node.module)
                missing += [f"{path.name}: {node.module}.{a.name}"
                            for a in node.names if not hasattr(mod, a.name)]
    assert not missing, missing


def test_character_demo_runs():
    # the quick demos also run, which catches a removed keyword argument the
    # import check cannot see; the slower demos stay import-checked only
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for name in ("01_density_sweep.py", "02_dual_paths.py", "04_characters.py",
                 "08_zero_crosscheck.py"):
        run = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                             env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, f"{name}: {run.stderr}"
        assert run.stdout.strip(), name
