"""Packaging metadata: one version, kept in the package."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ecdensity

ROOT = Path(__file__).parents[1]


def test_pyproject_reads_the_package_version():
    tomllib = pytest.importorskip("tomllib")  # standard library from 3.11
    meta = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert "version" not in meta["project"] and "version" in meta["project"]["dynamic"]
    assert meta["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "ecdensity.__version__"}
    # setuptools reads the attribute without importing the package when it is
    # a plain string assignment in __init__.py
    tree = ast.parse((ROOT / "src" / "ecdensity" / "__init__.py").read_text())
    found = [node.value.value for node in tree.body
             if isinstance(node, ast.Assign) and len(node.targets) == 1
             and getattr(node.targets[0], "id", None) == "__version__"
             and isinstance(node.value, ast.Constant)]
    assert found == [ecdensity.__version__] and isinstance(ecdensity.__version__, str)


def test_import_reads_no_packaging_metadata():
    # the version is a literal, so importing the package parses no TOML and
    # reads no installed metadata
    code = ("import sys, ecdensity\n"
            "print(sorted(m for m in ('tomllib', 'importlib.metadata') if m in sys.modules))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"
