"""Every demo script runs to the end, writing only into its working
directory: no file under ``demos/`` and no bytecode under ``src/catwalk``."""

import os
import pathlib
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PACKAGE = ROOT / "src" / "catwalk"
# the files each demo writes into its working directory
WRITES = {"enumeration_gallery.py": {"gallery_red.svg", "gallery_sw.svg"}}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    before = {f.name: f.stat().st_mtime_ns for f in demo.parent.iterdir()}
    caches = _caches()
    done = subprocess.run(
        [sys.executable, "-B", str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert {f.name: f.stat().st_mtime_ns for f in demo.parent.iterdir()} == before
    assert _caches() == caches
    written = WRITES.get(demo.name, set())
    assert {f.name for f in tmp_path.iterdir()} == written
    for name in written:
        root = ET.parse(tmp_path / name).getroot()
        assert root.tag.rpartition("}")[2] == "svg"


def _caches() -> dict:
    """Every file in a ``__pycache__`` under ``src/catwalk``, with its mtime."""
    return {str(f): f.stat().st_mtime_ns for f in PACKAGE.glob("**/__pycache__/*")}


def test_the_tests_write_no_bytecode():
    # conftest sets this before it imports catwalk, so that no import made
    # in the test process caches bytecode under src/
    assert sys.dont_write_bytecode
