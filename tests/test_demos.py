"""Every demo script runs to the end, writing only into its working directory."""

import os
import pathlib
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# the files each demo writes into its working directory
WRITES = {"enumeration_gallery.py": {"gallery_red.svg", "gallery_sw.svg"}}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    before = {f.name: f.stat().st_mtime_ns for f in demo.parent.iterdir()}
    done = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert {f.name: f.stat().st_mtime_ns for f in demo.parent.iterdir()} == before
    written = WRITES.get(demo.name, set())
    assert {f.name for f in tmp_path.iterdir()} == written
    for name in written:
        root = ET.parse(tmp_path / name).getroot()
        assert root.tag.rpartition("}")[2] == "svg"
