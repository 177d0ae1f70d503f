"""The benchmark's tracer still finds every catwalk name it wraps.

``bench/tracer.py`` patches spans onto catwalk's functions and methods by
name from outside the package, so renaming or deleting one of them breaks
the benchmark without breaking any catwalk test; this test catches that.
"""

import os
import pathlib
import subprocess
import sys

import catwalk

ROOT = pathlib.Path(__file__).resolve().parents[1]

SCRIPT = """
import tracer
from catwalk import dp, model

spans = tracer.install()
dp.count_table(model.DYCK, 3)  # the table counter reads CountTable.final_counts
assert spans.summary()["counters"]["dp.table_entries"] > 0
"""


def test_tracer_installs_on_this_package():
    src = pathlib.Path(catwalk.__file__).parents[1]
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": os.pathsep.join([str(src), str(ROOT / "bench")])},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
