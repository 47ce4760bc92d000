"""The demos run to the end against the current package.

Every demo runs in one child interpreter, each through ``runpy`` as
``__main__``, in a temporary working directory that takes the files they
write.
"""

import os
import subprocess
import sys
from pathlib import Path

import softgrand

DEMOS = Path(__file__).resolve().parent.parent / "demos"
FAST = ["01_code_construction.py", "02_channel_markers.py", "03_query_order.py",
        "04_confidence_trace.py", "05_wiretap_operating_points.py",
        "06_error_query_distribution.py"]

RUNNER = """\
import runpy, sys
for path in sys.argv[1:]:
    runpy.run_path(path, run_name="__main__")
    print("finished", path, flush=True)
"""


def test_fast_demos_finish(tmp_path):
    src = str(Path(softgrand.__file__).resolve().parent.parent)
    env = dict(os.environ, MPLBACKEND="Agg",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    paths = [str(DEMOS / name) for name in FAST]
    proc = subprocess.run([sys.executable, "-c", RUNNER, *paths], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    finished = [line.split(" ", 1)[1] for line in proc.stdout.splitlines()
                if line.startswith("finished ")]
    assert finished == paths
