"""The benchmark's span tracer still finds every package name it wraps.

``perfbench/spans.py`` traces a run by replacing module names of the
package from outside, among them names the package keeps only for it, such
as ``harness.transmit`` and ``harness.decode``.  Installing the tracer in a
child interpreter fails here if one of them is renamed or deleted.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INSTALL = """
import sys
sys.path[:0] = [{src!r}, {perfbench!r}]
import softgrand.cli
import spans
assert softgrand.cli.__file__.startswith({src!r}), softgrand.cli.__file__
spans.Tracer().install(softgrand.cli)
"""


def test_tracer_installs_on_the_package():
    code = INSTALL.format(src=str(ROOT / "src"), perfbench=str(ROOT / "perfbench"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
