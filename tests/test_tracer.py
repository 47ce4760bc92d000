"""The benchmark's span tracer still finds every package name it wraps.

``perfbench/spans.py`` traces a run by replacing module names of the
package from outside, among them names the package keeps only for it, such
as ``harness.transmit`` and ``harness.decode``.  Installing the tracer in a
child interpreter fails here if one of them is renamed or deleted.  It also
times order-table growth by replacing each table's ``extend_to`` instance
attribute, so a table must grow only through ``self.extend_to``: a traced
fig1 run checks that the growth spans add up to the patterns the tables
hold.
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
tracer = spans.Tracer()
tracer.install(softgrand.cli)
"""

FIG1 = """
import contextlib, io, tempfile
with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
    rc = softgrand.cli.main(["--mode", "fig1", "--code", "rlc:128:116:1", "--ebn0", "0",
                             "--trials", "20", "--seed", "1", "--out", out])
assert rc == 0, rc
grown = [s[5] for s in tracer.spans if s[2] == "patterns.extend"]
counts = [t.count for t in tracer.tables.values()]
assert grown and sum(grown) == sum(counts) > 0, (grown, counts)
layers = spans.layer_metrics(tracer, 0)
assert layers["patterns.table_build_s"] > 0, layers
assert layers["patterns.table_patterns"] == max(counts), layers
"""


def _run(code):
    code = code.format(src=str(ROOT / "src"), perfbench=str(ROOT / "perfbench"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_tracer_installs_on_the_package():
    _run(INSTALL)


def test_traced_fig1_times_every_table_growth():
    _run(INSTALL + FIG1)
