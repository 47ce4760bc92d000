"""Set-up probe: one fresh import of softgrand, config parse and code build.

Usage: python3 perfbench/probe.py SRC_DIR CLI_ARG...

Prints one JSON line with import_s, build_s and setup_s, as measured, and
sample_s, the time of the calibration sample (calib.py) taken afterwards in
the same process, which the benchmark uses to scale the three to reference
speed.  The clock starts after interpreter start-up, so only the package's
own set-up is timed.
"""

import json
import sys
import time

src, argv = sys.argv[1], sys.argv[2:]
sys.path.insert(0, src)

t0 = time.perf_counter()
import softgrand.cli as cli  # noqa: E402
t1 = time.perf_counter()
config = cli.parse_and_validate(argv)
t2 = time.perf_counter()
cli.make_rlc(config.n, config.k, config.code_seed)
t3 = time.perf_counter()

import calib  # noqa: E402

calib.sample()  # warm-up: first calls of the numpy functions it uses
print(json.dumps({"import_s": t1 - t0, "build_s": t3 - t2, "setup_s": t3 - t0,
                  "sample_s": calib.sample()}))
