#!/usr/bin/env python3
"""softgrand benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-digests

Run from the repository root.  Each run times whole rounds of one CLI
invocation, ``softgrand.cli.main(argv)``, called in this process, until
``--seconds`` have passed, and reports medians over the rounds.  Before
every round the package is imported afresh, so its lazily grown pattern
tables start empty as they do in a new ``softgrand`` process.  Set-up time
is measured in separate fresh interpreters (probe.py).  Every timing is
scaled to the machine's reference speed with a calibration sample taken
around it (calib.py).  With ``--trace 1``
traced and untraced rounds alternate, and the per-layer metrics come from
the traced ones.  The last line of output is one JSON object; see
README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy
import scipy

import calib
import checks
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
TRACE_OUT = HERE / "trace"
DIGESTS = HERE / "digests.json"

CODE = "rlc:128:116:1"
PROBES = 4  # timed set-up probes per run, after one untimed warm-up probe
DIGEST_SEEDS = range(32)  # seeds recorded in digests.json

# The CLI's calls that run the trials; a round's clocks start at the first.
TRIAL_ENTRY_POINTS = ("run_sweep", "collect_error_query_distribution")

# CLI argv of each workload, without --seed and --out; README.md says why
# each one is here and which layer it stresses.
WORKLOADS = {
    "shallow_sweep": ["--mode", "sweep", "--code", CODE, "--tau", "none,0,1,2",
                      "--ebn0", "6:1:8", "--trials", "1500", "--trials-csv"],
    "deep_fig1": ["--mode", "fig1", "--code", CODE, "--ebn0", "0", "--trials", "1500"],
    "wiretap_pool": ["--mode", "sweep", "--code", CODE, "--tau", "0,2",
                     "--ebn0", "1.115278,1.488889", "--trials", "1000", "--workers", "2"],
    "grand_sweep": ["--mode", "sweep", "--code", CODE, "--decoder", "grand",
                    "--tau", "none,2", "--ebn0", "3:1:6", "--trials", "500"],
}


def cli_argv(name, seed, out, workers=None):
    argv = WORKLOADS[name] + ["--seed", str(seed), "--out", str(out)]
    if workers is not None and "--workers" in argv:
        argv[argv.index("--workers") + 1] = str(workers)
    return argv


def is_pooled(argv):
    return "--workers" in argv and int(argv[argv.index("--workers") + 1]) > 1


def fresh_cli():
    """Import softgrand.cli from the checkout as a new process would."""
    for mod in [m for m in sys.modules if m.split(".")[0] == "softgrand"]:
        del sys.modules[mod]
    gc.collect()
    cli = importlib.import_module("softgrand.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: imported softgrand from {cli.__file__}, not {SRC}")
    return cli


def _cpu_s():
    """CPU time of this process and of its reaped children (pool workers)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _start_clocks_at_first_trial(cli, clocks):
    """Make the CLI's first trial-running call append (wall, cpu) to clocks."""
    for attr in TRIAL_ENTRY_POINTS:
        def timed(*args, _fn=getattr(cli, attr), **kwargs):
            if not clocks:
                clocks.append((time.perf_counter(), _cpu_s()))
            return _fn(*args, **kwargs)
        setattr(cli, attr, timed)


def run_round(argv, tracer=None):
    """One CLI invocation; returns (exit code, wall s, cpu s of process + pool).

    Both clocks run from the first trial to the return of ``main``, after the
    last output file is written; parsing and the code build are in setup_s.
    An exception or exit inside ``main`` counts as a failed round (code 1).
    """
    cli = fresh_cli()
    if tracer is not None:
        tracer.install(cli)
    clocks = []
    _start_clocks_at_first_trial(cli, clocks)
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            rc = cli.main(list(argv))
        except (Exception, SystemExit):
            traceback.print_exc()
            rc = 1
        wall, cpu = time.perf_counter(), _cpu_s()
    if rc == 0 and not clocks:
        print("error: the round ran no trials", file=sys.stderr)
        rc = 1
    if rc != 0:
        return rc, 0.0, 0.0
    return rc, wall - clocks[0][0], cpu - clocks[0][1]


def probe_setup(argv):
    """Time import + parse + code build in fresh interpreters; one warm-up first.

    Each probe's times are scaled to reference speed by the calibration
    sample it takes after them.
    """
    samples = []
    for i in range(PROBES + 1):
        proc = subprocess.run([sys.executable, str(HERE / "probe.py"), str(SRC)] + argv,
                              capture_output=True, text=True, timeout=120, check=True)
        if i:
            probe = json.loads(proc.stdout.strip().splitlines()[-1])
            factor = calib.speed(probe["sample_s"], probe["sample_s"])
            samples.append({k: v * factor for k, v in probe.items() if k != "sample_s"})
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def at_reference_speed(layer, factor):
    """Scale a round's per-layer times (and rates) by its speed factor."""
    scaled = {}
    for key, value in layer.items():
        if key.endswith("_per_s"):
            value = value / factor
        elif key.endswith(("_s", "_us")):
            value = value * factor
        scaled[key] = value
    return scaled


def outcomes_per_round(out_dir, argv):
    """(policy, trial) outcomes one round produces, read from its outputs."""
    if checks.flag(argv, "--mode") == "fig1":
        return checks.read_sidecar(out_dir / "fig1.csv")["fig1"]["trials"]
    return sum(int(r["trials"]) for r in checks.read_csv(out_dir / "sweep.csv"))


def base_trials(argv):
    if checks.flag(argv, "--mode") == "fig1":
        return 0
    points = checks.parse_points(checks.flag(argv, "--ebn0"))
    return int(checks.flag(argv, "--trials")) * len(points)


def load_digests():
    if DIGESTS.is_file():
        return json.loads(DIGESTS.read_text())
    return {}


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_workload(name, seed, seconds, trace):
    end_to_end, per_layer = declared_metrics()
    units = per_layer if trace else end_to_end
    out_dir = OUT / name
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    argv = cli_argv(name, seed, out_dir)
    problems = []

    setup = probe_setup(argv)

    reference = None
    if is_pooled(argv):
        ref_dir = OUT / f"{name}-workers1"
        shutil.rmtree(ref_dir, ignore_errors=True)
        ref_argv = cli_argv(name, seed, ref_dir, workers=1)
        if run_round(ref_argv)[0] == 0:
            reference = checks.output_digests(ref_dir)
        else:
            problems.append(f"reference run softgrand {' '.join(ref_argv)} failed")

    # plain: (wall, cpu, speed factor) of each untraced round, as measured
    plain, traced, layers, last_spans = [], [], [], []
    attempted = failed = 0
    first = outcomes = None
    t_start = time.perf_counter()
    before = calib.sample()
    while time.perf_counter() - t_start < seconds or attempted < 1 + trace:
        tracer = spans.Tracer() if trace and len(traced) < len(plain) else None
        rc, wall, cpu = run_round(argv, tracer)
        after = calib.sample()
        factor, before = calib.speed(before, after), after
        attempted += 1
        if rc != 0:
            failed += 1
            continue
        digests = checks.output_digests(out_dir)
        if first is None:
            first = digests
            outcomes = outcomes_per_round(out_dir, argv)
        elif digests != first:
            problems.append(f"round {attempted} wrote different outputs from the first round")
        if tracer is None:
            plain.append((wall, cpu, factor))
        else:
            traced.append(wall * factor)
            layers.append(at_reference_speed(spans.layer_metrics(tracer, base_trials(argv)),
                                             factor))
            last_spans = tracer.spans
    ru_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ru_kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    metrics = {}
    if not plain or (trace and not traced):
        problems.append(f"no round of softgrand {' '.join(argv)} succeeded")
        digest_note = "not compared, no round succeeded"
    else:
        if reference is not None and first != reference:
            problems.append("outputs with --workers 2 differ from those with --workers 1")
        stored = load_digests().get(name, {}).get(str(seed))
        if stored is None:
            digest_note = f"none recorded for seed {seed}"
        else:
            digest_note = f"compared with the recorded digests for seed {seed}"
            if first != stored:
                problems.append(f"outputs differ from the recorded digests for seed {seed}")
        try:
            checks.check_outputs(out_dir, argv)
        except checks.CheckError as e:
            problems.append(str(e))
        except Exception as e:
            traceback.print_exc()
            problems.append(f"output checks raised {type(e).__name__}: {e}")

        wall = statistics.median(w * f for w, _, f in plain)
        if not trace:
            metrics = {
                "wall_s": wall,
                "setup_s": setup["setup_s"],
                "outcomes_per_s": outcomes / wall,
                "cpu_s": statistics.median(c * f for _, c, f in plain),
                "peak_rss_mb": max(ru_self, ru_kids) * 1024 / 1e6,
            }
        else:
            for key in layers[0]:
                values = [lm[key] for lm in layers]
                if isinstance(values[0], int):
                    if len(set(values)) != 1:
                        problems.append(f"count {key} differs between identical rounds: "
                                        f"{values}")
                    metrics[key] = values[0]
                else:
                    metrics[key] = statistics.median(values)
            metrics["cli.import_s"] = setup["import_s"]
            metrics["codes.build_s"] = setup["build_s"]
            metrics["trace.overhead_s"] = statistics.median(traced) - wall
            TRACE_OUT.mkdir(exist_ok=True)
            spans.write_spans(TRACE_OUT / f"{name}.csv", last_spans)
        if set(metrics) != set(units):
            raise SystemExit(f"error: metrics {sorted(metrics)} != declared {sorted(units)}")

    print(f"env: nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
          f"numpy={numpy.__version__} scipy={scipy.__version__}")
    print(f"workload {name} seed {seed}: softgrand {' '.join(argv)}".replace(str(ROOT) + "/", ""))
    print(f"rounds: {len(plain)} untraced, {len(traced)} traced; "
          f"{outcomes} outcomes per round")
    if plain:
        print(f"as measured: wall_s {statistics.median(w for w, _, _ in plain):.6g} s, "
              f"cpu_s {statistics.median(c for _, c, _ in plain):.6g} s; "
              f"speed factor to reference {statistics.median(f for _, _, f in plain):.4f} "
              f"(median of the untraced rounds)")
    print(f"digest: {digest_note}")
    for key in sorted(metrics):
        print(f"  {key:28s} {metrics[key]:.6g} {units[key]}")
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(f"attempted {attempted} failed {failed} correct {not problems}")
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if not problems else 1


def run_all(args):
    """Run every workload in its own process, so peak memory stays separate."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed",
                               str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def write_digests():
    """Record CSV digests of direct CLI runs; pooled workloads run with --workers 1."""
    table = {}
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for name in WORKLOADS:
        for seed in DIGEST_SEEDS:
            out_dir = OUT / "digests" / name
            shutil.rmtree(out_dir, ignore_errors=True)
            argv = cli_argv(name, seed, out_dir, workers=1)
            subprocess.run([sys.executable, "-m", "softgrand.cli"] + argv, env=env,
                           check=True, capture_output=True, timeout=600)
            table.setdefault(name, {})[str(seed)] = checks.output_digests(out_dir)
            print(f"{name} seed {seed}: {table[name][str(seed)]}")
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=tuple(WORKLOADS) + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-digests", action="store_true")
    args = p.parse_args()

    if not (SRC / "softgrand" / "__init__.py").is_file():
        print(f"error: no softgrand package under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.write_digests:
        return write_digests()
    if args.workload is None:
        p.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
