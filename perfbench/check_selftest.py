#!/usr/bin/env python3
"""Show that every output check passes on real outputs and fails on corrupt ones.

    python3 perfbench/check_selftest.py

Runs each workload once through the CLI with seed 1, runs all of its
checks on the clean outputs, then corrupts one field at a time in memory
(a flipped outcome, a shifted llr_bits, a moved histogram count, ...) and
requires the check that guards that property to reject it.  Exits 1 if any
clean output fails or any corruption goes unnoticed.
"""

from __future__ import annotations

import contextlib
import copy
import io
import sys

import checks
import run

SEED = 1


def produce(name):
    out_dir = run.OUT / "selftest" / name
    argv = run.cli_argv(name, SEED, out_dir)
    cli = run.fresh_cli()
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(list(argv)) != 0:
            raise SystemExit(f"error: softgrand {' '.join(argv)} failed")
    return out_dir, argv


def first(rows, **want):
    for i, r in enumerate(rows):
        if all(r[k] == v if not callable(v) else v(r[k]) for k, v in want.items()):
            return i
    raise LookupError(f"no row with {want}")


def corrupted(rows, index, **changes):
    rows = copy.deepcopy(rows)
    rows[index].update(changes)
    return rows


def cases():
    """Yield (label, check, args) for each corruption; the check must raise."""
    out_dir, argv = produce("shallow_sweep")
    checks.check_outputs(out_dir, argv)
    sweep = checks.read_csv(out_dir / "sweep.csv")
    trials = checks.read_csv(out_dir / "trials.csv")
    sidecar = checks.read_sidecar(out_dir / "sweep.csv")

    i = first(sweep, policy="tau=none")
    yield ("cell counts do not sum to trials", checks.check_sweep_cells,
           (corrupted(sweep, i, n_abandoned=str(int(sweep[i]["n_abandoned"]) + 1)), argv))
    trials_i, abandoned_i = int(sweep[i]["trials"]), int(sweep[i]["n_abandoned"])
    tripled = corrupted(sweep, i, trials=str(3 * trials_i),
                        n_abandoned=str(2 * trials_i + abandoned_i))
    yield ("trials not base x 2^j", checks.check_sweep_cells, (tripled, argv))
    yield ("flipped outcome against sweep.csv", checks.check_trials_match_sweep,
           (corrupted(trials, first(trials, outcome="correct"), outcome="incorrect"), sweep))
    j = first(trials, policy="tau=none", q="1", outcome="correct")
    yield ("flipped tau=none outcome at q=1", checks.check_recompute,
           (corrupted(trials, j, outcome="incorrect", true_noise_found="false"), argv))
    yield ("llr_bits shifted by 1e-6", checks.check_recompute,
           (corrupted(trials, j, llr_bits=repr(float(trials[j]["llr_bits"]) + 1e-6)), argv))
    yield ("q moved off 1 on a code word", checks.check_recompute,
           (corrupted(trials, j, q="2"), argv))
    k = first(trials, policy="tau=1", outcome="correct")
    yield ("paired decode with another llr_bits", checks.check_paired,
           (corrupted(trials, k, llr_bits=repr(float(trials[k]["llr_bits"]) + 0.5)), argv))
    yield ("paired correct turned incorrect", checks.check_paired,
           (corrupted(trials, k, outcome="incorrect"), argv))
    yield ("decode below tau", checks.check_paired,
           (corrupted(trials, k, llr_bits="0.5"), argv))
    yield ("larger tau decodes where a smaller one abandoned", checks.check_paired,
           (corrupted(trials, first(trials, policy="tau=0", outcome="correct"),
                      outcome="abandoned", llr_bits="-1"), argv))
    yield ("wrong parity-check fingerprint", checks.check_code,
           (dict(sidecar, parity_check_sha256="0" * 64), checks.flag(argv, "--code")))

    out_dir, argv = produce("grand_sweep")
    checks.check_outputs(out_dir, argv)
    sweep = checks.read_csv(out_dir / "sweep.csv")
    c = first(sweep, policy="tau=2",
              n_correct=lambda v: int(v) >= checks.CAL_MIN_EVENTS)
    yield ("calibration below 2^tau/(2^tau+1) - 3 SE", checks.check_calibration,
           (corrupted(sweep, c, success_cond="0.6"),))

    out_dir, argv = produce("deep_fig1")
    checks.check_outputs(out_dir, argv)
    rows = checks.read_csv(out_dir / "fig1.csv")
    sidecar = checks.read_sidecar(out_dir / "fig1.csv")
    b = max(range(len(rows)), key=lambda i: int(rows[i]["count"]))
    moved = int(rows[b]["count"]) // 2
    halved = corrupted(rows, b, count=str(int(rows[b]["count"]) - moved))
    halved[b - 1]["count"] = str(int(rows[b - 1]["count"]) + moved)
    yield ("half the fullest octave moved down a bin", checks.check_fig1,
           (halved, sidecar, argv))
    shifted = copy.deepcopy(rows)
    for lower, upper in zip(shifted, rows[1:]):
        lower["count"] = upper["count"]
    shifted[-1]["count"] = rows[0]["count"]
    yield ("every count one octave low", checks.check_fig1, (shifted, sidecar, argv))
    yield ("one sample lost", checks.check_fig1,
           (corrupted(rows, b, count=str(int(rows[b]["count"]) - 1)), sidecar, argv))


def main():
    sys.path.insert(0, str(run.SRC))
    missed = 0
    for label, check, check_args in cases():
        try:
            check(*check_args)
        except checks.CheckError as e:
            print(f"rejected  {label}: {e}")
        else:
            print(f"MISSED    {label}")
            missed += 1
    print("all corruptions rejected" if not missed else f"{missed} corruptions missed")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
