"""Output checks for the benchmark workloads.

Each check reads the CSV and sidecar files a CLI run wrote and tests them
against a property of the method or against a figure the benchmark computes
itself with numpy, never against another output of the program:

- sweep cells: n_correct + n_incorrect + n_abandoned = trials, and trials is
  the base count times a power of two, at most eight times the base;
- calibration: a thresholded cell with at least 100 non-abandoned decodes has
  success_cond >= 2^tau / (2^tau + 1) - 3 SE, SE taken at that bound;
- trials.csv agrees with sweep.csv cell by cell;
- paired outcomes: a thresholded policy sees the same observation as
  tau=none and either ends the same way at the same query with the same
  confidence, or abandons no later; a decode reports llr_bits >= tau and an
  abandonment llr_bits < tau (or reached the query cap); a larger tau
  abandons whenever a smaller one does, no later;
- recomputation: every tau=none trial is regenerated from the documented
  seeding, code construction and channel; q = 1 exactly when the hard
  decision is a code word, and then the outcome and
  llr_bits = log2 prod(1 - B_i) + r (to 1e-9) are recomputed;
- fig1: the octave-bin counts fit the bin probabilities of Geometric(2^-r)
  truncated at the query cap (Pearson chi-square, bins pooled to an
  expected count of at least 5, p-value at least 1e-6);
- the sidecar's parity-check fingerprint matches the code rebuilt here.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

CAL_MIN_EVENTS = 100
CAL_SE = 3.0
LLR_TOL = 1e-9
FIG1_MIN_P = 1e-6
FIG1_MIN_EXPECTED = 5.0


class CheckError(AssertionError):
    """An output of the program failed a benchmark check."""


def _require(ok, msg):
    if not ok:
        raise CheckError(msg)


def flag(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def parse_points(text):
    if ":" in text:
        start, step, stop = (float(t) for t in text.split(":"))
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        return [start + i * step for i in range(count)]
    return [float(t) for t in text.split(",")]


def parse_taus(text):
    return [None if t == "none" else float(t) for t in text.split(",")]


def tau_label(tau):
    return "tau=none" if tau is None else f"tau={tau:g}"


def parse_code(text):
    kind, n, k, seed = text.split(":")
    if kind != "rlc":
        raise ValueError(f"benchmark workloads use rlc codes, got {text!r}")
    return int(n), int(k), int(seed)


def rebuild_rlc(n, k, seed):
    """Parity part A (r x k) of the documented random-linear-code draw.

    Columns of A are fair bits drawn in column order from
    default_rng(seed), redrawn while all-zero or equal to an earlier column
    of [A | I]; a pass that leaves an all-zero row of A is redrawn whole.
    """
    r = n - k
    rng = np.random.default_rng(seed)
    weights = 1 << np.arange(r)
    while True:
        taken = {1 << i for i in range(r)}
        a = np.empty((r, k), dtype=np.uint8)
        for c in range(k):
            while True:
                col = rng.integers(0, 2, size=r, dtype=np.uint8)
                packed = int(col @ weights)
                if packed and packed not in taken:
                    break
            taken.add(packed)
            a[:, c] = col
        if a.any(axis=1).all():
            return a


def parity_sha256(a):
    r, k = a.shape
    h = np.hstack([a, np.eye(r, dtype=np.uint8)])
    width = (h.shape[1] + 3) // 4
    rows = [f"{int(''.join(map(str, row)), 2):0{width}x}" for row in h]
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def default_cap(n, k):
    cap = 8 << (n - k)
    return min(cap, 1 << n) if n < 63 else cap


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_sidecar(path):
    with open(str(path) + ".json") as fh:
        return json.load(fh)


def check_code(sidecar, code_text):
    n, k, seed = parse_code(code_text)
    _require(sidecar["parity_check_sha256"] == parity_sha256(rebuild_rlc(n, k, seed)),
             f"parity-check fingerprint differs from the rebuilt {code_text}")


def check_sweep_cells(rows, argv):
    base = int(flag(argv, "--trials"))
    points = parse_points(flag(argv, "--ebn0"))
    labels = [tau_label(t) for t in parse_taus(flag(argv, "--tau", "none"))]
    expected = [(lbl, p) for p in points for lbl in labels]
    got = [(r["policy"], float(r["ebn0_db"])) for r in rows]
    _require(got == expected, f"sweep cells {got} != expected {expected}")
    for r in rows:
        trials = int(r["trials"])
        total = int(r["n_correct"]) + int(r["n_incorrect"]) + int(r["n_abandoned"])
        _require(total == trials,
                 f"{r['policy']}@{r['ebn0_db']}: outcome counts sum to {total}, trials {trials}")
        ratio = trials // base
        _require(trials % base == 0 and ratio in (1, 2, 4, 8),
                 f"{r['policy']}@{r['ebn0_db']}: trials {trials} is not base {base} x 2^j <= 8x")


def check_calibration(rows):
    for r in rows:
        if r["policy"] == "tau=none":
            continue
        tau = float(r["policy"].split("=")[1])
        nonab = int(r["n_correct"]) + int(r["n_incorrect"])
        if nonab < CAL_MIN_EVENTS:
            continue
        p0 = 2.0 ** tau / (2.0 ** tau + 1.0)
        floor = p0 - CAL_SE * math.sqrt(p0 * (1.0 - p0) / nonab)
        got = float(r["success_cond"])
        _require(got >= floor,
                 f"{r['policy']}@{r['ebn0_db']}: success_cond {got} < {floor:.6f} "
                 f"over {nonab} decodes")


def _trials_by_cell(trial_rows):
    cells = {}
    for r in trial_rows:
        cells.setdefault((r["policy"], float(r["ebn0_db"])), []).append(r)
    return cells


def check_trials_match_sweep(trial_rows, sweep_rows):
    cells = _trials_by_cell(trial_rows)
    _require(len(cells) == len(sweep_rows), "trials.csv and sweep.csv hold different cells")
    for s in sweep_rows:
        rows = cells.get((s["policy"], float(s["ebn0_db"])), [])
        _require([int(r["trial"]) for r in rows] == list(range(int(s["trials"]))),
                 f"{s['policy']}@{s['ebn0_db']}: trial indices do not run 0..trials-1")
        for name, col in (("correct", "n_correct"), ("incorrect", "n_incorrect"),
                          ("abandoned", "n_abandoned")):
            _require(sum(r["outcome"] == name for r in rows) == int(s[col]),
                     f"{s['policy']}@{s['ebn0_db']}: {col} disagrees with trials.csv")
        for r in rows:
            _require(r["true_noise_found"] == ("true" if r["outcome"] == "correct" else "false"),
                     f"{s['policy']}@{s['ebn0_db']} trial {r['trial']}: true_noise_found "
                     f"disagrees with outcome")
        mean_q = sum(int(r["q"]) for r in rows) / len(rows)
        _require(math.isclose(mean_q, float(s["avg_queries_to_decision"]), rel_tol=1e-10),
                 f"{s['policy']}@{s['ebn0_db']}: avg_queries_to_decision disagrees")


def check_paired(trial_rows, argv):
    base = int(flag(argv, "--trials"))
    n, k, _ = parse_code(flag(argv, "--code"))
    cap = default_cap(n, k)
    taus = sorted(t for t in parse_taus(flag(argv, "--tau")) if t is not None)
    cells = _trials_by_cell(trial_rows)
    for point in parse_points(flag(argv, "--ebn0")):
        ref = cells[("tau=none", point)][:base]
        prev = None
        for tau in taus:
            rows = cells[(tau_label(tau), point)][:base]
            for r0, r in zip(ref, rows):
                where = f"{tau_label(tau)}@{point:g} trial {r['trial']}"
                q0, q = int(r0["q"]), int(r["q"])
                llr = float(r["llr_bits"])
                if r["outcome"] == "abandoned":
                    _require(llr < tau or q == cap, f"{where}: abandoned at llr {llr} >= tau")
                    _require(q <= q0, f"{where}: abandoned at q={q} after the tau=none end q={q0}")
                else:
                    _require(llr >= tau, f"{where}: decoded at llr {llr} < tau")
                    _require((r["outcome"], q, r["llr_bits"]) ==
                             (r0["outcome"], q0, r0["llr_bits"]),
                             f"{where}: decode differs from tau=none on the same observation")
            if prev is not None:
                for rp, r in zip(prev, rows):
                    if rp["outcome"] == "abandoned":
                        _require(r["outcome"] == "abandoned" and int(r["q"]) <= int(rp["q"]),
                                 f"{tau_label(tau)}@{point:g} trial {r['trial']}: a smaller "
                                 f"tau abandoned but this one did not, or later")
            prev = rows


def check_recompute(trial_rows, argv):
    """Regenerate every tau=none trial from the documented seeding and channel."""
    seed = int(flag(argv, "--seed"))
    n, k, code_seed = parse_code(flag(argv, "--code"))
    r = n - k
    a = rebuild_rlc(n, k, code_seed)
    h = np.hstack([a, np.eye(r, dtype=np.uint8)])
    rate = k / n
    cells = _trials_by_cell(trial_rows)
    checked = 0
    for point in parse_points(flag(argv, "--ebn0")):
        key = int(np.float64(point).view(np.uint64))
        sigma2 = 1.0 / (2.0 * rate * 10.0 ** (point / 10.0))
        for row in cells[("tau=none", point)]:
            t = int(row["trial"])
            rng = np.random.default_rng(np.random.SeedSequence((seed, key, t)))
            msg = rng.integers(0, 2, size=k, dtype=np.uint8)
            cw = np.concatenate([msg, (a @ msg) % 2]).astype(np.uint8)
            y = (1.0 - 2.0 * cw) + rng.standard_normal(n) * np.sqrt(sigma2)
            llr = 2.0 * y / sigma2
            hard = (llr < 0).astype(np.uint8)
            is_word = not ((h @ hard) % 2).any()
            q = int(row["q"])
            where = f"tau=none@{point:g} trial {t}"
            _require((q == 1) == is_word,
                     f"{where}: q={q} but the hard decision is "
                     f"{'' if is_word else 'not '}a code word")
            if q != 1:
                continue
            outcome = "correct" if np.array_equal(hard, cw) else "incorrect"
            _require(row["outcome"] == outcome, f"{where}: outcome {row['outcome']} != {outcome}")
            want = -np.sum(np.log1p(np.exp(-np.abs(llr)))) / math.log(2.0) + r
            got = float(row["llr_bits"])
            _require(abs(got - want) <= LLR_TOL, f"{where}: llr_bits {got} != {want:.12g}")
            checked += 1
    _require(checked > 0, "no tau=none trial ended at q=1")


def geometric_bin_probs(lo, hi, p, cap):
    """P(lo <= X < hi) for X ~ Geometric(p) on 1, 2, ... truncated to X <= cap."""
    lo = np.asarray(lo, dtype=float)
    hi = np.minimum(np.asarray(hi, dtype=float) - 1.0, cap)
    log1mp = math.log1p(-p)
    cdf = lambda x: -np.expm1(x * log1mp)  # noqa: E731
    return (cdf(hi) - cdf(lo - 1.0)) / cdf(float(cap))


def check_fig1(rows, sidecar, argv):
    n, k, _ = parse_code(flag(argv, "--code"))
    target = int(flag(argv, "--trials"))
    cap = default_cap(n, k)
    lo = np.array([int(r["bin_lo"]) for r in rows])
    hi = np.array([int(r["bin_hi"]) for r in rows])
    counts = np.array([int(r["count"]) for r in rows])
    _require(np.array_equal(lo, 2 ** np.arange(len(rows))) and np.array_equal(hi, 2 * lo),
             "fig1 bins are not consecutive octaves from 1")
    _require(counts.sum() == target == sidecar["fig1"]["samples"],
             f"fig1 holds {counts.sum()} samples, asked for {target}")
    _require(sidecar["fig1"]["trials"] >= target, "fig1 reports fewer trials than samples")
    _require(hi[-1] <= 2 * cap, "fig1 bins run past the query cap")
    probs = geometric_bin_probs(lo, hi, 2.0 ** -(n - k), cap)
    probs[-1] = 1.0 - probs[:-1].sum()  # the last bin also holds the tail to the cap
    expected = counts.sum() * probs
    # Pool bins from the low end until every group expects at least
    # FIG1_MIN_EXPECTED samples; a short remainder joins the last group.
    obs, exp_, o, e = [], [], 0, 0.0
    for c, x in zip(counts, expected):
        o, e = o + c, e + x
        if e >= FIG1_MIN_EXPECTED:
            obs.append(o)
            exp_.append(e)
            o, e = 0, 0.0
    _require(len(obs) >= 2, "fig1 holds too few samples to test")
    obs[-1] += o
    exp_[-1] += e
    obs, exp_ = np.array(obs, dtype=float), np.array(exp_)
    chi2 = float(np.sum((obs - exp_) ** 2 / exp_))
    from scipy import stats  # imported late: only the final checks need it

    p_value = float(stats.chi2.sf(chi2, len(obs) - 1))
    _require(p_value >= FIG1_MIN_P,
             f"fig1 octave counts do not fit Geometric(2^-{n - k}): chi2 {chi2:.1f} "
             f"over {len(obs)} groups, p={p_value:.2e}")


def check_outputs(out_dir, argv):
    """Run every check that applies to the workload that wrote ``out_dir``."""
    out_dir = Path(out_dir)
    if flag(argv, "--mode") == "fig1":
        path = out_dir / "fig1.csv"
        sidecar = read_sidecar(path)
        check_code(sidecar, flag(argv, "--code"))
        check_fig1(read_csv(path), sidecar, argv)
        return
    path = out_dir / "sweep.csv"
    rows = read_csv(path)
    check_code(read_sidecar(path), flag(argv, "--code"))
    check_sweep_cells(rows, argv)
    check_calibration(rows)
    if "--trials-csv" in argv:
        trial_rows = read_csv(out_dir / "trials.csv")
        check_trials_match_sweep(trial_rows, rows)
        check_paired(trial_rows, argv)
        check_recompute(trial_rows, argv)


def output_digests(out_dir):
    """SHA-256 of every CSV file the run wrote (sidecars carry paths, not data)."""
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(Path(out_dir).glob("*.csv"))}
