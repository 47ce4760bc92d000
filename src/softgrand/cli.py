"""Command-line front end.

Modes: sweep (block-error/calibration sweep to CSV), fig1 (query-count
distribution at incorrect decodings), oracle (exhaustive accounting check
on a small code), markers (capacity-threshold Eb/N0 values for the code
rate).  Every run is fully described by its flags; a JSON config file can
supply the same keys, with flags taking precedence and unknown keys
rejected.  Outputs carry a JSON sidecar so any file can be regenerated
from the sidecar alone.  Exit codes: 0 success, 2 configuration error,
3 statistical-guard or tolerance failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .channel import EBN0_LIMIT_DB, ChannelParams, SoftObservation, capacity_markers
from .codes import MAX_REDUNDANCY, make_crc, make_rlc
from .harness import (DECODERS, ORACLE_MAX_N, GuardError, _decoder_setup, _point_key,
                      _tau_label, _trial_batch, collect_error_query_distribution,
                      oracle_exact_accounting, run_sweep, write_sidecar, write_sweep_csv,
                      write_trials_csv)

__all__ = ["RunConfig", "ConfigError", "parse_and_validate", "run", "main"]

ORACLE_TOLERANCE = 1e-10

# Most points an Eb/N0 range START:STEP:STOP may hold.
MAX_EBN0_POINTS = 10_000

_FLAG_KEYS = ("mode", "code", "decoder", "tau", "ebn0", "trials", "seed",
              "workers", "out", "trials_csv")
# A sidecar's config block also names the package version that wrote it, so
# a config file may too; the version is read and otherwise ignored.
_CONFIG_KEYS = _FLAG_KEYS + ("version",)


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


@dataclass(frozen=True)
class RunConfig:
    """Validated, fully-resolved description of one run."""

    mode: str
    code_kind: str
    n: int
    k: int
    code_seed: int
    poly: int
    decoder: str
    taus: tuple
    ebn0_points: tuple
    trials: int
    seed: int
    workers: int
    out: str
    trials_csv: bool

    def code_string(self):
        if self.code_kind == "rlc":
            return f"rlc:{self.n}:{self.k}:{self.code_seed}"
        return f"crc:{self.n}:{self.k}:{hex(self.poly)}"

    def tau_string(self):
        # %g where it parses back to the same float, so a sidecar replays
        # exactly; repr otherwise.
        return ",".join("none" if t is None else
                        format(t, "g") if float(format(t, "g")) == t else repr(t)
                        for t in self.taus)

    def echo(self):
        """Canonical key/value form, written into output sidecars."""
        return {
            "mode": self.mode,
            "code": self.code_string(),
            "decoder": self.decoder,
            "tau": self.tau_string(),
            "ebn0": list(self.ebn0_points),
            "trials": self.trials,
            "seed": self.seed,
            "workers": self.workers,
            "out": self.out,
            "trials_csv": self.trials_csv,
            "version": __version__,
        }


def _build_parser():
    # No abbreviations: _join_values matches flags exactly.
    p = argparse.ArgumentParser(
        prog="softgrand", allow_abbrev=False,
        description="Guess-and-check decoding experiments with soft-output "
                    "confidence and abandonment.")
    p.add_argument("--mode", choices=("sweep", "fig1", "oracle", "markers"),
                   help="what to run")
    p.add_argument("--code", help="rlc:N:K[:SEED] or crc:N:K:0xPOLY (Koopman)")
    p.add_argument("--decoder", choices=tuple(DECODERS),
                   help="orbgrand = rank-order patterns with soft accounting; "
                        "grand = Hamming-order patterns with hard-detection "
                        "accounting (default orbgrand)")
    p.add_argument("--tau", help="comma list of abandonment thresholds in bits; "
                                 "'none' disables abandonment (default none)")
    p.add_argument("--ebn0", help="Eb/N0 in dB: single value, comma list, or "
                                  "START:STEP:STOP inclusive sweep")
    p.add_argument("--trials", type=int,
                   help="trials per sweep point; in fig1 mode, the number of "
                        "incorrect decodings to collect (default 1000)")
    p.add_argument("--seed", type=int, help="master seed (default 0)")
    p.add_argument("--workers", type=int, help="process pool size (default 1)")
    p.add_argument("--out", help="output directory (default .)")
    p.add_argument("--trials-csv", dest="trials_csv", action="store_true",
                   default=None, help="also dump per-trial records in sweep mode")
    p.add_argument("--config", help="JSON file supplying any of the other keys")
    return p


def _parse_code(text):
    parts = text.split(":")
    kind = parts[0]
    if kind not in ("rlc", "crc"):
        raise ConfigError(f"unknown code kind {kind!r} (want rlc or crc)")
    if kind == "rlc" and len(parts) not in (3, 4):
        raise ConfigError(f"rlc code wants rlc:N:K[:SEED], got {text!r}")
    if kind == "crc" and len(parts) != 4:
        raise ConfigError(f"crc code wants crc:N:K:0xPOLY, got {text!r}")

    def number(i, what, base=10):
        try:
            return int(parts[i], base)
        except ValueError:
            raise ConfigError(f"bad {what} {parts[i]!r} in {text!r}") from None

    n, k = number(1, "N"), number(2, "K")
    if kind == "rlc":
        return "rlc", n, k, number(3, "seed") if len(parts) == 4 else 1, 0
    return "crc", n, k, 0, number(3, "polynomial", 0)


def _parse_taus(text):
    taus = []
    for tok in str(text).split(","):
        tok = tok.strip().lower()
        if tok == "none":
            taus.append(None)
            continue
        try:
            tau = float(tok) + 0.0  # -0 is the threshold 0
        except ValueError:
            raise ConfigError(f"bad tau value {tok!r}") from None
        if not math.isfinite(tau):
            raise ConfigError(f"tau must be finite (use 'none' to never abandon), got {tok!r}")
        taus.append(tau)
    # Outputs name each threshold by its label, so two must not share one.
    labels = [_tau_label(tau) for tau in taus]
    if len(set(labels)) != len(labels):
        raise ConfigError(f"tau values must have distinct labels, got {', '.join(labels)}")
    return tuple(taus)


def _parse_ebn0(value):
    text = str(value)
    is_range = isinstance(value, str) and ":" in value
    items = value if isinstance(value, (list, tuple)) else text.split(":" if is_range else ",")
    # A JSON list holds numbers; type() keeps out bool, an int subclass.
    if items is value and not all(type(v) in (int, float) for v in items):
        raise ConfigError(f"ebn0 list items must be numbers, got {text!r}")
    try:
        points = tuple(float(v) for v in items)
    except (TypeError, ValueError):
        raise ConfigError(f"bad ebn0 value {text!r}") from None
    if not all(map(math.isfinite, points)):
        raise ConfigError(f"ebn0 values must be finite, got {text!r}")
    _check_ebn0_limit(points, text)
    if not is_range:
        return points
    if len(points) != 3 or points[1] <= 0 or points[2] < points[0]:
        raise ConfigError(f"bad ebn0 range {text!r}")
    start, step, stop = points
    # Counted before anything is built: a tiny step makes an astronomical
    # count, which can overflow to inf.
    steps = (stop - start) / step + 1e-9
    if steps >= MAX_EBN0_POINTS:
        raise ConfigError(f"ebn0 range {text!r} has {steps + 1:g} points, "
                          f"more than {MAX_EBN0_POINTS}")
    count = int(steps) + 1
    points = tuple(start + i * step for i in range(count))
    # The last point may overshoot the stop by a rounding error.
    _check_ebn0_limit(points, text)
    return points


def _check_ebn0_limit(points, text):
    if any(abs(p) > EBN0_LIMIT_DB for p in points):
        raise ConfigError(f"ebn0 values must lie within +-{EBN0_LIMIT_DB:g} dB, "
                          f"got {text!r}")


def _join_values(parser, argv):
    """``argv`` with each flag that takes a value joined to it as ``flag=value``.

    argparse takes a token that begins with '-' as a value only when it
    looks like a plain negative number, so ``--ebn0 -3:1:-1`` would fail.
    Here a flag takes the next token unless that token is an option string.
    """
    options = parser._option_string_actions
    out = []
    for tok in argv:
        last = out[-1] if out else None
        if last in options and options[last].nargs != 0 and tok not in options:
            out[-1] = f"{last}={tok}"
        else:
            out.append(tok)
    return out


def parse_and_validate(argv=None):
    """Resolve flags plus optional config file into a RunConfig."""
    parser = _build_parser()
    args = parser.parse_args(_join_values(parser, sys.argv[1:] if argv is None else argv))

    merged = {}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read config {args.config!r}: {e}") from None
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = sorted(set(file_cfg) - set(_CONFIG_KEYS))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        # Flags arrive as strings; type() keeps bool, an int subclass, out of tau.
        for key, v in file_cfg.items():
            if key in ("mode", "code", "decoder", "out", "version") and type(v) is not str:
                raise ConfigError(f"{key} must be a string, got {v!r}")
            if key == "tau" and type(v) not in (str, int, float):
                raise ConfigError(f"tau must be a string or a number, got {v!r}")
        merged.update(file_cfg)
    for key in _FLAG_KEYS:
        val = getattr(args, key)
        if val is not None:
            merged[key] = val

    mode = merged.get("mode")
    if mode is None:
        raise ConfigError("--mode is required (sweep, fig1, oracle, or markers)")
    if mode not in ("sweep", "fig1", "oracle", "markers"):
        raise ConfigError(f"unknown mode {mode!r}")
    if "code" not in merged:
        raise ConfigError("--code is required")
    kind, n, k, code_seed, poly = _parse_code(merged["code"])
    if mode in ("sweep", "fig1") and n - k > MAX_REDUNDANCY:
        raise ConfigError(f"mode {mode} needs n-k <= {MAX_REDUNDANCY}, got {n - k}")
    if mode == "oracle" and n > ORACLE_MAX_N:
        raise ConfigError(f"oracle mode needs n <= {ORACLE_MAX_N}, got n={n}")

    decoder = merged.get("decoder", "orbgrand")
    if decoder not in DECODERS:
        raise ConfigError(f"unknown decoder {decoder!r}")
    taus = _parse_taus(merged.get("tau", "none"))
    if mode in ("fig1", "oracle") and taus != (None,):
        raise ConfigError(f"mode {mode} decodes under tau=none only, got --tau "
                          f"{merged['tau']!r}")

    if "ebn0" in merged:
        points = _parse_ebn0(merged["ebn0"])
    elif mode == "markers":
        points = ()
    else:
        raise ConfigError(f"--ebn0 is required for mode {mode}")
    if mode in ("fig1", "oracle") and len(points) != 1:
        raise ConfigError(f"mode {mode} needs exactly one ebn0 point, got {len(points)}")
    if mode == "sweep" and not points:
        raise ConfigError("mode sweep needs at least one ebn0 point")

    def as_int(key, default, least):
        # Flags arrive as int; a config file must hold a JSON integer, and
        # type() keeps out floats, strings and bool, an int subclass.
        v = merged.get(key, default)
        if type(v) is not int:
            raise ConfigError(f"{key} must be an integer, got {v!r}")
        if v < least:
            raise ConfigError(f"{key} must be >= {least}, got {v}")
        return v

    trials = as_int("trials", 1000, 1)
    seed = as_int("seed", 0, 0)
    workers = as_int("workers", 1, 1)
    trials_csv = merged.get("trials_csv", False)
    if type(trials_csv) is not bool:
        raise ConfigError(f"trials_csv must be true or false, got {trials_csv!r}")
    if trials_csv and mode != "sweep":
        raise ConfigError(f"--trials-csv is for mode sweep only, got mode {mode}")

    return RunConfig(mode=mode, code_kind=kind, n=n, k=k, code_seed=code_seed,
                     poly=poly, decoder=decoder, taus=taus, ebn0_points=points,
                     trials=trials, seed=seed, workers=workers,
                     out=merged.get("out", "."),
                     trials_csv=trials_csv)


def _make_code(config):
    try:
        if config.code_kind == "rlc":
            return make_rlc(config.n, config.k, config.code_seed)
        return make_crc(config.n, config.k, config.poly)
    except ValueError as e:
        raise ConfigError(f"cannot build code {config.code_string()!r}: {e}") from None


def _sidecar_meta(config, code):
    return {
        "config": config.echo(),
        "code": code.descriptor,
        "parity_check_sha256": code.parity_check_sha256(),
        "markers": capacity_markers(code.rate),
        # The trials' seeding reads numpy internals (see harness._generator).
        "numpy": np.__version__,
    }


def _run_sweep_mode(config, code):
    result = run_sweep(code, config.taus, config.ebn0_points, config.trials,
                       config.seed, workers=config.workers, decoder=config.decoder,
                       confidence=config.trials_csv)
    csv_path = os.path.join(config.out, "sweep.csv")
    write_sweep_csv(csv_path, result.stats, meta=_sidecar_meta(config, code))
    print(f"wrote {csv_path} ({len(result.stats)} cells)")
    if config.trials_csv:
        trials_path = os.path.join(config.out, "trials.csv")
        write_trials_csv(trials_path, result)
        print(f"wrote {trials_path}")
    return 0


def _run_fig1_mode(config, code):
    dist = collect_error_query_distribution(code, config.ebn0_points[0], config.trials,
                                            config.seed, decoder=config.decoder)
    csv_path = os.path.join(config.out, "fig1.csv")
    lo, hi, counts = dist.histogram_log2()
    with open(csv_path, "w") as fh:
        fh.write("bin_lo,bin_hi,count,sample_mean\n")
        for row in zip(lo, hi, counts):
            fh.write(f"{row[0]},{row[1]},{row[2]},{dist.sample_mean:.12g}\n")
    meta = _sidecar_meta(config, code)
    meta["fig1"] = {
        "samples": int(len(dist.queries)),
        "trials": dist.trials,
        "sample_mean": dist.sample_mean,
        "model_mean": float(2 ** code.redundancy),
        "ks_distance_vs_geometric": dist.ks_distance,
    }
    write_sidecar(csv_path, meta)
    print(f"wrote {csv_path}: {len(dist.queries)} incorrect decodings over "
          f"{dist.trials} trials, mean queries {dist.sample_mean:.1f} "
          f"(model {2 ** code.redundancy}), KS {dist.ks_distance:.4f}")
    return 0


def _run_oracle_mode(config, code):
    # Trial 0 of the point as a sweep draws it, under the decoder's own ledger.
    params = ChannelParams(ebn0_db=config.ebn0_points[0], rate=code.rate)
    order_kind, acct = _decoder_setup(config.decoder, code, params)
    _, (hard, reliab) = _trial_batch(code, params, config.seed, _point_key(params.ebn0_db), 0, 1)
    obs = SoftObservation(hard[0], reliab[0] if acct is None else acct.reliab)
    report = oracle_exact_accounting(code, obs, order_kind=order_kind)
    dev = report.max_correct_deviation
    ok = dev < ORACLE_TOLERANCE
    print(f"correct-side accounting: max |ledger - exhaustive| = {dev:.3e} "
          f"over q in [1, {len(report.q)}] "
          f"({'PASS' if ok else 'FAIL'}, tolerance {ORACLE_TOLERANCE:g})")
    print(f"wrong-hit model vs exact codebook: max deviation = "
          f"{report.max_incorrect_deviation:.3e} (reported, not gated)")
    return 0 if ok else 3


def _run_markers_mode(config, code):
    markers = capacity_markers(code.rate)
    print(f"rate = {code.k}/{code.n} = {code.rate:.6f}")
    print(f"shannon_ebn0_db = {markers['shannon_ebn0_db']:.6f}")
    print(f"mincap_ebn0_db = {markers['mincap_ebn0_db']:.6f}")
    return 0


def run(config):
    """Execute a validated RunConfig; returns the process exit code."""
    if config.mode in ("sweep", "fig1"):
        # Made before anything is decoded, so an unusable --out costs nothing.
        try:
            os.makedirs(config.out, exist_ok=True)
        except OSError as e:
            raise ConfigError(f"cannot use --out {config.out!r}: {e}") from None
    code = _make_code(config)
    if config.mode == "sweep":
        return _run_sweep_mode(config, code)
    if config.mode == "fig1":
        return _run_fig1_mode(config, code)
    if config.mode == "oracle":
        return _run_oracle_mode(config, code)
    return _run_markers_mode(config, code)


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    if not argv:
        _build_parser().print_usage(sys.stderr)
        return 2
    try:
        config = parse_and_validate(argv)
        return run(config)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except GuardError as e:
        print(f"guard failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
