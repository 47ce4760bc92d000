"""Per-query confidence accounting for guess-and-check decoding.

After q code-book queries two hypotheses compete: the decoding found at (or
by) query q is correct, meaning the channel noise really was one of the
guessed flip patterns, or the hit is a coincidental wrong code word.  The
correct-decoding probability is the running sum of the guessed patterns'
probabilities, maintained in the log domain one term per query.  The
incorrect-decoding probability uses a geometric model in which each query
independently lands on a wrong code word with probability 2^-r, r being the
number of redundant bits; it is a closed form in r and q, evaluated where it
is read.  The confidence value reported is the base-2 log ratio of the
two, and a value of t means odds of 2^t to 1 that the decoding is correct.

``geometric_cdf`` here is the package's one linear-domain form of the
model's CDF 1 - (1 - p)^q; the harness re-exports it for its fit test.

All internal accumulation is in natural-log domain; linear-domain running
sums underflow for long blocks at high SNR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConfidenceLedger",
    "LlrReport",
    "record_query",
    "geometric_cdf",
    "p_incorrect_cum",
    "log_p_incorrect_cum",
    "llr_bits",
    "confidence_llr",
]

_LN2 = math.log(2.0)


@dataclass
class ConfidenceLedger:
    """Mutable per-trial accumulator, owned by a single decode call.

    ``cum_correct_log`` is the natural log of the summed probability of all
    patterns queried so far (-inf before the first query); it is
    nondecreasing and never exceeds log(1) beyond rounding.
    """

    redundancy: int
    q: int = 0
    cum_correct_log: float = -math.inf

    def __post_init__(self):
        if self.redundancy < 1:
            raise ValueError(f"redundancy must be >= 1, got {self.redundancy}")


def record_query(ledger, pattern_log_prob):
    """Fold one pattern's natural-log probability into the running sum."""
    lp = float(pattern_log_prob)
    if not lp <= 0.0:
        raise ValueError(f"pattern log-probability must be <= 0, got {lp}")
    ledger.q += 1
    ledger.cum_correct_log = float(np.logaddexp(ledger.cum_correct_log, lp))
    return ledger


def _check_rq(redundancy, q, least=0):
    if redundancy < 1:
        raise ValueError(f"redundancy must be >= 1, got {redundancy}")
    q = np.asarray(q).min(initial=least)  # < least iff some q < least
    if q < least:
        raise ValueError(f"query count must be >= {least}, got {q}")


def geometric_cdf(p, q):
    """P(X <= q) = 1 - (1 - p)^q for X ~ Geometric(p) on support 1, 2, ...

    -expm1(q * log1p(-p)) keeps full relative accuracy when q * p << 1.
    """
    q = np.asarray(q, dtype=float)
    out = -np.expm1(np.log1p(-p) * q)
    return float(out) if out.ndim == 0 else out


def p_incorrect_cum(redundancy, q):
    """1 - (1 - 2^-r)^q, the chance of a wrong code word by query q (an int or int array)."""
    _check_rq(redundancy, q)
    return geometric_cdf(2.0 ** -redundancy, q)


def _log_p_incorrect(redundancy, q):
    """log_p_incorrect_cum of a query-count array, unchecked, for counts the caller built.

    t near 0 is the common case (q well below 2^r), so log1p(-e^t) is
    evaluated only when some t is at or below -ln 2.
    """
    tq = q * math.log1p(-(2.0 ** -redundancy))
    near = np.log(-np.expm1(tq))
    if tq.min(initial=0.0) > -_LN2:
        return near
    # log1p(-1) only occurs in the branch np.where discards.
    with np.errstate(divide="ignore"):
        return np.where(tq > -_LN2, near, np.log1p(-np.exp(tq)))


def log_p_incorrect_cum(redundancy, q):
    """Natural log of p_incorrect_cum for an int or an int array ``q``.

    log(1 - e^t) with t = q * log1p(-2^-r), taking log(-expm1(t)) near 0
    and log1p(-e^t) below -ln 2 so both ends keep full accuracy; q = 0
    gives -inf.  An int gives a float, an array an array.
    """
    _check_rq(redundancy, q)
    # log(0) = -inf at q = 0 is meant.
    with np.errstate(divide="ignore"):
        out = _log_p_incorrect(redundancy, np.asarray(q, dtype=float))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class LlrReport:
    """Confidence snapshot at query q, computed in the log domain."""

    llr_bits: float
    q: int


def llr_bits(redundancy, q, cum_log):
    """Confidence in bits at query q >= 1 given the natural-log correct mass.

    ``q`` and ``cum_log`` are numbers or arrays of one shape, and give a
    float or an array.
    """
    q = np.asarray(q)
    _check_rq(redundancy, q, least=1)
    return (cum_log - _log_p_incorrect(redundancy, q)) / _LN2


def confidence_llr(ledger):
    """Base-2 log ratio of correct- to incorrect-decoding probability at q >= 1."""
    llr = llr_bits(ledger.redundancy, ledger.q, ledger.cum_correct_log)
    return LlrReport(llr_bits=float(llr), q=ledger.q)
