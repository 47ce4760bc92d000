"""BPSK over complex AWGN: per-bit soft information and BSC capacity markers.

Conventions (fixed so that independent implementations can be compared):
symbol energy is normalised to E_s = 1, bit b maps to s = 1 - 2b, and the
per-real-dimension noise variance is sigma^2 = 1 / (2 * rate * 10^(EbN0/10)).
Only the in-phase component carries information, so each bit sees one real
Gaussian sample.  The channel LLR is lambda_i = 2 y_i / sigma^2 with
lambda > 0 favouring bit 0; reliabilities l_i = |lambda_i| are in natural-log
units throughout, converting to base 2 only in reported confidence values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize, special

from .codes import _as_bits

__all__ = [
    "EBN0_LIMIT_DB",
    "ChannelParams",
    "SoftObservation",
    "transmit",
    "transmit_arrays",
    "flip_probability",
    "bsc_crossover",
    "capacity_markers",
    "q_function",
    "binary_entropy",
]


def q_function(x):
    """Gaussian tail probability Q(x), via the complementary error function."""
    return 0.5 * special.erfc(np.asarray(x, dtype=float) / np.sqrt(2.0))


def binary_entropy(p):
    """h2(p) in bits, with the p in {0, 1} limits taken as 0."""
    p = np.asarray(p, dtype=float)
    out = np.zeros_like(p)
    inside = (p > 0) & (p < 1)
    pi = p[inside]
    out[inside] = -pi * np.log2(pi) - (1 - pi) * np.log2(1 - pi)
    return out if out.ndim else float(out)


# Largest accepted |Eb/N0| in dB, far beyond any physical link.  Within it,
# sigma^2 and 2 / sigma^2 are finite normal floats for any code rate k/n, so
# every channel LLR that ``transmit`` computes is finite.
EBN0_LIMIT_DB = 300.0


@dataclass(frozen=True)
class ChannelParams:
    """Eb/N0 operating point for a code of the given rate."""

    ebn0_db: float
    rate: float

    def __post_init__(self):
        if not math.isfinite(self.ebn0_db):
            raise ValueError(f"ebn0_db must be finite, got {self.ebn0_db}")
        if abs(self.ebn0_db) > EBN0_LIMIT_DB:
            raise ValueError(f"ebn0_db must lie within +-{EBN0_LIMIT_DB:g} dB, "
                             f"got {self.ebn0_db}")
        if not 0.0 < self.rate < 1.0:
            raise ValueError(f"rate must be in (0, 1), got {self.rate}")

    @property
    def ebn0_linear(self):
        return 10.0 ** (self.ebn0_db / 10.0)

    @property
    def sigma2(self):
        """Noise variance per real dimension with E_s = 1."""
        return 1.0 / (2.0 * self.rate * self.ebn0_linear)


@dataclass
class SoftObservation:
    """Hard decisions plus per-bit soft information for one received block.

    ``reliab`` holds the natural-log reliability magnitudes l_i = |lambda_i|,
    finite and nonnegative.  ``ranks`` is derived from it on each read: the
    bit indices sorted by ascending reliability (ties broken by ascending
    bit index), so ranks[0] is the least reliable bit.  The decoder ranks
    the reliabilities itself, and only for rows it searches past query 1.
    """

    hard: np.ndarray
    reliab: np.ndarray

    def __post_init__(self):
        self.hard, self.reliab = _observation_arrays(self.hard, self.reliab)

    @property
    def n(self):
        return len(self.hard)

    @property
    def ranks(self):
        return _ranks(self.reliab)

    @property
    def flip_prob(self):
        """Per-bit flip probabilities B_i = e^-l / (1 + e^-l) in (0, 0.5]."""
        return flip_probability(self.reliab)

    @classmethod
    def from_channel_llrs(cls, llrs):
        """Build an observation from finite raw channel LLRs (sign favours bit 0)."""
        llrs = np.asarray(llrs, dtype=float)
        if not np.isfinite(llrs).all():
            raise ValueError("channel LLRs must be finite")
        hard, reliab = _llr_arrays(llrs[np.newaxis])
        return cls(hard[0], reliab[0])

    @classmethod
    def from_flip_probs(cls, hard, flip_prob):
        """Build an observation from flip probabilities in (0, 0.5].

        Used for statistical (hard-detection) accounting, e.g. a constant
        BSC crossover probability on every bit.
        """
        flip_prob = np.broadcast_to(np.asarray(flip_prob, dtype=float), np.shape(hard))
        if not np.all((flip_prob > 0) & (flip_prob <= 0.5)):
            raise ValueError("flip probabilities must lie in (0, 0.5]")
        return cls(hard=hard, reliab=np.log1p(-flip_prob) - np.log(flip_prob))


def flip_probability(l):
    """B = e^-l / (1 + e^-l) for finite reliability magnitude l >= 0.

    Stable for large l: never overflows, and the result is clamped to the
    smallest positive float instead of underflowing to zero.
    """
    arr = _reliabilities(l)
    out = special.expit(-arr)
    out = np.fmax(out, np.finfo(float).smallest_subnormal)
    return float(out) if arr.ndim == 0 else out


def _observation_arrays(hard, reliab):
    """``hard`` as uint8 and ``reliab`` as float arrays, after checking both."""
    hard, reliab = np.asarray(hard), np.asarray(reliab, dtype=float)
    if hard.shape != reliab.shape:
        raise ValueError(f"hard and reliab shapes differ: {hard.shape} != {reliab.shape}")
    return _as_bits(hard, "hard decisions"), _reliabilities(reliab)


def _reliabilities(reliab):
    """``reliab`` as a float array, after checking it is finite and nonnegative."""
    reliab = np.asarray(reliab, dtype=float)
    # NaN fails both comparisons.
    if np.count_nonzero((reliab >= 0) & (reliab < np.inf)) < reliab.size:
        raise ValueError("reliability magnitudes must be finite and nonnegative")
    return reliab


def _ranks(reliab):
    """Bit indices by ascending reliability along the last axis, ties by index."""
    return np.argsort(reliab, axis=-1, kind="stable")


def _llr_arrays(llrs):
    """Hard decisions and reliabilities of a 2-D array of channel LLRs."""
    return (llrs < 0).astype(np.uint8), np.abs(llrs)


def transmit(code_word, params, rng):
    """Send one code word through the BPSK/AWGN channel.

    ``rng`` may be a numpy Generator or anything ``np.random.default_rng``
    accepts; results are reproducible bit-exactly for a fixed seed.
    """
    rng = np.random.default_rng(rng)
    bits = np.asarray(code_word, dtype=np.uint8)
    hard, reliab = transmit_arrays(bits[np.newaxis],
                                   rng.standard_normal((1, len(bits))), params)
    return SoftObservation(hard[0], reliab[0])


def transmit_arrays(code_words, noise, params):
    """(hard, reliab) of a (B, n) block of code words under (B, n) unit noise.

    Row i holds the fields of what ``transmit(code_words[i], params, rng)``
    returns when ``noise[i]`` is that rng's next ``standard_normal(n)``
    draw.  Every row is computed with the same float operations, so
    batching changes no bit.
    """
    symbols = 1.0 - 2.0 * np.asarray(code_words, dtype=np.uint8)
    sigma2 = params.sigma2
    y = symbols + noise * np.sqrt(sigma2)
    return _llr_arrays(2.0 * y / sigma2)


def bsc_crossover(params):
    """Hard-decision bit error probability Q(sqrt(2 * rate * EbN0))."""
    return float(q_function(np.sqrt(2.0 * params.rate * params.ebn0_linear)))


def _crossover_at(ebn0_db, rate):
    return bsc_crossover(ChannelParams(ebn0_db=ebn0_db, rate=rate))


def capacity_markers(rate, lo_db=-40.0, hi_db=60.0):
    """Eb/N0 values where the hard-detection BSC capacities equal ``rate``.

    Returns a dict with ``shannon_ebn0_db`` solving 1 - h2(p) = rate and
    ``mincap_ebn0_db`` solving 1 + log2(1 - p) = rate, where p is the BSC
    crossover probability at that Eb/N0.  The min-entropy of Bernoulli(p)
    with p < 1/2 is -log2(1 - p), so min-capacity exceeds Shannon capacity
    at any fixed p and its marker sits at a lower (noisier) Eb/N0.
    Both roots are found to well below 1e-6 dB.
    """
    rate = float(rate)
    if not 0.0 < rate < 1.0:
        raise ValueError(f"rate must be in (0, 1), got {rate}")

    def shannon_gap(ebn0_db):
        return 1.0 - binary_entropy(_crossover_at(ebn0_db, rate)) - rate

    def mincap_gap(ebn0_db):
        return 1.0 + np.log2(1.0 - _crossover_at(ebn0_db, rate)) - rate

    shannon = optimize.brentq(shannon_gap, lo_db, hi_db, xtol=1e-9)
    mincap = optimize.brentq(mincap_gap, lo_db, hi_db, xtol=1e-9)
    return {"shannon_ebn0_db": float(shannon), "mincap_ebn0_db": float(mincap)}
