"""BPSK over complex AWGN: per-bit soft information and BSC capacity markers.

Conventions (fixed so that independent implementations can be compared):
symbol energy is normalised to E_s = 1, bit b maps to s = 1 - 2b, and the
per-real-dimension noise variance is sigma^2 = 1 / (2 * rate * 10^(EbN0/10)).
Only the in-phase component carries information, so each bit sees one real
Gaussian sample.  The channel LLR is lambda_i = 2 y_i / sigma^2 with
lambda > 0 favouring bit 0; reliabilities l_i = |lambda_i| are in natural-log
units throughout, converting to base 2 only in reported confidence values.

The package needs numpy only.  Three private routines are pure-Python
ports of scipy's and give scipy's exact bits (both call the platform's
libm ``exp``): ``_erfc`` is the Cephes ``erfc`` of ndtr.c, with its ``erf``
for |x| < 1, as scipy.special's ``erfc``; ``_expit_neg`` is scipy's
``expit(-l)``, 1 / (1 + exp(l)); ``_brentq`` is Brent's method as
scipy.optimize's C ``brentq`` writes it.  The capacity markers, and every
output seeded from them, are the same as with scipy, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    return _elementwise(_q, x)[()]


def _q(x):
    """Q(x) of one float."""
    return 0.5 * _erfc(x / _SQRT2)


def _elementwise(f, x):
    """``f`` applied to each element of ``x`` as a float array of its shape."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(f, x.ravel().tolist()), float, x.size).reshape(x.shape)


_SQRT2 = math.sqrt(2.0)

# Cephes ndtr.c: erfc(x) = exp(-x^2) P(x) / Q(x) for 1 <= |x| < 8 and
# exp(-x^2) R(x) / S(x) beyond; erf(x) = x T(x^2) / U(x^2) for |x| < 1.
# Q, S and U start with the leading 1.0 that Cephes leaves implicit.
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1,
           7.46321056442269912687E0, 4.86371970985681366614E1,
           1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3,
           5.57535335369399327526E2)
_ERFC_Q = (1.0, 1.32281951154744992508E1, 8.67072140885989742329E1,
           3.54937778887819891062E2, 9.75708501743205489753E2,
           1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_ERFC_R = (5.64189583547755073984E-1, 1.27536670759978104416E0,
           5.01905042251180477414E0, 6.16021097993053585195E0,
           7.40974269950448939160E0, 2.97886665372100240670E0)
_ERFC_S = (1.0, 2.26052863220117276590E0, 9.39603524938001434673E0,
           1.20489539808096656605E1, 1.70814450747565897222E1,
           9.60896809063285878198E0, 3.36907645100081516050E0)
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1,
          2.23200534594684319226E3, 7.00332514112805075473E3,
          5.55923013010394962768E4)
_ERF_U = (1.0, 3.35617141647503099647E1, 5.21357949780152679795E2,
          4.59432382970980127987E3, 2.26290000613890934246E4,
          4.92673942608635921086E4)
# ln of the largest float: exp(-x^2) underflows below -MAXLOG.
_MAXLOG = 7.09782712893383996843E2


def _polevl(x, coef):
    """Horner's rule for coef[0] x^N + ... + coef[N], as Cephes evaluates it.

    With coef[0] = 1.0 it is Cephes' ``p1evl``: 1.0 * x + c is x + c exactly.
    """
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erfc(a):
    """Cephes erfc, with Cephes erf's expansion for |a| < 1."""
    if math.isnan(a):
        return math.nan
    x = abs(a)
    if x < 1.0:
        z = a * a
        return 1.0 - a * _polevl(z, _ERF_T) / _polevl(z, _ERF_U)
    y = 0.0
    if -a * a >= -_MAXLOG:
        p, q = (_ERFC_P, _ERFC_Q) if x < 8.0 else (_ERFC_R, _ERFC_S)
        y = math.exp(-a * a) * _polevl(x, p) / _polevl(x, q)
        if a < 0:
            y = 2.0 - y
    # Underflow, of exp(-a^2) or of the quotient: the limit for a's sign.
    if y == 0.0:
        return 2.0 if a < 0 else 0.0
    return y


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
        if self.hard.ndim != 1:
            raise ValueError(f"an observation must be one block of n bits, "
                             f"got shape {self.hard.shape}")

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
    out = np.fmax(_elementwise(_expit_neg, arr), np.finfo(float).smallest_subnormal)
    return float(out) if arr.ndim == 0 else out


def _expit_neg(l):
    """1 / (1 + e^l), which is 0 where e^l overflows."""
    try:
        return 1.0 / (1.0 + math.exp(l))
    except OverflowError:
        return 0.0


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
    """Bit indices by ascending reliability along the last axis, ties by index.

    Without ties every sort gives the one order, so the stable sort, a few
    times slower than the default one, runs only on the rows that have them.
    """
    order = np.argsort(reliab, axis=-1)
    # A second (SIMD) sort of the values costs about half as much as
    # gathering them through ``order`` on a 256 x 128 block.
    ascending = np.sort(reliab, axis=-1)
    ties = ascending[..., 1:] == ascending[..., :-1]
    if ties.any():
        tied = ties.any(axis=-1)
        order[tied] = np.argsort(reliab[tied], axis=-1, kind="stable")
    return order


def _llr_arrays(llrs):
    """Hard decisions and reliabilities of a 2-D array of channel LLRs."""
    return (llrs < 0).astype(np.uint8), np.abs(llrs)


def transmit(code_word, params, rng):
    """Send one code word through the BPSK/AWGN channel.

    ``rng`` may be a numpy Generator or anything ``np.random.default_rng``
    accepts; results are reproducible bit-exactly for a fixed seed.
    """
    rng = np.random.default_rng(rng)
    bits = _as_bits(code_word, "code word bits")
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
    code_words = _as_bits(code_words, "code word bits")
    if np.shape(noise) != code_words.shape:
        raise ValueError(f"noise shape {np.shape(noise)} != code word shape {code_words.shape}")
    symbols = 1.0 - 2.0 * code_words
    sigma2 = params.sigma2
    y = symbols + noise * np.sqrt(sigma2)
    return _llr_arrays(2.0 * y / sigma2)


def bsc_crossover(params):
    """Hard-decision bit error probability Q(sqrt(2 * rate * EbN0))."""
    return _q(math.sqrt(2.0 * params.rate * params.ebn0_linear))


def capacity_markers(rate):
    """Eb/N0 values where the hard-detection BSC capacities equal ``rate``.

    Returns a dict with ``shannon_ebn0_db`` solving 1 - h2(p) = rate and
    ``mincap_ebn0_db`` solving 1 + log2(1 - p) = rate, where p is the BSC
    crossover probability at that Eb/N0.  The min-entropy of Bernoulli(p)
    with p < 1/2 is -log2(1 - p), so min-capacity exceeds Shannon capacity
    at any fixed p and its marker sits at a lower (noisier) Eb/N0.
    Both roots are found in [-40, 60] dB to well below 1e-6 dB.
    """
    rate = float(rate)
    if not 0.0 < rate < 1.0:
        raise ValueError(f"rate must be in (0, 1), got {rate}")

    def shannon_gap(ebn0_db):
        return 1.0 - binary_entropy(bsc_crossover(ChannelParams(ebn0_db, rate))) - rate

    def mincap_gap(ebn0_db):
        return 1.0 + np.log2(1.0 - bsc_crossover(ChannelParams(ebn0_db, rate))) - rate

    shannon = _brentq(shannon_gap, -40.0, 60.0, xtol=1e-9)
    mincap = _brentq(mincap_gap, -40.0, 60.0, xtol=1e-9)
    return {"shannon_ebn0_db": float(shannon), "mincap_ebn0_db": float(mincap)}


def _brentq(f, xa, xb, xtol, maxiter=100):
    """A root of ``f`` in [xa, xb], by Brent's method in scipy's C form.

    Each step takes an inverse-quadratic (or secant) step when it is short
    enough and bisects otherwise; the search stops once the bracket is
    within xtol + rtol * |x| of the best point, with scipy's rtol = 4 eps.
    """
    rtol = 4 * math.ulp(1.0)
    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = float(f(xcur))
    raise RuntimeError(f"brentq failed to converge after {maxiter} iterations")
