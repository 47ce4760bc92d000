"""Binary linear block codes over GF(2): random linear codes and CRC codes.

Code words, messages and noise patterns are plain numpy arrays of 0/1
values (dtype uint8).  A code is described by a systematic generator
matrix ``G = [I_k | P]`` and the matching parity-check matrix
``H = [P^T | I_{n-k}]``, so membership testing is a syndrome computation
and never a codebook lookup.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = [
    "MAX_REDUNDANCY",
    "LinearCode",
    "make_rlc",
    "make_crc",
    "encode",
    "is_codeword",
    "syndrome",
    "packed_parity_columns",
]

# Largest n-k the decoder handles: it packs each parity-check column in a uint64.
MAX_REDUNDANCY = 63


class LinearCode:
    """An (n, k) binary linear block code in systematic form.

    Immutable after construction; instances can be shared freely across
    worker processes.  ``kind`` is "rlc" or "crc"; ``descriptor`` holds the
    construction parameters (seed or polynomial) so a code can be rebuilt
    from run metadata.
    """

    def __init__(self, n, k, generator, parity_check, kind, descriptor):
        self.n = int(n)
        self.k = int(k)
        self.generator = np.ascontiguousarray(generator, dtype=np.uint8)
        self.parity_check = np.ascontiguousarray(parity_check, dtype=np.uint8)
        self.kind = kind
        self.descriptor = dict(descriptor)
        self._packed_columns = None
        if self.generator.shape != (self.k, self.n):
            raise ValueError("generator must be k x n")
        if self.parity_check.shape != (self.n - self.k, self.n):
            raise ValueError("parity_check must be (n-k) x n")
        # G H^T = 0 over GF(2) is forced by the systematic construction;
        # verify anyway so a broken constructor cannot produce a code.
        if np.any((self.generator @ self.parity_check.T) % 2):
            raise ValueError("generator and parity_check are not orthogonal")

    @property
    def redundancy(self):
        return self.n - self.k

    @property
    def rate(self):
        return self.k / self.n

    def parity_check_hex_rows(self):
        """Rows of H as hex strings (column 0 is the most significant bit).

        Intended for cross-implementation comparison of constructed codes.
        """
        width = (self.n + 3) // 4
        rows = []
        for row in self.parity_check:
            value = int("".join("1" if b else "0" for b in row), 2)
            rows.append(f"{value:0{width}x}")
        return rows

    def parity_check_sha256(self):
        return hashlib.sha256("\n".join(self.parity_check_hex_rows()).encode()).hexdigest()

    def __repr__(self):
        return f"LinearCode({self.kind}[{self.n},{self.k}])"


def _pack_column(bits):
    """Pack a column (length r <= MAX_REDUNDANCY) into an int, bit i = row i."""
    value = 0
    for i, b in enumerate(bits):
        if b:
            value |= 1 << i
    return value


def make_rlc(n, k, seed):
    """Construct a random linear code from a Bernoulli(1/2) parity matrix.

    The parity-check matrix is ``[A | I_{n-k}]`` with A drawn column by
    column (ascending column index) from i.i.d. fair bits, rejecting any
    column that is all-zero or that repeats an earlier column of the full
    parity-check matrix.  If the finished A has an all-zero row, the whole
    pass is redrawn from the same stream.  A seed therefore fully
    determines the code.
    """
    n, k = int(n), int(k)
    if not 0 < k < n:
        raise ValueError(f"need 0 < k < n, got n={n} k={k}")
    r = n - k
    if r < 2:
        raise ValueError("need n - k >= 2")
    if n > 2**r - 1:
        raise ValueError(f"n={n} distinct nonzero columns of height {r} do not exist")

    rng = np.random.default_rng(seed)
    identity_cols = {1 << i for i in range(r)}
    # 20000 passes keeps even near-degenerate shapes (tiny k, large r, where
    # almost every draw leaves some row uncovered) below ~1e-6 failure odds
    # for the shapes this library targets.
    for _attempt in range(20000):
        taken = set(identity_cols)
        cols = np.empty((r, k), dtype=np.uint8)
        for c in range(k):
            while True:
                col = rng.integers(0, 2, size=r, dtype=np.uint8)
                packed = _pack_column(col)
                if packed != 0 and packed not in taken:
                    break
            taken.add(packed)
            cols[:, c] = col
        if not np.any(~cols.any(axis=1)):
            break
    else:
        raise RuntimeError(f"could not draw an A matrix with no all-zero row for n={n} k={k}")

    parity_check = np.hstack([cols, np.eye(r, dtype=np.uint8)])
    generator = np.hstack([np.eye(k, dtype=np.uint8), cols.T])
    return LinearCode(n, k, generator, parity_check, "rlc",
                      {"kind": "rlc", "n": n, "k": k, "seed": int(seed)})


def _crc_full_poly(poly_koopman, r):
    """Expand a Koopman-notation polynomial to its full coefficient integer.

    Koopman notation writes the coefficients of x^r .. x^1 (top set bit is
    the x^r term) and leaves the always-present x^0 term implicit, so the
    hex value of a degree-r polynomial has exactly r significant bits.
    """
    poly_koopman = int(poly_koopman)
    if poly_koopman <= 0:
        raise ValueError("CRC polynomial must be a positive integer")
    if poly_koopman.bit_length() != r:
        raise ValueError(
            f"Koopman polynomial {hex(poly_koopman)} has degree "
            f"{poly_koopman.bit_length()}, expected n-k = {r}")
    return (poly_koopman << 1) | 1


def crc_remainder(word_int, nbits, full_poly, r):
    """Remainder of a polynomial (packed MSB-first in ``word_int``) mod full_poly."""
    v = word_int
    for pos in range(nbits - 1, r - 1, -1):
        if v >> pos & 1:
            v ^= full_poly << (pos - r)
    return v


def _bits_to_int(bits):
    value = 0
    for b in bits:
        value = value << 1 | int(b)
    return value


def _int_to_bits(value, width):
    return np.array([value >> (width - 1 - i) & 1 for i in range(width)], dtype=np.uint8)


def make_crc(n, k, poly_koopman):
    """Construct the systematic CRC code of the given Koopman polynomial.

    A code word is the k message bits followed by the (n-k)-bit remainder
    of message(x) * x^(n-k) divided by the polynomial; a word belongs to
    the code iff the polynomial divides it.  The generator/parity-check
    matrices are derived from that definition, so matrix membership and
    division membership agree bit-exactly.
    """
    n, k = int(n), int(k)
    if k <= 0 or k >= n:
        raise ValueError(f"need 0 < k < n, got n={n} k={k}")
    r = n - k
    full_poly = _crc_full_poly(poly_koopman, r)

    generator = np.zeros((k, n), dtype=np.uint8)
    for i in range(k):
        rem = crc_remainder(1 << (k - 1 - i) << r, n, full_poly, r)
        generator[i, i] = 1
        generator[i, k:] = _int_to_bits(rem, r)
    parity = generator[:, k:]
    parity_check = np.hstack([parity.T, np.eye(r, dtype=np.uint8)])
    code = LinearCode(n, k, generator, parity_check, "crc",
                      {"kind": "crc", "n": n, "k": k, "poly": hex(int(poly_koopman))})
    code._full_poly = full_poly
    return code


def crc_division_remainder(code, word):
    """Remainder of a full received word under the code's polynomial."""
    if code.kind != "crc":
        raise ValueError("not a CRC code")
    word = np.asarray(word)
    if word.shape != (code.n,):
        raise ValueError("word length mismatch")
    return crc_remainder(_bits_to_int(word), code.n, code._full_poly, code.redundancy)


def encode(code, message):
    """Encode a k-bit message, or each row of a (B, k) block of messages.

    Systematic, so the first k bits of a code word are its message.
    """
    message = np.asarray(message, dtype=np.uint8)
    if message.ndim not in (1, 2) or message.shape[-1] != code.k:
        raise ValueError(f"message must have length k={code.k}")
    # uint8 sums wrap modulo 256, which keeps their parity.  Not a BLAS
    # product: its threads oversubscribe the cores under a process pool.
    return np.einsum("...k,kn->...n", message, code.generator) & 1


def syndrome(code, word):
    word = np.asarray(word, dtype=np.uint8)
    if word.shape != (code.n,):
        raise ValueError(f"word must have length n={code.n}")
    return (code.parity_check @ word) % 2


def is_codeword(code, word):
    """Membership test: parity_check @ word == 0 over GF(2)."""
    return not np.any(syndrome(code, word))


def packed_parity_columns(code):
    """Columns of H packed into uint64 (bit i = row i), cached on the code.

    Lets the decoding loop evaluate syndromes of flip patterns by XORing a
    few integers instead of multiplying matrices.  Requires n-k <= MAX_REDUNDANCY.
    """
    if code._packed_columns is None:
        if code.redundancy > MAX_REDUNDANCY:
            raise ValueError(f"packed syndromes support n-k <= {MAX_REDUNDANCY}")
        packed = np.zeros(code.n, dtype=np.uint64)
        for j in range(code.n):
            packed[j] = _pack_column(code.parity_check[:, j])
        code._packed_columns = packed
    return code._packed_columns
