"""Build the two code families and poke at their structure.

Run:  python3 demos/01_code_construction.py
"""

import numpy as np

from softgrand import codes

# a random linear code is its parity-check matrix H = [A | I], drawn from a
# seeded stream; G = [I | A^T] generates it, so the first k bits of every
# code word are the message itself
rlc = codes.make_rlc(16, 8, seed=4)
print("random linear code:", rlc.descriptor)
print("rate =", rlc.rate, " redundancy =", rlc.redundancy)
print("H (one hex row per check equation):")
for row in rlc.parity_check_hex_rows():
    print("   ", row)
print("H fingerprint:", rlc.parity_check_sha256()[:16], "...")

# orthogonality: every row of the generator built from H has zero syndrome
A = rlc.parity_check[:, :rlc.k]
G = np.hstack([np.eye(rlc.k, dtype=np.uint8), A.T])
print("G H^T == 0:", not (G @ rlc.parity_check.T % 2).any())

# encode a message and check membership
msg = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.uint8)
cw = codes.encode(rlc, msg)
print("message     :", msg)
print("code word   :", cw)
print("is_codeword :", codes.is_codeword(rlc, cw))
cw[3] ^= 1
print("after 1 flip:", codes.is_codeword(rlc, cw))

# a CRC code from a polynomial in Koopman form: the hex value's top bit is
# the leading coefficient and the trailing +1 is implicit, so the bit length
# of the Koopman value equals the redundancy
crc = codes.make_crc(64, 52, 0xBAE)
print()
print("crc code:", crc.descriptor)
print("koopman 0xbae -> full polynomial", hex((0xBAE << 1) | 1))

# CRC encoding appends the polynomial-division remainder; check that every
# encoded word divides cleanly
msg = np.random.default_rng(0).integers(0, 2, size=52, dtype=np.uint8)
cw = codes.encode(crc, msg)
print("remainder of encoded word:", codes.crc_division_remainder(crc, cw))

# code book size is exactly 2^k (exhaustive on a small instance)
small = codes.make_rlc(10, 4, seed=7)
members = sum(
    codes.is_codeword(small, np.array([(w >> i) & 1 for i in range(10)],
                                      dtype=np.uint8))
    for w in range(1 << 10))
print()
print("small [10,4] code book size:", members, "== 2^4 =", 1 << 4)
