"""Code construction, membership, and CRC-division agreement."""

import numpy as np
import pytest

from softgrand.codes import (LinearCode, _crc_full_poly, crc_division_remainder,
                             encode, is_codeword, make_crc, make_rlc,
                             packed_parity_columns, syndrome)


def gf2_rank(m):
    m = m.copy() % 2
    rank = 0
    rows, cols = m.shape
    for c in range(cols):
        pivot = None
        for r in range(rank, rows):
            if m[r, c]:
                pivot = r
                break
        if pivot is None:
            continue
        m[[rank, pivot]] = m[[pivot, rank]]
        for r in range(rows):
            if r != rank and m[r, c]:
                m[r] ^= m[rank]
        rank += 1
    return rank


class TestLinearCode:
    def test_orthogonality_enforced(self):
        code = make_rlc(8, 4, seed=3)
        bad = code.parity_check.copy()
        bad[0, 0] ^= 1
        with pytest.raises(ValueError):
            LinearCode(8, 4, code.generator, bad, "rlc", {})

    def test_rate_and_redundancy(self):
        code = make_rlc(128, 116, seed=1)
        assert code.redundancy == 12
        assert code.rate == 116 / 128

    def test_parity_check_full_rank(self):
        for seed in (1, 2, 3):
            code = make_rlc(24, 14, seed=seed)
            assert gf2_rank(code.parity_check) == 10

    def test_hex_rows_and_digest_stable(self):
        a = make_rlc(16, 8, seed=5)
        b = make_rlc(16, 8, seed=5)
        assert a.parity_check_hex_rows() == b.parity_check_hex_rows()
        assert a.parity_check_sha256() == b.parity_check_sha256()
        c = make_rlc(16, 8, seed=6)
        assert a.parity_check_sha256() != c.parity_check_sha256()


class TestRlc:
    def test_deterministic_given_seed(self):
        a = make_rlc(128, 116, seed=1)
        b = make_rlc(128, 116, seed=1)
        assert np.array_equal(a.parity_check, b.parity_check)
        assert np.array_equal(a.generator, b.generator)

    def test_column_conditioning(self):
        code = make_rlc(32, 20, seed=7)
        h = code.parity_check
        packed = [int(sum(int(h[i, c]) << i for i in range(12))) for c in range(32)]
        assert 0 not in packed
        assert len(set(packed)) == 32
        # every parity bit touches at least one message bit
        assert not np.any(~h[:, :20].any(axis=1))

    def test_systematic_layout(self):
        code = make_rlc(12, 7, seed=2)
        assert np.array_equal(code.generator[:, :7], np.eye(7, dtype=np.uint8))
        assert np.array_equal(code.parity_check[:, 7:], np.eye(5, dtype=np.uint8))

    def test_shape_guards(self):
        with pytest.raises(ValueError):
            make_rlc(8, 0, seed=1)
        with pytest.raises(ValueError):
            make_rlc(8, 8, seed=1)
        with pytest.raises(ValueError):
            make_rlc(8, 7, seed=1)  # one redundant bit
        with pytest.raises(ValueError):
            make_rlc(9, 7, seed=1)  # 9 distinct nonzero columns of height 2

    def test_codebook_cardinality_8_4(self):
        code = make_rlc(8, 4, seed=3)
        members = 0
        for w in range(256):
            bits = np.array([(w >> i) & 1 for i in range(8)], dtype=np.uint8)
            members += is_codeword(code, bits)
        assert members == 16


class TestCrc:
    def test_koopman_expansion(self):
        assert _crc_full_poly(0x5, 3) == 0xB
        assert _crc_full_poly(0xBAE, 12) == 0x175D
        with pytest.raises(ValueError):
            _crc_full_poly(0x5, 4)  # wrong significant-bit count

    def test_membership_equals_division_exhaustive(self):
        code = make_crc(8, 5, 0x5)
        members = 0
        for w in range(256):
            bits = np.array([(w >> i) & 1 for i in range(8)], dtype=np.uint8)
            by_matrix = is_codeword(code, bits)
            by_division = crc_division_remainder(code, bits) == 0
            assert by_matrix == by_division
            members += by_matrix
        assert members == 32

    def test_encode_division_remainder_zero(self):
        code = make_crc(64, 52, 0xBAE)
        rng = np.random.default_rng(0)
        for _ in range(50):
            msg = rng.integers(0, 2, 52, dtype=np.uint8)
            cw = encode(code, msg)
            assert np.array_equal(cw[:52], msg)
            assert crc_division_remainder(code, cw) == 0
            assert is_codeword(code, cw)

    def test_wide_code_32_29(self):
        code = make_crc(32, 29, 0x5)
        assert code.redundancy == 3
        rng = np.random.default_rng(1)
        msg = rng.integers(0, 2, 29, dtype=np.uint8)
        assert crc_division_remainder(code, encode(code, msg)) == 0

    def test_bad_polynomial_width(self):
        with pytest.raises(ValueError):
            make_crc(64, 52, 0x5)  # 3 significant bits, needs 12


class TestMembership:
    def test_syndrome_linear(self):
        code = make_rlc(16, 8, seed=4)
        rng = np.random.default_rng(2)
        a = rng.integers(0, 2, 16, dtype=np.uint8)
        b = rng.integers(0, 2, 16, dtype=np.uint8)
        assert np.array_equal(syndrome(code, a ^ b),
                              syndrome(code, a) ^ syndrome(code, b))

    def test_encode_is_member(self):
        code = make_rlc(16, 8, seed=4)
        rng = np.random.default_rng(3)
        for _ in range(20):
            msg = rng.integers(0, 2, 8, dtype=np.uint8)
            assert is_codeword(code, encode(code, msg))

    @pytest.mark.parametrize("n,k", [(128, 116), (600, 576)])
    def test_encode_block_matches_rows(self, n, k):
        # At k=576 parity sums pass 255, past the range of uint8.
        code = make_rlc(n, k, seed=1)
        msgs = np.random.default_rng(4).integers(0, 2, (40, k), dtype=np.uint8)
        msgs[0] = 1
        block = encode(code, msgs)
        assert block.dtype == np.uint8
        exact = (msgs.astype(np.int64) @ code.generator.astype(np.int64)) % 2
        for msg, cw, want in zip(msgs, block, exact):
            assert np.array_equal(cw, want)
            assert np.array_equal(cw, encode(code, msg))

    def test_encode_length_guard(self):
        code = make_rlc(16, 8, seed=4)
        with pytest.raises(ValueError):
            encode(code, np.zeros(7, dtype=np.uint8))

    def test_packed_columns_match_matrix(self):
        code = make_rlc(20, 11, seed=9)
        packed = packed_parity_columns(code)
        h = code.parity_check
        for c in range(20):
            expect = sum(int(h[i, c]) << i for i in range(code.redundancy))
            assert int(packed[c]) == expect
