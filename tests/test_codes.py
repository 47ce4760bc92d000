"""Code construction, membership, and CRC-division agreement."""

import pickle

import numpy as np
import pytest

from softgrand import codes
from softgrand.codes import (LinearCode, _crc_full_poly, crc_division_remainder,
                             encode, is_codeword, make_crc, make_rlc,
                             packed_parity_columns, syndrome)
from softgrand.decoder import decode_batch


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
        # [I | A^T] is orthogonal to H only while H's last n-k columns are
        # the identity, so an H without that block is refused and every
        # unit message encodes to a word of zero syndrome.
        h = make_rlc(8, 4, seed=3).parity_check
        with pytest.raises(ValueError, match=r"must be \(n-k\) x n"):
            LinearCode(8, 4, h[:, :7], "rlc", {})
        with pytest.raises(ValueError, match=r"must be \(n-k\) x n"):
            LinearCode(8, 5, h, "rlc", {})
        flipped = h.copy()
        flipped[0, 5] ^= 1
        with pytest.raises(ValueError, match="systematic"):
            LinearCode(8, 4, flipped, "rlc", {})
        code = LinearCode(8, 4, h, "rlc", {})
        assert np.array_equal(code.parity_check, h)
        generator = encode(code, np.eye(4, dtype=np.uint8))
        assert not ((generator.astype(np.int64) @ h.T.astype(np.int64)) % 2).any()

    def test_systematic_generator_enforced(self):
        # encode copies the message into the first k bits and reads the
        # parity bits through A, which holds only while H = [A | I].
        code = make_rlc(8, 4, seed=3)
        with pytest.raises(ValueError, match="systematic"):
            LinearCode(8, 4, code.parity_check[::-1], "rlc", {})
        msgs = np.random.default_rng(2).integers(0, 2, (16, 4), dtype=np.uint8)
        assert np.array_equal(encode(code, msgs)[:, :4], msgs)

    @pytest.mark.parametrize("spec, digest", [
        ((make_rlc, 128, 116, 1),
         "30a21ce87d6273e5cd612058d3ab8ff6dba136f1d261c4dd084b6f6a9ad1fb5f"),
        ((make_rlc, 16, 8, 5),
         "ded84297c0421bade27122b5c4aac704c20c1b653c9d9d9c8cd80ee6c4ba4a27"),
        ((make_crc, 64, 52, 0xBAE),
         "0dbee5e52219485c130dcaebbe6e1d85eb4773bdd3b613ebc4b6f45b4dd07619"),
        ((make_crc, 16, 8, 0x97),
         "5c82518775027338b1019247ae33dd7fb3ac8de8c9f8e3b798f88bf84ebdda85"),
    ], ids=["rlc-128-116-1", "rlc-16-8-5", "crc-64-52-0xBAE", "crc-16-8-0x97"])
    def test_parity_check_digest_pinned(self, spec, digest):
        # The run sidecars and the benchmark's checks compare this digest;
        # pinning it here keeps code construction from drifting.
        make, *args = spec
        assert make(*args).parity_check_sha256() == digest

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
        assert np.array_equal(code.parity_check[:, 7:], np.eye(5, dtype=np.uint8))

    def test_systematic_encoding_at_production_size(self):
        code = make_rlc(128, 116, seed=1)
        rng = np.random.default_rng(6)
        for _ in range(2000):
            msg = rng.integers(0, 2, size=116, dtype=np.uint8)
            assert np.array_equal(encode(code, msg)[:116], msg)

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

    @pytest.mark.parametrize("bad", [2, 0.5])
    def test_division_remainder_rejects_non_bits(self, bad):
        with pytest.raises(ValueError, match="word bits must be 0 or 1"):
            crc_division_remainder(make_crc(16, 8, 0x97), np.full(16, bad))


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

    @pytest.mark.parametrize("n, k, poly", [
        pytest.param(128, 116, None, id="128-116"),
        pytest.param(600, 576, None, id="600-576"),
        pytest.param(64, 52, 0xBAE, id="crc-64-52"),
    ])
    def test_encode_block_matches_rows(self, n, k, poly):
        # encode multiplies only by A; every word, encoded alone or in a
        # block, is still the product with the generator [I | A^T].  At
        # k=576 parity sums pass 255, past the range of uint8.
        code = make_rlc(n, k, seed=1) if poly is None else make_crc(n, k, poly)
        msgs = np.random.default_rng(4).integers(0, 2, (40, k), dtype=np.uint8)
        msgs[0] = 1
        block = encode(code, msgs)
        assert block.dtype == np.uint8
        generator = np.hstack([np.eye(k, dtype=np.int64), code.parity_check[:, :k].T])
        exact = (msgs.astype(np.int64) @ generator) % 2
        for msg, cw, want in zip(msgs, block, exact):
            assert np.array_equal(cw, want)
            assert np.array_equal(cw, encode(code, msg))

    def test_encode_length_guard(self):
        code = make_rlc(16, 8, seed=4)
        with pytest.raises(ValueError):
            encode(code, np.zeros(7, dtype=np.uint8))

    @pytest.mark.parametrize("bad, dtype", [(3, np.uint8), (255, np.uint8), (2, np.int64),
                                            (-1, np.int64), (0.5, float), (np.nan, float)])
    def test_values_must_be_bits(self, bad, dtype):
        # Cast to uint8 unchecked, 3s encoded to a "code word" of 3s, 0.5 to
        # zeros, and a word of 2s had the zero syndrome.
        code = make_rlc(16, 8, seed=4)
        msg = np.zeros((2, 8), dtype=dtype)
        msg[1, 3] = bad
        for m in (msg[1], msg):
            with pytest.raises(ValueError, match="message bits must be 0 or 1"):
                encode(code, m)
        for f in (syndrome, is_codeword):
            with pytest.raises(ValueError, match="word bits must be 0 or 1"):
                f(code, np.full(16, bad, dtype=dtype))

    def test_bool_and_int_bits_accepted(self):
        code = make_rlc(16, 8, seed=4)
        msg = np.random.default_rng(5).integers(0, 2, 8, dtype=np.uint8)
        cw = encode(code, msg)
        assert np.array_equal(encode(code, msg.astype(bool)), cw)
        assert np.array_equal(encode(code, msg.astype(np.int64)), cw)
        assert is_codeword(code, cw.astype(float))

    def test_packed_columns_match_matrix(self):
        code = make_rlc(20, 11, seed=9)
        packed = packed_parity_columns(code)
        h = code.parity_check
        for c in range(20):
            expect = sum(int(h[i, c]) << i for i in range(code.redundancy))
            assert int(packed[c]) == expect

    @pytest.mark.parametrize("n, k, dtype", [(40, 24, np.uint16), (40, 23, np.uint32),
                                             (48, 16, np.uint32), (48, 15, np.uint64)])
    def test_packed_columns_take_the_narrowest_dtype(self, n, k, dtype):
        # r = 16, 17, 32 and 33: the narrowest unsigned type that holds r bits
        code = make_rlc(n, k, seed=9)
        packed = packed_parity_columns(code)
        assert packed.dtype == dtype
        h = code.parity_check
        assert [int(v) for v in packed] == [
            sum(int(h[i, c]) << i for i in range(code.redundancy)) for c in range(n)]

    def test_unpickled_code_decodes_without_repacking(self, monkeypatch):
        # A pool task receives its code pickled; the packed columns travel with it.
        code = make_rlc(40, 28, seed=9)
        rng = np.random.default_rng(2)
        hard = rng.integers(0, 2, size=(8, 40), dtype=np.uint8)
        reliab = rng.exponential(1.0, size=(8, 40))
        want = decode_batch(code, hard, reliab, [None, 1.0], max_queries=500)

        def repack(parity_check):
            raise AssertionError("parity columns packed again")

        monkeypatch.setattr(codes, "_pack_columns", repack)
        copy = pickle.loads(pickle.dumps(code))
        packed = packed_parity_columns(copy)
        assert packed.dtype == np.uint16
        assert np.array_equal(packed, packed_parity_columns(code))
        got = decode_batch(copy, hard, reliab, [None, 1.0], max_queries=500)
        assert np.array_equal(got.q, want.q) and np.array_equal(got.status, want.status)
        assert np.array_equal(got.words, want.words)

    def test_wide_code_constructs_but_does_not_decode(self):
        code = make_rlc(72, 8, seed=1)  # n-k = 64
        with pytest.raises(ValueError, match="n-k <= 63"):
            packed_parity_columns(code)
        with pytest.raises(ValueError, match="n-k <= 63"):
            decode_batch(code, np.zeros((1, 72), np.uint8), np.ones((1, 72)), [None])
