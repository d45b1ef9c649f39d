"""Unit and property tests for GF(2^8) and Cauchy Reed-Solomon codes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec import CauchyRSCode, DecodeError, gf_add, gf_div, gf_inv, gf_mul, gf_pow
from repro.ec.matrix import cauchy_matrix, gf_mat_inv, gf_matmul, identity

elements = st.integers(0, 255)
nonzero = st.integers(1, 255)


class TestGF256:
    @given(a=elements, b=elements)
    def test_addition_is_xor_and_commutative(self, a, b):
        assert gf_add(a, b) == (a ^ b)
        assert gf_add(a, b) == gf_add(b, a)

    @given(a=elements)
    def test_additive_inverse_is_self(self, a):
        assert gf_add(a, a) == 0

    @given(a=elements, b=elements)
    def test_multiplication_commutative(self, a, b):
        assert gf_mul(a, b) == gf_mul(b, a)

    @given(a=elements, b=elements, c=elements)
    @settings(max_examples=120)
    def test_multiplication_associative(self, a, b, c):
        assert gf_mul(gf_mul(a, b), c) == gf_mul(a, gf_mul(b, c))

    @given(a=elements, b=elements, c=elements)
    @settings(max_examples=120)
    def test_distributive(self, a, b, c):
        assert gf_mul(a, gf_add(b, c)) == gf_add(gf_mul(a, b), gf_mul(a, c))

    @given(a=elements)
    def test_multiplicative_identity(self, a):
        assert gf_mul(a, 1) == a

    @given(a=elements)
    def test_multiply_by_zero(self, a):
        assert gf_mul(a, 0) == 0

    @given(a=nonzero)
    def test_inverse(self, a):
        assert gf_mul(a, gf_inv(a)) == 1

    def test_zero_has_no_inverse(self):
        with pytest.raises(ZeroDivisionError):
            gf_inv(0)

    @given(a=elements, b=nonzero)
    def test_division_inverts_multiplication(self, a, b):
        assert gf_mul(gf_div(a, b), b) == a

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            gf_div(1, 0)

    @given(a=nonzero, n=st.integers(0, 50))
    def test_pow_matches_repeated_multiplication(self, a, n):
        expected = 1
        for _ in range(n):
            expected = gf_mul(expected, a)
        assert gf_pow(a, n) == expected

    @given(a=nonzero)
    def test_pow_negative(self, a):
        assert gf_mul(gf_pow(a, -1), a) == 1

    def test_field_order(self):
        # The multiplicative group has order 255: a^255 == 1.
        for a in (2, 3, 29, 255):
            assert gf_pow(a, 255) == 1


class TestMatrices:
    def test_identity(self):
        eye = identity(4)
        assert eye.shape == (4, 4)
        assert eye[0, 0] == 1 and eye[0, 1] == 0

    def test_matmul_with_identity(self):
        rng = np.random.default_rng(1)
        matrix = rng.integers(0, 256, size=(4, 4), dtype=np.uint8)
        assert np.array_equal(gf_matmul(identity(4), matrix), matrix)
        assert np.array_equal(gf_matmul(matrix, identity(4)), matrix)

    def test_inverse_roundtrip(self):
        matrix = cauchy_matrix(4, 4)
        inverse = gf_mat_inv(matrix)
        assert np.array_equal(gf_matmul(matrix, inverse), identity(4))

    def test_singular_matrix_raises(self):
        singular = np.zeros((3, 3), dtype=np.uint8)
        singular[0] = [1, 2, 3]
        singular[1] = [1, 2, 3]
        singular[2] = [0, 0, 1]
        with pytest.raises(np.linalg.LinAlgError):
            gf_mat_inv(singular)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            gf_matmul(np.zeros((2, 3), dtype=np.uint8), np.zeros((2, 3), dtype=np.uint8))
        with pytest.raises(ValueError):
            gf_mat_inv(np.zeros((2, 3), dtype=np.uint8))

    def test_cauchy_every_square_submatrix_invertible(self):
        matrix = cauchy_matrix(3, 3)
        # All 1x1, 2x2 and the 3x3 submatrices must be invertible.
        from itertools import combinations

        for size in (1, 2, 3):
            for rows in combinations(range(3), size):
                for cols in combinations(range(3), size):
                    sub = matrix[np.ix_(rows, cols)]
                    gf_mat_inv(sub)  # must not raise

    def test_cauchy_size_limit(self):
        with pytest.raises(ValueError):
            cauchy_matrix(200, 100)


class TestCauchyRSCode:
    @pytest.mark.parametrize("k,m", [(2, 1), (3, 2), (5, 4), (1, 1), (4, 0)])
    def test_encode_decode_all_data_shards(self, k, m):
        code = CauchyRSCode(k, m)
        block = bytes(range(256)) * 4
        chunks = code.encode(block)
        assert len(chunks) == k + m
        decoded = code.decode({i: chunks[i] for i in range(k)}, len(block))
        assert decoded == block

    @pytest.mark.parametrize("k,m", [(2, 1), (3, 2), (4, 3)])
    def test_decode_from_any_k_subset(self, k, m):
        from itertools import combinations

        code = CauchyRSCode(k, m)
        block = b"The quick brown fox jumps over the lazy dog" * 10
        chunks = code.encode(block)
        for subset in combinations(range(k + m), k):
            decoded = code.decode({i: chunks[i] for i in subset}, len(block))
            assert decoded == block

    def test_systematic_property(self):
        """Data shards are verbatim slices of the (padded) block (§5.1)."""
        code = CauchyRSCode(2, 1)
        block = bytes(range(100))
        chunks = code.encode(block)
        size = code.chunk_size(len(block))
        padded = block + bytes(size * 2 - len(block))
        assert chunks[0] == padded[:size]
        assert chunks[1] == padded[size:]

    def test_reconstruct_restores_all_shards(self):
        code = CauchyRSCode(3, 2)
        block = b"data" * 100
        chunks = code.encode(block)
        rebuilt = code.reconstruct({0: chunks[0], 3: chunks[3], 4: chunks[4]}, len(block))
        assert rebuilt == chunks

    def test_too_few_chunks_raises(self):
        code = CauchyRSCode(3, 2)
        chunks = code.encode(b"x" * 90)
        with pytest.raises(DecodeError):
            code.decode({0: chunks[0], 1: chunks[1]}, 90)

    def test_wrong_chunk_size_raises(self):
        code = CauchyRSCode(2, 1)
        chunks = code.encode(b"x" * 64)
        with pytest.raises(DecodeError):
            code.decode({0: chunks[0], 1: chunks[1][:-1]}, 64)

    def test_memory_reduction_factor(self):
        """Fm+1 reduction: stored bytes per node ~ B / (Fm+1) (§5.1)."""
        for fm in (1, 2, 3):
            code = CauchyRSCode(fm + 1, fm)
            block_len = 1040
            per_node = code.chunk_size(block_len)
            assert per_node <= (block_len + fm) // (fm + 1) + 1
            total = per_node * (2 * fm + 1)
            assert total < block_len * (2 * fm + 1) / fm  # strictly less than replication

    def test_empty_block(self):
        code = CauchyRSCode(2, 1)
        chunks = code.encode(b"")
        assert code.decode({0: chunks[0], 2: chunks[2]}, 0) == b""

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            CauchyRSCode(0, 1)
        with pytest.raises(ValueError):
            CauchyRSCode(1, -1)
        with pytest.raises(ValueError):
            CauchyRSCode(200, 100)

    @given(
        data=st.binary(min_size=0, max_size=512),
        k=st.integers(1, 5),
        m=st.integers(0, 4),
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, data, k, m):
        code = CauchyRSCode(k, m)
        chunks = code.encode(data)
        # Decode from the *last* k shards (maximally parity-heavy subset).
        subset = {i: chunks[i] for i in range(m, k + m)}
        assert code.decode(subset, len(data)) == data

    @given(
        k=st.integers(1, 5),
        m=st.integers(0, 4),
        block_len=st.integers(0, 300),
        blocks=st.integers(1, 9),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=80)
    def test_a_run_encodes_to_its_blocks_chunks_concatenated_per_shard(
        self, k, m, block_len, blocks, seed
    ):
        import random

        code = CauchyRSCode(k, m)
        rng = random.Random(seed)
        run = [rng.randbytes(block_len) for _ in range(blocks)]
        per_block = [code.encode(block) for block in run]
        expected = [b"".join(chunks[shard] for chunks in per_block) for shard in range(k + m)]
        assert code.encode(b"".join(run), blocks) == expected

    def test_a_run_must_split_into_equal_blocks(self):
        with pytest.raises(ValueError):
            CauchyRSCode(2, 1).encode(b"x" * 10, 3)


class TestSeededErasureRoundTrips:
    """Property-style round trips under *random* erasure patterns.

    The happy-path suite always erases a fixed prefix/suffix of shards;
    real memory-node failures hit arbitrary subsets.  Each seed drives a
    reproducible stream of (payload, erasure-pattern) pairs with up to
    ``m`` erasures — the paper's tolerated-failure bound (§5.1).
    """

    @pytest.mark.parametrize("seed", [11, 29, 47])
    @pytest.mark.parametrize("k,m", [(2, 1), (3, 2), (4, 3), (5, 2)])
    def test_random_payload_random_erasures(self, seed, k, m):
        import random

        rng = random.Random(seed * 1_000 + k * 10 + m)
        code = CauchyRSCode(k, m)
        for _round in range(8):
            length = rng.randrange(0, 2_048)
            block = rng.randbytes(length)
            chunks = code.encode(block)
            erased = set(rng.sample(range(k + m), rng.randint(0, m)))
            surviving = {
                index: chunks[index]
                for index in range(k + m)
                if index not in erased
            }
            assert code.decode(surviving, length) == block
            # reconstruct() must also rebuild the erased shards verbatim.
            assert code.reconstruct(surviving, length) == chunks

    @pytest.mark.parametrize("seed", [5, 17])
    def test_one_erasure_beyond_f_fails_loudly(self, seed):
        import random

        rng = random.Random(seed)
        code = CauchyRSCode(3, 2)
        block = rng.randbytes(600)
        chunks = code.encode(block)
        erased = set(rng.sample(range(5), 3))  # m + 1 erasures
        surviving = {i: chunks[i] for i in range(5) if i not in erased}
        with pytest.raises(DecodeError):
            code.decode(surviving, len(block))

    @pytest.mark.parametrize("seed", [3, 13, 31])
    def test_gf256_random_matrix_solve_round_trip(self, seed):
        """gf256 linear algebra: random data through a Cauchy system and
        back through the inverse recovers the original exactly."""
        import random

        rng = random.Random(seed)
        size = rng.randint(2, 6)
        matrix = cauchy_matrix(size, size)
        data = np.array(
            [[rng.randrange(256) for _ in range(7)] for _ in range(size)],
            dtype=np.uint8,
        )
        encoded = gf_matmul(matrix, data)
        decoded = gf_matmul(gf_mat_inv(matrix), encoded)
        assert np.array_equal(decoded, data)
