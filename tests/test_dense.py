import numpy as np
import pytest

from tensorard import dense


class TestModeNProduct:
    def test_identity_matrix_is_identity(self):
        rng = np.random.default_rng(0)
        t = rng.standard_normal((2, 3, 4))
        for axis in range(3):
            eye = np.eye(t.shape[axis])
            np.testing.assert_array_equal(dense.mode_n_product(t, eye, axis), t)

    def test_ones_row_gives_mode_sums(self):
        rng = np.random.default_rng(1)
        t = rng.standard_normal((2, 3))
        ones = np.ones((1, 3))
        got = dense.mode_n_product(t, ones, 1)
        # brute-force summation over explicit loops
        expected = np.zeros((2, 1))
        for i in range(2):
            for j in range(3):
                expected[i, 0] += t[i, j]
        np.testing.assert_allclose(got, expected, rtol=1e-14)

    def test_shape_rule(self):
        rng = np.random.default_rng(2)
        t = rng.standard_normal((2, 3, 4))
        m = rng.standard_normal((5, 3))
        assert dense.mode_n_product(t, m, 1).shape == (2, 5, 4)

    def test_singleton_mode_retained(self):
        t = np.ones((2, 3))
        out = dense.mode_n_product(t, np.ones((1, 3)), 1)
        assert out.shape == (2, 1)

    def test_element_formula(self):
        rng = np.random.default_rng(3)
        t = rng.standard_normal((3, 4, 2))
        m = rng.standard_normal((5, 4))
        got = dense.mode_n_product(t, m, 1)
        expected = np.zeros((3, 5, 2))
        for i in range(3):
            for j in range(5):
                for k in range(2):
                    for a in range(4):
                        expected[i, j, k] += t[i, a, k] * m[j, a]
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_distinct_modes_commute(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            t = rng.standard_normal((3, 4, 5))
            a = rng.standard_normal((2, 3))
            b = rng.standard_normal((6, 5))
            ab = dense.mode_n_product(dense.mode_n_product(t, a, 0), b, 2)
            ba = dense.mode_n_product(dense.mode_n_product(t, b, 2), a, 0)
            np.testing.assert_allclose(ab, ba, atol=1e-12)

    def test_every_axis_of_a_transposed_view_matches_einsum(self):
        rng = np.random.default_rng(5)
        t = np.ascontiguousarray(rng.standard_normal((4, 1, 3, 2)).T).T
        letters = "abcd"
        for axis in range(4):
            m = rng.standard_normal((5, t.shape[axis]))
            out = letters.replace(letters[axis], "z")
            want = np.einsum(f"{letters},z{letters[axis]}->{out}", t, m)
            got = dense.mode_n_product(t, m, axis)
            assert got.flags.c_contiguous
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)

    def test_dimension_mismatch_rejected(self):
        t = np.zeros((2, 3))
        with pytest.raises(ValueError, match="shape mismatch"):
            dense.mode_n_product(t, np.zeros((4, 5)), 1)


class TestFolding:
    def test_mnist_layer_shape(self):
        w = np.zeros((784, 512))
        assert dense.fold_matrix(w, [28, 28, 16, 32]).shape == (28, 28, 16, 32)

    def test_round_trip_exact(self):
        rng = np.random.default_rng(5)
        w = rng.standard_normal((6, 4))
        back = dense.unfold_matrix(dense.fold_matrix(w, [2, 3, 4]), 6, 4)
        np.testing.assert_array_equal(back, w)

    def test_row_major_layout(self):
        w = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(dense.fold_matrix(w, [4]), [1.0, 2.0, 3.0, 4.0])

    def test_product_mismatch_rejected(self):
        with pytest.raises(ValueError, match="product"):
            dense.fold_matrix(np.zeros((2, 3)), [2, 2])

    def test_round_trip_many_dims(self):
        rng = np.random.default_rng(6)
        w = rng.standard_normal((8, 6))
        for dims in ([48], [8, 6], [2, 4, 6], [4, 2, 3, 2], [6, 8]):
            back = dense.unfold_matrix(dense.fold_matrix(w, dims), 8, 6)
            np.testing.assert_array_equal(back, w)


class TestPairedFolding:
    def test_mnist_ttm_shape(self):
        w = np.zeros((784, 512))
        t = dense.fold_matrix_paired(w, [4, 7, 4, 7], [4, 4, 8, 4])
        assert t.shape == (4, 7, 4, 7, 4, 4, 8, 4)

    def test_mixed_radix_entry_map(self):
        rng = np.random.default_rng(7)
        w = rng.standard_normal((6, 6))
        t = dense.fold_matrix_paired(w, [2, 3], [3, 2])
        for i in range(6):
            for j in range(6):
                i1, i2 = divmod(i, 3)
                j1, j2 = divmod(j, 2)
                assert t[i1, i2, j1, j2] == w[i, j]

    def test_inverse_recovers_exactly(self):
        rng = np.random.default_rng(8)
        w = rng.standard_normal((6, 6))
        t = dense.fold_matrix_paired(w, [2, 3], [3, 2])
        np.testing.assert_array_equal(dense.unfold_matrix_paired(t), w)

    def test_degenerate_one_by_one(self):
        t = dense.fold_matrix_paired(np.array([[3.5]]), [1], [1])
        assert t.shape == (1, 1)
        assert t[0, 0] == 3.5

    def test_product_mismatch_rejected(self):
        with pytest.raises(ValueError, match="factor"):
            dense.fold_matrix_paired(np.zeros((6, 6)), [2, 2], [3, 2])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            dense.fold_matrix_paired(np.zeros((6, 6)), [2, 3], [6])


def test_khatri_rao_columns_are_kron():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((5, 4))
    kr = dense.khatri_rao([a, b])
    for r in range(4):
        np.testing.assert_allclose(kr[:, r], np.kron(a[:, r], b[:, r]), atol=1e-13)
