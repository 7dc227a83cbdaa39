import numpy as np
import pytest

import panemo
from panemo import autodiff as ad
from panemo.autodiff import Tape, Tensor, backward
from panemo.errors import (
    DeterminismError,
    EmptySequenceError,
    ShapeError,
    TapeConsumedError,
)
from panemo.verify import (
    add,
    concat_features,
    grad_check,
    masked_softmax,
    matmul,
    mul,
    mul_const,
    sigmoid,
    tanh,
    tensor_sum,
)


def naive_matmul(a, b):
    """Triple-loop oracle."""
    m, k = len(a), len(a[0])
    n = len(b[0])
    out = [[0.0] * n for _ in range(m)]
    for i in range(m):
        for j in range(n):
            for p in range(k):
                out[i][j] += a[i][p] * b[p][j]
    return np.array(out)


class TestMatmul:
    def test_identity(self):
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        out = matmul(Tensor(np.eye(2)), b)
        np.testing.assert_array_equal(out.data, b.data)

    def test_zeros(self):
        out = matmul(Tensor(np.zeros((2, 3))), Tensor(np.ones((3, 4))))
        np.testing.assert_array_equal(out.data, np.zeros((2, 4)))

    def test_against_triple_loop(self):
        a = [[1.0, 2.0], [3.0, 4.0]]
        b = [[5.0], [6.0]]
        out = matmul(Tensor(a), Tensor(b))
        np.testing.assert_array_equal(out.data, [[17.0], [39.0]])
        np.testing.assert_array_equal(out.data, naive_matmul(a, b))

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_associativity_on_random_triples(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a, b, c = (Tensor(rng.uniform(-1, 1, (4, 4))) for _ in range(3))
            left = matmul(matmul(a, b), c).data
            right = matmul(a, matmul(b, c)).data
            np.testing.assert_allclose(left, right, atol=1e-10)


class TestActivation:
    """``sigmoid`` and ``tanh``, the per-step GRU oracle's activations."""

    def test_sigmoid_at_zero(self):
        assert sigmoid(Tensor([0.0])).data[0] == 0.5

    def test_tanh_at_zero(self):
        assert tanh(Tensor([0.0])).data[0] == 0.0

    def test_sigmoid_closed_form(self):
        # sigmoid(ln 3) = 3 / (1 + 3)
        out = sigmoid(Tensor([np.log(3.0)]))
        np.testing.assert_allclose(out.data[0], 0.75, atol=1e-15)

    def test_ranges(self):
        x = Tensor(np.linspace(-50, 50, 101))
        s = sigmoid(x).data
        t = tanh(x).data
        assert np.all((s >= 0) & (s <= 1))
        assert np.all((t >= -1) & (t <= 1))


class TestMaskedSoftmax:
    """The attention oracle's masked softmax, on rows of (B, T) scores."""

    def test_uniform(self):
        out = masked_softmax(Tensor([[0.0, 0.0, 0.0]]), [[1, 1, 1]])
        np.testing.assert_allclose(out.data, [[1 / 3] * 3], atol=1e-15)

    def test_single_valid(self):
        out = masked_softmax(Tensor([[5.0]]), [[1]])
        np.testing.assert_array_equal(out.data, [[1.0]])

    def test_ln2_case(self):
        out = masked_softmax(Tensor([[np.log(2.0), 0.0]]), [[1, 1]])
        np.testing.assert_allclose(out.data, [[2 / 3, 1 / 3]], atol=1e-15)

    def test_masked_positions_exactly_zero(self):
        out = masked_softmax(Tensor([[1.0, 2.0, 3.0]]), [[1, 0, 1]])
        assert out.data[0, 1] == 0.0
        assert abs(out.data[0, 0] + out.data[0, 2] - 1.0) < 1e-12

    def test_all_masked_raises(self):
        with pytest.raises(EmptySequenceError):
            masked_softmax(Tensor([[1.0, 2.0], [3.0, 4.0]]), [[1, 1], [0, 0]])

    def test_large_scores_stable(self):
        out = masked_softmax(Tensor([[1000.0, 999.0]]), [[1, 1]])
        assert np.all(np.isfinite(out.data))
        assert abs(out.data.sum() - 1.0) < 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            s = rng.uniform(-5, 5, (1, 7))
            mask = rng.integers(0, 2, (1, 7))
            if mask.sum() == 0:
                mask[0, 0] = 1
            a = masked_softmax(Tensor(s), mask).data
            b = masked_softmax(Tensor(s + 11.3), mask).data
            np.testing.assert_allclose(a, b, atol=1e-12)


class TestConcat:
    def test_single_part_identity(self):
        a = Tensor(np.arange(6.0).reshape(3, 2))
        np.testing.assert_array_equal(concat_features([a]).data, a.data)

    def test_zeros(self):
        out = concat_features([Tensor(np.zeros((2, 1))), Tensor(np.zeros((2, 3)))])
        np.testing.assert_array_equal(out.data, np.zeros((2, 4)))

    def test_index_arithmetic(self):
        a = Tensor([[1.0], [2.0]])
        b = Tensor([[3.0, 4.0], [5.0, 6.0]])
        out = concat_features([a, b])
        np.testing.assert_array_equal(out.data, [[1, 3, 4], [2, 5, 6]])

    def test_leading_mismatch(self):
        with pytest.raises(ShapeError):
            concat_features([Tensor(np.ones((2, 1))), Tensor(np.ones((3, 1)))])


class TestBackward:
    def test_sum_gives_ones(self):
        p = Tensor(np.arange(4.0).reshape(2, 2), trainable=True)
        with Tape() as tape:
            loss = tensor_sum(p)
        backward(loss, tape)
        np.testing.assert_array_equal(p.grad, np.ones((2, 2)))

    def test_unreachable_param_zero_grad(self):
        p = Tensor(np.ones((2, 2)), trainable=True)
        q = Tensor(np.ones((2, 2)), trainable=True)
        with Tape() as tape:
            loss = tensor_sum(q)
        backward(loss, tape)
        np.testing.assert_array_equal(p.grad, np.zeros((2, 2)))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        p = Tensor(rng.uniform(-1, 1, (2, 3)), trainable=True)
        q = Tensor(rng.uniform(-1, 1, (3, 2)), trainable=True)

        def f():
            return tensor_sum(sigmoid(matmul(p, q)))

        err = grad_check(f, [p, q])
        assert err < 1e-6

    def test_frozen_leaf_untouched(self):
        frozen = Tensor(np.ones((2, 2)), trainable=False)
        with Tape() as tape:
            loss = tensor_sum(mul(frozen, frozen))
        backward(loss, tape)
        assert frozen.grad is None

    def test_non_scalar_loss_rejected(self):
        p = Tensor(np.ones(3), trainable=True)
        with Tape() as tape:
            out = sigmoid(p)
        with pytest.raises(ShapeError):
            backward(out, tape)

    def test_tape_consumed_on_use(self):
        p = Tensor(np.ones(3), trainable=True)
        with Tape() as tape:
            loss = tensor_sum(p)
        backward(loss, tape)
        assert len(tape) == 0  # the rules, and what they saved, are released
        with pytest.raises(TapeConsumedError):
            backward(loss, tape)

    def test_additive_accumulation_on_reuse(self):
        # x feeds two branches; gradients must add
        x = Tensor(np.array([2.0]), trainable=True)
        with Tape() as tape:
            loss = ad.add_scalars([tensor_sum(x), tensor_sum(mul(x, x))])
        backward(loss, tape)
        np.testing.assert_allclose(x.grad, [1.0 + 4.0])

    def test_nested_tape_rejected(self):
        with Tape() as outer:
            with pytest.raises(RuntimeError, match="already recording"):
                with Tape():
                    pass
            assert ad.current_tape() is outer
        assert ad.current_tape() is None
        with Tape() as tape:  # a finished tape leaves room for the next
            tensor_sum(Tensor(np.ones(2), trainable=True))
        assert len(tape) == 1


class TestGradCheck:
    def test_constant_function(self):
        p = Tensor(np.array([1.0, 2.0]), trainable=True)
        assert grad_check(lambda: Tensor(3.0), [p]) == 0.0

    def test_quadratic_closed_form(self):
        p = Tensor(np.array([1.0, 2.0]), trainable=True)

        def f():
            return tensor_sum(mul(p, p))

        with Tape() as tape:
            loss = f()
        backward(loss, tape)
        np.testing.assert_array_equal(p.grad, [2.0, 4.0])
        p.zero_grad()
        assert grad_check(f, [p]) < 1e-9

    def test_nondeterminism_detected(self):
        rng = np.random.default_rng(3)
        p = Tensor(np.array([1.0]), trainable=True)

        def f():
            return Tensor(rng.random())

        with pytest.raises(DeterminismError):
            grad_check(f, [p])

    def test_exported_from_package(self):
        assert panemo.grad_check is grad_check


def test_every_op_gradient_vs_finite_differences():
    """Randomized check across all generic tape ops: ``add_scalars`` and the
    oracle ops of ``verify``."""
    rng = np.random.default_rng(4)
    a = Tensor(rng.uniform(-1, 1, (3, 4)), trainable=True)
    b = Tensor(rng.uniform(-1, 1, (4, 3)), trainable=True)
    bias = Tensor(rng.uniform(-1, 1, 3), trainable=True)
    col = Tensor(rng.uniform(0.5, 1.5, (3, 1)), trainable=True)
    scores = Tensor(rng.uniform(-1, 1, (3, 4)), trainable=True)
    mask = np.array([[1, 1, 0, 1], [1, 0, 1, 1], [1, 1, 1, 0]], dtype=float)
    factors = rng.uniform(-2, 2, (3, 3))

    def f():
        m = add(matmul(a, b), bias)
        m = mul(tanh(m), col)
        sm = masked_softmax(scores, mask)
        cat = concat_features([m, sm, mul_const(m, factors)])
        return ad.add_scalars(
            [tensor_sum(sigmoid(cat)), tensor_sum(mul_const(mul(a, a), 0.1))]
        )

    err = grad_check(f, [a, b, bias, col, scores])
    assert err < 1e-6
