"""Tests for the neural-network substrate."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import tensor as T
from repro.core.taxonomy import OpCategory
from repro.nn import (MLP, AvgPool2d, BatchNorm2d, Conv2d, Flatten,
                      GlobalAvgPool, Linear, MaxPool2d, ReLU, Residual,
                      Sequential, Softmax, conv_block, small_convnet)
from tests.conftest import ACCUMULATE_RTOL


class TestLinear:
    def test_shapes_and_determinism(self):
        layer = Linear(8, 4, seed=3)
        x = T.tensor(np.ones((5, 8), dtype=np.float32))
        out = layer(x)
        assert out.shape == (5, 4)
        layer2 = Linear(8, 4, seed=3)
        np.testing.assert_array_equal(layer.weight, layer2.weight)

    def test_bias_optional(self):
        layer = Linear(4, 2, bias=False)
        assert layer.bias is None
        out = layer(T.tensor(np.zeros((1, 4), dtype=np.float32)))
        np.testing.assert_allclose(out.numpy(), [[0, 0]])

    def test_matmul_category(self):
        layer = Linear(4, 2)
        with T.profile("t") as prof:
            layer(T.tensor(np.ones((1, 4), dtype=np.float32)))
        assert prof.trace.events[0].category is OpCategory.MATMUL

    def test_parameter_accounting(self):
        layer = Linear(8, 4)
        assert layer.num_parameters == 8 * 4 + 4
        assert layer.parameter_bytes == (8 * 4 + 4) * 4


class TestConvAndPool:
    def test_conv2d_layer(self):
        layer = Conv2d(2, 3, 3, padding=1, seed=1)
        out = layer(T.tensor(np.ones((1, 2, 8, 8), dtype=np.float32)))
        assert out.shape == (1, 3, 8, 8)

    def test_maxpool(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = MaxPool2d(2)(T.tensor(x))
        np.testing.assert_allclose(out.numpy()[0, 0], [[5, 7], [13, 15]])

    def test_avgpool(self):
        x = np.ones((1, 1, 4, 4), dtype=np.float32)
        out = AvgPool2d(2)(T.tensor(x))
        np.testing.assert_allclose(out.numpy()[0, 0], np.ones((2, 2)))

    def test_global_avgpool(self):
        x = np.ones((2, 3, 4, 4), dtype=np.float32) * 5
        out = GlobalAvgPool()(T.tensor(x))
        assert out.shape == (2, 3)
        np.testing.assert_allclose(out.numpy(), np.full((2, 3), 5.0))

    def test_batchnorm_shape_preserved(self):
        layer = BatchNorm2d(3, seed=0)
        out = layer(T.tensor(np.ones((2, 3, 4, 4), dtype=np.float32)))
        assert out.shape == (2, 3, 4, 4)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_batchnorm_matches_scale_then_shift(self, dtype):
        """The in-place shift gives the bits of ``x * scale + shift``."""
        layer = BatchNorm2d(4, seed=1)
        x = np.random.default_rng(0).standard_normal(
            (2, 4, 5, 5)).astype(dtype)
        scale = (layer.gamma / np.sqrt(layer.running_var + 1e-5)
                 ).reshape(1, 4, 1, 1)
        shift = (layer.beta - layer.running_mean * scale.reshape(4)
                 ).reshape(1, 4, 1, 1)
        want = x * scale + shift
        got = layer(T.tensor(x)).numpy()
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def _windows(a, k, s):
    """The reference pooling windows: a strided 6-D window view."""
    return np.lib.stride_tricks.sliding_window_view(
        a, (k, k), axis=(2, 3))[:, :, ::s, ::s]


_SPECIAL = st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 1.0, -1.0])


@st.composite
def _pool_case(draw, dtype, elements):
    k = draw(st.integers(1, 4))
    s = draw(st.integers(1, 4))
    h = draw(st.integers(k, 10))
    w = draw(st.integers(k, 10))
    shape = (draw(st.integers(1, 2)), draw(st.integers(1, 3)), h, w)
    return draw(arrays(dtype, shape, elements=elements)), k, s


class TestPoolContract:
    """Pooling kernels against the sliding-window reference."""

    @settings(max_examples=80, deadline=None)
    @given(case=st.one_of(
        _pool_case(np.float32, st.one_of(st.floats(width=32), _SPECIAL)),
        _pool_case(np.float64, st.one_of(st.floats(), _SPECIAL))))
    # overlapping windows, and a stride that does not divide h - k
    @example(case=(np.arange(64, dtype=np.float32).reshape(1, 1, 8, 8), 3, 2))
    @example(case=(np.array([[[[np.nan, -np.inf, 1.0],
                               [-np.inf, -np.inf, 2.0],
                               [0.0, -0.0, 3.0]]]]), 2, 1))
    # a window holding both zeros: the reference's sign depends on
    # numpy's reduction order, so only the value is pinned there
    @example(case=(np.array([[[[-0.0, -0.0, 0.0],
                               [-0.0, -0.0, -0.0],
                               [-0.0, -0.0, -0.0]]]]), 3, 1))
    def test_maxpool_bit_exact(self, case):
        x, k, s = case
        out = MaxPool2d(k, stride=s)(T.tensor(x)).numpy()
        windows = _windows(x, k, s)
        expected = windows.max(axis=(-2, -1))
        assert out.dtype == expected.dtype
        assert out.shape == expected.shape
        # NaN lands exactly where the reference has it, whatever its
        # payload; every other value is equal
        nan = np.isnan(expected)
        assert np.array_equal(np.isnan(out), nan)
        assert np.array_equal(out[~nan], expected[~nan])
        # bit-exact, signed zeros included, except a zero result from a
        # window holding both +0 and -0 (IEEE 754 leaves its sign open)
        zero = windows == 0
        mixed = ((zero & np.signbit(windows)).any(axis=(-2, -1))
                 & (zero & ~np.signbit(windows)).any(axis=(-2, -1))
                 & (expected == 0))
        exact = ~nan & ~mixed
        assert out[exact].tobytes() == expected[exact].tobytes()

    def test_pool_window_larger_than_input_raises(self):
        x = T.tensor(np.zeros((1, 1, 2, 5), dtype=np.float32))
        for layer in (MaxPool2d(3), AvgPool2d(3)):
            with pytest.raises(ValueError, match="window shape"):
                layer(x)

    @settings(max_examples=60, deadline=None)
    @given(case=st.one_of(
        _pool_case(np.float32, st.floats(-1e6, 1e6, width=32)),
        _pool_case(np.float64, st.floats(-1e6, 1e6))))
    def test_avgpool_within_contract(self, case):
        x, k, s = case
        out = AvgPool2d(k, stride=s)(T.tensor(x)).numpy()
        windows = _windows(x.astype(np.float64), k, s)
        expected = windows.mean(axis=(-2, -1))
        magnitude = np.abs(windows).mean(axis=(-2, -1))
        assert out.dtype == x.dtype
        assert out.shape == expected.shape
        rtol = ACCUMULATE_RTOL[out.dtype]
        assert np.all(np.abs(out - expected) <= rtol * magnitude)


class TestComposites:
    def test_sequential_and_flatten(self):
        net = Sequential(Flatten(), Linear(16, 4, seed=0), ReLU())
        out = net(T.tensor(np.ones((2, 1, 4, 4), dtype=np.float32)))
        assert out.shape == (2, 4)
        assert (out.numpy() >= 0).all()

    def test_residual_adds(self):
        class Zero:
            def __call__(self, x):
                return T.mul(x, 0.0)
        res = Residual(Zero())
        x = T.tensor(np.ones(4, dtype=np.float32))
        np.testing.assert_allclose(res(x).numpy(), [1, 1, 1, 1])

    def test_mlp_final_activations(self):
        x = T.tensor(np.random.default_rng(0).normal(
            size=(3, 6)).astype(np.float32))
        sig = MLP([6, 8, 2], final_activation="sigmoid")(x).numpy()
        assert ((sig > 0) & (sig < 1)).all()
        soft = MLP([6, 8, 4], final_activation="softmax")(x).numpy()
        np.testing.assert_allclose(soft.sum(axis=-1), np.ones(3), rtol=1e-5)

    def test_mlp_requires_two_sizes(self):
        with pytest.raises(ValueError):
            MLP([4])

    def test_conv_block_structure(self):
        block = conv_block(1, 8)
        out = block(T.tensor(np.ones((1, 1, 8, 8), dtype=np.float32)))
        assert out.shape == (1, 8, 8, 8)
        assert (out.numpy() >= 0).all()  # ReLU at the end

    def test_small_convnet_end_to_end(self):
        net = small_convnet(1, 10, seed=0)
        out = net(T.tensor(np.random.default_rng(1).normal(
            size=(4, 1, 32, 32)).astype(np.float32)))
        assert out.shape == (4, 10)
        assert net.num_parameters > 0

    def test_parameter_enumeration_recursive(self):
        net = Sequential(Linear(4, 4, seed=0), Sequential(Linear(4, 2, seed=1)))
        # 4*4+4 + 4*2+2
        assert net.num_parameters == 20 + 10

    def test_trace_categories_of_convnet(self):
        net = small_convnet(1, 5, seed=0)
        with T.profile("t") as prof:
            net(T.tensor(np.ones((1, 1, 16, 16), dtype=np.float32)))
        cats = {e.category for e in prof.trace}
        assert OpCategory.CONVOLUTION in cats
        assert OpCategory.MATMUL in cats
        assert OpCategory.ELEMENTWISE in cats
