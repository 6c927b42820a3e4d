import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from hifbench import layers as L


def naive_conv(x, weights, bias):
    """Reference valid cross-correlation, quadruple loop, innermost fastest."""
    out_ch, in_ch, k = weights.shape
    out_len = x.shape[1] - k + 1
    out = np.empty((out_ch, out_len))
    for o in range(out_ch):
        for t in range(out_len):
            acc = bias[o]
            for c in range(in_ch):
                for i in range(k):
                    acc += weights[o, c, i] * x[c, t + i]
            out[o, t] = acc
    return out


def naive_maxpool(x, width, stride):
    """Reference max pool keeping the first index on ties."""
    channels, length = x.shape
    out_len = (length - width) // stride + 1
    out = np.empty((channels, out_len))
    arg = np.empty((channels, out_len), dtype=int)
    for c in range(channels):
        for t in range(out_len):
            lo = t * stride
            window = x[c, lo : lo + width]
            j = int(np.argmax(window))
            out[c, t] = window[j]
            arg[c, t] = lo + j
    return out, arg


def add_at_maxpool_backward(grad_out, argmax, input_length):
    """Reference pool backward: scatter-add each window's gradient to its
    argmax with np.add.at, window by window."""
    b, c, out_len = grad_out.shape
    d_x = np.zeros((b * c, input_length))
    rows = np.repeat(np.arange(b * c), out_len)
    np.add.at(d_x, (rows, argmax.ravel()), grad_out.ravel())
    return d_x.reshape(b, c, input_length)


def window_conv_backward(grad_out, x, weights):
    """Reference conv backward on one (channels, length) sample: einsums over
    the input's sliding windows, (d_weights, d_bias, d_input)."""
    windows = sliding_window_view(x, weights.shape[2], axis=1)  # (C, T, K)
    d_windows = np.einsum("ock,ot->ctk", weights, grad_out)
    d_x = np.zeros_like(x)
    for t in range(grad_out.shape[1]):
        d_x[:, t : t + weights.shape[2]] += d_windows[:, t]
    return np.einsum("ot,ctk->ock", grad_out, windows), grad_out.sum(axis=1), d_x


def random_conv_case(rng):
    in_ch = int(rng.integers(1, 4))
    out_ch = int(rng.integers(1, 5))
    k = int(rng.integers(1, 6))
    length = int(rng.integers(k, k + 12))
    layer = L.ConvLayer(rng.normal(size=(out_ch, in_ch, k)), rng.normal(size=out_ch))
    x = rng.normal(size=(in_ch, length))
    return x, layer


def random_pool_case(rng):
    channels = int(rng.integers(1, 4))
    width = int(rng.integers(1, 5))
    length = int(rng.integers(width, width + 12))
    stride = int(rng.integers(1, 4))
    # quantized values make argmax ties common, exercising the tie-break
    x = np.round(rng.normal(size=(channels, length)) * 2) / 2
    return x, width, stride


class TestConvOracle:
    def test_bit_equal_to_naive_loop(self):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            x, layer = random_conv_case(rng)
            ours = L.conv_forward(x, layer)
            ref = naive_conv(x, layer.weights, layer.bias)
            assert np.array_equal(ours, ref)

    def test_known_small_case(self):
        layer = L.ConvLayer(np.array([[[1.0, 0.0, -1.0]]]), np.array([0.5]))
        out = L.conv_forward(np.array([[1.0, 2.0, 3.0, 4.0]]), layer)
        assert np.array_equal(out, np.array([[1.0 - 3.0 + 0.5, 2.0 - 4.0 + 0.5]]))

    def test_shape_errors(self):
        layer = L.ConvLayer(np.zeros((1, 2, 3)), np.zeros(1))
        with pytest.raises(L.ShapeError):
            L.conv_forward(np.zeros((1, 10)), layer)  # wrong channel count
        with pytest.raises(L.ShapeError):
            L.conv_forward(np.zeros((2, 2)), layer)  # shorter than kernel


class TestIm2col:
    def test_slab_writes_build_the_sliding_window_matrix(self):
        """One write per kernel offset builds the matrix a sliding-window
        copy builds, bit for bit, NaN and -0.0 included."""
        rng = np.random.default_rng(11)
        for _ in range(120):
            b, c, k = rng.integers(1, 5), rng.integers(1, 9), rng.integers(1, 8)
            length = k + rng.integers(0, 20)
            x = rng.normal(size=(b, length, c))
            x[rng.random(x.shape) < 0.1] = np.nan
            x[rng.random(x.shape) < 0.1] = -0.0
            x = x.transpose(0, 2, 1)  # channels-last, as the conv stages store it
            layer = L.ConvLayer(rng.normal(size=(2, c, k)), np.zeros(2))
            _, cols = L.conv_forward_batch(x, layer)
            want = sliding_window_view(x.transpose(0, 2, 1), k, axis=1).reshape(cols.shape)
            assert cols.tobytes() == want.tobytes()


class TestConvBackward:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        x, layer = random_conv_case(rng)
        assert layer.kernel_size > 1  # else col2im adds one slab at one offset
        x = np.stack([x, rng.normal(size=x.shape)])
        out, cols = L.conv_forward_batch(x, layer)
        g = rng.normal(size=out.shape)
        d_w, d_b, d_x = L.conv_backward_batch(g, cols, layer, x.shape)
        eps = 1e-6

        def loss(weights, bias, inp):
            probe = L.ConvLayer(weights, bias)
            return float(np.sum(L.conv_forward_batch(inp, probe)[0] * g))

        for arr, grad, name in ((layer.weights, d_w, "w"), (layer.bias, d_b, "b"),
                                (x, d_x, "x")):
            flat = arr.reshape(-1)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + eps
                hi = loss(layer.weights, layer.bias, x)
                flat[idx] = orig - eps
                lo = loss(layer.weights, layer.bias, x)
                flat[idx] = orig
                fd = (hi - lo) / (2 * eps)
                assert grad.reshape(-1)[idx] == pytest.approx(fd, abs=1e-6), name


def pool_argmax(offset, stride):
    """Global input positions of the window maxima from the kernel's offsets."""
    return offset + np.arange(offset.shape[-1]) * stride


class TestMaxPool:
    def test_bit_equal_to_naive_loop(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            x, width, stride = random_pool_case(rng)
            ours, offset = L.maxpool_forward_batch(x[None], width, stride)
            ref, ref_arg = naive_maxpool(x, width, stride)
            assert np.array_equal(ours[0], ref)
            assert np.array_equal(pool_argmax(offset, stride)[0], ref_arg)

    def test_tie_breaks_to_first_index(self):
        x = np.array([[[3.0, 3.0, 1.0, 3.0]]])
        out, offset = L.maxpool_forward_batch(x, 2, 2)
        assert np.array_equal(out, [[[3.0, 3.0]]])
        assert np.array_equal(pool_argmax(offset, 2), [[[0, 3]]])

    def test_backward_routes_to_argmax_only(self):
        x = np.array([[[1.0, 5.0, 2.0, 2.0]]])
        _, offset = L.maxpool_forward_batch(x, 2, 2)
        d_x = L.maxpool_backward_batch(np.array([[[10.0, 20.0]]]), offset, 4, 2, 2)
        assert np.array_equal(d_x, [[[0.0, 10.0, 20.0, 0.0]]])

    def test_overlapping_windows_accumulate(self):
        x = np.array([[[0.0, 9.0, 0.0]]])
        _, offset = L.maxpool_forward_batch(x, 2, 1)
        d_x = L.maxpool_backward_batch(np.array([[[1.0, 1.0]]]), offset, 3, 2, 1)
        assert np.array_equal(d_x, [[[0.0, 2.0, 0.0]]])

    def test_width_larger_than_input_rejected(self):
        with pytest.raises(L.ShapeError):
            L.maxpool_forward_batch(np.zeros((1, 1, 3)), 4, 1)


class TestDense:
    def test_forward(self):
        layer = L.DenseLayer(np.array([[1.0, 2.0], [0.0, -1.0]]), np.array([1.0, 0.0]))
        out = L.dense_forward_batch(np.array([[3.0, 4.0], [0.0, 1.0]]), layer)
        assert np.array_equal(out, [[12.0, -4.0], [3.0, -1.0]])

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        layer = L.DenseLayer(rng.normal(size=(3, 5)), rng.normal(size=3))
        x = rng.normal(size=(2, 5))
        g = rng.normal(size=(2, 3))
        d_w, d_b, d_x = L.dense_backward_batch(g, x, layer)
        assert np.allclose(d_w, np.outer(g[0], x[0]) + np.outer(g[1], x[1]))
        assert np.array_equal(d_b, g[0] + g[1])
        for b in range(2):
            assert np.allclose(d_x[b], layer.weights.T @ g[b])

    def test_shape_error(self):
        layer = L.DenseLayer(np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(L.ShapeError):
            L.dense_forward_batch(np.zeros((1, 4)), layer)
        with pytest.raises(L.ShapeError):
            L.dense_forward_batch(np.zeros(3), layer)  # a vector, not a batch


class TestActivationsAndLoss:
    def test_relu(self):
        x = np.array([-1.0, 0.0, 2.0])
        assert np.array_equal(L.relu_forward(x), [0.0, 0.0, 2.0])
        assert np.array_equal(L.relu_backward(np.ones(3), x), [0.0, 0.0, 1.0])

    def test_sigmoid_stable_at_extremes(self):
        assert L.sigmoid(800.0) == 1.0
        assert L.sigmoid(-800.0) == pytest.approx(0.0, abs=1e-300)
        assert L.sigmoid(0.0) == 0.5

    def test_bce_clips_hard_predictions(self):
        loss = L.bce_loss(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        assert np.isfinite(loss) and loss > 0

    def test_bce_perfect_prediction_near_zero(self):
        assert L.bce_loss(np.array([1.0, 0.0]), np.array([1.0, 0.0])) < 1e-10

    def test_sigmoid_bce_gradient_value(self):
        g = L.sigmoid_bce_backward(np.array([0.8, 0.3]), np.array([1.0, 0.0]))
        assert np.allclose(g, [-0.1, 0.15])

    def test_bce_shape_mismatch(self):
        with pytest.raises(L.ShapeError):
            L.bce_loss(np.zeros(3), np.zeros(2))


class TestBatchedKernels:
    """The im2col training path must agree with the per-sample oracles to
    floating-point roundoff (it sums in a different order, so not bitwise)."""

    def test_conv_batch_matches_per_sample(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            x, layer = random_conv_case(rng)
            batch = np.stack([x, x * 0.5 + 1.0])
            out, _ = L.conv_forward_batch(batch, layer)
            for b in range(2):
                assert np.allclose(out[b], L.conv_forward(batch[b], layer),
                                   rtol=1e-12, atol=1e-12)

    def test_conv_backward_batch_matches_per_sample(self):
        rng = np.random.default_rng(24)
        x, layer = random_conv_case(rng)
        batch = np.stack([x, x * 0.5 + 1.0])
        out, cols = L.conv_forward_batch(batch, layer)
        g = rng.normal(size=out.shape)
        d_w, d_b, d_x = L.conv_backward_batch(g, cols, layer, batch.shape)
        refs = [window_conv_backward(g[b], batch[b], layer.weights) for b in range(2)]
        assert np.allclose(d_w, refs[0][0] + refs[1][0], rtol=1e-12, atol=1e-12)
        assert np.allclose(d_b, refs[0][1] + refs[1][1], rtol=1e-12, atol=1e-12)
        for b in range(2):
            assert np.allclose(d_x[b], refs[b][2], rtol=1e-12, atol=1e-12)

    def test_pool_kernel_bytes_match_loop_and_add_at(self):
        """Forward against the naive loop, backward against np.add.at, by
        bytes: array_equal would not tell -0.0 from +0.0."""
        rng = np.random.default_rng(26)
        for width in range(1, 6):
            for stride in range(1, 4):  # windows overlap where stride < width
                for trial in range(12):
                    b, c = (int(n) for n in rng.integers(1, 4, size=2))
                    length = int(rng.integers(width, width + 12))
                    # quantized values tie often; signed zeros tie with each other
                    x = np.round(rng.normal(size=(b, c, length)) * 2) / 2
                    x[rng.random(x.shape) < 0.2] = 0.0
                    x[rng.random(x.shape) < 0.2] = -0.0
                    if trial % 4 == 0:
                        x[rng.random(x.shape) < 0.15] = np.nan
                    out, offset = L.maxpool_forward_batch(x, width, stride)
                    argmax = pool_argmax(offset, stride)
                    for i in range(b):
                        ref, ref_arg = naive_maxpool(x[i], width, stride)
                        assert out[i].tobytes() == ref.tobytes()
                        assert np.array_equal(argmax[i], ref_arg)
                    # unrounded, so that sums over overlapping windows depend
                    # on their order
                    g = rng.normal(size=out.shape)
                    g[rng.random(g.shape) < 0.3] = -0.0
                    d_x = L.maxpool_backward_batch(g, offset, length, width, stride)
                    assert d_x.tobytes() == add_at_maxpool_backward(g, argmax, length).tobytes()
