"""Tests for the NumPy LSTM building blocks: gradients, training, helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.predictor.lstm as lstm_module
from repro.predictor.lstm import (
    Adam,
    DenseLayer,
    LSTMLayer,
    PrefixStateCache,
    asymmetric_squared_error,
    make_windows,
    softmax,
    softmax_cross_entropy,
)


def numeric_grad(f, x, eps=1e-5):
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        f_plus = f()
        x[idx] = orig - eps
        f_minus = f()
        x[idx] = orig
        g[idx] = (f_plus - f_minus) / (2 * eps)
        it.iternext()
    return g


class TestLSTMForward:
    def test_output_shape(self):
        rng = np.random.default_rng(0)
        layer = LSTMLayer(3, 5, rng)
        hs, _ = layer.forward(rng.normal(size=(4, 7, 3)))
        assert hs.shape == (4, 7, 5)

    def test_hidden_bounded(self):
        rng = np.random.default_rng(0)
        layer = LSTMLayer(2, 4, rng)
        hs, _ = layer.forward(rng.normal(size=(2, 20, 2)) * 10)
        assert np.abs(hs).max() <= 1.0  # |o * tanh(c)| <= 1

    def test_rejects_bad_shape(self):
        layer = LSTMLayer(3, 5, np.random.default_rng(0))
        with pytest.raises(ValueError):
            layer.forward(np.zeros((4, 7, 2)))
        with pytest.raises(ValueError):
            layer.forward(np.zeros((4, 3)))

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        layer = LSTMLayer(2, 3, rng)
        x = np.random.default_rng(2).normal(size=(1, 5, 2))
        a, _ = layer.forward(x)
        b, _ = layer.forward(x)
        np.testing.assert_array_equal(a, b)


def _reference_last(layer, x):
    """``forward``'s last hidden state (zeros when the sequence is empty)."""
    if x.shape[1] == 0:
        return np.zeros((x.shape[0], layer.hidden_size))
    return layer.forward(x)[0][:, -1, :]


class TestLastHidden:
    """``last_hidden`` is ``forward(x)[0][:, -1, :]``, bit for bit."""

    @given(
        seed=st.integers(0, 10_000),
        batch=st.integers(1, 4),
        steps=st.integers(0, 24),
        input_size=st.sampled_from([1, 1, 2, 3]),
        hidden=st.sampled_from([1, 3, 8, 30]),
        weight_scale=st.sampled_from([0.1, 1.0, 40.0]),
        input_kind=st.sampled_from(["normal", "zeros", "integers", "large"]),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_forward_bitwise(
        self, seed, batch, steps, input_size, hidden, weight_scale, input_kind
    ):
        rng = np.random.default_rng(seed)
        layer = LSTMLayer(input_size, hidden, rng)
        layer.Wx *= weight_scale
        layer.Wh *= weight_scale
        layer.b += rng.normal(size=layer.b.shape) * weight_scale
        shape = (batch, steps, input_size)
        x = {
            "normal": lambda: rng.normal(size=shape),
            "zeros": lambda: np.zeros(shape),
            "integers": lambda: rng.integers(0, 3, size=shape).astype(float),
            "large": lambda: rng.normal(size=shape) * 1e3,
        }[input_kind]()
        ref = _reference_last(layer, x)
        got = layer.last_hidden(x)
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()
        states = PrefixStateCache()
        for _ in range(2):  # a cold then a warm cache
            assert layer.last_hidden(x, states).tobytes() == ref.tobytes()

    def test_rejects_bad_shape(self):
        layer = LSTMLayer(2, 4, np.random.default_rng(0))
        with pytest.raises(ValueError):
            layer.last_hidden(np.zeros((1, 5, 3)))

    def test_does_not_alias_cached_state(self):
        layer = LSTMLayer(1, 4, np.random.default_rng(0))
        x = np.ones((1, 3, 1))
        states = PrefixStateCache()
        first = layer.last_hidden(x, states)
        first += 100.0  # the caller owns its result
        assert layer.last_hidden(x, states).tobytes() == (
            _reference_last(layer, x).tobytes()
        )


class TestPrefixStateCache:
    def _layer(self):
        return LSTMLayer(1, 6, np.random.default_rng(3))

    def test_resumes_from_longest_shared_prefix(self, monkeypatch):
        layer = self._layer()
        states = PrefixStateCache()
        resumed = []
        resume = PrefixStateCache.resume

        def spy(self, keys, h, c):
            k, children = resume(self, keys, h, c)
            resumed.append(k)
            return k, children

        monkeypatch.setattr(PrefixStateCache, "resume", spy)
        a = np.array([0.0, 0.0, 1.0, 2.0, 0.0])[None, :, None]
        b = np.array([0.0, 0.0, 1.0, 5.0, 5.0])[None, :, None]
        for x in (a, b, b, a[:, :2]):
            got = layer.last_hidden(x, states)
            assert got.tobytes() == _reference_last(layer, x).tobytes()
        assert resumed == [0, 3, 5, 2]
        assert states.nodes == 7  # a's five steps, b's last two

    def test_keys_on_exact_bits(self):
        """``0.0`` and ``-0.0`` compare equal but are different inputs."""
        layer = self._layer()
        states = PrefixStateCache()
        layer.last_hidden(np.zeros((1, 4, 1)), states)
        x = -np.zeros((1, 4, 1))
        assert layer.last_hidden(x, states).tobytes() == (
            _reference_last(layer, x).tobytes()
        )
        assert states.nodes == 8
        # Inputs one ulp apart share no prefix either.
        y = np.full((1, 4, 1), 0.3)
        layer.last_hidden(y, states)
        y_next = np.nextafter(y, 1.0)
        assert layer.last_hidden(y_next, states).tobytes() == (
            _reference_last(layer, y_next).tobytes()
        )

    def test_records_only_up_to_depth(self):
        layer = self._layer()
        states = PrefixStateCache()
        x = np.arange(lstm_module._PREFIX_DEPTH + 10.0)[None, :, None]
        layer.last_hidden(x, states)
        assert states.nodes == lstm_module._PREFIX_DEPTH

    def test_batches_bypass_the_cache(self):
        layer = self._layer()
        states = PrefixStateCache()
        x = np.random.default_rng(0).normal(size=(3, 5, 1))
        assert layer.last_hidden(x, states).tobytes() == (
            _reference_last(layer, x).tobytes()
        )
        assert states.nodes == 0

    def test_clears_when_full_and_never_exceeds_cap(self, monkeypatch):
        monkeypatch.setattr(lstm_module, "_PREFIX_NODES", 10)
        layer = self._layer()
        states = PrefixStateCache()
        rng = np.random.default_rng(1)
        peak = 0
        cleared = False
        for _ in range(40):
            x = rng.integers(0, 3, size=(1, 4, 1)).astype(float)
            before = states.nodes
            got = layer.last_hidden(x, states)
            assert got.tobytes() == _reference_last(layer, x).tobytes()
            assert states.nodes <= 10
            cleared |= states.nodes < before
            peak = max(peak, states.nodes)
        assert cleared and peak == 10


class TestLSTMGradients:
    """BPTT gradients must match finite differences."""

    @pytest.mark.parametrize("param", ["Wx", "Wh", "b"])
    def test_param_gradients(self, param):
        rng = np.random.default_rng(3)
        layer = LSTMLayer(2, 3, rng)
        x = rng.normal(size=(2, 4, 2))
        target = rng.normal(size=(2, 3))

        def loss():
            hs, _ = layer.forward(x)
            return 0.5 * float(((hs[:, -1, :] - target) ** 2).sum())

        hs, cache = layer.forward(x)
        dhs = np.zeros_like(hs)
        dhs[:, -1, :] = hs[:, -1, :] - target
        grads, _ = layer.backward(dhs, cache)
        analytic = grads[param]
        numeric = numeric_grad(loss, getattr(layer, param))
        np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-6)

    def test_input_gradient(self):
        rng = np.random.default_rng(4)
        layer = LSTMLayer(2, 3, rng)
        x = rng.normal(size=(1, 3, 2))
        target = rng.normal(size=(1, 3))

        def loss():
            hs, _ = layer.forward(x)
            return 0.5 * float(((hs[:, -1, :] - target) ** 2).sum())

        hs, cache = layer.forward(x)
        dhs = np.zeros_like(hs)
        dhs[:, -1, :] = hs[:, -1, :] - target
        _, dx = layer.backward(dhs, cache)
        numeric = numeric_grad(loss, x)
        np.testing.assert_allclose(dx, numeric, rtol=1e-4, atol=1e-6)

    def test_dense_gradients(self):
        rng = np.random.default_rng(5)
        dense = DenseLayer(4, 2, rng)
        x = rng.normal(size=(3, 4))
        target = rng.normal(size=(3, 2))

        def loss():
            y = dense.forward(x)
            return 0.5 * float(((y - target) ** 2).sum())

        y = dense.forward(x)
        grads, dx = dense.backward(x, y - target)
        np.testing.assert_allclose(grads["W"], numeric_grad(loss, dense.W), rtol=1e-4)
        np.testing.assert_allclose(grads["b"], numeric_grad(loss, dense.b), rtol=1e-4)
        np.testing.assert_allclose(dx, numeric_grad(loss, x), rtol=1e-4, atol=1e-7)


class TestLosses:
    def test_softmax_rows_sum_to_one(self):
        p = softmax(np.array([[1.0, 2.0, 3.0], [100.0, 100.0, 100.0]]))
        np.testing.assert_allclose(p.sum(axis=1), [1.0, 1.0])

    def test_softmax_stable_for_large_logits(self):
        p = softmax(np.array([[1000.0, 0.0]]))
        assert np.isfinite(p).all()

    def test_cross_entropy_perfect_prediction(self):
        logits = np.array([[20.0, 0.0], [0.0, 20.0]])
        loss, grad = softmax_cross_entropy(logits, np.array([0, 1]))
        assert loss == pytest.approx(0.0, abs=1e-6)
        np.testing.assert_allclose(grad, 0.0, atol=1e-6)

    def test_cross_entropy_gradient_numeric(self):
        rng = np.random.default_rng(6)
        logits = rng.normal(size=(4, 3))
        labels = np.array([0, 2, 1, 1])

        def loss():
            return softmax_cross_entropy(logits, labels)[0]

        _, grad = softmax_cross_entropy(logits, labels)
        np.testing.assert_allclose(grad, numeric_grad(loss, logits), rtol=1e-4, atol=1e-7)

    def test_asymmetric_loss_penalizes_overprediction(self):
        target = np.array([1.0])
        over, _ = asymmetric_squared_error(np.array([1.5]), target, over_weight=8.0)
        under, _ = asymmetric_squared_error(np.array([0.5]), target, over_weight=8.0)
        assert over == pytest.approx(8.0 * under)

    def test_asymmetric_gradient_numeric(self):
        rng = np.random.default_rng(7)
        pred = rng.normal(size=5)
        target = rng.normal(size=5)

        def loss():
            return asymmetric_squared_error(pred, target, 8.0)[0]

        _, grad = asymmetric_squared_error(pred, target, 8.0)
        np.testing.assert_allclose(grad, numeric_grad(loss, pred), rtol=1e-4, atol=1e-7)


class TestAdam:
    def test_minimizes_quadratic(self):
        x = np.array([5.0, -3.0])
        opt = Adam({"x": x}, lr=0.1)
        for _ in range(500):
            opt.step({"x": 2 * x})
        np.testing.assert_allclose(x, 0.0, atol=1e-3)

    def test_clipping_bounds_update(self):
        x = np.zeros(3)
        opt = Adam({"x": x}, lr=0.1, clip_norm=1.0)
        opt.step({"x": np.full(3, 1e9)})
        assert np.abs(x).max() <= 0.2  # one Adam step of lr magnitude


class TestMakeWindows:
    def test_shapes_and_alignment(self):
        X, y = make_windows(np.arange(10.0), 3)
        assert X.shape == (7, 3)
        np.testing.assert_array_equal(X[0], [0, 1, 2])
        np.testing.assert_array_equal(y, np.arange(3.0, 10.0))

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            make_windows(np.arange(3.0), 3)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            make_windows(np.zeros((3, 3)), 2)

    def test_training_reduces_loss(self):
        """End-to-end: an LSTM + dense head learns a noiseless pattern."""
        rng = np.random.default_rng(8)
        series = np.sin(np.linspace(0, 40 * np.pi, 2000)) + 1.0
        X, y = make_windows(series, 20)
        Xb = X[:, :, None]
        lstm = LSTMLayer(1, 12, rng)
        head = DenseLayer(12, 1, rng)
        opt = Adam({**lstm.parameters("l"), **head.parameters("h")}, lr=5e-3)

        def batch_loss(idx):
            hs, cache = lstm.forward(Xb[idx])
            last = hs[:, -1, :]
            pred = head.forward(last)[:, 0]
            diff = pred - y[idx]
            loss = float((diff**2).mean())
            dpred = (2 * diff / diff.size)[:, None]
            hg, dlast = head.backward(last, dpred)
            dhs = np.zeros_like(hs)
            dhs[:, -1, :] = dlast
            lg, _ = lstm.backward(dhs, cache)
            opt.step({"l.Wx": lg["Wx"], "l.Wh": lg["Wh"], "l.b": lg["b"],
                      "h.W": hg["W"], "h.b": hg["b"]})
            return loss

        idx = rng.permutation(len(y))[:256]
        first = batch_loss(idx)
        for _ in range(60):
            last = batch_loss(idx)
        assert last < first * 0.2
