"""From-scratch LSTM on NumPy: batched forward, BPTT, Adam.

The paper trains its predictors with PyTorch LSTMs; this module provides the
same building blocks without a deep-learning dependency:

- :class:`LSTMLayer` — a single LSTM layer processing ``(B, T, I)`` batches,
  returning all hidden states and a cache for truncated BPTT, plus an
  inference-only :meth:`~LSTMLayer.last_hidden` that runs the same
  arithmetic in place and returns the final state;
- :class:`PrefixStateCache` — a bounded trie of exact single-sequence
  states keyed by input prefix, from which ``last_hidden`` resumes;
- :class:`DenseLayer` — an affine head;
- :class:`Adam` — the optimizer, with global-norm gradient clipping;
- loss helpers: softmax cross-entropy (classification) and an asymmetric
  squared error that penalizes over-prediction more than under-prediction
  (used by the inter-arrival regressor, where over-estimating the gap delays
  pre-warming and violates the SLA).

The implementation favors clarity over raw speed, but all per-timestep math
is vectorized over the batch so training the paper-scale models (hidden
sizes 30–128, sequences of ~3600 windows) takes seconds.  Online inference,
one short sequence per prediction, is bound by per-call NumPy overhead
instead, which is what ``last_hidden`` and the prefix cache cut; both give
the same bits as ``forward``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.utils.rng import ensure_rng


def _xavier(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    scale = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-scale, scale, size=(rows, cols))


#: Nodes a :class:`PrefixStateCache` holds before it is cleared.
_PREFIX_NODES = 256

#: Longest input prefix whose state a :class:`PrefixStateCache` records.
_PREFIX_DEPTH = 16


class PrefixStateCache:
    """Exact LSTM states of single sequences, keyed by their input prefix.

    A trie over timestep inputs (the raw bytes of each ``float64`` step, so
    ``0.0`` and ``-0.0`` stay distinct): the node reached by ``x[0..k]``
    holds copies of ``(h, c)`` after step ``k`` from the zero state.  Only
    prefixes up to ``_PREFIX_DEPTH`` steps are recorded, and the whole trie
    is dropped when it reaches ``_PREFIX_NODES`` nodes, so its size stays
    bounded (about 1 KB per node at hidden size 32).  Valid for one set of
    weights: clear it whenever they change.
    """

    __slots__ = ("_root", "nodes")

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        """Drop every recorded state."""
        self._root: dict = {}
        self.nodes = 0

    def resume(
        self, keys: list[bytes], h: np.ndarray, c: np.ndarray
    ) -> tuple[int, dict]:
        """Load the state after the longest recorded prefix of ``keys``.

        Copies that state into ``h`` and ``c`` (left untouched on a miss)
        and returns the prefix length plus the children of its node, where
        :meth:`record` adds the next step.
        """
        children = self._root
        node = None
        k = 0
        for key in keys:
            nxt = children.get(key)
            if nxt is None:
                break
            node = nxt
            children = nxt[2]
            k += 1
        if node is not None:
            np.copyto(h, node[0])
            np.copyto(c, node[1])
        return k, children

    def record(
        self, children: dict, key: bytes, h: np.ndarray, c: np.ndarray
    ) -> dict | None:
        """Add the state after one more step under ``children``.

        Returns the new node's children, or ``None`` once the trie was full
        and has been cleared (the caller stops recording for this run).
        """
        if self.nodes >= _PREFIX_NODES:
            self.clear()
            return None
        node = (h.copy(), c.copy(), {})
        children[key] = node
        self.nodes += 1
        return node[2]


class LSTMLayer:
    """One LSTM layer with input size ``I`` and hidden size ``H``.

    Weights follow the standard gate layout ``[i, f, g, o]`` stacked along
    the first axis; the forget-gate bias starts at 1.0 for stable training.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        if input_size < 1 or hidden_size < 1:
            raise ValueError("input_size and hidden_size must be >= 1")
        self.input_size = input_size
        self.hidden_size = hidden_size
        H = hidden_size
        self.Wx = _xavier(4 * H, input_size, rng)
        self.Wh = _xavier(4 * H, H, rng)
        self.b = np.zeros(4 * H)
        self.b[H : 2 * H] = 1.0  # forget gate bias

    # -- parameter plumbing --------------------------------------------------
    def parameters(self, prefix: str) -> dict[str, np.ndarray]:
        """Named parameter dict (shared with the optimizer)."""
        return {f"{prefix}.Wx": self.Wx, f"{prefix}.Wh": self.Wh, f"{prefix}.b": self.b}

    # -- forward ----------------------------------------------------------------
    def forward(self, x: np.ndarray) -> tuple[np.ndarray, dict]:
        """Run the layer over a batch of sequences.

        ``x`` has shape ``(B, T, I)``; returns hidden states ``(B, T, H)``
        and the cache needed by :meth:`backward`.
        """
        if x.ndim != 3 or x.shape[2] != self.input_size:
            raise ValueError(
                f"expected input (B, T, {self.input_size}), got {x.shape}"
            )
        B, T, _ = x.shape
        H = self.hidden_size
        h = np.zeros((B, H))
        c = np.zeros((B, H))
        hs = np.zeros((B, T, H))
        cache: dict = {
            "x": x,
            "gates": [],
            "tanh_cs": [],
            "hs_prev": [],
            "cs_prev": [],
        }
        WxT = self.Wx.T
        WhT = self.Wh.T
        b = self.b
        # Hoist the input projection out of the time loop when the inner
        # dimension is 1 (every element is a single multiply, so the batched
        # product is bitwise identical to the per-timestep one).
        xz = x @ WxT if self.input_size == 1 else None
        for t in range(T):
            zx = xz[:, t, :] if xz is not None else x[:, t, :] @ WxT
            z = zx + h @ WhT + b
            # One fused sigmoid over the i/f/o columns gathered contiguously
            # (elementwise, so gathering first and splitting afterwards is
            # bitwise identical to per-gate calls at half the ufunc count).
            s = _sigmoid(
                np.concatenate([z[:, : 2 * H], z[:, 3 * H :]], axis=1)
            )
            i = s[:, :H]
            f = s[:, H : 2 * H]
            o = s[:, 2 * H :]
            g = np.tanh(z[:, 2 * H : 3 * H])
            cache["hs_prev"].append(h)
            cache["cs_prev"].append(c)
            c = f * c + i * g
            tanh_c = np.tanh(c)
            h = o * tanh_c
            hs[:, t, :] = h
            cache["gates"].append((i, f, g, o))
            cache["tanh_cs"].append(tanh_c)
        return hs, cache

    def last_hidden(
        self, x: np.ndarray, states: PrefixStateCache | None = None
    ) -> np.ndarray:
        """Final hidden state ``(B, H)`` of each sequence, inference-only.

        Bit-identical to ``forward(x)[0][:, -1, :]``: every element goes
        through the same floating-point operations in the same order, but
        each timestep writes in place into buffers allocated once per call
        (one sigmoid over all four gate blocks, the g block's result
        unused), with no BPTT cache and no ``(B, T, H)`` hidden tensor.

        With a :class:`PrefixStateCache` and a single sequence (``B == 1``)
        the run resumes from the state after the longest input prefix the
        cache has seen, and records the states of the prefixes it computes.
        The state after a prefix depends only on that prefix and the
        weights, so the result is the same bits either way; the caller
        clears the cache whenever the weights change.
        """
        if x.ndim != 3 or x.shape[2] != self.input_size:
            raise ValueError(
                f"expected input (B, T, {self.input_size}), got {x.shape}"
            )
        B, T, _ = x.shape
        H = self.hidden_size
        # Time-major input; a single sequence drops the batch axis, which
        # spares every ufunc below a broadcast over a unit dimension.
        lead = () if B == 1 else (B,)
        xs = x[0] if B == 1 else x.transpose(1, 0, 2)
        h = np.zeros(lead + (H,))
        c = np.zeros(lead + (H,))
        start = 0
        keys = children = None
        if states is not None and B == 1 and T:
            raw = np.ascontiguousarray(xs, dtype=float).tobytes()
            w = len(raw) // T
            keys = [raw[t * w : (t + 1) * w] for t in range(min(T, _PREFIX_DEPTH))]
            start, children = states.resume(keys, h, c)
        WxT = self.Wx.T
        WhT = self.Wh.T
        b = self.b
        z = np.empty(lead + (4 * H,))
        # Sigmoid numerators and denominators side by side: one exp for both.
        u = np.empty((2,) + lead + (4 * H,))
        num, den = u[0], u[1]
        g = np.empty(lead + (H,))
        tanh_c = np.empty(lead + (H,))
        i, f, o = num[..., :H], num[..., H : 2 * H], num[..., 3 * H :]
        zg = z[..., 2 * H : 3 * H]
        # Array operands: a Python float costs a conversion on every call.
        zero = np.zeros_like(z)
        one = np.ones_like(z)
        minus_one = -one
        if self.input_size == 1:
            # One multiply per element, so the batched projection is
            # bitwise identical to the per-timestep one (see forward).
            zxs = xs[start:] @ WxT
        else:
            zxs = (xs[t] @ WxT for t in range(start, T))
        for t, zx in enumerate(zxs, start):
            # z = zx + h @ WhT + b, evaluated left to right as in forward.
            np.matmul(h, WhT, out=z)
            np.add(zx, z, out=z)
            np.add(z, b, out=z)
            # _sigmoid over all four gate blocks: exp(min(z, 0)) is its
            # numerator bit for bit (1.0 for z >= 0, exp(z) otherwise) and
            # copysign(z, -1) is its -|z|.
            np.minimum(z, zero, out=num)
            np.copysign(z, minus_one, out=den)
            np.exp(u, out=u)
            np.add(den, one, out=den)
            np.divide(num, den, out=num)
            np.tanh(zg, out=g)
            # c = f * c + i * g; h = o * tanh(c)
            np.multiply(f, c, out=c)
            np.multiply(i, g, out=g)
            np.add(c, g, out=c)
            np.tanh(c, out=tanh_c)
            np.multiply(o, tanh_c, out=h)
            if children is not None and t < len(keys):
                children = states.record(children, keys[t], h, c)
        return h.reshape(B, H)

    def backward(
        self, dhs: np.ndarray, cache: dict
    ) -> tuple[dict[str, np.ndarray], np.ndarray]:
        """Backprop-through-time.

        ``dhs`` is the loss gradient w.r.t. every hidden state (``(B, T, H)``;
        zero rows for timesteps without direct loss).  Returns gradients for
        this layer's parameters and the gradient w.r.t. the input sequence.
        """
        x = cache["x"]
        B, T, _ = x.shape
        H = self.hidden_size
        dWx = np.zeros_like(self.Wx)
        dWh = np.zeros_like(self.Wh)
        db = np.zeros_like(self.b)
        dx = np.zeros_like(x)
        dh_next = np.zeros((B, H))
        dc_next = np.zeros((B, H))
        for t in reversed(range(T)):
            i, f, g, o = cache["gates"][t]
            c_prev = cache["cs_prev"][t]
            h_prev = cache["hs_prev"][t]
            tanh_c = cache["tanh_cs"][t]
            dh = dhs[:, t, :] + dh_next
            do = dh * tanh_c
            dc = dh * o * (1 - tanh_c**2) + dc_next
            di = dc * g
            df = dc * c_prev
            dg = dc * i
            dc_next = dc * f
            dz = np.empty((B, 4 * H))
            np.multiply(di * i, 1 - i, out=dz[:, :H])
            np.multiply(df * f, 1 - f, out=dz[:, H : 2 * H])
            np.multiply(dg, 1 - g**2, out=dz[:, 2 * H : 3 * H])
            np.multiply(do * o, 1 - o, out=dz[:, 3 * H :])
            dWx += dz.T @ x[:, t, :]
            dWh += dz.T @ h_prev
            db += dz.sum(axis=0)
            dx[:, t, :] = dz @ self.Wx
            dh_next = dz @ self.Wh
        return {"Wx": dWx, "Wh": dWh, "b": db}, dx


class DenseLayer:
    """Affine layer ``y = x @ W.T + b``."""

    def __init__(self, input_size: int, output_size: int, rng: np.random.Generator):
        self.W = _xavier(output_size, input_size, rng)
        self.b = np.zeros(output_size)

    def parameters(self, prefix: str) -> dict[str, np.ndarray]:
        """Named parameter dict (shared with the optimizer)."""
        return {f"{prefix}.W": self.W, f"{prefix}.b": self.b}

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Apply the affine map to a ``(B, I)`` batch."""
        return x @ self.W.T + self.b

    def backward(self, x: np.ndarray, dy: np.ndarray) -> tuple[dict, np.ndarray]:
        """Gradients for parameters and input given upstream ``dy``."""
        return {"W": dy.T @ x, "b": dy.sum(axis=0)}, dy @ self.W


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # Numerically stable split, evaluated branchlessly: ``exp(-|z|)`` never
    # overflows and equals the stable branch's exponential on both sides
    # (``exp(-z)`` for ``z >= 0``, ``exp(z)`` otherwise), so each element
    # goes through bit-for-bit the same expression as the classic masked
    # two-branch form — without its gather/scatter cost, which dominates on
    # the small per-gate slices this sees.
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.where(z >= 0, 1.0, e)
    e += 1.0  # e becomes the shared denominator
    np.divide(out, e, out=out)
    return out


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-shift stabilization."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy loss and gradient w.r.t. logits."""
    B = logits.shape[0]
    probs = softmax(logits)
    loss = float(-np.log(probs[np.arange(B), labels] + 1e-12).mean())
    grad = probs.copy()
    grad[np.arange(B), labels] -= 1.0
    return loss, grad / B


def asymmetric_squared_error(
    pred: np.ndarray, target: np.ndarray, over_weight: float = 8.0
) -> tuple[float, np.ndarray]:
    """Squared error that penalizes over-prediction ``over_weight`` times more.

    Over-estimating an inter-arrival time makes pre-warming start too late
    and violates the SLA, so the regressor is trained to err low (§IV-B2).
    """
    diff = pred - target
    w = np.where(diff > 0, over_weight, 1.0)
    loss = float((w * diff**2).mean())
    grad = 2.0 * w * diff / diff.size
    return loss, grad


@dataclass
class Adam:
    """Adam optimizer over a named parameter dict, with global-norm clipping."""

    params: dict[str, np.ndarray]
    lr: float = 1e-2
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    clip_norm: float = 5.0
    _m: dict[str, np.ndarray] = field(default_factory=dict)
    _v: dict[str, np.ndarray] = field(default_factory=dict)
    _t: int = 0

    def __post_init__(self) -> None:
        for k, p in self.params.items():
            self._m[k] = np.zeros_like(p)
            self._v[k] = np.zeros_like(p)

    def step(self, grads: dict[str, np.ndarray]) -> None:
        """Apply one update; ``grads`` keys must match the parameter dict."""
        total = np.sqrt(sum(float((g**2).sum()) for g in grads.values()))
        scale = min(1.0, self.clip_norm / (total + 1e-12))
        self._t += 1
        bias1 = 1 - self.beta1**self._t
        bias2 = 1 - self.beta2**self._t
        for k, g in grads.items():
            g = g * scale
            p = self.params[k]
            self._m[k] = self.beta1 * self._m[k] + (1 - self.beta1) * g
            self._v[k] = self.beta2 * self._v[k] + (1 - self.beta2) * g**2
            m_hat = self._m[k] / bias1
            v_hat = self._v[k] / bias2
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def make_windows(series: np.ndarray, length: int) -> tuple[np.ndarray, np.ndarray]:
    """Sliding windows for next-step prediction.

    Returns ``(X, y)`` where ``X[i]`` is ``series[i : i+length]`` and
    ``y[i] = series[i+length]``.
    """
    s = np.asarray(series, dtype=float)
    if s.ndim != 1:
        raise ValueError("series must be 1-D")
    if length < 1:
        raise ValueError("window length must be >= 1")
    if s.size <= length:
        raise ValueError(
            f"series of length {s.size} too short for window {length}"
        )
    n = s.size - length
    idx = np.arange(length)[None, :] + np.arange(n)[:, None]
    return s[idx], s[length:]


def make_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Alias of :func:`repro.utils.rng.ensure_rng` for predictor modules."""
    return ensure_rng(seed)
