"""Network nodes and desk-scale model builders (token MLP, tiny ViT, tiny conv net).

A Model is an ordered list of nodes. Each node's forward is exact and records
the activations its backward will need; `restrict` cuts such a full record down
to the kept indices of a mask, and the backward runs from either kind of
record. Node records are what the tape stores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from .errors import ConfigurationError, DimensionError
from .layers import (
    Conv2dLayer,
    LayerSpecEntry,
    MhsaLayer,
    NetworkSpec,
    conv2d_backward_full,
    conv2d_backward_sbp,
    conv2d_forward,
    gelu_backward,
    gelu_cdf,
    gelu_forward,
    layer_norm_backward,
    layer_norm_forward,
    mhsa_backward_full,
    mhsa_backward_kept,
    mhsa_forward,
    restrict_mhsa_cache,
)
from .masks import IndexMask

Array = np.ndarray


@dataclass
class NodeRecord:
    """One tape entry: whatever a node cached, plus the mask context it ran under."""

    cache: Any
    mask: IndexMask | None
    mode: str | None
    head_keep: tuple[int, ...] | None
    cached_elements: int


def _nbytes_elems(*arrays) -> int:
    return sum(int(a.size) for a in arrays if a is not None)


def _cache_elements(cache: dict) -> int:
    """Cached elements of a transformer block's record."""
    return (_nbytes_elems(*cache["ln1"], *cache["ln2"], cache["u"], cache["cdf"])
            + cache["mhsa"].element_count())


def _kept(mask: IndexMask | None):
    """Kept token indices, or None when nothing is dropped."""
    return None if mask is None or mask.is_full_keep else mask.keep_array()


def _gather(t: Array, keep) -> Array:
    """Kept token rows of a B x N x ... array (all of it when keep is None)."""
    return t if keep is None else np.ascontiguousarray(t[:, keep, :])


def _scatter(rows: Array, keep, n: int) -> Array:
    """Kept token rows placed into a zero B x n x C array (rows as-is when keep is None)."""
    if keep is None:
        return rows
    out = np.zeros((rows.shape[0], n, rows.shape[2]))
    out[:, keep, :] = rows
    return out


def _add_rows(base: Array, keep, rows: Array) -> Array:
    """base plus rows added at the kept token rows (at every row when keep is None)."""
    if keep is None:
        return base + rows
    out = base.copy()
    out[:, keep, :] += rows
    return out


def _rows_record(x: Array, mask: IndexMask | None = None) -> NodeRecord:
    """Record caching the kept token rows of x, and their indices."""
    x_k = _gather(x, _kept(mask))
    # The recorded index array is made after x_k on purpose. Made before it,
    # peak RSS on the train-mlp16-random benchmark workload rose from about
    # 275 to 299 MB: a glibc heap-layout effect, the live bytes are the same.
    keep = _kept(mask)
    return NodeRecord((x_k, keep), None if keep is None else mask, None, None,
                      _nbytes_elems(x_k))


class Node:
    node_id: str
    kind: str
    sbp_enabled: bool = False
    grid: tuple[int, ...] | None = None  # mask domain, when sbp_enabled
    mask_group: str | None = None        # plan key of the mask this node runs under

    def params(self) -> dict[str, Array]:
        raise NotImplementedError

    def set_param(self, name: str, value: Array):
        setattr(self, name, value)

    def forward(self, x, mask=None, mode=None, head_keep=None):
        """Exact output and the record of (mask, mode, head_keep): the full
        record passed through `restrict`."""
        raise NotImplementedError

    def restrict(self, rec: NodeRecord, mask=None, mode=None, head_keep=None) -> NodeRecord:
        """The part of a full (unmasked) record that the masked backward reads."""
        return rec

    def backward(self, rec: NodeRecord, dy):
        raise NotImplementedError

    def estimate_cached(self, batch: int, keep_count: int | None, mode: str | None,
                        head_keep_count: int | None = None) -> int:
        """Analytic cached-element count; keep_count None means no mask (full)."""
        raise NotImplementedError


class TokenEmbedNode(Node):
    """Per-token linear embedding plus a learned positional table."""

    kind = "embed"

    def __init__(self, node_id, n_tokens, c_in, c_out, rng, use_pos=True):
        self.node_id = node_id
        self.n_tokens = n_tokens
        self.w = rng.normal(0.0, 1.0 / math.sqrt(c_in), (c_in, c_out))
        self.b = np.zeros(c_out)
        self.pos = 0.02 * rng.normal(size=(n_tokens, c_out)) if use_pos else None

    def params(self):
        p = {"w": self.w, "b": self.b}
        if self.pos is not None:
            p["pos"] = self.pos
        return p

    def forward(self, x, mask=None, mode=None, head_keep=None):
        orig = x.shape
        if x.ndim == 4:  # B x H x W x C image grid -> token rows
            x = x.reshape(orig[0], orig[1] * orig[2], orig[3])
        b, n, c = x.shape
        if n != self.n_tokens:
            raise DimensionError(f"expected {self.n_tokens} tokens, got {n}")
        y = x.reshape(b * n, c) @ self.w + self.b
        y = y.reshape(b, n, -1)
        if self.pos is not None:
            y = y + self.pos
        return y, NodeRecord((x, orig), None, None, None, _nbytes_elems(x))

    def backward(self, rec, dy):
        x, orig = rec.cache
        b, n, c = x.shape
        dy2 = dy.reshape(b * n, -1)
        grads = {"w": x.reshape(b * n, c).T @ dy2, "b": dy2.sum(axis=0)}
        if self.pos is not None:
            grads["pos"] = dy.sum(axis=0)
        dx = (dy2 @ self.w.T).reshape(orig)
        return grads, dx

    def estimate_cached(self, batch, keep_count, mode):
        return batch * self.n_tokens * self.w.shape[0]


class _RowsNode(Node):
    """A token-wise node whose record is its input rows (the kept ones under a mask)."""

    def restrict(self, rec, mask=None, mode=None, head_keep=None):
        return _rows_record(rec.cache[0], mask)


class TokenLinearNode(_RowsNode):
    """Linear layer applied per token row; the canonical SBP (PW-Conv) case."""

    kind = "linear"

    def __init__(self, node_id, n_tokens, c_in, c_out, rng, bias=True,
                 sbp_enabled=False, grid=None):
        self.node_id = node_id
        self.n_tokens = n_tokens
        self.w = rng.normal(0.0, 1.0 / math.sqrt(c_in), (c_in, c_out))
        self.b = np.zeros(c_out) if bias else None
        self.sbp_enabled = sbp_enabled
        self.grid = tuple(grid) if grid else (n_tokens,)

    def params(self):
        return {"w": self.w, "b": self.b} if self.b is not None else {"w": self.w}

    def forward(self, x, mask=None, mode=None, head_keep=None):
        b, n, c = x.shape
        y = x.reshape(b * n, c) @ self.w
        if self.b is not None:
            y = y + self.b
        return y.reshape(b, n, -1), self.restrict(_rows_record(x), mask)

    def backward(self, rec, dy):
        x_k, keep = rec.cache
        b, n, _ = dy.shape
        nk = x_k.shape[1]
        c_in = self.w.shape[0]
        dy_k = _gather(dy, keep).reshape(b * nk, -1)
        grads = {"w": x_k.reshape(b * nk, c_in).T @ dy_k}
        if self.b is not None:
            grads["b"] = dy_k.sum(axis=0)
        return grads, _scatter((dy_k @ self.w.T).reshape(b, nk, c_in), keep, n)

    def estimate_cached(self, batch, keep_count, mode):
        rows = self.n_tokens if keep_count is None else keep_count
        return batch * rows * self.w.shape[0]


class GeluNode(_RowsNode):
    kind = "gelu"

    def __init__(self, node_id, n_tokens, width, sbp_enabled=False, grid=None):
        self.node_id = node_id
        self.n_tokens = n_tokens
        self.width = width
        self.sbp_enabled = sbp_enabled
        self.grid = tuple(grid) if grid else (n_tokens,)

    def params(self):
        return {}

    def forward(self, x, mask=None, mode=None, head_keep=None):
        return gelu_forward(x), self.restrict(_rows_record(x), mask)

    def backward(self, rec, dy):
        x_k, keep = rec.cache
        return {}, _scatter(gelu_backward(x_k, _gather(dy, keep)), keep, dy.shape[1])

    def estimate_cached(self, batch, keep_count, mode):
        rows = self.n_tokens if keep_count is None else keep_count
        return batch * rows * self.width


class TransformerBlockNode(Node):
    """Pre-norm transformer block: x + MHSA(LN(x)), then x + MLP(LN(x)).

    Under SBP the whole block shares one token mask; both branches cache only
    kept token rows (the attention cache restriction depends on the drop mode).
    """

    kind = "block"

    def __init__(self, node_id, n_tokens, embed, heads, mlp_ratio, rng,
                 sbp_enabled=False, grid=None):
        if embed % heads:
            raise ConfigurationError("embed dim must divide evenly over heads")
        self.node_id = node_id
        self.n_tokens = n_tokens
        self.embed = embed
        self.heads = heads
        self.dim_head = embed // heads
        self.hidden = mlp_ratio * embed
        self.sbp_enabled = sbp_enabled
        self.grid = tuple(grid) if grid else (n_tokens,)
        s = 1.0 / math.sqrt(embed)
        self.ln1_g = np.ones(embed)
        self.ln1_b = np.zeros(embed)
        self.w_q = rng.normal(0.0, s, (embed, embed))
        self.w_k = rng.normal(0.0, s, (embed, embed))
        self.w_v = rng.normal(0.0, s, (embed, embed))
        self.w_o = rng.normal(0.0, s, (embed, embed))
        self.ln2_g = np.ones(embed)
        self.ln2_b = np.zeros(embed)
        self.w1 = rng.normal(0.0, s, (embed, self.hidden))
        self.b1 = np.zeros(self.hidden)
        self.w2 = rng.normal(0.0, 1.0 / math.sqrt(self.hidden), (self.hidden, embed))
        self.b2 = np.zeros(embed)

    def params(self):
        return {k: getattr(self, k) for k in
                ("ln1_g", "ln1_b", "w_q", "w_k", "w_v", "w_o",
                 "ln2_g", "ln2_b", "w1", "b1", "w2", "b2")}

    def _mhsa(self):
        return MhsaLayer(self.heads, self.dim_head, self.w_q, self.w_k, self.w_v, self.w_o)

    def forward(self, x, mask=None, mode=None, head_keep=None):
        h1, ln1c = layer_norm_forward(x, self.ln1_g, self.ln1_b)
        att, mc = mhsa_forward(self._mhsa(), h1)
        x2 = x + att
        h2, ln2c = layer_norm_forward(x2, self.ln2_g, self.ln2_b)
        b, n, c = x.shape
        u = (h2.reshape(b * n, c) @ self.w1 + self.b1).reshape(b, n, -1)
        cdf = gelu_cdf(u)
        g = u * cdf
        mo = (g.reshape(b * n, -1) @ self.w2 + self.b2).reshape(b, n, c)
        # The LN outputs h1 (the attention input) and h2 are not kept: the
        # backward rebuilds them from the cached x_hat, bit for bit.
        cache = {"ln1": ln1c, "mhsa": replace(mc, x=None), "ln2": ln2c,
                 "u": u, "cdf": cdf}
        rec = NodeRecord(cache, None, None, None, _cache_elements(cache))
        return x2 + mo, self.restrict(rec, mask, mode, head_keep)

    def restrict(self, rec, mask=None, mode=None, head_keep=None):
        keep = _kept(mask)
        if keep is None:
            return rec
        full = rec.cache
        # The MLP branch keeps kept token rows only, in every mode. The
        # attention-input LN can be restricted only when the attention backward
        # returns zero input-gradient at dropped rows (the qkv mode).
        ln1_keep = keep if mode == "qkv" else None
        cache = {"ln1": tuple(_gather(t, ln1_keep) for t in full["ln1"]),
                 "mhsa": restrict_mhsa_cache(full["mhsa"], keep, mode, head_keep),
                 "ln2": tuple(_gather(t, keep) for t in full["ln2"]),
                 "u": _gather(full["u"], keep), "cdf": _gather(full["cdf"], keep)}
        return NodeRecord(cache, mask, mode, head_keep, _cache_elements(cache))

    def backward(self, rec, dy):
        cache = rec.cache
        keep = _kept(rec.mask)
        grads = {}
        dx2 = _add_rows(dy, keep, self._mlp_backward(cache, _gather(dy, keep), grads))
        mc = replace(cache["mhsa"], x=self.ln1_g * cache["ln1"][0] + self.ln1_b)
        if keep is None:
            mg = mhsa_backward_full(self._mhsa(), mc, dx2)
        else:
            mg = mhsa_backward_kept(self._mhsa(), mc, dx2, keep, rec.mode, rec.head_keep)
        grads["w_q"], grads["w_k"], grads["w_v"], grads["w_o"] = (
            mg.dw_q, mg.dw_k, mg.dw_v, mg.dw_o)
        ln1_keep = keep if rec.mode == "qkv" else None
        grads["ln1_g"], grads["ln1_b"], dxa = layer_norm_backward(
            cache["ln1"], self.ln1_g, _gather(mg.dx, ln1_keep))
        return grads, _add_rows(dx2, ln1_keep, dxa)

    def _mlp_backward(self, cache, dy_k, grads):
        """MLP branch on the cached rows: fills its grads, returns the input
        gradient through LN2. Its temporaries are freed before the attention
        backward, the block's largest, allocates its own."""
        b, nk, c = dy_k.shape
        u, cdf = cache["u"], cache["cdf"]
        dmo = dy_k.reshape(b * nk, c)
        grads["w2"] = (u * cdf).reshape(b * nk, -1).T @ dmo
        grads["b2"] = dmo.sum(axis=0)
        dg = (dmo @ self.w2.T).reshape(b, nk, -1)
        du_f = gelu_backward(u, dg, cdf).reshape(b * nk, -1)
        h2 = self.ln2_g * cache["ln2"][0] + self.ln2_b  # the forward's LN2 output
        grads["w1"] = h2.reshape(b * nk, c).T @ du_f
        grads["b1"] = du_f.sum(axis=0)
        dh2 = (du_f @ self.w1.T).reshape(b, nk, c)
        grads["ln2_g"], grads["ln2_b"], dx = layer_norm_backward(cache["ln2"], self.ln2_g, dh2)
        return dx

    def estimate_cached(self, batch, keep_count, mode, head_keep_count=None):
        n, c, h, d, f = self.n_tokens, self.embed, self.heads, self.dim_head, self.hidden
        # The attention input is not counted: the backward rebuilds it from
        # LN1's x_hat (and the MLP input from LN2's).
        if keep_count is None:
            mhsa = 4 * h * n * d + h * n * n
            return batch * ((n * c + n) * 2 + 2 * n * f + mhsa)
        k = keep_count
        mlp_side = (k * c + k) + 2 * k * f  # ln2, u, cdf on kept rows
        if mode == "qkv":
            ln1 = k * c + k
            mhsa = 4 * h * k * d + h * k * k
        elif mode == "query_only":
            ln1 = n * c + n
            mhsa = 2 * h * n * d + h * k * d + h * n * n + h * n * d
        elif mode == "head":
            ln1 = n * c + n
            hk = h if head_keep_count is None else head_keep_count
            mhsa = hk * (3 * n * d + n * n) + h * n * d
        else:
            raise ConfigurationError(f"unknown mode {mode!r}")
        return batch * (ln1 + mhsa + mlp_side)


class Conv2dNode(Node):
    """Conv + optional GELU on a B x H x W x C grid; mask lives on the output grid."""

    kind = "conv"

    def __init__(self, node_id, in_grid, c_in, c_out, rng, kernel=3, stride=1,
                 padding=1, activation=True, sbp_enabled=False):
        self.node_id = node_id
        self.in_grid = tuple(in_grid)
        w = rng.normal(0.0, 1.0 / math.sqrt(kernel * kernel * c_in),
                       (kernel, kernel, c_in, c_out))
        self.w = w
        self.stride = stride
        self.padding = padding
        self.activation = activation
        self.sbp_enabled = sbp_enabled
        layer = Conv2dLayer(w, stride, padding)
        from .layers import conv2d_output_grid
        self.out_grid = conv2d_output_grid(layer, *self.in_grid)
        self.grid = self.out_grid

    def params(self):
        return {"w": self.w}

    def _layer(self):
        return Conv2dLayer(self.w, self.stride, self.padding)

    def forward(self, x, mask=None, mode=None, head_keep=None):
        y = conv2d_forward(self._layer(), x)
        u = y
        if self.activation:
            y = gelu_forward(u)
        # General conv keeps the full input cached: with kernel > stride the
        # kept outputs' receptive fields overlap nearly everything.
        cache = (x, u if self.activation else None)
        rec = NodeRecord(cache, None, None, None, _nbytes_elems(*cache))
        return y, self.restrict(rec, mask, mode, head_keep)

    def restrict(self, rec, mask=None, mode=None, head_keep=None):
        return replace(rec, mask=mask, mode=mode)

    def backward(self, rec, dy):
        x, u = rec.cache
        if self.activation:
            # GELU's backward is elementwise, so the dropped positions can be
            # zeroed after it, once, by conv2d_backward_sbp.
            dy = gelu_backward(u, dy)
        if rec.mask is None or rec.mask.is_full_keep:
            dw, dx = conv2d_backward_full(self._layer(), x, dy)
        else:
            dw, dx = conv2d_backward_sbp(self._layer(), x, dy, rec.mask)
        return {"w": dw}, dx

    def estimate_cached(self, batch, keep_count, mode):
        h, w = self.in_grid
        ho, wo = self.out_grid
        c_in, c_out = self.w.shape[2], self.w.shape[3]
        total = batch * h * w * c_in
        if self.activation:
            total += batch * ho * wo * c_out
        return total


class MeanPoolNode(Node):
    """Mean over the token axis: B x N x C -> B x C."""

    kind = "pool"

    def __init__(self, node_id):
        self.node_id = node_id

    def params(self):
        return {}

    def forward(self, x, mask=None, mode=None, head_keep=None):
        orig = x.shape
        if x.ndim == 4:
            b, h, w, c = x.shape
            x = x.reshape(b, h * w, c)
        return x.mean(axis=1), NodeRecord(orig, None, None, None, 0)

    def backward(self, rec, dy):
        shape = rec.cache
        n = int(np.prod(shape[1:-1]))
        dx = np.repeat(dy[:, None, :], n, axis=1) / n
        return {}, dx.reshape(shape)

    def estimate_cached(self, batch, keep_count, mode):
        return 0


class ClassifierNode(Node):
    """Final linear layer on pooled features (never SBP-wrapped)."""

    kind = "classifier"

    def __init__(self, node_id, c_in, n_out, rng):
        self.node_id = node_id
        self.w = rng.normal(0.0, 1.0 / math.sqrt(c_in), (c_in, n_out))
        self.b = np.zeros(n_out)

    def params(self):
        return {"w": self.w, "b": self.b}

    def forward(self, x, mask=None, mode=None, head_keep=None):
        return x @ self.w + self.b, NodeRecord(x, None, None, None, x.size)

    def backward(self, rec, dy):
        x = rec.cache
        return {"w": x.T @ dy, "b": dy.sum(axis=0)}, dy @ self.w.T

    def estimate_cached(self, batch, keep_count, mode):
        return batch * self.w.shape[0]


@dataclass
class Model:
    spec: NetworkSpec
    nodes: list
    loss: str

    def params(self) -> dict[str, Array]:
        out = {}
        for node in self.nodes:
            for name, value in node.params().items():
                out[f"{node.node_id}.{name}"] = value
        return out

    def set_params(self, values: dict[str, Array]):
        for node in self.nodes:
            for name in node.params():
                key = f"{node.node_id}.{name}"
                if key not in values:
                    raise ConfigurationError(f"missing parameter {key}")
                node.set_param(name, np.asarray(values[key], dtype=np.float64))

    def n_params(self) -> int:
        return sum(v.size for v in self.params().values())

    def sbp_layers(self):
        return self.spec.sbp_layers()


# ---------------------------------------------------------------------------
# Spec builders
# ---------------------------------------------------------------------------


def _sbp_flags(depth: int, fraction: float) -> list[bool]:
    """SBP on the last ceil(fraction * depth) layers."""
    n = math.ceil(fraction * depth)
    n = min(max(n, 0), depth)
    return [i >= depth - n for i in range(depth)]


def mlp_spec(grid=(8, 8), in_channels=3, width=32, depth=3, n_classes=2,
             sbp_fraction=1.0, loss="xent") -> NetworkSpec:
    """Token-wise MLP: embed, depth x (linear + gelu) units, mean pool, classifier."""
    flags = _sbp_flags(depth, sbp_fraction)
    layers = [LayerSpecEntry("embed", "embed", {"grid": tuple(grid), "in_channels": in_channels,
                                                "width": width})]
    for i, flag in enumerate(flags):
        layers.append(LayerSpecEntry("mlp_layer", f"mlp{i}",
                                     {"grid": tuple(grid), "width": width}, flag))
    layers.append(LayerSpecEntry("pool", "pool"))
    layers.append(LayerSpecEntry("classifier", "head", {"n_classes": n_classes}))
    return NetworkSpec(tuple(layers), loss)


def tiny_vit_spec(grid=(8, 8), in_channels=3, embed=32, heads=2, depth=6,
                  mlp_ratio=2, n_classes=2, sbp_fraction=2 / 3, loss="xent") -> NetworkSpec:
    flags = _sbp_flags(depth, sbp_fraction)
    layers = [LayerSpecEntry("embed", "embed", {"grid": tuple(grid), "in_channels": in_channels,
                                                "width": embed})]
    for i, flag in enumerate(flags):
        layers.append(LayerSpecEntry("block", f"block{i}",
                                     {"grid": tuple(grid), "embed": embed, "heads": heads,
                                      "mlp_ratio": mlp_ratio}, flag))
    layers.append(LayerSpecEntry("pool", "pool"))
    layers.append(LayerSpecEntry("classifier", "head", {"n_classes": n_classes}))
    return NetworkSpec(tuple(layers), loss)


def vit_tiny_preset(n_classes=1000) -> NetworkSpec:
    """The full-size 12-block, embed-192 configuration. Far too large for
    finite-difference checks; provided as a named preset only."""
    return tiny_vit_spec(grid=(14, 14), in_channels=3, embed=192, heads=3,
                         depth=12, mlp_ratio=4, n_classes=n_classes,
                         sbp_fraction=2 / 3)


def tiny_conv_spec(grid=(8, 8), in_channels=3, channels=16, depth=3, kernel=3,
                   n_classes=2, sbp_fraction=1.0, loss="xent") -> NetworkSpec:
    flags = _sbp_flags(depth, sbp_fraction)
    layers = []
    c_prev = in_channels
    for i, flag in enumerate(flags):
        layers.append(LayerSpecEntry("conv", f"conv{i}",
                                     {"grid": tuple(grid), "in_channels": c_prev,
                                      "channels": channels, "kernel": kernel,
                                      "stride": 1, "padding": kernel // 2}, flag))
        c_prev = channels
    layers.append(LayerSpecEntry("pool", "pool"))
    layers.append(LayerSpecEntry("classifier", "head", {"n_classes": n_classes}))
    return NetworkSpec(tuple(layers), "xent" if n_classes else "mse")


def build_model(spec: NetworkSpec, seed: int) -> Model:
    """Deterministically initialize a Model from its NetworkSpec."""
    rng = np.random.Generator(np.random.PCG64(seed))
    nodes = []
    width = None
    n_tokens = None
    for entry in spec.layers:
        o = entry.options
        if entry.kind == "embed":
            n_tokens = int(np.prod(o["grid"]))
            width = o["width"]
            nodes.append(TokenEmbedNode(entry.layer_id, n_tokens, o["in_channels"], width, rng))
        elif entry.kind == "mlp_layer":
            lin = TokenLinearNode(f"{entry.layer_id}.lin", n_tokens, width, o["width"], rng,
                                  sbp_enabled=entry.sbp_enabled, grid=o["grid"])
            act = GeluNode(f"{entry.layer_id}.act", n_tokens, o["width"],
                           sbp_enabled=entry.sbp_enabled, grid=o["grid"])
            lin.mask_group = act.mask_group = entry.layer_id
            width = o["width"]
            nodes.extend([lin, act])
        elif entry.kind == "block":
            blk = TransformerBlockNode(entry.layer_id, n_tokens, o["embed"], o["heads"],
                                       o["mlp_ratio"], rng, sbp_enabled=entry.sbp_enabled,
                                       grid=o["grid"])
            blk.mask_group = entry.layer_id
            nodes.append(blk)
        elif entry.kind == "conv":
            conv = Conv2dNode(entry.layer_id, o["grid"], o["in_channels"], o["channels"], rng,
                              kernel=o["kernel"], stride=o["stride"], padding=o["padding"],
                              sbp_enabled=entry.sbp_enabled)
            conv.mask_group = entry.layer_id
            width = o["channels"]
            n_tokens = int(np.prod(conv.out_grid))
            nodes.append(conv)
        elif entry.kind == "pool":
            nodes.append(MeanPoolNode(entry.layer_id))
        elif entry.kind == "classifier":
            nodes.append(ClassifierNode(entry.layer_id, width, o["n_classes"], rng))
        else:
            raise ConfigurationError(f"unknown layer kind {entry.kind!r}")
    return Model(spec, nodes, spec.loss)
