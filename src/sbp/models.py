"""Network nodes and the model builder (token MLP, tiny ViT, tiny conv net).

A Model is an ordered list of nodes. Each node's forward is exact and records
the activations its backward will need; `restrict` cuts such a full record down
to what a `Selection` keeps, and the backward runs from either kind of record.
Node records are what the tape stores: each is a flat dict of named float
activations, batch first, and its cached-element count is the sum of their
sizes. The selection comes from the engine; no node knows the drop modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import ModelConfig
from .errors import ConfigurationError, DimensionError
from .layers import (
    EXACT,
    Conv2dLayer,
    MhsaCache,
    MhsaLayer,
    Selection,
    conv2d_backward,
    conv2d_forward,
    conv2d_output_grid,
    gelu_backward,
    gelu_cdf,
    gelu_forward,
    layer_norm_backward,
    layer_norm_forward,
    linear_backward_kept,
    mhsa_backward,
    mhsa_forward,
    restrict_attention,
    row_gemm,
)

Array = np.ndarray


@dataclass
class NodeRecord:
    """One tape entry: the float activations a node's backward reads, by name,
    each with the batch on axis 0, plus the selection they were cut to.
    `spent` marks a record no one reads after this backward, so the backward
    may write over it (`engine.backward` sets it and says when)."""

    cache: dict[str, Array]
    sel: Selection = EXACT
    spent: bool = False

    @property
    def cached_elements(self) -> int:
        return sum(a.size for a in self.cache.values())


def _gather(t: Array, keep) -> Array:
    """Kept token rows of a B x N x ... array (all of it when keep is None)."""
    return t if keep is None else np.take(t, keep, axis=1)


@dataclass(frozen=True)
class Rows:
    """A B x n x C gradient held as its rows at `keep` (B x k x C `values`);
    every other row is zero. A masked token unit passes its input gradient
    on in this form, so no zero-filled B x n x C array is built between two
    masked units. Indexing by a batch slice gives those samples' Rows."""

    values: Array
    keep: Array
    n: int

    def __getitem__(self, part: slice) -> Rows:
        return Rows(self.values[part], self.keep, self.n)


def rows_at(dy, keep) -> Array:
    """The rows of the upstream gradient `dy` at `keep` (all of it when keep
    is None), as an array; the only way a node reads its upstream.

    A plain array is gathered. A `Rows` is placed into a zero array at the
    rows its keep shares with `keep`, which gives the bits of scattering it
    into a zero B x n x C array and gathering that. No node writes into the
    result.
    """
    if not isinstance(dy, Rows):
        return _gather(dy, keep)
    b, _, c = dy.values.shape
    if keep is None:
        out = np.zeros((b, dy.n, c))
        out[:, dy.keep, :] = dy.values
        return out
    out = np.zeros((b, keep.size, c))
    _, theirs, ours = np.intersect1d(dy.keep, keep, assume_unique=True, return_indices=True)
    out[:, ours, :] = dy.values[:, theirs, :]
    return out


def _add_rows(base: Array, keep, rows: Array, inplace: bool = False) -> Array:
    """base plus rows added at the kept token rows (at every row when keep is
    None), into base itself when inplace, else into a copy."""
    out = base if inplace else base.copy()
    if keep is None:
        out += rows
    else:
        out[:, keep, :] += rows
    return out


# Samples per batch chunk: a planned forward runs each masked node, and the
# token unit's backward its u rebuild, over chunks of this many samples, so
# only one chunk's transients are alive at a time.
BATCH_CHUNK = 4


def batch_chunks(batch: int) -> list[slice]:
    """Consecutive BATCH_CHUNK-sample slices covering `batch` samples; the last
    one absorbs the remainder, so none is shorter than min(BATCH_CHUNK, batch).
    Every row-wise product on a chunk is still a GEMM over all its rows."""
    n = max(batch // BATCH_CHUNK, 1)
    return [slice(i * BATCH_CHUNK, batch if i == n - 1 else (i + 1) * BATCH_CHUNK)
            for i in range(n)]


class Node:
    node_id: str
    kind: str
    sbp_enabled: bool = False
    grid: tuple[int, ...] | None = None  # the mask domain, when sbp_enabled

    def params(self) -> dict[str, Array]:
        raise NotImplementedError

    def set_param(self, name: str, value: Array):
        setattr(self, name, value)

    def forward(self, x):
        """Exact output and the full record; `restrict` cuts it down to a selection."""
        raise NotImplementedError

    def restrict(self, rec: NodeRecord, sel: Selection) -> NodeRecord:
        """The part of a full (unmasked) record that the backward under `sel`
        reads; by default all of it."""
        return replace(rec, sel=sel)

    def backward(self, rec: NodeRecord, dy):
        """(grads by parameter name, input gradient) from the record and the
        upstream gradient `dy`, an array or a `Rows`, read with `rows_at`."""
        raise NotImplementedError

    def estimate_cached(self, batch: int, sel: Selection) -> int:
        """Analytic cached-element count of the record `restrict` leaves under
        `sel` (EXACT: the full record)."""
        raise NotImplementedError


class TokenEmbedNode(Node):
    """Per-token linear embedding plus a learned positional table."""

    kind = "embed"

    def __init__(self, node_id, n_tokens, c_in, c_out, rng):
        self.node_id = node_id
        self.n_tokens = n_tokens
        self.w = rng.normal(0.0, 1.0 / math.sqrt(c_in), (c_in, c_out))
        self.b = np.zeros(c_out)
        self.pos = 0.02 * rng.normal(size=(n_tokens, c_out))

    def params(self):
        return {"w": self.w, "b": self.b, "pos": self.pos}

    def forward(self, x):
        rows = x.reshape(x.shape[0], -1, x.shape[-1])  # a B x H x W x C grid to token rows
        if rows.shape[1] != self.n_tokens:
            raise DimensionError(f"expected {self.n_tokens} tokens, got {rows.shape[1]}")
        return row_gemm(rows, self.w, self.b) + self.pos, NodeRecord({"x": x})

    def backward(self, rec, dy):
        x = rec.cache["x"]
        dy = rows_at(dy, None)
        grads = {}
        # The pos gradient is taken first on purpose. Taken after dx, peak RSS
        # on the train-mlp16-random benchmark workload rose by about 2 MB:
        # a glibc heap-layout effect, the live bytes are the same.
        grads["pos"] = dy.sum(axis=0)
        grads["w"], grads["b"], dx = linear_backward_kept(x, dy, self.w, True)
        return grads, dx.reshape(x.shape)

    def estimate_cached(self, batch, sel):
        return batch * self.n_tokens * self.w.shape[0]


class TokenLinearNode(Node):
    """One token-MLP unit: a linear layer applied per token row (the
    canonical SBP PW-Conv case), then a GELU.

    The record holds the kept rows of the input only, so the masked backward
    reads the upstream's kept rows (`rows_at`), runs on kept rows only and
    returns the input gradient as its kept rows, a `Rows`: the next masked
    unit reads its own rows from it, and no zero-filled B x N x C array is
    built between them. The backward rebuilds the GELU input u from those rows
    with the forward's `row_gemm`, so it gets the forward's bits. (With one
    cached row in all, B = 1 and one kept token, the last bit may differ; the
    gradient stays within the oracle, and a backward from an exact tape
    still equals one from a masked forward.) When the record is spent
    (`engine.backward` says when), the input gradient is written over the
    kept rows once dW has read them, so no second B x k x C array is made.
    """

    kind = "linear"

    def __init__(self, node_id, n_tokens, c_in, c_out, rng, sbp_enabled=False, grid=None):
        self.node_id = node_id
        self.n_tokens = n_tokens
        self.w = rng.normal(0.0, 1.0 / math.sqrt(c_in), (c_in, c_out))
        self.b = np.zeros(c_out)
        self.sbp_enabled = sbp_enabled
        self.grid = tuple(grid) if grid else (n_tokens,)

    def params(self):
        return {"w": self.w, "b": self.b}

    def forward(self, x):
        return gelu_forward(row_gemm(x, self.w, self.b)), NodeRecord({"x": x})

    def restrict(self, rec, sel):
        return NodeRecord({"x": _gather(rec.cache["x"], sel.keep)}, sel)

    def backward(self, rec, dy):
        x_k, keep = rec.cache["x"], rec.sel.keep
        # u is rebuilt and taken through the GELU backward chunk by chunk, so
        # one chunk's u and temporaries are alive at a time; dW, db and dX
        # stay one GEMM or sum over all cached rows.
        dy_k = np.empty((*x_k.shape[:-1], self.w.shape[1]))
        for part in batch_chunks(x_k.shape[0]):
            dy_k[part] = gelu_backward(row_gemm(x_k[part], self.w, self.b),
                                       rows_at(dy[part], keep))
        spend = rec.spent and keep is not None
        dw, db, dx_k = linear_backward_kept(x_k, dy_k, self.w, True, x_k if spend else None)
        del dy_k
        return {"w": dw, "b": db}, dx_k if keep is None else Rows(dx_k, keep, self.n_tokens)

    def estimate_cached(self, batch, sel):
        rows = self.n_tokens if sel.keep is None else sel.keep.size
        return batch * rows * self.w.shape[0]


class TransformerBlockNode(Node):
    """Pre-norm transformer block: x + MHSA(LN(x)), then x + MLP(LN(x)).

    Under SBP the whole block shares one token mask; both branches cache only
    kept token rows (the attention cache restriction depends on the drop mode).
    The record holds only what the backward cannot rebuild: x_hat and 1/sigma
    of both LNs, the attention weights S and per-head outputs A, and the GELU
    CDF Phi(u). The LN outputs, Q, K, V and u are one affine map or GEMM away
    from a cached x_hat, so the backward rebuilds them, bit for bit: the LN
    outputs and u here, Q, K and V in the attention kernel.
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

    def forward(self, x):
        cache = {}
        x2 = x + self._attention_forward(x, cache)
        return x2 + self._mlp_forward(x2, cache), NodeRecord(cache)

    def _attention_forward(self, x, cache):
        """Attention branch output; caches LN1's x_hat and 1/sigma, S and A.
        The attention input and Q, K and V die when it returns."""
        h1, (cache["ln1_xhat"], cache["ln1_inv_std"]) = layer_norm_forward(
            x, self.ln1_g, self.ln1_b)
        att, mc = mhsa_forward(self._mhsa(), h1)
        cache["s"], cache["a"] = mc.s, mc.a
        return att

    def _mlp_forward(self, x2, cache):
        """MLP branch output; caches LN2's x_hat and 1/sigma and Phi(u). h2 and
        u are freed at their last use, g when it returns."""
        h2, (cache["ln2_xhat"], cache["ln2_inv_std"]) = layer_norm_forward(
            x2, self.ln2_g, self.ln2_b)
        u = row_gemm(h2, self.w1, self.b1)
        del h2
        cache["cdf"] = cdf = gelu_cdf(u)
        g = u * cdf
        del u
        return row_gemm(g, self.w2, self.b2)

    def restrict(self, rec, sel):
        full = rec.cache
        # The MLP branch keeps kept token rows only, in every mode; LN1 keeps
        # the rows the attention backward covers (the kept ones in qkv).
        cache = {name: _gather(full[name], sel.rows) for name in ("ln1_xhat", "ln1_inv_std")}
        cache["s"], cache["a"] = restrict_attention(full["s"], full["a"], sel)
        for name in ("ln2_xhat", "ln2_inv_std", "cdf"):
            cache[name] = _gather(full[name], sel.keep)
        return NodeRecord(cache, sel)

    def backward(self, rec, dy):
        cache, sel = rec.cache, rec.sel
        keep, rows, queries, heads = sel.keep, sel.rows, sel.queries, sel.heads
        grads = {}
        # The residual needs the whole upstream. It can be the pool's
        # read-only view; dx2 is the block's own.
        dy = rows_at(dy, None)
        dx2 = _add_rows(dy, keep, self._mlp_backward(cache, _gather(dy, keep), grads))
        # X is the forward's LN1 output; the kernel rebuilds Q, K and V from it.
        x = self.ln1_g * cache["ln1_xhat"] + self.ln1_b
        mg = mhsa_backward(self._mhsa(), MhsaCache(x, cache["s"], cache["a"]),
                           _gather(dx2, rows), queries, heads)
        del x
        grads["w_q"], grads["w_k"], grads["w_v"], grads["w_o"] = (
            mg.dw_q, mg.dw_k, mg.dw_v, mg.dw_o)
        grads["ln1_g"], grads["ln1_b"], dxa = layer_norm_backward(
            (cache["ln1_xhat"], cache["ln1_inv_std"]), self.ln1_g, mg.dx)
        return grads, _add_rows(dx2, rows, dxa, inplace=True)

    def _mlp_backward(self, cache, dy_k, grads):
        """MLP branch on the cached rows: fills its grads, returns the input
        gradient through LN2. Its temporaries are freed before the attention
        backward, the block's largest, allocates its own."""
        h2 = self.ln2_g * cache["ln2_xhat"] + self.ln2_b  # the forward's LN2 output
        u = row_gemm(h2, self.w1, self.b1)
        cdf = cache["cdf"]
        grads["w2"], grads["b2"], dg = linear_backward_kept(u * cdf, dy_k, self.w2, True)
        du = gelu_backward(u, dg, cdf)
        grads["w1"], grads["b1"], dh2 = linear_backward_kept(h2, du, self.w1, True)
        grads["ln2_g"], grads["ln2_b"], dx = layer_norm_backward(
            (cache["ln2_xhat"], cache["ln2_inv_std"]), self.ln2_g, dh2)
        return dx

    def estimate_cached(self, batch, sel):
        n, c, h, d, f = self.n_tokens, self.embed, self.heads, self.dim_head, self.hidden
        # Only S, A, both LNs' x_hat and 1/sigma, and Phi(u) are counted:
        # the backward rebuilds the rest (see the class docstring). The MLP
        # side caches k rows; the attention side r rows, and S on hs heads.
        k, r = (n if a is None else a.size for a in (sel.keep, sel.rows))
        hs = h if sel.heads is None else sel.heads.size
        return batch * ((r * c + r) + hs * r * r + h * r * d + (k * c + k) + k * f)


class Conv2dNode(Node):
    """Conv (stride 1, padding kernel // 2) + GELU on a B x H x W x C grid;
    mask lives on the output grid."""

    kind = "conv"

    def __init__(self, node_id, in_grid, c_in, c_out, rng, kernel=3, sbp_enabled=False):
        self.node_id = node_id
        self.in_grid = tuple(in_grid)
        self.w = rng.normal(0.0, 1.0 / math.sqrt(kernel * kernel * c_in),
                            (kernel, kernel, c_in, c_out))
        self.padding = kernel // 2
        self.sbp_enabled = sbp_enabled
        self.out_grid = conv2d_output_grid(self._layer(), *self.in_grid)
        self.grid = self.out_grid

    def params(self):
        return {"w": self.w}

    def _layer(self):
        return Conv2dLayer(self.w, 1, self.padding)

    def forward(self, x):
        u = conv2d_forward(self._layer(), x)
        # General conv keeps the full input cached: with kernel > stride the
        # kept outputs' receptive fields overlap nearly everything.
        return gelu_forward(u), NodeRecord({"x": x, "u": u})

    def backward(self, rec, dy):
        x, u = rec.cache["x"], rec.cache["u"]
        # GELU's backward is elementwise, so the dropped output positions are
        # zeroed after it, in place (at their rows and columns): du is a new
        # array, no node's upstream.
        du = gelu_backward(u, rows_at(dy, None))
        if rec.sel.mask is not None:
            du[(slice(None), *np.divmod(rec.sel.mask.drop_array(), self.out_grid[1]))] = 0.0
        dw, dx = conv2d_backward(self._layer(), x, du)
        return {"w": dw}, dx

    def estimate_cached(self, batch, sel):
        h, w = self.in_grid
        ho, wo = self.out_grid
        c_in, c_out = self.w.shape[2], self.w.shape[3]
        return batch * (h * w * c_in + ho * wo * c_out)


class MeanPoolNode(Node):
    """Mean over the token axis: B x N x C (or B x H x W x C) -> B x C.
    Its record caches nothing; `in_shape` is the per-sample input shape."""

    kind = "pool"

    def __init__(self, node_id, in_shape):
        self.node_id = node_id
        self.in_shape = tuple(in_shape)

    def params(self):
        return {}

    def forward(self, x):
        return x.reshape(x.shape[0], -1, x.shape[-1]).mean(axis=1), NodeRecord({})

    def backward(self, rec, dy):
        dy = rows_at(dy, None)
        n = math.prod(self.in_shape[:-1])
        # A read-only broadcast view, not n copies of each row: no node writes
        # into its upstream, and one that tried would raise.
        dx = np.broadcast_to((dy / n)[:, None, :], (dy.shape[0], n, dy.shape[1]))
        return {}, dx.reshape(dy.shape[0], *self.in_shape)

    def estimate_cached(self, batch, sel):
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

    def forward(self, x):
        return row_gemm(x, self.w, self.b), NodeRecord({"x": x})

    def backward(self, rec, dy):
        dw, db, dx = linear_backward_kept(rec.cache["x"], rows_at(dy, None), self.w, True)
        return {"w": dw, "b": db}, dx

    def estimate_cached(self, batch, sel):
        return batch * self.w.shape[0]


@dataclass
class Model:
    nodes: list
    loss: str  # "xent" | "mse"

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
        """(node_id, grid) of every SBP-enabled node, in network order: a
        node's own grid is the domain of its mask."""
        return [(node.node_id, node.grid) for node in self.nodes if node.sbp_enabled]


# ---------------------------------------------------------------------------
# Model builders
# ---------------------------------------------------------------------------


def _sbp_flags(depth: int, fraction: float) -> list[bool]:
    """SBP on the last ceil(fraction * depth) layers."""
    n = math.ceil(fraction * depth)
    n = min(max(n, 0), depth)
    return [i >= depth - n for i in range(depth)]


def mlp_spec(grid=(8, 8), in_channels=3, width=32, depth=3, n_classes=2,
             sbp_fraction=1.0) -> ModelConfig:
    """Token-wise MLP: embed, depth x (linear then GELU) units, mean pool, classifier."""
    return ModelConfig(kind="mlp", grid=tuple(grid), in_channels=in_channels, width=width,
                       depth=depth, n_classes=n_classes, sbp_fraction=sbp_fraction)


def tiny_vit_spec(grid=(8, 8), in_channels=3, embed=32, heads=2, depth=6,
                  mlp_ratio=2, n_classes=2, sbp_fraction=2 / 3) -> ModelConfig:
    """Tiny ViT: embed, depth transformer blocks, mean pool, classifier."""
    return ModelConfig(kind="vit", grid=tuple(grid), in_channels=in_channels, embed=embed,
                       heads=heads, depth=depth, mlp_ratio=mlp_ratio, n_classes=n_classes,
                       sbp_fraction=sbp_fraction)


def vit_tiny_preset(n_classes=1000) -> ModelConfig:
    """The full-size 12-block, embed-192 configuration. Far too large for
    finite-difference checks; provided as a named preset only."""
    return tiny_vit_spec(grid=(14, 14), in_channels=3, embed=192, heads=3,
                         depth=12, mlp_ratio=4, n_classes=n_classes,
                         sbp_fraction=2 / 3)


def tiny_conv_spec(grid=(8, 8), in_channels=3, channels=16, depth=3, kernel=3,
                   n_classes=2, sbp_fraction=1.0) -> ModelConfig:
    """Tiny CNN: depth conv + GELU layers, mean pool, classifier."""
    return ModelConfig(kind="conv", grid=tuple(grid), in_channels=in_channels,
                       channels=channels, depth=depth, kernel=kernel, n_classes=n_classes,
                       sbp_fraction=sbp_fraction)


def build_model(m: ModelConfig, seed: int) -> Model:
    """Deterministically initialize a Model from its ModelConfig: the kind's
    units in order, SBP on the last ones (`sbp_fraction`), then a mean pool
    and the classifier."""
    rng = np.random.Generator(np.random.PCG64(seed))
    flags = _sbp_flags(m.depth, m.sbp_fraction)
    n_tokens = math.prod(m.grid)
    if m.kind == "mlp":
        nodes = [TokenEmbedNode("embed", n_tokens, m.in_channels, m.width, rng)]
        nodes += [TokenLinearNode(f"mlp{i}", n_tokens, m.width, m.width, rng,
                                  sbp_enabled=flag, grid=m.grid)
                  for i, flag in enumerate(flags)]
        tokens, width = (n_tokens,), m.width
    elif m.kind == "vit":
        nodes = [TokenEmbedNode("embed", n_tokens, m.in_channels, m.embed, rng)]
        nodes += [TransformerBlockNode(f"block{i}", n_tokens, m.embed, m.heads, m.mlp_ratio,
                                       rng, sbp_enabled=flag, grid=m.grid)
                  for i, flag in enumerate(flags)]
        tokens, width = (n_tokens,), m.embed
    elif m.kind == "conv":
        nodes = []
        tokens, width = m.grid, m.in_channels
        for i, flag in enumerate(flags):
            # Each conv reads the grid the one before it wrote, which an even kernel changes.
            conv = Conv2dNode(f"conv{i}", tokens, width, m.channels, rng, kernel=m.kernel,
                              sbp_enabled=flag)
            nodes.append(conv)
            tokens, width = conv.out_grid, m.channels
    else:
        raise ConfigurationError(f"unknown model kind {m.kind!r}")
    nodes.append(MeanPoolNode("pool", (*tokens, width)))
    nodes.append(ClassifierNode("head", width, m.n_classes, rng))
    return Model(nodes, "xent")
