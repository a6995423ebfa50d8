"""A small trainable token encoder with hand-derived backpropagation.

Surface symbols are embedded through a fixed 64-bit hash into the bucket
rows of one table (so the vocabulary is open), marker and sequence-start
symbols get its never-hashed rows after the buckets, learned positions are
added, and a stack of single-head self-attention + feed-forward blocks with
residual connections and layer norm produces the contextual vectors.

Everything is numpy float64. Forward passes cache exactly what backward
needs, and `grad_check` compares the analytic gradients against central
finite differences, which is the one test that keeps several hundred lines
of calculus honest.
"""

import dataclasses
import hashlib
import logging
import math
from typing import Callable, Dict, Hashable, List, Optional, Sequence

import numpy as np

from .config import PipelineConfig
from .errors import ConfigError, NonFiniteError, OverLengthError, TrainingDivergedError

log = logging.getLogger(__name__)

CLS_SYMBOL = "[CLS]"
SUBJ_OPEN = "[S:CHEM]"
SUBJ_CLOSE = "[\\S:CHEM]"
OBJ_OPEN = "[O:GENE]"
OBJ_CLOSE = "[\\O:GENE]"

SPECIAL_SYMBOLS = (CLS_SYMBOL, SUBJ_OPEN, SUBJ_CLOSE, OBJ_OPEN, OBJ_CLOSE)

_LN_EPS = 1e-5
_BETA1, _BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator floor

Params = Dict[str, np.ndarray]

# training and prediction raise their own error on NaN or infinity, without numpy's warnings
QUIET_FLOATS = np.errstate(over="ignore", invalid="ignore", divide="ignore")


def surface_bucket(surface: str, buckets: int) -> int:
    """Stable 64-bit hash of the surface, reduced modulo the table size."""
    digest = hashlib.blake2b(surface.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") % buckets


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    shifted = scores - np.maximum.reduce(scores, axis=-1, keepdims=True)
    np.exp(shifted, out=shifted)
    shifted /= np.add.reduce(shifted, axis=-1, keepdims=True)
    return shifted


def _ln_forward(z, gamma, beta):
    """Layer norm of each row; ``z`` is overwritten with the normalized rows it caches."""
    d = z.shape[1]
    z -= np.add.reduce(z, axis=1, keepdims=True) / d
    inv_std = 1.0 / np.sqrt(np.add.reduce(z ** 2, axis=1, keepdims=True) / d + _LN_EPS)
    z *= inv_std
    return gamma * z + beta, (z, inv_std)


def _ln_backward(dy, xhat, inv_std, gamma):
    d = dy.shape[1]
    dgamma = (dy * xhat).sum(axis=0)
    dbeta = dy.sum(axis=0)
    dxhat = dy * gamma
    dz = (inv_std / d) * (
        d * dxhat
        - dxhat.sum(axis=1, keepdims=True)
        - xhat * (dxhat * xhat).sum(axis=1, keepdims=True)
    )
    return dz, dgamma, dbeta


def _table_views(table: np.ndarray) -> Params:
    """`tok_emb` and `special_emb`: the bucket rows of an embedding table, then its marker rows."""
    buckets = len(table) - len(SPECIAL_SYMBOLS)
    return {"tok_emb": table[:buckets], "special_emb": table[buckets:]}


def _table(arrays: Params) -> np.ndarray:
    """The embedding table that the `tok_emb` and `special_emb` of parameters or gradients view."""
    return arrays["tok_emb"].base


class TinyEncoder:
    """Hashed embeddings + positions + attention blocks, all trainable."""

    def __init__(self, dim, blocks, ffn_dim, buckets, max_len, seed):
        self.dim, self.blocks, self.ffn_dim, self.buckets, self.max_len = (
            dim, blocks, ffn_dim, buckets, max_len)
        # symbol -> table row: surface_bucket (filled by _rows), buckets + i for SPECIAL_SYMBOLS[i]
        self._row_of = {s: buckets + i for i, s in enumerate(SPECIAL_SYMBOLS)}
        rng = np.random.default_rng(seed)
        table = rng.normal(0.0, 0.1, (buckets + len(SPECIAL_SYMBOLS), dim))  # = a draw per view
        p: Params = {**_table_views(table), "pos_emb": rng.normal(0.0, 0.1, (max_len, dim))}
        w = dim ** -0.5
        for b in range(blocks):
            for name in ("wq", "wk", "wv", "wo"):
                p[f"b{b}.{name}"] = rng.normal(0.0, w, (dim, dim))
            for name in ("bq", "bk", "bv", "bo"):
                p[f"b{b}.{name}"] = np.zeros(dim)
            p[f"b{b}.ln1_g"] = np.ones(dim)
            p[f"b{b}.ln1_b"] = np.zeros(dim)
            p[f"b{b}.w1"] = rng.normal(0.0, w, (dim, self.ffn_dim))
            p[f"b{b}.b1"] = np.zeros(self.ffn_dim)
            p[f"b{b}.w2"] = rng.normal(0.0, self.ffn_dim ** -0.5, (self.ffn_dim, dim))
            p[f"b{b}.b2"] = np.zeros(dim)
            p[f"b{b}.ln2_g"] = np.ones(dim)
            p[f"b{b}.ln2_b"] = np.zeros(dim)
        self.params = p

    # -- symbol lookup ------------------------------------------------------

    def _rows(self, symbols: Sequence[str]) -> np.ndarray:
        """Each symbol's row of the embedding table."""
        for s in set(symbols).difference(self._row_of):
            self._row_of[s] = surface_bucket(s, self.buckets)
        return np.fromiter(map(self._row_of.__getitem__, symbols), np.int64, len(symbols))

    def touched_rows(self, inputs: Sequence[Sequence[str]]) -> Dict[str, object]:
        """The embedding rows backward passes over ``inputs`` can write, for `Adam`.

        Of the ``"table"`` that `tok_emb` and `special_emb` view, the sorted
        rows of the inputs' symbols; of ``"pos_emb"``, the rows below the
        longest input. Once the hashed rows fill half the buckets, gathering
        them costs more than stepping the whole table, so the whole table is given.
        """
        rows = np.unique(self._rows(list(set().union(*inputs))))
        whole = 2 * np.count_nonzero(rows < self.buckets) >= self.buckets  # hashed rows only
        return {"table": slice(None) if whole else rows,
                "pos_emb": slice(0, max(map(len, inputs), default=0))}

    # -- forward / backward -------------------------------------------------

    def forward(self, symbols: Sequence[str], rows: Optional[Sequence[int]] = None):
        """Contextual vectors for the symbols plus the cache backward needs.

        With ``rows``, the last block computes keys and values over every
        symbol but everything else only at those rows, and the output holds
        one vector per row; backward accepts such a cache. The vectors equal
        the full pass's at those rows up to the rounding of the last block.
        """
        n = len(symbols)
        if n > self.max_len:
            raise OverLengthError(
                f"input of {n} symbols exceeds max_len={self.max_len}; "
                "shrink the context window")
        if n == 0:
            return np.zeros((0, self.dim)), {"n": 0, "block": []}
        p = self.params
        cache = {"n": n, "idx": self._rows(symbols), "block": [], "rows": rows}
        x = _table(p)[cache["idx"]]
        x += p["pos_emb"][:n]
        if rows is not None and not self.blocks:
            x = x[rows]
        scale = 1.0 / math.sqrt(self.dim)
        for b in range(self.blocks):
            xq = x[rows] if rows is not None and b == self.blocks - 1 else x
            # biases and residuals are added in place; float addition commutes, so bitwise
            q = xq @ p[f"b{b}.wq"]
            q += p[f"b{b}.bq"]
            k = x @ p[f"b{b}.wk"]
            k += p[f"b{b}.bk"]
            v = x @ p[f"b{b}.wv"]
            v += p[f"b{b}.bv"]
            att = _softmax_rows((q @ k.T) * scale)
            ctx = att @ v
            r1 = ctx @ p[f"b{b}.wo"]
            r1 += p[f"b{b}.bo"]
            r1 += xq
            h, ln1_cache = _ln_forward(r1, p[f"b{b}.ln1_g"], p[f"b{b}.ln1_b"])
            u = h @ p[f"b{b}.w1"]
            u += p[f"b{b}.b1"]
            z = np.maximum(u, 0.0)
            r2 = z @ p[f"b{b}.w2"]
            r2 += p[f"b{b}.b2"]
            r2 += h
            y, ln2_cache = _ln_forward(r2, p[f"b{b}.ln2_g"], p[f"b{b}.ln2_b"])
            cache["block"].append((x, q, k, v, att, ctx, ln1_cache, h, u, z, ln2_cache))
            x = y
        return x, cache

    def encode(self, symbols: Sequence[str], rows: Optional[Sequence[int]] = None
               ) -> np.ndarray:
        """Forward pass only; deterministic for fixed input and parameters."""
        return self.forward(symbols, rows)[0]

    def zero_grads(self) -> Params:
        table = _table_views(np.zeros(_table(self.params).shape))
        return {k: table[k] if k in table else np.zeros(v.shape) for k, v in self.params.items()}

    def backward(self, cache, d_out: np.ndarray, grads: Params) -> None:
        """Accumulate parameter gradients for one sequence into ``grads``.

        Reads ``cache`` and ``d_out`` without changing them. For a fixed
        cache the gradients are linear in ``d_out``, so several outputs read
        from one forward pass need one backward over the sum of their output
        gradients; that equals a backward per output up to float order. After
        ``forward(symbols, rows)``, ``d_out`` has one row per chosen row, and
        only the last block's keys and values run backward at the other rows.
        """
        p = self.params
        n = cache["n"]
        if n == 0:
            return
        rows = cache["rows"]
        scale = 1.0 / math.sqrt(self.dim)
        dx = d_out
        if rows is not None and not self.blocks:
            dx = np.zeros((n, self.dim))
            np.add.at(dx, rows, d_out)
        for b in reversed(range(self.blocks)):
            x, q, k, v, att, ctx, ln1_cache, h, u, z, ln2_cache = cache["block"][b]
            xq = x[rows] if rows is not None and b == self.blocks - 1 else x
            dr2, dg2, db2 = _ln_backward(dx, *ln2_cache, p[f"b{b}.ln2_g"])
            grads[f"b{b}.ln2_g"] += dg2
            grads[f"b{b}.ln2_b"] += db2
            df = dr2
            dh = dr2.copy()
            grads[f"b{b}.w2"] += z.T @ df
            grads[f"b{b}.b2"] += df.sum(axis=0)
            dz = df @ p[f"b{b}.w2"].T
            du = dz * (u > 0.0)
            grads[f"b{b}.w1"] += h.T @ du
            grads[f"b{b}.b1"] += du.sum(axis=0)
            dh += du @ p[f"b{b}.w1"].T
            dr1, dg1, db1 = _ln_backward(dh, *ln1_cache, p[f"b{b}.ln1_g"])
            grads[f"b{b}.ln1_g"] += dg1
            grads[f"b{b}.ln1_b"] += db1
            dout = dr1
            grads[f"b{b}.wo"] += ctx.T @ dout
            grads[f"b{b}.bo"] += dout.sum(axis=0)
            dctx = dout @ p[f"b{b}.wo"].T
            datt = dctx @ v.T
            dv = att.T @ dctx
            dscores = att * (datt - (datt * att).sum(axis=1, keepdims=True))
            dq = (dscores @ k) * scale
            dk = (dscores.T @ q) * scale
            grads[f"b{b}.wq"] += xq.T @ dq
            grads[f"b{b}.bq"] += dq.sum(axis=0)
            grads[f"b{b}.wk"] += x.T @ dk
            grads[f"b{b}.bk"] += dk.sum(axis=0)
            grads[f"b{b}.wv"] += x.T @ dv
            grads[f"b{b}.bv"] += dv.sum(axis=0)
            dxq = dq @ p[f"b{b}.wq"].T
            if xq is x:
                dx = dr1 + (dxq + dk @ p[f"b{b}.wk"].T + dv @ p[f"b{b}.wv"].T)
            else:
                dx = dk @ p[f"b{b}.wk"].T + dv @ p[f"b{b}.wv"].T
                np.add.at(dx, rows, dr1 + dxq)
        grads["pos_emb"][:n] += dx
        np.add.at(_table(grads), cache["idx"], dx)


class Adam:
    """Plain Adam over a name -> array dict, one elementwise pass per array.

    An array may have many parameters as views: the flat buffer
    `EncoderModel` packs, or `TinyEncoder`'s embedding table. ``rows`` maps
    a name to the rows of it to step (an index array or a slice), as
    `TinyEncoder.touched_rows` gives; other arrays are stepped whole. Each
    array's ``m`` and ``v`` are made once, at exactly the rows it steps, and
    two scratch arrays once, at the largest of those selections. Each pass
    runs the plain expression's operations in its order into the scratch
    arrays, so it is bitwise that expression. A row left out must never get
    a gradient, so that its update would be exactly 0 and every step is
    bitwise a dense one; a row stepped before its first gradient, with zero
    moments, stays bitwise unchanged.
    """

    def __init__(self, params: Params, lr: float, rows: Optional[Dict[str, object]] = None):
        self.params = params
        self.lr = lr
        self.t = 0
        self.rows = {k: (rows or {}).get(k, slice(None)) for k in params}
        self.m = {k: np.zeros(p[self.rows[k]].shape) for k, p in params.items()}
        self.v = {k: np.zeros(m.shape) for k, m in self.m.items()}
        size = max((m.size for m in self.m.values()), default=0)
        self._scratch = np.empty(size), np.empty(size)

    def step(self, grads: Params) -> None:
        self.t += 1
        b1c = 1.0 - _BETA1 ** self.t
        b2c = 1.0 - _BETA2 ** self.t
        for key, p_all in self.params.items():
            sel, m, v = self.rows[key], self.m[key], self.v[key]
            p, g = p_all[sel], grads[key][sel]
            a, b = (s[:g.size].reshape(g.shape) for s in self._scratch)
            # m = b1 m + (1 - b1) g; v = b2 v + (1 - b2) g g;
            # p -= lr (m / b1c) / (sqrt(v / b2c) + eps), products' operands swapped
            m *= _BETA1
            m += np.multiply(g, 1.0 - _BETA1, out=a)
            v *= _BETA2
            v += np.multiply(np.multiply(g, 1.0 - _BETA2, out=a), g, out=a)
            np.add(np.sqrt(np.divide(v, b2c, out=a), out=a), _ADAM_EPS, out=a)
            p -= np.divide(np.multiply(np.divide(m, b1c, out=b), self.lr, out=b), a, out=b)
            if not isinstance(sel, slice):  # an index array gathered a copy
                p_all[sel] = p


LOOSE = ("tok_emb", "special_emb", "pos_emb")  # stepped at touched rows; the rest is packed


def _views(flat: np.ndarray, shapes: Dict[str, tuple]) -> Params:
    """Contiguous views of ``flat``, one per name, laid end to end in ``shapes`` order."""
    views, at = {}, 0
    for name, shape in shapes.items():
        views[name] = flat[at:at + math.prod(shape)].reshape(shape)
        at += views[name].size
    return views


class EncoderModel:
    """A task head over a `TinyEncoder` built from ``config.encoder``.

    Subclasses build ``head`` (name -> array) in ``_build_head`` and define
    ``loss_and_grads(batch)``, returning the batch's mean loss and a
    gradient dict from ``zero_grads()``. Once the head is built, every
    parameter but the `LOOSE` embeddings becomes a view of one flat buffer,
    which Adam steps in one pass; no array is rebound after that.
    """

    def __init__(self, config: Optional[PipelineConfig] = None, seed: int = 0):
        # numpy's generators take no negative seed; a checkpoint stores it as an i64
        if not 0 <= seed < 2 ** 63:
            raise ConfigError(f"seed {seed} is outside [0, 2**63)")
        self.config = config or PipelineConfig()
        self.seed = seed
        self.encoder = TinyEncoder(**dataclasses.asdict(self.config.encoder), seed=seed)
        self.head = self._build_head()
        params = self.parameters()
        self._shapes = {k: v.shape for k, v in params.items() if k not in LOOSE}
        self._flat = np.concatenate([params[k].ravel() for k in self._shapes])
        packed = _views(self._flat, self._shapes)
        for table in (self.encoder.params, self.head):
            table.update({k: packed[k] for k in table if k in packed})

    def _build_head(self) -> Params:
        return {}

    def parameters(self) -> Params:
        merged = dict(self.encoder.params)
        merged.update(self.head)
        return merged

    def zero_grads(self) -> Params:
        """New zero gradients shaped like ``parameters()``, in a buffer and table of their own."""
        packed = {**_views(np.zeros(self._flat.size), self._shapes),
                  **_table_views(np.zeros(_table(self.encoder.params).shape))}
        return {k: packed[k] if k in packed else np.zeros(v.shape)
                for k, v in self.parameters().items()}

    def _segments(self, arrays: Params) -> Params:
        """Parameters or gradients as Adam steps them: the packed buffer, then the tables."""
        return {"packed": arrays[next(iter(self._shapes))].base, "table": _table(arrays),
                "pos_emb": arrays["pos_emb"]}

    @QUIET_FLOATS
    def fit(self, labeled: Sequence, weight: Callable[[Sequence], int], settings, seed: int,
            inputs: Callable[[object], Sequence[str]],
            key: Optional[Callable[[object], Hashable]] = None) -> List[float]:
        """Adam over seeded batches of grouped items; returns the per-epoch mean loss.

        ``inputs(item)`` names every symbol ``loss_and_grads`` encodes for the
        item; Adam steps the embedding rows of those symbols only, chosen once
        by `TinyEncoder.touched_rows` before the first batch.
        Items with equal ``key(item)`` form a group; without ``key`` each item
        is its own. Each epoch orders the groups at random and cuts their items,
        each group's in ``labeled`` order, into ``batch_size`` batches.
        ``settings`` is the config section that gives ``epochs``, ``batch_size``
        and ``lr``. Each batch's mean loss counts ``weight(batch)`` times in its
        epoch's mean. Zero epochs is a no-op that leaves the model untouched.
        Any non-finite loss aborts at once, without numpy warnings, naming the
        epoch, the step, the last finite epoch loss and the batch's gradient
        norm; a parameter left non-finite at the end raises `NonFiniteError`.
        """
        if not labeled:
            log.warning("%s: no labeled training items; nothing to do", type(self).__name__)
            return []
        by_key: Dict[Hashable, List[int]] = {}
        for i, item in enumerate(labeled):
            by_key.setdefault(i if key is None else key(item), []).append(i)
        groups = list(by_key.values())
        segments = self._segments(self.parameters())
        opt = Adam(segments, lr=settings.lr,
                   rows=self.encoder.touched_rows([inputs(item) for item in labeled]))
        rng = np.random.default_rng(seed)
        curve = []
        for epoch in range(settings.epochs):
            order = [i for g in rng.permutation(len(groups)) for i in groups[g]]
            epoch_loss = 0.0
            total = 0
            for step, lo in enumerate(range(0, len(order), settings.batch_size)):
                batch = [labeled[i] for i in order[lo:lo + settings.batch_size]]
                loss, grads = self.loss_and_grads(batch)
                if not np.isfinite(loss):
                    norm = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
                    raise TrainingDivergedError(epoch, step, loss,
                                                curve[-1] if curve else None, norm)
                n = weight(batch)
                epoch_loss += loss * n
                total += n
                opt.step(self._segments(grads))
                del grads  # so that the next batch's gradients are the only set kept
            curve.append(epoch_loss / max(total, 1))
        if not all(np.isfinite(segment).all() for segment in segments.values()):
            name = next(k for k, v in self.parameters().items() if not np.isfinite(v).all())
            raise NonFiniteError(f"training left parameter {name} holding NaN or infinity")
        return curve


# ---------------------------------------------------------------------------
# gradient checking

def grad_check(loss_fn, grad_fn, params: Params, epsilon: float,
               keys: Sequence[str] = None) -> float:
    """Max relative disagreement between analytic and finite-difference grads.

    ``loss_fn()`` returns the scalar loss for the current parameters;
    ``grad_fn()`` returns the analytic gradient dict. Every entry of every
    parameter (or just ``keys``) is perturbed by ±epsilon in place. The
    relative error uses a 1e-3 floor on the denominator so that
    finite-difference noise on near-zero gradients is not misread as a
    calculus bug, while any real error orders of magnitude above the noise
    floor still shows up.
    """
    if not 0.0 < epsilon <= 1e-2:
        raise ValueError(f"epsilon must be in (0, 1e-2], got {epsilon!r}")
    base = float(loss_fn())
    if not math.isfinite(base):
        raise NonFiniteError(f"loss is {base!r} before perturbation")
    analytic = grad_fn()
    worst = 0.0
    for key in sorted(keys if keys is not None else params):
        flat = params[key].reshape(-1)
        aflat = analytic[key].reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + epsilon
            hi = float(loss_fn())
            flat[i] = original - epsilon
            lo = float(loss_fn())
            flat[i] = original
            if not (math.isfinite(hi) and math.isfinite(lo)):
                raise NonFiniteError(f"non-finite loss while perturbing {key}[{i}]")
            fd = (hi - lo) / (2.0 * epsilon)
            diff = abs(aflat[i] - fd)
            if diff == 0.0:
                continue
            err = diff / max(abs(aflat[i]), abs(fd), 1e-3)
            if err > worst:
                worst = err
    return worst


def encoder_grad_check(encoder: TinyEncoder, symbols: Sequence[str],
                       epsilon: float, seed: int = 0) -> float:
    """Check all encoder parameters through a random linear probe loss."""
    rng = np.random.default_rng(seed)
    n = len(symbols)
    probe = rng.normal(0.0, 1.0, (n, encoder.dim))

    def loss_fn():
        return float((encoder.encode(symbols) * probe).sum())

    def grad_fn():
        h, cache = encoder.forward(symbols)
        grads = encoder.zero_grads()
        encoder.backward(cache, probe, grads)
        return grads

    return grad_check(loss_fn, grad_fn, encoder.params, epsilon)
