"""Epsilon-insensitive support vector regression with an RBF kernel.

The dual is solved by sequential minimal optimization over the net dual
coefficients beta_i = alpha_i - alpha_i*: maximize

    W(beta) = -0.5 beta' K beta + y' beta - epsilon * ||beta||_1

subject to sum(beta) = 0 and -C <= beta_i <= C. Each step pairs the maximal
KKT violator with the second-order best partner and solves the pair
subproblem exactly (the one-dimensional objective is piecewise quadratic).
The bias is recovered from KKT-interior points. Features are standardized
internally; the scaler is fit on training data only.

Samples come in blocks of columns (`Block`): a matrix of feature vectors and
each sample's row in it. A plain matrix X is one block whose row i is sample
i. A video's audio and visual vectors repeat once per viewer who watched it,
so an audiovisual block of 160 samples holds at most 24 distinct rows on the
benchmark's 24 videos. Everything is computed per block on its distinct rows,
which are found by value among the rows the samples read, in order of first
occurrence, and gathered back to the samples only where a result needs them:

- The scaler's means and stds are count-weighted sums over the distinct rows.
  Each distinct row is standardized once; the squared norms that the kernels
  read are those of the standardized distinct rows.
- The RBF kernel factors over blocks: exp(-gamma ||a - b||^2) is the product,
  over the blocks, of exp(-gamma ||a_k - b_k||^2), since the blocks' squared
  distances sum to the rows'. So `rbf_kernel_matrix` builds each block's
  kernel on its distinct rows (24 x 24 for the audiovisual blocks, row by row
  for memory rows), which is gathered to the samples and multiplied into the
  others. For a single unindexed block this is the kernel of its rows, bit
  for bit.
- gamma's scale heuristic, gamma_scale / (d * Var(Xs)) over every entry of
  the standardized rows, takes its closed form: a standardized column has
  variance 1 unless it is constant, so Var(Xs) = (non-constant columns) / d
  and gamma = gamma_scale / (non-constant columns), or gamma_scale / d when
  every column is constant. It equals the variance form up to rounding.

A fit has two parts. The *design* (`SvrDesign`) holds what reads neither y, C
nor epsilon: the scaler, the blocks' standardized distinct rows, and per
(gamma, gamma_scale) setting the resolved gamma and the RBF Gram of the
samples. The SMO solve then runs on a design's Gram. `fit_svr` builds the
design itself unless one is passed, so fits on the same samples at many C and
epsilon values share one design and build each Gram once, as LIBSVM's kernel
cache shares kernel rows across solves.

A fitted model keeps its support vectors per block: the block's distinct
support-vector rows, by value and in order of first occurrence, their squared
norms, and each support vector's row. Full support-vector rows are built
only when `support_vectors` is read, as a saved model does; a model that only
predicts never builds them. A loaded model derives the same blocks from its
rows (`support_blocks`), so it predicts bit-equal to the model that was
saved, given its block widths.

Predictions take query rows the same way: per block, the distinct query rows
are standardized once, each prediction kernel pairs a block's distinct
support-vector rows with its distinct query rows, and the products are
gathered to the support vectors and queries before `dual_coefs @ K`.
`SvrDesign.predictions` standardizes a block of queries once for all models
fitted on the design; `predict_svr` takes a plain matrix, whose columns it
splits at the model's block widths and whose equal rows it finds by value, so
both predict bit-equal. A
kernel row built from a smaller BLAS product may round differently from the
same row of a larger one (OpenBLAS takes other code paths for small products,
and numpy for a single row), so factored predictions may differ from those of
one kernel on all rows in their last bits.

`rbf_kernel_matrix` doubles the product `A @ B.T` in place rather than an
operand. Doubling is exact in binary floating point, so the kernel is bit-equal
to one built from `(2.0 * A) @ B.T`, and a predict call does not copy the
model's support vectors. A Gram, whose operands share memory, still doubles an
operand: numpy computes `A @ A.T` with syrk, which rounds differently.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .._checks import is_count
from .scaler import Scaler, column_moments

__all__ = [
    "SvrParams",
    "SvrModel",
    "SvrDesign",
    "Block",
    "distinct_rows",
    "support_blocks",
    "rbf_kernel_matrix",
    "fit_svr",
    "predict_svr",
]


@dataclass(frozen=True)
class SvrParams:
    c: float = 1.0
    epsilon: float = 0.1
    gamma: float | None = None  # None resolves to the scale heuristic at fit time
    gamma_scale: float = 1.0    # multiplier on the scale heuristic when gamma is None
    tol: float = 1e-7
    max_passes: int = 50_000

    def __post_init__(self) -> None:
        # Each check is written so that NaN fails it: every comparison with NaN is false.
        if not (math.isfinite(self.c) and self.c > 0):
            raise ValueError(f"c must be positive and finite, got {self.c}")
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValueError(f"epsilon must be non-negative and finite, got {self.epsilon}")
        if self.gamma is not None and not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")
        if not (math.isfinite(self.gamma_scale) and self.gamma_scale > 0):
            raise ValueError(f"gamma_scale must be positive and finite, got {self.gamma_scale}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if not is_count(self.max_passes, 1):
            raise ValueError(f"max_passes must be a positive integer, got {self.max_passes!r}")


class Block(NamedTuple):
    """Columns of every sample: sample i reads row `index[i]` of `vectors` (row i when None)."""

    vectors: np.ndarray
    index: np.ndarray | None = None


class _DistinctRows(NamedTuple):
    rows: np.ndarray             # the distinct rows, in order of first occurrence
    sq_norms: np.ndarray | None  # their squared norms, where known
    index: np.ndarray | None     # sample i reads rows[index[i]]; None: rows[i]


def _n_samples(rows: np.ndarray, index: np.ndarray | None) -> int:
    return rows.shape[0] if index is None else index.shape[0]


@dataclass
class SvrModel:
    # Per block of columns, the distinct support-vector rows (standardized
    # feature space) and each support vector's row; never serialized, as a
    # saved model stores `support_vectors` instead.
    sv_blocks: tuple[_DistinctRows, ...] = field(
        repr=False, compare=False, metadata={"saved": False}
    )
    dual_coefs: np.ndarray       # beta_i = alpha_i - alpha_i*
    bias: float
    params: SvrParams            # gamma resolved to its numeric value
    scaler: Scaler
    converged: bool
    n_iter: int
    kkt_gap: float
    support_indices: np.ndarray  # positions of the SVs in the training set

    @functools.cached_property
    def support_vectors(self) -> np.ndarray:
        """The support vectors' full rows in the standardized feature space, built on first read."""
        parts = [b.rows if b.index is None else b.rows.take(b.index, 0) for b in self.sv_blocks]
        return parts[0] if len(parts) == 1 else np.hstack(parts)

    @functools.cached_property
    def widths(self) -> tuple[int, ...]:
        """The widths of the blocks of columns, in column order."""
        return tuple(b.rows.shape[1] for b in self.sv_blocks)


def _sq_norms(A: np.ndarray) -> np.ndarray:
    # Each row's sum depends on that row alone, so the norms of a row subset
    # equal the same subset of the norms, bit for bit.
    return (A * A).sum(axis=1)


def _first_equal(A, keys: np.ndarray) -> np.ndarray | None:
    """The first row of A equal to each row, or None when all rows are distinct.

    A is a matrix or a list of rows. `keys` hold a number per row that equal
    rows share, such as their squared norms. A row is compared only with rows
    whose key ties with its own, and by value: rows are never merged on their
    keys alone, and a NaN key, that of a row holding a NaN, ties with none.
    When no two keys tie, as for memory rows, no row is compared. Otherwise
    each row of a tie is compared with the distinct rows found before it in its
    tie: one comparison when all rows of the tie are equal, none when they are
    one array. Comparing row views reads each row once; comparing a gathered
    block of a tie at once also copies it, which measured slower.
    """
    order = np.argsort(keys, kind="stable")  # a tie's rows stay in row order
    ties = keys[order[1:]] == keys[order[:-1]]
    if not ties.any():
        return None
    first = np.arange(len(A))
    heads: list[int] = []  # the distinct rows so far of the current tie
    for i, tied in zip(order.tolist(), [False, *ties.tolist()]):
        if not tied:
            heads = []
        for head in heads:
            if A[i] is A[head] or (A[i] == A[head]).all():
                first[i] = head
                break
        else:
            heads.append(i)
    return None if (first == np.arange(len(A))).all() else first


def _distinct(
    vectors: np.ndarray, index: np.ndarray | None, sq_norms: np.ndarray | None = None
) -> _DistinctRows:
    """The distinct rows, by value, among the rows of `vectors` that `index` reads.

    They come in order of first occurrence among the samples, with each
    sample's row. `sq_norms`, when given, must be `_sq_norms(vectors)`, and
    the result carries the distinct rows' norms; else its norms are None.
    Rows that no sample reads are not looked at.
    """
    if index is not None:
        used, first, inverse = np.unique(index, return_index=True, return_inverse=True)
        if used.size == index.size:  # no two samples share a row: take them in sample order
            vectors = vectors.take(index, axis=0)
            sq_norms = None if sq_norms is None else sq_norms[index]
            index = None
        else:
            order = np.argsort(first, kind="stable")
            rank = np.empty_like(order)
            rank[order] = np.arange(order.size)
            index = rank[inverse]
            if used.size < vectors.shape[0] or (order != np.arange(order.size)).any():
                vectors = vectors.take(used[order], axis=0)
                sq_norms = None if sq_norms is None else sq_norms[used[order]]
    if vectors.shape[0] < 2:
        return _DistinctRows(vectors, sq_norms, index)
    if sq_norms is None:
        with np.errstate(over="ignore", invalid="ignore"):  # such a row is compared by value
            keys = vectors.sum(axis=1)  # equal rows have equal sums; cheaper than norms
    else:
        keys = sq_norms
    first = _first_equal(vectors, keys)
    if first is None:
        return _DistinctRows(vectors, sq_norms, index)
    kept = np.flatnonzero(first == np.arange(first.size))
    within = np.searchsorted(kept, first)
    return _DistinctRows(
        vectors[kept],
        None if sq_norms is None else sq_norms[kept],
        within if index is None else within[index],
    )


def distinct_rows(rows: Sequence) -> Block:
    """The distinct rows, by value and in order of first occurrence, of a sequence of 1-d rows.

    A matrix counts as the sequence of its rows. Each row is compared as
    floats, so integer rows that round to one float are one row. Only the
    distinct rows are stacked; the index holds each row's place among them,
    None when every row is distinct.
    """
    rows = [np.asarray(row, dtype=float) for row in rows]
    first = None
    if len(rows) > 1:
        with np.errstate(over="ignore", invalid="ignore"):  # such a row is compared by value
            first = _first_equal(rows, np.array([row.sum() for row in rows]))
    if first is None:
        return Block(np.vstack(rows))
    kept = np.flatnonzero(first == np.arange(first.size))
    return Block(np.vstack([rows[i] for i in kept]), np.searchsorted(kept, first))


def support_blocks(
    support_vectors: np.ndarray, widths: Sequence[int] | None = None
) -> tuple[_DistinctRows, ...]:
    """A model's `sv_blocks` from its full support-vector rows, cut at `widths` (one when None).

    They equal, bit for bit, the blocks that `fit_svr` builds for the same
    support vectors on a design of blocks of these widths.
    """
    if widths is None or len(widths) == 1:
        parts = [support_vectors]
    else:
        cuts = np.cumsum(widths)[:-1]
        parts = [np.ascontiguousarray(p) for p in np.split(support_vectors, cuts, axis=1)]
    return tuple(_distinct(part, None, _sq_norms(part)) for part in parts)


def rbf_kernel_matrix(
    A: np.ndarray,
    B: np.ndarray,
    gamma: float,
    A_sq_norms: np.ndarray | None = None,
    B_sq_norms: np.ndarray | None = None,
) -> np.ndarray:
    """exp(-gamma * ||a - b||^2) for every row a of A and b of B.

    `A_sq_norms` and `B_sq_norms`, when given, must be `(A * A).sum(axis=1)`
    and `(B * B).sum(axis=1)`; passing them only saves recomputing them.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"dimension mismatch: {A.shape[1]} vs {B.shape[1]}")
    if A_sq_norms is None:
        A_sq_norms = _sq_norms(A)
    if B_sq_norms is None:
        B_sq_norms = _sq_norms(B)
    if np.may_share_memory(A, B):
        # numpy would send A @ A.T to syrk, which rounds differently from gemm;
        # doubling an operand keeps a Gram on the gemm its fits were pinned with.
        product = 2.0 * A @ B.T
    else:
        product = A @ B.T
        product *= 2.0  # exact, and bit-equal to (2.0 * A) @ B.T without copying A
    sq = A_sq_norms[:, None] + B_sq_norms[None, :] - product
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-gamma * sq)


def _kernel(
    left: Sequence[_DistinctRows], right: Sequence[_DistinctRows], gamma: float
) -> np.ndarray:
    """The RBF kernel of `left`'s samples against `right`'s, block by block.

    Each block's kernel is built on the two sides' distinct rows, gathered to
    their samples and multiplied into the kernel of the blocks before it.
    """
    K = None
    for a, b in zip(left, right, strict=True):
        block = rbf_kernel_matrix(a.rows, b.rows, gamma, a.sq_norms, b.sq_norms)
        if a.index is not None:
            block = block.take(a.index, axis=0)
        if b.index is not None:
            block = block.take(b.index, axis=1)
        if K is None:
            K = block
        else:
            K *= block
    return K


def _is_blocks(X) -> bool:
    return isinstance(X, (list, tuple)) and len(X) > 0 and all(isinstance(b, Block) for b in X)


def _blocks(X) -> list[Block]:
    """X as float blocks of one sample count: a list of `Block`s, or a matrix as one block."""
    if _is_blocks(X):
        blocks = [
            Block(
                np.atleast_2d(np.asarray(vectors, dtype=float)),
                None if index is None else np.asarray(index, dtype=np.intp),
            )
            for vectors, index in X
        ]
    else:
        blocks = [Block(np.atleast_2d(np.asarray(X, dtype=float)))]
    counts = {_n_samples(*block) for block in blocks}
    if len(counts) != 1:
        raise ValueError(f"blocks of {sorted(counts)} samples: each needs one row per sample")
    return blocks


class SvrDesign:
    """The part of an SVR fit on X that reads neither y, C nor epsilon.

    X is a matrix of training rows or a list of `Block`s. The design holds the
    scaler fitted on the samples, and per block the standardized distinct
    rows, their squared norms and each sample's row; no raw row outlives the
    constructor. `gram(params)` resolves gamma and builds the RBF Gram of the
    samples once per distinct (gamma, gamma_scale), compared by value, and
    returns the same pair on every later call, so fits at many C and epsilon
    values on one design share one Gram per gamma setting.
    """

    def __init__(self, X) -> None:
        blocks = _blocks(X)
        self.n = _n_samples(*blocks[0])
        means, stds, standardized = [], [], []
        self.n_varying = 0  # columns of non-zero std
        for vectors, index in blocks:
            if vectors.shape[1] == 0:
                raise ValueError("no columns in training data")
            raw = _distinct(vectors, index)
            if not np.all(np.isfinite(raw.rows)):
                raise ValueError("non-finite values in training data")
            counts = None if raw.index is None else np.bincount(raw.index, minlength=len(raw.rows))
            mean, std, rows = column_moments(raw.rows, counts)
            self.n_varying += int(np.count_nonzero(std))
            std = np.where(std == 0.0, 1.0, std)
            rows /= std  # rows held the centered distinct rows
            means.append(mean)
            stds.append(std)
            standardized.append(_DistinctRows(rows, _sq_norms(rows), raw.index))
        self.scaler = Scaler(means=np.concatenate(means), stds=np.concatenate(stds))
        self.blocks = tuple(standardized)
        self.widths = tuple(block.rows.shape[1] for block in self.blocks)
        self._grams: dict[tuple, tuple[float, np.ndarray]] = {}

    def gram(self, params: SvrParams) -> tuple[float, np.ndarray]:
        """(resolved gamma, RBF Gram of the samples) for `params`."""
        key = (params.gamma, params.gamma_scale)
        if key not in self._grams:
            gamma = params.gamma
            if gamma is None:
                gamma = params.gamma_scale / (self.n_varying or sum(self.widths))
            self._grams[key] = gamma, _kernel(self.blocks, self.blocks, gamma)
        return self._grams[key]

    def sv_blocks(self, support: np.ndarray) -> tuple[_DistinctRows, ...]:
        """A model's `sv_blocks` for the samples at positions `support`, in order."""
        return tuple(
            _distinct(b.rows, support if b.index is None else b.index[support], b.sq_norms)
            for b in self.blocks
        )

    def predictions(self, models: Iterable[SvrModel], X) -> list[np.ndarray]:
        """`predict_svr(model, X)` for each of `models`, in order.

        X is a matrix of query rows or a list of `Block`s of the design's
        widths. Every model must have been fitted on this design. Each block's
        distinct query rows are checked, standardized and normed once for all
        models. Models are read one at a time, so a generator of fits holds
        one model at a time. The predictions equal `predict_svr`'s on the
        samples' full rows, bit for bit: both find the same distinct rows.
        """
        queries = _queries(self.scaler, _query_blocks(X, self.widths))
        del X  # not read again; freed now unless the caller holds it
        preds = []
        for model in models:
            if model.scaler is not self.scaler:
                raise ValueError("model was not fitted on this design")
            preds.append(_decision_values(model, queries))
            del model  # so that no model is held while the next one is fitted
        return preds


def _pair_step(
    beta_i: float, beta_j: float, grad_i: float, grad_j: float, eta: float, c: float, eps: float
) -> tuple[float, float]:
    """Exact maximizer of the pair subproblem over t in [0, U].

    Returns (t, objective gain). beta_i moves by +t, beta_j by -t.
    """
    upper = min(c - beta_i, beta_j + c)
    if upper <= 0.0:
        return 0.0, 0.0
    knots = [0.0, upper]
    if 0.0 < -beta_i < upper:
        knots.append(-beta_i)
    if 0.0 < beta_j < upper:
        knots.append(beta_j)
    knots = sorted(set(knots))

    def gain(t: float) -> float:
        return (
            t * (grad_i - grad_j)
            - 0.5 * eta * t * t
            - eps * (abs(beta_i + t) - abs(beta_i))
            - eps * (abs(beta_j - t) - abs(beta_j))
        )

    candidates = list(knots)
    if eta > 0.0:
        for a, b in zip(knots[:-1], knots[1:]):
            mid = 0.5 * (a + b)
            sigma_i = 1.0 if beta_i + mid >= 0 else -1.0
            sigma_j = 1.0 if beta_j - mid > 0 else -1.0
            t_star = (grad_i - grad_j - eps * (sigma_i - sigma_j)) / eta
            if a < t_star < b:
                candidates.append(t_star)

    best_t, best_gain = 0.0, 0.0
    for t in candidates:
        g = gain(t)
        if g > best_gain:
            best_t, best_gain = t, g
    return best_t, best_gain


def fit_svr(X, y: np.ndarray, params: SvrParams, design: SvrDesign | None = None) -> SvrModel:
    """Fit an SVR on (X, y); X is a matrix of training rows or a list of `Block`s.

    `design`, when given, must be `SvrDesign(X)`; the fit then reuses its
    standardization and its Gram for the gamma setting of `params`, and reads
    X only for its shape.
    """
    y = np.asarray(y, dtype=float)
    blocks = _blocks(X)
    n = _n_samples(*blocks[0])
    if n != y.shape[0]:
        raise ValueError(f"X has {n} rows but y has {y.shape[0]}")
    if n < 2:
        raise ValueError("need at least two training rows")
    if not np.all(np.isfinite(y)):
        raise ValueError("non-finite values in training data")
    widths = tuple(block.vectors.shape[1] for block in blocks)
    if design is None:
        design = SvrDesign(blocks)
    elif (design.n, design.widths) != (n, widths):
        raise ValueError(
            f"design has rows of widths {design.widths} for {design.n} samples, "
            f"X has {widths} for {n}"
        )

    gamma, K = design.gram(params)
    beta, bias, converged, n_iter, gap = _solve(K, y, params)
    support = np.flatnonzero(np.abs(beta) > 1e-10 * params.c)
    return SvrModel(
        sv_blocks=design.sv_blocks(support),
        dual_coefs=beta[support],
        bias=bias,
        params=dataclasses.replace(params, gamma=gamma),
        scaler=design.scaler,
        converged=converged,
        n_iter=n_iter,
        kkt_gap=gap,
        support_indices=support,
    )


def _solve(
    K: np.ndarray, y: np.ndarray, params: SvrParams
) -> tuple[np.ndarray, float, bool, int, float]:
    """SMO on the Gram K: (beta, bias, converged, iterations, final KKT gap)."""
    c, eps, tol = params.c, params.epsilon, params.tol
    n = K.shape[0]
    diag = np.diagonal(K).copy()
    # Column i of K, and twice it, as contiguous rows: the values of K[:, i]
    # and 2.0 * K[:, i], read without a stride and doubled once per solve.
    columns = np.ascontiguousarray(K.T)
    doubled = 2.0 * columns

    beta = np.zeros(n)
    grad = y.astype(float).copy()  # grad_i = y_i - (K beta)_i
    # eps times the right- and left-derivative sign of |beta_i|, or an infinity
    # where beta_i may not move that way (beta_i = C, beta_i = -C), so that
    # grad - up_off and grad - dn_off are the KKT values with the bound rows
    # already at -inf and +inf.
    up_off = np.full(n, eps)
    dn_off = np.full(n, -eps)

    n_iter = 0
    converged = False
    gap = np.inf
    while n_iter < params.max_passes:
        d_up = grad - up_off
        i = int(np.argmax(d_up))
        m = d_up.item(i)
        d_dn = grad - dn_off
        big_m = d_dn.min()
        gap = m - big_m
        if gap <= tol:
            converged = True
            break

        # A bound row's d_dn is +inf, so its violation is -inf and never scores.
        violation = m - d_dn
        eta_vec = diag[i] + diag - doubled[i]
        np.maximum(eta_vec, 1e-12, out=eta_vec)
        score = np.where(violation > 0.0, violation * violation / eta_vec, -np.inf)
        score[i] = -np.inf
        j = int(np.argmax(score))
        if not math.isfinite(score.item(j)):
            converged = True  # no admissible partner: violation is below tol noise
            break

        # Python floats: the same IEEE arithmetic as numpy scalars, at a fraction of the cost.
        t, step_gain = _pair_step(
            beta.item(i), beta.item(j), grad.item(i), grad.item(j), eta_vec.item(j), c, eps
        )
        if t <= 0.0 or step_gain <= 0.0:
            break  # numerical stall; bias recovery still valid

        beta[i] += t
        beta[j] -= t
        grad -= t * (columns[i] - columns[j])
        for idx in (i, j):
            b_val = beta.item(idx)
            up_off[idx] = (eps if b_val >= 0 else -eps) if b_val < c else np.inf
            dn_off[idx] = (eps if b_val > 0 else -eps) if b_val > -c else -np.inf
        n_iter += 1

    interior = (beta != 0.0) & (np.abs(beta) < c)
    if interior.any():
        bias = float(np.mean(grad[interior] - eps * np.sign(beta[interior])))
    else:
        bias = float(0.5 * ((grad - up_off).max() + (grad - dn_off).min()))

    return beta, bias, converged, n_iter, float(gap)


def _query_blocks(X, widths: tuple[int, ...]) -> list[Block]:
    """Query samples as blocks of `widths`: `Block`s as given, or a matrix cut at the widths."""
    if _is_blocks(X):
        blocks = _blocks(X)
        got = tuple(block.vectors.shape[1] for block in blocks)
        if got != widths:
            raise ValueError(f"feature dimension mismatch: expected block widths {widths}, got {got}")
        return blocks
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != sum(widths):
        width = X.shape[1]
        raise ValueError(f"feature dimension mismatch: expected {sum(widths)}, got {width}")
    if len(widths) == 1:
        return [Block(X)]
    return [Block(part) for part in np.split(X, np.cumsum(widths)[:-1], axis=1)]


def _queries(scaler: Scaler, blocks: list[Block]) -> list[_DistinctRows]:
    """Per block of query rows: its distinct rows, checked and standardized by `scaler`."""
    queries, start = [], 0
    for vectors, index in blocks:
        stop = start + vectors.shape[1]
        raw = _distinct(vectors, index)
        if not np.all(np.isfinite(raw.rows)):
            raise ValueError("non-finite values in prediction input")
        rows = (raw.rows - scaler.means[start:stop]) / scaler.stds[start:stop]
        queries.append(_DistinctRows(rows, _sq_norms(rows), raw.index))
        start = stop
    return queries


def _decision_values(model: SvrModel, queries: list[_DistinctRows]) -> np.ndarray:
    """The model's predictions on query blocks that `_queries` returned for its scaler."""
    if model.dual_coefs.size == 0:
        return np.full(_n_samples(queries[0].rows, queries[0].index), model.bias)
    return model.dual_coefs @ _kernel(model.sv_blocks, queries, model.params.gamma) + model.bias


def predict_svr(model: SvrModel, X: np.ndarray) -> np.ndarray:
    """The model's predictions on the rows of X, cut into its blocks of columns."""
    return _decision_values(model, _queries(model.scaler, _query_blocks(X, model.widths)))
