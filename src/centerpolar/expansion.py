"""Gradient-based input expansion (phase one).

Each sample is perturbed in input space by plain gradient descent on the
expansion objective: pushed away from its class centroid on the embedding
sphere while the semantic terms bound the drift.  The encoder is frozen
throughout; only the inputs move.  Samples are independent, so a block of
them descends together in one graph per step; a block where a row diverges
reruns row by row, so the error names the first sample to diverge.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import schema
from .geometry import CentroidTable, Tensor, euclidean_distance, geodesic_distance
from .losses import LossConfig, c3e_objective, c3e_reference
from .tensor import DomainError, backward, record


# rows per expansion graph.  Rows are independent, so any size gives the same
# bits; the size bounds the memory one graph holds.  One graph of all 800
# rows of the reference benchmark took the peak RSS of a `full` training run
# from 58 to 71 MB and trained no faster (perfbench `train_full`, 10 s runs,
# 2-vCPU VM, 1 BLAS thread), so blocks stay at 128.
_BLOCK_ROWS = 128


class ExpansionDivergedError(ArithmeticError):
    pass


@dataclass(frozen=True)
class ExpansionConfig:
    iterations_te: int = field(default=10, metadata={"min": 1})  # gradient steps per round
    step_size: float = field(default=1e-2, metadata={"above": 0})  # input-space SGD step
    # epochs (1-based) that run a round
    expansion_epochs: tuple[int, ...] = field(default=(1, 4, 7), metadata={"min": 1})

    def __post_init__(self):
        schema.check_fields(self)
        object.__setattr__(self, "expansion_epochs", tuple(sorted(set(self.expansion_epochs))))


def expand_batch(
    batch,
    model,
    centroids: CentroidTable,
    econfig: ExpansionConfig,
    lconfig: LossConfig,
    trajectory_sink: list | None = None,
) -> np.ndarray:
    """Expand a batch of samples independently.

    `batch` is the column triple (sample ids, (n, d) inputs, class ids);
    columns of different lengths raise ValueError.  Returns the final
    iterates as an (n, d) array in batch order; model parameters are not
    touched.  When `trajectory_sink` is given, rows (sample_id, iter,
    d_geo, d_euclid, loss) are appended for every iterate including the
    initial one, sample by sample.

    Rows are expanded together, one graph per iteration and block of
    `_BLOCK_ROWS` rows; each row gets the bits it gets expanded alone.  A
    block where a row diverges reruns row by row, in order: the error names
    the first sample to diverge, and the sink holds only the samples before it.
    """
    ids, x, class_ids = batch
    x = np.asarray(x, dtype=np.float64)
    n = len(ids)
    if x.ndim != 2 or not n == len(x) == len(class_ids):
        raise ValueError(
            f"expand_batch: {n} ids and {len(class_ids)} class ids "
            f"but inputs of shape {x.shape}"
        )
    if n == 0:
        return np.empty((0, model.input_dim))
    ids, class_ids = [int(i) for i in ids], [int(c) for c in class_ids]

    def descend(a: int, b: int) -> np.ndarray:
        return _descend(
            ids[a:b], x[a:b], class_ids[a:b], model, centroids, econfig, lconfig, trajectory_sink
        )

    out = []
    for s in range(0, n, _BLOCK_ROWS):
        e = min(s + _BLOCK_ROWS, n)
        try:
            out.append(descend(s, e))
        except ExpansionDivergedError:
            if e - s == 1:
                raise
            # some row ran away: expand the rows alone, in order
            out.extend(descend(r, r + 1) for r in range(s, e))
    return np.concatenate(out)


def _descend(ids, x0, class_ids, model, centroids, econfig, lconfig, sink):
    mu = centroids.vectors(class_ids)
    d_orig = c3e_reference(x0, mu, model)

    def objective(x_tilde: Tensor) -> Tensor:
        return c3e_objective(x0, x_tilde, mu, d_orig, model, lconfig.margin_m)

    def diverged(t: int, reason) -> ExpansionDivergedError:
        # names the block's first sample; a block of several rows reruns them alone
        return ExpansionDivergedError(
            f"expansion diverged at sample {ids[0]}, iteration {t}: {reason}"
        )

    x_cur = x0.copy()
    trajectory = [] if sink is None else [_diagnose(x_cur, mu, model, objective)]
    for t in range(1, econfig.iterations_te + 1):
        try:
            with record():
                xt = Tensor(x_cur, requires_grad=True)
                backward(objective(xt).sum())
        except (DomainError, FloatingPointError) as e:
            # a non-finite embedding means the iterate already ran away
            raise diverged(t, e) from e
        g = xt.grad
        if not np.isfinite(g).all():
            raise diverged(t, "non-finite gradient")
        with np.errstate(over="ignore", invalid="ignore"):
            x_cur = x_cur - econfig.step_size * g
        if not np.isfinite(x_cur).all():
            raise diverged(t, "non-finite iterate")
        if sink is not None:
            trajectory.append(_diagnose(x_cur, mu, model, objective))
    if sink is not None:
        for r, sample_id in enumerate(ids):
            sink.extend((sample_id, t) + rows[r] for t, rows in enumerate(trajectory))
    return x_cur


def _diagnose(x_cur: np.ndarray, mu: np.ndarray, model, objective) -> list:
    # (d_geo, d_euclid, loss) of each row's iterate
    e = model.forward(Tensor(x_cur), frozen=True)
    d_geo = geodesic_distance(Tensor(mu), e).numpy().ravel()
    d_euclid = euclidean_distance(Tensor(mu), e).numpy().ravel()
    loss = objective(Tensor(x_cur)).numpy().ravel()
    return list(zip(d_geo.tolist(), d_euclid.tolist(), loss.tolist()))
