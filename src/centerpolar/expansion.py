"""Gradient-based input expansion (phase one).

Each sample is perturbed in input space by plain gradient descent on the
expansion objective: pushed away from its class centroid on the embedding
sphere while the semantic terms bound the drift.  The encoder is frozen
throughout; only the inputs move.  Samples are independent, so a block of
them descends together in one graph per step.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    iterations_te: int = 10  # gradient steps per expansion round
    step_size: float = 1e-2  # input-space SGD step
    expansion_epochs: tuple[int, ...] = (1, 4, 7)  # epochs (1-based) that run a round

    def __post_init__(self):
        schema.check_numbers(self)
        if self.iterations_te < 1:
            raise ValueError(f"iterations_te must be >= 1, got {self.iterations_te}")
        if not self.step_size > 0:
            raise ValueError(f"step_size must be positive, got {self.step_size}")
        epochs = tuple(sorted(set(self.expansion_epochs)))
        if any(e < 1 for e in epochs):
            raise ValueError(f"expansion epochs must be >= 1, got {epochs}")
        object.__setattr__(self, "expansion_epochs", epochs)


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
    `_BLOCK_ROWS` rows; each row gets the bits it gets expanded alone.
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
    return np.concatenate(
        [
            _expand_block(
                ids[s : s + _BLOCK_ROWS],
                x[s : s + _BLOCK_ROWS],
                class_ids[s : s + _BLOCK_ROWS],
                model,
                centroids,
                econfig.iterations_te,
                econfig.step_size,
                lconfig,
                trajectory_sink,
            )
            for s in range(0, n, _BLOCK_ROWS)
        ]
    )


def expansion_trajectory(
    sample,
    model,
    centroids: CentroidTable,
    econfig: ExpansionConfig,
    lconfig: LossConfig,
    iterations: int | None = None,
    sample_id: int = 0,
) -> list:
    """Diagnostic run for one (x, class_id) sample.

    Returns iterations+1 rows (iteration, d_geo, d_euclid, loss), row 0
    describing the unperturbed input.  `iterations` overrides the config
    (0 is allowed here and yields the single initial row); anything but a
    nonnegative integer raises ValueError.
    """
    x, class_id = sample
    n_iter = econfig.iterations_te
    if iterations is not None:
        n_iter = schema.integer(iterations, "iterations")
    if n_iter < 0:
        raise ValueError(f"iterations must be >= 0, got {n_iter}")
    sink: list = []
    _expand_block(
        [sample_id],
        np.array(x, dtype=np.float64).reshape(1, -1),
        [int(class_id)],
        model,
        centroids,
        n_iter,
        econfig.step_size,
        lconfig,
        sink,
    )
    return [(it, dg, de, lv) for (_sid, it, dg, de, lv) in sink]


def _expand_block(
    ids: list,
    x0: np.ndarray,
    class_ids: list,
    model,
    centroids: CentroidTable,
    iterations: int,
    step_size: float,
    lconfig: LossConfig,
    sink: list | None,
) -> np.ndarray:
    try:
        return _descend(ids, x0, class_ids, model, centroids, iterations, step_size, lconfig, sink)
    except ExpansionDivergedError:
        if len(ids) == 1:
            raise
    # some row ran away: expand the rows alone, in order, so that the error
    # names the first sample to diverge, as expanding each alone would
    return np.concatenate(
        [
            _expand_block(
                ids[r : r + 1], x0[r : r + 1], class_ids[r : r + 1], model, centroids,
                iterations, step_size, lconfig, sink,
            )
            for r in range(len(ids))
        ]
    )


def _descend(ids, x0, class_ids, model, centroids, iterations, step_size, lconfig, sink):
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
    for t in range(1, iterations + 1):
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
            x_cur = x_cur - step_size * g
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
