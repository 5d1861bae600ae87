"""Gradient-based input expansion (phase one).

Each sample is perturbed in input space by plain gradient descent on the
expansion objective: pushed away from its class centroid on the embedding
sphere while the semantic terms bound the drift.  The encoder is frozen
throughout; only the inputs move.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import schema
from .geometry import CentroidTable, Tensor, euclidean_distance, geodesic_distance
from .losses import LossConfig, c3e_objective, c3e_reference
from .tensor import DomainError, backward, record


class ExpansionDivergedError(ArithmeticError):
    pass


@dataclass(frozen=True)
class ExpansionConfig:
    iterations_te: int = 10  # gradient steps per expansion round
    step_size: float = 1e-2  # input-space SGD step
    expansion_epochs: tuple[int, ...] = (1, 4, 7)  # epochs (1-based) that run a round

    def __post_init__(self):
        schema.check_integers(self)
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
    """Expand a batch of (sample_id, x, class_id) triples independently.

    Returns the final iterates as an (n, d) array in batch order; model
    parameters are not touched.  When `trajectory_sink` is given, rows
    (sample_id, iter, d_geo, d_euclid, loss) are appended for every
    iterate including the initial one.
    """
    return np.array(
        [
            _expand_sample(
                int(sample_id),
                x,
                int(class_id),
                model,
                centroids,
                econfig.iterations_te,
                econfig.step_size,
                lconfig,
                trajectory_sink,
            )
            for sample_id, x, class_id in batch
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
    (0 is allowed here and yields the single initial row).
    """
    x, class_id = sample
    n_iter = econfig.iterations_te if iterations is None else int(iterations)
    if n_iter < 0:
        raise ValueError(f"iterations must be >= 0, got {n_iter}")
    sink: list = []
    _expand_sample(
        sample_id,
        x,
        int(class_id),
        model,
        centroids,
        n_iter,
        econfig.step_size,
        lconfig,
        sink,
    )
    return [(it, dg, de, lv) for (_sid, it, dg, de, lv) in sink]


def _expand_sample(
    sample_id: int,
    x,
    class_id: int,
    model,
    centroids: CentroidTable,
    iterations: int,
    step_size: float,
    lconfig: LossConfig,
    sink: list | None,
) -> np.ndarray:
    x0 = np.array(x, dtype=np.float64).reshape(-1)
    mu = centroids.vector(class_id)
    d_orig = c3e_reference(x0, mu, model)

    def build_loss(xt: Tensor) -> Tensor:
        return c3e_objective(x0, xt, mu, d_orig, model, lconfig.margin_m)

    x_cur = x0.copy()
    if sink is not None:
        sink.append((sample_id, 0) + _diagnose(x_cur, mu, model, build_loss))
    for t in range(1, iterations + 1):
        try:
            with record():
                xt = Tensor(x_cur, requires_grad=True)
                loss = build_loss(xt)
                backward(loss)
        except (DomainError, FloatingPointError) as e:
            # a non-finite embedding means the iterate already ran away
            raise ExpansionDivergedError(
                f"expansion diverged at sample {sample_id}, iteration {t}: {e}"
            ) from e
        g = xt.grad
        if g is None or not np.isfinite(g).all():
            raise ExpansionDivergedError(
                f"expansion diverged at sample {sample_id}, iteration {t}: non-finite gradient"
            )
        with np.errstate(over="ignore", invalid="ignore"):
            x_cur = x_cur - step_size * g
        if not np.isfinite(x_cur).all():
            raise ExpansionDivergedError(
                f"expansion diverged at sample {sample_id}, iteration {t}: non-finite iterate"
            )
        if sink is not None:
            sink.append((sample_id, t) + _diagnose(x_cur, mu, model, build_loss))
    return x_cur


def _diagnose(x_cur: np.ndarray, mu: np.ndarray, model, build_loss) -> tuple:
    e = model.forward(Tensor(x_cur), frozen=True)
    d_geo = geodesic_distance(Tensor(mu), e).item()
    d_euclid = euclidean_distance(Tensor(mu), e).item()
    loss_value = build_loss(Tensor(x_cur)).item()
    return (d_geo, d_euclid, loss_value)
