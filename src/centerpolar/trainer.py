"""Two-phase training loop.

An epoch that reads class centroids recomputes them from the current
encoder (frozen within the epoch): an expansion epoch, or any epoch when
the centripetal term has a nonzero weight.  On scheduled epochs the
inputs are expanded from a persistent per-sample buffer that carries over
between rounds, and the working set becomes originals plus the freshest
expanded copies.  The encoder is then updated by Adam on the phase-two
loss over class-balanced batches: the full objective, or plain
contrastive when the centripetal term is ablated.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import rng, schema
from .data import DataSet
from .encoder import EncoderModel, LayerRecord
from .evaluation import RetrievalReport, check_domains, evaluate
from .expansion import ExpansionConfig, expand_batch
from .geometry import compute_centroids
from .losses import LossConfig, loss_c4, loss_dom
from .tensor import DomainError, Tensor, backward, record

ABLATIONS = ("baseline", "c4_only", "c3e_only", "full")


class TrainingDivergedError(ArithmeticError):
    pass


class CheckpointError(ValueError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    total_epochs: int = field(default=10, metadata={"min": 0})
    batch_size: int = field(default=32, metadata={"min": 2})
    # desk-scale default; set the flag for other regimes
    lr_theta: float = field(default=1e-3, metadata={"above": 0})
    adam_beta1: float = field(default=0.9, metadata={"min": 0, "below": 1})
    adam_beta2: float = field(default=0.999, metadata={"min": 0, "below": 1})
    adam_eps: float = field(default=1e-8, metadata={"above": 0})
    seed: int = field(default=0, metadata=rng.SEED_RULES)
    ablation: str = field(default="full", metadata={"one_of": ABLATIONS})
    embed_dim: int = field(default=32, metadata={"min": 1})
    hidden_dim: int = field(default=64, metadata={"min": 1})
    eval_every: int = field(default=2, metadata={"min": 1})
    loss: LossConfig = field(default_factory=LossConfig)
    expansion: ExpansionConfig = field(default_factory=ExpansionConfig)

    def __post_init__(self):
        schema.check_fields(self)

    def to_dict(self) -> dict:
        return schema.to_dict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        return schema.from_dict(cls, d)


@dataclass
class AdamState:
    m: np.ndarray  # moments of every parameter entry, parameters in order
    v: np.ndarray
    t: int = 0

    @classmethod
    def init(cls, params: list[Tensor]) -> "AdamState":
        size = sum(p.size for p in params)
        return cls(m=np.zeros(size), v=np.zeros(size))


def adam_step(
    params: list[Tensor],
    grads: list[np.ndarray],
    state: AdamState,
    lr: float,
    beta1: float,
    beta2: float,
    eps: float,
) -> None:
    """One bias-corrected Adam update, mutating params and state in place;
    elementwise, so each entry gets the bits of a per-parameter update."""
    if len(params) != len(grads) or sum(p.size for p in params) != len(state.m):
        raise ValueError("adam_step: params, grads, and state must align")
    for p, g in zip(params, grads):
        if g is None:
            raise ValueError("adam_step: missing gradient for a parameter")
        if g.shape != p.data.shape:
            raise ValueError(
                f"adam_step: gradient shape {g.shape} != param shape {p.data.shape}"
            )
    flat = np.concatenate([g.ravel() for g in grads])
    state.t += 1
    t = state.t
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    m, v = state.m, state.v
    m *= beta1
    m += (1.0 - beta1) * flat
    v *= beta2
    v += (1.0 - beta2) * (flat * flat)
    step = lr * (m / c1) / (np.sqrt(v / c2) + eps)
    start = 0
    for p in params:
        p.data -= step[start : start + p.size].reshape(p.data.shape)
        start += p.size


@dataclass
class TrainReport:
    epoch_losses: list
    eval_snapshots: dict
    config: TrainConfig
    model: EncoderModel
    call_counts: dict

    def to_dict(self) -> dict:
        return {
            "epoch_losses": list(self.epoch_losses),
            "eval_snapshots": {
                str(epoch): rep.to_dict() for epoch, rep in self.eval_snapshots.items()
            },
            "config": self.config.to_dict(),
            "call_counts": dict(self.call_counts),
            "final_checksum": self.model.checksum(),
        }


def train(
    dataset: DataSet,
    config: TrainConfig,
    tests: dict | None = None,
    trajectory_sink: list | None = None,
) -> TrainReport:
    """Run the two-phase loop and return the report (model included)."""
    if len(dataset) < 2:
        raise ValueError(f"train: need at least 2 samples, got {len(dataset)}")
    ids, labels, features = dataset.ids, dataset.labels, dataset.features
    classes, sizes = np.unique(labels, return_counts=True)
    if (sizes < 2).any():
        class_id, count = classes[sizes < 2][0], sizes[sizes < 2][0]
        raise ValueError(f"train: class {class_id} has {count} sample(s), need >= 2 for pairs")
    if tests:  # the snapshots' domains, checked before the first epoch
        check_domains(tests)
    model = EncoderModel.default(
        features.shape[1], config.embed_dim, config.hidden_dim, config.seed
    )
    params = model.parameters()
    adam = AdamState.init(params)
    batch_gen = rng.stream(config.seed, rng.STREAM_BATCH_ORDER)

    carry = features  # expansion init: each round starts from the last round's iterates
    omega_x, omega_y = features, labels  # working set: originals plus the freshest expansion

    run_expansion = config.ablation in ("c3e_only", "full")
    use_centripetal = config.ablation in ("c4_only", "full")
    pulls_to_centroids = use_centripetal and config.loss.lam != 0.0  # loss_c4 reads the table
    counts = dict.fromkeys(("loss_c3e", "loss_dom", "loss_dis", "loss_c4", "expand_batch"), 0)

    epoch_losses: list[float] = []
    snapshots: dict[int, RetrievalReport] = {}
    for epoch in range(1, config.total_epochs + 1):
        expands = run_expansion and epoch in config.expansion.expansion_epochs
        centroids = None
        if expands or pulls_to_centroids:
            # centroids from the originals under the current encoder, frozen for the epoch
            centroids = compute_centroids(labels, model.embed_many(features))
        if expands:
            carry = expand_batch(
                (ids, carry, labels),
                model,
                centroids,
                config.expansion,
                config.loss,
                trajectory_sink,
            )
            counts["expand_batch"] += 1
            counts["loss_c3e"] += len(carry) * config.expansion.iterations_te
            omega_x, omega_y = np.concatenate([features, carry]), np.concatenate([labels, labels])
        loss_sum = 0.0
        n_batches = 0
        for batch in _class_balanced_batches(omega_y, config.batch_size, batch_gen):
            x, y = omega_x[batch], omega_y[batch].tolist()
            try:
                with record():
                    if use_centripetal:
                        loss = loss_c4(x, y, model, centroids, config.loss)
                    else:
                        loss = loss_dom(model.forward(x), y, config.loss)
                    value = loss.item()
                    if not np.isfinite(value):
                        raise TrainingDivergedError(
                            f"non-finite loss at epoch {epoch}, batch {n_batches}"
                        )
                    backward(loss)
            except DomainError as e:
                # non-finite embeddings surface inside the loss graph
                raise TrainingDivergedError(
                    f"non-finite embedding at epoch {epoch}, batch {n_batches}: {e}"
                ) from e
            adam_step(
                params,
                [p.grad for p in params],
                adam,
                config.lr_theta,
                config.adam_beta1,
                config.adam_beta2,
                config.adam_eps,
            )
            counts["loss_dom"] += 1
            if use_centripetal:
                counts["loss_c4"] += 1
            if pulls_to_centroids:
                counts["loss_dis"] += len(y)
            loss_sum += value
            n_batches += 1
        epoch_losses.append(loss_sum / n_batches)
        if tests and (epoch % config.eval_every == 0 or epoch == config.total_epochs):
            snapshots[epoch] = evaluate(model, tests)

    return TrainReport(
        epoch_losses=epoch_losses,
        eval_snapshots=snapshots,
        config=config,
        model=model,
        call_counts=counts,
    )


def _class_balanced_batches(labels, batch_size: int, gen) -> list:
    """Deterministic class-balanced batching of the row indices of `labels`.

    Rows are grouped per class into chunks of >= 2, chunk order is
    shuffled, and batches take enough chunks to reach roughly batch_size,
    so every class present in a batch contributes at least 2 samples.
    """
    chunk = 4 if batch_size >= 8 else 2
    groups = []
    # return_counts keeps np.unique off the path that imports numpy.ma
    for class_id in np.unique(labels, return_counts=True)[0]:
        members = np.flatnonzero(labels == class_id)
        shuffled = members[gen.permutation(len(members))].tolist()
        class_groups = [shuffled[i : i + chunk] for i in range(0, len(shuffled), chunk)]
        if len(class_groups) >= 2 and len(class_groups[-1]) < 2:
            class_groups[-2].extend(class_groups.pop())
        groups.extend(class_groups)
    group_order = gen.permutation(len(groups))
    per_batch = max(1, batch_size // chunk)
    batches = []
    for start in range(0, len(groups), per_batch):
        batch = []
        for gi in group_order[start : start + per_batch]:
            batch.extend(groups[gi])
        batches.append(batch)
    return batches


# -- checkpointing -------------------------------------------------------------


@dataclass(frozen=True)
class Checkpoint:
    """What `checkpoint.json` holds; `schema` derives its JSON form and reading."""

    config: TrainConfig
    epoch: int = field(metadata={"min": 0})
    seed: int
    layers: tuple[LayerRecord, ...]

    def __post_init__(self):
        schema.check_fields(self)
        if self.seed != self.config.seed:
            raise ValueError(f"seed: {self.seed} differs from config.seed {self.config.seed}")


def save_checkpoint(path, model: EncoderModel, config: TrainConfig, epoch: int) -> None:
    checkpoint = Checkpoint(config, epoch, config.seed, model.records())
    schema.write_json(schema.to_dict(checkpoint), path)


def load_checkpoint(path):
    """Returns (model, config, epoch); parameters round-trip bit-exact.

    Accepts only what `save_checkpoint` writes: a missing, unknown or
    invalid field raises CheckpointError naming it.  The seed must equal
    the config's, the epoch be >= 0, and the layers' output sizes match the
    config's `hidden_dim` (every layer but the last) and `embed_dim`.
    """
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as e:
            raise CheckpointError(f"checkpoint is not valid JSON: {e}") from e
    try:
        checkpoint = schema.from_dict(Checkpoint, payload)
        config = checkpoint.config
        model = EncoderModel.from_records(checkpoint.layers)
        for i, layer in enumerate(model.layers):
            key = "embed_dim" if i == len(model.layers) - 1 else "hidden_dim"
            size, want = layer.weight.shape[0], getattr(config, key)
            if size != want:
                raise ValueError(f"layers[{i}]: {size} outputs differ from config.{key} {want}")
    except ValueError as e:
        raise CheckpointError(f"checkpoint is invalid: {e}") from e
    return model, config, checkpoint.epoch
