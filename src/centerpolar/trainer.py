"""Two-phase training loop.

Each epoch recomputes class centroids from the current encoder (frozen
within the epoch).  On scheduled epochs the inputs are expanded from a
persistent per-sample buffer that carries over between rounds, and the
working set becomes originals plus the freshest expanded copies.  The
encoder is then updated by Adam on the phase-two loss over class-balanced
batches: the full objective, or plain contrastive when the centripetal
term is ablated.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from . import rng, schema
from .data import DataSet
from .encoder import EncoderModel
from .evaluation import RetrievalReport, evaluate
from .expansion import ExpansionConfig, expand_batch
from .geometry import CentroidTable, compute_centroids
from .losses import LossConfig, loss_c4, loss_dis, loss_dom
from .tensor import DomainError, Tensor, backward, record, stack

ABLATIONS = ("baseline", "c4_only", "c3e_only", "full")


class TrainingDivergedError(ArithmeticError):
    pass


class CheckpointError(ValueError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    total_epochs: int = 10
    batch_size: int = 32
    lr_theta: float = 1e-3  # desk-scale default; set the flag for other regimes
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    ablation: str = "full"
    embed_dim: int = 32
    hidden_dim: int = 64
    eval_every: int = 2
    loss: LossConfig = field(default_factory=LossConfig)
    expansion: ExpansionConfig = field(default_factory=ExpansionConfig)

    def __post_init__(self):
        schema.check_integers(self)
        if self.total_epochs < 0:
            raise ValueError(f"total_epochs must be >= 0, got {self.total_epochs}")
        if self.batch_size < 2:
            raise ValueError(f"batch_size must be >= 2, got {self.batch_size}")
        if not self.lr_theta > 0:
            raise ValueError(f"lr_theta must be positive, got {self.lr_theta}")
        for name, b in (("adam_beta1", self.adam_beta1), ("adam_beta2", self.adam_beta2)):
            if not 0 <= b < 1:
                raise ValueError(f"{name} must be in [0, 1), got {b}")
        if not self.adam_eps > 0:
            raise ValueError(f"adam_eps must be positive, got {self.adam_eps}")
        if self.ablation not in ABLATIONS:
            raise ValueError(f"ablation must be one of {ABLATIONS}, got {self.ablation!r}")
        if self.embed_dim < 1 or self.hidden_dim < 1:
            raise ValueError("embed_dim and hidden_dim must be >= 1")
        if self.eval_every < 1:
            raise ValueError(f"eval_every must be >= 1, got {self.eval_every}")
        rng.check_seed(self.seed)

    def to_dict(self) -> dict:
        return schema.to_dict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        return schema.from_dict(cls, d)


@dataclass
class AdamState:
    m: list
    v: list
    t: int = 0

    @classmethod
    def init(cls, params: list[Tensor]) -> "AdamState":
        return cls(
            m=[np.zeros_like(p.data) for p in params],
            v=[np.zeros_like(p.data) for p in params],
        )


def adam_step(
    params: list[Tensor],
    grads: list[np.ndarray],
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One bias-corrected Adam update, mutating params and state in place."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("adam_step: params, grads, and state must align")
    state.t += 1
    t = state.t
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if g is None:
            raise ValueError("adam_step: missing gradient for a parameter")
        if g.shape != p.data.shape:
            raise ValueError(
                f"adam_step: gradient shape {g.shape} != param shape {p.data.shape}"
            )
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


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
    for class_id, count in sorted(dataset.class_counts().items()):
        if count < 2:
            raise ValueError(
                f"train: class {class_id} has {count} sample(s), need >= 2 for pairs"
            )
    ids = dataset.ids()
    features = dataset.features_matrix()
    labels = dataset.labels()
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
    counts = dict.fromkeys(("loss_c3e", "loss_dom", "loss_dis", "loss_c4", "expand_batch"), 0)

    epoch_losses: list[float] = []
    snapshots: dict[int, RetrievalReport] = {}
    for epoch in range(1, config.total_epochs + 1):
        # centroids from the originals under the current encoder, frozen for the epoch
        centroids = compute_centroids(zip(labels.tolist(), model.embed_many(features)))
        if run_expansion and epoch in config.expansion.expansion_epochs:
            carry = expand_batch(
                list(zip(ids.tolist(), carry, labels.tolist())),
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
                        loss = loss_c4(list(zip(x, y)), model, centroids, config.loss)
                    else:
                        loss = loss_dom(list(zip(model.forward(x).rows(), y)), config.loss)
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
                if config.loss.lam != 0.0:
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
    for class_id in np.unique(labels):
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


def c4_equilibrium_probe(
    model: EncoderModel,
    batch,
    centroids: CentroidTable,
    lconfig: LossConfig,
    lambdas,
) -> list[dict]:
    """Parameter-gradient norms of the two phase-two terms per lambda.

    Rows report ||grad of the contrastive term||, lambda * ||grad of the
    summed centripetal distances|| (unaveraged, so the column scales with
    the batch), and the norm of the full mean-loss gradient.  The total is
    grad_dom + (lambda / batch) * grad_sum by linearity.
    """
    # lambda = 0 makes loss_c4 exactly the contrastive term
    dom_config = replace(lconfig, lam=0.0)
    g_dom = _param_grad(model, lambda: loss_c4(batch, model, centroids, dom_config))
    xs, class_ids = zip(*batch)
    # unaveraged: the probe reports the summed centripetal pull
    g_dis_sum = _param_grad(
        model,
        lambda: loss_dis(model.forward(stack(xs)), centroids.vectors(class_ids)).sum(),
    )
    n = float(len(batch))
    rows = []
    for lam in lambdas:
        lam = float(lam)
        if lam < 0:
            raise ValueError(f"lambda must be >= 0, got {lam}")
        total = g_dom + (lam / n) * g_dis_sum
        rows.append(
            {
                "lambda": lam,
                "grad_norm_contrastive": float(np.sqrt(np.dot(g_dom, g_dom))),
                "grad_norm_centripetal_term": lam
                * float(np.sqrt(np.dot(g_dis_sum, g_dis_sum))),
                "grad_norm_total": float(np.sqrt(np.dot(total, total))),
            }
        )
    return rows


def _param_grad(model, build_loss) -> np.ndarray:
    params = model.parameters()
    with record():
        loss = build_loss()
        backward(loss)
    return np.concatenate([p.grad for p in params])


# -- checkpointing -------------------------------------------------------------


def save_checkpoint(path, model: EncoderModel, config: TrainConfig, epoch: int) -> None:
    payload = {
        "config": config.to_dict(),
        "epoch": int(epoch),
        "seed": config.seed,
        "layers": model.to_payload(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_checkpoint(path):
    """Returns (model, config, epoch); parameters round-trip bit-exact."""
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as e:
            raise CheckpointError(f"checkpoint is not valid JSON: {e}") from e
    if not isinstance(payload, dict):
        raise CheckpointError(f"checkpoint is not a JSON object, got {type(payload).__name__}")
    for fieldname in ("config", "epoch", "seed", "layers"):
        if fieldname not in payload:
            raise CheckpointError(f"checkpoint missing field {fieldname!r}")
    try:
        config = TrainConfig.from_dict(payload["config"])
    except (ValueError, TypeError) as e:
        raise CheckpointError(f"checkpoint field 'config' is invalid: {e}") from e
    try:
        model = EncoderModel.from_payload(payload["layers"])
    except (KeyError, ValueError, TypeError) as e:
        raise CheckpointError(f"checkpoint field 'layers' is invalid: {e}") from e
    try:
        epoch = schema.integer(payload["epoch"], "epoch")
    except ValueError as e:
        raise CheckpointError(f"checkpoint field 'epoch' is invalid: {e}") from e
    return model, config, epoch
