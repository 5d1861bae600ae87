"""Embedding encoder: a small dense MLP over float64 tensors."""

from __future__ import annotations

import base64
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .tensor import ShapeError, Tensor

ACTIVATIONS = ("tanh", "relu", "identity")


@dataclass(frozen=True)
class LayerRecord:
    """One layer in a checkpoint: parameters as base64 float64 bytes."""

    activation: str
    weight_shape: tuple[int, ...]
    weight: str
    bias: str


@dataclass
class Layer:
    weight: Tensor  # (out_dim, in_dim)
    bias: Tensor  # (out_dim,)
    activation: str

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(
                f"unknown activation {self.activation!r}, expected one of {ACTIVATIONS}"
            )
        if len(self.weight.shape) != 2 or len(self.bias.shape) != 1:
            raise ShapeError(
                f"layer expects 2-D weight and 1-D bias, got {self.weight.shape} and {self.bias.shape}"
            )
        if self.weight.shape[0] != self.bias.shape[0]:
            raise ShapeError(
                f"weight rows {self.weight.shape[0]} != bias length {self.bias.shape[0]}"
            )


class EncoderModel:
    """Dense MLP mapping input vectors to embedding vectors."""

    def __init__(self, layers: list[Layer]):
        if not layers:
            raise ValueError("encoder needs at least one layer")
        for a, b in zip(layers, layers[1:]):
            if a.weight.shape[0] != b.weight.shape[1]:
                raise ShapeError(
                    f"layer dims do not chain: {a.weight.shape} -> {b.weight.shape}"
                )
        self.layers = layers

    @property
    def input_dim(self) -> int:
        return self.layers[0].weight.shape[1]

    @property
    def embed_dim(self) -> int:
        return self.layers[-1].weight.shape[0]

    @classmethod
    def build(cls, dims: list[int], activations: list[str], seed: int) -> "EncoderModel":
        """Xavier-uniform weights, zero biases, drawn from the model-init stream."""
        if len(activations) != len(dims) - 1:
            raise ValueError(
                f"{len(dims)} dims need {len(dims) - 1} activations, got {len(activations)}"
            )
        gen = rng.stream(seed, rng.STREAM_MODEL_INIT)
        layers = []
        for fan_in, fan_out, act in zip(dims, dims[1:], activations):
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            w = gen.uniform(-limit, limit, size=(fan_out, fan_in))
            layers.append(
                Layer(
                    weight=Tensor(w, requires_grad=True),
                    bias=Tensor(np.zeros(fan_out), requires_grad=True),
                    activation=act,
                )
            )
        return cls(layers)

    @classmethod
    def default(
        cls, input_dim: int, embed_dim: int = 32, hidden_dim: int = 64, seed: int = 0
    ) -> "EncoderModel":
        # hidden tanh layer, linear embedding head
        return cls.build([input_dim, hidden_dim, embed_dim], ["tanh", "identity"], seed)

    def parameters(self) -> list[Tensor]:
        out = []
        for layer in self.layers:
            out.append(layer.weight)
            out.append(layer.bias)
        return out

    def forward(self, x, frozen: bool = False) -> Tensor:
        """Embed one input vector (d,) or a stack of rows (n, d), one graph.

        Each row's embedding and gradients carry the bits of that row
        embedded alone.  With `frozen=True` the parameters are detached, so a
        surrounding tape tracks gradients through the input only.
        """
        if not isinstance(x, Tensor):
            x = Tensor(x)
        if len(x.shape) not in (1, 2) or x.shape[-1] != self.input_dim:
            raise ShapeError(
                f"forward: input shape {x.shape} does not match "
                f"({self.input_dim},) or (n, {self.input_dim})"
            )
        h = x
        for layer in self.layers:
            w = layer.weight.detach() if frozen else layer.weight
            b = layer.bias.detach() if frozen else layer.bias
            h = w.matvec(h) + b
            if layer.activation == "tanh":
                h = h.tanh()
            elif layer.activation == "relu":
                h = h.relu()
        return h

    def embed_many(self, X: np.ndarray) -> np.ndarray:
        """Inference for an (n, input_dim) matrix, no grad tracking.

        One matrix product per layer: fast, but its rounding differs from
        `forward` in the last bits, so centroids and evaluation use this
        path and training graphs use `forward`.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.input_dim:
            raise ShapeError(
                f"embed_many: input shape {X.shape} does not match (n, {self.input_dim})"
            )
        H = X
        for layer in self.layers:
            H = H @ layer.weight.data.T + layer.bias.data
            if layer.activation == "tanh":
                H = np.tanh(H)
            elif layer.activation == "relu":
                H = np.maximum(H, 0.0)
        return H

    def checksum(self) -> str:
        h = hashlib.sha256()
        for p in self.parameters():
            h.update(p.data.tobytes())
        return h.hexdigest()

    # -- checkpoint records -------------------------------------------------

    def records(self) -> tuple[LayerRecord, ...]:
        return tuple(
            LayerRecord(
                activation=layer.activation,
                weight_shape=layer.weight.shape,
                weight=_encode_array(layer.weight.data),
                bias=_encode_array(layer.bias.data),
            )
            for layer in self.layers
        )

    @classmethod
    def from_records(cls, records: tuple[LayerRecord, ...]) -> "EncoderModel":
        """Inverse of `records`.  A weight shape that is not two dims >= 1,
        bytes that do not fill it, a bias that is not one value per weight
        row, an unknown activation or a non-finite parameter raises
        ValueError naming the key's path, such as `layers[0].bias`."""
        layers = []
        for i, rec in enumerate(records):
            path = f"layers[{i}]"
            if rec.activation not in ACTIVATIONS:
                raise ValueError(
                    f"{path}.activation: unknown activation {rec.activation!r}, "
                    f"expected one of {ACTIVATIONS}"
                )
            shape = rec.weight_shape
            if len(shape) != 2 or min(shape) < 1:
                raise ValueError(
                    f"{path}.weight_shape: expected two dims >= 1, got {list(shape)}"
                )
            w = _decode_array(rec.weight, f"{path}.weight")
            if w.size != shape[0] * shape[1]:
                raise ValueError(
                    f"{path}.weight: {w.size} values do not fill weight_shape {list(shape)}"
                )
            b = _decode_array(rec.bias, f"{path}.bias")
            if b.size != shape[0]:
                raise ValueError(f"{path}.bias: {b.size} values, weight has {shape[0]} rows")
            layers.append(
                Layer(
                    weight=Tensor(w.reshape(shape), requires_grad=True),
                    bias=Tensor(b, requires_grad=True),
                    activation=rec.activation,
                )
            )
        return cls(layers)


def _encode_array(values: np.ndarray) -> str:
    # little-endian float64 bytes in row-major order, base64; bit-exact round trip
    return base64.b64encode(values.astype("<f8").tobytes()).decode("ascii")


def _decode_array(text: str, path: str) -> np.ndarray:
    try:
        arr = np.frombuffer(base64.b64decode(text, validate=True), dtype="<f8")
    except (TypeError, ValueError) as e:  # binascii.Error is a ValueError
        raise ValueError(f"{path}: not base64 float64 bytes: {e}") from e
    if not np.isfinite(arr).all():
        raise ValueError(f"{path}: non-finite value")
    return arr.astype(np.float64)
