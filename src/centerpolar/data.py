"""Labeled vector datasets: synthetic benchmark generation and CSV I/O.

The benchmark places class prototypes on a sphere shell with a minimum
pairwise separation, draws isotropic Gaussian samples around them, and
builds test domains by pushing unseen-class samples through affine maps
x -> scale * R x + b with R orthogonal.  Train and test share neither
classes nor domains, which is the regime the trainer is meant to survive.

All randomness comes from the seeded Philox streams in `rng`, so a spec
regenerates the identical dataset bit for bit.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from . import rng, schema

_PROTOTYPE_ATTEMPTS = 10_000
RESERVED_DOMAIN_TAGS = ("source", "expanded")


class GenerationError(RuntimeError):
    pass


class CsvFormatError(ValueError):
    pass


@dataclass(frozen=True)
class LabeledSample:
    id: int
    features: np.ndarray
    class_id: int
    domain_tag: str

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.ndim != 1:
            raise ValueError(f"sample {self.id}: features must be 1-D")
        if not np.isfinite(feats).all():
            raise ValueError(f"sample {self.id}: non-finite feature values")
        if self.id < 0 or self.class_id < 0:
            raise ValueError(f"sample {self.id}: ids and class ids must be >= 0")
        if not self.domain_tag:
            raise ValueError(f"sample {self.id}: empty domain tag")
        object.__setattr__(self, "features", feats)


class DataSet:
    def __init__(self, samples: list[LabeledSample] | None = None):
        self.samples: list[LabeledSample] = []
        self._ids: set[int] = set()
        for s in samples or []:
            self.add(s)

    def add(self, sample: LabeledSample) -> None:
        if sample.id in self._ids:
            raise ValueError(f"duplicate sample id {sample.id}")
        self._ids.add(sample.id)
        self.samples.append(sample)

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)

    def ids(self) -> np.ndarray:
        return np.array([s.id for s in self.samples], dtype=np.int64)

    def labels(self) -> np.ndarray:
        return np.array([s.class_id for s in self.samples], dtype=np.int64)

    def features_matrix(self) -> np.ndarray:
        if not self.samples:
            return np.zeros((0, 0))
        return np.stack([s.features for s in self.samples])

    def classes(self) -> list[int]:
        return sorted({s.class_id for s in self.samples})

    def class_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for s in self.samples:
            counts[s.class_id] = counts.get(s.class_id, 0) + 1
        return counts


@dataclass(frozen=True)
class DomainTransform:
    """Affine domain map x -> scale * R x + b.

    R comes from `rotation_angles` (plane rotations in coordinate planes
    (0,1), (2,3), ... by the listed angles) or, when absent, from a seeded
    random orthogonal matrix; with neither, R is the identity.  The bias is
    bias_std * standard normals drawn from bias_seed.
    """

    name: str
    scale: float = 1.0
    rotation_seed: int | None = None
    rotation_angles: tuple[float, ...] | None = None
    bias_seed: int | None = None
    bias_std: float = 0.0

    def __post_init__(self):
        if not self.name:
            raise ValueError("transform name must be non-empty")
        if self.name in RESERVED_DOMAIN_TAGS:
            raise ValueError(f"transform name {self.name!r} is reserved")
        if not self.scale > 0:
            raise ValueError(f"transform {self.name}: scale must be positive")
        if self.rotation_angles is not None:
            object.__setattr__(
                self, "rotation_angles", tuple(float(a) for a in self.rotation_angles)
            )
        if self.bias_std < 0:
            raise ValueError(f"transform {self.name}: bias_std must be >= 0")

    def rotation_matrix(self, dim: int) -> np.ndarray:
        if self.rotation_angles is not None:
            if 2 * len(self.rotation_angles) > dim:
                raise ValueError(
                    f"transform {self.name}: {len(self.rotation_angles)} plane angles "
                    f"need dimension >= {2 * len(self.rotation_angles)}, got {dim}"
                )
            R = np.eye(dim)
            for i, angle in enumerate(self.rotation_angles):
                a, b = 2 * i, 2 * i + 1
                c, s = math.cos(angle), math.sin(angle)
                G = np.eye(dim)
                G[a, a] = c
                G[a, b] = -s
                G[b, a] = s
                G[b, b] = c
                R = G @ R
            return R
        if self.rotation_seed is not None:
            gen = rng.stream(self.rotation_seed, rng.STREAM_TRANSFORM_ROTATION)
            M = gen.standard_normal((dim, dim))
            Q, Rm = np.linalg.qr(M)
            # fix signs so the factorization (and hence Q) is unique
            Q = Q * np.sign(np.diag(Rm))
            return Q
        return np.eye(dim)

    def bias_vector(self, dim: int) -> np.ndarray:
        if self.bias_seed is None or self.bias_std == 0.0:
            return np.zeros(dim)
        gen = rng.stream(self.bias_seed, rng.STREAM_TRANSFORM_BIAS)
        return self.bias_std * gen.standard_normal(dim)

    def apply(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        dim = X.shape[-1]
        R = self.rotation_matrix(dim)
        return self.scale * (X @ R.T) + self.bias_vector(dim)


@dataclass(frozen=True)
class BenchmarkSpec:
    n_classes_total: int
    n_classes_seen: int
    samples_per_class: int
    input_dim: int
    class_separation: float
    intra_std: float
    domain_transforms: tuple[DomainTransform, ...]
    seed: int
    # optional signal/nuisance split: prototypes confined to the first
    # signal_dim coordinates, class-independent noise on the rest
    signal_dim: int = 0
    nuisance_std: float = 0.0

    def __post_init__(self):
        if self.n_classes_seen < 1 or self.n_classes_total < self.n_classes_seen:
            raise ValueError(
                f"need 1 <= n_classes_seen <= n_classes_total, got "
                f"{self.n_classes_seen}, {self.n_classes_total}"
            )
        if self.domain_transforms and self.n_classes_total == self.n_classes_seen:
            raise ValueError("test domains need at least one unseen class")
        if self.samples_per_class < 2:
            raise ValueError("samples_per_class must be >= 2")
        if self.input_dim < 2:
            raise ValueError("input_dim must be >= 2")
        if not self.class_separation > 0:
            raise ValueError("class_separation must be positive")
        if self.intra_std < 0:
            raise ValueError("intra_std must be >= 0")
        if self.signal_dim < 0 or self.signal_dim > self.input_dim:
            raise ValueError(
                f"need 0 <= signal_dim <= input_dim, got {self.signal_dim}"
            )
        if self.nuisance_std < 0:
            raise ValueError("nuisance_std must be >= 0")
        if self.nuisance_std > 0 and self.signal_dim == 0:
            raise ValueError("nuisance_std requires a signal subspace (signal_dim >= 1)")
        rng.check_seed(self.seed)
        transforms = tuple(self.domain_transforms)
        names = [t.name for t in transforms]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate transform names in {names}")
        object.__setattr__(self, "domain_transforms", transforms)

    def to_dict(self) -> dict:
        return schema.to_dict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "BenchmarkSpec":
        return schema.from_dict(cls, d)

    @classmethod
    def from_json(cls, text: str) -> "BenchmarkSpec":
        return cls.from_dict(json.loads(text))


def generate_benchmark(spec: BenchmarkSpec):
    """Build (train DataSet, {domain name: test DataSet}) from a spec."""
    prototypes = _draw_prototypes(spec)
    next_id = 0
    train = DataSet()
    noise_gen = rng.stream(spec.seed, rng.STREAM_TRAIN_NOISE)
    for class_id in range(spec.n_classes_seen):
        for _ in range(spec.samples_per_class):
            x = _draw_sample(prototypes[class_id], spec, noise_gen)
            train.add(
                LabeledSample(
                    id=next_id, features=x, class_id=class_id, domain_tag="source"
                )
            )
            next_id += 1
    tests: dict[str, DataSet] = {}
    unseen = range(spec.n_classes_seen, spec.n_classes_total)
    for k, transform in enumerate(spec.domain_transforms):
        gen = rng.stream(spec.seed, rng.STREAM_DOMAIN_BASE + k)
        ds = DataSet()
        raw_rows = []
        labels = []
        for class_id in unseen:
            for _ in range(spec.samples_per_class):
                raw_rows.append(_draw_sample(prototypes[class_id], spec, gen))
                labels.append(class_id)
        transformed = (
            transform.apply(np.stack(raw_rows)) if raw_rows else np.zeros((0, 0))
        )
        for row, class_id in zip(transformed, labels):
            ds.add(
                LabeledSample(
                    id=next_id,
                    features=row,
                    class_id=class_id,
                    domain_tag=transform.name,
                )
            )
            next_id += 1
        tests[transform.name] = ds
    return train, tests


def _draw_sample(prototype: np.ndarray, spec: BenchmarkSpec, gen) -> np.ndarray:
    x = prototype + spec.intra_std * gen.standard_normal(spec.input_dim)
    if spec.nuisance_std > 0 and spec.signal_dim < spec.input_dim:
        # class-independent clutter outside the signal subspace
        x = x.copy()
        x[spec.signal_dim :] += spec.nuisance_std * gen.standard_normal(
            spec.input_dim - spec.signal_dim
        )
    return x


def _draw_prototypes(spec: BenchmarkSpec) -> np.ndarray:
    """Prototypes on the shell of radius class_separation, pairwise at least
    class_separation apart; rejection-sampled, erroring out when the
    dimension cannot host that many separated classes.  With a signal
    subspace configured, placement happens inside it and the remaining
    coordinates stay zero."""
    gen = rng.stream(spec.seed, rng.STREAM_PROTOTYPES)
    n, sep = spec.n_classes_total, spec.class_separation
    dim = spec.signal_dim if spec.signal_dim else spec.input_dim
    for _ in range(_PROTOTYPE_ATTEMPTS):
        raw = gen.standard_normal((n, dim))
        norms = np.sqrt((raw * raw).sum(axis=1))
        if (norms < 1e-9).any():
            continue
        protos = sep * raw / norms[:, None]
        diffs = protos[:, None, :] - protos[None, :, :]
        dists = np.sqrt((diffs * diffs).sum(axis=2))
        np.fill_diagonal(dists, np.inf)
        if dists.min() >= sep:
            if dim < spec.input_dim:
                full = np.zeros((n, spec.input_dim))
                full[:, :dim] = protos
                return full
            return protos
    raise GenerationError(
        f"could not place {n} prototypes with separation {sep} in dimension {dim} "
        f"after {_PROTOTYPE_ATTEMPTS} attempts"
    )


# -- CSV I/O -----------------------------------------------------------------

_BASE_COLUMNS = ("id", "label", "domain")


def save_csv(dataset: DataSet, path) -> None:
    """Write `id,label,domain,f0..f{D-1}` with 17-significant-digit floats."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if len(dataset) == 0:
            writer.writerow(_BASE_COLUMNS)
            return
        dim = dataset.samples[0].features.shape[0]
        writer.writerow(list(_BASE_COLUMNS) + [f"f{i}" for i in range(dim)])
        for s in dataset.samples:
            writer.writerow(
                [s.id, s.class_id, s.domain_tag] + [f"{v:.17g}" for v in s.features]
            )


def load_csv(path) -> DataSet:
    """Parse a dataset CSV, reporting the offending line on any format error.

    The first three header columns must be id,label,domain; the remaining
    columns are features regardless of their names, so embedding exports
    load under the same schema.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError("line 1: empty file, expected a header") from None
        if tuple(header[:3]) != _BASE_COLUMNS:
            raise CsvFormatError(
                f"line 1: header must start with id,label,domain, got {header[:3]}"
            )
        dim = len(header) - 3
        ds = DataSet()
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3 + dim:
                raise CsvFormatError(
                    f"line {line_no}: expected {3 + dim} fields, got {len(row)}"
                )
            try:
                sample_id = int(row[0])
                class_id = int(row[1])
            except ValueError:
                raise CsvFormatError(
                    f"line {line_no}: id and label must be integers"
                ) from None
            try:
                feats = np.array([float(v) for v in row[3:]], dtype=np.float64)
            except ValueError:
                raise CsvFormatError(
                    f"line {line_no}: unparseable feature value"
                ) from None
            if not np.isfinite(feats).all():
                raise CsvFormatError(f"line {line_no}: non-finite feature value")
            try:
                ds.add(
                    LabeledSample(
                        id=sample_id,
                        features=feats,
                        class_id=class_id,
                        domain_tag=row[2],
                    )
                )
            except ValueError as e:
                raise CsvFormatError(f"line {line_no}: {e}") from None
        return ds
