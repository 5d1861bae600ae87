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
import io
import json
import math
import numbers
from array import array
from dataclasses import dataclass, field

import numpy as np

from . import rng, schema

_PROTOTYPE_ATTEMPTS = 10_000
# Prototypes on a shell of radius r, pairwise at least r apart, are pairwise
# at least 60 degrees apart, so no more fit than the kissing number of the
# dimension: exact values, and upper bounds for dimensions 5-7 (Conway &
# Sloane, "Sphere Packings, Lattices and Groups", 3rd ed., 1999).
_KISSING_BOUND = {1: 2, 2: 6, 3: 12, 4: 24, 5: 44, 6: 78, 7: 134, 8: 240}
RESERVED_DOMAIN_TAGS = ("source", "expanded")
_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)
_BOOLS = frozenset((bool, np.bool_))


class GenerationError(RuntimeError):
    pass


class CsvFormatError(ValueError):
    pass


class RowError(ValueError):
    """A column rule broken first at row `row`; the message names its sample id."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


@dataclass(frozen=True)
class DataSet:
    """Labeled rows as read-only columns, validated once at construction.

    `ids` and `labels` are int64, `domains` holds one string tag per row and
    `features` is an (n, d) float64 matrix; the columns are copies of the
    arguments.  Ids and labels must be integers >= 0, ids unique, features
    finite and tags non-empty; a violation raises RowError naming the sample
    id of the first offending row.
    """

    ids: np.ndarray
    labels: np.ndarray
    domains: np.ndarray
    features: np.ndarray

    def __post_init__(self):
        domains = np.array(self.domains)
        features = np.array(self.features, dtype=np.float64)
        if not np.ndim(self.ids) == np.ndim(self.labels) == domains.ndim == features.ndim - 1 == 1:
            raise ValueError("ids, labels and domains must be vectors, features an (n, d) matrix")
        n = len(features)
        if not len(self.ids) == len(self.labels) == len(domains) == n:
            raise ValueError(
                f"columns differ in length: {len(self.ids)} ids, {len(self.labels)} labels, "
                f"{len(domains)} domains, {n} feature rows"
            )
        if n and domains.dtype.kind != "U":
            raise ValueError(f"domain tags must be strings, got {domains.dtype} entries")
        ids = _int64(self.ids, None)
        labels, domains = _int64(self.labels, ids), domains.astype(str)
        repeated = np.ones(n, dtype=bool)
        repeated[np.unique(ids, return_index=True)[1]] = False
        # per row, the first rule it breaks; the error names the first such row
        rules = (
            (~np.isfinite(features).all(axis=1), "sample {}: non-finite feature values"),
            ((ids < 0) | (labels < 0), "sample {}: ids and class ids must be >= 0"),
            (domains == "", "sample {}: empty domain tag"),
            (repeated, "duplicate sample id {}"),
        )
        broken = [(int(np.argmax(bad)), message) for bad, message in rules if bad.any()]
        if broken:
            row, message = min(broken, key=lambda b: b[0])
            raise RowError(row, message.format(ids[row]))
        for name, column in zip(
            ("ids", "labels", "domains", "features"), (ids, labels, domains, features)
        ):
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.ids)


def _int64(values, ids) -> np.ndarray:
    """`values` as int64; an entry that is no 64-bit integer raises RowError
    naming the id of its row (the entry itself when `ids` is None)."""
    column = np.array(values)
    # a list that mixes bools into integers still gives an int64 array
    mixed = not isinstance(values, np.ndarray) and not _BOOLS.isdisjoint(map(type, values))
    if column.dtype.kind != "i" or mixed:
        entries = np.array(values, dtype=object).tolist()
        row = next(
            (
                i
                for i, v in enumerate(entries)
                if isinstance(v, bool)
                or not isinstance(v, numbers.Integral)
                or not _INT64_MIN <= v <= _INT64_MAX
            ),
            None,
        )
        if row is not None:
            sample = entries[row] if ids is None else ids[row]
            raise RowError(row, f"sample {sample}: ids and class ids must be 64-bit integers")
    return column.astype(np.int64)


@dataclass(frozen=True)
class DomainTransform:
    """Affine domain map x -> scale * R x + b.

    R comes from `rotation_angles` (plane rotations in coordinate planes
    (0,1), (2,3), ... by the listed angles) or, when absent, from a seeded
    random orthogonal matrix; with neither, R is the identity.  The bias is
    bias_std * standard normals drawn from bias_seed.
    """

    name: str
    scale: float = field(default=1.0, metadata={"above": 0})
    rotation_seed: int | None = field(default=None, metadata=rng.SEED_RULES)
    rotation_angles: tuple[float, ...] | None = None
    bias_seed: int | None = field(default=None, metadata=rng.SEED_RULES)
    bias_std: float = field(default=0.0, metadata={"min": 0})

    def __post_init__(self):
        schema.check_fields(self)
        if not self.name:
            raise ValueError("transform name must be non-empty")
        if self.name in RESERVED_DOMAIN_TAGS:
            raise ValueError(f"transform name {self.name!r} is reserved")

    def rotation_matrix(self, dim: int) -> np.ndarray:
        if self.rotation_angles is not None:
            if 2 * len(self.rotation_angles) > dim:
                raise ValueError(
                    f"transform {self.name}: {len(self.rotation_angles)} plane angles "
                    f"need dimension >= {2 * len(self.rotation_angles)}, got {dim}"
                )
            # the planes are disjoint, so the product of the rotations is
            # block-diagonal; a zero sine is +0.0 on both sides, as in that product
            R = np.eye(dim)
            for i, angle in enumerate(self.rotation_angles):
                c, s = math.cos(angle), math.sin(angle)
                R[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = ((c, 0.0 - s), (s + 0.0, c))
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
    n_classes_seen: int = field(metadata={"min": 1})
    samples_per_class: int = field(metadata={"min": 2})
    input_dim: int = field(metadata={"min": 2})
    class_separation: float = field(metadata={"above": 0})
    intra_std: float = field(metadata={"min": 0})
    domain_transforms: tuple[DomainTransform, ...]
    seed: int = field(metadata=rng.SEED_RULES)
    # optional signal/nuisance split: prototypes confined to the first
    # signal_dim coordinates, class-independent noise on the rest
    signal_dim: int = field(default=0, metadata={"min": 0})
    nuisance_std: float = field(default=0.0, metadata={"min": 0})

    def __post_init__(self):
        schema.check_fields(self)
        if self.n_classes_total < self.n_classes_seen:
            raise ValueError(
                f"need n_classes_seen <= n_classes_total, got "
                f"{self.n_classes_seen}, {self.n_classes_total}"
            )
        if self.domain_transforms and self.n_classes_total == self.n_classes_seen:
            raise ValueError("test domains need at least one unseen class")
        if self.signal_dim > self.input_dim:
            raise ValueError(f"need signal_dim <= input_dim, got {self.signal_dim}")
        if self.nuisance_std > 0 and self.signal_dim == 0:
            raise ValueError("nuisance_std requires a signal subspace (signal_dim >= 1)")
        names = [t.name for t in self.domain_transforms]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate transform names in {names}")
        for k, t in enumerate(self.domain_transforms):
            planes = len(t.rotation_angles or ())
            if 2 * planes > self.input_dim:
                raise ValueError(
                    f"domain_transforms[{k}].rotation_angles: {planes} plane angles "
                    f"need input_dim >= {2 * planes}, got {self.input_dim}"
                )

    def to_dict(self) -> dict:
        return schema.to_dict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "BenchmarkSpec":
        return schema.from_dict(cls, d)

    @classmethod
    def from_json(cls, text: str) -> "BenchmarkSpec":
        return cls.from_dict(json.loads(text))


def generate_benchmark(spec: BenchmarkSpec):
    """Build (train DataSet, {domain name: test DataSet}) from a spec.

    Ids run consecutively from 0 over the train rows, then each domain's."""
    prototypes = _draw_prototypes(spec)
    seen = np.repeat(np.arange(spec.n_classes_seen), spec.samples_per_class)
    x = _draw_samples(prototypes, seen, spec, rng.stream(spec.seed, rng.STREAM_TRAIN_NOISE))
    train = DataSet(np.arange(len(seen)), seen, ["source"] * len(seen), x)
    tests: dict[str, DataSet] = {}
    unseen = np.repeat(
        np.arange(spec.n_classes_seen, spec.n_classes_total), spec.samples_per_class
    )
    next_id = len(seen)
    for k, transform in enumerate(spec.domain_transforms):
        gen = rng.stream(spec.seed, rng.STREAM_DOMAIN_BASE + k)
        x = transform.apply(_draw_samples(prototypes, unseen, spec, gen))
        ids = np.arange(next_id, next_id + len(unseen))
        tests[transform.name] = DataSet(ids, unseen, [transform.name] * len(unseen), x)
        next_id += len(unseen)
    return train, tests


def _draw_samples(prototypes: np.ndarray, labels: np.ndarray, spec: BenchmarkSpec, gen):
    """One row per label: its prototype plus intra-class noise, and nuisance
    noise outside the signal subspace.  Each row's draws come in turn from
    `gen`, its intra-class noise first."""
    nuisance_dims = spec.input_dim - spec.signal_dim if spec.nuisance_std > 0 else 0
    noise = gen.standard_normal((len(labels), spec.input_dim + nuisance_dims))
    x = prototypes[labels] + spec.intra_std * noise[:, : spec.input_dim]
    # class-independent clutter on the last nuisance_dims coordinates
    x[:, spec.input_dim - nuisance_dims :] += spec.nuisance_std * noise[:, spec.input_dim :]
    return x


def _draw_prototypes(spec: BenchmarkSpec) -> np.ndarray:
    """Prototypes on the shell of radius class_separation, pairwise at least
    class_separation apart; rejection-sampled, erroring out when the
    dimension cannot host that many separated classes.  With a signal
    subspace configured, placement happens inside it and the remaining
    coordinates stay zero."""
    n, sep = spec.n_classes_total, spec.class_separation
    dim = spec.signal_dim if spec.signal_dim else spec.input_dim
    bound = _KISSING_BOUND.get(dim)
    if bound is not None and n > bound:
        raise GenerationError(
            f"cannot place {n} prototypes with separation {sep} in dimension {dim}: "
            f"at most {bound} fit pairwise 60 degrees apart (kissing number)"
        )
    gen = rng.stream(spec.seed, rng.STREAM_PROTOTYPES)
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
    """Write `id,label,domain,f0..f{D-1}` (only `id,label,domain` when
    empty) in the row format of `_write_rows`."""
    dim = dataset.features.shape[1] if len(dataset) else 0
    header = _BASE_COLUMNS + tuple(f"f{i}" for i in range(dim))
    _write_rows(path, header, dataset, dataset.features)


def _write_rows(path, header, dataset: DataSet, values: np.ndarray) -> None:
    """Write `header`, then per row of `dataset` its id, label and domain tag
    and that row of `values` as 17-significant-digit floats: the bytes
    `csv.writer` writes, tags quoted where CSV needs it, lines ending \\r\\n."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        tags = {}
        for tag in set(dataset.domains.tolist()):
            quoted = io.StringIO()
            csv.writer(quoted).writerow([tag])
            tags[tag] = quoted.getvalue()[:-2]
        line = "%d,%d,%s" + ",%.17g" * values.shape[1] + "\r\n"
        # one row's floats at a time: the whole matrix as Python floats at
        # once fragments the heap and raises the process's peak RSS
        fh.writelines(
            line % (i, label, tags[tag], *row.tolist())
            for i, label, tag, row in zip(
                dataset.ids.tolist(), dataset.labels.tolist(), dataset.domains.tolist(), values
            )
        )


def load_csv(path) -> DataSet:
    """Parse a dataset CSV, reporting the offending line on any format error.

    The first three header columns must be id,label,domain; the remaining
    columns are features regardless of their names, so embedding exports
    load under the same schema.  A broken DataSet rule names the line of
    the first offending row.
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
        line_nos, ids, labels, domains, values = [], [], [], [], array("d")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3 + dim:
                raise CsvFormatError(
                    f"line {line_no}: expected {3 + dim} fields, got {len(row)}"
                )
            try:
                ids.append(int(row[0]))
                labels.append(int(row[1]))
            except ValueError:
                raise CsvFormatError(
                    f"line {line_no}: id and label must be integers"
                ) from None
            try:
                values.extend(map(float, row[3:]))
            except ValueError:
                raise CsvFormatError(
                    f"line {line_no}: unparseable feature value"
                ) from None
            domains.append(row[2])
            line_nos.append(line_no)
    try:
        return DataSet(ids, labels, domains, np.frombuffer(values).reshape(len(ids), dim))
    except RowError as e:
        raise CsvFormatError(f"line {line_nos[e.row]}: {e}") from None
