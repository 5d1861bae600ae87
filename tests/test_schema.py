"""Field rules, pinned from the declarations themselves.

Every rule a config, spec or checkpoint dataclass declares in a field's
metadata is broken in turn, inside a full train config, spec or
checkpoint dict, and the error must start with the field's dotted path.
"""

import dataclasses
import json
import re
import typing

import numpy as np
import pytest
from test_cli import checkpoint_dict, spec_dict, train_config_dict

from centerpolar import schema
from centerpolar.cli import main
from centerpolar.data import BenchmarkSpec, DomainTransform
from centerpolar.encoder import LayerRecord
from centerpolar.expansion import ExpansionConfig
from centerpolar.losses import LossConfig
from centerpolar.trainer import Checkpoint, TrainConfig

# where each dataclass sits in a full dict of a root class that `from_dict` reads
ROUTES = [
    (TrainConfig, TrainConfig, ""),
    (LossConfig, TrainConfig, "loss"),
    (ExpansionConfig, TrainConfig, "expansion"),
    (BenchmarkSpec, BenchmarkSpec, ""),
    (DomainTransform, BenchmarkSpec, "domain_transforms[1]"),
    (Checkpoint, Checkpoint, ""),
    (TrainConfig, Checkpoint, "config"),
    (LossConfig, Checkpoint, "config.loss"),
    (ExpansionConfig, Checkpoint, "config.expansion"),
    (LayerRecord, Checkpoint, "layers[1]"),
]
CLASSES = list(dict.fromkeys(cls for cls, _, _ in ROUTES))
# every key written out, nested configs and unset transform fields too
FULL_DICT = {
    TrainConfig: lambda: TrainConfig.from_dict(train_config_dict()).to_dict(),
    BenchmarkSpec: lambda: BenchmarkSpec.from_dict(spec_dict()).to_dict(),
    Checkpoint: checkpoint_dict,
}
# the command and flag that read each root class from a file
COMMAND = {
    TrainConfig: ["train", "--config"],
    BenchmarkSpec: ["gen-data", "--spec"],
    Checkpoint: ["eval", "--checkpoint"],
}
RULES = ("min", "above", "below", "one_of")

# int and float fields bounded only by a rule relating two fields
# (n_classes_total, margin_neg, Checkpoint.seed) or not at all
UNRULED = {
    "BenchmarkSpec.n_classes_total",
    "LossConfig.margin_neg",
    "DomainTransform.rotation_angles",
    "Checkpoint.seed",
}


def base_type(cls, f):
    """(X, is a tuple) for a field annotated X, X | None or tuple[X, ...]."""
    tp = typing.get_type_hints(cls)[f.name]
    if typing.get_origin(tp) is not tuple:
        tp = next((a for a in typing.get_args(tp) if a is not type(None)), tp)
    if typing.get_origin(tp) is tuple:
        return typing.get_args(tp)[0], True
    return tp, False


def breaking(rule, bound):
    """A value that breaks `rule` with `bound`, and the message it gets."""
    if rule == "one_of":
        return "no-such-choice", "must be one of"
    sign, value = {"min": (">=", bound - 1), "above": (">", bound), "below": ("<", bound)}[rule]
    return value, f"must be {sign} {bound}"


def rule_cases():
    for cls, root, where in ROUTES:
        for f in dataclasses.fields(cls):
            for rule in RULES:
                if rule in f.metadata:
                    key = schema._key(f)
                    yield pytest.param(
                        root, where, key, rule, f.metadata[rule], base_type(cls, f)[1],
                        id=f"{root.__name__}:{where}.{key}-{rule}".replace(":.", ":"),
                    )


def parent_of(d, where):
    """The object at dotted path `where` (such as `layers[1]`) inside `d`."""
    for part in filter(None, where.split(".")):
        name, *index = re.fullmatch(r"(\w+)(?:\[(\d+)\])?", part).groups()
        d = d[name] if index[0] is None else d[name][int(index[0])]
    return d


def broken_dict(root, where, key, rule, bound, is_tuple):
    value, message = breaking(rule, bound)
    d = FULL_DICT[root]()
    parent_of(d, where)[key] = [value] if is_tuple else value
    path = f"{where}.{key}" if where else key
    return d, f"{path}[0]" if is_tuple else path, message


@pytest.mark.parametrize("root, where, key, rule, bound, is_tuple", list(rule_cases()))
def test_each_declared_rule_is_named_by_its_dotted_path(root, where, key, rule, bound, is_tuple):
    d, path, message = broken_dict(root, where, key, rule, bound, is_tuple)
    with pytest.raises(schema.FieldError) as info:
        schema.from_dict(root, d)
    assert str(info.value).startswith(f"{path}: {message}")


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    spec_path = tmp_path_factory.mktemp("spec") / "spec.json"
    spec_path.write_text(json.dumps(spec_dict()))
    out = tmp_path_factory.mktemp("data")
    assert main(["gen-data", "--spec", str(spec_path), "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("root, where, key, rule, bound, is_tuple", list(rule_cases()))
def test_each_declared_rule_broken_in_a_file_is_exit_2(
    tmp_path, data_dir, capsys, root, where, key, rule, bound, is_tuple
):
    d, path, message = broken_dict(root, where, key, rule, bound, is_tuple)
    input_path = tmp_path / "input.json"
    input_path.write_text(json.dumps(d))
    argv = [*COMMAND[root], str(input_path), "--out", str(tmp_path / "out")]
    if root is not BenchmarkSpec:
        argv += ["--data", str(data_dir)]
    capsys.readouterr()
    assert main(argv) == 2
    assert f": {path}: {message}" in capsys.readouterr().err


def test_every_number_field_declares_a_rule_or_is_listed():
    unruled = set()
    for cls in CLASSES:
        for f in dataclasses.fields(cls):
            if base_type(cls, f)[0] in (int, float) and not set(RULES) & set(f.metadata):
                unruled.add(f"{cls.__name__}.{f.name}")
    assert unruled == UNRULED


def test_a_rule_that_relates_two_fields_keeps_the_object_path():
    d = train_config_dict(loss={"margin_pos": 2.0, "margin_neg": 1.0})
    with pytest.raises(ValueError, match=r"^loss: need margin_pos < margin_neg") as info:
        TrainConfig.from_dict(d)
    assert not isinstance(info.value, schema.FieldError)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: DomainTransform(name=5), "name: expected a string, got integer 5"),
        (
            lambda: LayerRecord("tanh", (2, 2), 3, "x"),
            "weight: expected a string, got integer 3",
        ),
        (lambda: ExpansionConfig(expansion_epochs=5), "expansion_epochs: expected an array"),
        (
            lambda: DomainTransform(name="tilt", rotation_angles=np.zeros((1, 2))),
            "rotation_angles: expected an array",
        ),
        (
            lambda: TrainConfig(loss={"lambda": 1.0}),
            "loss: expected a LossConfig, got object {'lambda': 1.0}",
        ),
        (lambda: TrainConfig(loss=None), "loss: expected a LossConfig, got null None"),
        (
            lambda: dataclasses.replace(
                BenchmarkSpec.from_dict(spec_dict()), domain_transforms=({},)
            ),
            "domain_transforms[0]: expected a DomainTransform, got object {}",
        ),
    ],
)
def test_a_value_built_in_python_is_checked_as_one_read_from_json(build, message):
    with pytest.raises(schema.FieldError) as info:
        build()
    assert str(info.value).startswith(message)


def test_numpy_angles_are_stored_as_a_tuple_of_floats():
    transform = DomainTransform(name="tilt", rotation_angles=np.array([0.5, -1.0]))
    assert transform.rotation_angles == (0.5, -1.0)
    assert [type(a) for a in transform.rotation_angles] == [float, float]


def test_a_nested_error_is_reported_before_its_parents_scalars():
    with pytest.raises(schema.FieldError, match=r"^loss\.lambda: must be >= 0, got -1\.0"):
        TrainConfig.from_dict({"lr_theta": "x", "loss": {"lambda": -1}})


@pytest.mark.parametrize(
    "transform, message",
    [
        (
            {"name": "near", "rotation_seed": -1},
            "domain_transforms[0].rotation_seed: must be >= 0",
        ),
        # never drawn from, as bias_std is 0, but still not a seed
        ({"name": "near", "bias_seed": -1}, "domain_transforms[0].bias_seed: must be >= 0"),
        (
            {"name": "near", "rotation_angles": [0.1] * 3},
            "domain_transforms[0].rotation_angles: 3 plane angles need input_dim >= 6, got 4",
        ),
    ],
)
def test_a_bad_transform_fails_gen_data_before_any_output(tmp_path, capsys, transform, message):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_dict(domain_transforms=[transform])))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["gen-data", "--spec", str(spec_path), "--out", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()
