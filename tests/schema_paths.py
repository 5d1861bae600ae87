"""Enumerate the JSON objects nested in a config dict, for schema tests."""


def object_paths(d, path=""):
    """[(dotted path, object)] for `d` and every object inside it.

    The path spells keys the way schema errors name them: `loss.lambda`,
    `domain_transforms[0].scale`; the top-level object has path "".
    """
    out = [(path, d)]
    for key, value in d.items():
        sub = f"{path}.{key}" if path else key
        items = enumerate(value) if isinstance(value, list) else [(None, value)]
        for i, item in items:
            if isinstance(item, dict):
                out.extend(object_paths(item, sub if i is None else f"{sub}[{i}]"))
    return out
