"""Gradient references that the program itself never runs.

`grad_check` holds the tape's reverse-mode gradients to central
differences, and `c4_equilibrium_probe` measures the two phase-two terms'
parameter gradients against each other; acceptance criteria 1 and 4 rest
on them.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from centerpolar.encoder import EncoderModel
from centerpolar.geometry import CentroidTable
from centerpolar.losses import LossConfig, loss_c4, loss_dis
from centerpolar.tensor import Tensor, TapeError, backward, record


def grad_check(f, x: Tensor, h: float = 1e-5) -> float:
    """Max relative disagreement between reverse-mode and central differences.

    Returns max_i |analytic_i - numeric_i| / max(1, |analytic_i|).  `f` must
    map a tensor to a scalar tensor and be evaluated away from non-smooth
    points for the comparison to be meaningful.
    """
    if not isinstance(x, Tensor):
        raise TypeError("grad_check: x must be a Tensor")
    x.requires_grad = True
    with record():
        y = f(x)
        if not isinstance(y, Tensor) or y.size != 1:
            raise TapeError("grad_check: f must return a scalar tensor")
        if y._tape is None:
            analytic = np.zeros(x.size)  # f is constant in x
        else:
            backward(y)
            analytic = x.grad.ravel() if x.grad is not None else np.zeros(x.size)
    if not np.isfinite(y.item()):
        raise FloatingPointError("grad_check: f returned a non-finite value")
    coords = x.data.flat  # writes go through to x
    numeric = np.empty(x.size)
    for i in range(x.size):
        orig = coords[i]
        coords[i] = orig + h
        hi = f(x).item()
        coords[i] = orig - h
        lo = f(x).item()
        coords[i] = orig
        if not (math.isfinite(hi) and math.isfinite(lo)):
            raise FloatingPointError(
                f"grad_check: f returned a non-finite value at coordinate {i}"
            )
        numeric[i] = (hi - lo) / (2.0 * h)
    err = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic))
    return float(err.max()) if err.size else 0.0


def c4_equilibrium_probe(
    model: EncoderModel,
    x,
    class_ids,
    centroids: CentroidTable,
    lconfig: LossConfig,
    lambdas,
) -> list[dict]:
    """Parameter-gradient norms of the two phase-two terms per lambda.

    Rows report ||grad of the contrastive term||, lambda * ||grad of the
    summed centripetal distances|| (unaveraged, so the column scales with
    the batch), and the norm of the full mean-loss gradient.  The total is
    grad_dom + (lambda / batch) * grad_sum by linearity.  The batch is the
    (B, d) inputs `x` with their `class_ids`.  `lambdas` must be non-empty,
    finite and >= 0; it is checked before any gradient is taken.
    """
    lams = [float(lam) for lam in lambdas]
    if not lams or not all(np.isfinite(lam) and lam >= 0 for lam in lams):
        raise ValueError(f"lambdas must be non-empty, finite and >= 0, got {lams}")
    # lambda = 0 makes loss_c4 exactly the contrastive term
    dom_config = replace(lconfig, lam=0.0)
    g_dom = _param_grad(model, lambda: loss_c4(x, class_ids, model, centroids, dom_config))
    # unaveraged: the probe reports the summed centripetal pull
    g_dis_sum = _param_grad(
        model, lambda: loss_dis(model.forward(x), centroids.vectors(class_ids)).sum()
    )
    n = float(len(x))
    rows = []
    for lam in lams:
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
    return np.concatenate([p.grad.ravel() for p in params])
