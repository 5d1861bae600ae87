import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from centerpolar.tensor import (
    DomainError,
    ShapeError,
    Tape,
    TapeError,
    Tensor,
    _partner_order,
    backward,
    grad_check,
    pair_index,
    record,
)

finite_floats = st.floats(
    min_value=-2.0, max_value=2.0, allow_nan=False, allow_infinity=False
)
vectors = st.lists(finite_floats, min_size=1, max_size=8)


# -- forward values -------------------------------------------------------------


def test_dot_orthogonal_is_zero():
    assert Tensor([1.0, 0.0]).dot(Tensor([0.0, 1.0])).item() == 0.0


def test_l2_norm_3_4_5():
    assert Tensor([3.0, 4.0]).l2_norm().item() == 5.0


def test_relu_values():
    out = Tensor([-2.0, 0.0, 3.0]).relu()
    assert out.numpy().tolist() == [0.0, 0.0, 3.0]


def test_elementwise_arithmetic():
    a = Tensor([1.0, 2.0, 3.0])
    b = Tensor([4.0, 5.0, 6.0])
    assert (a + b).numpy().tolist() == [5.0, 7.0, 9.0]
    assert (b - a).numpy().tolist() == [3.0, 3.0, 3.0]
    assert (a * b).numpy().tolist() == [4.0, 10.0, 18.0]
    assert (b / a).numpy().tolist() == [4.0, 2.5, 2.0]


def test_scalar_broadcast():
    a = Tensor([1.0, 2.0])
    assert (a + 1).numpy().tolist() == [2.0, 3.0]
    assert (1 + a).numpy().tolist() == [2.0, 3.0]
    assert (a - 1).numpy().tolist() == [0.0, 1.0]
    assert (3 - a).numpy().tolist() == [2.0, 1.0]
    assert (2 * a).numpy().tolist() == [2.0, 4.0]
    assert (a / 2).numpy().tolist() == [0.5, 1.0]
    assert (-a).numpy().tolist() == [-1.0, -2.0]


def test_matmul_shapes():
    M = Tensor([[1.0, 2.0], [3.0, 4.0]])
    v = Tensor([1.0, 1.0])
    assert M.matmul(v).numpy().tolist() == [3.0, 7.0]


def test_reductions_and_unaries():
    t = Tensor([1.0, 2.0, 3.0])
    assert t.sum().item() == 6.0
    assert t.mean().item() == 2.0
    assert t.square().numpy().tolist() == [1.0, 4.0, 9.0]
    assert Tensor([0.0]).tanh().item() == 0.0


def test_len_is_the_leading_axis():
    assert len(Tensor(np.zeros((3, 2)))) == 3
    assert len(Tensor([1.0, 2.0])) == 2
    with pytest.raises(TypeError):
        len(Tensor(1.0))


def test_acos_endpoints_exact():
    # the flat cap snaps near-collinear cosines onto the exact endpoint value
    assert Tensor([1.0]).acos().item() == 0.0
    assert Tensor([-1.0]).acos().item() == math.pi
    assert Tensor([1.0 - 1e-9]).acos().item() == 0.0
    assert Tensor([0.0]).acos().item() == math.acos(0.0)


# -- errors ---------------------------------------------------------------------


def test_shape_mismatch_names_op_and_shapes():
    with pytest.raises(ShapeError) as exc:
        Tensor([1.0, 2.0]) + Tensor([1.0, 2.0, 3.0])
    msg = str(exc.value)
    assert "add" in msg and "(2,)" in msg and "(3,)" in msg


def test_matmul_shape_errors():
    with pytest.raises(ShapeError):
        Tensor([[1.0, 2.0]]).matmul(Tensor([[1.0, 2.0]]))
    with pytest.raises(ShapeError):
        Tensor([1.0, 2.0, 3.0]).matmul(Tensor([[1.0], [2.0]]))


def test_acos_nonfinite_raises():
    with pytest.raises(DomainError):
        Tensor([float("nan")]).acos()


def test_backward_off_tape_raises():
    t = Tensor([1.0], requires_grad=True)
    with pytest.raises(TapeError):
        backward(t.sum())  # no active tape anywhere


def test_backward_non_scalar_raises():
    with record():
        t = Tensor([1.0, 2.0], requires_grad=True)
        y = t * 2.0
        with pytest.raises(TapeError):
            backward(y)


# -- gradients ------------------------------------------------------------------


def test_grad_sum_of_squares():
    with record():
        x = Tensor([1.0, 2.0], requires_grad=True)
        backward(x.square().sum())
    assert x.grad.tolist() == [2.0, 4.0]


def test_grad_matmul_linearity():
    with record():
        W = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        backward(W.matmul(Tensor([1.0, 1.0])).sum())
    assert W.grad.tolist() == [1.0, 1.0, 1.0, 1.0]


def test_grad_acos_of_dot():
    # f(x) = acos(x . u) at x=[0.6, 0.8], u=[1, 0]:
    # df/dx0 = -1/sqrt(1 - 0.36) = -1.25, df/dx1 = 0
    with record():
        x = Tensor([0.6, 0.8], requires_grad=True)
        backward(x.dot(Tensor([1.0, 0.0])).acos())
    assert x.grad[0] == pytest.approx(-1.25, abs=1e-12)
    assert x.grad[1] == 0.0


def test_subgradient_conventions():
    # relu'(0) = 0
    with record():
        x = Tensor([0.0, -1.0, 1.0], requires_grad=True)
        backward(x.relu().sum())
    assert x.grad.tolist() == [0.0, 0.0, 1.0]
    # l2_norm gradient at the zero vector is the zero vector
    with record():
        z = Tensor([0.0, 0.0], requires_grad=True)
        backward(z.l2_norm())
    assert z.grad.tolist() == [0.0, 0.0]
    # acos is flat in the guard band next to the endpoints
    with record():
        a = Tensor([1.0 - 1e-9, 0.5], requires_grad=True)
        backward(a.acos().sum())
    assert a.grad[0] == 0.0
    assert a.grad[1] == pytest.approx(-1.0 / math.sqrt(0.75), abs=1e-12)


def test_grad_div_both_sides():
    with record():
        a = Tensor([6.0], requires_grad=True)
        b = Tensor([3.0], requires_grad=True)
        backward((a / b).sum())
    assert a.grad[0] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert b.grad[0] == pytest.approx(-6.0 / 9.0, abs=1e-15)


def test_grad_overwrite():
    x = Tensor([3.0], requires_grad=True)
    with record():
        backward(x.square().sum())  # grad 6
    with record():
        backward((x * 4.0).sum())  # grad 4, overwrites
    assert x.grad.tolist() == [4.0]


def test_fan_out_grads_sum_within_one_tape():
    with record():
        x = Tensor([2.0], requires_grad=True)
        y = x * 3.0 + x * 5.0
        backward(y.sum())
    assert x.grad.tolist() == [8.0]


@pytest.mark.parametrize("k", [1, 2, 5])
def test_fold_adds_onto_the_running_gradient_row_by_row(k):
    # a row shared by 40 rows takes them last to first, onto what the later
    # `dot` gave it first; magnitudes 1e-8..1e8 make any regrouping show
    gen = np.random.default_rng(k)
    G = gen.normal(size=(40, k)) * 10.0 ** gen.integers(-8, 9, size=(40, k))
    h = gen.normal(size=k)
    with record():
        b = Tensor(np.zeros(k), requires_grad=True)
        backward(((Tensor(np.zeros((40, k))) + b) * Tensor(G)).sum() + b.dot(Tensor(h)))
    acc = h
    for row in G[::-1]:
        acc = acc + row
    assert np.array_equal(b.grad, acc)


def _partner_order_by_loop(n):
    # the docstring of `_partner_order`, one row and one partner at a time
    position = {pair: p for p, pair in enumerate(zip(*np.triu_indices(n, 1)))}
    pair, sign = np.empty((n - 1, n), dtype=np.intp), np.empty((n - 1, n))
    for r in range(n):
        partners = [q for q in range(n - 1, -1, -1) if q != r]
        for s, q in enumerate(partners):
            pair[s, r] = position[(min(r, q), max(r, q))]
            sign[s, r] = 1.0 if r < q else -1.0
    return pair, sign


def test_cached_index_arrays_match_their_definitions_and_are_read_only():
    for n in range(2, 41):
        i, j = pair_index(n)
        want_i, want_j = np.triu_indices(n, 1)
        assert np.array_equal(i, want_i) and np.array_equal(j, want_j)
        pair, sign = _partner_order(n)
        want_pair, want_sign = _partner_order_by_loop(n)
        assert np.array_equal(pair, want_pair) and np.array_equal(sign, want_sign)
        assert pair_index(n)[0] is i and _partner_order(n)[0] is pair  # cached
        # every later batch of this size reads these arrays
        for a in (i, j, pair, sign):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = a[-1]
            with pytest.raises(ValueError, match="read-only"):
                a += a


def test_detach_shares_storage_but_blocks_grads():
    x = Tensor([1.0, 2.0], requires_grad=True)
    d = x.detach()
    assert d.data is x.data
    assert not d.requires_grad
    with record():
        y = (d * 2.0).sum()
    assert y._tape is None  # nothing participated


def test_participation_requires_flag_or_tape_origin():
    plain = Tensor([1.0, 2.0])
    with record() as tape:
        out = (plain * 2.0).sum()
        assert out._tape is None
        assert len(tape) == 0


def test_nested_tapes_restore_previous():
    with record() as outer:
        x = Tensor([1.0], requires_grad=True)
        a = x * 2.0
        with record() as inner:
            b = x * 3.0
            backward(b.sum())
        assert b._tape is inner
        backward((a * 1.0).sum())
    assert x.grad.tolist() == [2.0]


# -- grad_check -----------------------------------------------------------------


def test_grad_check_l2_norm_random():
    gen = np.random.default_rng(3)
    x = Tensor(gen.normal(size=8) + 3.0)  # keep away from the zero-vector kink
    assert grad_check(lambda t: t.l2_norm(), x) < 1e-4


def test_grad_check_constant_function():
    x = Tensor([1.0, 2.0])
    assert grad_check(lambda t: Tensor([7.0]).sum(), x) == 0.0


def test_grad_check_rejects_non_scalar():
    with pytest.raises(TapeError):
        grad_check(lambda t: t * 2.0, Tensor([1.0, 2.0]))


# -- determinism ----------------------------------------------------------------


def test_bitwise_repeatability():
    def run():
        with record():
            x = Tensor([0.3, -0.7, 1.9], requires_grad=True)
            y = ((x.tanh() * 2.0 - x.square()).sum() / 3.0).acos()
            backward(y)
        return y.item(), x.grad.copy()

    v1, g1 = run()
    v2, g2 = run()
    assert v1 == v2
    assert np.array_equal(g1, g2)


# -- algebraic properties -------------------------------------------------------


@given(vectors)
def test_add_commutes_bitwise(vals):
    a, b = Tensor(vals), Tensor(list(reversed(vals)))
    assert np.array_equal((a + b).data, (b + a).data)


@given(vectors)
def test_square_equals_self_mul(vals):
    t = Tensor(vals)
    assert np.array_equal(t.square().data, (t * t).data)


@given(vectors)
def test_relu_idempotent_and_nonnegative(vals):
    once = Tensor(vals).relu()
    assert (once.numpy() >= 0.0).all()
    assert np.array_equal(once.relu().data, once.data)


@given(vectors)
def test_l2_norm_nonnegative(vals):
    assert Tensor(vals).l2_norm().item() >= 0.0


def test_public_constructor_copies_input():
    arr = np.array([1.0, 2.0])
    t = Tensor(arr)
    arr[0] = 99.0
    assert t.numpy().tolist() == [1.0, 2.0]


def test_tape_is_reusable_container():
    tape = Tape()
    with record(tape):
        x = Tensor([2.0], requires_grad=True)
        backward((x * x).sum())
    assert len(tape) > 0
    assert x.grad.tolist() == [4.0]
