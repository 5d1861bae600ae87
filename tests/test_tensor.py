import gc
import math
import operator
import weakref
from functools import partial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from centerpolar.tensor import (
    DomainError,
    ShapeError,
    TapeError,
    Tensor,
    _partner_order,
    backward,
    dense,
    pair_index,
    record,
)
from grad_oracle import grad_check
from scalar_oracle import (
    acos,
    div,
    dot,
    l2_norm,
    matvec,
    mean_scalars,
    pair_distances,
    relu,
    square,
    take,
    tanh,
)

finite_floats = st.floats(
    min_value=-2.0, max_value=2.0, allow_nan=False, allow_infinity=False
)
vectors = st.lists(finite_floats, min_size=1, max_size=8)


# -- forward values -------------------------------------------------------------


def test_dot_orthogonal_is_zero():
    assert dot(Tensor([1.0, 0.0]), Tensor([0.0, 1.0])).item() == 0.0


def test_l2_norm_3_4_5():
    assert l2_norm(Tensor([3.0, 4.0])).item() == 5.0


def test_relu_values():
    out = relu(Tensor([-2.0, 0.0, 3.0]))
    assert out.numpy().tolist() == [0.0, 0.0, 3.0]


def test_elementwise_arithmetic():
    a = Tensor([1.0, 2.0, 3.0])
    b = Tensor([4.0, 5.0, 6.0])
    assert (a + b).numpy().tolist() == [5.0, 7.0, 9.0]
    assert (b - a).numpy().tolist() == [3.0, 3.0, 3.0]
    assert (a * b).numpy().tolist() == [4.0, 10.0, 18.0]
    assert div(b, a).numpy().tolist() == [4.0, 2.5, 2.0]


def test_scalar_broadcast():
    a = Tensor([1.0, 2.0])
    assert (a + 1).numpy().tolist() == [2.0, 3.0]
    assert (1 + a).numpy().tolist() == [2.0, 3.0]
    assert (a - 1).numpy().tolist() == [0.0, 1.0]
    assert (3 - a).numpy().tolist() == [2.0, 1.0]
    assert (2 * a).numpy().tolist() == [2.0, 4.0]
    assert div(a, 2).numpy().tolist() == [0.5, 1.0]
    assert (-a).numpy().tolist() == [-1.0, -2.0]


def test_matvec_shapes():
    M = Tensor([[1.0, 2.0], [3.0, 4.0]])
    v = Tensor([1.0, 1.0])
    assert matvec(M, v).numpy().tolist() == [3.0, 7.0]


def test_reductions_and_unaries():
    t = Tensor([1.0, 2.0, 3.0])
    assert t.sum().item() == 6.0
    assert t.mean().item() == 2.0
    assert square(t).numpy().tolist() == [1.0, 4.0, 9.0]
    assert tanh(Tensor([0.0])).item() == 0.0


def test_len_is_the_leading_axis():
    assert len(Tensor(np.zeros((3, 2)))) == 3
    assert len(Tensor([1.0, 2.0])) == 2
    with pytest.raises(TypeError):
        len(Tensor(1.0))


def test_acos_endpoints_exact():
    # the flat cap snaps near-collinear cosines onto the exact endpoint value
    assert acos(Tensor([1.0])).item() == 0.0
    assert acos(Tensor([-1.0])).item() == math.pi
    assert acos(Tensor([1.0 - 1e-9])).item() == 0.0
    assert acos(Tensor([0.0])).item() == math.acos(0.0)


# -- errors ---------------------------------------------------------------------


def test_shape_mismatch_names_op_and_shapes():
    with pytest.raises(ShapeError) as exc:
        Tensor([1.0, 2.0]) + Tensor([1.0, 2.0, 3.0])
    msg = str(exc.value)
    assert "add" in msg and "(2,)" in msg and "(3,)" in msg


def test_matvec_shape_errors():
    # a (1, 2) matrix maps vectors of width 2, so a width of 3 is the mismatch
    with pytest.raises(ShapeError, match=r"matvec: shapes \(1, 2\) and \(3,\)"):
        matvec(Tensor([[1.0, 2.0]]), Tensor([1.0, 2.0, 3.0]))
    with pytest.raises(ShapeError):
        matvec(Tensor([1.0, 2.0, 3.0]), Tensor([[1.0], [2.0]]))
    with pytest.raises(ShapeError, match=r"dot: shapes \(2,\) and \(3,\)"):
        dot(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))


def test_acos_nonfinite_raises():
    with pytest.raises(DomainError):
        acos(Tensor([float("nan")]))


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
        backward(square(x).sum())
    assert x.grad.tolist() == [2.0, 4.0]


def test_grad_matvec_linearity():
    with record():
        W = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        backward(matvec(W, Tensor([1.0, 1.0])).sum())
    assert W.grad.tolist() == [[1.0, 1.0], [1.0, 1.0]]


def test_matvec_on_a_vector_gives_the_bits_of_the_matrix_product():
    # the per-sample oracle embeds one 1-D row at a time through its matvec
    gen = np.random.default_rng(9)
    for _ in range(300):
        m, n = gen.integers(1, 70, size=2)
        W = gen.normal(size=(m, n)) * 10.0 ** gen.integers(-8, 9, size=(m, n))
        x = gen.normal(size=n) * 10.0 ** gen.integers(-8, 9, size=n)
        g = gen.normal(size=m)
        with record():
            Wt, xt = Tensor(W, requires_grad=True), Tensor(x, requires_grad=True)
            y = matvec(Wt, xt)
            backward(dot(y, Tensor(g)))
        assert np.array_equal(y.numpy(), W @ x)
        assert np.array_equal(Wt.grad, np.outer(g, x))
        assert np.array_equal(xt.grad, W.T @ g)


def test_grad_acos_of_dot():
    # f(x) = acos(x . u) at x=[0.6, 0.8], u=[1, 0]:
    # df/dx0 = -1/sqrt(1 - 0.36) = -1.25, df/dx1 = 0
    with record():
        x = Tensor([0.6, 0.8], requires_grad=True)
        backward(acos(dot(x, Tensor([1.0, 0.0]))))
    assert x.grad[0] == pytest.approx(-1.25, abs=1e-12)
    assert x.grad[1] == 0.0


def test_subgradient_conventions():
    # relu'(0) = 0
    with record():
        x = Tensor([0.0, -1.0, 1.0], requires_grad=True)
        backward(relu(x).sum())
    assert x.grad.tolist() == [0.0, 0.0, 1.0]
    # l2_norm gradient at the zero vector is the zero vector
    with record():
        z = Tensor([0.0, 0.0], requires_grad=True)
        backward(l2_norm(z))
    assert z.grad.tolist() == [0.0, 0.0]
    # acos is flat in the guard band next to the endpoints
    with record():
        a = Tensor([1.0 - 1e-9, 0.5], requires_grad=True)
        backward(acos(a).sum())
    assert a.grad[0] == 0.0
    assert a.grad[1] == pytest.approx(-1.0 / math.sqrt(0.75), abs=1e-12)


def test_grad_div_both_sides():
    with record():
        a = Tensor([6.0], requires_grad=True)
        b = Tensor([3.0], requires_grad=True)
        backward(div(a, b).sum())
    assert a.grad[0] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert b.grad[0] == pytest.approx(-6.0 / 9.0, abs=1e-15)


def test_grad_overwrite():
    x = Tensor([3.0], requires_grad=True)
    with record():
        backward(square(x).sum())  # grad 6
    with record():
        backward((x * 4.0).sum())  # grad 4, overwrites
    assert x.grad.tolist() == [4.0]


def test_fan_out_grads_sum_within_one_tape():
    with record():
        x = Tensor([2.0], requires_grad=True)
        y = x * 3.0 + x * 5.0
        backward(y.sum())
    assert x.grad.tolist() == [8.0]


def _shared_bias(b: Tensor, rows: int) -> Tensor:
    # `b` added to each of `rows` zero rows: the bias Fold of `dense`
    k = b.shape[0]
    return dense(Tensor(np.zeros((k, 1))), Tensor(np.zeros((rows, 1))), b, "identity")


@pytest.mark.parametrize("k", [1, 2, 5])
def test_fold_adds_onto_the_running_gradient_row_by_row(k):
    # a bias shared by 40 rows takes them last to first, onto what the later
    # product with h gave it first; magnitudes 1e-8..1e8 make any regrouping show
    gen = np.random.default_rng(k)
    G = gen.normal(size=(40, k)) * 10.0 ** gen.integers(-8, 9, size=(40, k))
    h = gen.normal(size=k)
    with record():
        b = Tensor(np.zeros(k), requires_grad=True)
        backward((_shared_bias(b, 40) * Tensor(G)).sum() + (b * Tensor(h)).sum())
    acc = h
    for row in G[::-1]:
        acc = acc + row
    assert b.grad.tobytes() == acc.tobytes()


def _outer_products_by_loop(G, X):
    # the per-row weight gradients of a dense layer, added last row first,
    # from the first of them: an entry whose parts are all -0.0 is -0.0
    acc = np.outer(G[-1], X[-1])
    for g, x in zip(G[-2::-1], X[-2::-1]):
        acc = acc + np.outer(g, x)
    return acc


def _weight_grad(G, X):
    # the weight gradient of a (m, n) dense layer whose output gradient is G
    m, n = G.shape[1], X.shape[1]
    with record():
        W = Tensor(np.zeros((m, n)), requires_grad=True)
        out = dense(W, Tensor(X), Tensor(np.zeros(m)), "identity")
        backward((out * Tensor(G)).sum())
    return W.grad


@pytest.mark.parametrize("B", [2, 3, 8, 32, 33, 129])
@pytest.mark.parametrize(
    "m, n", [(m, n) for m in (1, 2, 7, 64) for n in (1, 2, 7, 64) if m * n > 1]
)
def test_factor_fold_adds_rows_last_first(B, m, n):
    # the einsum sum must give the bytes of the per-row loop, magnitudes
    # 1e-8..1e8 and a row of zero gradients (-0.0 and +0.0 parts) included
    gen = np.random.default_rng(B * 10_000 + m * 100 + n)
    for spread in (0, 8):
        G = gen.normal(size=(B, m)) * 10.0 ** gen.integers(-spread, spread + 1, size=(B, m))
        X = gen.normal(size=(B, n)) * 10.0 ** gen.integers(-spread, spread + 1, size=(B, n))
        G[:, 0] = -0.0
        assert _weight_grad(G, X).tobytes() == _outer_products_by_loop(G, X).tobytes()


@pytest.mark.parametrize("B", [2, 3, 8, 32, 33, 129])
def test_factor_fold_of_one_element_parts_adds_them_in_a_loop(B):
    # einsum would reduce a (1, 1) weight's parts inside its inner loop
    gen = np.random.default_rng(B)
    G = gen.normal(size=(B, 1))
    X = gen.normal(size=(B, 1)) * 10.0 ** gen.integers(-8, 9, size=(B, 1))
    acc = G[-1, 0] * X[-1, 0]
    for g, x in zip(G[-2::-1, 0], X[-2::-1, 0]):
        acc = acc + g * x
    assert _weight_grad(G, X).tobytes() == np.array([[acc]]).tobytes()


def _unfused_dense(w, x, b, activation):
    # the 1-D chain that `dense` fuses, from the oracle's ops
    h = matvec(w, x) + b
    return {"tanh": tanh, "relu": relu, "identity": lambda t: t}[activation](h)


@pytest.mark.parametrize("activation", ["tanh", "relu", "identity"])
@pytest.mark.parametrize("rows", [None, 1, 9])
@pytest.mark.parametrize("frozen", [False, True])
def test_dense_gives_the_bits_of_matvec_bias_activation(activation, rows, frozen):
    # two layers, so the first takes its output gradient from the second;
    # frozen parameters pass gradients to the input only.  The unfused chain
    # is 1-D, so on rows it runs once per row
    gen = np.random.default_rng(7)
    X = gen.normal(size=(5,) if rows is None else (rows, 5))
    params = [gen.normal(size=s) for s in ((4, 5), (4,), (3, 4), (3,))]
    weights = gen.normal(size=(3,) if rows is None else (rows, 3))

    def run(fused):
        x = Tensor(X, requires_grad=True)
        leaves = [Tensor(p, requires_grad=not frozen) for p in params]
        w1, b1, w2, b2 = leaves

        def two_layers(layer, h):
            return layer(w2, layer(w1, h, b1, activation), b2, activation)

        with record():
            if fused:
                outs = [two_layers(dense, x)]
                loss = (outs[0] * Tensor(weights)).sum(axis=-1)
                loss = loss if rows is None else loss.mean()
            elif rows is None:
                outs = [two_layers(_unfused_dense, x)]
                loss = (outs[0] * Tensor(weights)).sum()
            else:
                outs = [two_layers(_unfused_dense, take(x, r)) for r in range(rows)]
                loss = mean_scalars([(o * Tensor(w)).sum() for o, w in zip(outs, weights)])
            backward(loss)
        grads = [t.grad for t in (x, *leaves) if t.requires_grad]
        return [b"".join(o.data.tobytes() for o in outs), loss.data.tobytes()] + [
            g.tobytes() for g in grads
        ]

    assert run(fused=True) == run(fused=False)


@pytest.mark.parametrize("activation", ["tanh", "relu", "identity"])
@pytest.mark.parametrize("B", [3, 32])
def test_a_weight_in_two_dense_ops_adds_onto_its_running_gradient(activation, B):
    # the second op's factor Fold meets the first's sum: the slot path
    gen = np.random.default_rng(B)
    X1, X2 = gen.normal(size=(B, 6)), gen.normal(size=(B + 1, 6))
    W0, b0 = gen.normal(size=(5, 6)), gen.normal(size=5)

    def run(fused):
        W, b = Tensor(W0, requires_grad=True), Tensor(b0, requires_grad=True)

        def total(X):
            # per row, the sum of its outputs; then the mean of the rows
            if fused:
                return dense(W, Tensor(X), b, activation).sum(axis=-1).mean()
            return mean_scalars([_unfused_dense(W, Tensor(x), b, activation).sum() for x in X])

        with record():
            out = total(X1) * 0.5
            backward(out + total(X2))
        return W.grad.tobytes(), b.grad.tobytes()

    assert run(fused=True) == run(fused=False)


def test_dense_shape_and_activation_errors():
    w, b = Tensor(np.ones((2, 3))), Tensor(np.ones(2))
    with pytest.raises(ShapeError, match=r"dense: shapes \(2, 3\), \(4,\) and \(2,\)"):
        dense(w, Tensor(np.ones(4)), b, "tanh")
    with pytest.raises(ShapeError, match=r"dense: shapes \(2, 3\), \(3,\) and \(3,\)"):
        dense(w, Tensor(np.ones(3)), Tensor(np.ones(3)), "tanh")
    with pytest.raises(ValueError, match="dense: unknown activation 'gelu'"):
        dense(w, Tensor(np.ones(3)), b, "gelu")


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
        assert b._tape() is inner  # a weak reference
        backward((a * 1.0).sum())
    assert x.grad.tolist() == [2.0]


def test_a_graph_dies_with_its_block():
    # outputs hold their tape weakly, so no cycle keeps a finished graph
    gc.disable()
    try:
        with record() as tape:
            x = Tensor([1.0, 2.0], requires_grad=True)
            out = (x * 3.0).sum()
            assert len(tape) == 2
        gone = weakref.ref(tape)
        del tape
        assert gone() is None
        with pytest.raises(TapeError, match="tape is gone"):
            backward(out)
    finally:
        gc.enable()


# -- the shape contract ---------------------------------------------------------

_ROW, _ROWS, _COLUMN = (3,), (4, 3), (4, 1)
# operand shapes of the binary ops: equal shapes, or a scalar against any shape
_BINARY_SHAPES = [
    ((), ()),
    ((), _ROW),
    (_ROW, ()),
    (_ROW, _ROW),
    (_ROWS, _ROWS),
    (_ROWS, ()),
    ((), _ROWS),
    (_COLUMN, _COLUMN),
]
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _shape_cases():
    """(id, op, input shapes, output shape) for every op on 1-D and 2-D
    inputs, and for the oracle's 1-D ops."""
    for sym, op in _BINARY.items():
        for sa, sb in _BINARY_SHAPES:
            yield f"{sa}{sym}{sb}", op, (sa, sb), np.broadcast_shapes(sa, sb)
        for s in ((), _ROW, _ROWS):
            yield f"{s}{sym}number", lambda t, op=op: op(t, 2.0), (s,), s
            yield f"number{sym}{s}", lambda t, op=op: op(2.0, t), (s,), s
    for act in ("tanh", "relu", "identity"):
        yield f"dense-{act}", partial(dense, activation=act), ((2, 3), _ROW, (2,)), (2,)
        yield f"dense-{act}-rows", partial(dense, activation=act), ((2, 3), _ROWS, (2,)), (4, 2)
    for s, per_row, mean in ((_ROW, (), ()), (_ROWS, _COLUMN, _ROW)):
        yield f"sum{s}", Tensor.sum, (s,), ()
        yield f"sum-rows{s}", lambda t: t.sum(axis=-1), (s,), per_row
        yield f"mean{s}", Tensor.mean, (s,), mean
        yield f"l2_norm{s}", l2_norm, (s,), per_row
    yield "take", lambda t: take(t, [2, 0, 2]), (_ROW,), (3,)
    yield "take-rows", lambda t: take(t, [3, 1]), (_ROWS,), (2, 3)
    for name, op in (("relu", relu), ("square", square), ("__neg__", Tensor.__neg__)):
        for s in ((), _ROW, _ROWS):
            yield f"{name}{s}", op, (s,), s
    yield "pair_distances", pair_distances, (_ROWS,), (6,)
    yield "oracle-matvec", matvec, ((2, 3), _ROW), (2,)
    yield "oracle-dot", dot, (_ROW, _ROW), ()
    for sa, sb in (((), ()), (_ROW, _ROW), (_ROW, ()), ((), _ROW)):
        yield f"oracle-div{sa}{sb}", div, (sa, sb), np.broadcast_shapes(sa, sb)
    for op in (tanh, acos):
        for s in ((), _ROW):
            yield f"oracle-{op.__name__}{s}", op, (s,), s


@pytest.mark.parametrize("shape", [_ROW, _COLUMN, (2, 3)], ids=["row", "column", "other"])
def test_binary_ops_take_no_other_broadcast(shape):
    # a row shared by all rows is `dense`'s bias, not a broadcast
    rows, other = Tensor(np.ones(_ROWS)), Tensor(np.ones(shape))
    for sym, op in _BINARY.items():
        for a, b in ((rows, other), (other, rows)):
            with pytest.raises(ShapeError) as caught:
                op(a, b)
            assert str(caught.value) == (
                f"{op.__name__}: shapes {a.shape} and {b.shape} are incompatible "
                "(equal shapes or a scalar)"
            )


@pytest.mark.parametrize(
    "op, shapes, out_shape", [pytest.param(*case[1:], id=case[0]) for case in _shape_cases()]
)
def test_data_and_gradients_keep_their_shapes(op, shapes, out_shape):
    gen = np.random.default_rng(5)
    with record():
        # in (0.1, 0.9): nonzero divisors and norms, inside acos's domain
        leaves = [Tensor(gen.uniform(0.1, 0.9, size=s), requires_grad=True) for s in shapes]
        out = op(*leaves)
        assert type(out.data) is np.ndarray
        assert out.data.shape == out.shape == out_shape
        backward(out.sum())
    for leaf in leaves:
        assert type(leaf.grad) is np.ndarray
        assert leaf.grad.shape == leaf.shape


# -- grad_check (tests/grad_oracle.py) --------------------------------------------


def test_grad_check_l2_norm_random():
    gen = np.random.default_rng(3)
    x = Tensor(gen.normal(size=8) + 3.0)  # keep away from the zero-vector kink
    assert grad_check(l2_norm, x) < 1e-4


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
            y = acos(div((tanh(x) * 2.0 - square(x)).sum(), 3.0))
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
    assert np.array_equal(square(t).data, (t * t).data)


@given(vectors)
def test_relu_idempotent_and_nonnegative(vals):
    once = relu(Tensor(vals))
    assert (once.numpy() >= 0.0).all()
    assert np.array_equal(relu(once).data, once.data)


@given(vectors)
def test_l2_norm_nonnegative(vals):
    assert l2_norm(Tensor(vals)).item() >= 0.0


def test_public_constructor_copies_input():
    arr = np.array([1.0, 2.0])
    t = Tensor(arr)
    arr[0] = 99.0
    assert t.numpy().tolist() == [1.0, 2.0]


def test_tape_is_reusable_container():
    with record() as tape:
        x = Tensor([2.0], requires_grad=True)
        backward((x * x).sum())
    assert len(tape) > 0
    assert x.grad.tolist() == [4.0]
