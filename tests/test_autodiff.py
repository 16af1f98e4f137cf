"""Tensor op semantics and gradient correctness for the autodiff core."""

import inspect
import warnings

import numpy as np
import pytest

from admatch import autodiff as ad
from admatch.autodiff import (
    DeterminismError,
    ParamStore,
    ShapeError,
    Tape,
    Tensor,
    grad_check,
)


def matmul_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Triple-loop matrix product, independent of numpy's matmul."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


class TestMatmul:
    def test_identity(self):
        m = np.array([[2.0, 3.0], [5.0, 7.0]])
        out = ad.matmul(Tensor(np.eye(2)), Tensor(m))
        np.testing.assert_array_equal(out.data, m)

    def test_small_product(self):
        out = ad.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.data, [[11.0]])

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 5))
        b = rng.normal(size=(5, 3))
        out = ad.matmul(Tensor(a), Tensor(b))
        np.testing.assert_allclose(out.data, matmul_oracle(a, b), atol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


class TestActivations:
    def test_sigmoid_zero(self):
        assert ad.sigmoid(Tensor(0.0)).item() == 0.5

    def test_sigmoid_six(self):
        # 1 / (1 + e^-6), evaluated directly
        assert ad.sigmoid(Tensor(6.0)).item() == pytest.approx(
            0.9975273768433653, abs=1e-12
        )

    def test_sigmoid_no_overflow(self):
        out = ad.sigmoid(Tensor([-1000.0, 1000.0]))
        assert np.isfinite(out.data).all()

    def test_sigmoid_equals_two_branch_formula_bit_for_bit(self):
        grid = np.array(
            [0.0, -0.0, 1e3, -1e3, 1e-300, -1e-300, 1.0, -1.0, 36.7, -36.7, 745.2,
             -745.2]
        )
        grid = np.concatenate([grid, np.linspace(-50.0, 50.0, 1001)])
        pos = grid >= 0
        expected = np.empty_like(grid)
        with np.errstate(over="ignore"):
            expected[pos] = 1.0 / (1.0 + np.exp(-grid[pos]))
            e = np.exp(grid[~pos])
            expected[~pos] = e / (1.0 + e)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                got = ad.sigmoid(Tensor(grid)).data
        assert got.tobytes() == expected.tobytes()

    def test_relu(self):
        out = ad.relu(Tensor([-1.0, 0.0, 2.5]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.5])

    def test_tanh(self):
        np.testing.assert_allclose(
            ad.tanh(Tensor([0.0, 1.0])).data, [0.0, np.tanh(1.0)], atol=1e-15
        )

    def test_softmax_constant_rows(self):
        out = ad.softmax(Tensor([[3.0, 3.0, 3.0]]))
        np.testing.assert_allclose(out.data, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        x = rng.normal(scale=5.0, size=(20, 9))
        out = ad.softmax(Tensor(x))
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-12)
        assert (out.data >= 0).all()

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(5, 6))
        base = ad.softmax(Tensor(x)).data
        shifted = ad.softmax(Tensor(x + 123.456)).data
        np.testing.assert_allclose(shifted, base, atol=1e-9)

    def test_softmax_extreme_logits_finite(self):
        out = ad.softmax(Tensor([[1e3, -1e3, 0.0]]))
        assert np.isfinite(out.data).all()


def cosine(u, v) -> float:
    """``cosine_rows`` on one-row inputs."""
    return ad.cosine_rows(Tensor([u]), Tensor([v])).item()


class TestCosine:
    def test_self_cosine_is_one(self):
        v = [1.0, 2.0, -3.0]
        assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_45_degrees(self):
        got = cosine([1.0, 1.0], [1.0, 0.0])
        assert got == pytest.approx(0.7071067811865476, abs=1e-9)

    def test_scale_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            u = rng.normal(size=6)
            v = rng.normal(size=6)
            a, b = rng.uniform(0.01, 100.0, size=2)
            base = cosine(u, v)
            scaled = cosine(a * u, b * v)
            assert scaled == pytest.approx(base, abs=1e-9)

    def test_zero_vector_scores_zero_and_passes_no_gradient(self):
        for u, v in (([0.0, 0.0], [1.0, 0.0]), ([1.0, 0.0], [0.0, 0.0])):
            tu, tv = Tensor([u], requires_grad=True), Tensor([v], requires_grad=True)
            with Tape() as tape:
                c = ad.cosine_rows(tu, tv)
                tape.backward(ad.sum_all(c))
            assert c.data[0] == 0.0
            np.testing.assert_array_equal(tu.grad, 0.0)
            np.testing.assert_array_equal(tv.grad, 0.0)

    def test_zero_row_leaves_other_rows_bit_identical(self):
        rng = np.random.default_rng(13)
        u, v = rng.normal(size=(5, 4)), rng.normal(size=(5, 4))
        g = rng.normal(size=5)
        u[2] = 0.0  # row 2: a zero query vector

        def run(rows):
            tu = Tensor(u[rows], requires_grad=True)
            tv = Tensor(v[rows], requires_grad=True)
            with Tape() as tape:
                c = ad.cosine_rows(tu, tv)
                tape.backward(ad.sum_all(ad.mul(c, g[rows])))
            return c.data, tu.grad, tv.grad

        c, gu, gv = run(np.arange(5))
        assert c[2] == 0.0
        np.testing.assert_array_equal(gu[2], 0.0)
        np.testing.assert_array_equal(gv[2], 0.0)
        live = [0, 1, 3, 4]
        for got, want in zip((c, gu, gv), run(np.array(live))):
            np.testing.assert_array_equal(got[live], want)

    def test_range(self):
        rng = np.random.default_rng(12)
        u = Tensor(rng.normal(size=(40, 5)))
        v = Tensor(rng.normal(size=(40, 5)))
        c = ad.cosine_rows(u, v).data
        assert (c >= -1.0 - 1e-12).all() and (c <= 1.0 + 1e-12).all()


class TestBackwardBasics:
    def test_sum_of_squares_gradient(self):
        store = ParamStore()
        store.add("x", [1.0, 2.0, 3.0])

        def f(s):
            x = s["x"]
            return ad.sum_all(ad.mul(x, x))

        err = grad_check(f, store, epsilon=1e-5)
        assert err < 1e-8
        store.zero_grads()
        with Tape() as tape:
            tape.backward(f(store))
        np.testing.assert_allclose(store["x"].grad, [2.0, 4.0, 6.0], atol=1e-12)

    def test_constant_function_zero_error(self):
        store = ParamStore()
        store.add("x", [1.0, -2.0])

        def f(s):
            return Tensor(4.0, requires_grad=True) * 1.0

        assert grad_check(f, store) == 0.0

    def test_nondeterministic_f_detected(self):
        store = ParamStore()
        store.add("x", [1.0])
        calls = []

        def f(s):
            calls.append(1)
            return ad.sum_all(s["x"]) * float(len(calls))

        with pytest.raises(DeterminismError):
            grad_check(f, store)

    def test_epsilon_out_of_range(self):
        store = ParamStore()
        store.add("x", [1.0])
        with pytest.raises(ValueError):
            grad_check(lambda s: ad.sum_all(s["x"]), store, epsilon=1e-2)

    def test_tape_spent_after_backward(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = ad.sum_all(x)
            tape.backward(y)
            with pytest.raises(RuntimeError):
                tape.backward(y)

    def test_backward_needs_scalar_root(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = ad.mul(x, x)
            with pytest.raises(ShapeError):
                tape.backward(y)

    def test_no_tape_means_no_grads(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = ad.sum_all(ad.mul(x, x))
        assert y.item() == 5.0
        assert x.grad is None


def _add_then_reuse_operands(s):
    # both operands of the add get more gradient after the add's backward
    # has run (from p, recorded earlier), so neither may share the other's
    # gradient buffer
    u, v = ad.tanh(s["a"]), ad.tanh(s["a2"])
    p = ad.mul(u, v)
    summed = ad.mul(ad.add(u, v), np.linspace(-1.0, 1.0, 12).reshape(3, 4))
    return ad.add(ad.sum_all(summed), ad.sum_all(p))


def _op_cases():
    rng = np.random.default_rng(42)

    def case(name, builder):
        return pytest.param(builder, id=name)

    yield case("matmul", lambda s: ad.sum_all(ad.matmul(s["a"], s["b"])))
    yield case("add_broadcast", lambda s: ad.sum_all(ad.tanh(ad.add(s["a"], s["row"]))))
    yield case("add_reused_operands", _add_then_reuse_operands)
    yield case("sub", lambda s: ad.sum_all(ad.sigmoid(ad.sub(s["a"], s["a2"]))))
    yield case("mul_broadcast", lambda s: ad.sum_all(ad.mul(s["a"], s["col"])))
    yield case("neg", lambda s: ad.sum_all(ad.neg(ad.tanh(s["a"]))))
    yield case("sigmoid", lambda s: ad.sum_all(ad.sigmoid(s["a"])))
    yield case("tanh", lambda s: ad.sum_all(ad.tanh(s["a"])))
    yield case("relu", lambda s: ad.sum_all(ad.relu(s["a"])))
    yield case("softmax", lambda s: ad.sum_all(ad.mul(ad.softmax(s["a"]), s["a2"])))
    yield case(
        "softmax_axis",
        lambda s: ad.sum_all(ad.mul(ad.softmax(s["a"], axis=0), s["a2"])),
    )
    yield case("sum_axis", lambda s: ad.sum_all(ad.tanh(ad.sum_axis(s["a"], 0))))
    yield case("log", lambda s: ad.sum_all(ad.log(ad.add(ad.sigmoid(s["a"]), 0.5))))
    yield case("clip", lambda s: ad.sum_all(ad.clip(s["a"], -0.4, 0.4)))
    yield case("mean_all", lambda s: ad.mean_all(ad.mul(s["a"], s["a"])))
    yield case(
        "concat_take",
        lambda s: ad.sum_all(
            ad.mul(
                ad.take(ad.concat([s["a"], s["a2"]], axis=1), 2, 6, axis=1),
                np.full((3, 4), 1.5),
            )
        ),
    )
    yield case(
        "take_rows",
        lambda s: ad.sum_all(ad.tanh(ad.take(ad.mul(s["a"], s["a2"]), 1, 3, axis=0))),
    )
    yield case(
        "concat_rows",
        lambda s: ad.sum_all(
            ad.mul(
                ad.tanh(
                    ad.concat([s["a"], ad.reshape(s["row"], (1, 4)), s["a2"]], axis=0)
                ),
                np.linspace(-1.0, 1.0, 28).reshape(7, 4),
            )
        ),
    )
    yield case("reshape", lambda s: ad.sum_all(ad.reshape(ad.tanh(s["a"]), (1, -1))))
    yield case(
        "gather_rows",
        lambda s: ad.sum_all(ad.tanh(ad.gather_rows(s["table"], [0, 2, 2, 1]))),
    )
    yield case(
        "segment_sum",
        lambda s: ad.sum_all(
            ad.tanh(ad.segment_sum(s["table"], [[3, 1, 0], [0, 0, 0], [2, 2, 1]]))
        ),
    )
    yield case(
        "cosine_rows",
        lambda s: ad.sum_all(ad.cosine_rows(s["a"], s["a2"])),
    )


@pytest.mark.parametrize("builder", list(_op_cases()))
def test_every_op_passes_grad_check(builder):
    rng = np.random.default_rng(1234)
    store = ParamStore()
    store.add("a", rng.normal(scale=0.7, size=(3, 4)))
    store.add("a2", rng.normal(scale=0.7, size=(3, 4)))
    store.add("b", rng.normal(scale=0.7, size=(4, 2)))
    store.add("row", rng.normal(scale=0.7, size=4))
    store.add("col", rng.normal(scale=0.7, size=(3, 1)))
    store.add("table", rng.normal(scale=0.7, size=(4, 3)))
    assert grad_check(builder, store, epsilon=1e-5) < 1e-4


# every op, as a function of its tensor inputs, and those inputs' shapes
PROTOCOL_CASES = {
    "add": (ad.add, [(2, 3), (3,)]),
    "sub": (ad.sub, [(2, 3), (2, 3)]),
    "neg": (ad.neg, [(2, 3)]),
    "mul": (ad.mul, [(2, 3), (2, 1)]),
    "matmul": (ad.matmul, [(2, 3), (3, 4)]),
    "sigmoid": (ad.sigmoid, [(2, 3)]),
    "tanh": (ad.tanh, [(2, 3)]),
    "relu": (ad.relu, [(2, 3)]),
    "softmax": (ad.softmax, [(2, 3)]),
    "log": (ad.log, [(2, 3)]),
    "clip": (lambda x: ad.clip(x, -0.5, 0.5), [(2, 3)]),
    "sum_all": (ad.sum_all, [(2, 3)]),
    "sum_axis": (lambda x: ad.sum_axis(x, 1), [(2, 3)]),
    "mean_all": (ad.mean_all, [(2, 3)]),
    "reshape": (lambda x: ad.reshape(x, (3, 2)), [(2, 3)]),
    "concat": (lambda *ts: ad.concat(ts, axis=1), [(2, 1), (2, 2), (2, 3)]),
    "take": (lambda x: ad.take(x, 1, 3, axis=1), [(2, 3)]),
    "gather_rows": (lambda t: ad.gather_rows(t, [0, 2, 2]), [(4, 3)]),
    "segment_sum": (lambda t: ad.segment_sum(t, [[1, 0], [2, 2]]), [(4, 3)]),
    "cosine_rows": (ad.cosine_rows, [(3, 4), (3, 4)]),
}


def test_protocol_cases_cover_every_op():
    ops = {
        name
        for name, fn in vars(ad).items()
        if inspect.isfunction(fn)
        and fn.__module__ == ad.__name__
        and not name.startswith("_")
        and fn.__annotations__.get("return") == "Tensor"
    }
    assert ops - {"as_tensor"} == set(PROTOCOL_CASES)


@pytest.mark.parametrize("name", sorted(PROTOCOL_CASES))
class TestTapeProtocol:
    """Each op records one tape entry exactly when an input needs a
    gradient, and only on an active tape."""

    def inputs(self, name, needs_grad):
        shapes = PROTOCOL_CASES[name][1]
        rng = np.random.default_rng(5)
        return [  # positive entries: inside every op's domain
            Tensor(rng.uniform(0.5, 1.5, size=shape), requires_grad=needs_grad(i))
            for i, shape in enumerate(shapes)
        ]

    def test_one_record_when_any_input_needs_a_gradient(self, name):
        op, shapes = PROTOCOL_CASES[name]
        for which in [None, *range(len(shapes))]:
            # every input, then each input alone
            ts = self.inputs(name, lambda i: which is None or i == which)
            with Tape() as tape:
                out = op(*ts)
            assert out.requires_grad
            assert len(tape) == 1, which

    def test_no_record_without_a_gradient_or_a_tape(self, name):
        op, _ = PROTOCOL_CASES[name]
        with Tape() as tape:
            out = op(*self.inputs(name, lambda i: False))
        assert not out.requires_grad
        assert len(tape) == 0
        with Tape() as closed:
            pass
        assert op(*self.inputs(name, lambda i: True)).requires_grad
        assert len(closed) == 0

    def test_unreached_output_passes_nothing_back(self, name):
        op, _ = PROTOCOL_CASES[name]
        ts = self.inputs(name, lambda i: True)
        with Tape() as tape:
            op(*ts)
            tape.backward(Tensor(0.0))
        assert all(t.grad is None for t in ts)


class TestParamStore:
    def test_grad_shape_matches_value(self):
        store = ParamStore()
        t = store.add("w", np.ones((3, 2)))
        assert t.grad is not None and t.grad.shape == (3, 2)

    def test_duplicate_name(self):
        store = ParamStore()
        store.add("w", [1.0])
        with pytest.raises(ValueError):
            store.add("w", [2.0])

    def test_frozen_rows_zeroed_on_add(self):
        store = ParamStore()
        t = store.add("emb", np.ones((4, 3)), frozen_rows=(0,))
        np.testing.assert_array_equal(t.data[0], [0.0, 0.0, 0.0])
        np.testing.assert_array_equal(t.data[1], [1.0, 1.0, 1.0])

    def test_load_arrays_in_place(self):
        store = ParamStore()
        t = store.add("w", np.zeros((2, 2)))
        store.load_arrays({"w": np.ones((2, 2))})
        assert store["w"] is t
        np.testing.assert_array_equal(t.data, np.ones((2, 2)))

    def test_load_arrays_rejects_mismatch(self):
        store = ParamStore()
        store.add("w", np.zeros(2))
        with pytest.raises(ValueError):
            store.load_arrays({"v": np.zeros(2)})


class TestGatherOps:
    def test_segment_sum_all_pad_row_is_zero_row(self):
        # the pad row holds non-zero values here: pad slots must not read it
        table = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        out = ad.segment_sum(table, [[0, 0], [1, 2]])
        np.testing.assert_array_equal(out.data[0], [0.0, 0.0, 0.0])
        np.testing.assert_array_equal(out.data[1], table.data[1] + table.data[2])
        assert ad.segment_sum(table, np.zeros((2, 0), dtype=int)).data.shape == (2, 3)

    def test_segment_sum_pad_slots_get_no_gradient(self):
        store = ParamStore()
        store.add("table", np.ones((4, 2)))
        store.zero_grads()
        with Tape() as tape:
            tape.backward(ad.sum_all(ad.segment_sum(store["table"], [[0, 3], [3, 0]])))
        np.testing.assert_array_equal(
            store["table"].grad, [[0, 0], [0, 0], [0, 0], [2, 2]]
        )

    def test_gather_rows_out_of_range(self):
        table = Tensor(np.zeros((3, 2)), requires_grad=True)
        with pytest.raises(IndexError):
            ad.gather_rows(table, [0, 3])
        with pytest.raises(IndexError):
            ad.segment_sum(table, [[-1]])

    def test_gather_backward_equals_row_scatter_bit_for_bit(self):
        rng = np.random.default_rng(5)
        table = Tensor(rng.normal(size=(50, 16)), requires_grad=True)
        table.grad = rng.normal(size=(50, 16))
        ids = rng.integers(0, 50, size=768)
        g = rng.normal(size=(768, 16))
        expected = table.grad.copy()
        np.add.at(expected, ids, g)
        with Tape() as tape:
            # d/d(rows) of sum(rows * g) is exactly g
            tape.backward(ad.sum_all(ad.mul(ad.gather_rows(table, ids), g)))
        assert table.grad.tobytes() == expected.tobytes()

    def test_repeated_ids_accumulate(self):
        store = ParamStore()
        store.add("table", np.ones((3, 2)))
        store.zero_grads()
        with Tape() as tape:
            out = ad.sum_all(ad.gather_rows(store["table"], [1, 1, 1]))
            tape.backward(out)
        np.testing.assert_array_equal(store["table"].grad[1], [3.0, 3.0])
        np.testing.assert_array_equal(store["table"].grad[0], [0.0, 0.0])
