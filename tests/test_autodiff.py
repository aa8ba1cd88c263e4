"""Reverse-mode tape: its mechanics, and the gradients of the small ops in
`composed_reference` (which wrap the package's elementwise formula pairs)
against central finite differences."""

import numpy as np
import pytest

from taskswitch import autodiff as ad
import composed_reference as cr
from gradcheck import fd_check
from lgs_reference import ste


def _fd_ok(objective, leaves, tol=1e-6, h=1e-6):
    report = fd_check(objective, leaves, h=h, tol=tol)
    assert report.frac_within_tol == 1.0, report.rel_err
    return report


RNG = np.random.default_rng(0)


class TestElementwiseOps:
    def test_add_sub_mul_div(self):
        a = RNG.normal(size=(3, 4))
        b = RNG.normal(size=(3, 4)) + 2.0

        def obj(lv):
            num = cr.mul(cr.add(lv["a"], 1.5), cr.sub(lv["b"], 0.25))
            return cr.sum_(cr.div(num, lv["b"]))

        _fd_ok(obj, {"a": a, "b": b})

    def test_unary_chain(self):
        x = RNG.uniform(0.5, 2.0, size=8)

        def obj(lv):
            t = cr.exp(cr.mul(cr.log(lv["x"]), 0.5))
            t = cr.add(t, cr.tanh(lv["x"]))
            t = cr.add(t, cr.arctan(lv["x"]))
            t = cr.add(t, cr.sqrt(lv["x"]))
            t = cr.add(t, cr.mul(cr.take(lv["x"], 3), lv["x"]))
            return cr.sum_(cr.square(t))

        _fd_ok(obj, {"x": x})

    def test_sigmoid_softplus(self):
        x = RNG.normal(size=10) * 3

        def obj(lv):
            return cr.sum_(cr.add(cr.sigmoid(lv["x"]),
                                  cr.softplus(lv["x"])))

        _fd_ok(obj, {"x": x})

    def test_powi(self):
        # square is the tape's only power: value v ** 2, gradient 2 v
        x = RNG.normal(size=6)
        np.testing.assert_array_equal(cr.square(x), x ** 2)
        tape = ad.Tape()
        v = tape.var(x)
        tape.backward(cr.sum_(cr.square(v)))
        np.testing.assert_array_equal(v.grad, 2 * x)

        def obj(lv):
            return cr.sum_(cr.square(lv["x"]))

        _fd_ok(obj, {"x": x})

    def test_abs_and_relu_away_from_kink(self):
        x = np.array([-2.0, -0.5, 0.5, 2.0])

        def obj(lv):
            return cr.sum_(cr.relu(lv["x"]))

        _fd_ok(obj, {"x": x})

    def test_maximum_floor(self):
        x = np.array([0.3, 2.0, -1.0, 5.0])

        def obj(lv):
            return cr.sum_(cr.square(cr.maximum(lv["x"], 1.0)))

        report = fd_check(obj, {"x": x}, h=1e-6, tol=1e-5)
        assert report.frac_within_tol == 1.0
        # Below the floor the gradient is exactly zero.
        assert report.analytic["x"][2] == 0.0

    def test_minimum_ceiling(self):
        x = np.array([0.3, 2.0, -1.0, 5.0])

        def obj(lv):
            return cr.sum_(cr.square(cr.minimum(lv["x"], 1.0)))

        report = fd_check(obj, {"x": x}, h=1e-6, tol=1e-5)
        assert report.frac_within_tol == 1.0
        # Above the ceiling the gradient is exactly zero; at it, it passes.
        np.testing.assert_array_equal(report.analytic["x"][[1, 3]], 0.0)
        _, grads = ad.value_and_grad(
            lambda lv: cr.sum_(cr.minimum(lv["x"], 1.0)),
            {"x": np.array([1.0, 1.5])})
        np.testing.assert_array_equal(grads["x"], [1.0, 0.0])


class TestMatrixOps:
    def test_matmul_chain(self):
        a = RNG.normal(size=(3, 4))
        b = RNG.normal(size=(4, 2))

        def obj(lv):
            prod = cr.matmul(lv["a"], lv["b"])
            return cr.sum_(cr.square(prod))

        _fd_ok(obj, {"a": a, "b": b})

    def test_transpose_reshape(self):
        a = RNG.normal(size=(2, 6))

        def obj(lv):
            t = cr.transpose(cr.reshape(lv["a"], (3, 4)))
            return cr.sum_(cr.mul(t, t))

        _fd_ok(obj, {"a": a})

    def test_softmax_log_softmax(self):
        x = RNG.normal(size=(4, 5)) * 2

        def obj(lv):
            s = ad.softmax(lv["x"])
            lsm = cr.log_softmax(lv["x"])
            return cr.sub(cr.sum_(cr.square(s)), cr.sum_(cr.mul(s, lsm)))

        _fd_ok(obj, {"x": x}, tol=1e-5)

    def test_log_softmax_stable_at_large_logits(self):
        x = np.array([[1000.0, 0.0, -1000.0]])
        out = ad.log_softmax_parts(x)[0]
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(np.exp(out).sum(), 1.0, rtol=1e-12)

    def test_sum_axis_keepdims(self):
        x = RNG.normal(size=(3, 4))

        def obj(lv):
            row = cr.sum_(lv["x"], axis=1, keepdims=True)
            return cr.sum_(cr.square(cr.sub(lv["x"], row)))

        _fd_ok(obj, {"x": x})

    def test_mean(self):
        x = RNG.normal(size=(5,))

        def obj(lv):
            return cr.square(cr.mean(lv["x"]))

        _fd_ok(obj, {"x": x})


class TestStackAndSegments:
    COUNTS = np.array([3, 1, 2])

    def test_repeat_1d(self):
        x = RNG.normal(size=3)
        w = RNG.normal(size=int(self.COUNTS.sum()))

        def obj(lv):
            r = cr.repeat(lv["x"], self.COUNTS)
            return cr.sum_(cr.mul(cr.square(r), w))

        np.testing.assert_array_equal(cr.repeat(x, self.COUNTS),
                                      np.repeat(x, self.COUNTS))
        _fd_ok(obj, {"x": x})

    def test_repeat_along_axis1(self):
        x = RNG.normal(size=(2, 3))
        counts = np.array([1, 4, 2])
        w = RNG.normal(size=(2, 7))

        def obj(lv):
            r = cr.repeat(lv["x"], counts)
            return cr.sum_(cr.mul(cr.square(r), w))

        np.testing.assert_array_equal(cr.repeat(x, counts),
                                      np.repeat(x, counts, axis=1))
        _fd_ok(obj, {"x": x})

    def test_segment_sum(self):
        x = RNG.normal(size=(2, 6))

        def obj(lv):
            s = cr.segment_sum(lv["x"], self.COUNTS)
            return cr.sum_(cr.mul(cr.square(s), np.array([1.0, -2.0, 0.5])))

        out = cr.segment_sum(x, self.COUNTS)
        np.testing.assert_allclose(
            out, np.stack([x[:, :3].sum(1), x[:, 3], x[:, 4:].sum(1)], 1),
            rtol=1e-15)
        _fd_ok(obj, {"x": x})
        _fd_ok(lambda lv: cr.sum_(cr.square(
            cr.segment_sum(lv["x"], self.COUNTS))), {"x": x[0]})

    def test_empty_segments_sum_to_zero(self):
        x = RNG.normal(size=5)
        counts = np.array([0, 2, 0, 3, 0])
        np.testing.assert_allclose(cr.segment_sum(x, counts),
                                   [0.0, x[:2].sum(), 0.0, x[2:].sum(), 0.0],
                                   rtol=1e-15)
        tape = ad.Tape()
        v = tape.var(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        tape.backward(cr.sum_(cr.mul(cr.repeat(v, counts), x)))
        np.testing.assert_allclose(v.grad, [0.0, x[:2].sum(), 0.0,
                                            x[2:].sum(), 0.0], rtol=1e-15)

    def test_segment_sum_is_adjoint_of_repeat(self):
        x = RNG.normal(size=(2, 3))
        y = RNG.normal(size=(2, 6))
        lhs = np.sum(cr.repeat(x, self.COUNTS) * y)
        rhs = np.sum(x * cr.segment_sum(y, self.COUNTS))
        assert lhs == pytest.approx(rhs, rel=1e-13)


class TestBroadcasting:
    def test_row_and_scalar_broadcast(self):
        a = RNG.normal(size=(3, 4))
        row = RNG.normal(size=(4,))

        def obj(lv):
            shifted = cr.add(lv["a"], lv["row"])
            return cr.sum_(cr.square(cr.mul(shifted, 2.0)))

        _fd_ok(obj, {"a": a, "row": row})

    def test_column_broadcast(self):
        a = RNG.normal(size=(3, 4))
        col = RNG.normal(size=(3, 1))

        def obj(lv):
            return cr.sum_(cr.square(cr.mul(lv["a"], lv["col"])))

        _fd_ok(obj, {"a": a, "col": col})


class TestSte:
    def test_forward_replaced_backward_masked(self):
        x = np.array([-1.0, 0.2, 0.8])
        forward = np.array([9.0, 9.0, 9.0])
        mask = np.array([False, True, True])
        tape = ad.Tape()
        xv = tape.var(x)
        out = ste(xv, forward, mask)
        np.testing.assert_array_equal(ad._np(out), forward)
        tape.backward(cr.sum_(cr.mul(out, np.array([1.0, 2.0, 3.0]))))
        np.testing.assert_array_equal(xv.grad, [0.0, 2.0, 3.0])

    def test_fd_check_exclusion_bookkeeping(self):
        # A straight-through op breaks the numeric/analytic match on
        # purpose; exclusions keep the pass fraction honest about it.
        x = np.array([0.5, 1.5])
        step = np.array([1.0, 1.0])

        def obj(lv):
            rounded = ste(lv["x"], np.round(ad._np(lv["x"])), step > 0)
            return cr.sum_(cr.square(rounded))

        report = fd_check(obj, {"x": x}, h=1e-6, tol=1e-6,
                             exclude={"x": np.array([True, True])})
        assert report.frac_within_tol == 1.0
        np.testing.assert_array_equal(report.excluded["x"], [True, True])


class TestTapeMechanics:
    def test_backward_requires_scalar(self):
        tape = ad.Tape()
        x = tape.var(np.ones(3))
        with pytest.raises(ValueError):
            tape.backward(cr.mul(x, 2.0))

    def test_backward_requires_same_tape(self):
        t1, t2 = ad.Tape(), ad.Tape()
        x = t1.var(np.ones(1))
        y = cr.sum_(x)
        with pytest.raises(ValueError):
            t2.backward(y)

    def test_unused_leaf_keeps_none_gradient(self):
        tape = ad.Tape()
        x = tape.var(np.ones(2))
        y = tape.var(np.ones(2))
        tape.backward(cr.sum_(x))
        assert x.grad is not None
        assert y.grad is None

    def test_gradient_accumulates_over_reuse(self):
        tape = ad.Tape()
        x = tape.var(np.array([3.0]))
        out = cr.add(cr.mul(x, x), cr.mul(x, 2.0))  # x^2 + 2x
        tape.backward(cr.sum_(out))
        np.testing.assert_allclose(x.grad, [8.0])

    def test_mixed_plain_and_var_operands(self):
        tape = ad.Tape()
        x = tape.var(np.array([1.0, 2.0]))
        out = cr.sum_(cr.mul(np.array([4.0, 5.0]), x))
        tape.backward(out)
        np.testing.assert_allclose(x.grad, [4.0, 5.0])


class TestValueAndGrad:
    @staticmethod
    def _obj(lv):
        return cr.sum_(cr.square(cr.matmul(lv["w"], lv["x"])))

    def test_gradients_equal_a_hand_driven_tape(self):
        rng = np.random.default_rng(7)
        leaves = {"w": rng.normal(size=(3, 4)), "x": rng.normal(size=(4, 2))}
        tape = ad.Tape()
        lvars = {k: tape.var(v) for k, v in leaves.items()}
        out = self._obj(lvars)
        tape.backward(out)
        value, grads = ad.value_and_grad(self._obj, leaves)
        assert ad._np(value).tobytes() == out.value.tobytes()
        for k in leaves:
            assert grads[k].tobytes() == lvars[k].grad.tobytes()

    def test_unreached_leaf_gets_zeros(self):
        _, grads = ad.value_and_grad(lambda lv: cr.sum_(lv["x"]),
                                     {"x": np.ones(2), "y": np.ones((2, 3))})
        np.testing.assert_array_equal(grads["x"], [1.0, 1.0])
        np.testing.assert_array_equal(grads["y"], np.zeros((2, 3)))

    def test_scalar_and_extra_pair_passed_through(self):
        extra = {"note": 1}

        def obj(lv):
            return cr.sum_(cr.mul(lv["x"], 3.0)), extra

        (value, got), grads = ad.value_and_grad(obj, {"x": np.ones(2)})
        assert float(ad._np(value)) == 6.0
        assert got is extra
        np.testing.assert_array_equal(grads["x"], [3.0, 3.0])
