"""Parameter sets, task vectors, signed statistics, nearest-rank quantiles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskswitch import (
    CodecError,
    ParamSet,
    StructureError,
    TaskVector,
    add,
    diff,
    sign_quantile,
    signed_bounds,
)
from taskswitch.codec import CorruptStreamError
from taskswitch.training import TrainingDivergedError
from taskswitch.vectors import refused_at


def _ps(*mods):
    return ParamSet([(n, np.asarray(v, dtype=float)) for n, v in mods])


class TestStructures:
    def test_modules_are_flattened_float64(self):
        ps = ParamSet([("w", np.arange(6, dtype=np.int32).reshape(2, 3))])
        v = ps.get("w")
        assert v.dtype == np.float64 and v.shape == (6,)

    def test_total_size_and_names(self):
        ps = _ps(("a", [1.0, 2.0]), ("b", [3.0]))
        assert ps.names == ["a", "b"]
        assert ps.total_size() == 3

    def test_copy_is_deep(self):
        ps = _ps(("a", [1.0, 2.0]))
        cp = ps.copy()
        cp.get("a")[0] = 99.0
        assert ps.get("a")[0] == 1.0

    def test_get_unknown_module_raises(self):
        with pytest.raises(KeyError):
            _ps(("a", [1.0])).get("b")


class TestDiffAdd:
    def test_diff_then_add_restores_finetuned(self):
        base = _ps(("a", [1.0, -2.0]), ("b", [0.5]))
        ft = _ps(("a", [1.5, -2.5]), ("b", [0.0]))
        tv = diff(ft, base, "t0")
        assert tv.task_id == "t0"
        back = add(base, tv)
        for (_, vb), (_, vf) in zip(back.modules, ft.modules):
            np.testing.assert_array_equal(vb, vf)

    def test_add_weight_scales_the_delta(self):
        base = _ps(("a", [0.0, 0.0]))
        tv = TaskVector("t", [("a", [2.0, -4.0])])
        out = add(base, tv, weight=0.25)
        np.testing.assert_allclose(out.get("a"), [0.5, -1.0])

    def test_name_mismatch_raises(self):
        base = _ps(("a", [1.0]))
        ft = _ps(("b", [1.0]))
        with pytest.raises(StructureError):
            diff(ft, base, "t")

    def test_size_mismatch_raises(self):
        base = _ps(("a", [1.0, 2.0]))
        tv = TaskVector("t", [("a", [1.0])])
        with pytest.raises(StructureError):
            add(base, tv)

    def test_module_count_mismatch_raises(self):
        base = _ps(("a", [1.0]), ("b", [1.0]))
        tv = TaskVector("t", [("a", [1.0])])
        with pytest.raises(StructureError):
            add(base, tv)


class TestSignedBounds:
    def test_two_sided_vector(self):
        b = signed_bounds(np.array([0.5, -0.25, 0.0, 2.0, -1.0]))
        assert (b.pos_min, b.pos_max) == (0.5, 2.0)
        assert (b.neg_min, b.neg_max) == (0.25, 1.0)
        assert b.has_pos and b.has_neg

    def test_one_sided_vector(self):
        b = signed_bounds(np.array([1.0, 2.0]))
        assert b.has_pos and not b.has_neg
        assert (b.neg_min, b.neg_max) == (0.0, 0.0)

    def test_all_zero_vector(self):
        b = signed_bounds(np.zeros(4))
        assert not b.has_pos and not b.has_neg


class TestSignQuantile:
    # Hand oracle for v = [0.1, -0.2, 0.3, -0.4, 0.5], alpha = 0.5:
    # positives {0.1, 0.3, 0.5}: m=3, k=floor(1.5)=1, threshold = 1st
    # smallest = 0.1; negatives {-0.2, -0.4}: m=2, k=1, threshold = 1st
    # largest (closest to zero) = -0.2.
    V = np.array([0.1, -0.2, 0.3, -0.4, 0.5])

    def test_hand_example(self):
        assert sign_quantile(self.V, 0.5, "+") == pytest.approx(0.1)
        assert sign_quantile(self.V, 0.5, "-") == pytest.approx(-0.2)

    def test_alpha_zero_prunes_nothing(self):
        assert sign_quantile(self.V, 0.0, "+") == 0.0
        assert sign_quantile(self.V, 0.0, "-") == 0.0

    def test_alpha_one_threshold_is_class_extreme(self):
        assert sign_quantile(self.V, 1.0, "+") == pytest.approx(0.5)
        assert sign_quantile(self.V, 1.0, "-") == pytest.approx(-0.4)

    def test_empty_class_returns_zero(self):
        assert sign_quantile(np.array([1.0, 2.0]), 0.9, "-") == 0.0

    def test_small_alpha_below_one_rank_returns_zero(self):
        # floor(alpha * m) == 0 means no element is pruned.
        assert sign_quantile(np.array([1.0, 2.0, 3.0]), 0.3, "+") == 0.0

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            sign_quantile(self.V, 1.5, "+")
        with pytest.raises(ValueError):
            sign_quantile(self.V, 0.5, "x")

    @given(st.integers(1, 40), st.floats(0.0, 1.0),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_retained_count_is_nearest_rank(self, m, alpha, seed):
        # With distinct magnitudes, exactly m - floor(alpha*m) positives
        # survive the strict comparison.
        rng = np.random.default_rng(seed)
        v = rng.permutation(np.linspace(0.1, 1.0, m))
        gamma = sign_quantile(v, alpha, "+")
        kept = int(np.sum(v > gamma))
        assert kept == m - math.floor(alpha * m)

    def test_ties_at_the_threshold_are_pruned(self):
        # Duplicates equal to the threshold fall with it.
        v = np.array([0.2, 0.2, 0.2, 0.7])
        gamma = sign_quantile(v, 0.3, "+")  # k = floor(1.2) = 1
        assert gamma == pytest.approx(0.2)
        assert int(np.sum(v > gamma)) == 1


def test_refused_at_names_where_and_keeps_the_refusal():
    assert refused_at("here", lambda a, b: a - b, 5, b=2) == 3
    for exc in (StructureError("modules differ"), CodecError("bad stream"),
                CorruptStreamError("bad record", 17)):
        message = str(exc)

        def refuse():
            raise exc
        with pytest.raises(type(exc)) as info:
            refused_at("m.tswp", refuse)
        assert info.value is exc and str(exc) == f"m.tswp: {message}"
        assert info.traceback[-1].name == "refuse"
    assert exc.bit_offset == 17
    # not a ValueError: no file or flag is to blame, so it passes as it is
    diverged = TrainingDivergedError(1, {"loss": math.nan}, "loss", "epoch")

    def diverge():
        raise diverged
    with pytest.raises(TrainingDivergedError) as info:
        refused_at("--index r.idx", diverge)
    assert str(info.value) == \
        "loss became non-finite at epoch 1: {'loss': nan}"
