import logging
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hybrel.benchmarks import get_case
from hybrel.errors import (
    DegenerateGradientError,
    InvalidParameterError,
    UndefinedAngleError,
)
from hybrel.model import HybridProblem, RandomVariable, UncertainVariable, standardize
from hybrel.polar import ReducedLSF, polar_features, reduce_to_polar
from hybrel.solver import DesignPoint, find_design_point


def _std_linear(m, n, coeffs=None, constant=1.0):
    total = m + n
    coeffs = np.full(total, -1.0 / total) if coeffs is None else np.asarray(coeffs)

    def lsf(x, y):
        w = np.concatenate([np.asarray(x, float), np.asarray(y, float)])
        return constant + float(coeffs @ w)

    problem = HybridProblem(
        lsf=lsf,
        randoms=tuple(RandomVariable(f"u{i}", 0.0, 1.0) for i in range(m)),
        uncertains=tuple(UncertainVariable(f"y{j}", -1.0, 1.0) for j in range(n)),
    )
    return standardize(problem)


def _design_point(u, delta):
    u = np.asarray(u, float)
    delta = np.asarray(delta, float)
    return DesignPoint(
        u_star=u,
        delta_star=delta,
        beta=float(np.linalg.norm(np.concatenate([u, delta]))),
        iterations=1,
        converged=True,
    )


class TestPolarFeatures:
    def test_collinear(self):
        direction = np.array([1.0, 0.0, 0.0])
        feats = polar_features(2 * direction, direction, 2, 1)
        assert feats.cosine == pytest.approx(1.0, abs=1e-15)
        assert feats.radius == pytest.approx(2.0, abs=1e-15)

    def test_orthogonal(self):
        direction = np.array([1.0, 0.0])
        feats = polar_features(np.array([0.0, 3.0]), direction, 1, 1)
        assert feats.cosine == pytest.approx(0.0, abs=1e-15)

    def test_hand_computed_example(self):
        feats = polar_features(
            np.array([3.0, 4.0, 0.0]), np.array([1.0, 0.0, 0.0]), 2, 1
        )
        assert feats.radius == pytest.approx(5.0, abs=1e-12)
        assert feats.cosine == pytest.approx(0.6, abs=1e-12)
        assert feats.random_sq == pytest.approx(25.0, abs=1e-12)
        assert feats.uncertain_sq == pytest.approx(0.0, abs=1e-12)

    def test_origin_rejected(self):
        with pytest.raises(UndefinedAngleError):
            polar_features(np.zeros(3), np.array([1.0, 0.0, 0.0]), 2, 1)

    def test_non_unit_direction_rejected(self):
        with pytest.raises(InvalidParameterError):
            polar_features(np.ones(2), np.array([1.0, 1.0]), 1, 1)

    @given(
        arrays(np.float64, 5, elements=st.floats(-10, 10)).filter(
            lambda w: np.linalg.norm(w) > 1e-6
        )
    )
    def test_radius_splits_into_parts(self, omega):
        direction = np.zeros(5)
        direction[0] = 1.0
        feats = polar_features(omega, direction, 3, 2)
        assert feats.radius ** 2 == pytest.approx(
            feats.random_sq + feats.uncertain_sq, rel=1e-12, abs=1e-12
        )
        assert -1.0 <= feats.cosine <= 1.0
        assert 0.0 <= feats.uncertain_sq <= 2.0 * (10.0 ** 2)


class TestReduce:
    def test_single_variable_linear(self):
        std = _std_linear(1, 0, coeffs=[-1.0], constant=3.0)
        reduced = reduce_to_polar(std, _design_point([3.0], []))
        assert reduced.grad_norm == pytest.approx(1.0, rel=1e-6)
        assert reduced.offset == pytest.approx(3.0, rel=1e-9)

    def test_ten_variable_linear_hand_value(self):
        std = _std_linear(5, 5)
        point = _design_point(np.ones(5), np.ones(5))
        reduced = reduce_to_polar(std, point)
        assert reduced.grad_norm == pytest.approx(1 / math.sqrt(10), rel=1e-7)
        assert reduced.offset == pytest.approx(math.sqrt(10), abs=1e-9)

    def test_linear_exactness_at_random_points(self, caplog):
        std = _std_linear(3, 2, coeffs=[0.5, -1.0, 0.25, 2.0, -0.75],
                          constant=0.8)
        point = _design_point([0.1, 0.2, -0.3], [0.4, -0.5])
        with caplog.at_level(logging.WARNING, logger="hybrel.polar"):
            reduced = reduce_to_polar(std, point)  # arbitrary point, warns
        assert [r.levelno for r in caplog.records] == [logging.WARNING]
        rng = np.random.default_rng(3)
        for _ in range(100):
            omega = rng.normal(size=5)
            assert reduced.at_point(omega) == pytest.approx(
                std.lsf_omega(omega), rel=1e-9, abs=1e-9
            )

    def test_sign_classification_matches_plane(self):
        std = _std_linear(2, 1, coeffs=[-0.3, -0.3, -0.4], constant=1.0)
        point = _design_point([1.0, 1.0], [1.0])
        reduced = reduce_to_polar(std, point)
        rng = np.random.default_rng(4)
        points = rng.normal(size=(10_000, 3))
        for omega in points:
            assert (reduced.at_point(omega) > 0) == (std.lsf_omega(omega) > 0)

    def test_rotation_invariance(self):
        # rotate the Gaussian subspace of problem and design point together
        rng = np.random.default_rng(5)
        coeffs = np.array([0.7, -0.4, 0.2, -0.9])
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))

        def make_std(rotation):
            def lsf(x, y):
                xr = rotation.T @ np.asarray(x, float)
                w = np.concatenate([xr, np.asarray(y, float)])
                return 2.0 + float(coeffs @ w)

            problem = HybridProblem(
                lsf=lsf,
                randoms=tuple(RandomVariable(f"u{i}", 0.0, 1.0) for i in range(3)),
                uncertains=(UncertainVariable("y", -1.0, 1.0),),
            )
            return standardize(problem)

        base = make_std(np.eye(3))
        rotated = make_std(q)
        u = np.array([0.3, -0.2, 0.5])
        delta = np.array([0.1])
        red_base = reduce_to_polar(base, _design_point(u, delta))
        red_rot = reduce_to_polar(rotated, _design_point(q @ u, delta))
        assert red_rot.offset == pytest.approx(red_base.offset, abs=1e-9)
        assert red_rot.grad_norm == pytest.approx(red_base.grad_norm, abs=1e-9)

    def test_degenerate_gradient(self):
        std = _std_linear(1, 0, coeffs=[0.0], constant=1.0)
        with pytest.raises(DegenerateGradientError):
            reduce_to_polar(std, _design_point([1.0], []))

    def test_reduced_lsf_validation(self):
        with pytest.raises(InvalidParameterError):
            ReducedLSF(offset=1.0, grad_norm=0.0, m=1, n=0,
                       direction=np.array([1.0]))
        with pytest.raises(InvalidParameterError):
            ReducedLSF(offset=1.0, grad_norm=1.0, m=1, n=1,
                       direction=np.array([1.0, 1.0]))
        # a negative count, and a unit direction of the wrong length, are
        # refused where the reduction is built, not in the sweep
        with pytest.raises(InvalidParameterError, match="^n must be an integer >= 0"):
            ReducedLSF(offset=1.0, grad_norm=1.0, m=2, n=-1,
                       direction=np.array([1.0]))
        with pytest.raises(InvalidParameterError, match=r"^direction must have shape"):
            ReducedLSF(offset=1.0, grad_norm=1.0, m=2, n=1,
                       direction=np.array([1.0, 0.0, 0.0, 0.0, 0.0]))
        reduced = ReducedLSF(offset=1.0, grad_norm=1.0, m=np.int64(2), n=np.uint8(1),
                             direction=np.array([1.0, 0.0, 0.0]))
        assert (type(reduced.m), type(reduced.n)) == (int, int)

    def test_direction_is_a_read_only_copy(self):
        direction = np.array([0.6, 0.8])
        reduced = ReducedLSF(offset=1.0, grad_norm=1.0, m=1, n=1,
                             direction=direction)
        assert direction.flags.writeable
        direction[0] = 0.0
        assert reduced.direction.tolist() == [0.6, 0.8]
        with pytest.raises(ValueError):
            reduced.direction[0] = 0.0

    def test_surrogate_scaling(self):
        reduced = ReducedLSF(offset=2.0, grad_norm=0.5, m=2, n=1,
                             direction=np.array([1.0, 0.0, 0.0]))
        # surrogate = grad_norm * margin
        assert reduced.surrogate(4.0, 0.0, -0.5) == pytest.approx(
            0.5 * (2.0 + 2.0 * -0.5)
        )

    def test_true_design_point_is_collinear(self, caplog):
        # a converged solve does not warn
        std = _std_linear(2, 0, coeffs=[-0.6, -0.8], constant=2.0)
        design = find_design_point(std)
        with caplog.at_level(logging.WARNING, logger="hybrel.polar"):
            reduced = reduce_to_polar(std, design)
        assert not caplog.records
        assert reduced.offset == pytest.approx(2.0, abs=1e-6)


def _counting(problem):
    """problem standardized with an lsf that counts its calls, and the count."""
    calls = [0]

    def lsf(x, y):
        calls[0] += 1
        return problem.lsf(x, y)

    return standardize(replace(problem, lsf=lsf)), calls


def _same_reduction(a, b):
    return ((a.offset, a.grad_norm, a.m, a.n) == (b.offset, b.grad_norm, b.m, b.n)
            and np.array_equal(a.direction, b.direction))


class TestDesignPointValue:
    def test_same_calls_with_and_without_a_trace(self):
        # the reduction evaluates f at w* itself, then the gradient stencil's
        # 2(m+n) rows, whatever the point's trace holds
        std, calls = _counting(get_case("crank_slider", t=10.0).problem)
        design = find_design_point(std)
        calls[0] = 0
        traced = reduce_to_polar(std, design)
        assert calls[0] == 2 * (std.m + std.n) + 1
        calls[0] = 0
        untraced = reduce_to_polar(std, replace(design, trace=()))
        assert calls[0] == 2 * (std.m + std.n) + 1
        assert _same_reduction(traced, untraced)

    def test_moved_point_keeping_its_trace(self):
        # the trace's f belongs to the search's w*, not to a moved point
        std = standardize(get_case("crank_slider", t=10.0).problem)
        design = find_design_point(std)
        u, delta = 0.9 * design.u_star, 0.5 * design.delta_star
        moved = replace(design, u_star=u, delta_star=delta)
        assert moved.trace == design.trace
        fresh = DesignPoint(u_star=u, delta_star=delta)
        assert _same_reduction(reduce_to_polar(std, moved),
                               reduce_to_polar(std, fresh))

    @pytest.mark.parametrize("key, params", [
        ("linear", {"m": m, "n": 10 - m}) for m in (1, 3, 5, 7, 9)
    ] + [("crank_slider", {"t": t}) for t in (0.0, 10.0, 20.0, 30.0, 40.0)]
      + [("cantilever_tube", {})])
    def test_trace_value_is_the_value_at_the_point(self, key, params):
        # on the paper's rows the search's last f(w*) has the bits of the
        # reduction's own call at w*
        std = standardize(get_case(key, **params).problem)
        design = find_design_point(std)
        value = std.lsf_and_gradient(design.omega(), design.fd_rel_step)[0]
        assert design.trace[-1].lsf_value == value
