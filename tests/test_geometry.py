import numpy as np
import pytest

from hkge import geometry
from hkge.geometry import (
    BALL_EPS,
    TAU_SMALL,
    artanh_ratio,
    block_rotate,
    block_scale,
    exp0,
    hyp_distance,
    log0,
    mobius_add,
    project_to_ball,
    tanh_ratio,
    tanh_ratio_prime_over_z,
)


def rand_directions(rng, n, d):
    v = rng.standard_normal((n, d))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


class TestExpLog:
    def test_exp0_zero_vector(self):
        np.testing.assert_array_equal(exp0(np.zeros(4), 1.0), np.zeros(4))

    def test_exp0_unit_c1(self):
        # tanh(1) along the x axis
        out = exp0(np.array([1.0, 0.0]), 1.0)
        np.testing.assert_allclose(out, [0.7615941559557649, 0.0], rtol=1e-12)

    def test_exp0_low_curvature(self):
        # c = 0.25: tanh(0.25)/0.25 * 0.5
        out = exp0(np.array([0.5, 0.0]), 0.25)
        np.testing.assert_allclose(out, [0.48983732480741826, 0.0], rtol=1e-12)

    def test_log0_half_c1(self):
        # arctanh(0.5) along the x axis
        out = log0(np.array([0.5, 0.0]), 1.0)
        np.testing.assert_allclose(out, [0.5493061443340548, 0.0], rtol=1e-12)

    def test_log0_inverts_exp0_example(self):
        v = np.array([1.0, 0.0])
        np.testing.assert_allclose(log0(exp0(v, 1.0), 1.0), v, rtol=1e-12)

    def test_round_trip_random(self):
        # log0(exp0(v)) = v on the invertible domain sqrt(c)*||v|| <~ 5.8;
        # beyond arctanh(1 - BALL_EPS) = 6.103 the clamp makes inversion
        # impossible by design (and f64 tanh saturates just after).
        rng = np.random.default_rng(11)
        for d in (2, 4, 8):
            n = 10_000
            c = 10.0 ** rng.uniform(-3, 1, size=n)
            cap = np.minimum(5.0, 5.8 / np.sqrt(c))
            v = rand_directions(rng, n, d) * (rng.uniform(0, 1, n) * cap)[:, None]
            back = log0(exp0(v, c), c)
            err = np.linalg.norm(back - v, axis=-1)
            tol = 1e-8 * np.maximum(1.0, np.linalg.norm(v, axis=-1))
            assert np.all(err <= tol)

    def test_round_trip_other_direction(self):
        rng = np.random.default_rng(12)
        n = 10_000
        c = 10.0 ** rng.uniform(-3, 1, size=n)
        radius = rng.uniform(0, 1 - 1e-4, n) / np.sqrt(c)
        x = rand_directions(rng, n, 4) * radius[:, None]
        forth = exp0(log0(x, c), c)
        err = np.linalg.norm(forth - x, axis=-1)
        assert np.all(err <= 1e-8 * np.maximum(1.0, radius))

    def test_exp0_distance_to_origin(self):
        # d_c(exp0(v), 0) = 2*||v|| for every curvature
        rng = np.random.default_rng(13)
        n = 5_000
        c = 10.0 ** rng.uniform(-3, 1, size=n)
        norms = rng.uniform(0, 1, n) * np.minimum(5.0, 5.8 / np.sqrt(c))
        v = rand_directions(rng, n, 4) * norms[:, None]
        d = hyp_distance(exp0(v, c), np.zeros_like(v), c)
        np.testing.assert_allclose(d, 2 * norms, rtol=1e-8)

    def test_rotation_commutes_with_exp0(self):
        # rotations preserve tangent norms, so they commute with exp0
        rng = np.random.default_rng(14)
        for d in (2, 4, 8, 32):
            v = rng.standard_normal((200, d))
            theta = rng.uniform(-np.pi, np.pi, (200, d // 2))
            c = 10.0 ** rng.uniform(-2, 1, size=200)
            a = exp0(block_rotate(v, theta), c)
            b = block_rotate(exp0(v, c), theta)
            np.testing.assert_allclose(a, b, atol=1e-10)


class TestMobius:
    def test_identity_right(self):
        x = np.array([0.3, -0.2, 0.1, 0.05])
        np.testing.assert_array_equal(mobius_add(x, np.zeros(4), 1.0), x)

    def test_inverse(self):
        rng = np.random.default_rng(21)
        x = rand_directions(rng, 500, 4) * rng.uniform(0, 0.9, 500)[:, None]
        out = mobius_add(x, -x, 1.0)
        np.testing.assert_allclose(out, np.zeros_like(x), atol=1e-10)

    def test_collinear_c1(self):
        # matches the rapidity-addition formula (0.3 + 0.4)/(1 + 0.12)
        out = mobius_add(np.array([0.3, 0.0]), np.array([0.4, 0.0]), 1.0)
        np.testing.assert_allclose(out, [0.625, 0.0], rtol=1e-12)

    def test_left_cancellation(self):
        rng = np.random.default_rng(22)
        c = 10.0 ** rng.uniform(-2, 1, size=300)
        rad = rng.uniform(0, 0.9, (2, 300)) / np.sqrt(c)
        x = rand_directions(rng, 300, 4) * rad[0][:, None]
        y = rand_directions(rng, 300, 4) * rad[1][:, None]
        back = mobius_add(-x, mobius_add(x, y, c), c)
        np.testing.assert_allclose(back, y, atol=1e-10)

    def test_degenerate_denominator_raises(self):
        with pytest.raises(ValueError, match="denominator"):
            mobius_add(np.array([0.5, 0.0]), np.array([-2.0, 0.0]), 1.0)


class TestDistance:
    def test_zero_on_equal_points(self):
        x = np.array([0.3, 0.4])
        assert hyp_distance(x, x, 1.0) == 0.0

    def test_origin_to_half_c1(self):
        # 2*arctanh(0.5) = ln 3
        d = hyp_distance(np.array([0.5, 0.0]), np.zeros(2), 1.0)
        np.testing.assert_allclose(d, 1.0986122886681096, rtol=1e-12)

    def test_origin_to_half_low_curvature(self):
        # (2/0.5)*arctanh(0.25)
        d = hyp_distance(np.array([0.5, 0.0]), np.zeros(2), 0.25)
        np.testing.assert_allclose(d, 1.0216512475319814, rtol=1e-12)

    def test_symmetry_and_positivity(self):
        rng = np.random.default_rng(31)
        c = 10.0 ** rng.uniform(-2, 1, size=1000)
        rad = rng.uniform(0, 0.95, (2, 1000)) / np.sqrt(c)
        x = rand_directions(rng, 1000, 4) * rad[0][:, None]
        y = rand_directions(rng, 1000, 4) * rad[1][:, None]
        dxy = hyp_distance(x, y, c)
        dyx = hyp_distance(y, x, c)
        np.testing.assert_allclose(dxy, dyx, rtol=1e-10, atol=1e-12)
        assert np.all(dxy[np.any(x != y, axis=-1)] > 0)

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(32)
        x = rand_directions(rng, 50, 4) * 0.3
        y = rand_directions(rng, 50, 4) * 0.5
        c = 10.0 ** rng.uniform(-1, 0.5, 50)
        batched = hyp_distance(x, y, c)
        single = np.array([hyp_distance(x[i], y[i], float(c[i])) for i in range(50)])
        np.testing.assert_array_equal(batched, single)


class TestBlockOps:
    def test_scale_identity(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(block_scale(x, np.ones(2)), x)

    def test_scale_pairs(self):
        out = block_scale(np.array([1.0, 2.0, 3.0, 4.0]), np.array([2.0, 0.5]))
        np.testing.assert_array_equal(out, [2.0, 4.0, 1.5, 2.0])

    def test_scale_per_block_norm(self):
        out = block_scale(np.array([0.6, 0.8]), np.array([3.0]))
        np.testing.assert_allclose(np.linalg.norm(out), 3.0, rtol=1e-12)

    def test_rotate_zero_angle(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_allclose(block_rotate(x, np.zeros(2)), x, atol=1e-15)

    def test_rotate_quarter_turn(self):
        out = block_rotate(np.array([1.0, 0.0]), np.array([np.pi / 2]))
        np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-15)

    def test_rotate_half_turn_both_blocks(self):
        out = block_rotate(np.array([1.0, 2.0, 3.0, 4.0]), np.array([np.pi, np.pi]))
        np.testing.assert_allclose(out, [-1.0, -2.0, -3.0, -4.0], atol=1e-14)

    def test_rotate_preserves_norm(self):
        rng = np.random.default_rng(41)
        x = rng.standard_normal((2000, 8))
        theta = rng.uniform(-10, 10, (2000, 4))
        out = block_rotate(x, theta)
        np.testing.assert_allclose(
            np.linalg.norm(out, axis=-1), np.linalg.norm(x, axis=-1), rtol=1e-12
        )

    def test_rotate_composition(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal(6)
        t1 = rng.uniform(-3, 3, 3)
        t2 = rng.uniform(-3, 3, 3)
        once = block_rotate(block_rotate(x, t1), t2)
        joint = block_rotate(x, t1 + t2)
        np.testing.assert_allclose(once, joint, atol=1e-12)

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError, match="even"):
            block_scale(np.ones(3), np.ones(1))
        with pytest.raises(ValueError, match="even"):
            block_rotate(np.ones(5), np.ones(2))

    def test_wrong_parameter_count_rejected(self):
        with pytest.raises(ValueError):
            block_scale(np.ones(4), np.ones(3))
        with pytest.raises(ValueError):
            block_rotate(np.ones(4), np.ones(1))


class TestProjection:
    def test_interior_untouched(self):
        x = np.array([0.5, 0.5])
        np.testing.assert_array_equal(project_to_ball(x, 1.0), x)

    def test_outside_rescaled(self):
        out = project_to_ball(np.array([3.0, 4.0]), 1.0)
        np.testing.assert_allclose(np.linalg.norm(out), 1 - BALL_EPS, rtol=1e-12)
        np.testing.assert_allclose(out / np.linalg.norm(out), [0.6, 0.8], rtol=1e-12)

    def test_respects_curvature_radius(self):
        out = project_to_ball(np.array([3.0, 4.0]), 4.0)
        np.testing.assert_allclose(np.linalg.norm(out), (1 - BALL_EPS) / 2, rtol=1e-12)

    def test_origin(self):
        np.testing.assert_array_equal(project_to_ball(np.zeros(3), 2.0), np.zeros(3))


class TestClampCounter:
    def test_log0_near_boundary_counts(self):
        geometry.reset_clamp_events()
        x = np.full((3, 2), (1 - 1e-7) / np.sqrt(2))
        log0(x, 1.0)
        assert geometry.clamp_events() == 3
        geometry.reset_clamp_events()
        assert geometry.clamp_events() == 0

    def test_interior_does_not_count(self):
        geometry.reset_clamp_events()
        log0(np.array([0.5, 0.0]), 1.0)
        hyp_distance(np.array([0.2, 0.1]), np.array([-0.3, 0.4]), 1.0)
        assert geometry.clamp_events() == 0

    def test_projection_counts(self):
        geometry.reset_clamp_events()
        project_to_ball(np.array([5.0, 0.0]), 1.0)
        assert geometry.clamp_events() == 1

    def test_log0_clamped_magnitude(self):
        # a clamped point maps to tangent norm arctanh(1 - BALL_EPS)/sqrt(c)
        x = np.array([0.9999999, 0.0])
        out = log0(x, 1.0)
        np.testing.assert_allclose(
            np.linalg.norm(out), np.arctanh(1 - BALL_EPS), rtol=1e-12
        )
        assert np.linalg.norm(out) < 6.2  # arctanh(1 - 1e-5) = 6.103...


class TestValidation:
    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            exp0(np.array([np.nan, 0.0]), 1.0)
        with pytest.raises(ValueError, match="non-finite"):
            log0(np.array([np.inf, 0.0]), 1.0)
        with pytest.raises(ValueError, match="non-finite"):
            mobius_add(np.array([0.1, 0.0]), np.array([np.nan, 0.0]), 1.0)

    def test_bad_curvature_rejected(self):
        for bad in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError):
                exp0(np.array([0.1, 0.0]), bad)

    def test_extreme_scales_stay_finite(self):
        # |k_i| up to 10 pushes points toward the boundary; exp0 may
        # saturate to norm 1.0 in f64 (arctanh clamps handle that later)
        # but must never go non-finite or leave the closed ball.
        rng = np.random.default_rng(51)
        v = rng.standard_normal((100, 4))
        k = rng.uniform(-10, 10, (100, 2))
        out = exp0(block_scale(v, k), 1.0)
        assert np.all(np.isfinite(out))
        assert np.all(np.linalg.norm(out, axis=-1) <= 1.0 + 1e-12)


class TestSeriesHelpers:
    def test_tanh_ratio_limit(self):
        np.testing.assert_allclose(tanh_ratio(np.array([0.0])), [1.0])
        np.testing.assert_allclose(tanh_ratio(np.array([1e-13])), [1.0])

    def test_tanh_ratio_matches_two_branch_formula(self):
        # one branch per element gives the bits of evaluating both and picking
        z = np.array([0.0, 0.5e-12, TAU_SMALL, np.nextafter(TAU_SMALL, 1.0), 2e-12,
                      1e-6, 1.0, 30.0, np.inf, np.nan])
        zs = np.where(z > TAU_SMALL, z, 1.0)
        want = np.where(z > TAU_SMALL, np.tanh(zs) / zs, 1.0 - z * z / 3.0)
        assert tanh_ratio(z).tobytes() == want.tobytes()
        assert tanh_ratio(np.float64(1.0)) == np.tanh(1.0)

    def test_artanh_ratio_limit(self):
        np.testing.assert_allclose(artanh_ratio(np.array([0.0])), [1.0])

    def test_ratio_helpers_continuous_at_switch(self):
        below = tanh_ratio(np.array([0.99e-12]))
        above = tanh_ratio(np.array([1.01e-12]))
        np.testing.assert_allclose(below, above, rtol=1e-12)

    def test_prime_over_z_series_matches_direct(self):
        # crossover at z = 0.05: series and direct branch must agree nearby
        for z in (0.02, 0.049, 0.0501, 0.06):
            got = tanh_ratio_prime_over_z(np.array([z]))
            t = np.tanh(z)
            direct = ((1 - t * t) - t / z) / (z * z)
            np.testing.assert_allclose(got, direct, rtol=1e-8)

    def test_prime_over_z_against_finite_difference(self):
        h = 1e-6
        for z in (0.01, 0.2, 1.0, 3.0):
            fd = (tanh_ratio(np.array([z + h])) - tanh_ratio(np.array([z - h]))) / (2 * h)
            got = tanh_ratio_prime_over_z(np.array([z])) * z
            np.testing.assert_allclose(got, fd, rtol=1e-6, atol=1e-12)

    def test_prime_over_z_limit(self):
        np.testing.assert_allclose(
            tanh_ratio_prime_over_z(np.array([0.0])), [-2.0 / 3.0], rtol=1e-12
        )


# -- VJPs of the geometric steps -------------------------------------------

def _gram_pairs(rng, c):
    """(lhs, t): one ball point lhs per curvature row and three tangent tails each."""
    B = len(c)
    lhs = rand_directions(rng, B, 4) * rng.uniform(0.1, 0.8, (B, 1)) / np.sqrt(c)
    return lhs, rng.normal(0.0, 0.7, (B, 3, 4))


def _gram_args(lhs, t):
    """a = ||lhs||^2 as a column, n = ||t||^2 and x = <lhs, t> per pair."""
    return (np.sum(lhs * lhs, axis=-1, keepdims=True), np.sum(t * t, axis=-1),
            np.einsum("bd,bmd->bm", lhs, t))


def _gram_sqdist(a, n, x, c):
    return geometry._gram_sqdist(a, n, x, c)[0]


def _gram_sqdist_backward(sq_bar, a, n, x, c):
    """The VJP from the forward's cache, with the per-query inputs' gradients summed."""
    a_bar, n_bar, x_bar, c_bar = geometry._gram_sqdist_backward(
        sq_bar, geometry._gram_sqdist(a, n, x, c)[1])
    return np.sum(a_bar, axis=-1), n_bar, x_bar, np.sum(c_bar, axis=-1)


def _steps():
    """step -> (core forward, its VJP, the forward's inputs).

    Five rows of dimension 4, with one curvature per row, shaped as the
    cores take it (a column).  Three of the projection's input rows lie
    outside the clamp radius, so the projection fires on those only;
    the Gram-form distance projects md for pair (0, 0) only.
    """
    rng = np.random.default_rng(61)
    c = rng.uniform(0.3, 2.0, (5, 1))
    radius = 1.0 / np.sqrt(c)

    def at(fractions):
        return rand_directions(rng, 5, 4) * fractions * radius

    steps = {
        "exp0": (geometry._exp0, geometry._exp0_backward, (rng.normal(0.0, 0.7, (5, 4)), c)),
        "block_scale": (geometry._block_scale, geometry._block_scale_backward,
                        (rng.normal(size=(5, 4)), rng.uniform(0.5, 1.5, (5, 2)))),
        "block_rotate": (geometry._block_rotate, geometry._block_rotate_backward,
                         (rng.normal(size=(5, 4)), rng.uniform(-3.0, 3.0, (5, 2)))),
        "mobius_add": (geometry._mobius_add, geometry._mobius_add_backward,
                       (at(rng.uniform(0.1, 0.8, (5, 1))), at(rng.uniform(0.1, 0.8, (5, 1))), c)),
        "project": (geometry._project, geometry._project_backward,
                    (at(np.array([[2.0], [1.5], [0.5], [0.9], [3.0]])), c)),
    }
    lhs, t = _gram_pairs(rng, c)
    t[0, 0] *= 40.0 / np.linalg.norm(t[0, 0])  # exp0(t) and md round onto the boundary
    steps["gram_sqdist"] = (_gram_sqdist, _gram_sqdist_backward, (*_gram_args(lhs, t), c))
    return steps


class TestVJPs:
    @pytest.mark.parametrize("step", sorted(_steps()))
    def test_matches_central_differences(self, step):
        forward, backward, args = _steps()[step]
        y_bar = np.random.default_rng(62).normal(size=forward(*args).shape)
        grads = backward(y_bar, *args)
        assert len(grads) == len(args)
        h = 1e-6
        for i, (arg, got) in enumerate(zip(args, grads)):
            fd = np.zeros_like(arg)
            for idx in np.ndindex(arg.shape):
                up, down = arg.copy(), arg.copy()
                up[idx] += h
                down[idx] -= h
                fd[idx] = (np.sum(y_bar * forward(*args[:i], up, *args[i + 1:]))
                           - np.sum(y_bar * forward(*args[:i], down, *args[i + 1:]))) / (2.0 * h)
            # the curvature gradient comes back per row; c goes in as a column
            np.testing.assert_allclose(np.reshape(got, arg.shape), fd, rtol=1e-6, atol=1e-8,
                                       err_msg=f"{step} input {i}")

    def test_projection_fires_on_outside_rows_only(self):
        _, _, (x, c) = _steps()["project"]
        _, over, _ = geometry._projection(x, c)
        np.testing.assert_array_equal(over[:, 0], [True, True, False, False, True])


class TestGramSqdist:
    def test_matches_hyp_distance(self):
        rng = np.random.default_rng(63)
        c = rng.uniform(0.3, 2.0, (6, 1))
        lhs, t = _gram_pairs(rng, c)
        sq, _ = geometry._gram_sqdist(*_gram_args(lhs, t), c)
        for m in range(t.shape[1]):
            want = hyp_distance(lhs, exp0(t[:, m], c[:, 0]), c[:, 0]) ** 2
            np.testing.assert_allclose(sq[:, m], want, rtol=1e-12, atol=0.0)

    def test_md_projection_fires_on_first_pair_only(self):
        _, _, args = _steps()["gram_sqdist"]
        _, cache = geometry._gram_sqdist(*args)
        clamped = cache["nm"] == (1.0 - BALL_EPS) / np.sqrt(args[-1])
        np.testing.assert_array_equal(np.argwhere(clamped), [[0, 0]])
