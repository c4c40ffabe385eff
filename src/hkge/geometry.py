"""Numerical kernels for the Poincare ball model of hyperbolic space.

All maps are taken at the origin, which is where the model needs them:
embeddings live in the tangent space at 0 and are pushed onto the ball
of curvature -c (c > 0) with ``exp0``.  Points x satisfy c * ||x||^2 < 1.

Curvature ``c`` may be a python float or an ndarray matching the batch
shape of the point arguments (one curvature per row).

Values that would reach the boundary are held at the clamp radius
1 - BALL_EPS (in units of 1/sqrt(c)): the arctanh arguments of ``log0``
and ``hyp_distance``, the projection, and tanh(sqrt(c)||t||) in the
tail kernel.  Every clamped element increments a module-level counter
so callers can watch for saturation (see ``clamp_events``).  A lock
guards the add, because ranking threads share the counter.

Each step of the model's head transform (``block_scale``, ``exp0``,
``block_rotate``, ``mobius_add``, ``project_to_ball``) has one private
core ``_step`` and its VJP ``_step_backward`` next to it.  The public
names validate and call the core.  Cores trust their arguments, so a
NaN inside the model reaches the model's own finite checks instead of
raising here, and take ``c`` shaped by ``_as_curvature``.  A VJP takes
the upstream gradient and the step's forward inputs, recomputes what it
needs, and returns the inputs' gradients; the curvature's is per row.

``_gram_sqdist``, the model's tail kernel, is tail exp0 and the squared
distance d(l, exp0(t))^2 in its closed form arcosh(1 + u)^2/c, with u
built from ||l - exp0(t)||^2 and the two points' conformal factors, so
no Mobius sum is formed.  A pair (l, t) enters only through ||l||^2,
||t||^2 and <l, t>.  Its VJP reads the forward's cache; a forward that
no backward follows keeps none and reuses its own buffers.
``hyp_distance`` composes the public functions (the gyrodistance of
(-x) (+)_c y) and is kept as the kernel's independent reference.

Cores, VJPs and the ratio helpers keep the dtype of their arguments,
so a float32 model trains in float32 arithmetic.  The public functions
validate into float64 (``_as_float``, ``_as_curvature``): they are the
references that tests and the benchmark oracle compare against.
"""

import threading

import numpy as np

# Margin kept between representable points and the unit sphere.
BALL_EPS = 1e-5
# Below this, tanh(z)/z and friends switch to their series limit.
TAU_SMALL = 1e-12
# A Mobius denominator within this many epsilons of its dtype is treated
# as degenerate: 1e-15 in float64, 5.4e-7 in float32.
DEN_ULPS = 4.5

_clamp_events = 0
_clamp_lock = threading.Lock()


def clamp_events():
    """Total boundary-clamp and projection events since the last reset."""
    return _clamp_events


def reset_clamp_events():
    global _clamp_events
    _clamp_events = 0


def _count_clamps(mask):
    global _clamp_events
    n = int(np.count_nonzero(mask))
    with _clamp_lock:
        _clamp_events += n


def _as_float(name, x):
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} contains non-finite values")
    return x


def _as_curvature(c):
    c = np.asarray(c, dtype=np.float64)
    if not np.all(np.isfinite(c)):
        raise ValueError("curvature contains non-finite values")
    if np.any(c <= 0.0):
        raise ValueError("curvature must be strictly positive")
    if c.ndim:
        c = c[..., np.newaxis]  # align with the coordinate axis
    return c


def _norm(x):
    return np.sqrt(np.sum(x * x, axis=-1, keepdims=True))


def tanh_ratio(z):
    """tanh(z)/z, stable at z = 0 (limit 1)."""
    z = np.asarray(z)
    big = z > TAU_SMALL
    out = np.tanh(z, out=np.empty_like(z))
    np.divide(out, z, out=out, where=big)
    small = ~big  # NaN lands here and stays NaN
    zs = z[small]
    out[small] = 1.0 - zs * zs / 3.0
    return out


def artanh_ratio(g):
    """arctanh(g)/g for 0 <= g < 1, stable at g = 0 (limit 1)."""
    g = np.asarray(g)
    gs = np.where(g > TAU_SMALL, g, 0.5)  # placeholder keeps arctanh finite
    return np.where(g > TAU_SMALL, np.arctanh(gs) / gs, 1.0 + g * g / 3.0)


def arcosh_ratio(u):
    """arcosh(1 + u)/sqrt(u(u + 2)) for u >= 0, stable at u = 0 (limit 1).

    arcosh(1 + u) is taken as log1p(u + sqrt(u(u + 2))), which keeps its
    relative precision as u -> 0, where 1 + u would round it away.
    """
    u = np.asarray(u)
    big = u > TAU_SMALL
    us = np.where(big, u, 1.0)
    r = np.sqrt(us * (us + 2.0))
    return np.where(big, np.log1p(us + r) / r, 1.0 - u / 3.0)


def tanh_ratio_prime_over_z(z):
    """(d/dz)[tanh(z)/z] divided by z; smooth, limit -2/3 at z = 0.

    Needed by backward passes through exp0.  The direct expression
    (sech^2(z) - tanh(z)/z) / z^2 cancels catastrophically for small z,
    so a series takes over below 0.05 in float64, and below 0.3 in
    float32, whose direct form keeps less, with one more term.
    """
    z = np.asarray(z)
    f32 = z.dtype == np.float32
    small = z < (0.3 if f32 else 0.05)
    zs = np.where(small, 1.0, z)
    t = np.tanh(zs)
    direct = ((1.0 - t * t) - t / zs) / (zs * zs)
    z2 = z * z
    tail = z2 * (496.0 / 2835.0 + z2 * (-13820.0 / 155925.0)) if f32 else z2 * (496.0 / 2835.0)
    series = -2.0 / 3.0 + z2 * (8.0 / 15.0 + z2 * (-34.0 / 105.0 + tail))
    return np.where(small, series, direct)


def exp0(v, c):
    """Exponential map at the origin: tangent vector -> ball point.

    exp0(v) = tanh(sqrt(c)*||v||) * v / (sqrt(c)*||v||)
    """
    return _exp0(_as_float("v", v), _as_curvature(c))


def _exp0(v, c):
    return tanh_ratio(np.sqrt(c) * _norm(v)) * v


def _exp0_backward(y_bar, v, c):
    """VJP of y = exp0(v) through v and c."""
    n2 = np.sum(v * v, axis=-1, keepdims=True)
    z = np.sqrt(c) * np.sqrt(n2)
    r = tanh_ratio_prime_over_z(z)
    dot = np.sum(y_bar * v, axis=-1, keepdims=True)
    return tanh_ratio(z) * y_bar + dot * r * c * v, (dot * r * n2 / 2.0)[..., 0]


def log0(x, c):
    """Logarithmic map at the origin: ball point -> tangent vector.

    Inverse of exp0 on the open ball.  Arguments outside the clamp
    radius are pulled back to 1 - BALL_EPS (counted as clamp events).
    """
    x = _as_float("x", x)
    c = _as_curvature(c)
    g = np.sqrt(c) * _norm(x)
    over = g > 1.0 - BALL_EPS
    _count_clamps(over)
    coef = np.where(over, np.arctanh(1.0 - BALL_EPS) / np.where(over, g, 1.0),
                    artanh_ratio(np.minimum(g, 1.0 - BALL_EPS)))
    return coef * x


def mobius_add(x, y, c):
    """Mobius addition x (+)_c y on the ball of curvature -c.

    Output is projected back inside the clamp radius; a denominator
    within DEN_ULPS epsilons of zero raises (the points are essentially
    antipodal at the boundary and the sum is not representable).
    """
    x = _as_float("x", x)
    y = _as_float("y", y)
    c = _as_curvature(c)
    return _project(_mobius_add(x, y, c), c)


def _mobius_terms(x, y, c):
    """<x, y>, ||x||^2, ||y||^2 and A, B, D with x (+)_c y = (A*x + B*y)/D."""
    dot = np.sum(x * y, axis=-1, keepdims=True)
    nx2 = np.sum(x * x, axis=-1, keepdims=True)
    ny2 = np.sum(y * y, axis=-1, keepdims=True)
    A = 1.0 + 2.0 * c * dot + c * ny2
    B = 1.0 - c * nx2
    D = 1.0 + 2.0 * c * dot + c * c * nx2 * ny2
    return dot, nx2, ny2, A, B, D


class DenominatorError(ValueError):
    """A degenerate Mobius denominator: the points are antipodal at the
    boundary, and their sum is not representable."""


def _check_denominator(D, query=None):
    """Raise DenominatorError where |D| < DEN_ULPS epsilons of D's dtype;
    ``query(b)`` names row b."""
    bad = np.abs(D) < DEN_ULPS * np.finfo(D.dtype).eps
    if np.any(bad):
        where = "" if query is None else f" for {query(int(np.argwhere(bad)[0][0]))}"
        raise DenominatorError(f"degenerate mobius denominator{where}")


def _mobius_add(x, y, c, query=None):
    """x (+)_c y before projection; the denominator is checked first."""
    _, _, _, A, B, D = _mobius_terms(x, y, c)
    _check_denominator(D, query)
    return (A * x + B * y) / D


def _mobius_add_backward(g_bar, x, y, c):
    """VJP of out = x (+)_c y (unprojected) through x, y and c."""
    dot, nx2, ny2, A, B, D = _mobius_terms(x, y, c)
    out = (A * x + B * y) / D
    gx = np.sum(g_bar * x, axis=-1, keepdims=True)
    gy = np.sum(g_bar * y, axis=-1, keepdims=True)
    go = np.sum(g_bar * out, axis=-1, keepdims=True)
    two_c = 2.0 * c
    x_bar = (A * g_bar + two_c * gx * y - two_c * gy * x
             - go * (two_c * y + two_c * c * ny2 * x)) / D
    y_bar = (B * g_bar + two_c * gx * (x + y)
             - go * (two_c * x + two_c * c * nx2 * y)) / D
    c_bar = (gx * (2.0 * dot + ny2) - gy * nx2
             - go * (2.0 * dot + 2.0 * c * nx2 * ny2)) / D
    return x_bar, y_bar, c_bar[..., 0]


def hyp_distance(x, y, c):
    """Geodesic distance d_c(x, y) = (2/sqrt(c)) * arctanh(sqrt(c)*||-x (+) y||).

    The reference ``_gram_sqdist`` is tested against.
    """
    c_col = _as_curvature(c)
    m = mobius_add(-np.asarray(x, dtype=np.float64), y, c)
    g = np.sqrt(c_col) * _norm(m)
    over = g > 1.0 - BALL_EPS
    _count_clamps(over)
    g = np.minimum(g, 1.0 - BALL_EPS)
    d = (2.0 / np.sqrt(c_col)) * np.arctanh(g)
    return np.squeeze(d, axis=-1)


def _gram_sqdist(a, n, x, c, rn=None, need_cache=True):
    """hyp_distance(l, exp0(t), c)**2 from a = ||l||^2, n = ||t||^2 and x = <l, t>,
    and the cache (inputs and intermediates) ``_gram_sqdist_backward`` reads.

    The closed form d = arcosh(1 + u)/sqrt(c) with
    u = 2c||l - tH||^2 / ((1 - c||l||^2)(1 - c||tH||^2)), tH = exp0(t).
    Arguments broadcast: (B, 1) query columns against (B, M) pairs, or
    (1,) query values against (M,) tails.  ``rn`` is sqrt(n) where the
    caller holds it.  l must lie inside the clamp radius, as ``_head``
    projects it, so 1 - c||l||^2 > 0.
    Without ``need_cache`` no backward follows: the cache is None, and
    each step writes into the buffer of an intermediate nothing reads
    any more (``x`` among them) instead of a fresh array.  Either way
    every value comes from the same operations in the same order.
    """

    def spare(buf):
        return None if need_cache else buf

    # T = sqrt(c)*||tH|| = tanh(z), held at the clamp radius; ft = T/z
    zt = np.sqrt(c) * (np.sqrt(n) if rn is None else rn)
    T = np.tanh(zt)
    over = T > 1.0 - BALL_EPS
    _count_clamps(over)
    if over.any():
        np.minimum(T, 1.0 - BALL_EPS, out=T)
    zero = zt == 0.0
    with np.errstate(invalid="ignore"):
        ft = np.divide(T, zt, out=spare(zt))
    if zero.any():
        ft[zero] = 1.0  # the limit of tanh(z)/z

    # w = ||l - tH||^2 = a - 2 ft x + T^2/c; the clamp catches rounding when l ~ tH
    tx = np.multiply(ft, x, out=spare(x))
    tx *= 2.0
    w = np.multiply(T, T, out=spare(ft))
    w /= c
    w -= tx
    w += a
    np.maximum(w, 0.0, out=w)
    # s = 1 - c||tH||^2 and k = 1 - c a
    s = np.subtract(1.0, T, out=spare(tx))
    s *= np.add(1.0, T, out=spare(T))
    k = 1.0 - c * a
    u = np.multiply(w, 2.0 * c / k, out=spare(w))
    u /= s
    A = np.add(1.0, u, out=spare(u))
    np.arccosh(A, out=A)
    sq = np.multiply(A, A, out=spare(A))
    sq /= c
    if not need_cache:
        return sq, None
    return sq, {"a": a, "n": n, "x": x, "c": c, "zt": zt, "T": T, "over": over, "ft": ft,
                "s": s, "k": k, "u": u, "sq": sq}


def _gram_sqdist_backward(sq_bar, cache):
    """VJP of ``_gram_sqdist`` through a, n, x and c, from its ``cache``.

    Each gradient has the pairs' shape; the caller sums a query's tails.
    """
    a, n, x, c = cache["a"], cache["n"], cache["x"], cache["c"]
    zt, T, ft, s, k, u = (cache[key] for key in ("zt", "T", "ft", "s", "k", "u"))
    # sq = arcosh(1 + u)^2/c, u = 2c w/(k s)
    u_bar = (2.0 / c) * arcosh_ratio(u) * sq_bar
    uu = u_bar * u
    w_bar = u_bar * (2.0 * c / k) / s
    a_bar = w_bar + c * uu / k
    x_bar = -2.0 * ft * w_bar
    # w and s read T = tanh(z) and ft = T/z, z = sqrt(c n): T_bar = T*tau, and
    # zq is d(sq)/dz divided by z.  Where T is clamped, only ft moves with z
    ft_bar = -2.0 * x * w_bar
    tau = 2.0 * w_bar / c + 2.0 * uu / s
    zq = ft * s * tau + tanh_ratio_prime_over_z(zt) * ft_bar
    over = cache["over"]
    if over.any():
        zq = np.where(over, -ft * ft_bar / np.where(over, zt * zt, 1.0), zq)
    # dz/dn = c/(2z) and dz/dc = n/(2z)
    n_bar = (c / 2.0) * zq
    c_bar = (uu / k - cache["sq"] * sq_bar - T * T * w_bar / c) / c + (n / 2.0) * zq
    return a_bar, n_bar, x_bar, c_bar


def project_to_ball(x, c):
    """Radially rescale x to norm (1 - BALL_EPS)/sqrt(c) if it lies outside."""
    return _project(np.asarray(x, dtype=np.float64), _as_curvature(c))


def _projection(x, c):
    """||x|| (kept as a column), where x lies outside the clamp radius, and its rescale factor."""
    n = _norm(x)
    limit = (1.0 - BALL_EPS) / np.sqrt(c)
    over = n > limit
    return n, over, np.where(over, limit / np.where(over, n, 1.0), 1.0)


def _project(x, c):
    _, over, scale = _projection(x, c)
    _count_clamps(over)
    return x * scale


def _project_backward(y_bar, x, c):
    """VJP of y = project_to_ball(x) through x and c."""
    n, over, scale = _projection(x, c)
    if not np.any(over):
        return y_bar, 0.0
    dot = np.sum(y_bar * x, axis=-1, keepdims=True)
    # projected: y = limit * x/||x||; grad is tangential, scaled
    n2 = np.where(over, n * n, 1.0)
    x_bar = np.where(over, scale * (y_bar - (dot / n2) * x), y_bar)
    # limit = (1-eps)/sqrt(c) pulls c into the projected outputs
    return x_bar, np.where(over, dot * scale * (-0.5 / c), 0.0)[..., 0]


def _pairs(x):
    return x.reshape(x.shape[:-1] + (x.shape[-1] // 2, 2))


def _check_pairs(x, per_pair, what):
    if x.shape[-1] % 2:
        raise ValueError("last dimension must be even")
    if per_pair.shape[-1] != x.shape[-1] // 2:
        raise ValueError(f"expected {x.shape[-1] // 2} {what}, got {per_pair.shape[-1]}")


def block_scale(x, k):
    """Scale each coordinate pair (x_{2i}, x_{2i+1}) by k_i."""
    x = _as_float("x", x)
    k = _as_float("k", k)
    _check_pairs(x, k, "scale factors")
    return _block_scale(x, k)


def _block_scale(x, k):
    return (_pairs(x) * k[..., np.newaxis]).reshape(x.shape)


def _block_scale_backward(y_bar, x, k):
    """VJP of y = block_scale(x, k) through x and k."""
    return _block_scale(y_bar, k), np.sum(_pairs(y_bar) * _pairs(x), axis=-1)


def block_rotate(x, theta):
    """Rotate each coordinate pair (x_{2i}, x_{2i+1}) by angle theta_i.

    Counter-clockwise Givens rotations; norms of every pair (and hence
    of x) are preserved.
    """
    x = _as_float("x", x)
    theta = _as_float("theta", theta)
    _check_pairs(x, theta, "angles")
    return _block_rotate(x, theta)


def _turn(x, cos, sin):
    """Rotate coordinate pair i of x by the angle with cosine cos_i and sine sin_i."""
    xp = _pairs(x)
    out = np.empty(np.broadcast_shapes(xp[..., 0].shape, cos.shape) + (2,),
                   dtype=np.result_type(x, cos))
    out[..., 0] = xp[..., 0] * cos - xp[..., 1] * sin
    out[..., 1] = xp[..., 0] * sin + xp[..., 1] * cos
    return out.reshape(out.shape[:-2] + (out.shape[-2] * 2,))


def _block_rotate(x, theta):
    return _turn(x, np.cos(theta), np.sin(theta))


def _block_rotate_backward(y_bar, x, theta):
    """VJP of y = block_rotate(x, theta) through x and theta."""
    cos, sin = np.cos(theta), np.sin(theta)
    # d(y)/d(theta_i) is pair i of y turned by +90 degrees
    yb, y = _pairs(y_bar), _pairs(_turn(x, cos, sin))
    return _turn(y_bar, cos, -sin), yb[..., 1] * y[..., 0] - yb[..., 0] * y[..., 1]
