"""Numerical kernels for the Poincare ball model of hyperbolic space.

All maps are taken at the origin, which is where the model needs them:
embeddings live in the tangent space at 0 and are pushed onto the ball
of curvature -c (c > 0) with ``exp0``.  Points x satisfy c * ||x||^2 < 1.

Curvature ``c`` may be a python float or an ndarray matching the batch
shape of the point arguments (one curvature per row).

Near-boundary arguments to arctanh are clamped to 1 - BALL_EPS instead
of overflowing; every clamped element increments a module-level counter
so callers can watch for saturation (see ``clamp_events``).

Each step of the model's head transform (``block_scale``, ``exp0``,
``block_rotate``, ``mobius_add``, ``project_to_ball``) has one private
core ``_step`` and its VJP ``_step_backward`` next to it.  The public
names validate and call the core.  Cores trust their arguments, so a
NaN inside the model reaches the model's own finite checks instead of
raising here, and take ``c`` shaped by ``_as_curvature``.  A VJP takes
the upstream gradient and the step's forward inputs, recomputes what it
needs, and returns the inputs' gradients; the curvature's is per row.

``_gram_sqdist``, the model's tail kernel, is tail exp0, (-l) (+)_c
exp0(t), its projection and the squared gyrodistance in Gram form: a
pair (l, t) enters only through ||l||^2, ||t||^2 and <l, t>.  Its VJP
reads the forward's cache.  ``hyp_distance`` composes the public
functions and is kept as the kernel's independent reference.
"""

import numpy as np

# Margin kept between representable points and the unit sphere.
BALL_EPS = 1e-5
# Below this, tanh(z)/z and friends switch to their series limit.
TAU_SMALL = 1e-12
# Mobius denominators smaller than this are treated as degenerate.
DEN_EPS = 1e-15

_clamp_events = 0


def clamp_events():
    """Total boundary-clamp and projection events since the last reset."""
    return _clamp_events


def reset_clamp_events():
    global _clamp_events
    _clamp_events = 0


def _count_clamps(mask):
    global _clamp_events
    _clamp_events += int(np.count_nonzero(mask))


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
    z = np.asarray(z, dtype=np.float64)
    big = z > TAU_SMALL
    out = np.divide(np.tanh(z), z, out=np.empty_like(z), where=big)
    small = ~big  # NaN lands here and stays NaN
    zs = z[small]
    out[small] = 1.0 - zs * zs / 3.0
    return out


def artanh_ratio(g):
    """arctanh(g)/g for 0 <= g < 1, stable at g = 0 (limit 1)."""
    g = np.asarray(g, dtype=np.float64)
    gs = np.where(g > TAU_SMALL, g, 0.5)  # placeholder keeps arctanh finite
    return np.where(g > TAU_SMALL, np.arctanh(gs) / gs, 1.0 + g * g / 3.0)


def tanh_ratio_prime_over_z(z):
    """(d/dz)[tanh(z)/z] divided by z; smooth, limit -2/3 at z = 0.

    Needed by backward passes through exp0.  The direct expression
    (sech^2(z) - tanh(z)/z) / z^2 cancels catastrophically for small z,
    so below 0.05 a series expansion takes over.
    """
    z = np.asarray(z, dtype=np.float64)
    small = z < 0.05
    zs = np.where(small, 1.0, z)
    t = np.tanh(zs)
    direct = ((1.0 - t * t) - t / zs) / (zs * zs)
    z2 = z * z
    series = -2.0 / 3.0 + z2 * (8.0 / 15.0 + z2 * (-34.0 / 105.0 + z2 * (496.0 / 2835.0)))
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
    if np.any(over):
        coef = np.where(over, np.arctanh(1.0 - BALL_EPS) / np.where(over, g, 1.0),
                        artanh_ratio(np.minimum(g, 1.0 - BALL_EPS)))
    else:
        coef = artanh_ratio(g)
    return coef * x


def mobius_add(x, y, c):
    """Mobius addition x (+)_c y on the ball of curvature -c.

    Output is projected back inside the clamp radius; a denominator
    within DEN_EPS of zero raises (the points are essentially antipodal
    at the boundary and the sum is not representable).
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


def _check_denominator(D, query=None):
    """Raise ValueError where |D| < DEN_EPS; ``query(b)`` names row b."""
    bad = np.abs(D) < DEN_EPS
    if np.any(bad):
        where = "" if query is None else f" for {query(int(np.argwhere(bad)[0][0]))}"
        raise ValueError(f"degenerate mobius denominator{where}")


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


def _gram_sqdist(a, n, x, c, query=None):
    """hyp_distance(l, exp0(t), c)**2 from a = ||l||^2, n = ||t||^2 and x = <l, t>,
    and the cache (inputs and intermediates) ``_gram_sqdist_backward`` reads.

    Arguments broadcast: (B, 1) query columns against (B, M) pairs.
    ``query(b)`` names row b of a degenerate denominator.
    """
    sc = np.sqrt(c)
    zt = sc * np.sqrt(n)
    ft = tanh_ratio(zt)

    # md = (-l) (+)_c tH with tH = ft*t: p = <-l, tH>, b = ||tH||^2
    p = -ft * x
    b = ft * ft * n
    A2 = 1.0 + 2.0 * c * p + c * b
    B2 = 1.0 - c * a
    D2 = 1.0 + 2.0 * c * p + c * c * a * b
    _check_denominator(D2, query)
    N2 = A2 * A2 * a + 2.0 * A2 * B2 * p + B2 * B2 * b
    # ||md||^2 = N2/D2^2 cancels to rounding noise when l ~ tH
    nm = np.sqrt(np.maximum(N2 / (D2 * D2), 0.0))

    # md projected inside the clamp radius, then the gyrodistance
    limit = (1.0 - BALL_EPS) / sc
    over = nm > limit
    _count_clamps(over)
    nm = np.minimum(nm, limit)
    g = sc * nm
    gmask = g > 1.0 - BALL_EPS
    _count_clamps(gmask)
    gcl = np.minimum(g, 1.0 - BALL_EPS)
    atg = np.arctanh(gcl)
    dist = 2.0 * atg / sc
    return dist * dist, {"a": a, "n": n, "x": x, "c": c, "sc": sc, "zt": zt, "ft": ft,
                         "p": p, "b": b, "A2": A2, "B2": B2, "D2": D2, "N2": N2, "nm": nm,
                         "live": ~(over | gmask), "gcl": gcl, "atg": atg, "dist": dist}


def _gram_sqdist_backward(sq_bar, T):
    """VJP of ``_gram_sqdist`` through a, n, x and c, from its cache ``T``.

    Each gradient has the pairs' shape; the caller sums a query's tails.
    """
    a, n, x, c, sc = T["a"], T["n"], T["x"], T["c"], T["sc"]
    live = T["live"]            # neither the md projection nor arctanh clamped
    one_m_g2 = 1.0 - T["gcl"] * T["gcl"]
    dist_bar = 2.0 * T["dist"] * sq_bar
    # c enters dist directly: d(dist)/dc = -atg/c^{3/2} + nm/(c(1-g^2)) (2nd term 0 if clamped)
    c_bar = dist_bar * (-T["atg"] / (c * sc) + np.where(live, T["nm"] / (c * one_m_g2), 0.0))
    # d(sq)/d(||md||^2) = 4 artanh_ratio(g)/(1-g^2), free of 1/||md||
    m2_bar = np.where(live, 4.0 * artanh_ratio(T["gcl"]) * sq_bar / one_m_g2, 0.0)

    # ||md||^2 = N2/D2^2, N2 = A2^2 a + 2 A2 B2 p + B2^2 b
    p, b, A2, B2, D2 = T["p"], T["b"], T["A2"], T["B2"], T["D2"]
    N_bar = m2_bar / (D2 * D2)
    D_bar = -2.0 * N_bar * T["N2"] / D2
    A_bar = 2.0 * N_bar * (A2 * a + B2 * p)
    B_bar = 2.0 * N_bar * (A2 * p + B2 * b)
    a_bar = N_bar * A2 * A2 - c * B_bar + D_bar * c * c * b
    p_bar = 2.0 * N_bar * A2 * B2 + 2.0 * c * (A_bar + D_bar)
    b_bar = N_bar * B2 * B2 + c * A_bar + D_bar * c * c * a
    c_bar += A_bar * (2.0 * p + b) - B_bar * a + D_bar * (2.0 * p + 2.0 * c * a * b)

    # p = -ft*x, b = ft^2*n, ft = tanh_ratio(sqrt(c*n))
    ft = T["ft"]
    rt = tanh_ratio_prime_over_z(T["zt"])
    ft_bar = -x * p_bar + 2.0 * ft * n * b_bar
    n_bar = ft * ft * b_bar + ft_bar * rt * c / 2.0
    c_bar += ft_bar * rt * n / 2.0
    return a_bar, n_bar, -ft * p_bar, c_bar


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
    out = np.empty(np.broadcast_shapes(xp[..., 0].shape, cos.shape) + (2,))
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
