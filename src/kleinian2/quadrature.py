"""Tanh-sinh (double-exponential) quadrature on [0, 1].

The change of variable u = (1 + tanh((pi/2) sinh t))/2 pushes the endpoints
out to t = +-inf, so inverse-square-root endpoint singularities are absorbed
by the double-exponentially decaying weights.  Node sets for step h = 2^-level
are nested: halving h only adds the odd multiples, so estimates can be
refined without discarding previous integrand evaluations.

Integrands receive the node positions together with the distances to both
endpoints computed without cancellation (1 - u underflows gracefully instead
of rounding to 0), which is what the factored square-root integrands need.
"""

import numpy as np

from .errors import QuadratureError

# |t| beyond T_MAX contributes below 1e-17 even against a u^(-1/2) endpoint
# blow-up: the weight decays like exp(-pi/2 * exp(t)) after that cancellation.
T_MAX = 4.5
BASE_LEVEL = 3
MAX_LEVEL = 12
# relative tolerance on the max-norm of every integral the package takes
TOL = 1e-12

_node_cache = {}


def _nodes(level):
    """Nodes new at `level`: (u, d0, d1, w) with d0 = u, d1 = 1 - u, stable."""
    cached = _node_cache.get(level)
    if cached is not None:
        return cached
    h = 2.0 ** (-level)
    kmax = int(np.floor(T_MAX / h))
    if level == BASE_LEVEL:
        k = np.arange(-kmax, kmax + 1)
    else:
        k = np.arange(-kmax, kmax + 1)
        k = k[k % 2 != 0]
    t = h * k
    phi = 0.5 * np.pi * np.sinh(t)
    # u = 1/(1+e^(-2 phi)), 1-u = 1/(1+e^(2 phi)): both exact to rounding
    d0 = 1.0 / (1.0 + np.exp(-2.0 * phi))
    d1 = 1.0 / (1.0 + np.exp(2.0 * phi))
    w = 0.25 * np.pi * np.cosh(t) / np.cosh(phi) ** 2
    _node_cache[level] = (d0, d0, d1, w)
    return _node_cache[level]


def integrate_01(g):
    """Integrate a vector-valued integrand over (0, 1) to relative
    tolerance TOL on the max-norm of the result.

    Parameters
    ----------
    g : callable
        g(u, d0, d1) -> complex array of shape (len(u), k).  d0 and d1 are
        the distances to 0 and 1 (d0 == u; d1 is 1-u computed stably).

    Returns
    -------
    value : complex array (k,)
    err : float
        Last observed change between successive levels.
    """
    u, d0, d1, w = _nodes(BASE_LEVEL)
    acc = w @ g(u, d0, d1)
    est = 2.0 ** (-BASE_LEVEL) * acc
    err = np.inf
    for level in range(BASE_LEVEL + 1, MAX_LEVEL + 1):
        u, d0, d1, w = _nodes(level)
        acc = acc + w @ g(u, d0, d1)
        new = 2.0 ** (-level) * acc
        scale = max(np.max(np.abs(new)), 1e-300)
        err = np.max(np.abs(new - est)) / scale
        est = new
        if err < TOL:
            return est, err
    raise QuadratureError(
        f"tanh-sinh did not reach rel. tol {TOL:g} by level {MAX_LEVEL} "
        f"(last change {err:.2e})")
