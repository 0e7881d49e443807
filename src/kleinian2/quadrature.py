"""Tanh-sinh (double-exponential) quadrature on [0, 1].

The change of variable u = (1 + tanh((pi/2) sinh t))/2 pushes the endpoints
out to t = +-inf, so inverse-square-root endpoint singularities are absorbed
by the double-exponentially decaying weights.  Node sets for step h = 2^-level
are nested: halving h only adds the odd multiples, so estimates can be
refined without discarding previous integrand evaluations.

Integrands receive the node positions together with the distances to both
endpoints computed without cancellation (1 - u underflows gracefully instead
of rounding to 0), which is what the factored square-root integrands need.
The cached node arrays are read-only: an integrand that wrote into them
would change every later integral in the process.

One call integrates a stack of independent integrals, such as the
pieces of a path or a fan of paths: an integrand returning shape
(len(u), m, k) gives m results of k components, and every one of the m
must meet the tolerance on its own max-norm, so a small integral is not
judged against a large neighbour.  Each integral is retired at the first
level where it meets the tolerance, and its result is the one it would
get alone; the integrals still open share the node evaluations of the
next level.  The caller's `narrow` is told which integrals are still
open, and the integrand evaluates only those, so a stack costs no more
integrand columns than its members would alone.  The first convergence
test compares levels BASE_LEVEL and BASE_LEVEL + 1, so the first
integrand call takes the nodes of both.

Paths and the run into a branch point use this rule.  A period build
uses none: its loop segments, analytic after the factoring of their
endpoint singularities, use Gauss-Chebyshev, and on a sextic z_star's
half-segment in the chart s = 1/x Gauss-Legendre, each with node
counts fixed beforehand from an error bound
(integration.segment_period_integrals and half_segment_integrals),
which is checked against TOL as this rule checks its change.
"""

from functools import lru_cache

import numpy as np

from .errors import QuadratureError

# |t| beyond T_MAX contributes below 1e-17 even against a u^(-1/2) endpoint
# blow-up: the weight decays like exp(-pi/2 * exp(t)) after that cancellation.
T_MAX = 4.5
BASE_LEVEL = 3
MAX_LEVEL = 12
# relative tolerance on the max-norm of every integral the package takes,
# by this rule or by a period build's Gauss-Chebyshev and Gauss-Legendre
TOL = 1e-12

_node_cache = {}


def _nodes(level):
    """Nodes new at `level`: (u, d0, d1, w) with d0 = u, d1 = 1 - u, stable."""
    cached = _node_cache.get(level)
    if cached is not None:
        return cached
    h = 2.0 ** (-level)
    kmax = int(np.floor(T_MAX / h))
    k = np.arange(-kmax, kmax + 1)
    if level > BASE_LEVEL:
        k = k[k % 2 != 0]
    t = h * k
    phi = 0.5 * np.pi * np.sinh(t)
    # u = 1/(1+e^(-2 phi)), 1-u = 1/(1+e^(2 phi)): both exact to rounding
    d0 = 1.0 / (1.0 + np.exp(-2.0 * phi))
    d1 = 1.0 / (1.0 + np.exp(2.0 * phi))
    w = 0.25 * np.pi * np.cosh(t) / np.cosh(phi) ** 2
    for a in (d0, d1, w):
        a.setflags(write=False)
    _node_cache[level] = (d0, d0, d1, w)
    return _node_cache[level]


@lru_cache(maxsize=1)
def _first_nodes():
    """(u, d0, d1) of levels BASE_LEVEL and BASE_LEVEL + 1, in that order,
    for the first integrand call."""
    u, d1 = (np.concatenate([_nodes(level)[i] for level in
                             (BASE_LEVEL, BASE_LEVEL + 1)]) for i in (0, 2))
    for a in (u, d1):
        a.setflags(write=False)
    return u, u, d1


def integrate_01(g, narrow):
    """Integrate a stack of vector-valued integrands over (0, 1) to
    relative tolerance TOL on the max-norm of each result.

    Parameters
    ----------
    g : callable
        g(u, d0, d1) -> complex array of shape (len(u), m, k) for m
        independent integrals.  d0 and d1 are the distances to 0 and 1
        (d0 == u; d1 is 1-u computed stably).
    narrow : callable
        narrow(open) is called with the indices, into the stack, of the
        integrals still open whenever some of them retire, and from then
        on g returns those integrals only, in that order.

    Returns
    -------
    value : complex array (m, k)
        Each integral at the first level where its change from the level
        before, relative to its own max-norm, is below TOL.
    err : float
        That last change of each integral, the largest over the m.

    An integral still open at MAX_LEVEL raises QuadratureError, naming
    how many of the stack were open and the index of the one whose last
    change was largest.
    """
    # the first test needs levels BASE_LEVEL and BASE_LEVEL + 1: one call
    u, d0, d1 = _first_nodes()
    vals = g(u, d0, d1)
    w = _nodes(BASE_LEVEL)[3]
    first, vals = vals[:len(w)], vals[len(w):]
    acc = (w @ first.reshape(len(w), -1)).reshape(vals.shape[1:])
    value = np.empty_like(acc)
    err = np.zeros(len(acc))
    est = 2.0 ** (-BASE_LEVEL) * acc
    live = np.arange(len(acc))     # the open integrals, by stack index
    for level in range(BASE_LEVEL + 1, MAX_LEVEL + 1):
        u, d0, d1, w = _nodes(level)
        if level > BASE_LEVEL + 1:
            vals = g(u, d0, d1)
        acc = acc + (w @ vals.reshape(len(u), -1)).reshape(acc.shape)
        new = 2.0 ** (-level) * acc
        scale = np.maximum(np.max(np.abs(new), axis=-1), 1e-300)
        change = np.max(np.abs(new - est), axis=-1) / scale
        done = change < TOL
        if done.all():
            value[live], err[live] = new, change
            return value, float(err.max())
        if done.any():
            value[live[done]], err[live[done]] = new[done], change[done]
            keep = ~done
            live, acc, new = live[keep], acc[keep], new[keep]
            change = change[keep]
            narrow(live)
        est = new
    worst = int(np.argmax(change))
    raise QuadratureError(
        f"tanh-sinh did not reach rel. tol {TOL:g} by level {MAX_LEVEL}: "
        f"{len(live)} of the {len(value)} integrals of the stack still "
        f"open, the worst at stack index {int(live[worst])} (last change "
        f"{float(change[worst]):.2e})")
