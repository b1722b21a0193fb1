"""The KDEy-ML quantifier and the mixture solver, for class-prevalence
estimation on unlabelled bags.

:class:`ClassDensities` (:func:`fit_kdey`) holds per-class Gaussian KDEs
fitted on the posterior vectors of validation instances, and
:func:`em_weights_batch` the mixture weights that maximize the likelihood of
a bag's rows under them. Which quantifier a predictor holds, and so what its
rows are, is :mod:`cap`'s decision (:meth:`cap.CapStack.rows`). A row's
densities depend on that row only, so each row is evaluated once however
many bags or repeats hold it, bit for bit as if alone.

A model's KDE rows are two GEMMs over the stacked supports of all classes,
with the log-sum-exp shift folded into the second, and the query points along
the columns in chunks under a fixed element budget (see
:meth:`ClassDensities.evaluate`).

The objective L(a) = sum_x log sum_j a_j f_j(s(x)) is concave in the mixture
weights, so its maximum over the simplex is global and is characterized by
the KKT conditions: with g = grad L, g_j = m (the bag size) where a_j > 0 and
g_j <= m where a_j = 0. The solver warm-starts with a few EM (multiplicative)
updates, then takes damped Newton steps with an active set (projected Newton,
Bertsekas 1982), which reach such a point, boundary optima included, in a
handful of steps where EM converges sublinearly. Densities are handled as
logs throughout, so small bandwidths lose nothing to underflow. The LEAP
solver in :mod:`cap` shares the Newton direction and the boundary step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dataspace import DataError, LabelledSet
from .classifiers import BLAS_PANEL, CHUNK_ELEMENTS, max_rows

DEFAULT_BANDWIDTH = 0.1
EM_TOL = 1e-6
EM_MAX_ITER = 1000
EM_WARM_STEPS = 3       # EM steps before the first Newton step
NEWTON_RIDGE = 1e-12    # relative ridge on the Newton system


@dataclass(frozen=True)
class ClassDensities:
    """The KDEy-ML quantifier: per-class KDE support points (posterior rows)
    and a shared bandwidth. Its class log densities (:meth:`evaluate`) are
    the rows that the mixture solver reduces."""

    support: tuple          # one (m_j, n_classes) array per class
    bandwidth: float

    def __post_init__(self):
        if isinstance(self.bandwidth, bool) or not 0 < self.bandwidth < np.inf:
            raise ValueError("bandwidth must be a positive finite number, "
                             f"got {self.bandwidth!r}")
        for j, S in enumerate(self.support):
            if S.ndim != 2 or not len(S) or S.shape[1] != len(self.support):
                raise ValueError(f"class {j} has invalid support shape {S.shape}")
            if not np.isfinite(S).all():
                raise ValueError(f"class {j} has a non-finite support value")

    @cached_property
    def _stacked(self):
        """The bag-independent parts of :meth:`evaluate`, built on its first
        call, so loading a registry does no work for them: the supports of
        all classes stacked into one matrix At = [S, -|s|^2 / (2 h^2),
        one-hot(class)] of shape (N, 2n + 1), its first n + 1 columns (a
        view), each class's block of rows as a slice, the class sizes and the
        log normalizer."""
        S = np.concatenate(self.support)
        n = len(self.support)
        sizes = [len(Sj) for Sj in self.support]
        At = np.zeros((len(S), 2 * n + 1))
        At[:, :n] = S
        At[:, n] = (-0.5 / self.bandwidth ** 2) * (S * S).sum(axis=1)
        At[np.arange(len(S)), n + 1 + np.repeat(np.arange(n), sizes)] = 1.0
        stops = np.cumsum(sizes)
        blocks = [slice(stop - size, stop) for size, stop in zip(sizes, stops)]
        log_norm = -0.5 * n * np.log(2.0 * np.pi * self.bandwidth ** 2)
        return (At, At[:, :n + 1], blocks, np.array(sizes, dtype=float),
                log_norm)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Log density of each class's KDE at each query row; shape
        (m, n_classes).

        With E = -|p - s|^2 / (2 h^2) over the support points s of class j,
        the log density is log norm + top_j + log mean exp(E - top_j), with
        top_j = max E, so it stays finite however far a row lies from the
        support. All classes are evaluated by two GEMMs over the stacked
        support At (see :attr:`_stacked`), with the points along the columns
        of Pa^T = [P^T / h^2; 1; -top]: ``At[:, :n+1] @ Pa^T[:n+1]`` gives
        E + |p|^2 / (2 h^2), whose maximum over class j's rows is top_j (up
        to that constant); with -top written into Pa^T, ``At @ Pa^T`` gives
        the shifted exponents themselves, so the shift costs no pass of its
        own. The constant |p|^2 / (2 h^2) of each point is added at the end.

        A row's result is bit-identical whatever rows it is evaluated with,
        so a bag's rows equal the matching rows of a test-set evaluation:
        with the points along the columns, each class's maximum and sum run
        down its block of rows, every column in the same order, and the
        scaled points are written into Pa^T zero-padded to whole BLAS panels
        (as :func:`classifiers.panel_rows` pads rows). The points are taken
        in chunks of at most CHUNK_ELEMENTS kernel values, which bounds the
        memory and, by the same invariance, leaves the result unchanged."""
        P = np.asarray(points, dtype=float)
        At, At_head, blocks, sizes, log_norm = self._stacked
        m, n = P.shape[0], len(self.support)
        h2 = self.bandwidth ** 2
        Ph = P / h2
        pp = 0.5 * (P * Ph).sum(axis=1)
        out = np.empty((m, n))
        width = max(CHUNK_ELEMENTS // len(At) // BLAS_PANEL, 1) * BLAS_PANEL
        for lo in range(0, m, width):
            c = min(width, m - lo)
            PaT = np.zeros((2 * n + 1, -(-c // BLAS_PANEL) * BLAS_PANEL))
            PaT[:n, :c] = Ph[lo:lo + c].T
            PaT[n] = 1.0
            ET = At_head @ PaT[:n + 1]
            top = np.empty((n, PaT.shape[1]))
            for j, b in enumerate(blocks):
                ET[b].max(axis=0, out=top[j])
            np.negative(top, out=PaT[n + 1:])
            np.matmul(At, PaT, out=ET)
            np.exp(ET, out=ET)
            sums = np.empty_like(top)
            for j, b in enumerate(blocks):
                ET[b].sum(axis=0, out=sums[j])
            out[lo:lo + c] = (log_norm + (top[:, :c].T - pp[lo:lo + c, None])
                              + np.log(sums[:, :c].T / sizes))
        return out


def fit_kdey(posteriors: np.ndarray, validation: LabelledSet,
             bandwidth: float = DEFAULT_BANDWIDTH) -> ClassDensities:
    """Fit per-class KDEs over a model's posterior rows `posteriors` for the
    validation instances."""
    y = validation.y
    support = []
    for j in range(validation.n_classes):
        S = posteriors[y == j]
        if S.shape[0] == 0:
            raise DataError(f"class {j} missing from validation data")
        support.append(S)
    return ClassDensities(tuple(support), bandwidth)


def em_weights_batch(logF: np.ndarray, tol: float = EM_TOL,
                     max_iter: int = EM_MAX_ITER):
    """Maximize L(a) = sum_x log sum_j a_j exp(logF[i, x, j]) over the
    simplex, for each of the k log-density matrices of the (k, m, n) stack
    logF at once.

    Each row is first rescaled to F = exp(logF - rowmax), which moves L by a
    constant and leaves the argmax alone, so no density under- or overflows.
    Each problem starts uniform, takes EM_WARM_STEPS EM steps, then damped
    Newton steps on the face of the simplex that its active set picks (see
    :func:`_newton_direction` and :func:`_line_search`); no step lowers L. A
    problem stops when the L1 norm of its step (the full Newton step, before
    damping) falls below `tol` (converged; an EM step also needs the
    gradient to meet the KKT conditions to a relative `tol`), when no step
    along its Newton direction keeps L from falling (not converged), or
    after `max_iter` steps. A stopped problem leaves the active set, so the
    others run on without it and every problem gets the iterates a
    single-matrix run would give. `max_iter` only bounds the loop, so the
    iterate after t steps is the result of a run with max_iter=t.

    Returns (alpha (k, n), iterations (k,), converged (k,)).
    """
    logF = np.asarray(logF, dtype=float)
    top = max_rows(logF)
    if not np.isfinite(top).all():
        raise ValueError("every row needs a finite log density for some class")
    # (k, n, m): the class axis first makes every product below contiguous
    FT = np.exp(logF - top).transpose(0, 2, 1).copy()
    k, n, m = FT.shape
    alpha = np.full((k, n), 1.0 / n)
    iterations = np.full(k, max(max_iter, 0))
    converged = np.zeros(k, dtype=bool)
    active, Fa, a = np.arange(k), FT, alpha.copy()
    for it in range(1, max_iter + 1):
        if it <= EM_WARM_STEPS + 1:     # else the line search computed them
            mix, L = _mixture(Fa, a)
        w = 1.0 / mix
        g = np.matmul(Fa, w[:, :, None])[:, :, 0]      # the gradient of L
        if it <= EM_WARM_STEPS:
            new = a * g
            new /= new.sum(axis=1, keepdims=True)
            # an EM step is also small at a weight that is merely near 0, so
            # it ends a problem only where a meets the KKT conditions
            kkt = (np.where(a > 0, np.abs(g - m), g - m) < tol * m).all(axis=1)
            done = stop = kkt & (np.abs(new - a).sum(axis=1) < tol)
        else:
            # the Hessian of L is -G^T G with G = F / mix; a . g = m
            GT = Fa * w[:, None, :]
            Q = np.matmul(GT, GT.transpose(0, 2, 1))
            d = _newton_direction(Q, g, a, m)
            size = np.abs(d).sum(axis=1)
            new, moved, mix, L = _line_search(Fa, a, d, L, size, tol)
            done = size < tol
            stop = done | ~moved
        a = new
        if stop.any():
            alpha[active[stop]] = a[stop]
            iterations[active[stop]] = it
            converged[active[stop]] = done[stop]
            active, Fa, a = active[~stop], Fa[~stop], a[~stop]
            mix, L = mix[~stop], L[~stop]
            if not active.size:
                break
    alpha[active] = a
    return alpha, iterations, converged


def _mixture(FT: np.ndarray, a: np.ndarray):
    """The mixture densities F a, (k, m), and the log-likelihood sum_x log
    (F a)_x per problem, from the (k, n, m) stack F^T; the log-likelihood is
    -inf where a mixture density is 0."""
    mix = np.matmul(a[:, None, :], FT)[:, 0, :]
    with np.errstate(divide="ignore"):
        return mix, np.log(mix).sum(axis=1)


def _newton_direction(Q: np.ndarray, g: np.ndarray, a: np.ndarray, mu):
    """Newton direction of a concave objective at each point a (rows of a
    (k, n) stack), restricted to the face of the simplex its active set
    picks.

    `g` is the objective's gradient at a and -Q its Hessian, a (k, n, n)
    stack. `mu` is the KKT multiplier of sum(a) = 1 (scalar or (k, 1)): at
    the optimum g_j = mu where a_j > 0 and g_j <= mu where a_j = 0, so a
    weight at 0 is free to grow only if its g_j > mu. On the free set the
    direction solves Q d = g - mu with sum(d) = 0 (one solve, right-hand
    sides g and 1); a weight at 0 whose direction points outward is dropped
    from the free set and the direction solved again. A relative ridge of
    NEWTON_RIDGE keeps Q invertible when it is singular; it does not move
    the fixed point.
    """
    positive = a > 0
    free = positive | (g > mu)
    d = _free_direction(Q, g, free)
    if positive.all():      # no weight at 0, so none can point outward
        return d
    # only the problems with a weight at 0 pointing outward are solved again
    outward = free & (a == 0) & (d < 0)
    again = outward.any(axis=1)
    todo, outward = np.flatnonzero(again), outward[again]
    while todo.size:
        f = free[todo] & ~outward
        free[todo] = f
        d[todo] = _free_direction(Q[todo], g[todo], f)
        outward = f & (a[todo] == 0) & (d[todo] < 0)
        again = outward.any(axis=1)
        todo, outward = todo[again], outward[again]
    return d


def _free_direction(Q: np.ndarray, g: np.ndarray, f: np.ndarray):
    """The direction of :func:`_newton_direction` on the free sets `f`
    (a (k, n) mask), for every problem of the stack."""
    k, n = g.shape
    A = np.where(f[:, :, None] & f[:, None, :], Q, 0.0)
    q = A.reshape(k, n * n)[:, ::n + 1]     # a view of the diagonals
    ridge = NEWTON_RIDGE * q.sum(axis=1) / f.sum(axis=1)
    q[...] = np.where(f, q + ridge[:, None], 1.0)
    rhs = np.zeros((k, n, 2))
    np.copyto(rhs[:, :, 0], g, where=f)
    rhs[:, :, 1] = f
    uv = np.linalg.solve(A, rhs)
    u, v = uv[:, :, 0], uv[:, :, 1]
    return u - (u.sum(axis=1) / v.sum(axis=1))[:, None] * v


def _simplex_step(a: np.ndarray, d: np.ndarray, scale=1.0):
    """Step scale * t0 from each a along d (sum(d) = 0), where t0 = min(1,
    the step to the simplex boundary); the weights that step reaches are
    pinned to exactly 0. Returns (new points, steps)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        reach = np.where(d < 0, a / -d, np.inf)
    t = np.minimum(reach.min(axis=1), 1.0) * scale
    new = a + t[:, None] * d
    new[reach <= t[:, None]] = 0.0
    np.maximum(new, 0.0, out=new)
    new /= new.sum(axis=1, keepdims=True)
    return new, t


def _line_search(FT: np.ndarray, a: np.ndarray, d: np.ndarray, L: np.ndarray,
                 size: np.ndarray, tol: float):
    """Damped step from each a along d (of L1 norm `size`): the first of t0,
    t0/2, t0/4, ... (see :func:`_simplex_step`) whose log-likelihood is no
    lower than L. Halving stops once a step's L1 norm is below `tol`; a
    problem with no acceptable step by then keeps its weights. Returns (new
    weights, moved, and where moved, the :func:`_mixture` of the new
    weights)."""
    new, t = _simplex_step(a, d)
    mix, L_new = _mixture(FT, new)
    moved = L_new >= L
    if moved.all():         # every full step is taken
        return new, moved, mix, L_new
    # the problems whose full step failed halve it, all at the same scale
    todo = np.flatnonzero(~moved)
    new[todo] = a[todo]
    t, scale = t[todo], 1.0
    while True:
        todo = todo[0.5 * t * size[todo] >= tol]
        if not todo.size:
            return new, moved, mix, L_new
        scale *= 0.5
        trial, t = _simplex_step(a[todo], d[todo], scale)
        trial_mix, trial_L = _mixture(FT[todo], trial)
        ok = trial_L >= L[todo]
        new[todo[ok]], mix[todo[ok]] = trial[ok], trial_mix[ok]
        L_new[todo[ok]] = trial_L[ok]
        moved[todo[ok]] = True
        todo, t = todo[~ok], t[~ok]
