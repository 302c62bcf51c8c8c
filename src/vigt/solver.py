"""Sparse nonlinear least-squares over manifolds.

Levenberg-Marquardt with multiplicative damping, optional Schur elimination
of 3-dim point blocks, robust losses, marginal covariance extraction from
the whitened Gauss-Newton Hessian, and per-group variance factors.
Residual blocks stack the rows of one factor, so a factor family is
evaluated and linearized as arrays, one callback per block.

A Problem is exclusively owned while :func:`solve` runs; residual and
Jacobian callbacks must be pure functions of the parameter values.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .errors import RankDeficientError, SolverError, VigtError
from .geometry import RigidPose, Rotation, Similarity


class Manifold(enum.Enum):
    EUCLIDEAN = "euclidean"
    ROTATION = "rotation"
    RIGID_POSE = "rigid-pose"
    SIMILARITY = "similarity"


def _infer_manifold(value) -> Manifold:
    if isinstance(value, Rotation):
        return Manifold.ROTATION
    if isinstance(value, RigidPose):
        return Manifold.RIGID_POSE
    if isinstance(value, Similarity):
        return Manifold.SIMILARITY
    return Manifold.EUCLIDEAN


def tangent_dim(manifold: Manifold, value) -> int:
    if manifold is Manifold.EUCLIDEAN:
        return int(np.asarray(value).size)
    if manifold is Manifold.ROTATION:
        return 3
    if manifold is Manifold.RIGID_POSE:
        return 6
    return 7


def retract(manifold: Manifold, value, delta: np.ndarray):
    """Local update: rotations right-multiply Exp(d), translations add,
    scale updates multiplicatively through the log-scale coordinate."""
    if manifold is Manifold.EUCLIDEAN:
        return np.asarray(value, dtype=float) + delta
    if manifold is Manifold.ROTATION:
        return value @ Rotation.exp(delta)
    if manifold is Manifold.RIGID_POSE:
        return RigidPose(
            value.rotation @ Rotation.exp(delta[:3]),
            value.translation + delta[3:6],
        )
    return Similarity(
        value.scale * float(np.exp(delta[6])),
        value.rotation @ Rotation.exp(delta[:3]),
        value.translation + delta[3:6],
    )


@dataclass
class HuberLoss:
    """Huber loss of each row's squared whitened norm."""

    delta: float = 2.0

    def weight(self, sq_norm: np.ndarray) -> np.ndarray:
        d2 = self.delta**2
        return np.where(sq_norm <= d2, 1.0, self.delta / np.sqrt(np.maximum(sq_norm, d2)))

    def cost(self, sq_norm: np.ndarray) -> np.ndarray:
        d2 = self.delta**2
        return np.where(
            sq_norm <= d2, sq_norm, 2.0 * self.delta * np.sqrt(np.maximum(sq_norm, d2)) - d2
        )


@dataclass
class ParameterBlock:
    id: str
    value: object
    manifold: Manifold
    constant: bool = False
    eliminate: bool = False

    @property
    def dim(self) -> int:
        return tangent_dim(self.manifold, self.value)


@dataclass
class ResidualBlock:
    """N stacked rows of one factor, each a d-dimensional residual.

    `params` holds one slot per factor argument, each naming the N
    parameter blocks its rows read. `fn` takes one sequence of N values per
    slot and returns (N, d) residuals; `jac`, if given, returns one
    (N, d, k) tangent Jacobian per slot. Row n may depend only on the
    values at position n of each slot (a slot whose rows all name one
    block may be read from any position). The covariance is (d, d), shared
    by all rows, or (N, d, d).
    """

    id: str
    group: str
    params: tuple[tuple[str, ...], ...]
    fn: Callable
    covariance: np.ndarray
    jac: Callable | None = None
    loss: HuberLoss | None = None
    whitener: np.ndarray = field(init=False)

    def __post_init__(self):
        self.set_covariance(self.covariance)

    @property
    def rows(self) -> int:
        return len(self.params[0])

    @property
    def dim(self) -> int:
        return self.covariance.shape[-1]

    def set_covariance(self, cov: np.ndarray):
        cov = np.atleast_2d(np.asarray(cov, dtype=float))
        d = cov.shape[-1]
        if cov.shape not in ((d, d), (self.rows, d, d)):
            raise ValueError(
                f"residual '{self.id}': covariance of shape {cov.shape} is"
                f" neither (d, d) nor ({self.rows}, d, d)"
            )
        self.covariance = cov
        self.whitener = _inverse_sqrt(cov, self.id)


def _inverse_sqrt(cov: np.ndarray, rid: str) -> np.ndarray:
    """Symmetric inverse square roots of a (d, d) or (N, d, d) stack;
    diagonal matrices are inverted elementwise."""
    diag = np.diagonal(cov, axis1=-2, axis2=-1)
    is_diag = np.all(cov == diag[..., None] * np.eye(cov.shape[-1]), axis=(-2, -1))
    out = np.empty_like(cov)
    if np.any(is_diag):
        if diag[is_diag].min() <= 0.0:
            raise ValueError(f"residual '{rid}': covariance not positive-definite")
        out[is_diag] = (1.0 / np.sqrt(diag[is_diag]))[..., None] * np.eye(cov.shape[-1])
    full = ~is_diag
    if np.any(full):
        sym = 0.5 * (cov[full] + np.swapaxes(cov[full], -1, -2))
        w, v = np.linalg.eigh(sym)
        if w.min() <= 0.0:
            raise ValueError(f"residual '{rid}': covariance not positive-definite")
        out[full] = (v * (1.0 / np.sqrt(w))[..., None, :]) @ np.swapaxes(v, -1, -2)
    return out


class Problem:
    """Container of parameter blocks and residual blocks."""

    def __init__(self):
        self.params: dict[str, ParameterBlock] = {}
        self.residuals: dict[str, ResidualBlock] = {}

    def add_parameter_block(
        self,
        pid: str,
        value,
        manifold: Manifold | None = None,
        *,
        constant: bool = False,
        eliminate: bool = False,
    ) -> ParameterBlock:
        if pid in self.params:
            raise ValueError(f"duplicate parameter block '{pid}'")
        if manifold is None:
            manifold = _infer_manifold(value)
        if manifold is Manifold.EUCLIDEAN:
            value = np.asarray(value, dtype=float).reshape(-1)
        block = ParameterBlock(pid, value, manifold, constant, eliminate)
        if eliminate and not (manifold is Manifold.EUCLIDEAN and block.dim == 3):
            raise ValueError("only 3-dim euclidean blocks can be Schur-eliminated")
        self.params[pid] = block
        return block

    def add_stacked_block(
        self,
        fn: Callable,
        params: Sequence[Sequence[str]],
        covariance,
        *,
        group: str = "generic",
        jac: Callable | None = None,
        loss: HuberLoss | None = None,
        rid: str | None = None,
    ) -> ResidualBlock:
        """Add N rows of one factor; see :class:`ResidualBlock`."""
        if rid is None:
            rid = f"r{len(self.residuals)}"
        if rid in self.residuals:
            raise ValueError(f"duplicate residual block '{rid}'")
        slots = tuple(tuple(slot) for slot in params)
        if not slots or not slots[0] or len({len(s) for s in slots}) != 1:
            raise ValueError(f"residual '{rid}': slots must name the same N >= 1 rows")
        for slot in slots:
            for pid in slot:
                if pid not in self.params:
                    raise ValueError(f"residual '{rid}' references unknown block '{pid}'")
            if len({self.params[pid].dim for pid in slot}) != 1:
                raise ValueError(f"residual '{rid}': blocks of one slot differ in dimension")
        block = ResidualBlock(rid, group, slots, fn, covariance, jac, loss)
        self.residuals[rid] = block
        return block

    def add_residual_block(
        self,
        fn: Callable,
        params: Sequence[str],
        covariance,
        *,
        group: str = "generic",
        jac: Callable | None = None,
        loss: HuberLoss | None = None,
        rid: str | None = None,
    ) -> ResidualBlock:
        """Add one residual row: `fn` takes one value per parameter block
        and returns a d-vector, `jac` one (d, k) Jacobian per block."""

        def stacked_fn(*slots):
            return np.asarray(fn(*[s[0] for s in slots]), dtype=float).reshape(1, -1)

        def stacked_jac(*slots):
            return [np.asarray(j, dtype=float)[None] for j in jac(*[s[0] for s in slots])]

        return self.add_stacked_block(
            stacked_fn,
            [[pid] for pid in params],
            covariance,
            group=group,
            jac=None if jac is None else stacked_jac,
            loss=loss,
            rid=rid,
        )

    def value(self, pid: str):
        return self.params[pid].value

    def groups(self) -> list[str]:
        seen = dict.fromkeys(r.group for r in self.residuals.values())
        return list(seen)

    def scale_group_covariance(self, group: str, factor: float):
        """Multiply every measurement covariance in a residual group."""
        if factor <= 0.0:
            raise ValueError("covariance scale factor must be positive")
        for block in self.residuals.values():
            if block.group == group:
                block.set_covariance(block.covariance * factor)


@dataclass(frozen=True)
class SolveOptions:
    max_iters: int = 100


# A Levenberg-Marquardt solve has converged once a step lowers the cost by
# at most this fraction of it, or once no damping lowers the cost and the
# Gauss-Newton model promises no more than that.
CONVERGENCE_TOL = 1e-12
_INITIAL_LAMBDA = 1e-4
_LAMBDA_MAX = 1e10
_COST_TOL_REL = 1e-16  # declare victory below this fraction of initial cost
_FD_STEP = 1e-7  # forward-difference step for blocks without a Jacobian


@dataclass
class SolveReport:
    initial_cost: float
    final_cost: float
    iterations: int
    termination: str
    group_residuals: dict[str, np.ndarray]
    group_redundancy: dict[str, int]
    cost_history: list[float]
    group_rss_history: list[dict[str, float]]

    @property
    def success(self) -> bool:
        return self.termination == "converged"


class _Workspace:
    """Static structure of a problem: tangent indexing, row layout and the
    sparsity pattern of the whitened Jacobian."""

    def __init__(self, problem: Problem):
        self.problem = problem
        self.free = [b for b in problem.params.values() if not b.constant]
        if not self.free:
            raise SolverError("problem has no free parameter blocks")
        retained = [b for b in self.free if not b.eliminate]
        eliminated = [b for b in self.free if b.eliminate]
        self.offsets: dict[str, int] = {}
        cursor = 0
        for b in retained + eliminated:
            self.offsets[b.id] = cursor
            cursor += b.dim
        self.n_tangent = cursor
        self.n_retained = sum(b.dim for b in retained)
        self.eliminated = eliminated

        # per block: first row, and per slot the rows on a free block;
        # Jacobian entries of the other rows are never stored. The COO
        # indices list each slot's (row, residual dim, tangent dim) in order.
        self.rows: dict[str, int] = {}
        self.free_rows: dict[str, list[np.ndarray]] = {}
        rows_idx, cols_idx = [], []
        cursor = 0
        for r in problem.residuals.values():
            self.rows[r.id] = cursor
            self.free_rows[r.id] = []
            for slot in r.params:
                free = np.flatnonzero([pid in self.offsets for pid in slot])
                self.free_rows[r.id].append(free)
                if free.size:
                    k = problem.params[slot[0]].dim
                    rows = cursor + (free[:, None] * r.dim + np.arange(r.dim))
                    cols = np.array([self.offsets[slot[n]] for n in free])
                    rows_idx.append(rows.repeat(k, axis=1).ravel())
                    cols_idx.append(np.tile(cols[:, None] + np.arange(k), r.dim).ravel())
            cursor += r.rows * r.dim
        self.n_rows = cursor
        self.pattern = (
            np.concatenate(rows_idx or [np.zeros(0, dtype=int)]),
            np.concatenate(cols_idx or [np.zeros(0, dtype=int)]),
        )

        self.redundancy = self._group_redundancy()

    def _group_redundancy(self) -> dict[str, int]:
        by_group_rows: dict[str, int] = {}
        param_groups: dict[str, set[str]] = {}
        for r in self.problem.residuals.values():
            by_group_rows[r.group] = by_group_rows.get(r.group, 0) + r.rows * r.dim
            for slot in r.params:
                for pid in slot:
                    param_groups.setdefault(pid, set()).add(r.group)
        redundancy = {}
        for group, rows in by_group_rows.items():
            exclusive = sum(
                self.problem.params[pid].dim
                for pid, groups in param_groups.items()
                if groups == {group} and not self.problem.params[pid].constant
            )
            redundancy[group] = rows - exclusive
        return redundancy

    @staticmethod
    def slot_values(r: ResidualBlock, values: dict[str, object]) -> list[list]:
        return [[values[pid] for pid in slot] for slot in r.params]

    def evaluate(self, values: dict[str, object]) -> tuple[float, dict[str, np.ndarray], dict[str, float]]:
        """Robust cost, whitened (N, d) residuals per block, raw rss per group."""
        cost = 0.0
        whitened: dict[str, np.ndarray] = {}
        group_rss: dict[str, float] = {}
        for r in self.problem.residuals.values():
            raw = np.asarray(r.fn(*self.slot_values(r, values)), dtype=float)
            if raw.shape != (r.rows, r.dim):
                raise SolverError(
                    f"residual '{r.id}' returned shape {raw.shape},"
                    f" expected {(r.rows, r.dim)}",
                    block_id=r.id,
                )
            if not np.all(np.isfinite(raw)):
                raise SolverError(
                    f"non-finite residual in block '{r.id}'", block_id=r.id
                )
            w = (r.whitener @ raw[..., None])[..., 0]
            whitened[r.id] = w
            sq = np.einsum("ni,ni->n", w, w)
            group_rss[r.group] = group_rss.get(r.group, 0.0) + float(sq.sum())
            cost += 0.5 * float((r.loss.cost(sq) if r.loss else sq).sum())
        return cost, whitened, group_rss

    def try_evaluate(self, values):
        """Like evaluate, but a failing trial state just reports inf cost."""
        try:
            return self.evaluate(values)
        except VigtError:
            return np.inf, {}, {}

    def linearize(
        self, values: dict[str, object], whitened: dict[str, np.ndarray]
    ) -> tuple[scipy.sparse.csr_matrix, np.ndarray]:
        """Whitened, robust-scaled Jacobian and residual vector."""
        data = []
        rhs = np.zeros(self.n_rows)
        for r in self.problem.residuals.values():
            row0 = self.rows[r.id]
            slots = self.slot_values(r, values)
            jacs = r.jac(*slots) if r.jac is not None else _forward_difference_jacobians(r, slots)
            w = whitened[r.id]
            scale = (
                np.sqrt(r.loss.weight(np.einsum("ni,ni->n", w, w)))[:, None]
                if r.loss
                else 1.0
            )
            rhs[row0 : row0 + r.rows * r.dim] = (scale * w).ravel()
            for slot, jac, free in zip(r.params, jacs, self.free_rows[r.id]):
                if not free.size:
                    continue
                jac = np.asarray(jac, dtype=float)
                expected = (r.rows, r.dim, self.problem.params[slot[0]].dim)
                if jac.shape != expected:
                    raise SolverError(
                        f"residual '{r.id}': Jacobian for '{slot[0]}' has shape"
                        f" {jac.shape}, expected {expected}",
                        block_id=r.id,
                    )
                jw = (r.whitener @ jac)[free]
                if not np.all(np.isfinite(jw)):
                    raise SolverError(
                        f"non-finite Jacobian in block '{r.id}'", block_id=r.id
                    )
                if r.loss:
                    jw *= scale[free, :, None]
                data.append(jw.ravel())
        jac_matrix = scipy.sparse.coo_matrix(
            (np.concatenate(data or [np.zeros(0)]), self.pattern),
            shape=(self.n_rows, self.n_tangent),
        ).tocsr()
        return jac_matrix, rhs

    def apply_step(self, values: dict[str, object], delta: np.ndarray) -> dict[str, object]:
        out = dict(values)
        for b in self.free:
            off = self.offsets[b.id]
            out[b.id] = retract(b.manifold, values[b.id], delta[off : off + b.dim])
        return out


def _forward_difference_jacobians(block: ResidualBlock, slots: list[list]):
    """(N, d, k) Jacobians per slot: each tangent direction perturbs the
    slot's value in every row at once, as row n reads only position n."""
    base = np.asarray(block.fn(*slots), dtype=float)
    jacs = []
    for i, vals in enumerate(slots):
        manifold = _infer_manifold(vals[0])
        dim = tangent_dim(manifold, vals[0])
        jac = np.zeros(base.shape + (dim,))
        for d in range(dim):
            delta = np.zeros(dim)
            delta[d] = _FD_STEP
            perturbed = list(slots)
            perturbed[i] = [retract(manifold, v, delta) for v in vals]
            jac[..., d] = (np.asarray(block.fn(*perturbed), dtype=float) - base) / _FD_STEP
        jacs.append(jac)
    return jacs


def _solve_normal_equations(
    ws: _Workspace, hess: scipy.sparse.csr_matrix, grad: np.ndarray
) -> np.ndarray:
    """Solve H d = -g, Schur-eliminating flagged point blocks.

    The eliminated part of H must be block diagonal, one 3x3 block per
    point: a residual row that reads two eliminated points couples them,
    which raises ValueError. Memory stays linear in the number of points.
    """
    n_r = ws.n_retained
    if not ws.eliminated or n_r == 0:
        return _sparse_solve(hess, -grad)

    h_rr = hess[:n_r, :n_r]
    h_re = hess[:n_r, n_r:].tocsr()
    h_ee = hess[n_r:, n_r:].tocoo()
    h_ee.sum_duplicates()
    g_r, g_e = grad[:n_r], grad[n_r:]

    point_row, point_col = h_ee.row // 3, h_ee.col // 3
    if np.any((point_row != point_col) & (h_ee.data != 0.0)):
        raise ValueError(
            "a residual row reads two Schur-eliminated point blocks; their"
            " coupling cannot be eliminated point by point"
        )
    on_block = point_row == point_col
    n_e = ws.n_tangent - n_r
    blocks = np.zeros((n_e // 3, 3, 3))
    blocks[point_row[on_block], h_ee.row[on_block] % 3, h_ee.col[on_block] % 3] = (
        h_ee.data[on_block]
    )
    # block-diagonal CSR: row 3p + i holds row i of point p's inverse
    h_ee_inv = scipy.sparse.csr_matrix(
        (
            np.linalg.inv(blocks).ravel(),
            np.arange(n_e).reshape(-1, 3).repeat(3, axis=0).ravel(),
            np.arange(0, 3 * n_e + 1, 3),
        ),
        shape=(n_e, n_e),
    )

    reduced = (h_rr - h_re @ h_ee_inv @ h_re.T).tocsc()
    rhs = -(g_r - h_re @ (h_ee_inv @ g_e))
    d_r = _sparse_solve(reduced, rhs)
    d_e = h_ee_inv @ (-g_e - h_re.T @ d_r)
    return np.concatenate([d_r, d_e])


def _sparse_solve(mat, rhs: np.ndarray) -> np.ndarray:
    if mat.shape[0] < 80:
        return np.linalg.solve(mat.toarray(), rhs)
    return scipy.sparse.linalg.spsolve(mat.tocsc(), rhs)


def _model_decrease(jac, grad: np.ndarray, delta: np.ndarray) -> float:
    """Largest decrease of the Gauss-Newton model along `delta`, taken at
    its best step length, so heavy damping alone does not shrink it."""
    curvature = float(np.sum((jac @ delta) ** 2))
    slope = float(grad @ delta)
    return slope * slope / (2.0 * curvature) if curvature > 0.0 else 0.0


def solve(problem: Problem, options: SolveOptions = SolveOptions()) -> SolveReport:
    """Minimize the problem in place; returns the report.

    Terminations: "converged" (a step lowered the cost by at most
    CONVERGENCE_TOL of it, the cost reached the zero-residual floor, or no
    damping lowers the cost at the numerical floor), "no_progress" (no
    damping lowers the cost, though the model promises a decrease) and
    "max_iterations".
    """
    ws = _Workspace(problem)
    values = {pid: b.value for pid, b in problem.params.items()}

    cost, whitened, group_rss = ws.evaluate(values)
    initial_cost = cost
    cost_history = [cost]
    rss_history = [dict(group_rss)]

    lam = _INITIAL_LAMBDA
    iterations = 0
    termination = "max_iterations"

    for iterations in range(1, options.max_iters + 1):
        jac, rhs = ws.linearize(values, whitened)
        grad = jac.T @ rhs
        hess = (jac.T @ jac).tocsr()
        diag = np.maximum(hess.diagonal(), 1e-12)

        promised = None  # model decrease along the least-damped step
        while lam <= _LAMBDA_MAX:
            damped = hess + scipy.sparse.diags(lam * diag)
            try:
                delta = _solve_normal_equations(ws, damped, grad)
            except (np.linalg.LinAlgError, RuntimeError):  # singular factorization
                lam *= 10.0
                continue
            if not np.all(np.isfinite(delta)):
                lam *= 10.0
                continue
            if promised is None:
                promised = _model_decrease(jac, grad, delta)
            trial = ws.apply_step(values, delta)
            trial_cost, trial_whitened, trial_rss = ws.try_evaluate(trial)
            if trial_cost < cost:
                break
            lam *= 10.0
        else:
            # no damping lowers the cost: at the numerical floor only if the
            # model promised no more than the convergence tolerance
            floor = promised is not None and promised <= CONVERGENCE_TOL * cost
            termination = "converged" if floor else "no_progress"
            break

        converged = cost - trial_cost <= CONVERGENCE_TOL * cost
        values, cost = trial, trial_cost
        whitened, group_rss = trial_whitened, trial_rss
        lam = max(lam * 0.1, 1e-15)
        cost_history.append(cost)
        rss_history.append(dict(group_rss))
        if converged or cost <= _COST_TOL_REL * initial_cost:
            termination = "converged"
            break

    for pid, v in values.items():
        problem.params[pid].value = v

    group_res: dict[str, np.ndarray] = {}
    for r in problem.residuals.values():
        group_res.setdefault(r.group, []).append(whitened[r.id].ravel())
    group_res = {g: np.concatenate(parts) for g, parts in group_res.items()}

    return SolveReport(
        initial_cost=initial_cost,
        final_cost=cost,
        iterations=iterations,
        termination=termination,
        group_residuals=group_res,
        group_redundancy=dict(ws.redundancy),
        cost_history=cost_history,
        group_rss_history=rss_history,
    )


def variance_factor(report: SolveReport, group: str) -> float:
    """Ratio of whitened residual energy to redundancy for one group."""
    if group not in report.group_residuals:
        raise KeyError(f"no residual group '{group}' in report")
    redundancy = report.group_redundancy[group]
    if redundancy <= 0:
        raise ValueError(
            f"group '{group}' has redundancy {redundancy}; variance factor undefined"
        )
    res = report.group_residuals[group]
    return float(res @ res) / redundancy


def _gauss_newton_hessian(problem: Problem):
    ws = _Workspace(problem)
    values = {pid: b.value for pid, b in problem.params.items()}
    _, whitened, _ = ws.evaluate(values)
    jac, _ = ws.linearize(values, whitened)
    return ws, (jac.T @ jac).tocsc()


def marginal_covariances(
    problem: Problem, block_ids: Sequence[str]
) -> dict[str, np.ndarray]:
    """Tangent-space marginal covariance of the requested blocks.

    The problem must be at its solution and gauge-fixed (through constant
    blocks, prior factors, or absolute measurements); a singular Hessian
    raises :class:`RankDeficientError` with the estimated null-space
    dimension.
    """
    for pid in block_ids:
        if pid not in problem.params:
            raise KeyError(f"unknown parameter block '{pid}'")
        if problem.params[pid].constant:
            raise ValueError(f"block '{pid}' is constant; covariance undefined")
    ws, hess = _gauss_newton_hessian(problem)

    dense = hess.shape[0] <= 600
    try:
        if dense:
            chol = scipy.linalg.cho_factor(hess.toarray())
            solve_cols = lambda rhs: scipy.linalg.cho_solve(chol, rhs)
        else:
            lu = scipy.sparse.linalg.splu(hess.tocsc())
            u_diag = np.abs(lu.U.diagonal())
            if u_diag.min() < 1e-12 * max(u_diag.max(), 1.0):
                raise np.linalg.LinAlgError("near-singular factorization")
            solve_cols = lu.solve
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError, RuntimeError):
        nullity = _estimate_nullity(hess)
        raise RankDeficientError(
            f"Gauss-Newton Hessian is rank-deficient"
            f" (null-space dimension {nullity}); fix the gauge first",
            nullity=nullity,
        ) from None

    out = {}
    for pid in block_ids:
        off = ws.offsets[pid]
        dim = problem.params[pid].dim
        rhs = np.zeros((hess.shape[0], dim))
        rhs[np.arange(off, off + dim), np.arange(dim)] = 1.0
        cols = solve_cols(rhs)
        block = cols[off : off + dim, :]
        out[pid] = 0.5 * (block + block.T)
    return out


def marginal_covariance(problem: Problem, block_id: str) -> np.ndarray:
    return marginal_covariances(problem, [block_id])[block_id]


def _estimate_nullity(hess) -> int:
    n = hess.shape[0]
    if n <= 2000:
        w = np.linalg.eigvalsh(hess.toarray())
        scale = max(float(w.max()), 1.0)
        return int(np.sum(w < 1e-10 * scale))
    k = min(12, n - 1)
    w = scipy.sparse.linalg.eigsh(hess, k=k, sigma=0.0, return_eigenvectors=False)
    return int(np.sum(np.abs(w) < 1e-10))


def write_diagnostics(report: SolveReport, fh) -> None:
    """Per-iteration cost and per-group variance factors as CSV text."""
    groups = list(report.group_redundancy)
    fh.write("iteration,cost," + ",".join(f"vf_{g}" for g in groups) + "\n")
    for i, (cost, rss) in enumerate(zip(report.cost_history, report.group_rss_history)):
        cells = [str(i), repr(float(cost))]
        for g in groups:
            red = report.group_redundancy[g]
            cells.append(repr(rss[g] / red) if red > 0 else "")
        fh.write(",".join(cells) + "\n")
