"""Sparse nonlinear least-squares over manifolds.

Levenberg-Marquardt with multiplicative damping, optional Schur elimination
of 3-dim point blocks, robust losses, marginal covariance extraction from
the whitened Gauss-Newton Hessian, and per-group variance factors.
Residual blocks stack the rows of one factor, so a factor family is
evaluated and linearized as arrays, one callback per block.

Parameter values are packed float rows: a Euclidean (d,) vector (tangent
d), a rotation's unit quaternion [qw qx qy qz] (tangent 3), a rigid pose
[q | t] (tangent 6: rotation, translation) and a similarity [q | t | s]
(tangent 7: rotation, translation, log-scale). Rotations update on the
right, translations add, the scale multiplies by the exponential of its
tangent coordinate. During a solve all rows live in one flat value
vector, and a factor reads each slot as one (N, size) array of rows.

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
from .geometry import RigidPose, Rotation, Similarity, quat_exp, quat_multiply


class Manifold(enum.Enum):
    EUCLIDEAN = "euclidean"
    ROTATION = "rotation"
    RIGID_POSE = "rigid-pose"
    SIMILARITY = "similarity"


# tangent dimension of the non-Euclidean kinds; their rows hold one more entry
_TANGENT_DIM = {Manifold.ROTATION: 3, Manifold.RIGID_POSE: 6, Manifold.SIMILARITY: 7}


def _pack(value) -> tuple[Manifold, np.ndarray]:
    """Kind and value row of a parameter value."""
    if isinstance(value, Rotation):
        return Manifold.ROTATION, value.quat.copy()
    if isinstance(value, RigidPose):
        return Manifold.RIGID_POSE, np.concatenate([value.rotation.quat, value.translation])
    if isinstance(value, Similarity):
        row = np.concatenate([value.rotation.quat, value.translation, [value.scale]])
        return Manifold.SIMILARITY, row
    return Manifold.EUCLIDEAN, np.asarray(value, dtype=float).reshape(-1)


def _unpack(manifold: Manifold, row: np.ndarray):
    """Parameter value of a row; Euclidean rows are returned as they are."""
    if manifold is Manifold.ROTATION:
        return Rotation(row)
    if manifold is Manifold.RIGID_POSE:
        return RigidPose(Rotation(row[:4]), row[4:7])
    if manifold is Manifold.SIMILARITY:
        return Similarity(row[7], Rotation(row[:4]), row[4:7])
    return row


def _retract(manifold: Manifold, rows: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Rows moved by tangent steps, one step per row."""
    if manifold is Manifold.EUCLIDEAN:
        return rows + deltas
    out = np.empty_like(rows)
    out[:, :4] = quat_multiply(rows[:, :4], quat_exp(deltas[:, :3]))
    if manifold is not Manifold.ROTATION:
        out[:, 4:7] = rows[:, 4:7] + deltas[:, 3:6]
    if manifold is Manifold.SIMILARITY:
        out[:, 7] = rows[:, 7] * np.exp(deltas[:, 6])
    return out


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
    """One parameter: its kind and its packed value row."""

    id: str
    value: np.ndarray
    manifold: Manifold
    constant: bool = False
    eliminate: bool = False

    @property
    def dim(self) -> int:
        return _TANGENT_DIM.get(self.manifold, self.value.size)


@dataclass
class ResidualBlock:
    """N stacked rows of one factor, each a d-dimensional residual.

    `params` holds one slot per factor argument, each naming the N
    parameter blocks its rows read; the blocks of one slot share their
    kind and row size. `fn` takes one (N, size) array of value rows per
    slot (see the module docstring for the row layouts) and returns (N, d)
    residuals; `jac`, if given, returns one (N, d, k) tangent Jacobian per
    slot. Row n may depend only on row n of each slot (a slot whose rows
    all name one block may be read from any row). The covariance is
    (d, d), shared by all rows, or (N, d, d).
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
        self, pid: str, value, *, constant: bool = False, eliminate: bool = False
    ) -> ParameterBlock:
        """Add a Rotation, RigidPose, Similarity or Euclidean vector; it is
        stored as its value row."""
        if pid in self.params:
            raise ValueError(f"duplicate parameter block '{pid}'")
        manifold, row = _pack(value)
        block = ParameterBlock(pid, row, manifold, constant, eliminate)
        if eliminate and not (block.manifold is Manifold.EUCLIDEAN and block.dim == 3):
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
            if len({(self.params[p].manifold, self.params[p].value.size) for p in slot}) != 1:
                raise ValueError(f"residual '{rid}': blocks of one slot differ in kind or size")
        block = ResidualBlock(rid, group, slots, fn, covariance, jac, loss)
        self.residuals[rid] = block
        return block

    def add_residual_block(
        self, fn: Callable, params: Sequence[str], covariance, *, jac=None, **options
    ) -> ResidualBlock:
        """Add one residual row: `fn` takes one parameter value (as
        :meth:`value` returns it) per block and returns a d-vector, `jac`
        one (d, k) Jacobian per block. The keyword options are those of
        :meth:`add_stacked_block`."""

        def values(slots):
            return [_unpack(self.params[p].manifold, s[0]) for p, s in zip(params, slots)]

        def stacked_fn(*slots):
            return np.asarray(fn(*values(slots)), dtype=float).reshape(1, -1)

        def stacked_jac(*slots):
            return [np.asarray(j, dtype=float)[None] for j in jac(*values(slots))]

        return self.add_stacked_block(
            stacked_fn,
            [[pid] for pid in params],
            covariance,
            jac=None if jac is None else stacked_jac,
            **options,
        )

    def value(self, pid: str):
        """The block's value as a Rotation, RigidPose, Similarity or vector."""
        block = self.params[pid]
        return _unpack(block.manifold, block.value)

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

    @property
    def success(self) -> bool:
        return self.termination == "converged"


class _Workspace:
    """Static structure of a problem: the value layout, tangent indexing,
    row layout and the sparsity pattern of the whitened Jacobian.

    The flat value vector holds every block's row in insertion order, the
    row of block `pid` from index `value_starts[pid]` on. The tangent holds
    the retained free blocks in insertion order, then the eliminated
    points."""

    def __init__(self, problem: Problem):
        self.problem = problem
        blocks = list(problem.params.values())
        ends = np.cumsum([b.value.size for b in blocks]).tolist()
        self.value_starts = {b.id: end - b.value.size for b, end in zip(blocks, ends)}

        free = [b for b in blocks if not b.constant]
        if not free:
            raise SolverError("problem has no free parameter blocks")
        retained = [b for b in free if not b.eliminate]
        eliminated = [b for b in free if b.eliminate]
        self.offsets: dict[str, int] = {}
        cursor = 0
        for b in retained + eliminated:
            self.offsets[b.id] = cursor
            cursor += b.dim
        self.n_tangent = cursor
        self.n_retained = sum(b.dim for b in retained)
        self.eliminated = eliminated

        # per kind of free block: (M, size) value and (M, k) tangent indices
        # of its blocks; the Euclidean retraction is elementwise, so its
        # blocks of any size share flat index arrays
        self.retractions = []
        for manifold in Manifold:
            kind = [b for b in free if b.manifold is manifold]
            if not kind:
                continue
            value_idx = [self.value_starts[b.id] + np.arange(b.value.size) for b in kind]
            tangent_idx = [self.offsets[b.id] + np.arange(b.dim) for b in kind]
            join = np.concatenate if manifold is Manifold.EUCLIDEAN else np.stack
            self.retractions.append((manifold, join(value_idx), join(tangent_idx)))

        # per block: first row, the (N, size) value indices of each slot,
        # and per slot the rows on a free block; Jacobian entries of the
        # other rows are never stored. The COO indices list each slot's
        # (row, residual dim, tangent dim) in order.
        self.rows: dict[str, int] = {}
        self.slot_indices: dict[str, list[np.ndarray]] = {}
        self.free_rows: dict[str, list[np.ndarray]] = {}
        rows_idx, cols_idx = [], []
        cursor = 0
        for r in problem.residuals.values():
            self.rows[r.id] = cursor
            first = [problem.params[slot[0]] for slot in r.params]
            self.slot_indices[r.id] = [
                np.array([self.value_starts[pid] for pid in slot])[:, None]
                + np.arange(b.value.size)
                for slot, b in zip(r.params, first)
            ]
            self.free_rows[r.id] = []
            for slot, b in zip(r.params, first):
                free_n = np.flatnonzero([pid in self.offsets for pid in slot])
                self.free_rows[r.id].append(free_n)
                if free_n.size:
                    rows = cursor + (free_n[:, None] * r.dim + np.arange(r.dim))
                    cols = np.array([self.offsets[slot[n]] for n in free_n])
                    rows_idx.append(rows.repeat(b.dim, axis=1).ravel())
                    cols_idx.append(np.tile(cols[:, None] + np.arange(b.dim), r.dim).ravel())
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

    def values(self) -> np.ndarray:
        """The flat value vector of the problem's current values."""
        return np.concatenate([b.value for b in self.problem.params.values()])

    def store(self, x: np.ndarray) -> None:
        """Write a flat value vector back into the problem's blocks."""
        for pid, start in self.value_starts.items():
            block = self.problem.params[pid]
            block.value = x[start : start + block.value.size]

    def slots(self, r: ResidualBlock, x: np.ndarray) -> list[np.ndarray]:
        """One (N, size) array of value rows per slot of a block."""
        return [x[idx] for idx in self.slot_indices[r.id]]

    def evaluate(self, x: np.ndarray) -> tuple[float, dict[str, np.ndarray]]:
        """Robust cost and whitened (N, d) residuals per block."""
        cost = 0.0
        whitened: dict[str, np.ndarray] = {}
        for r in self.problem.residuals.values():
            raw = np.asarray(r.fn(*self.slots(r, x)), dtype=float)
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
            cost += 0.5 * float((r.loss.cost(sq) if r.loss else sq).sum())
        return cost, whitened

    def try_evaluate(self, x: np.ndarray):
        """Like evaluate, but a failing trial state just reports inf cost."""
        try:
            return self.evaluate(x)
        except VigtError:
            return np.inf, {}

    def linearize(
        self, x: np.ndarray, whitened: dict[str, np.ndarray]
    ) -> tuple[scipy.sparse.csr_matrix, np.ndarray]:
        """Whitened, robust-scaled Jacobian and residual vector."""
        data = []
        rhs = np.zeros(self.n_rows)
        for r in self.problem.residuals.values():
            row0 = self.rows[r.id]
            slots = self.slots(r, x)
            if r.jac is None:
                kinds = [self.problem.params[slot[0]].manifold for slot in r.params]
                jacs = _forward_difference_jacobians(r, slots, kinds)
            else:
                jacs = r.jac(*slots)
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

    def apply_step(self, x: np.ndarray, delta: np.ndarray) -> np.ndarray:
        """The value vector moved by a tangent step, one retraction per kind."""
        out = x.copy()
        for manifold, value_idx, tangent_idx in self.retractions:
            out[value_idx] = _retract(manifold, x[value_idx], delta[tangent_idx])
        return out


def _forward_difference_jacobians(
    block: ResidualBlock, slots: list[np.ndarray], kinds: Sequence[Manifold]
):
    """(N, d, k) Jacobians per slot of (N, size) value rows of the given
    kinds: each tangent direction perturbs the slot in every row at once,
    as row n reads only row n."""
    base = np.asarray(block.fn(*slots), dtype=float)
    jacs = []
    for i, (rows, manifold) in enumerate(zip(slots, kinds)):
        dim = _TANGENT_DIM.get(manifold, rows.shape[1])
        jac = np.zeros(base.shape + (dim,))
        for d in range(dim):
            delta = np.zeros((len(rows), dim))
            delta[:, d] = _FD_STEP
            perturbed = list(slots)
            perturbed[i] = _retract(manifold, rows, delta)
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
    x = ws.values()

    cost, whitened = ws.evaluate(x)
    initial_cost = cost
    cost_history = [cost]

    lam = _INITIAL_LAMBDA
    iterations = 0
    termination = "max_iterations"

    for iterations in range(1, options.max_iters + 1):
        jac, rhs = ws.linearize(x, whitened)
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
            trial = ws.apply_step(x, delta)
            trial_cost, trial_whitened = ws.try_evaluate(trial)
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
        x, cost, whitened = trial, trial_cost, trial_whitened
        lam = max(lam * 0.1, 1e-15)
        cost_history.append(cost)
        if converged or cost <= _COST_TOL_REL * initial_cost:
            termination = "converged"
            break

    ws.store(x)

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
    x = ws.values()
    _, whitened = ws.evaluate(x)
    jac, _ = ws.linearize(x, whitened)
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


def _estimate_nullity(hess) -> int:
    n = hess.shape[0]
    if n <= 2000:
        w = np.linalg.eigvalsh(hess.toarray())
        scale = max(float(w.max()), 1.0)
        return int(np.sum(w < 1e-10 * scale))
    k = min(12, n - 1)
    w = scipy.sparse.linalg.eigsh(hess, k=k, sigma=0.0, return_eigenvectors=False)
    return int(np.sum(np.abs(w) < 1e-10))

