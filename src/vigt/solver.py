"""Sparse nonlinear least-squares over manifolds.

Levenberg-Marquardt with multiplicative damping, optional Schur elimination
of 3-dim point blocks, robust losses, marginal covariance extraction from
the whitened Gauss-Newton Hessian, and per-group variance factors.
Residual blocks stack the rows of one factor, so a factor family is
evaluated and linearized as arrays, one callback per block.

The normal equations are accumulated straight from the whitened per-slot
Jacobians: each iteration forms one batched product J_a' J_b per pair of
slots of a block and sums every entry into its place in the storage of
the system by one bincount. Those places, like the whole layout, are
fixed once per problem structure; no sparse Jacobian is formed.

One Cholesky path solves every linear system. The points are eliminated
with batched 3x3 inverses, their Schur terms scattered into the reduced
system over the retained tangent. That system splits, once per problem
structure and by a flop estimate, into a leading band and a trailing
dense border (in fusion: the keyframe states and the control-point
proxies). Each damped trial factors the band with a banded Cholesky and
the border's Schur complement with a dense one; a factorization that
fails raises the damping. Marginal covariances factor the undamped
system the same way and take the band's diagonal blocks by block
selected inversion (Takahashi's recursion, as cheap as the factorization),
plus the border's low-rank correction.

Every Levenberg-Marquardt loop, `solve` and `triangulation.ViewSet.refine`
alike, stops once its step is a negligible fraction of one a-posteriori
standard deviation (`lm_update`; Madsen, Nielsen & Tingleff, "Methods for
Non-Linear Least Squares Problems", 2004, on stopping criteria). With the
Gauss-Newton information H of a cost 1/2 e'e of whitened residuals e, the
estimate's a-posteriori covariance is s^2 H^-1, s^2 = 2 cost / r the
variance factor of its redundancy r (rows less unknowns). A step d measures
sqrt(d'Hd) / s standard deviations, and its model decrease is
promised = d'Hd / 2, so a step of at most eps standard deviations is one
with promised <= eps^2 cost / r. The same holds for a cost e'We with its
doubled slope and curvature, as `refine` passes them. When the loop
stops, what is left to the minimum is the sum of the steps it skips; at
the linear rates of at most about 1/2 per step that Huber rows give here,
that is at most the last step, so the estimate lies within about eps
standard deviations of the minimum and its standard error grows by a
factor sqrt(1 + eps^2). eps = NEGLIGIBLE_STEP = 0.0025 keeps that 40 times
below the 0.1 standard deviations at which two estimates count as
distinguishable, and keeps a control-point error whose standard deviation
is 4 cm within 0.1 mm of its value at the minimum. With Huber rows the
cost is the robust one and H the reweighted Gauss-Newton matrix, so s is
the scale of the reweighted problem at the current weights. A problem
without redundancy (r <= 0) has no such scale and stops at a decrease of
CONVERGENCE_TOL of the cost, so an exactly determined problem runs on to
its zero-residual floor.

A solve whose estimate only feeds a variance factor, as each of fusion's
reweighting rounds but the last does, may stop at a coarser step delta
(`solve(problem, step=delta)`). Its estimate then lies within about delta
standard deviations of the minimum, which raises the cost above the
minimum's by about delta^2 s^2 / 2 = delta^2 cost / r. The variance factor
2 cost_g / r_g of a group g of redundancy r_g therefore rises by at most
about delta^2 s^2 / r_g; for a factor near s^2 that is delta^2 / sqrt(2 r_g),
at most delta^2 / sqrt(2), of the factor's own relative sampling spread
sqrt(2 / r_g) for any r_g >= 1: 4.4 % at delta = 0.25.

Parameter values are packed float rows: a Euclidean (d,) vector (tangent
d), a rigid pose [q | t] (tangent 6: rotation, translation) and a
similarity [q | t | s] (tangent 7: rotation, translation, log-scale), q a
unit quaternion [qw qx qy qz]. Rotations update on the right,
translations add, the scale multiplies by the exponential of its tangent
coordinate. During a solve all rows live in one flat value vector, and a
factor reads each slot as one (N, size) array of rows. Every block is
free; a factor that needs a fixed value closes over it.

A Problem is exclusively owned while :func:`solve` runs. Each block has
one callback, which must be a pure function of the parameter values. It
returns the block's residuals together with a function of no arguments
that builds their Jacobians from the terms the residuals were computed
from. Ceres' `CostFunction::Evaluate` returns a residual with its
optional Jacobians the same way, as does a factor in Dellaert & Kaess,
"Factor Graphs for Robot Perception", Foundations and Trends in Robotics,
2017. `solve` builds the Jacobians only at the states it linearizes at;
a rejected trial drops its builder unused.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .errors import RankDeficientError, SolverError, VigtError
from .geometry import RigidPose, Rotation, Similarity, quat_exp, quat_multiply


class Manifold(enum.Enum):
    EUCLIDEAN = "euclidean"
    RIGID_POSE = "rigid-pose"
    SIMILARITY = "similarity"


# tangent dimension of the non-Euclidean kinds; their rows hold one more entry
_TANGENT_DIM = {Manifold.RIGID_POSE: 6, Manifold.SIMILARITY: 7}


def _pack(value) -> tuple[Manifold, np.ndarray]:
    """Kind and value row of a parameter value."""
    if isinstance(value, RigidPose):
        return Manifold.RIGID_POSE, np.concatenate([value.rotation.quat, value.translation])
    if isinstance(value, Similarity):
        row = np.concatenate([value.rotation.quat, value.translation, [value.scale]])
        return Manifold.SIMILARITY, row
    return Manifold.EUCLIDEAN, np.asarray(value, dtype=float).reshape(-1)


def _unpack(manifold: Manifold, row: np.ndarray):
    """Parameter value of a row; Euclidean rows are returned as they are."""
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
    eliminate: bool = False

    @property
    def dim(self) -> int:
        return _TANGENT_DIM.get(self.manifold, self.value.size)

    @property
    def constant(self) -> bool:
        """Always False: every block is free. Kept for `perfbench`, which
        counts the unknowns of the blocks that are not constant."""
        return False


@dataclass
class ResidualBlock:
    """N stacked rows of one factor, each a d-dimensional residual.

    `params` holds one slot per factor argument, each naming the N
    parameter blocks its rows read; the blocks of one slot share their
    kind and row size. `fn`, the block's one callback, takes one (N, size)
    array of value rows per slot and returns the (N, d) residuals and a
    function of no arguments that returns one (N, d, k) tangent Jacobian
    per slot at the same values, as Ceres' `CostFunction::Evaluate` and the
    factors of Dellaert & Kaess (2017) do (see the module docstring). Row n
    may depend only on row n of each slot (a slot whose rows all name one
    block may be read from any row). The covariance is (d, d), shared by
    all rows, or (N, d, d).
    """

    id: str
    group: str
    params: tuple[tuple[str, ...], ...]
    fn: Callable
    covariance: np.ndarray
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
    """Symmetric inverse square roots of a (d, d) or (N, d, d) stack."""
    sym = 0.5 * (cov + np.swapaxes(cov, -1, -2))
    w, v = np.linalg.eigh(sym)
    if np.any(w <= 0.0):
        raise ValueError(f"residual '{rid}': covariance not positive-definite")
    return (v * (1.0 / np.sqrt(w))[..., None, :]) @ np.swapaxes(v, -1, -2)


class Problem:
    """Container of parameter blocks and residual blocks."""

    def __init__(self):
        self.params: dict[str, ParameterBlock] = {}
        self.residuals: dict[str, ResidualBlock] = {}
        self._workspace: _Workspace | None = None  # see _workspace()

    def add_parameter_block(
        self, pid: str, value, *, eliminate: bool = False
    ) -> ParameterBlock:
        """Add a RigidPose, Similarity or Euclidean vector; it is stored as
        its value row."""
        if pid in self.params:
            raise ValueError(f"duplicate parameter block '{pid}'")
        manifold, row = _pack(value)
        block = ParameterBlock(pid, row, manifold, eliminate)
        if eliminate and not (block.manifold is Manifold.EUCLIDEAN and block.dim == 3):
            raise ValueError("only 3-dim euclidean blocks can be Schur-eliminated")
        self.params[pid] = block
        self._workspace = None
        return block

    def add_stacked_block(
        self,
        fn: Callable,
        params: Sequence[Sequence[str]],
        covariance,
        *,
        group: str = "generic",
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
        block = ResidualBlock(rid, group, slots, fn, covariance, loss)
        self.residuals[rid] = block
        self._workspace = None
        return block

    def add_residual_block(
        self, fn: Callable, params: Sequence[str], covariance, *, jac=None, **options
    ) -> ResidualBlock:
        """Add one residual row: `fn` takes one parameter value (as
        :meth:`value` returns it) per block and returns a d-vector, `jac`
        one (d, k) Jacobian per block; without `jac` the Jacobians are
        forward differences. The keyword options are those of
        :meth:`add_stacked_block`. `perfbench` builds the chain problem of
        its marginal-covariance microbenchmark with it."""

        def values(slots):
            return [_unpack(self.params[p].manifold, s[0]) for p, s in zip(params, slots)]

        def residuals(*slots):
            return np.asarray(fn(*values(slots)), dtype=float).reshape(1, -1)

        def evaluate(*slots):
            res = residuals(*slots)
            if jac is None:
                kinds = [self.params[p].manifold for p in params]
                return res, partial(_forward_difference_jacobians, residuals, slots, kinds, res)
            return res, lambda: [np.asarray(j, dtype=float)[None] for j in jac(*values(slots))]

        return self.add_stacked_block(evaluate, [[pid] for pid in params], covariance, **options)

    def value(self, pid: str):
        """The block's value as a RigidPose, Similarity or vector."""
        block = self.params[pid]
        return _unpack(block.manifold, block.value)

    def scale_group_covariance(self, group: str, factor: float):
        """Multiply every measurement covariance in a residual group."""
        if factor <= 0.0:
            raise ValueError("covariance scale factor must be positive")
        for block in self.residuals.values():
            if block.group == group:
                block.set_covariance(block.covariance * factor)


# The Levenberg-Marquardt step rule of `lm_update`: the step, in a-posteriori
# standard deviations, below which it stops (see the module docstring), the
# tolerance relative to the cost of a problem without redundancy, and the
# damping schedule from INITIAL_LAMBDA. The damping scales the Hessian
# diagonal, floored at DIAGONAL_FLOOR.
NEGLIGIBLE_STEP = 0.0025
CONVERGENCE_TOL = 1e-12
INITIAL_LAMBDA = 1e-4
LAMBDA_UP = 10.0
LAMBDA_DOWN = 0.1
LAMBDA_MIN = 1e-15
LAMBDA_MAX = 1e10
DIAGONAL_FLOOR = 1e-12
_COST_TOL_REL = 1e-16  # declare victory below this fraction of initial cost
_FD_STEP = 1e-7  # forward-difference step of rows added without a Jacobian


@dataclass
class SolveReport:
    initial_cost: float
    final_cost: float
    iterations: int
    termination: str
    group_residuals: dict[str, np.ndarray]
    group_redundancy: dict[str, int]
    cost_history: list[float]


@dataclass(frozen=True)
class _Slot:
    """One slot of a residual block: the (N, d) rows of the residual vector
    of its rows and the (N, k) tangent columns of the blocks they name."""

    residual_rows: np.ndarray
    cols: np.ndarray


class _Workspace:
    """Static structure of a problem: the value layout, tangent indexing,
    row layout, the rows and columns of every slot, the band-plus-border
    layout of the normal equations and where each entry of the per-slot
    Jacobian products J_a' J_b lands in it.

    The flat value vector holds every block's row in insertion order, the
    row of block `pid` from index `value_starts[pid]` on. The tangent holds
    the retained blocks in insertion order, then the eliminated points. A
    problem keeps its workspace until a block is added."""

    def __init__(self, problem: Problem):
        # the problem's dicts, not the problem: it holds the workspace
        self.params, self.residuals = problem.params, problem.residuals
        blocks = list(problem.params.values())
        if not blocks:
            raise SolverError("problem has no parameter blocks")
        sizes = np.array([b.value.size for b in blocks])
        starts = np.cumsum(sizes) - sizes
        self.value_starts = {b.id: int(s) for b, s in zip(blocks, starts)}

        retained = [b for b in blocks if not b.eliminate]
        eliminated = [b for b in blocks if b.eliminate]
        self.offsets: dict[str, int] = {}
        cursor = 0
        for b in retained + eliminated:
            self.offsets[b.id] = cursor
            cursor += b.dim
        self.n_tangent = cursor

        # per kind of block: (M, size) value and (M, k) tangent indices
        # of its blocks; the Euclidean retraction is elementwise, so its
        # blocks of any size share flat index arrays
        self.retractions = []
        for manifold in Manifold:
            kind = [b for b in blocks if b.manifold is manifold]
            if not kind:
                continue
            value_idx = [self.value_starts[b.id] + np.arange(b.value.size) for b in kind]
            tangent_idx = [self.offsets[b.id] + np.arange(b.dim) for b in kind]
            join = np.concatenate if manifold is Manifold.EUCLIDEAN else np.stack
            self.retractions.append((manifold, join(value_idx), join(tangent_idx)))

        # per block (insertion order): tangent offset, and its ordinal among
        # the retained blocks or among the points (-1)
        index = {b.id: i for i, b in enumerate(blocks)}
        dims = np.array([b.dim for b in blocks])
        tangent = np.array([self.offsets[b.id] for b in blocks])
        retained_ord = np.full(len(blocks), -1)
        retained_ord[[index[b.id] for b in retained]] = np.arange(len(retained))
        point_ord = np.full(len(blocks), -1)
        point_ord[[index[b.id] for b in eliminated]] = np.arange(len(eliminated))

        # per residual block: first row, the (N, size) value indices of each
        # slot, and the range of its slots in `slot_rows`. Block pairs that
        # share a row give the adjacency of the normal equations.
        self.rows: dict[str, int] = {}
        self.slot_indices: dict[str, list[np.ndarray]] = {}
        self.slot_rows: list[_Slot] = []
        self.slots_of: dict[str, range] = {}
        edges, incidences = [], []
        entry_blocks, entry_groups = [], []
        groups: dict[str, int] = {}  # group -> its index in group_rows
        group_rows: list[int] = []
        cursor = 0
        for r in problem.residuals.values():
            self.rows[r.id] = cursor
            slots = [np.fromiter(map(index.__getitem__, s), np.intp, len(s)) for s in r.params]
            self.slot_indices[r.id] = [
                starts[idx][:, None] + np.arange(sizes[idx[0]]) for idx in slots
            ]
            residual_rows = cursor + np.arange(r.rows * r.dim).reshape(r.rows, r.dim)
            first = len(self.slot_rows)
            for idx in slots:
                cols = tangent[idx][:, None] + np.arange(dims[idx[0]])
                self.slot_rows.append(_Slot(residual_rows, cols))
            self.slots_of[r.id] = range(first, len(self.slot_rows))
            for a, idx_a in enumerate(slots):
                for idx_b in slots[a + 1 :]:
                    _row_pairs(idx_a, idx_b, retained_ord, point_ord, edges, incidences)
            group = groups.setdefault(r.group, len(groups))
            if group == len(group_rows):
                group_rows.append(0)
            group_rows[group] += r.rows * r.dim
            entry_blocks += slots
            entry_groups.append(np.full(sum(len(s) for s in slots), group))
            cursor += r.rows * r.dim
        self.n_rows = cursor

        retained_dims = np.array([b.dim for b in retained], dtype=int)
        self.layout = _Layout(
            retained_dims,
            np.cumsum(retained_dims) - retained_dims,
            np.concatenate(edges or [np.zeros((0, 2), dtype=int)]),
            np.concatenate(incidences or [np.zeros((0, 2), dtype=int)]),
            len(eliminated),
        )
        self._map_products()

        # redundancy per group: its rows, less the tangent dimension of the
        # blocks that no other group reads
        pairs = np.unique(
            np.concatenate(entry_blocks or [np.zeros(0, dtype=int)]) * len(groups)
            + np.concatenate(entry_groups or [np.zeros(0, dtype=int)])
        )
        block, group = np.divmod(pairs, max(len(groups), 1))
        exclusive = np.bincount(block, minlength=len(blocks))[block] == 1
        exclusive_dims = np.bincount(
            group[exclusive], dims[block[exclusive]], minlength=len(groups)
        )
        self.redundancy = {
            g: int(group_rows[k] - exclusive_dims[k]) for g, k in groups.items()
        }

    def _map_products(self) -> None:
        """For each pair of slots (a, b >= a) of one residual block: the
        place of their (N, k_a, k_b) products J_a' J_b in one flat vector.
        A product entry is H[i, j] and, for a != b, also H[j, i].
        `product_dest` holds its place in the layout's storage, the one of
        the two that is stored, or the trash entry for the upper triangle
        of a retained block's own product. Only an entry on a diagonal
        block in both orders is stored twice: `mirror_src` lists those
        entries, their second places follow in `product_dest`."""
        lay = self.layout
        self.pairs = []
        dest, mirror_src, mirror_dest = [], [], []
        at = 0
        for span in self.slots_of.values():
            for a in span:
                for b in range(a, span.stop):
                    cols_a, cols_b = self.slot_rows[a].cols, self.slot_rows[b].cols
                    shape = (len(cols_a), cols_a.shape[1], cols_b.shape[1])
                    i = np.broadcast_to(cols_a[:, :, None], shape).ravel()
                    j = np.broadcast_to(cols_b[:, None, :], shape).ravel()
                    to = lay.entry_dest(i, j)
                    if a != b:
                        mirror = lay.entry_dest(j, i)
                        both = (to != lay.size) & (mirror != lay.size)
                        to = np.where(to == lay.size, mirror, to)
                        mirror_src.append(at + np.flatnonzero(both))
                        mirror_dest.append(mirror[both])
                    dest.append(to)
                    self.pairs.append((a, b, slice(at, at + i.size), shape))
                    at += i.size
        self.n_products = at
        none = [np.zeros(0, dtype=np.intp)]
        self.mirror_src = np.concatenate(mirror_src or none)
        self.product_dest = np.concatenate(dest + mirror_dest or none)
        # tangent column and residual row of each per-slot Jacobian entry
        # of J' r and J d
        self.grad_dest = np.concatenate([s.cols.ravel() for s in self.slot_rows] or none)
        self.row_dest = np.concatenate(
            [s.residual_rows.ravel() for s in self.slot_rows] or none
        )

    def values(self) -> np.ndarray:
        """The flat value vector of the problem's current values."""
        return np.concatenate([b.value for b in self.params.values()])

    def store(self, x: np.ndarray) -> None:
        """Write a flat value vector back into the problem's blocks."""
        for pid, start in self.value_starts.items():
            block = self.params[pid]
            block.value = x[start : start + block.value.size]

    def slots(self, r: ResidualBlock, x: np.ndarray) -> list[np.ndarray]:
        """One (N, size) array of value rows per slot of a block."""
        return [x[idx] for idx in self.slot_indices[r.id]]

    def evaluate(self, x: np.ndarray) -> tuple[float, dict, dict]:
        """Robust cost, and per block the whitened (N, d) residuals and the
        function that builds their Jacobians."""
        cost = 0.0
        whitened: dict[str, np.ndarray] = {}
        builders: dict[str, Callable] = {}
        for r in self.residuals.values():
            raw, builders[r.id] = r.fn(*self.slots(r, x))
            raw = np.asarray(raw, dtype=float)
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
        return cost, whitened, builders

    def try_evaluate(self, x: np.ndarray):
        """Like evaluate, but a failing trial state just reports inf cost."""
        try:
            return self.evaluate(x)
        except VigtError:
            return np.inf, {}, {}

    def linearize(
        self, whitened: dict[str, np.ndarray], builders: dict[str, Callable]
    ) -> tuple[list[np.ndarray], np.ndarray]:
        """Whitened, robust-scaled (N, d, k) Jacobian of each of
        `slot_rows`, and the residual vector, at the state of one
        :meth:`evaluate`."""
        jacs = []
        rhs = np.zeros(self.n_rows)
        for r in self.residuals.values():
            row0 = self.rows[r.id]
            raw = builders[r.id]()
            w = whitened[r.id]
            scale = (
                np.sqrt(r.loss.weight(np.einsum("ni,ni->n", w, w)))[:, None]
                if r.loss
                else 1.0
            )
            rhs[row0 : row0 + r.rows * r.dim] = (scale * w).ravel()
            for s, slot in enumerate(map(self.slot_rows.__getitem__, self.slots_of[r.id])):
                jac = np.asarray(raw[s], dtype=float)
                expected = (r.rows, r.dim, slot.cols.shape[1])
                if jac.shape != expected:
                    raise SolverError(
                        f"residual '{r.id}': Jacobian for '{r.params[s][0]}'"
                        f" has shape {jac.shape}, expected {expected}",
                        block_id=r.id,
                    )
                jw = r.whitener @ jac
                if not np.all(np.isfinite(jw)):
                    raise SolverError(
                        f"non-finite Jacobian in block '{r.id}'", block_id=r.id
                    )
                if r.loss:
                    jw *= scale[:, :, None]
                jacs.append(jw)
        return jacs, rhs

    def normal_equations(self, jacs: list[np.ndarray]) -> "_NormalEquations":
        """The undamped normal equations J'J of the per-slot Jacobians of
        :meth:`linearize`: one batched product per pair of slots of a block,
        all summed into the layout's storage by one bincount."""
        # matmul runs its batch far faster on contiguous transposes
        transposed = [np.ascontiguousarray(jac.transpose(0, 2, 1)) for jac in jacs]
        products = np.empty(self.n_products + self.mirror_src.size)
        for a, b, at, shape in self.pairs:
            np.matmul(transposed[a], jacs[b], out=products[at].reshape(shape))
        products[self.n_products :] = products[self.mirror_src]
        storage = np.bincount(self.product_dest, products, minlength=self.layout.storage_size)
        return self.layout.system(storage)

    def gradient(self, jacs: list[np.ndarray], rhs: np.ndarray) -> np.ndarray:
        """J' r of the per-slot Jacobians and the residual vector."""
        parts = [
            np.einsum("ndk,nd->nk", jac, rhs[s.residual_rows]).ravel()
            for s, jac in zip(self.slot_rows, jacs)
        ]
        return np.bincount(
            self.grad_dest, np.concatenate(parts or [np.zeros(0)]), minlength=self.n_tangent
        )

    def curvature(self, jacs: list[np.ndarray], delta: np.ndarray) -> float:
        """|J delta|^2 of the per-slot Jacobians."""
        parts = [
            np.einsum("ndk,nk->nd", jac, delta[s.cols]).ravel()
            for s, jac in zip(self.slot_rows, jacs)
        ]
        moved = np.bincount(
            self.row_dest, np.concatenate(parts or [np.zeros(0)]), minlength=self.n_rows
        )
        return float(moved @ moved)

    def hessian(self, jacs: list[np.ndarray]) -> scipy.sparse.csr_matrix:
        """J'J as a sparse matrix, for the rank diagnosis of a system whose
        factorization failed."""
        none = np.zeros(0, dtype=np.intp)
        data, rows, cols = [np.zeros(0)], [none], [none]
        for s, jac in zip(self.slot_rows, jacs):
            data.append(jac.ravel())
            rows.append(np.broadcast_to(s.residual_rows[:, :, None], jac.shape).ravel())
            cols.append(np.broadcast_to(s.cols[:, None, :], jac.shape).ravel())
        jac = scipy.sparse.csr_matrix(
            (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.n_rows, self.n_tangent),
        )
        return (jac.T @ jac).tocsr()

    def apply_step(self, x: np.ndarray, delta: np.ndarray) -> np.ndarray:
        """The value vector moved by a tangent step, one retraction per kind."""
        out = x.copy()
        for manifold, value_idx, tangent_idx in self.retractions:
            out[value_idx] = _retract(manifold, x[value_idx], delta[tangent_idx])
        return out


def _workspace(problem: Problem) -> _Workspace:
    """The problem's workspace, built once per problem structure."""
    if problem._workspace is None:
        problem._workspace = _Workspace(problem)
    return problem._workspace


def _forward_difference_jacobians(
    residuals: Callable, slots: list[np.ndarray], kinds: Sequence[Manifold], base: np.ndarray
) -> list[np.ndarray]:
    """(N, d, k) Jacobians per slot, by forward differences, of a function
    of (N, size) value rows of the given kinds that returns the (N, d)
    residuals `base` at `slots`: each tangent direction perturbs the slot
    in every row at once, as row n reads only row n."""
    jacs = []
    for i, (rows, manifold) in enumerate(zip(slots, kinds)):
        dim = _TANGENT_DIM.get(manifold, rows.shape[1])
        jac = np.zeros(base.shape + (dim,))
        for d in range(dim):
            delta = np.zeros((len(rows), dim))
            delta[:, d] = _FD_STEP
            perturbed = list(slots)
            perturbed[i] = _retract(manifold, rows, delta)
            jac[..., d] = (residuals(*perturbed) - base) / _FD_STEP
        jacs.append(jac)
    return jacs


def _row_pairs(idx_a, idx_b, retained_ord, point_ord, edges, incidences) -> None:
    """Append the block pairs that the rows of two slots couple: retained
    pairs [later, earlier] to `edges`, [point, retained block] pairs to
    `incidences`. A row that reads two eliminated points raises ValueError:
    their coupling cannot be eliminated point by point."""
    ra, rb = retained_ord[idx_a], retained_ord[idx_b]
    pa, pb = point_ord[idx_a], point_ord[idx_b]
    if np.any((pa >= 0) & (pb >= 0) & (pa != pb)):
        raise ValueError(
            "a residual row reads two Schur-eliminated point blocks; their"
            " coupling cannot be eliminated point by point"
        )
    both = (ra >= 0) & (rb >= 0)
    edges.append(np.stack([np.maximum(ra, rb)[both], np.minimum(ra, rb)[both]], axis=1))
    for p, r in ((pa, rb), (pb, ra)):
        seen = (p >= 0) & (r >= 0)
        incidences.append(np.stack([p[seen], r[seen]], axis=1))


def _pairs_within_groups(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Member pairs (a, b), b <= a, within each run of consecutive members;
    run g holds counts[g] members."""
    local = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    a = np.repeat(np.arange(local.size), local + 1)
    first = np.cumsum(local + 1) - (local + 1)  # a's first pair
    b = a - local[a] + (np.arange(a.size) - first[a])
    return a, b


class _Layout:
    """Band-plus-border layout of the normal equations with the points
    eliminated.

    The retained tangent keeps insertion order. Its leading blocks form a
    band of N unknowns and half-bandwidth kd, the trailing blocks a dense
    border of nb unknowns. Two retained blocks are adjacent when a residual
    row or an eliminated point couples them; the band holds every adjacent
    pair among its blocks. The split minimizes the flop estimate
    N (kd + nb)^2 + nb^3 / 3 of a banded Cholesky factorization, the
    border's band solves and its dense Cholesky factorization.

    The reduced system lives in one flat buffer: the band's lower half in
    LAPACK band storage (kd + 1, N), the band-border coupling (N, nb), the
    border (nb, nb), of which only the lower triangle is read, and one
    trash entry that padding is scattered to. Each eliminated point couples
    to its incidences, the retained blocks it shares rows with; every pair
    of incidences of one point adds a block of that point's Schur term.
    The assembled normal equations are stored as that buffer, the (M, D, 3)
    coupling rows of the incidences and the (P, 3, 3) point blocks, one
    after the other in one vector.
    """

    def __init__(self, dims, offsets, edges, incidences, n_points):
        n_blocks = len(dims)
        self.n_blocks = n_blocks
        self.n = int(dims.sum())
        self.n_points = n_points
        incidences = np.unique(incidences, axis=0)  # sorted by point, then block
        self.inc_point, inc_block = incidences[:, 0], incidences[:, 1]
        self.inc_keys = self.inc_point * n_blocks + inc_block
        pair_a, pair_b = _pairs_within_groups(np.bincount(self.inc_point, minlength=n_points))
        # pairs ordered by the block pair they add to, so that their
        # scatter writes nearby entries one after another
        order = np.lexsort((inc_block[pair_b], inc_block[pair_a]))
        self.pair_a, self.pair_b = pair_a[order], pair_b[order]

        # half-bandwidth of the leading blocks [0, s) for every split s
        later = np.concatenate([edges[:, 0], inc_block[self.pair_a], np.arange(n_blocks)])
        earlier = np.concatenate([edges[:, 1], inc_block[self.pair_b], np.arange(n_blocks)])
        widest = np.zeros(n_blocks, dtype=int)
        np.maximum.at(widest, later, offsets[later] + dims[later] - 1 - offsets[earlier])
        kd = np.concatenate([[0], np.maximum.accumulate(widest)]).astype(float)
        band = np.append(offsets, self.n).astype(float)
        border = self.n - band
        flops = band * (kd + border) ** 2 + border**3 / 3.0
        split = n_blocks - int(np.argmin(flops[::-1]))  # ties favour the band
        self.band_n = int(band[split])
        self.kd = int(kd[split])
        self.nb = self.n - self.band_n
        self.coupling_at = (self.kd + 1) * self.band_n
        self.border_at = self.coupling_at + self.band_n * self.nb
        self.size = self.border_at + self.nb * self.nb

        # retained scalar -> its block and its offset there
        self.block_of = np.repeat(np.arange(n_blocks), dims)
        self.block_offset = np.arange(self.n) - np.repeat(offsets, dims)
        # (M, D) scalar indices of each incidence's block; padding is n
        width = int(dims[inc_block].max()) if inc_block.size else 1
        pad = np.arange(width)
        self.inc_index = np.where(
            pad < dims[inc_block][:, None], offsets[inc_block][:, None] + pad, self.n
        )
        rows = self.inc_index[self.pair_a][:, :, None]
        cols = self.inc_index[self.pair_b][:, None, :]
        self.pair_dest = self.dest(rows, cols)
        # the assembled system's storage: the buffer with its trash entry,
        # the (M, D, 3) coupling rows, the (P, 3, 3) point blocks
        self.coupling_start = self.size + 1
        self.points_start = self.coupling_start + self.inc_index.size * 3
        self.storage_size = self.points_start + 9 * n_points

    def dest(self, i, j):
        """Buffer index of retained entry (i, j); the trash entry for
        padding and for the upper triangle."""
        n, nb = self.band_n, self.nb
        coupling = self.coupling_at + j * nb + (i - n)
        border = self.border_at + (i - n) * nb + (j - n)
        at = np.where(i < n, (i - j) * n + j, np.where(j < n, coupling, border))
        return np.where((i < self.n) & (j <= i), at, self.size)

    def entry_dest(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Storage index of each tangent entry H[i, j]: in the buffer for a
        retained pair, the coupling rows for a retained row and a point
        column, the point blocks for a pair within one point. The trash
        entry for the retained upper triangle and for a point row outside
        its own block, whose transposes are stored."""
        n = self.n
        at = self.dest(i, j)
        point_j, k_j = np.divmod(j - n, 3)
        coupling = (i < n) & (j >= n)
        if coupling.any():
            rows = i[coupling]
            keys = point_j[coupling] * self.n_blocks + self.block_of[rows]
            inc = np.searchsorted(self.inc_keys, keys)
            width = self.inc_index.shape[1]
            at[coupling] = (
                self.coupling_start
                + (inc * width + self.block_offset[rows]) * 3
                + k_j[coupling]
            )
        own = (i >= n) & (j >= n)  # a row reads at most one point
        at[own] = self.points_start + (i[own] - n) * 3 + k_j[own]
        return at

    def system(self, storage: np.ndarray) -> "_NormalEquations":
        """The normal equations held in an assembled storage vector; the
        damping diagonal is H's, floored at DIAGONAL_FLOOR."""
        buffer = storage[: self.coupling_start]
        coupling = storage[self.coupling_start : self.points_start].reshape(
            self.inc_index.shape + (3,)
        )
        points = storage[self.points_start :].reshape(-1, 3, 3)
        diag = np.concatenate(
            [
                buffer[: self.band_n],
                buffer[self.border_at : self.size : self.nb + 1],
                np.diagonal(points, axis1=1, axis2=2).ravel(),
            ]
        )
        return _NormalEquations(self, buffer, coupling, points, np.maximum(diag, DIAGONAL_FLOOR))


@dataclass
class _NormalEquations:
    """The undamped normal equations of one Levenberg-Marquardt iteration:
    the retained system in the layout's buffer, the (M, D, 3) coupling rows
    of each incidence, the (P, 3, 3) point blocks, and the diagonal the
    damping scales."""

    layout: _Layout
    buffer: np.ndarray
    coupling: np.ndarray
    points: np.ndarray
    diag: np.ndarray

    def factor(self, lam: float) -> "_Factor":
        """Factor H + lam diag(H); a matrix that is not positive definite
        raises LinAlgError."""
        return _Factor(self, lam)


class _Factor:
    """Cholesky factorization of one damped system [[A, C], [C', B]] with
    the points eliminated: the banded factor L of the band A, Y = L^-1 C,
    the dense factor of the border's Schur complement S = B - Y'Y, and the
    inverse point blocks."""

    def __init__(self, system: _NormalEquations, lam: float):
        lay = self.layout = system.layout
        n, band_n, nb = lay.n, lay.band_n, lay.nb
        damp = lam * system.diag
        buffer = system.buffer.copy()
        band = buffer[: lay.coupling_at].reshape(lay.kd + 1, band_n)
        band[0] += damp[:band_n]
        border = buffer[lay.border_at : lay.size].reshape(nb, nb)
        border[np.diag_indices(nb)] += damp[band_n:n]
        self.points = system.points + damp[n:].reshape(-1, 3)[:, :, None] * np.eye(3)
        self.point_inverse = np.linalg.inv(self.points)
        self.point_coupling = system.coupling
        # point p's Schur term couples every pair of its incidences
        weighted = system.coupling @ self.point_inverse[lay.inc_point]
        terms = weighted[lay.pair_a] @ system.coupling[lay.pair_b].transpose(0, 2, 1)
        buffer -= np.bincount(lay.pair_dest.ravel(), terms.ravel(), minlength=lay.size + 1)

        if band_n:
            band = scipy.linalg.cholesky_banded(band, lower=True, check_finite=False)
        self.band = band
        self.solved = self.band_solve(buffer[lay.coupling_at : lay.border_at].reshape(band_n, nb))
        if nb:
            border = scipy.linalg.cholesky(
                border - self.solved.T @ self.solved, lower=True, check_finite=False
            )
        self.border = border

    def band_solve(self, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
        """L^-1 rhs ("N") or L^-T rhs ("T") for one or more right-hand sides."""
        if not rhs.size:  # LAPACK is not called with no right-hand side
            return rhs.copy()
        out, _ = scipy.linalg.lapack.dtbtrs(
            self.band, rhs.reshape(len(rhs), -1), uplo="L", trans=trans
        )
        return out.reshape(rhs.shape)

    def solve(self, grad: np.ndarray) -> np.ndarray:
        """The step d of (H + lam diag(H)) d = -grad."""
        lay = self.layout
        n, band_n = lay.n, lay.band_n
        rhs = -grad[:n]
        g_points = grad[n:].reshape(-1, 3)
        if lay.n_points:
            y = np.einsum("pij,pj->pi", self.point_inverse, g_points)
            t = np.einsum("mdk,mk->md", self.point_coupling, y[lay.inc_point])
            rhs = rhs + np.bincount(lay.inc_index.ravel(), t.ravel(), minlength=n + 1)[:n]
        step = np.empty(n)
        z = self.band_solve(rhs[:band_n])
        if lay.nb:
            step[band_n:] = scipy.linalg.cho_solve(
                (self.border, True), rhs[band_n:] - self.solved.T @ z, check_finite=False
            )
            z = z - self.solved @ step[band_n:]
        step[:band_n] = self.band_solve(z, "T")
        if not lay.n_points:
            return step
        retained = np.append(step, 0.0)[lay.inc_index]
        u = np.einsum("mdk,md->mk", self.point_coupling, retained)
        back = np.bincount(
            (lay.inc_point[:, None] * 3 + np.arange(3)).ravel(),
            u.ravel(),
            minlength=3 * lay.n_points,
        ).reshape(-1, 3)
        points = np.einsum("pij,pj->pi", self.point_inverse, -g_points - back)
        return np.concatenate([step, points.ravel()])

    def squared_pivots(self) -> np.ndarray:
        """Squared pivots of the Cholesky factorization with the points
        eliminated first."""
        lay = self.layout
        point_pivots = np.diagonal(np.linalg.cholesky(self.points), axis1=1, axis2=2)
        return np.concatenate(
            [
                point_pivots.ravel(),
                self.band[0] if lay.band_n else np.zeros(0),
                np.diagonal(self.border),
            ]
        ) ** 2

    def covariances(self, starts: Sequence[int], dims: Sequence[int]) -> list[np.ndarray]:
        """Diagonal blocks of the inverse reduced system at the given
        retained tangent offsets and dimensions: the band's by block
        selected inversion plus the border's low-rank correction
        W S^-1 W' with W = A^-1 C, the border's from the inverse factor of
        S."""
        lay = self.layout
        band = _BandInverse(self.band, lay.kd) if lay.band_n else None
        border_inv = (
            scipy.linalg.solve_triangular(
                self.border, np.eye(lay.nb), lower=True, check_finite=False
            )
            if lay.nb
            else np.zeros((0, 0))
        )
        # S^-1 = border_inv' border_inv, and W = A^-1 C = L^-T Y
        correction = border_inv @ self.band_solve(self.solved, "T").T
        out = []
        for a, d in zip(starts, dims):
            if a < lay.band_n:
                v = correction[:, a : a + d]
                out.append(band.block(a, d) + v.T @ v)
            else:
                j = a - lay.band_n
                v = border_inv[j:, j : j + d]
                out.append(v.T @ v)
        return out


def _band_block(cb: np.ndarray, kd: int, rows: slice, cols: slice) -> np.ndarray:
    """Dense block of a lower band matrix in LAPACK storage."""
    i = np.arange(rows.start, rows.stop)[:, None]
    j = np.arange(cols.start, cols.stop)[None, :]
    off = i - j
    return np.where((off >= 0) & (off <= kd), cb[np.clip(off, 0, kd), j], 0.0)


class _BandInverse:
    """The block tridiagonal part of A^-1 from A's banded Cholesky factor L,
    by block selected inversion (Takahashi's recursion).

    With chunks of at least kd + 1 unknowns L is block lower bidiagonal,
    and Z = A^-1 satisfies, chunk k from the last one down, with
    T = L[k+1, k] L[k, k]^-1:
        Z[k+1, k] = -Z[k+1, k+1] T
        Z[k, k]   = L[k, k]^-T L[k, k]^-1 + T' Z[k+1, k+1] T
    which costs O(N kd^2), as the factorization does."""

    def __init__(self, cb: np.ndarray, kd: int):
        n = cb.shape[1]
        self.chunk = max(kd + 1, 64)
        self.bounds = bounds = list(range(0, n, self.chunk)) + [n]
        count = len(bounds) - 1
        self.diag: list[np.ndarray] = [np.zeros(0)] * count
        self.sub: list[np.ndarray] = [np.zeros(0)] * max(count - 1, 0)
        for k in reversed(range(count)):
            here = slice(bounds[k], bounds[k + 1])
            diag = _band_block(cb, kd, here, here)
            inv = scipy.linalg.solve_triangular(
                diag, np.eye(len(diag)), lower=True, check_finite=False
            )
            z = inv.T @ inv
            if k + 1 < count:
                t = _band_block(cb, kd, slice(bounds[k + 1], bounds[k + 2]), here) @ inv
                self.sub[k] = -self.diag[k + 1] @ t
                z -= t.T @ self.sub[k]
            self.diag[k] = z

    def block(self, start: int, dim: int) -> np.ndarray:
        """Z[start : start + dim, start : start + dim]; dim <= kd + 1."""
        k = start // self.chunk
        lo = start - self.bounds[k]
        if start + dim <= self.bounds[k + 1]:
            return self.diag[k][lo : lo + dim, lo : lo + dim]
        rest = start + dim - self.bounds[k + 1]
        return np.block(
            [
                [self.diag[k][lo:, lo:], self.sub[k][:rest, lo:].T],
                [self.sub[k][:rest, lo:], self.diag[k + 1][:rest, :rest]],
            ]
        )


def model_decrease(slope, curvature):
    """Decrease slope^2 / (2 curvature) of the quadratic model of a cost
    along a step, with the cost's slope and curvature along it, at the best
    step length, so heavy damping alone does not shrink it; 0 where the
    curvature is not positive. Elementwise."""
    positive = np.asarray(curvature) > 0.0
    return np.where(positive, slope * slope / (2.0 * np.where(positive, curvature, 1.0)), 0.0)[()]


def stop_tolerance(cost, redundancy, step=NEGLIGIBLE_STEP):
    """The model decrease at or below which a step is negligible,
    elementwise: step^2 cost / r for a redundancy r > 0, a step of at most
    `step` a-posteriori standard deviations (see the module docstring),
    else CONVERGENCE_TOL of the cost."""
    cost, r = np.asarray(cost), np.asarray(redundancy)
    return np.where(r > 0, step**2 * cost / np.maximum(r, 1), CONVERGENCE_TOL * cost)[()]


def lm_update(cost, trial_cost, promised, lam, redundancy, step=NEGLIGIBLE_STEP):
    """The Levenberg-Marquardt step rule, elementwise over a batch of loops:
    (accept, next damping, stop) after a trial at damping `lam`.

    `promised` is the `model_decrease` of the least-damped finite step
    since the last linearization (inf before one), in the units of `cost`;
    `redundancy` is the loop's rows less its unknowns. A trial is accepted
    when its cost is lower than `cost` (a NaN or inf never is); the damping
    then falls by LAMBDA_DOWN, down to LAMBDA_MIN, and otherwise rises by
    LAMBDA_UP. The loop stops, accepted or not, once `promised` is at most
    `stop_tolerance(cost, redundancy, step)`: the Gauss-Newton step is then
    at most `step` a-posteriori standard deviations s, with
    s^2 = 2 cost / redundancy (with Huber rows, the scale of the reweighted
    problem; see the module docstring), and at that floor no damping gains
    more. A rejected trial also stops it once the damping passes
    LAMBDA_MAX.
    """
    accept = trial_cost < cost
    lam = np.where(accept, np.maximum(lam * LAMBDA_DOWN, LAMBDA_MIN), lam * LAMBDA_UP)
    # an accepted step lowers the damping, so only a rejected one passes LAMBDA_MAX
    stop = (promised <= stop_tolerance(cost, redundancy, step)) | (lam > LAMBDA_MAX)
    return accept, lam[()], stop[()]


def solve(problem: Problem, max_iters: int = 100, step: float = NEGLIGIBLE_STEP) -> SolveReport:
    """Minimize the problem in place, in at most `max_iters` iterations, by
    `lm_update`'s rule at `step` a-posteriori standard deviations; returns
    the report.

    Terminations: "converged" (`lm_update` stopped on a negligible step,
    accepted or not, with the redundancy rows less unknowns, or the cost
    reached the zero-residual floor), "no_progress" (no damping lowers the
    cost, though the model promises more than a negligible decrease) and
    "max_iterations".
    """
    ws = _workspace(problem)
    x = ws.values()
    redundancy = ws.n_rows - ws.n_tangent

    cost, whitened, builders = ws.evaluate(x)
    initial_cost = cost
    cost_history = [cost]

    lam = INITIAL_LAMBDA
    iterations = 0
    termination = "max_iterations"

    for iterations in range(1, max_iters + 1):
        jacs, rhs = ws.linearize(whitened, builders)
        grad = ws.gradient(jacs, rhs)
        system = ws.normal_equations(jacs)

        promised, accept = np.inf, False
        while lam <= LAMBDA_MAX:
            try:
                delta = system.factor(lam).solve(grad)
            except np.linalg.LinAlgError:  # not positive definite
                lam *= LAMBDA_UP
                continue
            if not np.all(np.isfinite(delta)):
                lam *= LAMBDA_UP
                continue
            if promised == np.inf:
                promised = model_decrease(float(grad @ delta), ws.curvature(jacs, delta))
            trial = ws.apply_step(x, delta)
            trial_cost, trial_whitened, trial_builders = ws.try_evaluate(trial)
            accept, lam, stop = lm_update(cost, trial_cost, promised, lam, redundancy, step)
            if accept or stop:
                break
        if not accept:
            floor = promised <= stop_tolerance(cost, redundancy, step)
            termination = "converged" if floor else "no_progress"
            break

        x, cost, whitened, builders = trial, trial_cost, trial_whitened, trial_builders
        cost_history.append(cost)
        if stop or cost <= _COST_TOL_REL * initial_cost:
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


def marginal_covariances(
    problem: Problem, block_ids: Sequence[str]
) -> dict[str, np.ndarray]:
    """Tangent-space marginal covariance of the requested retained blocks.

    The problem must be at its solution and gauge-fixed (through prior
    factors or absolute measurements); a singular or
    near-singular Hessian (a squared Cholesky pivot below 1e-12 of the
    largest) raises :class:`RankDeficientError` with the estimated
    null-space dimension.
    """
    for pid in block_ids:
        if pid not in problem.params:
            raise KeyError(f"unknown parameter block '{pid}'")
        if problem.params[pid].eliminate:
            raise ValueError(f"block '{pid}' is Schur-eliminated; covariance not computed")
    ws = _workspace(problem)
    _, whitened, builders = ws.evaluate(ws.values())
    jacs, _ = ws.linearize(whitened, builders)
    try:
        factor = ws.normal_equations(jacs).factor(0.0)
        pivots = factor.squared_pivots()
        if pivots.min(initial=np.inf) < 1e-12 * max(pivots.max(initial=0.0), 1.0):
            raise np.linalg.LinAlgError("near-singular factorization")
    except np.linalg.LinAlgError:
        nullity = _estimate_nullity(ws.hessian(jacs))
        raise RankDeficientError(
            f"Gauss-Newton Hessian is rank-deficient"
            f" (null-space dimension {nullity}); fix the gauge first",
            nullity=nullity,
        ) from None

    covs = factor.covariances(
        [ws.offsets[pid] for pid in block_ids], [problem.params[pid].dim for pid in block_ids]
    )
    return {pid: 0.5 * (c + c.T) for pid, c in zip(block_ids, covs)}


def _estimate_nullity(hess) -> int:
    """The number of eigenvalues of H below 1e-10 of its largest (at least
    1). Above 2000 unknowns the smallest are found by shift-invert just
    below the spectrum, where H - sigma I stays positive definite."""
    n = hess.shape[0]
    if n <= 2000:
        w = np.linalg.eigvalsh(hess.toarray())
        scale = max(float(w.max()), 1.0)
    else:
        top = scipy.sparse.linalg.eigsh(hess, k=1, which="LA", return_eigenvectors=False)
        scale = max(float(top[0]), 1.0)
        w = scipy.sparse.linalg.eigsh(
            hess, k=min(12, n - 1), sigma=-1e-6 * scale, return_eigenvectors=False
        )
    return int(np.sum(w < 1e-10 * scale))
