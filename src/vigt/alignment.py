"""World-from-local similarity estimation against surveyed control points.

The closed-form fit over full-3D correspondences seeds a joint refinement
of the transform and per-point proxy positions, weighted by detection and
survey covariances. Evaluation errors are always measured on the original
triangulations; the refined proxies only stabilize the transform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import DegenerateConfigurationError
from .geometry import RigidPose, Rotation, Similarity, quat_to_matrix
from .solver import HuberLoss, Problem, SolveReport, solve
from .triangulation import Observation, TriangulatedCP, ViewSet


@dataclass(frozen=True, eq=False)
class ControlPoint:
    """Surveyed world position; 2D points constrain only the horizontal."""

    cp_id: str
    position: np.ndarray  # (3,) for dim 3, (2,) for dim 2
    dim: int
    covariance: np.ndarray  # (3, 3) or (2, 2)

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"control point dim must be 2 or 3, got {self.dim}")
        pos = np.asarray(self.position, dtype=float).reshape(self.dim)
        cov = np.asarray(self.covariance, dtype=float).reshape(self.dim, self.dim)
        if np.linalg.eigvalsh(cov).min() <= 0.0:
            raise ValueError(f"control point '{self.cp_id}': covariance not PD")
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "covariance", cov)

    @property
    def xy(self) -> np.ndarray:
        return self.position[:2]


@dataclass
class SparseAlignment:
    transform: Similarity
    proxies: dict[str, np.ndarray]
    init_fallback_4dof: bool
    report: SolveReport


def _similarity_fit(
    src: np.ndarray, dst: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Closed-form (scale, rotation matrix, translation) taking the (N, d)
    points `src` onto `dst`: centroid alignment, SVD rotation with
    reflection correction and the variance-ratio scale (Umeyama 1991)."""
    mu_src = src.mean(axis=0)
    mu_dst = dst.mean(axis=0)
    src_c = src - mu_src
    u, d, vt = np.linalg.svd((dst - mu_dst).T @ src_c / len(src))
    s = np.ones(src.shape[1])
    if np.linalg.det(u) * np.linalg.det(vt) < 0.0:
        s[-1] = -1.0
    rot = (u * s) @ vt
    scale = float(d @ s) / float((src_c**2).sum(axis=1).mean())
    if scale <= 0.0:
        raise DegenerateConfigurationError("similarity fit collapsed to scale <= 0")
    return scale, rot, mu_dst - scale * rot @ mu_src


def umeyama_init(pairs: Sequence[tuple[np.ndarray, np.ndarray]]) -> Similarity:
    """Closed-form similarity from (local, world) 3D pairs; the global
    minimizer of the unweighted alignment cost."""
    if len(pairs) < 3:
        raise DegenerateConfigurationError(
            f"similarity fit needs at least 3 pairs, got {len(pairs)}"
        )
    src = np.stack([np.asarray(p, dtype=float) for p, _ in pairs])
    dst = np.stack([np.asarray(q, dtype=float) for _, q in pairs])
    sv = np.linalg.svd(src - src.mean(axis=0), compute_uv=False)
    if sv[1] <= 1e-9 * max(sv[0], 1e-12):
        raise DegenerateConfigurationError(
            "points are collinear; rotation about the line is unobservable"
        )
    scale, rot, trans = _similarity_fit(src, dst)
    return Similarity(scale, Rotation.from_matrix(rot), trans)


def initialize_alignment(
    triangulations: Mapping[str, TriangulatedCP],
    cps: Sequence[ControlPoint],
) -> tuple[Similarity, bool]:
    """Closed-form initialization; falls back to a gravity-aligned 4-DoF
    (yaw, horizontal translation, scale) fit when fewer than 3 CPs are 3D.

    Returns (transform, fallback_used).
    """
    by_id = {cp.cp_id: cp for cp in cps}
    pairs_3d = [
        (triangulations[cid].position, by_id[cid].position)
        for cid in triangulations
        if cid in by_id and by_id[cid].dim == 3
    ]
    if len(pairs_3d) >= 3:
        try:
            return umeyama_init(pairs_3d), False
        except DegenerateConfigurationError:
            pass  # collinear 3D points; try the horizontal fallback

    usable = [cid for cid in triangulations if cid in by_id]
    if len(usable) < 2:
        raise DegenerateConfigurationError(
            "initialization needs at least 2 matched control points"
        )
    src = np.stack([triangulations[cid].position[:2] for cid in usable])
    dst = np.stack([by_id[cid].xy for cid in usable])
    if np.linalg.norm(src - src.mean(axis=0)) < 1e-12:
        raise DegenerateConfigurationError("horizontal points are coincident")
    scale, rot, txy = _similarity_fit(src, dst)
    yaw = float(np.arctan2(rot[1, 0], rot[0, 0]))
    z_pairs = [
        (triangulations[cid].position[2], by_id[cid].position[2])
        for cid in usable
        if by_id[cid].dim == 3
    ]
    tz = (
        float(np.mean([zw - scale * zl for zl, zw in z_pairs])) if z_pairs else 0.0
    )
    transform = Similarity(
        scale, Rotation.exp([0.0, 0.0, yaw]), np.array([txy[0], txy[1], tz])
    )
    return transform, True


def _world_factor(targets: np.ndarray, dim: int):
    """The callback of stacked survey rows target - T(proxy)[:dim] over the
    (transform, proxy) slots; every row names the one transform block, read
    as its similarity row [q | t | s]."""

    def fn(ts, proxies):
        t = ts[0]
        rot = quat_to_matrix(t[:4])
        mapped = t[7] * (proxies @ rot.T) + t[4:7]

        def jacobians():
            sr = t[7] * rot
            j_t = np.zeros((len(proxies), 3, 7))
            # row i of sR @ skew(p) is the cross product of row i of sR with p
            j_t[:, :, 0:3] = np.cross(sr[None], proxies[:, None, :])
            j_t[:, :, 3:6] = -np.eye(3)
            j_t[:, :, 6] = -proxies @ sr.T
            j_p = np.broadcast_to(-sr, (len(proxies), 3, 3))
            return [j_t[:, :dim], j_p[:, :dim]]

        return targets - mapped[:, :dim], jacobians

    return fn


def joint_sparse_align(
    triangulations: Mapping[str, TriangulatedCP],
    poses: Mapping[int, RigidPose | Similarity],
    rig,
    cps: Sequence[ControlPoint],
) -> SparseAlignment:
    """Jointly refine the world-from-local transform and proxy points.

    Reprojection factors keep each proxy glued to its detections while the
    survey factors pull the transformed proxies onto the measured control
    points; both are whitened by their own covariances. 2D control points
    contribute horizontal components only. The detections of every proxy
    form one stacked reprojection block, each row naming its proxy.
    """
    by_id = {cp.cp_id: cp for cp in cps}
    usable = [
        cid
        for cid, tri in triangulations.items()
        if cid in by_id and len(tri.inliers) >= 2
    ]
    world_components = sum(by_id[cid].dim for cid in usable)
    if len(usable) < 3 or world_components < 7:
        raise DegenerateConfigurationError(
            f"{len(usable)} control points with {world_components} world"
            " residual components cannot constrain a 7-DoF similarity"
        )

    init, fallback = initialize_alignment({cid: triangulations[cid] for cid in usable}, cps)

    problem = Problem()
    problem.add_parameter_block("T", init)
    rows: list[tuple[Observation, str]] = []
    for cid in usable:
        tri = triangulations[cid]
        pid = f"proxy:{cid}"
        problem.add_parameter_block(pid, tri.position.copy())
        rows += [(o, pid) for o in tri.inliers]
    views = ViewSet.build([o for o, _ in rows], poses, rig)
    problem.add_stacked_block(
        views.evaluate,
        [[pid for _, pid in rows]],
        np.stack([o.pixel_cov for o in views.observations]),
        group="marker-reprojection",
        loss=HuberLoss(),
        rid="marker-reprojection",
    )

    for dim in dict.fromkeys(by_id[cid].dim for cid in usable):
        same = [cid for cid in usable if by_id[cid].dim == dim]
        problem.add_stacked_block(
            _world_factor(np.stack([by_id[cid].position for cid in same]), dim),
            [["T"] * len(same), [f"proxy:{cid}" for cid in same]],
            np.stack([by_id[cid].covariance for cid in same]),
            group="cp-world",
            rid=f"world:{dim}d",
        )

    report = solve(problem)
    transform: Similarity = problem.value("T")
    proxies = {cid: problem.value(f"proxy:{cid}") for cid in usable}

    return SparseAlignment(
        transform=transform,
        proxies=proxies,
        init_fallback_4dof=fallback,
        report=report,
    )


def cp_alignment_errors(
    transform: Similarity,
    triangulations: Mapping[str, TriangulatedCP],
    cps: Sequence[ControlPoint],
    mode: str = "2d",
) -> dict[str, float]:
    """Per-CP alignment error in meters.

    2D mode covers every control point using horizontal components; 3D
    mode covers full-3D control points only (2D ones carry no vertical
    truth to compare against). Control points without a triangulation get
    an infinite error so they count against score and recall.
    """
    if mode not in ("2d", "3d"):
        raise ValueError(f"mode must be '2d' or '3d', got {mode!r}")
    errors: dict[str, float] = {}
    for cp in cps:
        if mode == "3d" and cp.dim == 2:
            continue
        tri = triangulations.get(cp.cp_id)
        if tri is None:
            errors[cp.cp_id] = np.inf
            continue
        mapped = transform.apply(tri.position)
        if mode == "2d":
            errors[cp.cp_id] = float(np.linalg.norm(cp.xy - mapped[:2]))
        else:
            errors[cp.cp_id] = float(np.linalg.norm(cp.position - mapped))
    return errors
