"""Control-point triangulation from pixel detections.

Robust initialization (LO-RANSAC over two-view midpoint hypotheses),
nonlinear refinement of the reprojection error over the inlier set, and
the Gauss-Newton covariance of the refined point. Camera poses are treated
as fixed inputs; they may carry a scale when the trajectory lives in a
monocular SLAM frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    BehindCameraError,
    DegenerateGeometryError,
    InsufficientObservationsError,
    NoConsensusError,
    VigtError,
)
from .geometry import (
    CameraKind,
    CameraModel,
    RigCalibration,
    RigidPose,
    Similarity,
    camera_from_frame,
    clamp_depth,
    projection_jacobian_batch,
    try_project,
    unproject,
)

# RANSAC hypotheses projected per batch; bounds the temporary arrays
_SCORE_CHUNK = 64


def default_pixel_covariance(sigma_px: float = 1.0) -> np.ndarray:
    return np.eye(2) * sigma_px**2


@dataclass(frozen=True, eq=False)
class Observation:
    """A single pixel detection of a control point."""

    image_id: int  # trajectory timestamp, ns
    camera_id: str
    pixel: np.ndarray  # (2,)
    pixel_cov: np.ndarray = field(default_factory=default_pixel_covariance)

    def __post_init__(self):
        object.__setattr__(self, "pixel", np.asarray(self.pixel, dtype=float).reshape(2))
        object.__setattr__(
            self, "pixel_cov", np.asarray(self.pixel_cov, dtype=float).reshape(2, 2)
        )


@dataclass
class TriangulatedCP:
    """Triangulated local-frame position of one control point."""

    cp_id: str
    position: np.ndarray  # (3,)
    covariance: np.ndarray  # (3, 3)
    inliers: tuple[Observation, ...]
    mean_reproj_error_px: float


@dataclass(frozen=True)
class TriangulationConfig:
    threshold_px: float = 4.0
    max_iters: int = 500
    seed: int = 42
    sigma_detect_px: float = 1.0
    min_pair_angle_deg: float = 0.5


class ViewSet:
    """Observations of one point, stacked for batched evaluation.

    View k maps a point p of the working frame into its camera as
    p_cam = a[k] @ p + b[k] and measured pixels[k] with inverse pixel
    covariance weights[k]. Views are grouped by camera model, so each
    model projects all of its views in one call.
    """

    def __init__(self, observations, a, b, cameras, camera_index):
        self.observations = tuple(observations)
        self.a, self.b = a, b  # (N, 3, 3), (N, 3)
        self.cameras = cameras  # distinct models
        self.camera_index = camera_index  # view k uses cameras[camera_index[k]]
        self.pixels = np.array([o.pixel for o in self.observations]).reshape(-1, 2)
        self.weights = np.linalg.inv(
            np.array([o.pixel_cov for o in self.observations]).reshape(-1, 2, 2)
        )
        self.groups = [
            (cam, idx)
            for k, cam in enumerate(cameras)
            if (idx := np.flatnonzero(camera_index == k)).size
        ]

    @classmethod
    def build(
        cls,
        observations: Sequence[Observation],
        poses: Mapping[int, RigidPose | Similarity],
        rig: RigCalibration,
    ) -> "ViewSet":
        n = len(observations)
        a, b = np.empty((n, 3, 3)), np.empty((n, 3))
        camera_index = np.empty(n, dtype=int)
        camera_ids: dict[str, int] = {}
        for k, obs in enumerate(observations):
            if obs.image_id not in poses:
                raise VigtError(f"no pose for image id {obs.image_id}")
            a[k], b[k] = camera_from_frame(
                poses[obs.image_id], rig.camera_from_device[obs.camera_id]
            )
            camera_index[k] = camera_ids.setdefault(obs.camera_id, len(camera_ids))
        cameras = tuple(rig.cameras[cid] for cid in camera_ids)
        return cls(observations, a, b, cameras, camera_index)

    def take(self, rows: np.ndarray) -> "ViewSet":
        """The views at the given integer rows."""
        return ViewSet(
            [self.observations[k] for k in rows],
            self.a[rows],
            self.b[rows],
            self.cameras,
            self.camera_index[rows],
        )

    def _points_in_camera(self, p: np.ndarray) -> np.ndarray:
        """(N, 3) camera-frame points for a (3,) point, (H, N, 3) for (H, 3)."""
        return np.einsum("nij,...j->...ni", self.a, p) + self.b

    def centers_and_rays(self) -> tuple[np.ndarray, np.ndarray]:
        """Camera centres and unit rays through the measured pixels, both
        (N, 3) in the working frame."""
        a_inv = np.linalg.inv(self.a)
        dirs = np.empty_like(self.b)
        for cam, idx in self.groups:
            dirs[idx] = unproject(cam, self.pixels[idx])
        rays = np.einsum("nij,nj->ni", a_inv, dirs)
        centers = -np.einsum("nij,nj->ni", a_inv, self.b)
        return centers, rays / np.linalg.norm(rays, axis=1, keepdims=True)

    def errors(self, p: np.ndarray) -> np.ndarray:
        """Pixel reprojection error of every view, inf where the point does
        not project: (N,) for a (3,) point, (H, N) for (H, 3) points."""
        p_cam = self._points_in_camera(p)
        err = np.empty(p_cam.shape[:-1])
        for cam, idx in self.groups:
            shape = p_cam.shape[:-2] + (len(idx),)
            uv, valid = try_project(cam, p_cam[..., idx, :].reshape(-1, 3))
            e = np.linalg.norm(uv.reshape(shape + (2,)) - self.pixels[idx], axis=-1)
            err[..., idx] = np.where(valid.reshape(shape), e, np.inf)
        return err

    def in_front(self, p: np.ndarray) -> np.ndarray:
        """Whether the point lies in front of each view, shaped as errors();
        the fisheye model sees all around."""
        front = self._points_in_camera(p)[..., 2] > 0.0
        for cam, idx in self.groups:
            if cam.kind is CameraKind.KANNALA_BRANDT4:
                front[..., idx] = True
        return front

    def _rows_in_camera(self, p: np.ndarray) -> np.ndarray:
        """(N, 3) camera-frame points for a (3,) point or one (N, 3) point
        per view."""
        return np.einsum("nij,nj->ni", self.a, np.broadcast_to(p, self.b.shape)) + self.b

    def residuals(self, p: np.ndarray) -> np.ndarray:
        """(N, 2) projection at clamped depth minus measurement, for a (3,)
        point or one (N, 3) point per view."""
        p_cam = self._rows_in_camera(p)
        res = np.empty_like(self.pixels)
        for cam, idx in self.groups:
            uv, _ = try_project(cam, clamp_depth(cam, p_cam[idx]))
            res[idx] = uv - self.pixels[idx]
        return res

    def jacobians(self, p: np.ndarray) -> np.ndarray:
        """(N, 2, 3) d(pixel)/d(p) of every view, at clamped depth, for a
        (3,) point or one (N, 3) point per view."""
        p_cam = self._rows_in_camera(p)
        jac = np.empty((len(self.b), 2, 3))
        for cam, idx in self.groups:
            jac[idx] = projection_jacobian_batch(cam, clamp_depth(cam, p_cam[idx]))
        return jac @ self.a

    def refine(self, point: np.ndarray) -> np.ndarray:
        """Levenberg-Marquardt minimum of the weighted reprojection cost
        sum_k r_k' weights[k] r_k, started at `point`.

        Damping is multiplicative on the Hessian diagonal. A step is kept
        only if it lowers the cost, so the result is never worse than the
        start. Stops after 50 iterations, or once the gradient or an
        accepted step falls below 1e-12.
        """
        p = np.asarray(point, dtype=float)
        res = self.residuals(p)
        cost = np.einsum("ni,nij,nj->", res, self.weights, res)
        lam = 1e-4
        for _ in range(50):
            jac = self.jacobians(p)
            jt_w = np.einsum("nji,njk->nik", jac, self.weights)
            grad = np.einsum("nij,nj->i", jt_w, res)
            if np.max(np.abs(grad)) < 1e-12:
                break
            hess = np.einsum("nij,njk->ik", jt_w, jac)
            damping = np.diag(np.maximum(np.diag(hess), 1e-12))
            while lam <= 1e10:
                try:
                    step = np.linalg.solve(hess + lam * damping, -grad)
                except np.linalg.LinAlgError:
                    step = np.full(3, np.nan)
                trial = p + step
                trial_res = self.residuals(trial)
                trial_cost = np.einsum("ni,nij,nj->", trial_res, self.weights, trial_res)
                if trial_cost < cost:  # false for a non-finite step or cost
                    break
                lam *= 10.0
            else:
                break  # no damping lowers the cost
            p, res, cost = trial, trial_res, trial_cost
            lam = max(lam * 0.1, 1e-15)
            if np.linalg.norm(step) < 1e-12:
                break
        return p


def _sample_pairs(n: int, max_pairs: int, seed: int) -> np.ndarray:
    """(P, 2) view pairs i < j: all of them in lexicographic order when
    there are at most `max_pairs`, else `max_pairs` drawn without
    replacement by their lexicographic index."""
    total = n * (n - 1) // 2
    if total > max_pairs:
        k = np.random.default_rng(seed).choice(total, size=max_pairs, replace=False)
    else:
        k = np.arange(total)
    # pairs (i, i+1) .. (i, n-1) have indices starts[i] ..
    starts = np.concatenate(([0], np.cumsum(np.arange(n - 1, 0, -1))))
    i = np.searchsorted(starts, k, side="right") - 1
    return np.stack([i, k - starts[i] + i + 1], axis=1)


def _midpoints(centers: np.ndarray, rays: np.ndarray, pairs: np.ndarray):
    """Midpoints (P, 3) of the shortest segments between the paired rays,
    and whether each is defined (rays not parallel)."""
    (c1, c2), (r1, r2) = centers[pairs.T], rays[pairs.T]
    cos = np.einsum("ij,ij->i", r1, r2)
    d1w, d2w = np.einsum("ij,ij->i", r1, c2 - c1), np.einsum("ij,ij->i", r2, c2 - c1)
    defined = 1.0 - cos * cos >= 1e-12
    denom = np.where(defined, 1.0 - cos * cos, 1.0)
    s1 = (d1w - cos * d2w) / denom
    s2 = (cos * d1w - d2w) / denom
    return 0.5 * (c1 + s1[:, None] * r1 + c2 + s2[:, None] * r2), defined


def _local_optimization(
    views: ViewSet, point: np.ndarray, inliers: np.ndarray, score: tuple, threshold: float
):
    """Refine a hypothesis on its inliers. The refined point replaces it
    only if it keeps 2 or more inliers; otherwise the hypothesis stays,
    with its own score."""
    refined = views.take(np.flatnonzero(inliers)).refine(point)
    errors = views.errors(refined)
    new_inliers = errors <= threshold
    count = int(new_inliers.sum())
    if count < 2:
        return point, inliers, score
    return refined, new_inliers, (count, -float(errors[new_inliers].mean()))


def triangulate_ransac(
    observations: Sequence[Observation],
    poses: Mapping[int, RigidPose | Similarity],
    rig: RigCalibration,
    config: TriangulationConfig = TriangulationConfig(),
) -> tuple[np.ndarray, tuple[int, ...]]:
    """LO-RANSAC triangulation: returns (point, inlier indices).

    Two-view midpoint hypotheses rank by inlier count, then by mean inlier
    error; each one that beats the best so far is refined on its inliers.
    Deterministic for a fixed seed and input order. Pairs are enumerated
    exhaustively when few, sampled otherwise.
    """
    if len(observations) < 2:
        raise InsufficientObservationsError(
            f"triangulation needs at least 2 observations, got {len(observations)}"
        )
    views = ViewSet.build(observations, poses, rig)
    pairs = _sample_pairs(len(observations), config.max_iters, config.seed)
    centers, rays = views.centers_and_rays()

    i, j = pairs[:, 0], pairs[:, 1]
    min_sin = np.sin(np.deg2rad(config.min_pair_angle_deg))
    usable = (np.linalg.norm(centers[j] - centers[i], axis=1) >= 1e-12) & (
        np.linalg.norm(np.cross(rays[i], rays[j]), axis=1) >= min_sin
    )
    if not usable.any():
        raise DegenerateGeometryError(
            "all observation pairs are near-parallel or have zero baseline"
        )
    points, defined = _midpoints(centers, rays, pairs)
    hypotheses = np.flatnonzero(usable & defined)

    # scores are (inlier count, -mean inlier error) and rank as tuples
    best_point, best_inliers, best_score = None, None, (-1, -np.inf)
    for start in range(0, len(hypotheses), _SCORE_CHUNK):
        chunk = hypotheses[start : start + _SCORE_CHUNK]
        pts = points[chunk]
        visible = np.take_along_axis(views.in_front(pts), pairs[chunk], axis=1).all(axis=1)
        errors = views.errors(pts)
        inliers = errors <= config.threshold_px
        counts = inliers.sum(axis=1)
        means = np.where(inliers, errors, 0.0).sum(axis=1) / np.maximum(counts, 1)
        for k in np.flatnonzero(visible & (counts >= 2)):
            score = (int(counts[k]), -float(means[k]))
            if score <= best_score:
                continue
            point, inl, score = _local_optimization(
                views, pts[k], inliers[k], score, config.threshold_px
            )
            if score > best_score:
                best_point, best_inliers, best_score = point, inl, score

    if best_point is None:
        raise NoConsensusError("no triangulation hypothesis had 2 or more inliers")
    return best_point, tuple(int(k) for k in np.flatnonzero(best_inliers))


def refine_triangulation(
    init_point: np.ndarray,
    inliers: Sequence[Observation],
    poses: Mapping[int, RigidPose | Similarity],
    rig: RigCalibration,
    cp_id: str = "",
) -> TriangulatedCP:
    """Minimize the inlier reprojection error from a RANSAC initialization."""
    if len(inliers) < 2:
        raise InsufficientObservationsError(
            f"refinement needs at least 2 inlier observations, got {len(inliers)}"
        )
    views = ViewSet.build(inliers, poses, rig)
    point = views.refine(init_point)

    behind = np.flatnonzero(~views.in_front(point))
    if behind.size:
        obs = views.observations[behind[0]]
        raise BehindCameraError(
            f"refined point is behind camera '{obs.camera_id}'"
            f" at image {obs.image_id}"
        )
    mean_err = float(np.mean(views.errors(point)))
    cov = triangulation_covariance(point, inliers, poses, rig)
    return TriangulatedCP(
        cp_id=cp_id,
        position=point,
        covariance=cov,
        inliers=tuple(inliers),
        mean_reproj_error_px=mean_err,
    )


def triangulation_covariance(
    point: np.ndarray,
    inliers: Sequence[Observation],
    poses: Mapping[int, RigidPose | Similarity],
    rig: RigCalibration,
) -> np.ndarray:
    """Inverse Gauss-Newton Hessian of the reprojection problem at the
    solution: (J' Sigma_px^-1 J)^-1."""
    if len(inliers) < 2:
        raise InsufficientObservationsError("covariance needs at least 2 observations")
    views = ViewSet.build(inliers, poses, rig)
    jac = views.jacobians(point)
    h = np.einsum("nji,njk,nkl->il", jac, views.weights, jac)
    try:
        cov = np.linalg.inv(h)
    except np.linalg.LinAlgError:
        raise DegenerateGeometryError(
            "triangulation Hessian is singular; observation geometry is degenerate"
        ) from None
    if np.linalg.cond(h) > 1e14:
        raise DegenerateGeometryError(
            "triangulation Hessian is numerically singular"
        )
    return 0.5 * (cov + cov.T)


def triangulate_cp(
    cp_id: str,
    observations: Sequence[Observation],
    poses: Mapping[int, RigidPose | Similarity],
    rig: RigCalibration,
    config: TriangulationConfig = TriangulationConfig(),
) -> TriangulatedCP:
    """RANSAC + refinement + covariance for one control point."""
    point, inlier_idx = triangulate_ransac(observations, poses, rig, config)
    inliers = [observations[k] for k in inlier_idx]
    return refine_triangulation(point, inliers, poses, rig, cp_id=cp_id)


def triangulate_all(
    detections: Mapping[str, Sequence[Observation]],
    poses: Mapping[int, RigidPose | Similarity],
    rig: RigCalibration,
    config: TriangulationConfig = TriangulationConfig(),
) -> tuple[dict[str, TriangulatedCP], dict[str, str]]:
    """Triangulate every control point; failures are collected, not raised."""
    results: dict[str, TriangulatedCP] = {}
    failures: dict[str, str] = {}
    for cp_id, obs in detections.items():
        try:
            results[cp_id] = triangulate_cp(cp_id, obs, poses, rig, config)
        except VigtError as exc:
            failures[cp_id] = f"{type(exc).__name__}: {exc}"
    return results, failures
