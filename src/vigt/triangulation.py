"""Control-point triangulation from pixel detections, every point of a
call in lockstep.

All stages work on one `ViewSet` that stacks the views of all points, rows
grouped by point, so each camera model projects the views of every point
in one call:

- LO-RANSAC (Chum, Matas & Kittler, "Locally Optimized RANSAC", DAGM
  2003). Each point draws its own two-view pairs in a random order fixed by
  its view count (`_sample_pairs`), at most `max_iters` of them, and stops
  at the first k of them with k >= log(eta) / log(1 - eps_k^2), eps_k the
  best raw inlier fraction of a candidate among its first k midpoint
  hypotheses and eta = 0.01 (Fischler & Bolles, "Random Sample Consensus",
  CACM 1981): by then an all-inlier pair has been missed with probability
  at most eta. The hypotheses of all unfinished points are scored in passes
  over flat (hypothesis, view) entries. Local optimization runs in rounds:
  in each, every point takes its next hypothesis, in its own order, that
  beats its best so far, and all of those are refined in one batched call.
- Refinement: one Levenberg-Marquardt loop over (P, 3) points, each with
  its own damping and stopping rule (`ViewSet.refine`).
- Covariance: the inverse Gauss-Newton Hessian of every point at once.

A point's sums add its own terms one at a time (`np.bincount`), in the
order `np.einsum` takes them over that point's rows alone, so its result
does not depend on the other points of the batch and equals the
one-point-at-a-time computation bit for bit. The failure of one point (a
`VigtError`) never changes another's result. Camera poses are fixed
inputs; they may carry a scale when the trajectory lives in a monocular
SLAM frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import (
    BehindCameraError,
    DegenerateGeometryError,
    InsufficientObservationsError,
    NoConsensusError,
    UnprojectionError,
    VigtError,
)
from .geometry import (
    CameraKind,
    RigCalibration,
    RigidPose,
    Similarity,
    camera_from_frame,
    clamp_depth,
    projection_jacobian_batch,
    try_project,
    unproject_segments,
)
from .solver import CONVERGENCE_TOL

# (hypothesis, view) entries scored at a time; bounds the temporary arrays
_SCORE_ENTRIES = 8192
# reprojection error, px, up to which a view is an inlier of a hypothesis
_THRESHOLD_PX = 4.0
# seed of the pair sampling, so a point's pairs depend only on its view count
_SEED = 42
# pairs whose rays meet at a smaller angle, in degrees, make no hypothesis
_MIN_PAIR_ANGLE_DEG = 0.5
# a point stops drawing pairs once the chance of having missed an all-inlier
# pair is at most this (Fischler & Bolles, "Random Sample Consensus", CACM
# 1981; the customary 1 - 0.99 confidence)
_ETA = 0.01
# hypotheses each point scores in the first pass; every later pass doubles it
_FIRST_PASS = 4


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
    # two-view hypotheses drawn per point, at most: the cap of the stopping
    # rule k >= log(0.01) / log(1 - eps^2), on pairs in a seeded random order
    max_iters: int = 500


def _point_sums(point: np.ndarray, terms: np.ndarray, n_points: int) -> np.ndarray:
    """Per-point sums (n_points, *out) of (n, T, *out) terms, T per row.

    Each sum adds its point's terms one at a time in (row, term) order, so
    it does not depend on the other points, and with the terms laid out as
    `np.einsum` visits them it equals the einsum over the point's rows
    alone."""
    out = terms.shape[2:]
    width = int(np.prod(out, dtype=int))
    codes = np.repeat(point, terms.shape[1])[:, None] * width + np.arange(width)
    sums = np.bincount(codes.ravel(), weights=terms.reshape(-1), minlength=n_points * width)
    return sums.reshape((n_points,) + out)


def _stacked(fn: Callable, shape: tuple, *mats: np.ndarray):
    """`fn` over stacked matrices, and the mask of the entries on which it
    raises LinAlgError, left NaN; every other entry is `fn` of it alone."""
    try:
        return fn(*mats), np.zeros(shape[0], dtype=bool)
    except np.linalg.LinAlgError:
        out, bad = np.full(shape, np.nan), np.zeros(shape[0], dtype=bool)
        for k in range(shape[0]):
            try:
                out[k] = fn(*(m[k] for m in mats))
            except np.linalg.LinAlgError:
                bad[k] = True
        return out, bad


def _solve(mats: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    return np.linalg.solve(mats, rhs[..., None])[..., 0]


class ViewSet:
    """Observations of one or more points, stacked for batched evaluation.

    View k maps a point p of the working frame into its camera as
    p_cam = a[k] @ p + b[k] and measured pixels[k] with inverse pixel
    covariance weights[k]. It observes point point[k] of n_points; the
    rows of each point are contiguous, in point order (starts, sizes).
    Each camera model projects all of its views in one call.
    """

    def __init__(self, observations, a, b, pixels, weights, cameras, camera_index, point):
        self.observations = tuple(observations)
        self.a, self.b = a, b  # (N, 3, 3), (N, 3)
        self.pixels, self.weights = pixels, weights  # (N, 2), (N, 2, 2)
        self.cameras = cameras  # distinct models
        self.camera_index = camera_index  # view k uses cameras[camera_index[k]]
        self.point = point  # (N,) int
        self.n_points = int(point[-1]) + 1 if len(point) else 0
        self.sizes = np.bincount(point, minlength=self.n_points)
        self.starts = np.concatenate(([0], np.cumsum(self.sizes)))
        self.groups = self._by_camera(np.arange(len(point)))

    @classmethod
    def build(
        cls,
        observations: Sequence[Observation],
        poses: Mapping[int, RigidPose | Similarity],
        rig: RigCalibration,
        point: np.ndarray | None = None,
    ) -> "ViewSet":
        """Views of the observations; `point[k]` numbers the point that
        observation k sees (default: all one point). The camera map of
        each distinct (image, camera) pair is computed once."""
        n = len(observations)
        frames: dict[tuple[int, str], int] = {}
        frame_index = np.empty(n, dtype=int)
        camera_ids: dict[str, int] = {}
        camera_index = np.empty(n, dtype=int)
        for k, obs in enumerate(observations):
            frame_index[k] = frames.setdefault((obs.image_id, obs.camera_id), len(frames))
            camera_index[k] = camera_ids.setdefault(obs.camera_id, len(camera_ids))
        a, b = np.empty((len(frames), 3, 3)), np.empty((len(frames), 3))
        for f, (image_id, camera_id) in enumerate(frames):
            if image_id not in poses:
                raise VigtError(f"no pose for image id {image_id}")
            a[f], b[f] = camera_from_frame(poses[image_id], rig.camera_from_device[camera_id])
        return cls(
            observations,
            a[frame_index],
            b[frame_index],
            np.array([o.pixel for o in observations]).reshape(-1, 2),
            np.linalg.inv(np.array([o.pixel_cov for o in observations]).reshape(-1, 2, 2)),
            tuple(rig.cameras[cid] for cid in camera_ids),
            camera_index,
            np.zeros(n, dtype=int) if point is None else np.asarray(point),
        )

    def take(self, rows: np.ndarray, point: np.ndarray | None = None) -> "ViewSet":
        """The views at the given integer rows, observing `point` (default:
        the numbers of their own points)."""
        rows = np.asarray(rows, dtype=int)
        return ViewSet(
            [self.observations[k] for k in rows],
            self.a[rows],
            self.b[rows],
            self.pixels[rows],
            self.weights[rows],
            self.cameras,
            self.camera_index[rows],
            self.point[rows] if point is None else point,
        )

    def _by_camera(self, rows: np.ndarray) -> list:
        """(camera, positions in `rows`) of each camera model among the rows."""
        cam_of = self.camera_index[rows]
        return [
            (cam, idx)
            for k, cam in enumerate(self.cameras)
            if (idx := np.flatnonzero(cam_of == k)).size
        ]

    def _select(self, rows):
        return (slice(None), self.groups) if rows is None else (rows, self._by_camera(rows))

    @staticmethod
    def _rows(values: np.ndarray, rows) -> np.ndarray:
        """values[rows] for a slice, or by np.take, the faster gather, for
        an index array."""
        return values[rows] if isinstance(rows, slice) else np.take(values, rows, axis=0)

    def _in_camera(self, rows, p: np.ndarray) -> np.ndarray:
        """(n, 3) camera-frame points of the rows (an index array or a
        slice), for a (3,) point or one (n, 3) point per row."""
        a, b = self._rows(self.a, rows), self._rows(self.b, rows)
        return np.einsum("nij,nj->ni", a, np.broadcast_to(p, b.shape)) + b

    def _errors(self, rows, p: np.ndarray) -> np.ndarray:
        sel, groups = self._select(rows)
        p_cam, pixels = self._in_camera(sel, p), self._rows(self.pixels, sel)
        err = np.empty(len(p_cam))
        for cam, idx in groups:
            uv, valid = try_project(cam, np.take(p_cam, idx, axis=0))
            d = uv - np.take(pixels, idx, axis=0)
            # the pixel distance, summed as np.linalg.norm does
            err[idx] = np.where(valid, np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]), np.inf)
        return err

    def _in_front(self, rows, p: np.ndarray) -> np.ndarray:
        """Whether the point lies in front of each row's view; the fisheye
        model sees all around."""
        sel, groups = self._select(rows)
        front = self._in_camera(sel, p)[:, 2] > 0.0
        for cam, idx in groups:
            if cam.kind is CameraKind.KANNALA_BRANDT4:
                front[idx] = True
        return front

    def _residuals(self, rows, p: np.ndarray) -> np.ndarray:
        sel, groups = self._select(rows)
        p_cam, pixels = self._in_camera(sel, p), self._rows(self.pixels, sel)
        res = np.empty((len(p_cam), 2))
        for cam, idx in groups:
            uv, _ = try_project(cam, clamp_depth(cam, p_cam[idx]))
            res[idx] = uv - pixels[idx]
        return res

    def _jacobians(self, rows, p: np.ndarray) -> np.ndarray:
        sel, groups = self._select(rows)
        p_cam = self._in_camera(sel, p)
        jac = np.empty((len(p_cam), 2, 3))
        for cam, idx in groups:
            jac[idx] = projection_jacobian_batch(cam, clamp_depth(cam, p_cam[idx]))
        return jac @ self._rows(self.a, sel)

    def errors(self, p: np.ndarray) -> np.ndarray:
        """Pixel reprojection error of every view, inf where the point does
        not project: (N,) for a (3,) point, (H, N) for (H, 3) points."""
        p = np.asarray(p, dtype=float)
        pts = p.reshape(-1, 3)
        n = len(self.b)
        flat = self._errors(np.tile(np.arange(n), len(pts)), np.repeat(pts, n, axis=0))
        return flat.reshape(p.shape[:-1] + (n,))

    def residuals(self, p: np.ndarray) -> np.ndarray:
        """(N, 2) projection at clamped depth minus measurement, for a (3,)
        point or one (N, 3) point per view."""
        return self._residuals(None, p)

    def jacobians(self, p: np.ndarray) -> np.ndarray:
        """(N, 2, 3) d(pixel)/d(p) of every view, at clamped depth, for a
        (3,) point or one (N, 3) point per view."""
        return self._jacobians(None, p)

    def centers_and_rays(self) -> tuple[np.ndarray, np.ndarray, dict[int, UnprojectionError]]:
        """Camera centres and unit rays through the measured pixels, both
        (N, 3) in the working frame, and the UnprojectionError of each point
        whose pixels do not unproject, keyed by point: that of the first of
        its camera models, in its own view order, that fails."""
        a_inv = np.linalg.inv(self.a)
        dirs = np.empty_like(self.b)
        failures: dict[int, UnprojectionError] = {}
        first_row: dict[int, int] = {}
        for cam, idx in self.groups:
            dirs[idx], failed = unproject_segments(cam, self.pixels[idx], self.point[idx])
            for p, exc in failed.items():
                row = idx[np.argmax(self.point[idx] == p)]
                if row < first_row.get(p, len(self.b)):
                    first_row[p], failures[p] = row, exc
        rays = np.einsum("nij,nj->ni", a_inv, dirs)
        centers = -np.einsum("nij,nj->ni", a_inv, self.b)
        return centers, rays / np.linalg.norm(rays, axis=1, keepdims=True), failures

    def _costs(self, rows, res: np.ndarray) -> np.ndarray:
        """(n_points,) weighted squared residuals summed over the rows."""
        sel = slice(None) if rows is None else rows
        # terms of einsum("ni,nij,nj->", ...), in its order
        terms = (res[:, :, None] * self.weights[sel]) * res[:, None, :]
        return _point_sums(self.point[sel], terms.reshape(-1, 4), self.n_points)

    def refine(self, points: np.ndarray) -> np.ndarray:
        """Levenberg-Marquardt minimum of each point's weighted reprojection
        cost sum_k r_k' weights[k] r_k over its views, started at `points`
        ((n_points, 3), or (3,) for a set of one point).

        Every point keeps its own damping, multiplicative on its Hessian
        diagonal, and takes a step only if it lowers its cost, so the result
        is never worse than the start. A point stops after 50 steps, when
        no damping up to 1e10 lowers its cost, or once a step lowers it by
        at most the solver's CONVERGENCE_TOL of it. All points take their
        trial steps in lockstep, one batched evaluation per round.
        """
        n_points, pt = self.n_points, self.point
        p = np.array(points, dtype=float).reshape(n_points, 3)
        res = self._residuals(None, p[pt])
        cost = self._costs(None, res)
        lam = np.full(n_points, 1e-4)
        steps = np.zeros(n_points, dtype=int)
        active = np.ones(n_points, dtype=bool)
        stale = np.ones(n_points, dtype=bool)  # linearize before the next trial
        grad, hess = np.zeros((n_points, 3)), np.zeros((n_points, 3, 3))
        damping = np.zeros((n_points, 3, 3))
        diag = np.arange(3)
        while active.any():
            rows = np.flatnonzero(stale[pt])
            if rows.size:
                jac = self._jacobians(rows, p[pt[rows]])
                jt_w = np.einsum("nji,njk->nik", jac, self.weights[rows])
                # the terms of einsum("nij,nj->i") and ("nij,njk->ik"), in
                # their order
                g_terms = np.einsum("nij,nj->ni", jt_w, res[rows])[:, None]
                h_terms = np.swapaxes(jt_w, 1, 2)[:, :, :, None] * jac[:, :, None, :]
                g = _point_sums(pt[rows], g_terms, n_points)
                h = _point_sums(pt[rows], h_terms, n_points)
                grad[stale], hess[stale] = g[stale], h[stale]
                d = np.zeros((np.count_nonzero(stale), 3, 3))
                d[:, diag, diag] = np.maximum(h[stale][:, diag, diag], 1e-12)
                damping[stale] = d
                stale[:] = False
            act = np.flatnonzero(active)
            step, _ = _stacked(
                _solve, (len(act), 3), hess[act] + lam[act, None, None] * damping[act], -grad[act]
            )
            trial = p.copy()
            trial[act] += step
            rows = np.flatnonzero(active[pt])
            trial_res = self._residuals(rows, trial[pt[rows]])
            trial_cost = self._costs(rows, trial_res)
            # false for a non-finite step or cost
            better = active & (trial_cost < cost)
            converged = np.zeros(n_points, dtype=bool)
            converged[better] = (
                cost[better] - trial_cost[better] <= CONVERGENCE_TOL * cost[better]
            )
            keep = better[pt[rows]]
            p[better], cost[better] = trial[better], trial_cost[better]
            res[rows[keep]] = trial_res[keep]
            lam[better] = np.maximum(lam[better] * 0.1, 1e-15)
            steps[better] += 1
            stale[better] = True
            active &= ~(converged | (steps >= 50))
            worse = active & ~better
            lam[worse] *= 10.0
            active &= ~(worse & (lam > 1e10))
        return p.reshape(np.shape(points))


def _sample_pairs(n: int, max_pairs: int, seed: int) -> np.ndarray:
    """(P, 2) view pairs i < j in a random order fixed by n and the seed:
    min(n(n-1)/2, `max_pairs`) of them, drawn without replacement by their
    lexicographic index, so every pair when there are at most `max_pairs`."""
    total = n * (n - 1) // 2
    k = np.random.default_rng(seed).choice(total, size=min(total, max_pairs), replace=False)
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


def _entries(views: ViewSet, owner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of every view of each listed point (`owner`, (K,) point
    numbers), concatenated, and the list position each row belongs to."""
    sizes = views.sizes[owner]
    local = np.repeat(np.arange(len(owner)), sizes)
    offsets = np.arange(len(local)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    return views.starts[owner][local] + offsets, local


def _beats(count, mean, best_count, best_mean) -> np.ndarray:
    """Whether the score (count, -mean) ranks above (best_count, -best_mean)
    as a tuple."""
    return (count > best_count) | ((count == best_count) & (mean < best_mean))


def _inlier_scores(local: np.ndarray, errors: np.ndarray, threshold: float, n: int):
    """Inlier mask of flat errors, and the inlier count and mean inlier
    error of each of the n owners that `local` numbers."""
    inliers = errors <= threshold
    counts = np.bincount(local[inliers], minlength=n)
    sums = np.bincount(local, weights=np.where(inliers, errors, 0.0), minlength=n)
    return inliers, counts, sums / np.maximum(counts, 1)


def _local_optimization(
    views: ViewSet,
    points: np.ndarray,
    inliers: np.ndarray,
    counts: np.ndarray,
    means: np.ndarray,
    threshold: float,
):
    """Refine one hypothesis per point of `views` ((n_points, 3) points,
    (N,) inlier mask, their inlier counts and mean errors) on its inliers,
    all in one batched call. A refined point replaces its hypothesis only if
    it keeps 2 or more inliers; otherwise the hypothesis stays, with its own
    score. Returns the points, inlier mask, counts and means."""
    refined = views.take(np.flatnonzero(inliers)).refine(points)
    new, new_counts, new_means = _inlier_scores(
        views.point, views._errors(None, refined[views.point]), threshold, views.n_points
    )
    ok = new_counts >= 2
    return (
        np.where(ok[:, None], refined, points),
        np.where(ok[views.point], new, inliers),
        np.where(ok, new_counts, counts),
        np.where(ok, new_means, means),
    )


def _score_pairs(
    views: ViewSet, centers: np.ndarray, rays: np.ndarray, pairs: np.ndarray, owner: np.ndarray
):
    """Score the midpoint hypothesis of each (P, 2) pair of view rows, pair
    k of point owner[k], against every view of its point, at most
    `_SCORE_ENTRIES` (hypothesis, view) entries at a time. Returns whether
    each pair is usable (a baseline, and rays at least _MIN_PAIR_ANGLE_DEG
    apart), and each hypothesis's inlier count, mean inlier error and
    whether it is a candidate: usable, in front of both views of its pair
    and with 2 or more inliers."""
    i, j = pairs[:, 0], pairs[:, 1]
    usable = (np.linalg.norm(centers[j] - centers[i], axis=1) >= 1e-12) & (
        np.linalg.norm(np.cross(rays[i], rays[j]), axis=1)
        >= np.sin(np.deg2rad(_MIN_PAIR_ANGLE_DEG))
    )
    midpoints, defined = _midpoints(centers, rays, pairs)
    counts, means = np.zeros(len(pairs), dtype=int), np.zeros(len(pairs))
    candidate = np.zeros(len(pairs), dtype=bool)
    scored = np.flatnonzero(usable & defined)
    ends = np.cumsum(views.sizes[owner[scored]])
    start = 0
    while start < len(scored):
        budget = ends[start] - views.sizes[owner[scored[start]]] + _SCORE_ENTRIES
        hyp = scored[start : max(start + 1, int(np.searchsorted(ends, budget, "right")))]
        pts = midpoints[hyp]
        rows, local = _entries(views, owner[hyp])
        errors = views._errors(rows, pts[local])
        _, counts[hyp], means[hyp] = _inlier_scores(local, errors, _THRESHOLD_PX, len(hyp))
        front = views._in_front(pairs[hyp].ravel(), np.repeat(pts, 2, axis=0))
        candidate[hyp] = front.reshape(-1, 2).all(axis=1) & (counts[hyp] >= 2)
        start += len(hyp)
    return usable, counts, means, candidate


def _lo_ransac(views: ViewSet, config: TriangulationConfig):
    """LO-RANSAC of every point of `views`, as `triangulate_ransac` of each
    alone: the (n_points, 3) points, the (N,) inlier mask of their views,
    the error of each point that fails, keyed by point, and the (n_points,)
    number of hypotheses each point drew.

    A point draws its pairs in the order `_sample_pairs` gives and stops
    after the first k of them for which k >= log(eta) / log(1 - eps_k^2),
    eps_k the best raw inlier fraction of a candidate among them (`_ETA`),
    or after all of them. The points score their hypotheses in passes, each
    unfinished point its next `_FIRST_PASS` in the first and twice as many
    in every later one; a point leaves once it stops, and what it scored
    past its stop is discarded, so its stop and result do not depend on the
    other points."""
    n_points = views.n_points
    centers, rays, unprojection = views.centers_and_rays()
    failures: dict[int, VigtError] = dict(unprojection)
    failed = np.zeros(n_points, dtype=bool)
    failed[list(failures)] = True

    # every point draws its own pairs; points with as many views draw the same
    sizes = views.sizes.tolist()
    samples = {n: _sample_pairs(n, config.max_iters, _SEED) for n in set(sizes)}
    n_pairs = np.array([len(samples[n]) for n in sizes], dtype=int)
    first_pair = np.cumsum(n_pairs) - n_pairs
    pair_point = np.repeat(np.arange(n_points), n_pairs)
    pairs = np.concatenate([samples[n] for n in sizes]) + views.starts[pair_point, None]

    # score in passes until every point has stopped; the stop of a point
    # is fixed by its own hypotheses alone
    counts, means = np.zeros(len(pairs), dtype=int), np.zeros(len(pairs))
    candidate = np.zeros(len(pairs), dtype=bool)
    any_usable = np.zeros(n_points, dtype=bool)
    drawn = np.zeros(n_points, dtype=int)
    stop = np.where(failed, 0, n_pairs)  # the cap until the rule stops a point
    best = np.zeros(n_points, dtype=int)  # raw inlier count of its best candidate
    width = _FIRST_PASS
    while (live := np.flatnonzero(drawn < stop)).size:
        take = np.minimum(width, stop[live] - drawn[live])
        owner = np.repeat(live, take)
        # the number of each hypothesis in its point's own order, from 0
        nth = np.arange(len(owner)) + np.repeat(drawn[live] - np.cumsum(take) + take, take)
        at = first_pair[owner] + nth
        usable, count, mean, cand = _score_pairs(views, centers, rays, pairs[at], owner)
        # the best raw inlier count up to each hypothesis of its point: a
        # running maximum, kept apart per point by an offset
        offset = np.repeat(np.arange(len(live)) * (views.sizes.max() + 1), take)
        running = np.maximum.accumulate(np.where(cand, count, 0) + offset) - offset
        eps = np.maximum(running, best[owner]) / views.sizes[owner]
        done = (1.0 - eps * eps) ** (nth + 1) <= _ETA
        stopped, first = np.unique(owner[done], return_index=True)
        stop[stopped] = nth[done][first] + 1
        keep = nth < stop[owner]
        any_usable[owner[usable & keep]] = True
        counts[at], means[at], candidate[at] = count, mean, cand & keep
        np.maximum.at(best, owner[keep], running[keep])
        drawn[live] = np.minimum(drawn[live] + take, stop[live])
        width *= 2
    for p in np.flatnonzero(~any_usable & ~failed):
        failures[int(p)] = DegenerateGeometryError(
            "all observation pairs are near-parallel or have zero baseline"
        )
        failed[p] = True

    # local optimization in rounds: every point refines its next hypothesis
    # that beats its best so far, all points in one batched call. Bests only
    # rise, so a hypothesis that does not beat its point's best never will.
    best_point = np.zeros((n_points, 3))
    best_inliers = np.zeros(len(views.b), dtype=bool)
    best_count, best_mean = np.full(n_points, -1), np.full(n_points, np.inf)
    pending = np.flatnonzero(candidate)  # in point order, then own order
    while True:
        owner = pair_point[pending]
        beats = _beats(counts[pending], means[pending], best_count[owner], best_mean[owner])
        pending = pending[beats]
        points, first = np.unique(pair_point[pending], return_index=True)
        if not points.size:
            break
        sel = pending[first]
        pending = np.delete(pending, first)
        hyp_pts = _midpoints(centers, rays, pairs[sel])[0]
        rows, local = _entries(views, points)
        inliers = views._errors(rows, hyp_pts[local]) <= _THRESHOLD_PX
        point, inl, count, mean = _local_optimization(
            views.take(rows, point=local),
            hyp_pts,
            inliers,
            counts[sel],
            means[sel],
            _THRESHOLD_PX,
        )
        better = _beats(count, mean, best_count[points], best_mean[points])
        won = points[better]
        best_point[won], best_count[won] = point[better], count[better]
        best_mean[won] = mean[better]
        best_inliers[rows[better[local]]] = inl[better[local]]

    for p in np.flatnonzero((best_count < 0) & ~failed):
        failures[int(p)] = NoConsensusError("no triangulation hypothesis had 2 or more inliers")
    return best_point, best_inliers, failures, drawn


def _refine_points(views: ViewSet, init: np.ndarray):
    """Refinement of every point of `views` from (n_points, 3) `init`, with
    its mean inlier error and covariance: positions, mean errors,
    covariances and the error of each point that fails, keyed by point."""
    points = views.refine(init)
    at = points[views.point]
    failures: dict[int, VigtError] = {}
    behind = np.flatnonzero(~views._in_front(None, at))
    for p, k in zip(*np.unique(views.point[behind], return_index=True)):
        obs = views.observations[behind[k]]
        failures[int(p)] = BehindCameraError(
            f"refined point is behind camera '{obs.camera_id}' at image {obs.image_id}"
        )
    errors = _point_sums(views.point, views._errors(None, at)[:, None], views.n_points)
    covariances, singular = _covariances(views, points)
    for p, exc in singular.items():
        failures.setdefault(p, exc)
    return points, errors / views.sizes, covariances, failures


def _covariances(views: ViewSet, points: np.ndarray):
    """Inverse Gauss-Newton Hessian (J' Sigma_px^-1 J)^-1 of each point's
    reprojection problem at (n_points, 3) `points`, and the error of each
    point whose Hessian is singular, keyed by point."""
    jac = views.jacobians(points[views.point])
    # the terms of einsum("nji,njk,nkl->il", jac, weights, jac), in its
    # (n, j, k) order
    terms = (
        jac[:, :, None, :, None] * views.weights[:, :, :, None, None]
    ) * jac[:, None, :, None, :]
    h = _point_sums(views.point, terms.reshape(-1, 4, 3, 3), views.n_points)
    cov, singular = _stacked(np.linalg.inv, h.shape, h)
    failures: dict[int, VigtError] = {
        int(p): DegenerateGeometryError(
            "triangulation Hessian is singular; observation geometry is degenerate"
        )
        for p in np.flatnonzero(singular)
    }
    ill = np.zeros(len(h), dtype=bool)
    ill[~singular] = np.linalg.cond(h[~singular]) > 1e14
    for p in np.flatnonzero(ill):
        failures[int(p)] = DegenerateGeometryError("triangulation Hessian is numerically singular")
    return 0.5 * (cov + np.swapaxes(cov, 1, 2)), failures


def _too_few(n: int) -> InsufficientObservationsError:
    return InsufficientObservationsError(
        f"triangulation needs at least 2 observations, got {n}"
    )


def _triangulate(
    detections: Mapping[str, Sequence[Observation]],
    poses: Mapping[int, RigidPose | Similarity],
    rig: RigCalibration,
    config: TriangulationConfig,
) -> tuple[dict[str, TriangulatedCP], dict[str, VigtError]]:
    """LO-RANSAC, refinement and covariance of every point, all points in
    lockstep; each failure is the error that point alone would raise."""
    failures: dict[str, VigtError] = {}
    ids: list[str] = []
    observations: list[Observation] = []
    for cp_id, obs in detections.items():
        missing = next((o.image_id for o in obs if o.image_id not in poses), None)
        if len(obs) < 2:
            failures[cp_id] = _too_few(len(obs))
        elif missing is not None:
            failures[cp_id] = VigtError(f"no pose for image id {missing}")
        else:
            ids.append(cp_id)
            observations += obs
    results: dict[str, TriangulatedCP] = {}
    if ids:
        sizes = [len(detections[cp_id]) for cp_id in ids]
        views = ViewSet.build(observations, poses, rig, np.repeat(np.arange(len(ids)), sizes))
        init, inliers, ransac_failed, _ = _lo_ransac(views, config)
        ok = np.ones(len(ids), dtype=bool)
        ok[list(ransac_failed)] = False
        solved, renumber = np.flatnonzero(ok), np.cumsum(ok) - 1
        rows = np.flatnonzero(inliers)
        final = views.take(rows, point=renumber[views.point[rows]])
        points, errors, covariances, refine_failed = _refine_points(final, init[solved])
        for p, exc in ransac_failed.items():
            failures[ids[p]] = exc
        for k, p in enumerate(solved):
            if k in refine_failed:
                failures[ids[p]] = refine_failed[k]
                continue
            results[ids[p]] = TriangulatedCP(
                cp_id=ids[p],
                position=points[k].copy(),
                covariance=covariances[k],
                inliers=final.observations[final.starts[k] : final.starts[k + 1]],
                mean_reproj_error_px=float(errors[k]),
            )
    return (
        {cp_id: results[cp_id] for cp_id in detections if cp_id in results},
        {cp_id: failures[cp_id] for cp_id in detections if cp_id in failures},
    )


def triangulate_ransac(
    observations: Sequence[Observation],
    poses: Mapping[int, RigidPose | Similarity],
    rig: RigCalibration,
    config: TriangulationConfig = TriangulationConfig(),
) -> tuple[np.ndarray, tuple[int, ...]]:
    """LO-RANSAC triangulation: returns (point, inlier indices).

    Two-view midpoint hypotheses rank by inlier count, then by mean inlier
    error; each one that beats the best so far is refined on its inliers.
    Deterministic for a fixed input order. The view pairs come in a random order fixed by the number
    of observations and a fixed seed: all of them when there are at most
    `config.max_iters`, else that many. Drawing stops at the first k pairs
    with k >= log(eta) / log(1 - eps_k^2), eps_k the best raw inlier
    fraction of a hypothesis among them, eta = 0.01, or after all of them.
    The pipeline runs `triangulate_all`; `perfbench` calls this one-point
    form in its RANSAC microbenchmark and traces it.
    """
    if len(observations) < 2:
        raise _too_few(len(observations))
    points, inliers, failures, _ = _lo_ransac(ViewSet.build(observations, poses, rig), config)
    if failures:
        raise failures[0]
    return points[0], tuple(int(k) for k in np.flatnonzero(inliers))


def triangulate_all(
    detections: Mapping[str, Sequence[Observation]],
    poses: Mapping[int, RigidPose | Similarity],
    rig: RigCalibration,
    config: TriangulationConfig = TriangulationConfig(),
) -> tuple[dict[str, TriangulatedCP], dict[str, str]]:
    """Triangulate every control point in one lockstep batch; failures are
    collected, not raised."""
    results, failures = _triangulate(detections, poses, rig, config)
    return results, {cp_id: f"{type(exc).__name__}: {exc}" for cp_id, exc in failures.items()}
