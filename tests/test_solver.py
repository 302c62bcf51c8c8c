"""Tests for the Levenberg-Marquardt engine and covariance extraction."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from vigt import solver
from vigt.errors import RankDeficientError, SolverError
from vigt.geometry import (
    CameraKind,
    CameraModel,
    Rotation,
    RigidPose,
    Similarity,
    projection_jacobian_batch,
    quat_to_matrix,
    skew,
    try_project,
)
from vigt.solver import (
    HuberLoss,
    Manifold,
    Problem,
    lm_update,
    marginal_covariances,
    solve,
    variance_factor,
)


def reference_retract(manifold: Manifold, value, delta: np.ndarray):
    """Per-object local update, the reference for the row retraction:
    rotations right-multiply Exp(d), translations add, scale updates
    multiplicatively through the log-scale coordinate."""
    if manifold is Manifold.EUCLIDEAN:
        return np.asarray(value, dtype=float) + delta
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


def pose_rows(poses) -> np.ndarray:
    """(N, 7) value rows [q | t] of rigid poses."""
    return np.stack([np.concatenate([t.rotation.quat, t.translation]) for t in poses])


def test_linear_single_residual():
    p = Problem()
    p.add_parameter_block("x", np.array([0.0]))
    p.add_residual_block(lambda x: x - 3.0, ["x"], np.eye(1))
    report = solve(p)
    np.testing.assert_allclose(p.value("x"), [3.0], atol=1e-10)
    assert report.final_cost == pytest.approx(0.0, abs=1e-15)
    assert report.iterations <= 2


def test_rosenbrock():
    a, b = 1.0, 10.0

    def residual(x):
        return np.array([a - x[0], np.sqrt(b) * (x[1] - x[0] ** 2)])

    p = Problem()
    p.add_parameter_block("x", np.array([-1.2, 1.0]))
    p.add_residual_block(residual, ["x"], np.eye(2))
    report = solve(p, max_iters=200)
    np.testing.assert_allclose(p.value("x"), [1.0, 1.0], atol=1e-6)
    assert report.final_cost <= report.initial_cost

    # independent oracle: plain gradient descent drifts to the same basin
    x = np.array([-1.2, 1.0])
    for _ in range(60_000):
        r = residual(x)
        jac = np.array([[-1.0, 0.0], [-2.0 * np.sqrt(b) * x[0], np.sqrt(b)]])
        x = x - 2e-3 * (jac.T @ r)
    assert np.linalg.norm(x - [1.0, 1.0]) < 0.05


def test_nan_residual_aborts_with_block_id():
    p = Problem()
    p.add_parameter_block("x", np.array([0.0]))
    p.add_residual_block(
        lambda x: np.array([np.nan]), ["x"], np.eye(1), rid="bad-block"
    )
    with pytest.raises(SolverError) as exc:
        solve(p)
    assert "bad-block" in str(exc.value)
    assert exc.value.block_id == "bad-block"


def test_zero_parameter_problem_is_error():
    with pytest.raises(SolverError):
        solve(Problem())


def test_rotation_block_rejected():
    # no stage adds a bare rotation; a RigidPose block holds one
    with pytest.raises(TypeError):
        Problem().add_parameter_block("r", Rotation.identity())


def test_cost_monotone_on_manifold_problem():
    rng = np.random.default_rng(0)
    target = RigidPose(Rotation.exp(rng.normal(size=3)), rng.normal(size=3))

    def residual(t):
        rotation = (t.rotation.inverse() @ target.rotation).log()
        return np.concatenate([rotation, t.translation - target.translation])

    p = Problem()
    p.add_parameter_block("t", RigidPose.identity())
    p.add_residual_block(residual, ["t"], np.eye(6) * 0.01)
    report = solve(p)
    assert report.final_cost <= report.initial_cost
    assert p.value("t").rotation.angle_to(target.rotation) < 1e-8
    np.testing.assert_allclose(p.value("t").translation, target.translation, atol=1e-8)
    assert all(b <= a + 1e-15 for a, b in zip(report.cost_history, report.cost_history[1:]))


def test_similarity_block_retraction():
    rng = np.random.default_rng(1)
    target = Similarity(1.7, Rotation.exp(rng.normal(size=3)), rng.normal(size=3))
    pts = rng.normal(scale=3.0, size=(6, 3))
    measured = np.stack([target.apply(q) for q in pts])

    def residual(t):
        return (np.stack([t.apply(q) for q in pts]) - measured).ravel()

    p = Problem()
    p.add_parameter_block("t", Similarity.identity())
    p.add_residual_block(residual, ["t"], np.eye(18))
    solve(p, max_iters=200)
    est = p.value("t")
    assert est.scale == pytest.approx(target.scale, abs=1e-8)
    assert est.rotation.angle_to(target.rotation) < 1e-8
    np.testing.assert_allclose(est.translation, target.translation, atol=1e-8)


def test_whitened_cost_invariant_under_joint_rescale():
    rng = np.random.default_rng(2)
    z = rng.normal(size=4)
    cov = np.diag([0.5, 1.0, 2.0, 4.0])

    def make(k):
        p = Problem()
        p.add_parameter_block("x", np.array([0.3, -0.2, 0.9, 0.0]))
        p.add_residual_block(lambda x, k=k: k * (x - z), ["x"], k**2 * cov)
        return p

    rep1 = solve(make(1.0), max_iters=0)
    rep2 = solve(make(7.0), max_iters=0)
    np.testing.assert_allclose(
        rep1.group_residuals["generic"], rep2.group_residuals["generic"], atol=1e-10
    )


def test_huber_downweights_outlier():
    z = np.array([0.0, 0.0, 0.0, 0.0, 50.0])

    def make(loss):
        p = Problem()
        p.add_parameter_block("x", np.array([5.0]))
        for i, zi in enumerate(z):
            p.add_residual_block(
                lambda x, zi=zi: x - zi, ["x"], np.eye(1), loss=loss, rid=f"m{i}"
            )
        return p

    plain = make(None)
    solve(plain)
    robust = make(HuberLoss(2.0))
    solve(robust)
    assert abs(robust.value("x")[0]) < abs(plain.value("x")[0])
    assert abs(robust.value("x")[0]) < 1.0


class TestMarginalCovariance:
    def test_scalar_prior_fisher_information(self):
        sigma = 0.7
        p = Problem()
        p.add_parameter_block("x", np.array([1.0]))
        p.add_residual_block(lambda x: (x - 1.0) / sigma, ["x"], np.eye(1))
        solve(p)
        cov = marginal_covariances(p, ["x"])["x"]
        np.testing.assert_allclose(cov, [[sigma**2]], atol=1e-12)

    def test_two_independent_scalars(self):
        s1, s2 = 0.3, 1.9
        p = Problem()
        p.add_parameter_block("x", np.array([0.0]))
        p.add_parameter_block("y", np.array([0.0]))
        p.add_residual_block(lambda x: x, ["x"], np.array([[s1**2]]))
        p.add_residual_block(lambda y: y, ["y"], np.array([[s2**2]]))
        solve(p)
        covs = marginal_covariances(p, ["x", "y"])
        np.testing.assert_allclose(covs["x"], [[s1**2]], atol=1e-12)
        np.testing.assert_allclose(covs["y"], [[s2**2]], atol=1e-12)

    def test_gaussian_prior_passthrough(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(3, 3))
        prior_cov = a @ a.T + 3.0 * np.eye(3)
        mu = rng.normal(size=3)
        p = Problem()
        p.add_parameter_block("x", mu.copy())
        p.add_residual_block(lambda x: x - mu, ["x"], prior_cov)
        solve(p)
        np.testing.assert_allclose(marginal_covariances(p, ["x"])["x"], prior_cov, atol=1e-9)

    def test_two_orthogonal_cameras_match_closed_form(self):
        # camera A at origin looks +z, camera B looks -x from (10, 0, 5);
        # point sits at (0, 0, 5), both at distance 5... B is at distance 10.
        cam = CameraModel(CameraKind.PINHOLE, 100.0, 100.0, 0.0, 0.0)
        point = np.array([0.0, 0.0, 5.0])
        pose_a = RigidPose.identity()  # camera-from-world
        r_b = Rotation.from_matrix(
            np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])
        )
        center_b = np.array([10.0, 0.0, 5.0])
        pose_b = RigidPose(r_b, -r_b.apply(center_b))
        sigma_px = 1.0

        def make_residual(pose):
            meas = try_project(cam, pose.apply(point))[0]

            def fn(x):
                return try_project(cam, pose.apply(x))[0] - meas

            def jac(x):
                j_cam = projection_jacobian_batch(cam, pose.apply(x)[None])[0]
                return [j_cam @ pose.rotation.matrix()]

            return fn, jac

        p = Problem()
        p.add_parameter_block("p", point.copy())
        for name, pose in (("a", pose_a), ("b", pose_b)):
            fn, jac = make_residual(pose)
            p.add_residual_block(
                fn, ["p"], sigma_px**2 * np.eye(2), jac=jac, rid=name
            )
        solve(p)
        cov = marginal_covariances(p, ["p"])["p"]

        # closed-form two-ray oracle: each view constrains the two axes
        # perpendicular to its ray with sigma_px * depth / f
        sa = sigma_px * 5.0 / 100.0
        sb = sigma_px * 10.0 / 100.0
        expected = np.diag(
            [sa**2, 1.0 / (1.0 / sa**2 + 1.0 / sb**2), sb**2]
        )
        np.testing.assert_allclose(cov, expected, rtol=1e-2, atol=1e-9)

    def test_rank_deficient_reports_nullity(self):
        p = Problem()
        p.add_parameter_block("x", np.zeros(2))
        p.add_residual_block(lambda x: np.array([x[0] + x[1]]), ["x"], np.eye(1))
        solve(p, max_iters=1)
        with pytest.raises(RankDeficientError) as exc:
            marginal_covariances(p, ["x"])["x"]
        assert exc.value.nullity == 1


class TestVarianceFactor:
    def test_unit_residuals(self):
        p = Problem()
        p.add_parameter_block("x", np.zeros(1))
        z = np.concatenate([np.ones(50), -np.ones(50)])
        p.add_residual_block(
            lambda x: x * 0.0 + (0.0 - z), ["x"], np.eye(100), group="meas"
        )
        # x is not actually observable from this residual; give it a prior
        p.add_residual_block(lambda x: x, ["x"], np.eye(1), group="prior")
        report = solve(p, max_iters=0)
        # redundancy: 100 rows, x not exclusive to "meas" (prior shares it)
        assert report.group_redundancy["meas"] == 100
        assert variance_factor(report, "meas") == pytest.approx(1.0)

    def test_quadratic_scaling(self):
        p = Problem()
        p.add_parameter_block("x", np.zeros(1))
        z = 2.0 * np.concatenate([np.ones(50), -np.ones(50)])
        p.add_residual_block(lambda x: x * 0.0 - z, ["x"], np.eye(100), group="meas")
        p.add_residual_block(lambda x: x, ["x"], np.eye(1), group="prior")
        report = solve(p, max_iters=0)
        assert variance_factor(report, "meas") == pytest.approx(4.0)

    def test_monte_carlo_recovers_noise_inflation(self):
        rng = np.random.default_rng(4)
        n = 10_000
        z = rng.normal(scale=2.0, size=n)
        p = Problem()
        p.add_parameter_block("x", np.array([0.5]))
        p.add_residual_block(
            lambda x: np.full(n, x[0]) - z, ["x"], np.eye(n), group="meas"
        )
        report = solve(p)
        # x exclusively observed by the group: redundancy n - 1
        assert report.group_redundancy["meas"] == n - 1
        assert variance_factor(report, "meas") == pytest.approx(4.0, rel=0.1)

    def test_nonpositive_redundancy_is_error(self):
        p = Problem()
        p.add_parameter_block("x", np.zeros(3))
        p.add_residual_block(lambda x: x[:1] - 1.0, ["x"], np.eye(1), group="g")
        report = solve(p)
        with pytest.raises(ValueError):
            variance_factor(report, "g")


def test_schur_elimination_matches_direct_solve():
    rng = np.random.default_rng(5)
    cam = CameraModel(CameraKind.PINHOLE, 120.0, 120.0, 0.0, 0.0)
    points = rng.normal(scale=2.0, size=(6, 3)) + np.array([0.0, 0.0, 8.0])
    poses = [
        RigidPose(Rotation.exp([0.0, 0.05 * i, 0.0]), np.array([0.4 * i, 0.0, 0.0]))
        for i in range(3)
    ]
    meas = {
        (i, j): try_project(cam, pose.apply(q))[0] + rng.normal(scale=0.4, size=2)
        for i, pose in enumerate(poses)
        for j, q in enumerate(points)
    }

    def build(eliminate):
        # poses 0 and 1 are fixed, which pins the full gauge incl. scale:
        # their rows close over them
        p = Problem()
        p.add_parameter_block("pose2", poses[2])
        for j, q in enumerate(points):
            p.add_parameter_block(
                f"pt{j}", q + rng.normal(scale=0.05, size=3), eliminate=eliminate
            )
        for (i, j), uv in meas.items():
            if i == 2:
                def fn(pose, pt, uv=uv):
                    return try_project(cam, pose.apply(pt))[0] - uv

                p.add_residual_block(fn, ["pose2", f"pt{j}"], np.eye(2), rid=f"o{i}-{j}")
            else:
                def fn(pt, pose=poses[i], uv=uv):
                    return try_project(cam, pose.apply(pt))[0] - uv

                p.add_residual_block(fn, [f"pt{j}"], np.eye(2), rid=f"o{i}-{j}")
        return p

    rng_state = rng.bit_generator.state
    direct = build(False)
    rng.bit_generator.state = rng_state
    schur = build(True)
    rep_a = solve(direct, max_iters=50)
    rep_b = solve(schur, max_iters=50)
    assert rep_a.final_cost == pytest.approx(rep_b.final_cost, rel=1e-8)
    for j in range(len(points)):
        np.testing.assert_allclose(
            direct.value(f"pt{j}"), schur.value(f"pt{j}"), atol=1e-6
        )


def test_schur_step_matches_sparse_solve_in_linear_memory():
    # 3000 eliminated points, four rows each on a random one of 4 poses; a
    # dense point block would hold 9000^2 doubles, 648 MB
    rng = np.random.default_rng(6)
    n_pts, n_poses = 3000, 4
    p = Problem()
    for i in range(n_poses):
        p.add_parameter_block(f"pose{i}", np.zeros(6))
    for j in range(n_pts):
        p.add_parameter_block(f"pt{j}", np.zeros(3), eliminate=True)
    point = np.repeat(np.arange(n_pts), 4)
    pose = rng.integers(n_poses, size=len(point))
    # the rows that give the normal equations their structure, and one
    # identity row per unknown, so that H = J'J + I
    values = rng.normal(size=(len(point), 9))
    jac_pose, jac_point = values[:, None, :6], values[:, None, 6:]
    p.add_stacked_block(
        lambda t, q: (q[:, :1], lambda: [jac_pose, jac_point]),
        [[f"pose{i}" for i in pose], [f"pt{j}" for j in point]],
        np.eye(1),
    )
    for ids, dim in (([f"pose{i}" for i in range(n_poses)], 6), (list(p.params)[n_poses:], 3)):
        eye = np.broadcast_to(np.eye(dim), (len(ids), dim, dim))
        p.add_stacked_block(lambda v, eye=eye: (v, lambda: [eye]), [ids], np.eye(dim))
    ws = solver._Workspace(p)
    jacs, _ = ws.linearize(*ws.evaluate(ws.values())[1:])
    cols = np.hstack(
        [
            6 * pose[:, None] + np.arange(6),
            ws.layout.n + 3 * point[:, None] + np.arange(3),
        ]
    )
    jac = scipy.sparse.csr_matrix(
        (values.ravel(), cols.ravel(), np.arange(0, cols.size + 1, 9)),
        shape=(len(point), ws.n_tangent),
    )
    hess = (jac.T @ jac + scipy.sparse.identity(ws.n_tangent)).tocsc()
    grad = rng.normal(size=ws.n_tangent)

    tracemalloc.start()
    try:
        step = ws.normal_equations(jacs).factor(0.0).solve(grad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    expected = scipy.sparse.linalg.spsolve(hess, -grad)
    np.testing.assert_allclose(step, expected, rtol=1e-9, atol=1e-12)
    assert peak < 50e6


def linear_rows(p: Problem, slots, dim: int, rng, rid: str, loss=None):
    """N stacked linear rows sum_s M_s x_s - b on Euclidean blocks, with
    random (N, dim, k) matrices per slot."""
    k = [p.params[slot[0]].dim for slot in slots]
    mats = [rng.normal(size=(len(slots[0]), dim, ks)) for ks in k]
    b = rng.normal(size=(len(slots[0]), dim))

    def fn(*values):
        return sum(np.einsum("nij,nj->ni", m, v) for m, v in zip(mats, values)) - b

    p.add_stacked_block(
        lambda *values: (fn(*values), lambda: mats), slots, np.eye(dim), rid=rid, loss=loss
    )


def block_problem(seed: int, chain: int, border: int, points: int, far_point: bool):
    """A chain of retained blocks (6- and 3-vectors, each tied to the next),
    border blocks tied to far-apart chain blocks, and eliminated points
    seen from 2-3 consecutive chain blocks; a far point is seen from the
    second and the second-to-last. Every block has a prior row."""
    rng = np.random.default_rng(seed)
    p = Problem()
    chain_ids = [f"c{i}" for i in range(chain)]
    for i, pid in enumerate(chain_ids):
        p.add_parameter_block(pid, rng.normal(size=6 if i % 2 == 0 else 3))
    border_ids = [f"b{i}" for i in range(border)]
    for pid in border_ids:
        p.add_parameter_block(pid, rng.normal(size=3))
    point_ids = [f"pt{j}" for j in range(points + far_point)]
    for pid in point_ids:
        p.add_parameter_block(pid, rng.normal(size=3), eliminate=True)
    for pid in p.params:
        linear_rows(p, [[pid]], p.params[pid].dim, rng, f"prior-{pid}")
    for i in range(chain - 1):
        linear_rows(p, [[chain_ids[i]], [chain_ids[i + 1]]], 3, rng, f"link{i}")
    seen = {}
    for i, pid in enumerate(border_ids):
        seen[pid] = [0, (i + 1) * chain // (border + 1), chain - 1]
    for j in range(points):
        first = int(rng.integers(chain - 2))
        seen[point_ids[j]] = range(first, first + int(rng.integers(2, 4)))
    if far_point:
        seen[point_ids[-1]] = [1, chain - 2]
    for pid, at in seen.items():
        for i in at:
            linear_rows(p, [[chain_ids[i]], [pid]], 2, rng, f"{pid}-c{i}")
    return p


def extended_block_problem(seed: int, **case):
    """A block problem with rows the assembly treats apart: a Huber loss
    active on some rows, slots that name one block in several rows, a block
    named by two slots of one row and a point named by two slots of one
    row."""
    p = block_problem(seed, **case)
    rng = np.random.default_rng(100 + seed)
    p.add_parameter_block("k6", rng.normal(size=6))
    p.add_parameter_block("k3", rng.normal(size=3))
    linear_rows(p, [["c0", "k6", "c2", "k6"], ["c1", "c1", "k3", "c3"]], 3, rng, "mixed")
    linear_rows(p, [["c4", "c6"], ["c4", "c8"]], 4, rng, "twice")
    linear_rows(p, [["pt0"], ["c0"], ["pt0"]], 2, rng, "point-twice")
    linear_rows(
        p, [[f"c{i}" for i in range(0, 12, 2)], ["k3", "c1", "c3", "c5", "k3", "k3"]], 2, rng,
        "huber", HuberLoss(4.0),
    )
    return p


def dense_system(p: Problem):
    """The workspace, and J'J and J'r from the whitened, robust-scaled
    dense Jacobian, built row by row."""
    ws = solver._Workspace(p)
    x = ws.values()
    jac = np.zeros((ws.n_rows, ws.n_tangent))
    res = np.zeros(ws.n_rows)
    for r in p.residuals.values():
        slots = ws.slots(r, x)
        raw, jacobians = r.fn(*slots)
        jacs = jacobians()
        whitener = np.broadcast_to(r.whitener, (r.rows, r.dim, r.dim))
        for n in range(r.rows):
            w = whitener[n] @ raw[n]
            scale = np.sqrt(r.loss.weight(w @ w)) if r.loss else 1.0
            row = ws.rows[r.id] + n * r.dim
            res[row : row + r.dim] = scale * w
            for slot, j in zip(r.params, jacs):
                at, dim = ws.offsets[slot[n]], p.params[slot[n]].dim
                jac[row : row + r.dim, at : at + dim] += scale * whitener[n] @ j[n]
    assert np.isfinite(res).all() and np.abs(res).max() > 0.0
    return ws, jac.T @ jac, jac.T @ res


def assembled(ws):
    """The per-slot linearization at the problem's values: the normal
    equations and the gradient."""
    jacs, rhs = ws.linearize(*ws.evaluate(ws.values())[1:])
    return ws.normal_equations(jacs), ws.gradient(jacs, rhs)


BLOCK_PROBLEMS = {
    "band-border-points": dict(chain=30, border=3, points=12, far_point=False),
    "far-point": dict(chain=30, border=3, points=12, far_point=True),
    "no-border": dict(chain=30, border=0, points=12, far_point=False),
}


@pytest.mark.parametrize("case", sorted(BLOCK_PROBLEMS))
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("lam", [0.0, 1e-3, 10.0])
def test_band_border_step_matches_dense_solve(case, seed, lam):
    ws, hess, grad = dense_system(block_problem(seed, **BLOCK_PROBLEMS[case]))
    lay = ws.layout
    if case == "band-border-points":
        assert lay.band_n > 0 and lay.nb > 0
    if case == "no-border":
        assert lay.nb == 0 and lay.band_n == lay.n
    dense = hess + lam * np.diag(np.maximum(np.diagonal(hess), 1e-12))
    expected = np.linalg.solve(dense, -grad)
    system, gradient = assembled(ws)
    step = system.factor(lam).solve(gradient)
    assert np.linalg.norm(step - expected) <= 1e-10 * np.linalg.norm(expected)


@pytest.mark.parametrize("case", sorted(BLOCK_PROBLEMS))
@pytest.mark.parametrize("seed", range(3))
def test_assembly_matches_dense_normal_equations(case, seed):
    p = extended_block_problem(seed, **BLOCK_PROBLEMS[case])
    ws, hess, grad = dense_system(p)
    lay = ws.layout
    n = lay.n
    system, gradient = assembled(ws)
    scale = np.abs(hess).max()

    # the Huber loss down-weights some rows of its block, not all
    huber = ws.evaluate(ws.values())[1]["huber"]
    assert 0 < np.sum(np.sum(huber**2, axis=1) > 4.0**2) < len(huber)

    # the retained system, lower triangle, at its buffer positions; the
    # band holds every nonzero of its rows, and the trash entry is not read
    i, j = np.tril_indices(n)
    stored = (i >= lay.band_n) | (i - j <= lay.kd)
    assert not hess[i[~stored], j[~stored]].any()
    expected = np.zeros(lay.size + 1)
    expected[lay.dest(i[stored], j[stored])] = hess[i[stored], j[stored]]
    np.testing.assert_allclose(
        system.buffer[: lay.size], expected[: lay.size], rtol=0.0, atol=1e-12 * scale
    )

    # coupling rows of each (point, retained block) incidence; the padding
    # of narrower blocks stays zero
    padded = np.vstack([hess[:n], np.zeros((1, hess.shape[1]))])
    cols = n + 3 * lay.inc_point[:, None] + np.arange(3)
    coupling = padded[lay.inc_index[:, :, None], cols[:, None, :]]
    np.testing.assert_allclose(system.coupling, coupling, rtol=0.0, atol=1e-12 * scale)
    # every point-block coupling of H is held by some incidence row
    held = np.zeros((n, hess.shape[1] - n), dtype=bool)
    m, d = np.nonzero(lay.inc_index < n)
    held[lay.inc_index[m, d][:, None], cols[m] - n] = True
    assert not hess[:n, n:][~held].any()

    points = np.stack(
        [hess[n + 3 * k : n + 3 * k + 3, n + 3 * k : n + 3 * k + 3] for k in range(lay.n_points)]
    )
    np.testing.assert_allclose(system.points, points, rtol=0.0, atol=1e-12 * scale)
    np.testing.assert_allclose(
        system.diag, np.maximum(np.diagonal(hess), 1e-12), rtol=0.0, atol=1e-12 * scale
    )
    np.testing.assert_allclose(gradient, grad, rtol=0.0, atol=1e-12 * np.abs(grad).max())


@pytest.mark.parametrize("case", sorted(BLOCK_PROBLEMS))
@pytest.mark.parametrize("seed", range(3))
def test_band_border_marginals_match_dense_inverse(case, seed):
    p = block_problem(seed, **BLOCK_PROBLEMS[case])
    ws, hess, _ = dense_system(p)
    inverse = np.linalg.inv(hess)
    retained = [pid for pid, b in p.params.items() if not b.eliminate]
    covs = marginal_covariances(p, retained)
    for pid in retained:
        at, dim = ws.offsets[pid], p.params[pid].dim
        expected = inverse[at : at + dim, at : at + dim]
        assert np.abs(covs[pid] - expected).max() <= 1e-8 * np.abs(expected).max()


def test_marginals_of_eliminated_point_rejected():
    p = block_problem(0, chain=4, border=0, points=1, far_point=False)
    with pytest.raises(ValueError, match="Schur-eliminated"):
        marginal_covariances(p, ["pt0"])


def test_near_singular_hessian_reports_nullity():
    # the second direction is observed 1e-7 as strongly as the first:
    # Cholesky succeeds, but its squared pivot is 4e-14 of the first
    p = Problem()
    p.add_parameter_block("x", np.zeros(2))
    mat = np.array([[1.0, 1.0], [1e-7, -1e-7]])
    p.add_residual_block(lambda x: mat @ x, ["x"], np.eye(2), jac=lambda x: [mat])
    np.linalg.cholesky(mat.T @ mat)
    with pytest.raises(RankDeficientError) as exc:
        marginal_covariances(p, ["x"])
    assert exc.value.nullity == 1


def test_rank_deficiency_above_2000_unknowns_reports_nullity():
    # differences of 2100 consecutive scalars, measured to 1e-6: H is 1e12
    # times a path graph's Laplacian, singular along the constant vector
    # only, so its null eigenvalue is round-off far above 1e-10
    n = 2100
    p = Problem()
    for i in range(n):
        p.add_parameter_block(f"x{i}", np.array([float(i % 7)]))
    ones = np.ones((n - 1, 1, 1))
    p.add_stacked_block(
        lambda a, b: (b - a, lambda: [-ones, ones]),
        [[f"x{i}" for i in range(n - 1)], [f"x{i}" for i in range(1, n)]],
        np.eye(1) * 1e-12,
    )
    with pytest.raises(RankDeficientError) as exc:
        marginal_covariances(p, ["x0"])
    assert exc.value.nullity == 1


def test_workspace_built_once_and_dropped_on_new_blocks(monkeypatch):
    built = []

    class Counting(solver._Workspace):
        def __init__(self, problem):
            built.append(problem)
            super().__init__(problem)

    monkeypatch.setattr(solver, "_Workspace", Counting)
    p = Problem()
    p.add_parameter_block("x", np.array([0.0]))
    p.add_residual_block(lambda x: x - 3.0, ["x"], np.eye(1))
    for _ in range(4):
        solve(p)
    marginal_covariances(p, ["x"])
    assert len(built) == 1
    # a block added after a solve is seen by the next one
    p.add_parameter_block("y", np.array([0.0]))
    p.add_residual_block(lambda x, y: y - x, ["x", "y"], np.eye(1))
    solve(p)
    assert len(built) == 2
    np.testing.assert_allclose(p.value("y"), [3.0], atol=1e-8)
    assert marginal_covariances(p, ["y"])["y"][0, 0] == pytest.approx(2.0)


def reference_redundancy(p: Problem) -> dict[str, int]:
    """Per group: its rows less the tangent dimension of the blocks no
    other group reads, counted block by block."""
    rows: dict[str, int] = {}
    groups_of: dict[str, set[str]] = {}
    for r in p.residuals.values():
        rows[r.group] = rows.get(r.group, 0) + r.rows * r.dim
        for slot in r.params:
            for pid in slot:
                groups_of.setdefault(pid, set()).add(r.group)
    return {
        g: n - sum(p.params[pid].dim for pid, groups in groups_of.items() if groups == {g})
        for g, n in rows.items()
    }


def test_group_redundancy_matches_reference():
    p = block_problem(1, chain=8, border=2, points=4, far_point=True)
    # groups that share some blocks but not others
    for i, r in enumerate(list(p.residuals.values())):
        r.group = ("prior", "link", "obs")[i % 3]
    rng = np.random.default_rng(2)
    linear_rows(p, [["c1", "c3"]], 2, rng, "extra")
    p.residuals["extra"].group = "extra"
    ws = solver._Workspace(p)
    assert ws.redundancy == reference_redundancy(p)


def test_row_reading_two_eliminated_points_raises():
    p = Problem()
    p.add_parameter_block("x", np.zeros(2))
    p.add_parameter_block("a", np.ones(3), eliminate=True)
    p.add_parameter_block("b", np.zeros(3), eliminate=True)
    p.add_residual_block(lambda x: x - 1.0, ["x"], np.eye(2), jac=lambda x: [np.eye(2)])
    for pid in ("a", "b"):
        p.add_residual_block(lambda q: q, [pid], np.eye(3), jac=lambda q: [np.eye(3)])
    p.add_residual_block(
        lambda a, b: a - b - 1.0,
        ["a", "b"],
        np.eye(3),
        jac=lambda a, b: [np.eye(3), -np.eye(3)],
    )
    with pytest.raises(ValueError, match="two Schur-eliminated point blocks"):
        solve(p)


def test_scale_group_covariance_rescales_whitened_residuals():
    p = Problem()
    p.add_parameter_block("x", np.zeros(1))
    p.add_residual_block(lambda x: x - 2.0, ["x"], np.eye(1), group="meas")
    p.add_residual_block(lambda x: x, ["x"], np.eye(1), group="anchor")
    rep1 = solve(p, max_iters=0)
    p.scale_group_covariance("meas", 4.0)
    rep2 = solve(p, max_iters=0)
    np.testing.assert_allclose(
        rep2.group_residuals["meas"], rep1.group_residuals["meas"] / 2.0, atol=1e-12
    )


@pytest.mark.parametrize("d", range(1, 10))
def test_diagonal_whitener_is_elementwise_inverse_sqrt(d):
    # the eigendecomposition of a diagonal covariance, repeated variances
    # included, gives back 1/sigma exactly
    rng = np.random.default_rng(d)
    var = np.exp(rng.uniform(-20.0, 20.0, size=(200, d)))
    var[::7] = var[::7, :1]
    cov = var[..., None] * np.eye(d)
    expected = (1.0 / np.sqrt(var))[..., None] * np.eye(d)
    np.testing.assert_array_equal(solver._inverse_sqrt(cov, "r"), expected)
    cov[5, d - 1, d - 1] = 0.0
    with pytest.raises(ValueError, match="not positive-definite"):
        solver._inverse_sqrt(cov, "r")


def test_programming_error_in_linear_solve_propagates(monkeypatch):
    def broken(system, lam):
        raise TypeError("bug in the linear solve")

    monkeypatch.setattr(solver._NormalEquations, "factor", broken)
    p = Problem()
    p.add_parameter_block("x", np.array([0.0]))
    p.add_residual_block(lambda x: x - 3.0, ["x"], np.eye(1))
    with pytest.raises(TypeError, match="bug in the linear solve"):
        solve(p)


def test_runtime_error_in_linear_solve_propagates(monkeypatch):
    # only LinAlgError, a failed Cholesky factorization, raises the damping
    def broken(system, lam):
        raise RuntimeError("factorization failed")

    monkeypatch.setattr(solver._NormalEquations, "factor", broken)
    p = Problem()
    p.add_parameter_block("x", np.array([0.0]))
    p.add_residual_block(lambda x: x - 3.0, ["x"], np.eye(1))
    with pytest.raises(RuntimeError, match="factorization failed"):
        solve(p)


def test_singular_linear_solve_raises_damping(monkeypatch):
    def singular(system, lam):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(solver._NormalEquations, "factor", singular)
    p = Problem()
    p.add_parameter_block("x", np.array([0.0]))
    p.add_residual_block(lambda x: x - 3.0, ["x"], np.eye(1))
    report = solve(p)
    assert report.termination == "no_progress"
    assert report.termination != "converged"


def test_non_finite_step_raises_damping(monkeypatch):
    lams = []
    factor, step = solver._NormalEquations.factor, solver._Factor.solve

    def recorded(system, lam):
        lams.append(lam)
        return factor(system, lam)

    def first_not_finite(fac, grad):
        return np.full_like(grad, np.nan) if len(lams) == 1 else step(fac, grad)

    monkeypatch.setattr(solver._NormalEquations, "factor", recorded)
    monkeypatch.setattr(solver._Factor, "solve", first_not_finite)
    p = Problem()
    p.add_parameter_block("x", np.array([0.0]))
    p.add_residual_block(lambda x: x - 3.0, ["x"], np.eye(1))
    report = solve(p)
    assert lams[:2] == [solver.INITIAL_LAMBDA, solver.INITIAL_LAMBDA * solver.LAMBDA_UP]
    assert report.termination == "converged"
    np.testing.assert_allclose(p.value("x"), [3.0], atol=1e-6)


def test_non_finite_trial_residual_rejected():
    # r = 1/x - 1/3 has no value at x <= 0, where the first Gauss-Newton
    # step from x = 10 lands; the damping shortens it until the trial is
    # evaluable
    trials = []

    def fn(x):
        trials.append(float(x[0]))
        return 1.0 / x - 1.0 / 3.0 if x[0] > 0.0 else np.full(1, np.nan)

    p = Problem()
    p.add_parameter_block("x", np.array([10.0]))
    p.add_residual_block(fn, ["x"], np.eye(1), jac=lambda x: [np.array([[-1.0 / x[0] ** 2]])])
    report = solve(p)
    assert min(trials) <= 0.0
    assert report.termination == "converged"
    np.testing.assert_allclose(p.value("x"), [3.0], rtol=1e-9)


def test_jacobians_built_once_per_linearization_never_for_a_rejected_trial(monkeypatch):
    # r = exp(x) - 1 from x = -3: the first Gauss-Newton step lands near
    # x = e^3 - 4, about 16, far uphill, and the damping rises until a
    # step is accepted
    evaluated, built, linearized = [], [], [0]

    def fn(x):
        k = len(evaluated)
        evaluated.append(float(0.5 * np.expm1(x[0, 0]) ** 2))

        def jacobians():
            built.append(k)
            return [np.exp(x)[:, :, None]]

        return np.expm1(x), jacobians

    linearize = solver._Workspace.linearize

    def counted(self, *args):
        linearized[0] += 1
        return linearize(self, *args)

    monkeypatch.setattr(solver._Workspace, "linearize", counted)
    p = Problem()
    p.add_parameter_block("x", np.array([-3.0]))
    p.add_stacked_block(fn, [["x"]], np.eye(1))
    report = solve(p)
    assert report.termination == "converged"
    assert evaluated[1] > evaluated[0]  # the first trial is rejected
    accepted = [0]
    for k, cost in enumerate(evaluated[1:], 1):
        if cost < evaluated[accepted[-1]]:
            accepted.append(k)
    # one build per linearization, each of the state it linearizes at
    assert linearized[0] == report.iterations
    assert built == accepted[: linearized[0]]
    # the marginals linearize at their one evaluation
    marginal_covariances(p, ["x"])
    assert built[-1] == len(evaluated) - 1 and len(built) == linearized[0]


@pytest.mark.parametrize("initial_lambda", [1e-4, 1e8])
def test_stall_with_promised_decrease_is_no_progress(monkeypatch, initial_lambda):
    # a Jacobian of the wrong sign points every step uphill. A heavily
    # damped first step is short and changes the cost by far less than
    # CONVERGENCE_TOL of it (a constant row dominates the cost), but the
    # model still promises a decrease along it (4.5, above the 3.1 of a
    # negligible step at this cost and redundancy).
    monkeypatch.setattr(solver, "INITIAL_LAMBDA", initial_lambda)
    p = Problem()
    p.add_parameter_block("x", np.array([0.0]))
    p.add_residual_block(
        lambda x: np.array([x[0] - 3.0, 1e3]),
        ["x"],
        np.eye(2),
        jac=lambda x: [np.array([[-1.0], [0.0]])],
    )
    report = solve(p)
    assert report.termination == "no_progress"
    assert report.termination != "converged"
    assert report.final_cost == report.initial_cost


def exponential_fit(seed: int, data_scale: float = 1.0) -> Problem:
    """a exp(b t) + c through 40 noisy points, Jacobian by forward
    differences: their rounding leaves a floor below which no step helps."""
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 3.0, 40)
    y = data_scale * (2.0 * np.exp(-1.3 * t) + 0.5 + rng.normal(scale=0.05, size=40))
    p = Problem()
    p.add_parameter_block("abc", np.array([1.0, -0.5, 0.0]))
    p.add_residual_block(
        lambda x: x[0] * np.exp(x[1] * t) + x[2] - y, ["abc"], 0.05**2 * np.eye(40)
    )
    return p


@pytest.mark.parametrize("seed", range(10))
def test_floor_stall_ends_converged(seed):
    report = solve(exponential_fit(seed))
    assert report.termination == "converged"


@pytest.mark.parametrize("seed", range(10))
def test_iteration_count_stable_under_tiny_data_change(seed):
    base = solve(exponential_fit(seed))
    moved = solve(exponential_fit(seed, data_scale=1.0 + 1e-9))
    assert moved.iterations == base.iterations


# the default step, and the coarser step of a solve whose estimate only
# feeds a variance factor
STOP_STEPS = {"": solver.NEGLIGIBLE_STEP, "-round-step": 0.25}


@pytest.mark.parametrize(
    "seed, step",
    [(seed, step) for step in STOP_STEPS.values() for seed in range(10)],
    ids=[f"{seed}{name}" for name in STOP_STEPS for seed in range(10)],
)
def test_negligible_step_stops_within_its_fraction_of_a_sigma(monkeypatch, seed, step):
    # against a solve that runs on until a step promises at most
    # CONVERGENCE_TOL of the cost, the stopped solution lies within `step`
    # of one a-posteriori standard deviation, in the Mahalanobis norm of
    # the marginal covariance times 2 cost / redundancy
    stopped = exponential_fit(seed)
    report = solve(stopped, step=step)
    with monkeypatch.context() as patch:
        patch.setattr(
            solver, "stop_tolerance", lambda cost, r, step: solver.CONVERGENCE_TOL * cost
        )
        full = exponential_fit(seed)
        full_report = solve(full)
    assert report.termination == full_report.termination == "converged"
    assert report.iterations <= full_report.iterations
    sigma2 = 2.0 * full_report.final_cost / (40 - 3)
    cov = marginal_covariances(full, ["abc"])["abc"] * sigma2
    d = stopped.value("abc") - full.value("abc")
    assert np.sqrt(d @ np.linalg.solve(cov, d)) <= step


def balanced_pair() -> Problem:
    """x = 2, the exact minimum of (x - 1)^2 + (x - 3)^2: the gradient and
    the step are 0, so the first trial leaves the cost as it is."""
    p = Problem()
    p.add_parameter_block("x", np.array([2.0]))
    p.add_residual_block(lambda x: np.array([x[0] - 1.0, x[0] - 3.0]), ["x"], np.eye(2))
    return p


def refit_exponential(seed: int) -> Problem:
    """The exponential fit, solved once: a second solve starts at its
    minimum."""
    p = exponential_fit(seed)
    solve(p)
    return p


@pytest.mark.parametrize("seed", [None, 0, 1, 2, 3, 4])
def test_solve_started_at_its_minimum_factors_once_in_its_last_iteration(monkeypatch, seed):
    # the model promises at most `solver.stop_tolerance` of the cost there,
    # so a rejected trial ends the iteration instead of raising the damping
    p = balanced_pair() if seed is None else refit_exponential(seed)
    factors: list[int] = []  # _Factor constructions per iteration
    construct, linearize = solver._Factor.__init__, solver._Workspace.linearize

    def counted(self, *args):
        factors[-1] += 1
        construct(self, *args)

    def next_iteration(self, *args):
        factors.append(0)
        return linearize(self, *args)

    monkeypatch.setattr(solver._Factor, "__init__", counted)
    monkeypatch.setattr(solver._Workspace, "linearize", next_iteration)
    report = solve(p)
    assert report.termination == "converged"
    assert len(factors) == report.iterations
    assert factors[-1] <= 1


# the tolerance of a cost of 2 and redundancy 10: a step of NEGLIGIBLE_STEP
# a-posteriori standard deviations
NEGLIGIBLE = solver.NEGLIGIBLE_STEP**2 * 2.0 / 10
UNDER, OVER = np.nextafter(NEGLIGIBLE, 0.0), np.nextafter(NEGLIGIBLE, np.inf)
# the same at a step of 0.25 a-posteriori standard deviations
ROUND_STEP = 0.25
AT_ROUND_STEP = ROUND_STEP**2 * 2.0 / 10
UNDER_ROUND, OVER_ROUND = np.nextafter(AT_ROUND_STEP, 0.0), np.nextafter(AT_ROUND_STEP, np.inf)

# (cost, trial cost, promised decrease, damping, redundancy[, step]) ->
# (accept, next damping, stop); redundancy 0 keeps CONVERGENCE_TOL of the
# cost, and the step defaults to NEGLIGIBLE_STEP
LM_RULE = {
    "accept-and-converge": ((1.0, 1.0 - 1e-13, 1e-13, 1e-4, 0), (True, 1e-4 * 0.1, True)),
    "accept-above-tolerance": ((1.0, 0.5, 0.6, 1e-4, 0), (True, 1e-4 * 0.1, False)),
    "lambda-min-clamp": ((1.0, 0.5, 0.6, 5e-15, 0), (True, 1e-15, False)),
    "reject-at-floor": ((1.0, 1.0, 1e-13, 1e-4, 0), (False, 1e-4 * 10.0, True)),
    "reject-with-promise-at-tolerance": ((1.0, 1.0, 1e-12, 1e-4, 0), (False, 1e-4 * 10.0, True)),
    "reject-above-floor": ((1.0, 1.5, 0.6, 1e9, 0), (False, 1e10, False)),
    "reject-past-lambda-max": ((1.0, 1.5, 0.6, 1e10, 0), (False, 1e11, True)),
    "nan-trial-cost": ((1.0, np.nan, 0.6, 1e-4, 0), (False, 1e-4 * 10.0, False)),
    "inf-trial-before-a-finite-step": ((1.0, np.inf, np.inf, 1e-4, 0), (False, 1e-4 * 10.0, False)),
    "accept-just-under-negligible-step": ((2.0, 1.5, UNDER, 1e-4, 10), (True, 1e-4 * 0.1, True)),
    "accept-at-negligible-step": ((2.0, 1.5, NEGLIGIBLE, 1e-4, 10), (True, 1e-4 * 0.1, True)),
    "accept-just-over-negligible-step": ((2.0, 1.5, OVER, 1e-4, 10), (True, 1e-4 * 0.1, False)),
    "reject-just-under-negligible-step": ((2.0, 2.5, UNDER, 1e-4, 10), (False, 1e-4 * 10.0, True)),
    "reject-just-over-negligible-step": ((2.0, 2.5, OVER, 1e-4, 10), (False, 1e-4 * 10.0, False)),
    # without redundancy the tolerance is CONVERGENCE_TOL of the cost, far
    # below the negligible step of redundancy 1
    "accept-without-redundancy": ((2.0, 1.5, 1e-9, 1e-4, 0), (True, 1e-4 * 0.1, False)),
    "accept-with-negative-redundancy": ((2.0, 1.5, 1e-9, 1e-4, -1), (True, 1e-4 * 0.1, False)),
    "accept-with-redundancy-one": ((2.0, 1.5, 1e-9, 1e-4, 1), (True, 1e-4 * 0.1, True)),
    "reject-at-floor-without-redundancy": ((2.0, 2.5, 2e-12, 1e-4, 0), (False, 1e-4 * 10.0, True)),
    "reject-above-floor-without-redundancy": (
        (2.0, 2.5, np.nextafter(2e-12, 1.0), 1e-4, 0),
        (False, 1e-4 * 10.0, False),
    ),
    "accept-just-under-round-step": (
        (2.0, 1.5, UNDER_ROUND, 1e-4, 10, ROUND_STEP),
        (True, 1e-4 * 0.1, True),
    ),
    "accept-at-round-step": (
        (2.0, 1.5, AT_ROUND_STEP, 1e-4, 10, ROUND_STEP),
        (True, 1e-4 * 0.1, True),
    ),
    "accept-just-over-round-step": (
        (2.0, 1.5, OVER_ROUND, 1e-4, 10, ROUND_STEP),
        (True, 1e-4 * 0.1, False),
    ),
    "reject-just-under-round-step": (
        (2.0, 2.5, UNDER_ROUND, 1e-4, 10, ROUND_STEP),
        (False, 1e-4 * 10.0, True),
    ),
    "reject-just-over-round-step": (
        (2.0, 2.5, OVER_ROUND, 1e-4, 10, ROUND_STEP),
        (False, 1e-4 * 10.0, False),
    ),
}


@pytest.mark.parametrize("case", LM_RULE.values(), ids=LM_RULE)
def test_lm_update_rule(case):
    args, expected = case
    assert lm_update(*args) == expected


def test_lm_update_batch_matches_each_loop():
    # every row with its step, the default one spelled out
    rows = [args + (solver.NEGLIGIBLE_STEP,) * (6 - len(args)) for args, _ in LM_RULE.values()]
    accept, lam, stop = lm_update(*np.array(rows).T)
    assert list(zip(accept, lam, stop)) == [expected for _, expected in LM_RULE.values()]


class TestStackedBlocks:
    """One block of N stacked rows against N single-row blocks."""

    N_POSES, N_POINTS = 4, 5
    # (pose, point) per row; pose 0 is fixed, and its rows close over it
    ROWS = [(0, 0), (1, 0), (1, 1), (2, 2), (3, 3), (0, 4), (2, 4), (3, 1)]

    @staticmethod
    def residual_rows(poses, points, meas):
        """Body-frame points minus their measurements, one row per (N, 7)
        pose row and (N, 3) point row."""
        r_t = np.swapaxes(quat_to_matrix(poses[:, :4]), 1, 2)
        return np.einsum("nij,nj->ni", r_t, points - poses[:, 4:]) - meas

    @staticmethod
    def jacobian_rows(poses, points):
        r_t = np.swapaxes(quat_to_matrix(poses[:, :4]), 1, 2)
        p_body = np.einsum("nij,nj->ni", r_t, points - poses[:, 4:])
        return [np.concatenate([skew(p_body), -r_t], axis=2), r_t]

    @staticmethod
    def callback(residuals, jacobians, kinds, analytic):
        """The block callback of residual and Jacobian functions of the
        same value rows of the given kinds, or of the residuals alone with
        forward-difference Jacobians."""

        def evaluate(*rows):
            res = residuals(*rows)
            if analytic:
                return res, lambda: jacobians(*rows)
            return res, lambda: solver._forward_difference_jacobians(residuals, rows, kinds, res)

        return evaluate

    def build(self, stacked: bool, analytic: bool = True) -> Problem:
        rng = np.random.default_rng(6)
        poses = [
            RigidPose(Rotation.exp(0.3 * rng.normal(size=3)), rng.normal(size=3))
            for _ in range(self.N_POSES)
        ]
        points = rng.normal(scale=3.0, size=(self.N_POINTS, 3))
        meas = self.residual_rows(
            pose_rows([poses[i] for i, _ in self.ROWS]),
            np.stack([points[j] for _, j in self.ROWS]),
            0.0,
        )
        meas += rng.normal(scale=0.1, size=meas.shape)
        meas[[2, 5]] += 4.0  # rows where the Huber loss is active
        # a full covariance on every other row, a diagonal one on the rest
        a = rng.normal(size=(len(self.ROWS), 3, 3))
        covs = 0.01 * a @ a.transpose(0, 2, 1) + 0.02 * np.eye(3)
        covs[1::2] = np.diag([0.02, 0.03, 0.04])

        p = Problem()
        for i, pose in enumerate(poses):
            init = RigidPose(
                pose.rotation @ Rotation.exp(rng.normal(scale=0.02, size=3)),
                pose.translation + rng.normal(scale=0.05, size=3),
            )
            if i == 0:
                continue
            p.add_parameter_block(f"pose{i}", init)
            p.add_residual_block(
                lambda t: np.concatenate([t.rotation.log(), t.translation]),
                [f"pose{i}"],
                100.0 * np.eye(6),
                group="prior",
            )
        for j, q in enumerate(points):
            p.add_parameter_block(f"pt{j}", q + rng.normal(scale=0.05, size=3))
            p.add_residual_block(lambda x, q=q: x - q, [f"pt{j}"], np.eye(3), group="prior")
        loss = HuberLoss(1.5)

        def add_rows(rows, rid=None):
            """One block of the given rows of ROWS: all on a free pose, or
            all on pose 0, whose value they close over."""
            m, cov = meas[rows], covs[rows] if stacked else covs[rows[0]]
            points = [f"pt{self.ROWS[n][1]}" for n in rows]
            options = dict(loss=loss, group="g", rid=rid)
            if self.ROWS[rows[0]][0]:
                fn = self.callback(
                    lambda t, q: self.residual_rows(t, q, m),
                    self.jacobian_rows,
                    [Manifold.RIGID_POSE, Manifold.EUCLIDEAN],
                    analytic,
                )
                p.add_stacked_block(
                    fn, [[f"pose{self.ROWS[n][0]}" for n in rows], points], cov, **options
                )
                return
            fixed = pose_rows([poses[0]] * len(rows))
            fn = self.callback(
                lambda q: self.residual_rows(fixed, q, m),
                lambda q: self.jacobian_rows(fixed, q)[1:],
                [Manifold.EUCLIDEAN],
                analytic,
            )
            p.add_stacked_block(fn, [points], cov, **options)

        on_pose0 = [n for n, (i, _) in enumerate(self.ROWS) if i == 0]
        free = [n for n, (i, _) in enumerate(self.ROWS) if i != 0]
        if stacked:
            add_rows(free, "stacked")
            add_rows(on_pose0, "on-pose0")
        else:
            for n in free + on_pose0:
                add_rows([n])
        return p

    def test_huber_active_on_some_rows(self):
        report = solve(self.build(True), max_iters=0)
        sq = (report.group_residuals["g"].reshape(-1, 3) ** 2).sum(axis=1)
        assert 0 < np.sum(sq > 1.5**2) < len(self.ROWS)

    @pytest.mark.parametrize("analytic", [True, False])
    def test_matches_single_row_blocks(self, analytic):
        reports, problems = [], []
        for stacked in (True, False):
            p = self.build(stacked, analytic)
            reports.append(solve(p, max_iters=0))
            step = solve(p, max_iters=1)
            assert step.iterations == 1 and step.final_cost < step.initial_cost
            problems.append(p)
        a, b = reports
        assert a.initial_cost == pytest.approx(b.initial_cost, rel=1e-12)
        assert a.group_redundancy == b.group_redundancy
        for g in ("g", "prior"):
            np.testing.assert_allclose(a.group_residuals[g], b.group_residuals[g], atol=1e-12)
        free = list(problems[0].params)
        for pid in free:
            va, vb = problems[0].value(pid), problems[1].value(pid)
            if isinstance(va, RigidPose):
                assert va.rotation.angle_to(vb.rotation) < 1e-10
                va, vb = va.translation, vb.translation
            np.testing.assert_allclose(va, vb, atol=1e-10)
        cov_a = marginal_covariances(problems[0], free)
        cov_b = marginal_covariances(problems[1], free)
        for pid in free:
            np.testing.assert_allclose(cov_a[pid], cov_b[pid], rtol=1e-9, atol=1e-12)

    def test_forward_differences_match_analytic(self):
        p = self.build(True)
        block = p.residuals["stacked"]
        vals = [np.stack([p.params[pid].value for pid in slot]) for slot in block.params]
        kinds = [p.params[slot[0]].manifold for slot in block.params]
        assert kinds == [Manifold.RIGID_POSE, Manifold.EUCLIDEAN]
        res, analytic = block.fn(*vals)
        for num, ana in zip(
            solver._forward_difference_jacobians(
                lambda *rows: block.fn(*rows)[0], vals, kinds, res
            ),
            analytic(),
        ):
            assert num.shape == ana.shape
            np.testing.assert_allclose(num, ana, rtol=1e-5, atol=1e-5)


class TestValueRows:
    """Packed value rows and their retraction."""

    ANGLES = (0.0, 1e-9, 1.0, np.pi - 1e-6)
    # tangent dimension per kind; the Euclidean values are 5-vectors
    DIMS = {
        Manifold.EUCLIDEAN: 5,
        Manifold.RIGID_POSE: 6,
        Manifold.SIMILARITY: 7,
    }

    @staticmethod
    def rotvecs(rng, angles):
        axes = rng.normal(size=(len(angles), 3))
        return np.asarray(angles)[:, None] * axes / np.linalg.norm(axes, axis=1, keepdims=True)

    def random_values(self, rng, manifold):
        """Values of one kind whose rotation angles cycle through ANGLES
        four times."""
        values = []
        for rotvec in self.rotvecs(rng, self.ANGLES * 4):
            rot = Rotation.exp(rotvec)
            if manifold is Manifold.EUCLIDEAN:
                values.append(rng.normal(size=5))
            elif manifold is Manifold.RIGID_POSE:
                values.append(RigidPose(rot, rng.normal(size=3)))
            else:
                values.append(Similarity(float(np.exp(rng.normal())), rot, rng.normal(size=3)))
        return values

    @pytest.mark.parametrize("manifold", list(Manifold))
    def test_row_retraction_matches_per_object_reference(self, manifold):
        rng = np.random.default_rng(30)
        values = self.random_values(rng, manifold)
        rows = np.stack([solver._pack(v)[1] for v in values])
        deltas = rng.normal(size=(len(values), self.DIMS[manifold]))
        if manifold is not Manifold.EUCLIDEAN:
            # every pairing of value and step angles
            deltas[:, :3] = self.rotvecs(rng, np.repeat(self.ANGLES, 4))
        moved = solver._retract(manifold, rows, deltas)
        expected = np.stack(
            [solver._pack(reference_retract(manifold, v, d))[1] for v, d in zip(values, deltas)]
        )
        assert moved.shape == rows.shape
        np.testing.assert_allclose(moved, expected, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("manifold", list(Manifold))
    def test_pack_and_unpack_round_trip(self, manifold):
        rng = np.random.default_rng(31)
        for value in self.random_values(rng, manifold):
            kind, row = solver._pack(value)
            assert kind is manifold
            again = solver._pack(solver._unpack(kind, row))[1]
            np.testing.assert_allclose(again, row, rtol=0.0, atol=1e-15)

    def test_step_retracts_every_free_block(self):
        rng = np.random.default_rng(32)
        p = Problem()
        values = {
            "pose": RigidPose(Rotation.exp(rng.normal(size=3)), rng.normal(size=3)),
            "v2": rng.normal(size=2),
            "sim": Similarity(1.3, Rotation.exp(rng.normal(size=3)), rng.normal(size=3)),
            "v5": rng.normal(size=5),
            "pt": rng.normal(size=3),
        }
        for pid, value in values.items():
            p.add_parameter_block(pid, value, eliminate=(pid == "pt"))
        ws = solver._Workspace(p)
        delta = rng.normal(size=ws.n_tangent)
        x = ws.apply_step(ws.values(), delta)
        ws.store(x)
        for pid, value in values.items():
            block = p.params[pid]
            off = ws.offsets[pid]
            expected = reference_retract(block.manifold, value, delta[off : off + block.dim])
            np.testing.assert_allclose(block.value, solver._pack(expected)[1], atol=1e-14)
        # retained blocks in insertion order, then the eliminated point
        assert ws.offsets == {"pose": 0, "v2": 6, "sim": 8, "v5": 15, "pt": 20}
        assert ws.n_tangent == 23

    @pytest.mark.parametrize(
        "slot", [["pose", "six"], ["sim", "eight"], ["three", "two"]]
    )
    def test_slot_mixing_kinds_or_sizes_raises(self, slot):
        p = Problem()
        p.add_parameter_block("pose", RigidPose.identity())
        p.add_parameter_block("sim", Similarity.identity())
        for pid, dim in (("six", 6), ("eight", 8), ("three", 3), ("two", 2)):
            p.add_parameter_block(pid, np.zeros(dim))
        with pytest.raises(ValueError, match="kind or size"):
            p.add_stacked_block(lambda x: x[:, :1], [slot], np.eye(1))
