"""Tests for the Levenberg-Marquardt engine and covariance extraction."""

import io

import numpy as np
import pytest

from vigt import solver
from vigt.errors import RankDeficientError, SolverError
from vigt.geometry import (
    CameraKind,
    CameraModel,
    Rotation,
    RigidPose,
    Similarity,
    project,
    projection_jacobian_batch,
    skew,
)
from vigt.solver import (
    HuberLoss,
    Manifold,
    Problem,
    SolveOptions,
    marginal_covariance,
    marginal_covariances,
    solve,
    variance_factor,
    write_diagnostics,
)


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
    report = solve(p, SolveOptions(max_iters=200))
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
    p = Problem()
    p.add_parameter_block("x", np.array([1.0]), constant=True)
    p.add_residual_block(lambda x: x, ["x"], np.eye(1))
    with pytest.raises(SolverError):
        solve(p)


def test_cost_monotone_on_manifold_problem():
    rng = np.random.default_rng(0)
    target = Rotation.exp(rng.normal(size=3))

    def residual(r):
        return (r.inverse() @ target).log()

    p = Problem()
    p.add_parameter_block("r", Rotation.identity())
    p.add_residual_block(residual, ["r"], np.eye(3) * 0.01)
    report = solve(p)
    assert report.final_cost <= report.initial_cost
    assert p.value("r").angle_to(target) < 1e-8
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
    solve(p, SolveOptions(max_iters=200))
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

    rep1 = solve(make(1.0), SolveOptions(max_iters=0))
    rep2 = solve(make(7.0), SolveOptions(max_iters=0))
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
        cov = marginal_covariance(p, "x")
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
        np.testing.assert_allclose(marginal_covariance(p, "x"), prior_cov, atol=1e-9)

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
            meas = project(cam, pose.apply(point))

            def fn(x):
                return project(cam, pose.apply(x)) - meas

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
        cov = marginal_covariance(p, "p")

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
        solve(p, SolveOptions(max_iters=1))
        with pytest.raises(RankDeficientError) as exc:
            marginal_covariance(p, "x")
        assert exc.value.nullity == 1

    def test_constant_block_rejected(self):
        p = Problem()
        p.add_parameter_block("x", np.zeros(1))
        p.add_parameter_block("c", np.zeros(1), constant=True)
        p.add_residual_block(lambda x: x - 1.0, ["x"], np.eye(1))
        solve(p)
        with pytest.raises(ValueError):
            marginal_covariance(p, "c")


class TestVarianceFactor:
    def test_unit_residuals(self):
        p = Problem()
        p.add_parameter_block("x", np.zeros(1), constant=False)
        z = np.concatenate([np.ones(50), -np.ones(50)])
        p.add_residual_block(
            lambda x: x * 0.0 + (0.0 - z), ["x"], np.eye(100), group="meas"
        )
        # x is not actually observable from this residual; give it a prior
        p.add_residual_block(lambda x: x, ["x"], np.eye(1), group="prior")
        report = solve(p, SolveOptions(max_iters=0))
        # redundancy: 100 rows, x not exclusive to "meas" (prior shares it)
        assert report.group_redundancy["meas"] == 100
        assert variance_factor(report, "meas") == pytest.approx(1.0)

    def test_quadratic_scaling(self):
        p = Problem()
        p.add_parameter_block("x", np.zeros(1))
        z = 2.0 * np.concatenate([np.ones(50), -np.ones(50)])
        p.add_residual_block(lambda x: x * 0.0 - z, ["x"], np.eye(100), group="meas")
        p.add_residual_block(lambda x: x, ["x"], np.eye(1), group="prior")
        report = solve(p, SolveOptions(max_iters=0))
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
        (i, j): project(cam, pose.apply(q)) + rng.normal(scale=0.4, size=2)
        for i, pose in enumerate(poses)
        for j, q in enumerate(points)
    }

    def build(eliminate):
        # two constant poses pin the full gauge incl. scale
        p = Problem()
        for i, pose in enumerate(poses):
            p.add_parameter_block(f"pose{i}", pose, constant=(i <= 1))
        for j, q in enumerate(points):
            p.add_parameter_block(
                f"pt{j}", q + rng.normal(scale=0.05, size=3), eliminate=eliminate
            )
        for (i, j), uv in meas.items():
            def fn(pose, pt, uv=uv):
                return project(cam, pose.apply(pt)) - uv

            p.add_residual_block(fn, [f"pose{i}", f"pt{j}"], np.eye(2), rid=f"o{i}-{j}")
        return p

    rng_state = rng.bit_generator.state
    direct = build(False)
    rng.bit_generator.state = rng_state
    schur = build(True)
    rep_a = solve(direct, SolveOptions(max_iters=50))
    rep_b = solve(schur, SolveOptions(max_iters=50))
    assert rep_a.final_cost == pytest.approx(rep_b.final_cost, rel=1e-8)
    for j in range(len(points)):
        np.testing.assert_allclose(
            direct.value(f"pt{j}"), schur.value(f"pt{j}"), atol=1e-6
        )


def test_scale_group_covariance_rescales_whitened_residuals():
    p = Problem()
    p.add_parameter_block("x", np.zeros(1))
    p.add_residual_block(lambda x: x - 2.0, ["x"], np.eye(1), group="meas")
    p.add_residual_block(lambda x: x, ["x"], np.eye(1), group="anchor")
    rep1 = solve(p, SolveOptions(max_iters=0))
    p.scale_group_covariance("meas", 4.0)
    rep2 = solve(p, SolveOptions(max_iters=0))
    np.testing.assert_allclose(
        rep2.group_residuals["meas"], rep1.group_residuals["meas"] / 2.0, atol=1e-12
    )


def test_diagnostics_dump_shape():
    p = Problem()
    p.add_parameter_block("x", np.array([0.0]))
    p.add_residual_block(lambda x: x - 1.0, ["x"], np.eye(1), group="meas")
    report = solve(p)
    buf = io.StringIO()
    write_diagnostics(report, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "iteration,cost,vf_meas"
    assert len(lines) == len(report.cost_history) + 1


def test_programming_error_in_linear_solve_propagates(monkeypatch):
    def broken(ws, hess, grad):
        raise TypeError("bug in the linear solve")

    monkeypatch.setattr(solver, "_solve_normal_equations", broken)
    p = Problem()
    p.add_parameter_block("x", np.array([0.0]))
    p.add_residual_block(lambda x: x - 3.0, ["x"], np.eye(1))
    with pytest.raises(TypeError, match="bug in the linear solve"):
        solve(p)


def test_singular_linear_solve_raises_damping(monkeypatch):
    def singular(ws, hess, grad):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(solver, "_solve_normal_equations", singular)
    p = Problem()
    p.add_parameter_block("x", np.array([0.0]))
    p.add_residual_block(lambda x: x - 3.0, ["x"], np.eye(1))
    report = solve(p)
    assert report.termination == "no_progress"
    assert not report.success


@pytest.mark.parametrize("initial_lambda", [1e-4, 1e8])
def test_stall_with_promised_decrease_is_no_progress(monkeypatch, initial_lambda):
    # a Jacobian of the wrong sign points every step uphill. A heavily
    # damped first step is short and changes the cost by far less than
    # CONVERGENCE_TOL of it (a constant row dominates the cost), but the
    # model still promises a decrease along it.
    monkeypatch.setattr(solver, "_INITIAL_LAMBDA", initial_lambda)
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
    assert not report.success
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
    assert report.success


@pytest.mark.parametrize("seed", range(10))
def test_iteration_count_stable_under_tiny_data_change(seed):
    base = solve(exponential_fit(seed))
    moved = solve(exponential_fit(seed, data_scale=1.0 + 1e-9))
    assert moved.iterations == base.iterations


class TestStackedBlocks:
    """One block of N stacked rows against N single-row blocks."""

    N_POSES, N_POINTS = 4, 5
    # (pose, point) per row; pose 0 is constant
    ROWS = [(0, 0), (1, 0), (1, 1), (2, 2), (3, 3), (0, 4), (2, 4), (3, 1)]

    @staticmethod
    def residual_rows(poses, points, meas):
        """Body-frame points minus their measurements, one row per pair."""
        return np.stack([t.rotation.inverse().apply(q - t.translation) for t, q in zip(poses, points)]) - meas

    @staticmethod
    def jacobian_rows(poses, points):
        j_pose, j_point = [], []
        for t, q in zip(poses, points):
            r_t = t.rotation.matrix().T
            j_pose.append(np.hstack([skew(r_t @ (q - t.translation)), -r_t]))
            j_point.append(r_t)
        return [np.stack(j_pose), np.stack(j_point)]

    def build(self, stacked: bool, analytic: bool = True) -> Problem:
        rng = np.random.default_rng(6)
        poses = [
            RigidPose(Rotation.exp(0.3 * rng.normal(size=3)), rng.normal(size=3))
            for _ in range(self.N_POSES)
        ]
        points = rng.normal(scale=3.0, size=(self.N_POINTS, 3))
        meas = self.residual_rows(
            [poses[i] for i, _ in self.ROWS], [points[j] for _, j in self.ROWS], 0.0
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
            p.add_parameter_block(f"pose{i}", pose if i == 0 else init, constant=(i == 0))
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
        if stacked:
            p.add_stacked_block(
                lambda t, q: self.residual_rows(t, q, meas),
                [[f"pose{i}" for i, _ in self.ROWS], [f"pt{j}" for _, j in self.ROWS]],
                covs,
                jac=self.jacobian_rows if analytic else None,
                loss=loss,
                group="g",
                rid="stacked",
            )
            return p
        for n, (i, j) in enumerate(self.ROWS):
            p.add_residual_block(
                lambda t, q, n=n: self.residual_rows([t], [q], meas[n])[0],
                [f"pose{i}", f"pt{j}"],
                covs[n],
                jac=(lambda t, q: [m[0] for m in self.jacobian_rows([t], [q])])
                if analytic
                else None,
                loss=loss,
                group="g",
            )
        return p

    def test_huber_active_on_some_rows(self):
        report = solve(self.build(True), SolveOptions(max_iters=0))
        sq = (report.group_residuals["g"].reshape(-1, 3) ** 2).sum(axis=1)
        assert 0 < np.sum(sq > 1.5**2) < len(self.ROWS)

    @pytest.mark.parametrize("analytic", [True, False])
    def test_matches_single_row_blocks(self, analytic):
        reports, problems = [], []
        for stacked in (True, False):
            p = self.build(stacked, analytic)
            reports.append(solve(p, SolveOptions(max_iters=0)))
            step = solve(p, SolveOptions(max_iters=1))
            assert step.iterations == 1 and step.final_cost < step.initial_cost
            problems.append(p)
        a, b = reports
        assert a.initial_cost == pytest.approx(b.initial_cost, rel=1e-12)
        assert a.group_redundancy == b.group_redundancy
        for g in ("g", "prior"):
            np.testing.assert_allclose(a.group_residuals[g], b.group_residuals[g], atol=1e-12)
        free = [pid for pid, blk in problems[0].params.items() if not blk.constant]
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
        vals = [[p.value(pid) for pid in slot] for slot in block.params]
        for num, ana in zip(
            solver._forward_difference_jacobians(block, vals), block.jac(*vals)
        ):
            assert num.shape == ana.shape
            np.testing.assert_allclose(num, ana, rtol=1e-5, atol=1e-5)
