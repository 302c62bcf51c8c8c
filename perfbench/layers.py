"""Per-layer metrics of a traced run, derived from the recorder's
aggregates. Layers are the `vigt` module names."""

from __future__ import annotations

from pipeline import Outputs
from tracing import Recorder

FUSION_GROUPS = (
    "marker-reprojection",
    "cp-world",
    "feature-reprojection",
    "imu-preintegration",
    "bias-walk",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder, out: Outputs) -> dict[str, float]:
    """Every per-layer metric of the traced pipeline but the set-up's;
    `out` is the traced pipeline's output."""
    m: dict[str, float] = {}

    tp = rec.stat("geometry.try_project")
    pj = rec.stat("geometry.projection_jacobian")
    m["geometry.try_project.calls"] = tp.calls
    m["geometry.try_project.pts_per_call"] = _ratio(
        tp.counters.get("points", 0), tp.calls
    )
    m["geometry.try_project.self_s"] = tp.self_time
    m["geometry.projection_jacobian.calls"] = pj.calls
    m["geometry.projection_jacobian.self_s"] = pj.self_time

    rs = rec.stat("triangulation.triangulate_ransac")
    hypotheses = rs.counters.get("hypotheses", 0)
    m["triangulation.triangulate_ransac.calls"] = rs.calls
    m["triangulation.triangulate_ransac.self_s"] = rs.self_time
    m["triangulation.hypotheses"] = hypotheses
    m["triangulation.hypotheses_per_s"] = _ratio(hypotheses, rs.total)
    m["triangulation.inlier_frac"] = _ratio(
        rs.counters.get("inliers", 0), rs.counters.get("solved_observations", 0)
    )
    m["triangulation.failures"] = rec.stat("triangulation.triangulate_cp").raised
    for name in ("refine_triangulation", "triangulation_covariance"):
        m[f"triangulation.{name}.self_s"] = rec.stat(f"triangulation.{name}").self_time

    ja = rec.stat("alignment.joint_sparse_align")
    m["alignment.joint_sparse_align.self_s"] = ja.self_time
    m["alignment.lm_iters"] = ja.counters.get("iterations", 0)

    solve = rec.stat("solver.solve")
    mc = rec.stat("solver.marginal_covariances")
    m["solver.solve.calls"] = solve.calls
    m["solver.solve.self_s"] = solve.self_time
    m["solver.solve.iterations"] = solve.counters.get("iterations", 0)
    m["solver.solve.us_per_block_iter"] = 1e6 * _ratio(
        solve.total, solve.counters.get("block_iterations", 0)
    )
    m["solver.marginal_covariances.self_s"] = mc.self_time
    m["solver.marginal_covariances.unknowns"] = mc.counters.get("unknowns", 0)

    pre = rec.stat("inertial.preintegrate")
    m["inertial.preintegrate.calls"] = pre.calls
    m["inertial.preintegrate.self_s"] = pre.self_time
    m["inertial.preintegrate.us_per_sample"] = 1e6 * _ratio(
        pre.total, pre.counters.get("samples", 0)
    )
    for name in ("preintegration_residual", "preintegration_residual_jacobians"):
        s = rec.stat(f"inertial.{name}")
        m[f"inertial.{name}.calls"] = s.calls
        m[f"inertial.{name}.self_s"] = s.self_time
    m["inertial.bias_warnings"] = rec.stat("inertial.bias_correct").counters.get(
        "warnings", 0
    )

    m["fusion.build_fusion_problem.self_s"] = rec.stat(
        "fusion.build_fusion_problem"
    ).self_time
    m["fusion.optimize_pseudo_gt.self_s"] = rec.stat(
        "fusion.optimize_pseudo_gt"
    ).self_time
    groups = [r.group for r in out.fp.problem.residuals.values()]
    for group in FUSION_GROUPS:
        m[f"fusion.blocks.{group}"] = groups.count(group)
    m["fusion.lm_iters"] = rec.under(
        "solver.solve", "fusion.optimize_pseudo_gt"
    ).counters.get("iterations", 0)
    m["fusion.pose_sigma_med_mm"] = 1000.0 * out.pgt.median_position_uncertainty()

    m["metrics.self_s"] = rec.layer_self_s("metrics")
    return m
