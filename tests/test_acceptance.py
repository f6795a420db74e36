"""Acceptance suite: one test per shipped guarantee.

Each test carries the full statement it verifies and runs at the stated
tolerance.  Expensive cohorts are built once and shared where the
underlying data is provably identical (noiseless depth maps do not depend
on keypoint fault injection).
"""

import filecmp
import json
import time

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from helpers import (
    make_front_dataset,
    make_side_dataset,
    oracle_front_target,
    oracle_perpendicular,
    oracle_side_target,
    planar_design,
    random_transform,
    small_cameras,
    synthesize_pose_pairs,
    two_view_rig,
)
from scanloc.cli import main
from scanloc.cloud import FusedCloud, adjust_target
from scanloc.errors import ScanlocError
from scanloc.evaluation import (
    DEFAULT_THRESHOLDS_MM,
    backprojection_comparison,
    loocv,
    median_backprojection_errors,
    scene_cloud,
    success_table,
    summarize,
)
from scanloc.geometry import Pixel, PinholeCamera, RigidTransform, triangulate
from scanloc.handeye import (
    PosePairSample,
    build_motion_pairs,
    estimate_camera_pose,
    mean_residual,
)
from scanloc.synth import (
    NoiseSpec,
    TorsoSpec,
    default_ratios,
    generate_cohort,
    generate_scene,
)
from scanloc.targets import (
    fit_front,
    fit_side,
    front_target,
    localize,
    side_target,
)

try:
    from threadpoolctl import threadpool_limits

    BLAS_PINNED = True
except ImportError:  # fall back to trusting the environment
    import contextlib

    BLAS_PINNED = False

    def threadpool_limits(limits):
        return contextlib.nullcontext()


MASTER_SEED = 0  # shared by the 30-scene cohorts of criteria 5-7


@pytest.fixture(scope="module")
def cohort_cache():
    """Lazily built noiseless cohorts + fused clouds at MASTER_SEED."""
    return {}


def build_noiseless_cohorts(cache):
    if "front" not in cache:
        start = time.perf_counter()
        cache["front"] = generate_cohort(
            30, noise=NoiseSpec(seed=0), pose_kind="front", seed=MASTER_SEED
        )
        cache["side"] = generate_cohort(
            30, noise=NoiseSpec(seed=0), pose_kind="side", seed=MASTER_SEED
        )
        generated = time.perf_counter()
        cache["front_clouds"] = [scene_cloud(s) for s in cache["front"]]
        cache["side_clouds"] = [scene_cloud(s) for s in cache["side"]]
        cache["seconds"] = {
            "cohort generation": generated - start,
            "fusion": time.perf_counter() - generated,
        }
    return cache


# 1 ------------------------------------------------------------------------


def test_criterion_1_hand_eye_closure():
    """20 noiseless pose pairs recover the camera pose to 1e-6 rad / 1e-6 m;
    under 0.2 deg / 1 mm noise the residual stays within 1.5x of the residual
    at the true pose; the solve takes under a second."""
    rng = np.random.default_rng(101)
    x_true, samples = synthesize_pose_pairs(rng, 20)

    start = time.perf_counter()
    x_est = estimate_camera_pose(samples)
    elapsed = time.perf_counter() - start

    rot_err = Rotation.from_matrix(
        x_est.rotation.T @ x_true.rotation
    ).magnitude()
    trans_err = np.linalg.norm(x_est.translation - x_true.translation)
    assert rot_err < 1e-6, f"rotation error {rot_err:.2e} rad"
    assert trans_err < 1e-6, f"translation error {trans_err:.2e} m"
    assert elapsed < 1.0, f"solve took {elapsed:.3f} s"

    rot_sigma = np.deg2rad(0.2)
    noisy = []
    for s in samples:
        noise_rot = Rotation.from_rotvec(rng.normal(0, rot_sigma, 3)).as_matrix()
        c = s.tag_in_camera
        noisy.append(
            PosePairSample(
                gripper_in_base=s.gripper_in_base,
                tag_in_camera=RigidTransform(
                    noise_rot @ c.rotation, c.translation + rng.normal(0, 1e-3, 3)
                ),
            )
        )
    x_noisy = estimate_camera_pose(noisy)
    pairs = build_motion_pairs(noisy)
    res_est = mean_residual(pairs, x_noisy)
    res_true = mean_residual(pairs, x_true)
    assert res_est <= 1.5 * res_true, f"{res_est:.3e} > 1.5 * {res_true:.3e}"


# 2 ------------------------------------------------------------------------


def test_criterion_2_triangulation_closure():
    """Noiseless correspondences triangulate to under 1e-7 m; with 1 px noise
    the estimate lands within 2x of a 1 mm grid-search oracle's distance to
    the true point."""
    rng = np.random.default_rng(202)
    cam_a, cam_b = two_view_rig()
    for _ in range(50):
        truth = rng.uniform([-0.2, 0.0, 0.0], [0.2, 0.5, 0.3])
        est = triangulate(cam_a, cam_b, cam_a.project(truth), cam_b.project(truth))
        assert np.linalg.norm(est - truth) < 1e-7

    truth = np.array([0.02, 0.3, 0.12])
    noisy_a = Pixel(*(np.array(cam_a.project(truth)) + rng.normal(0, 1.0, 2)))
    noisy_b = Pixel(*(np.array(cam_b.project(truth)) + rng.normal(0, 1.0, 2)))
    est = triangulate(cam_a, cam_b, noisy_a, noisy_b)

    steps = np.arange(-0.05, 0.05 + 1e-9, 0.001)
    gx, gy, gz = np.meshgrid(steps, steps, steps, indexing="ij")
    grid = truth + np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])
    total = np.zeros(len(grid))
    for cam, noisy in ((cam_a, noisy_a), (cam_b, noisy_b)):
        r, t = cam.pose.rotation, cam.pose.translation
        p_cam = (grid - t) @ r
        u = cam.fx * p_cam[:, 0] / p_cam[:, 2] + cam.cx
        v = cam.fy * p_cam[:, 1] / p_cam[:, 2] + cam.cy
        total += np.hypot(u - noisy.u, v - noisy.v)
    oracle = grid[np.argmin(total)]

    dlt_err = np.linalg.norm(est - truth)
    oracle_err = np.linalg.norm(oracle - truth)
    assert dlt_err <= 2.0 * oracle_err, f"{dlt_err:.2e} > 2 * {oracle_err:.2e}"


# 3 ------------------------------------------------------------------------


def test_criterion_3_formula_transcriptions():
    """front_target and side_target agree with independent step-by-step
    transcriptions on 1000 random inputs each, to 1e-12."""
    rng = np.random.default_rng(303)
    checked = 0
    while checked < 1000:
        f1 = rng.uniform(-0.5, 0.5, 3)
        f2 = f1 + rng.uniform([-0.3, -0.1, -0.05], [0.3, 0.1, 0.05])
        ref = rng.uniform(-1, 1, 3)
        r1, r2 = rng.uniform(-0.9, 0.9, 2)
        try:
            got = front_target(f1, f2, r1, r2, ref)
        except ScanlocError:
            continue  # degenerate draw; does not count toward the 1000
        want = oracle_front_target(f1, f2, r1, r2, ref)
        assert np.linalg.norm(got - want) < 1e-12
        checked += 1

    checked = 0
    while checked < 1000:
        s1 = rng.uniform(-0.5, 0.5, 3)
        s2 = s1 + rng.uniform([-0.1, -0.4, -0.05], [0.1, 0.4, 0.05])
        ref = rng.uniform(-1, 1, 3)
        r1, r2 = rng.uniform(-0.9, 0.9, 2)
        try:
            got = side_target(s1, s2, r1, r2, ref)
        except ScanlocError:
            continue
        want = oracle_side_target(s1, s2, r1, r2, ref)
        assert np.linalg.norm(got - want) < 1e-12
        checked += 1


# 4 ------------------------------------------------------------------------


def side_planar_design(data):
    """Shoulders, segments, |segment| * sideways unit and targets, in XY."""
    shoulders, segs, offs, gts = [], [], [], []
    for sample in data.samples:
        kps = sample.keypoints
        t2 = oracle_perpendicular(kps.right_shoulder, kps.right_hip, np.array([1.0, 0.0, 0.0]))
        seg = kps.right_hip - kps.right_shoulder
        shoulders.append(kps.right_shoulder[:2])
        segs.append(seg[:2])
        offs.append(np.linalg.norm(seg) * t2[:2])
        gts.append(sample.target[:2])
    return map(np.asarray, (shoulders, segs, offs, gts))


def test_criterion_4_fit_optimality():
    """fit_front and fit_side each beat every probe of a 201x201 grid over
    [-1,1]^2 on 10 noisy cohorts (in the mean squared planar loss of their
    model: the side fit is a global optimum); both recover generative
    ratios on noiseless cohorts (1e-9 / 1e-3)."""
    grid = np.linspace(-1.0, 1.0, 201)
    for seed in range(10):
        rng = np.random.default_rng(4100 + seed)
        data = make_front_dataset(rng, 20, (0.62, 0.31), noise_sigma=0.005)
        result = fit_front(data)
        starts, segs, offs, gts = planar_design(data)
        pred_fit = (
            starts
            + result.ratios.segment_ratio * segs
            + result.ratios.offset_ratio * offs
        )
        fit_loss = np.mean(np.sum((pred_fit - gts) ** 2, axis=1))
        r1g, r2g = np.meshgrid(grid, grid, indexing="ij")
        pred = (
            starts[None, None]
            + r1g[..., None, None] * segs[None, None]
            + r2g[..., None, None] * offs[None, None]
        )
        grid_losses = np.mean(np.sum((pred - gts[None, None]) ** 2, axis=-1), axis=-1)
        assert fit_loss <= grid_losses.min() + 1e-12, f"cohort seed {4100 + seed}"

    for seed in range(10):
        rng = np.random.default_rng(4200 + seed)
        data = make_side_dataset(rng, 20, (0.5, 0.2), noise_sigma=0.005)
        result = fit_side(data)
        shoulders, segs, offs, gts = side_planar_design(data)
        a, b = result.ratios.segment_ratio, result.ratios.offset_ratio
        pred_fit = shoulders + a * segs + b * abs(a) * offs
        fit_loss = np.mean(np.sum((pred_fit - gts) ** 2, axis=1))
        ag, bg = np.meshgrid(grid, grid, indexing="ij")
        pred = (
            shoulders[None, None]
            + ag[..., None, None] * segs[None, None]
            + (bg * np.abs(ag))[..., None, None] * offs[None, None]
        )
        grid_losses = np.mean(np.sum((pred - gts[None, None]) ** 2, axis=-1), axis=-1)
        assert fit_loss <= grid_losses.min() + 1e-12, f"side cohort seed {4200 + seed}"

    rng = np.random.default_rng(405)
    clean_front = make_front_dataset(rng, 15, (0.58, 0.27))
    got = fit_front(clean_front).ratios
    assert abs(got.segment_ratio - 0.58) < 1e-9
    assert abs(got.offset_ratio - 0.27) < 1e-9

    clean_side = make_side_dataset(rng, 15, (0.55, 0.35))
    got = fit_side(clean_side).ratios
    assert abs(got.segment_ratio - 0.55) < 1e-3
    assert abs(got.offset_ratio - 0.35) < 1e-3


def normal_equations(starts, segs, offs, gts):
    """(a, c) solving AᵀA x = Aᵀy for the stacked planar rows y ~ a * seg + c * off."""
    design = np.column_stack([segs.reshape(-1), offs.reshape(-1)])
    return np.linalg.solve(design.T @ design, design.T @ (gts - starts).reshape(-1))


def test_criterion_4_fits_solve_the_normal_equations():
    """fit_front's (a, b) and fit_side's (a, b * |a|) equal the normal-equations
    solution of the oracle design rows to a relative 1e-9 on 5 noisy cohorts
    each: the grid test above cannot see a 0.1% ratio error, this one does."""
    for seed in range(5):
        rng = np.random.default_rng(4300 + seed)
        data = make_front_dataset(rng, 20, (0.62, 0.31), noise_sigma=0.005)
        got = fit_front(data).ratios
        want = normal_equations(*planar_design(data))
        fitted = [got.segment_ratio, got.offset_ratio]
        assert np.allclose(fitted, want, rtol=1e-9, atol=0), f"cohort seed {4300 + seed}"

        data = make_side_dataset(rng, 20, (0.5, 0.2), noise_sigma=0.005)
        got = fit_side(data).ratios
        want = normal_equations(*side_planar_design(data))
        fitted = [got.segment_ratio, got.offset_ratio * abs(got.segment_ratio)]
        assert np.allclose(fitted, want, rtol=1e-9, atol=0), f"side cohort seed {4300 + seed}"


# 5 ------------------------------------------------------------------------


def test_criterion_5_end_to_end_closure(cohort_cache):
    """A 30-scene noiseless cohort under leave-one-out validation localizes
    every target with mean position error under 5 mm and mean normal error
    under 1 degree, with a 100% success rate at 25 mm, inside 60 seconds
    single-threaded at 640x480."""
    cohort_cache.clear()
    start = time.perf_counter()
    with threadpool_limits(limits=1):
        build_noiseless_cohorts(cohort_cache)
        loocv_start = time.perf_counter()
        stats = {}
        for target_id, scenes, clouds in (
            (1, cohort_cache["front"], cohort_cache["front_clouds"]),
            (2, cohort_cache["front"], cohort_cache["front_clouds"]),
            (4, cohort_cache["side"], cohort_cache["side_clouds"]),
        ):
            folds = loocv(scenes, target_id, clouds=clouds)
            stats[target_id] = (
                summarize(folds),
                success_table(folds).rates[DEFAULT_THRESHOLDS_MM.index(25.0)],
            )
    elapsed = time.perf_counter() - start
    phases = dict(cohort_cache["seconds"], LOOCV=start + elapsed - loocv_start)

    for target_id, (summary, rate) in stats.items():
        pos = summary["position_mm"]["mean"]
        ang = summary["orientation_deg"]["mean"]
        assert pos < 5.0, f"target {target_id}: mean position {pos:.3f} mm"
        assert ang < 1.0, f"target {target_id}: mean normal {ang:.3f} deg"
        assert rate == 1.0, f"target {target_id}: success rate {rate} at 25 mm"
    assert elapsed < 60.0, (
        f"took {elapsed:.1f} s ("
        + ", ".join(f"{name} {s:.1f} s" for name, s in phases.items())
        + f"; BLAS pinned by threadpoolctl: {BLAS_PINNED})"
    )


# 6 ------------------------------------------------------------------------


def test_criterion_6_two_view_beats_single_view():
    """With 5 mm depth noise and 2 px keypoint noise over 30 scenes, the
    median two-view back-projection pixel error is at most the median
    single-view error for every target."""
    noise = NoiseSpec(keypoint_sigma_px=2.0, depth_sigma_m=0.005, seed=0)
    results = {}
    for pose_kind in ("front", "side"):
        cohort = generate_cohort(
            30, noise=noise, pose_kind=pose_kind, seed=MASTER_SEED
        )
        for scene in cohort:
            cloud = scene_cloud(scene)
            for target_id in sorted(scene.targets_true):
                results.setdefault(target_id, []).append(
                    backprojection_comparison(scene, cloud, target_id)
                )
    medians = {target_id: median_backprojection_errors(rows)
               for target_id, rows in results.items()}
    assert set(medians) == {1, 2, 4}
    for target_id, row in medians.items():
        assert row["two_view"] <= row["single_view"], (
            f"target {target_id}: two-view {row['two_view']:.3f} px > "
            f"single-view {row['single_view']:.3f} px"
        )


# 7 ------------------------------------------------------------------------


def test_criterion_7_failure_accounting(cohort_cache):
    """With a 10% right-hip fault rate, side-target success rates sit
    strictly below front-target rates at every threshold, and faulty folds
    count as failures."""
    build_noiseless_cohorts(cohort_cache)
    noise = NoiseSpec(fault_prob={"right_hip": 0.1})
    front = generate_cohort(30, noise=noise, pose_kind="front", seed=MASTER_SEED)
    side = generate_cohort(30, noise=noise, pose_kind="side", seed=MASTER_SEED)

    # fault injection only touches keypoint observations, so the noiseless
    # clouds describe these scenes exactly
    assert np.array_equal(
        side[0].depths[0].values, cohort_cache["side"][0].depths[0].values
    )
    faulty_ids = [s.scene_id for s in side if s.faulted_joints]
    assert faulty_ids, "the chosen master seed must produce at least one fault"

    thresholds = tuple(float(t) for t in range(5, 45, 5))
    assert DEFAULT_THRESHOLDS_MM == thresholds
    tables = {}
    for target_id, scenes, clouds in (
        (1, front, cohort_cache["front_clouds"]),
        (2, front, cohort_cache["front_clouds"]),
        (4, side, cohort_cache["side_clouds"]),
    ):
        folds = loocv(scenes, target_id, clouds=clouds)
        if target_id == 4:
            marked = {f.scene_id for f in folds if f.faulty}
            assert marked == set(faulty_ids)
        tables[target_id] = success_table(folds)

    for i, threshold in enumerate(thresholds):
        side_rate = tables[4].rates[i]
        for front_id in (1, 2):
            front_rate = tables[front_id].rates[i]
            assert side_rate < front_rate, (
                f"at {threshold:g} mm: side {side_rate} !< front {front_rate}"
            )
    # faulty folds stay in the denominator and never succeed
    expected = (30 - len(faulty_ids)) / 30
    assert tables[4].rates == tuple([expected] * len(thresholds))


# 8 ------------------------------------------------------------------------


def test_criterion_8_invariant_suite(tmp_path):
    """SE(3) group laws; planar nearest-neighbor idempotence and linear-scan
    equivalence; success-table monotonicity; translation and rotation-about-Z
    equivariance of localization; full-pipeline byte-determinism."""
    rng = np.random.default_rng(808)

    # SE(3) group laws
    for _ in range(40):
        a, b, c = (random_transform(rng) for _ in range(3))
        left = a.compose(b).compose(c).as_matrix()
        right = a.compose(b.compose(c)).as_matrix()
        assert np.allclose(left, right, atol=1e-12)
        assert np.allclose(
            a.compose(a.inverse()).as_matrix(), np.eye(4), atol=1e-12
        )
        identity = RigidTransform(np.eye(3), np.zeros(3))
        assert np.allclose(
            identity.compose(a).as_matrix(), a.as_matrix(), atol=1e-15
        )

    # planar NN: snapping an already snapped target is a fixed point, and
    # the grid index agrees with an exhaustive scan
    points = rng.uniform([-0.3, -0.3, 0.0], [0.3, 0.3, 0.2], size=(500, 3))
    normals = np.tile([0.0, 0.0, 1.0], (500, 1))
    cloud = FusedCloud(points=points, normals=normals)
    for _ in range(50):
        probe = rng.uniform([-0.4, -0.4, -0.1], [0.4, 0.4, 0.3], 3)
        once = adjust_target(cloud, probe)
        twice = adjust_target(cloud, once.position)
        assert np.array_equal(once.position, twice.position)
        assert np.array_equal(once.normal, twice.normal)
        d2 = np.sum((points[:, :2] - probe[:2]) ** 2, axis=1)
        brute = int(np.argmin(d2))
        assert once.position[2] == points[brute, 2]

    # success-table monotonicity over random fold sets
    from scanloc.evaluation import FoldResult

    for _ in range(30):
        folds = []
        for i in range(int(rng.integers(2, 25))):
            if rng.uniform() < 0.25:
                folds.append(FoldResult(i, 1, True, "fault"))
            else:
                folds.append(
                    FoldResult(
                        i, 1, False,
                        position_error_mm=float(rng.uniform(0, 50)),
                        normal_error_deg=1.0,
                    )
                )
        rates = np.array(success_table(folds).rates)
        assert np.all(np.diff(rates) >= 0)
        assert np.all((rates >= 0) & (rates <= 1))

    # localization equivariance under translation and rotation about Z
    cams = small_cameras()
    ratios = default_ratios()
    for pose_kind, targets in (("front", (1, 2)), ("side", (4,))):
        scene = generate_scene(
            TorsoSpec(), ratios, cams, NoiseSpec(seed=0), pose_kind, scene_id=0
        )
        cloud = scene_cloud(scene, voxel=0.004)
        base = localize(
            scene.cameras[0], scene.cameras[1], scene.observation, cloud,
            ratios, pose_kind,
        )
        rz = Rotation.from_rotvec([0, 0, 0.7]).as_matrix()
        for motion in (
            RigidTransform(np.eye(3), np.array([0.4, -0.2, 0.15])),
            RigidTransform(rz, np.array([-0.3, 0.5, 0.1])),
        ):
            moved_cams = tuple(
                PinholeCamera(
                    fx=c.fx, fy=c.fy, cx=c.cx, cy=c.cy,
                    width=c.width, height=c.height,
                    pose=motion.compose(c.pose),
                )
                for c in scene.cameras
            )
            moved_cloud = FusedCloud(
                points=motion.apply(cloud.points),
                normals=cloud.normals @ motion.rotation.T,
            )
            moved = localize(
                moved_cams[0], moved_cams[1], scene.observation, moved_cloud,
                ratios, pose_kind,
            )
            for before, after in zip(base, moved):
                assert before.target_id == after.target_id
                want_pos = motion.apply(before.position)
                assert np.linalg.norm(after.position - want_pos) < 1e-9
                want_rot = motion.rotation @ Rotation.from_rotvec(
                    before.rotation_vector
                ).as_matrix()
                got_rot = Rotation.from_rotvec(after.rotation_vector).as_matrix()
                assert np.linalg.norm(got_rot - want_rot) < 1e-9

    # full-pipeline byte-determinism under fixed seeds
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({
        "n": 2,
        "seed": 12,
        "pose": "front",
        "cameras": [c.to_dict() for c in cams],
        "noise": {"keypoint_sigma_px": 0.5, "depth_sigma_m": 0.002},
    }))
    reports = []
    for run in ("one", "two"):
        scenes_dir = tmp_path / f"scenes_{run}"
        report_dir = tmp_path / f"report_{run}"
        assert main(["synth", "--config", str(config), "--out", str(scenes_dir)]) == 0
        assert main([
            "evaluate", "--scenes", str(scenes_dir), "--target", "1",
            "--voxel", "0.004", "--out", str(report_dir),
        ]) == 0
        reports.append(report_dir)
    for name in ("summary.json", "folds.csv", "success_table.csv",
                 "backprojection.csv"):
        assert filecmp.cmp(reports[0] / name, reports[1] / name, shallow=False), name
    assert filecmp.cmp(
        tmp_path / "scenes_one" / "scene_001" / "scene.json",
        tmp_path / "scenes_two" / "scene_001" / "scene.json",
        shallow=False,
    )
