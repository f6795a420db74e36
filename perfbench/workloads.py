"""The four benchmark workloads and the loop that times them.

Every workload is single process and closed loop with one caller: the next
request starts only when the previous result is back, because a robot or
an analyst waits for each one.  Inputs come only from the workload seed;
the program under test sees nothing but the generated scenes.

A workload has a set-up (whatever the timed phase consumes), an iteration
(the timed phase, repeated until the run's seconds are used up, and at
least once over each of the workload's `cycle` inputs) and output checks
that run outside the timed regions.  A failed check or an unexpected
exception counts one failed operation; it never aborts the run.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import json
import os
import shutil
import statistics
import sys
import time
import traceback

import numpy as np
from scipy.spatial.transform import Rotation

from scanloc import cli, cloud, evaluation, geometry, handeye, synth, targets

from spans import LAYER_METRICS, Tracer
from speed import SpeedGauge

SETUP_REPEATS = 3
CLEAN = synth.NoiseSpec()
NOISY = synth.NoiseSpec(keypoint_sigma_px=2.0, depth_sigma_m=0.005)
FAULTED = dataclasses.replace(NOISY, fault_prob={"right_hip": 1.0})
MILD = synth.NoiseSpec(keypoint_sigma_px=1.0, depth_sigma_m=0.002)
STREAM_VOXEL_M = 0.005  # the CLI's default voxel
# acceptance criterion 5 and the success threshold it uses
CRITERION5_POSITION_MM = 5.0
CRITERION5_NORMAL_DEG = 1.0
SUCCESS_MM = 25.0
# A probe tilted further than this off the true normal misses the skin.
# Under 1 px / 2 mm noise at 5 mm voxels the PCA normals of localized poses
# are off by about 5 deg on average and by at most 16 deg in 240 scenes.
POSE_NORMAL_TOL_DEG = 30.0
CALIBRATION_SAMPLES = 12
CALIBRATION_TOL = 1e-6  # rad and m, as acceptance criterion 1
REPORT_FILES = ("folds.csv", "success_table.csv", "backprojection.csv", "summary.json")


def derive_seed(seed: int, *tags: int) -> int:
    """A child seed that depends only on (seed, tags)."""
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, ok: bool, reason: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)

    def crash(self, what: str, operations: int = 1) -> None:
        """An unexpected exception that cost `operations` operations."""
        traceback.print_exc(file=sys.stderr)
        for _ in range(operations):
            self.record(False, f"{what}: {sys.exc_info()[1]!r}")


class Clock:
    """Sums the timed regions of one iteration; one sample per region.

    The speed gauge runs its reference around (and, with `sampling`, inside)
    each region, so a region has a wall time and a time scaled to the
    reference speed (see speed.py).
    """

    def __init__(self, gauge: SpeedGauge, tracer: Tracer | None, sampling: bool = True):
        self.gauge = gauge
        self.tracer = tracer
        self.sampling = sampling
        self.wall = 0.0
        self.scaled = 0.0
        self.samples_ms: list[float] = []

    @contextlib.contextmanager
    def measure(self):
        span = self.tracer.span("timed") if self.tracer else contextlib.nullcontext()
        region = None
        try:
            # the span closes before the gauge's closing reference runs
            with self.gauge.region(sampling=self.sampling) as region, span:
                yield
        finally:
            if region is not None:
                self.wall += region.wall
                self.scaled += region.scaled
                self.samples_ms.append(1e3 * region.scaled)


@dataclasses.dataclass
class Quality:
    """Accuracy against the generator's ground truth, pooled over a run."""

    position_mm: list = dataclasses.field(default_factory=list)
    normal_deg: list = dataclasses.field(default_factory=list)
    successes: int = 0
    scored: int = 0

    def add_fold(self, position_mm: float, normal_deg: float) -> None:
        self.position_mm.append(position_mm)
        self.normal_deg.append(normal_deg)
        self.scored += 1
        self.successes += position_mm <= SUCCESS_MM

    def summary(self) -> dict:
        out = {}
        if self.position_mm:
            out["position_error_mm"] = (float(np.mean(self.position_mm)), "mm")
            out["normal_error_deg"] = (float(np.mean(self.normal_deg)), "deg")
        if self.scored:
            out["success_rate_25mm"] = (self.successes / self.scored, "ratio")
        return out


# stratified inputs ------------------------------------------------------------


def stratified_torsos(count: int, rng) -> list:
    """`count` torsos over the generator's default ranges, as a Latin
    hypercube: each field's range is cut into `count` equal strata and each
    stratum is used once.  A cohort then always spans small to large bodies,
    so its total surface, and the work it makes, varies little from seed to
    seed."""
    fields = {
        name: lo + (rng.permutation(count) + rng.uniform(size=count)) / count * (hi - lo)
        for name, (lo, hi) in synth.DEFAULT_TORSO_RANGES.items()
    }
    return [synth.TorsoSpec(**{name: float(values[i]) for name, values in fields.items()})
            for i in range(count)]


def stratified_scenes(rng, noises, pose_kinds, cameras=None) -> list:
    """Scene i over the i-th stratified torso, with noises[i] (reseeded from
    `rng`) and pose_kinds[i]."""
    ratios = synth.default_ratios()
    torsos = stratified_torsos(len(noises), rng)
    return [
        synth.generate_scene(torso, ratios, cameras,
                             dataclasses.replace(noise, seed=int(rng.integers(2**63))),
                             pose_kind, scene_id=index)
        for index, (torso, noise, pose_kind) in enumerate(zip(torsos, noises, pose_kinds))
    ]


# cohort-clean ----------------------------------------------------------------


class CohortClean:
    """Acceptance criterion 5 in memory: noiseless front and side cohorts,
    2 mm clouds, leave-one-out for targets 1, 2 and 4.  Each iteration uses
    the next of COHORTS cohorts drawn from the seed, so one run averages over
    several anatomies.

    Every fold must succeed at 25 mm.  The criterion's means (position under
    5 mm, normal under 1 deg) are statements about a cohort, so they are
    checked once per target over the folds of all COHORTS cohorts.
    """

    name = "cohort-clean"
    default_scenes = 3  # per pose
    COHORTS = 2
    cycle = COHORTS
    per_scene_latency = False

    def setup(self, seed, scenes, workdir):
        return {"n": scenes, "folds": {}, "setup_checks": [],
                "cohort_seeds": [derive_seed(seed, 10, k) for k in range(self.COHORTS)]}

    def iterate(self, state, k, clock, tally):
        n = state["n"]
        master = state["cohort_seeds"][k % self.COHORTS]
        # one timed region per step, so the speed gauge runs every ~0.5 s
        try:
            cohorts = {}
            for pose_kind in ("front", "side"):
                with clock.measure():
                    scenes = synth.generate_cohort(n, noise=CLEAN, pose_kind=pose_kind,
                                                   seed=master)
                clouds = []
                for scene in scenes:
                    with clock.measure():
                        clouds.append(evaluation.scene_cloud(scene))
                cohorts[pose_kind] = scenes, clouds
            folds = {}
            for target_id, pose_kind in ((1, "front"), (2, "front"), (4, "side")):
                scenes, clouds = cohorts[pose_kind]
                with clock.measure():
                    folds[target_id] = evaluation.loocv(scenes, target_id, clouds=clouds)
        except Exception:
            tally.crash(f"cohort {master}", operations=3 * n)
            return 2 * n
        for target_id, target_folds in folds.items():
            for f in target_folds:
                tally.record(not f.faulty and f.position_error_mm <= SUCCESS_MM,
                             f"cohort {master} scene {f.scene_id} target {target_id}: "
                             f"{f.fault_reason or f'{f.position_error_mm:.3f} mm'}")
        state["folds"][k % self.COHORTS] = folds
        return 2 * n

    def finish(self, state, tally):
        quality = Quality()
        for target_id in (1, 2, 4):
            folds = [f for cohort in state["folds"].values() for f in cohort[target_id]]
            valid = [f for f in folds if not f.faulty]
            for f in valid:
                quality.add_fold(f.position_error_mm, f.normal_error_deg)
            quality.scored += len(folds) - len(valid)
            if not valid:
                continue  # every fold already counted as failed
            pos = float(np.mean([f.position_error_mm for f in valid]))
            ang = float(np.mean([f.normal_error_deg for f in valid]))
            tally.record(pos < CRITERION5_POSITION_MM and ang < CRITERION5_NORMAL_DEG,
                         f"target {target_id}: mean position {pos:.3f} mm, "
                         f"mean normal {ang:.3f} deg over {len(valid)} folds")
        return quality.summary(), {}


# evaluate-noisy --------------------------------------------------------------


class EvaluateNoisy:
    """`scanloc evaluate` for target 4 through the CLI entry point, on a side
    cohort with 2 px keypoint noise and 5 mm depth noise, read from disk; the
    reports are written to disk.

    Exactly one scene of the cohort, at a seed-drawn place, has its right hip
    faulted (dropped or displaced), and the anatomies are stratified.  So
    every seed runs one fault fold and the same number of fits on a cohort
    of much the same total size.
    """

    name = "evaluate-noisy"
    default_scenes = 4
    cycle = 2  # report hashes are compared across repetitions
    per_scene_latency = False

    def setup(self, seed, scenes, workdir):
        rng = np.random.default_rng(derive_seed(seed, 20))
        faulted_index = int(rng.integers(scenes))
        cohort = stratified_scenes(
            rng, [FAULTED if i == faulted_index else NOISY for i in range(scenes)],
            ["side"] * scenes)
        scene_dir = os.path.join(workdir, "scenes")
        for scene in cohort:
            synth.save_scene(scene, os.path.join(scene_dir, f"scene_{scene.scene_id:03d}"))
        required = targets.required_joints("side")
        injected = {s.scene_id: any(j in s.faulted_joints for j in required) for s in cohort}
        return {"scene_dir": scene_dir, "workdir": workdir, "n": scenes,
                "injected": injected, "hashes": None, "setup_checks": [],
                "quality": Quality(), "backprojection_px": None}

    def iterate(self, state, k, clock, tally):
        out = os.path.join(state["workdir"], f"report_{k}")
        argv = ["evaluate", "--scenes", state["scene_dir"], "--target", "4",
                "--out", out, "--jobs", "1"]
        try:
            with clock.measure():
                code = cli.main(argv)
            self._check(state, out, code, tally)
        except Exception:
            tally.crash(f"evaluate repetition {k}")
        shutil.rmtree(out, ignore_errors=True)
        return state["n"]

    def _check(self, state, out, code, tally):
        # with fewer than two clean scenes no fold can train: every fold is
        # faulty and `evaluate` must refuse to summarize (exit 1)
        expected = 0 if list(state["injected"].values()).count(False) >= 2 else 1
        if code != expected:
            tally.record(False, f"scanloc evaluate exited {code}, expected {expected}")
            return
        if code:
            tally.record(True)
            return
        hashes = {name: sha256(os.path.join(out, name)) for name in REPORT_FILES}
        with open(os.path.join(out, "folds.csv"), newline="") as fh:
            folds = list(csv.DictReader(fh))
        with open(os.path.join(out, "summary.json")) as fh:
            summary = json.load(fh)
        with open(os.path.join(out, "backprojection.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        faulty = {int(f["scene_id"]): f["faulty"] == "1" for f in folds}
        medians = summary["backprojection_median_px"]
        two = [float(r["pixel_error"]) for r in rows if r["method"] == "two_view"]
        single = [float(r["pixel_error"]) for r in rows if r["method"] == "single_view"]
        if state["hashes"] is None:
            state["hashes"] = hashes
            for f in folds:
                if f["faulty"] == "1":
                    state["quality"].scored += 1
                else:
                    state["quality"].add_fold(float(f["position_error_mm"]),
                                              float(f["normal_error_deg"]))
            state["backprojection_px"] = (medians["two_view"], medians["single_view"])
        problems = []
        if faulty != state["injected"]:
            problems.append(f"fault folds {faulty} differ from injected {state['injected']}")
        if len(two) != 2 * state["n"] or len(single) != 4 * state["n"]:
            problems.append(f"backprojection.csv has {len(two)}+{len(single)} rows")
        elif (abs(medians["two_view"] - float(np.median(two))) > 1e-6
              or abs(medians["single_view"] - float(np.median(single))) > 1e-6):
            # the CSV rounds each error to 6 decimals
            problems.append("summary.json medians disagree with backprojection.csv")
        if hashes != state["hashes"]:
            problems.append("report bytes differ from the first repetition")
        tally.record(not problems, "; ".join(problems))

    def finish(self, state, tally):
        quality = state["quality"].summary()
        extra = {"report_sha256": state["hashes"]}
        if state["backprojection_px"]:
            two, single = state["backprojection_px"]
            quality["backproj_two_view_px"] = (two, "px")
            quality["backproj_single_view_px"] = (single, "px")
        return quality, extra


# localize-stream -------------------------------------------------------------


def synthetic_pose_pairs(camera_pose, rng, count):
    """Gripper/tag pose pairs consistent with `camera_pose` (eye to hand)."""

    def random_transform(scale):
        quat = rng.standard_normal(4)
        rotation = Rotation.from_quat(quat / np.linalg.norm(quat)).as_matrix()
        return geometry.RigidTransform(rotation, rng.uniform(-scale, scale, 3))

    tag_in_gripper = random_transform(0.1).as_matrix()
    base_to_camera = np.linalg.inv(camera_pose.as_matrix())
    samples = []
    for _ in range(count):
        gripper = random_transform(1.0)
        tag = base_to_camera @ gripper.as_matrix() @ tag_in_gripper
        samples.append(handeye.PosePairSample(
            gripper_in_base=gripper,
            tag_in_camera=geometry.RigidTransform.orthonormalized(tag[:3, :3], tag[:3, 3]),
        ))
    return samples


def _fit_sample(cameras, scene, target_id):
    joints = targets.triangulate_joints(cameras[0], cameras[1], scene.observation)
    return targets.FitSample(keypoints=targets.Keypoints3D(**joints),
                             target=scene.targets_true[target_id], scene_id=scene.scene_id)


class LocalizeStream:
    """The online path: calibrated rig, parameters fitted once in set-up, and
    a stream of alternating front and side scenes over stratified torsos,
    arriving as arrays, each fused at 5 mm and localized while the caller
    waits."""

    name = "localize-stream"
    default_scenes = 8
    TRAINING_SCENES = 6  # per pose
    cycle = 1
    per_scene_latency = True

    def setup(self, seed, scenes, workdir):
        rig = synth.default_cameras(synth.TorsoSpec())
        rng = np.random.default_rng(derive_seed(seed, 30))
        checks, calibrated = [], []
        for index, camera in enumerate(rig):
            pose = handeye.estimate_camera_pose(
                synthetic_pose_pairs(camera.pose, rng, CALIBRATION_SAMPLES))
            rot_err = Rotation.from_matrix(pose.rotation.T @ camera.pose.rotation).magnitude()
            trans_err = float(np.linalg.norm(pose.translation - camera.pose.translation))
            checks.append((rot_err < CALIBRATION_TOL and trans_err < CALIBRATION_TOL,
                           f"camera {index} calibration off by {rot_err:.2e} rad, "
                           f"{trans_err:.2e} m"))
            calibrated.append(dataclasses.replace(camera, pose=pose))
        cameras = tuple(calibrated)

        def cohort(count, pose_kind, tag):
            return synth.generate_cohort(count, noise=MILD, pose_kind=pose_kind,
                                         seed=derive_seed(seed, tag), cameras=rig)

        train_front = cohort(self.TRAINING_SCENES, "front", 31)
        train_side = cohort(self.TRAINING_SCENES, "side", 32)
        fits = {
            t: targets.fit_front(targets.FitDataset(
                [_fit_sample(cameras, s, t) for s in train_front])).ratios
            for t in (1, 2)
        }
        side = targets.fit_side(targets.FitDataset(
            [_fit_sample(cameras, s, 4) for s in train_side])).ratios
        params = targets.TargetModelParams(front=fits, side=side)
        # one request before timing: a localizer in service has answered
        # requests before, so its lazy set-up is done when the stream starts
        warm = train_front[0]
        targets.localize(cameras[0], cameras[1], warm.observation,
                         cloud.fuse(list(zip(cameras, warm.depths)), voxel=STREAM_VOXEL_M),
                         params, warm.pose_kind)

        stream = stratified_scenes(np.random.default_rng(derive_seed(seed, 33)),
                                   [MILD] * scenes,
                                   [("front", "side")[i % 2] for i in range(scenes)],
                                   cameras=rig)
        return {"cameras": cameras, "params": params, "stream": stream,
                "setup_checks": checks, "quality": Quality()}

    def iterate(self, state, k, clock, tally):
        cam_a, cam_b = state["cameras"]
        for scene in state["stream"]:
            try:
                with clock.measure():
                    fused = cloud.fuse(list(zip(state["cameras"], scene.depths)),
                                       voxel=STREAM_VOXEL_M)
                    poses = targets.localize(cam_a, cam_b, scene.observation, fused,
                                             state["params"], scene.pose_kind)
                self._check(state, scene, poses, tally)
            except Exception:
                tally.crash(f"scene {scene.scene_id} ({scene.pose_kind})")
        return len(state["stream"])

    def _check(self, state, scene, poses, tally):
        problems = []
        if sorted(p.target_id for p in poses) != sorted(scene.targets_true):
            problems.append(f"targets {[p.target_id for p in poses]}")
        for pose in poses:
            truth = scene.targets_true.get(pose.target_id)
            if truth is None:
                continue
            normal = pose.surface_normal
            pos_mm = 1e3 * float(np.linalg.norm(pose.position - truth))
            ang = geometry.angle_between_degrees(
                normal, scene.target_normals_true[pose.target_id])
            state["quality"].add_fold(pos_mm, ang)
            if pos_mm > SUCCESS_MM or ang > POSE_NORMAL_TOL_DEG:
                problems.append(f"target {pose.target_id} off by {pos_mm:.2f} mm, {ang:.2f} deg")
            if abs(np.linalg.norm(normal) - 1.0) > 1e-9:
                problems.append(f"target {pose.target_id} normal is not unit length")
            if pose.far_from_surface:
                problems.append(f"target {pose.target_id} flagged far from surface")
        tally.record(not problems,
                     f"scene {scene.scene_id} ({scene.pose_kind}): " + "; ".join(problems))

    def finish(self, state, tally):
        return state["quality"].summary(), {}


# fuse-export -----------------------------------------------------------------


class FuseExport:
    """`scanloc fuse` through the CLI entry point on each scene of an on-disk
    cohort over stratified torsos at 5 mm, writing `.cloud` files and reading
    each one back: the one path that consumes every normal and the cloud
    file format."""

    name = "fuse-export"
    default_scenes = 8
    cycle = 1
    per_scene_latency = True

    def setup(self, seed, scenes, workdir):
        cohort = stratified_scenes(np.random.default_rng(derive_seed(seed, 40)),
                                   [MILD] * scenes, ["front"] * scenes)
        dirs = []
        for scene in cohort:
            directory = os.path.join(workdir, "scenes", f"scene_{scene.scene_id:03d}")
            synth.save_scene(scene, directory)
            dirs.append(directory)
        os.makedirs(os.path.join(workdir, "clouds"))
        return {"dirs": dirs, "workdir": workdir, "expected": {}, "hashes": {},
                "setup_checks": []}

    def iterate(self, state, k, clock, tally):
        for index, directory in enumerate(state["dirs"]):
            path = os.path.join(state["workdir"], "clouds", f"scene_{index:03d}.cloud")
            try:
                with clock.measure():
                    code = cli.main(["fuse", "--scene", directory, "--out", path])
                    loaded = cloud.FusedCloud.load(path)
                self._check(state, index, directory, path, code, loaded, tally)
            except Exception:
                tally.crash(f"scene {index}")
        return len(state["dirs"])

    def _check(self, state, index, directory, path, code, loaded, tally):
        if code != 0:
            tally.record(False, f"scanloc fuse exited {code} on scene {index}")
            return
        digest = sha256(path)
        if index not in state["expected"]:
            # the same fusion in memory, stored at the file's float32 precision
            scene = synth.load_scene(directory)
            reference = cloud.fuse(list(zip(scene.cameras, scene.depths)),
                                   voxel=STREAM_VOXEL_M)
            state["expected"][index] = reference.points.astype("<f4").astype(float)
            state["hashes"][index] = digest
        same = np.array_equal(loaded.points, state["expected"][index])
        tally.record(same and digest == state["hashes"][index],
                     f"scene {index}: cloud round trip changed the points or bytes")

    def finish(self, state, tally):
        return {}, {}


WORKLOADS = {w.name: w for w in (CohortClean(), EvaluateNoisy(), LocalizeStream(),
                                 FuseExport())}


# runner ----------------------------------------------------------------------


def tail_percentile(count: int) -> int:
    """Highest whole percentile with at least ten samples beyond it."""
    return max(0, int(100 * (count - 10) // count)) if count > 10 else 0


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q, method="lower"))


def cycle_mean(times, cycle: int) -> float:
    """Mean over the cycle's inputs of each input's median time, so every
    input weighs alike however many times the run repeated it."""
    return statistics.fmean(statistics.median(times[i::cycle]) for i in range(cycle))


def run(name: str, seed: int, seconds: float, trace: bool, workdir: str,
        scenes: int | None = None, trace_path: str | None = None,
        gauge: SpeedGauge | None = None) -> dict:
    """Set up, time and check one workload; returns metrics and a report.

    Every time in the metrics is scaled to the reference speed (speed.py);
    the report keeps the wall times beside them.
    """
    workload = WORKLOADS[name]
    n = scenes or workload.default_scenes
    gauge = gauge or SpeedGauge()
    tally = Tally()
    tracer = Tracer(run_id=f"{name}-{seed}-{os.getpid()}") if trace else None

    setup = []
    for repeat in range(1 if trace else SETUP_REPEATS):
        directory = os.path.join(workdir, f"setup_{repeat}")
        shutil.rmtree(directory, ignore_errors=True)
        os.makedirs(directory)
        with gauge.region(sampling=not trace) as region:
            if tracer:
                tracer.install()
            try:
                state = workload.setup(seed, n, directory)
            finally:
                if tracer:
                    tracer.uninstall()
        setup.append(region)
    for ok, reason in state["setup_checks"]:
        tally.record(ok, reason)

    clocks = {False: [], True: []}
    scene_ms, scene_count = [], 0
    # at least one whole cycle, so every run sees each of its inputs; a
    # traced run ends on a whole untraced/traced pair
    begin = time.perf_counter()
    k = 0
    while (k < workload.cycle * (2 if trace else 1) or (trace and k % 2)
           or time.perf_counter() - begin < seconds):
        # a traced run pairs each untraced iteration with a traced one on
        # the same inputs, so the pair's ratio is the tracing overhead
        traced = trace and k % 2 == 1
        # a traced run scales all its iterations alike, so that the
        # traced/untraced ratio compares like with like
        clock = Clock(gauge, tracer if traced else None, sampling=not trace)
        if traced:
            tracer.install()
        try:
            count = workload.iterate(state, k // 2 if trace else k, clock, tally)
        finally:
            if traced:
                tracer.uninstall()
        clocks[traced].append(clock)
        if not traced:
            scene_count += count
            scene_ms.extend(clock.samples_ms)
        k += 1
    quality, extra = workload.finish(state, tally)

    untraced = [c.scaled for c in clocks[False]]
    report = {"iterations": len(untraced), "speed": gauge.speed(),
              "wall_s_samples": untraced,
              "wall_s_unscaled": [c.wall for c in clocks[False]],
              "setup_s_samples": [r.scaled for r in setup],
              "setup_s_unscaled": [r.wall for r in setup], **extra}
    if workload.per_scene_latency:
        q = tail_percentile(len(scene_ms))
        report["scene_latency"] = {
            "samples": len(scene_ms),
            "scene_ms_p50": percentile(scene_ms, 50),
            "tail_percentile": q,
            "scene_ms_tail": percentile(scene_ms, q),
        }
    report["quality"] = {key: {"value": v, "unit": u} for key, (v, u) in quality.items()}
    report["error_rate"] = tally.failed / max(tally.attempted, 1)
    report["failures"] = tally.reasons

    if tracer:
        metrics = tracer.layer_metrics(statistics.fmean(c.scaled for c in clocks[True]),
                                       statistics.fmean(untraced), len(clocks[True]),
                                       _index_build_ms(tracer))
        if trace_path:
            tracer.write(trace_path)
        report["absent"] = sorted(tracer.absent)
        units = LAYER_METRICS
    else:
        metrics = {
            "setup_s": statistics.median(r.scaled for r in setup),
            "wall_s": cycle_mean(untraced, workload.cycle),
            "scenes_per_s": scene_count / sum(untraced),
        }
        units = {"setup_s": "s", "wall_s": "s", "scenes_per_s": "1/s"}
    return {"tally": tally, "metrics": metrics, "units": units, "report": report}


def _index_build_ms(tracer: Tracer) -> float:
    """Median time to build a FusedCloud (and its planar index) from fused points.

    Unit +Z normals stand in for the cloud's own, so the benchmark never
    reads `normals` and never forces work the pipeline would not do.
    """
    if tracer.last_cloud is None:
        tracer.absent.add("cloud.index_build")
        return 0.0
    points = np.array(tracer.last_cloud.points)
    normals = np.tile([0.0, 0.0, 1.0], (len(points), 1))
    times = []
    try:
        for _ in range(3):
            start = time.perf_counter()
            cloud.FusedCloud(points=points, normals=normals)
            times.append(time.perf_counter() - start)
    except (TypeError, ValueError):
        tracer.absent.add("cloud.index_build")
        return 0.0
    return 1e3 * statistics.median(times)
