"""Walkthrough: simulated crowd -> noisy detections -> tracking -> metrics.

The detector-noise model drops the score of heads that overlap another head
(occlusion). Single-stage association throws those low-score boxes away and
fragments trajectories; two-stage association matches them against existing
tracks in a second pass and keeps identities alive.
"""
from headtrack.metrics import MotReport, evaluate
from headtrack.simulate import NoiseModel, ScenarioConfig, corrupt, simulate
from headtrack.tracker import Mode, TrackerConfig, outputs_to_records, run_tracker

scenario = ScenarioConfig(agent_count=25, duration=250, arena=(360, 280),
                          head_size_range=(18.0, 28.0), speed_range=(1.0, 3.0),
                          heading_sigma=0.15, repulsion_radius=12.0,
                          repulsion_strength=0.4, seed=0)
noise = NoiseModel(center_jitter=1.0, size_jitter=0.5,
                   tp_score=(0.9, 0.03), occlusion_drop=0.3, seed=0)

gt, meta = simulate(scenario)
print(f"simulated {meta.name}: {scenario.agent_count} agents, "
      f"{scenario.duration} frames, arena {scenario.arena}")

detections = corrupt(gt, noise)
n_dets = sum(len(v) for v in detections.values())
n_low = sum(1 for v in detections.values() for d in v if d.confidence < 0.6)
print(f"detections: {n_dets} total, {n_low} below the high-score threshold "
      "(occluded heads)")

print()
print(MotReport.header("mode"))
for mode in (Mode.sort, Mode.byte):
    outputs = run_tracker(detections, TrackerConfig(mode=mode, max_age=8))
    report = evaluate(gt, outputs_to_records(outputs))
    print(report.format_row(mode.value))

print("\nbyte mode recovers the occluded low-score boxes: fewer ID switches,")
print("higher IDF1, at the same detection thresholds.")
