"""Walkthrough: synthetic tiny-object scenes and the per-level anchor audit.

Generates a batch of scenes and runs the audit, which counts the labels that
training's assignment gives the anchors of each configured level, jointly
across the pyramid.  With one square anchor of side 2 x stride per cell and
objects capped at 16 px, essentially all positives live on P2 (stride 4,
anchor side 8); the upper levels see none.  The reports land in a temporary
directory.
"""

import tempfile

from tinydet.detector import DetectorConfig
from tinydet.experiments import audit_positive_samples
from tinydet.scenes import SceneSpec, generate_scene

N = 200
spec = SceneSpec(seed=0)
scenes = [generate_scene(spec, i) for i in range(N)]

sides = [b.x2 - b.x1 for s in scenes for b, _ in s.gts]
print(f"{N} scenes, {len(sides)} objects, "
      f"side range [{min(sides):.0f}, {max(sides):.0f}] px")

with tempfile.TemporaryDirectory() as out:
    stats = audit_positive_samples(scenes, DetectorConfig(), out)
total_pos = sum(s["positives"] for s in stats)
print(f"\n{'level':>5} {'anchors':>8} {'positives':>9} {'share':>7}")
for s in stats:
    anchors = s["positives"] + s["negatives"] + s["ignored"]
    share = s["positives"] / total_pos if total_pos else 0.0
    print(f"{s['level']:>5} {anchors:>8} {s['positives']:>9} {share:>6.1%}")

p2 = next(s for s in stats if s["level"] == "P2")
print(f"\nP2 holds {p2['positives'] / total_pos:.1%} of all positive anchors")
