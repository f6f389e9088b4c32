"""Per-layer tracing from outside the package.

``Tracer`` replaces public functions and methods of tinydet with wrappers that
count calls and time them. A function imported by name into another module
(``from .tensor import conv2d`` in pyramid, context, gating and detector) is
bound there too, so every module attribute holding the original is replaced,
and all of them are put back on exit.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass

# (module, attribute, label, items): `items(args, result)` counts work items per call.
TARGETS = [
    ("tensor", "conv2d", None, None),
    ("tensor", "bilinear_upsample", None, None),
    ("tensor", "Tensor.backward", "tensor.backward", None),
    ("pyramid", "backbone_forward", None, None),
    ("pyramid", "build_fpn", None, None),
    ("pyramid", "efpn_bs_forward", None, None),
    ("context", "cem_forward", None, None),
    ("gating", "fbsm_forward", None, None),
    ("detector", "head_forward", None, None),
    ("detector", "assign_image", None, None),
    ("detector", "DetectorModel.forward", "detector.forward", None),
    ("detector", "DetectorModel.loss", "detector.loss", None),
    ("detector", "DetectorModel.predict", "detector.predict", lambda args, out: len(out)),
    ("balanced_loss", "dcloss_term", None, None),
    ("training", "SGDMomentum.step", "training.sgd_step", None),
    ("anchors", "gen_anchors", None, None),
    ("anchors", "assign_maxiou", None, None),
    ("anchors", "iou_matrix", None, None),
    ("evaluation", "nms", None, lambda args, out: len(args[0])),
    ("evaluation", "evaluate_ap", None, None),
    ("evaluation", "average_precision", None, None),
    ("scenes", "generate_scene", None, None),
]

# conv2d calls per image on the default DetectorConfig:
# 5 backbone + 8 FPN + 1 CEM + 6 FBSM + 15 head (3 per level x 5 levels).
CONV2D_PER_IMAGE = 35
# 3 top-down FPN merges + 1 P5-to-P2 alignment for the enhancement.
BILINEAR_PER_IMAGE = 4


@dataclass
class Span:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0   # total minus the time of traced callees
    items: int = 0


class Tracer:
    """Context manager that traces every entry of TARGETS while active."""

    def __init__(self):
        self.spans: dict[str, Span] = {}
        self.within: dict[tuple[str, str], float] = {}  # (caller, callee) -> seconds
        self._stack: list[list] = []                      # [label, callee seconds]
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self):
        for module, attr, label, items in TARGETS:
            self._wrap(module, attr, label or f"{module}.{attr}", items)
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)
        return False

    def _wrap(self, module_name: str, attr: str, label: str, items):
        module = importlib.import_module(f"tinydet.{module_name}")
        if "." in attr:
            cls_name, method = attr.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[method]
            bindings = [(owner, method)]
        else:
            original = getattr(module, attr)
            bindings = [(mod, name) for mod in _package_modules()
                        for name, value in vars(mod).items() if value is original]
        wrapper = self._timed(original, label, items)
        for owner, name in bindings:
            self._undo.append((owner, name, original))
            setattr(owner, name, wrapper)

    def _timed(self, fn, label: str, items):
        span = self.spans.setdefault(label, Span())
        stack, within = self._stack, self.within
        clock = time.process_time  # the clock the untraced pass uses

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [label, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                span.calls += 1
                span.total_s += dt
                span.self_s += dt - frame[1]
                if stack:
                    caller = stack[-1]
                    caller[1] += dt
                    key = (caller[0], label)
                    within[key] = within.get(key, 0.0) + dt
            if items is not None:
                span.items += items(args, out)
            return out

        return traced


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "tinydet" or name.startswith("tinydet."))]


def coverage_errors(spans: dict[str, Span], kind: str, images: int) -> list[str]:
    """The trace must have seen every call it is meant to wrap."""
    expected = {
        "tensor.conv2d": CONV2D_PER_IMAGE * images,
        "tensor.bilinear_upsample": BILINEAR_PER_IMAGE * images,
        "tensor.backward": images if kind == "train" else 0,
    }
    if kind == "train":
        expected.update({"evaluation.nms": 0, "evaluation.evaluate_ap": 0})
    if images == 0:
        return ["traced pass processed no image"]
    return [f"trace coverage: {label} called {spans[label].calls} times, expected {n} "
            f"for {images} images" for label, n in expected.items() if spans[label].calls != n]
