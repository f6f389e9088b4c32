"""Dense one-anchor-per-cell detector over the feature pyramid.

The head is shared across levels: a 3x3 conv + ReLU trunk, then 1x1 heads for
per-class sigmoid scores and 4 box-delta regressions.  Box deltas use the
standard normalized encoding (dx, dy, dw, dh) relative to the cell's anchor.
Classification trains with class-balanced binary cross-entropy (positive and
negative anchors each contribute half of the loss); regression trains on
positive anchors only with a pluggable loss.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass
from typing import Literal

import numpy as np

from .anchors import LEVEL_STRIDES, NEGATIVE, Box, assign_maxiou, boxes_array, pyramid_anchors
from .balanced_loss import DCLossParams, dcloss_term, smooth_l1_term
from .config import read_json
from .context import build_cem_params
from .evaluation import Detection, nms
from .gating import build_fbsm_params
from .pyramid import (
    backbone_forward,
    build_backbone_params,
    build_fpn,
    build_fpn_params,
    efpn_bs_forward,
)
from .tensor import (
    ParamStore,
    Tensor,
    add,
    concat_columns,
    conv2d,
    gather_columns,
    no_grad,
    read_tensor_file,
    sigmoid_array,
    weighted_bce_with_logits,
    write_tensor_file,
)

__all__ = [
    "DetectorConfig",
    "CheckpointManifest",
    "DetectorModel",
    "DivergenceError",
    "build_head_params",
    "head_forward",
    "encode_deltas",
    "decode_deltas",
    "ImageAssignment",
    "assign_image",
]


class DivergenceError(RuntimeError):
    """A non-finite loss, weight or model output; carries training's last good weights."""

    def __init__(self, message: str, last_good_state: dict | None):
        super().__init__(message)
        self.last_good_state = last_good_state


@dataclass
class DetectorConfig:
    stem_channels: int = 8
    stage_channels: tuple[int, ...] = (8, 16, 16, 16)  # one per stride 4/8/16/32
    pyramid_channels: int = 8
    input_offset: float = 0.4  # subtracted from the image to center intensities
    num_classes: int = 3
    levels: tuple[str, ...] = ("P2", "P3", "P4", "P5", "P6")
    enhance_levels: tuple[str, ...] = ("P2",)
    head_channels: int = 32
    base_anchor: float = 2.0
    pos_thr: float = 0.5
    neg_thr: float = 0.4
    score_floor: float = 0.05
    nms_iou: float = 0.5
    max_detections: int = 100

    def __post_init__(self):
        if not self.levels:
            raise ValueError("levels must name at least one pyramid level")
        for name in (*self.levels, *self.enhance_levels):
            if name not in LEVEL_STRIDES:
                raise ValueError(f"unknown pyramid level {name!r}; levels are "
                                 f"{', '.join(LEVEL_STRIDES)}")
        for field_name in ("levels", "enhance_levels"):
            names = getattr(self, field_name)
            if len(set(names)) != len(names):
                raise ValueError(f"{field_name} names a level twice: {list(names)}")
        for name in self.enhance_levels:
            if LEVEL_STRIDES[name] > LEVEL_STRIDES["P5"]:
                raise ValueError(f"enhance_levels names {name}, which is coarser than the P5 it upsamples")
            if name not in self.levels:
                raise ValueError(f"enhance_levels names {name}, which levels does not hold for the head")
        if len(self.stage_channels) != 4:
            raise ValueError("backbone needs exactly 4 stages (strides 4/8/16/32)")
        counts = {"stem_channels": self.stem_channels, "pyramid_channels": self.pyramid_channels,
                  **{f"stage_channels[{i}]": c for i, c in enumerate(self.stage_channels)},
                  "num_classes": self.num_classes, "head_channels": self.head_channels,
                  "max_detections": self.max_detections}
        for name, value in counts.items():
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if not math.isfinite(self.input_offset):
            raise ValueError(f"input_offset must be finite, got {self.input_offset}")
        for name in ("score_floor", "nms_iou"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {getattr(self, name)}")
        if not 0 < self.base_anchor < math.inf:
            raise ValueError(f"base_anchor must be finite and > 0, got {self.base_anchor}")
        if not 0.0 <= self.neg_thr <= self.pos_thr <= 1.0:
            raise ValueError(f"need 0 <= neg_thr <= pos_thr <= 1, got neg_thr "
                             f"{self.neg_thr}, pos_thr {self.pos_thr}")


_CHECKPOINT_FORMAT = "tinydet-checkpoint-v2"


@dataclass
class CheckpointManifest:
    """A checkpoint's ``manifest.json``: the parameter names in registration
    order, parameter i in ``params/p{i:04d}.efbt`` with its shape in that
    file's header, and the seed and config that built them."""

    format: Literal[_CHECKPOINT_FORMAT]
    seed: int
    params: tuple[str, ...]
    config: DetectorConfig

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        seen = set()
        for i, name in enumerate(self.params):
            if name in seen:
                raise ValueError(f"params[{i}]: {name!r} is listed twice")
            seen.add(name)


def _param_file(directory: str, i: int) -> str:
    return os.path.join(directory, "params", f"p{i:04d}.efbt")


def build_head_params(store: ParamStore, channels: int, num_classes: int,
                      trunk_channels: int):
    store.register_conv("head.trunk", trunk_channels, channels, 3)
    store.register_conv("head.cls", num_classes, trunk_channels, 1)
    store.register_conv("head.reg", 4, trunk_channels, 1)


def head_forward(pyr: dict[str, Tensor], store: ParamStore, levels):
    """(class logits [K,N], box deltas [4,N]) over every anchor of ``levels``.

    Column j belongs to anchor j of ``pyramid_anchors``: the levels in turn,
    each level's cells row-major, as ``concat_columns`` flattens each level's
    [K,h,w] and [4,h,w] maps.  This is the only per-level loop of the
    detector; assignment, loss and ``predict`` all work on these columns.
    """
    cls_maps, reg_maps = [], []
    for name in levels:
        trunk = conv2d(pyr[name], *store.conv("head.trunk"), relu=True)
        cls_maps.append(conv2d(trunk, *store.conv("head.cls")))
        reg_maps.append(conv2d(trunk, *store.conv("head.reg")))
    return concat_columns(cls_maps), concat_columns(reg_maps)


def _center_size(boxes: np.ndarray):
    """(cx, cy, w, h) of [N,4] (x1, y1, x2, y2) boxes."""
    return ((boxes[:, 0] + boxes[:, 2]) / 2, (boxes[:, 1] + boxes[:, 3]) / 2,
            boxes[:, 2] - boxes[:, 0], boxes[:, 3] - boxes[:, 1])


def encode_deltas(anchors: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """Normalized (dx, dy, dw, dh) of gt boxes relative to anchors."""
    ax, ay, aw, ah = _center_size(anchors)
    gx, gy, gw, gh = _center_size(gt)
    return np.stack([(gx - ax) / aw, (gy - ay) / ah,
                     np.log(gw / aw), np.log(gh / ah)], axis=0)


def decode_deltas(anchors: np.ndarray, deltas: np.ndarray, image_hw) -> np.ndarray:
    """Inverse of encode_deltas, clipped to the (H, W) image; deltas is [4,N].
    Output boxes [N,4]."""
    ax, ay, aw, ah = _center_size(anchors)
    cx = ax + deltas[0] * aw
    cy = ay + deltas[1] * ah
    w = aw * np.exp(np.minimum(np.maximum(deltas[2], -6), 6))
    h = ah * np.exp(np.minimum(np.maximum(deltas[3], -6), 6))
    boxes = np.stack([cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2], axis=1)
    for corners, side in ((boxes[:, 0::2], image_hw[1]), (boxes[:, 1::2], image_hw[0])):
        np.minimum(np.maximum(corners, 0, out=corners), side, out=corners)
    return boxes


@dataclass
class ImageAssignment:
    """Anchor labels and regression targets for one image, in the anchor order
    of ``pyramid_anchors`` (N anchors, Np of them positive)."""

    labels: np.ndarray       # [N] gt index, NEGATIVE or IGNORED
    cls_targets: np.ndarray  # [K,N] one-hot
    reg_idx: np.ndarray      # [Np] anchor index of each positive
    reg_targets: np.ndarray  # [4,Np] encoded deltas


def assign_image(gts, image_hw, cfg: DetectorConfig) -> ImageAssignment:
    """Run max-IoU assignment jointly over all configured levels."""
    anchors, _ = pyramid_anchors(image_hw, cfg.base_anchor, cfg.levels)
    gt_boxes = boxes_array([b for b, _ in gts])
    gt_classes = np.array([c for _, c in gts], dtype=np.int64)
    bad = [int(c) for c in gt_classes if not 0 <= c < cfg.num_classes]
    if bad:
        raise ValueError(f"class {bad[0]} outside [0, {cfg.num_classes}) "
                         f"for a {cfg.num_classes}-class detector")
    labels = assign_maxiou(anchors, gt_boxes, cfg.pos_thr, cfg.neg_thr)
    pos = np.nonzero(labels >= 0)[0]
    cls_targets = np.zeros((cfg.num_classes, len(anchors)), dtype=np.float64)
    cls_targets[gt_classes[labels[pos]], pos] = 1.0
    return ImageAssignment(labels=labels, cls_targets=cls_targets, reg_idx=pos,
                           reg_targets=encode_deltas(anchors[pos], gt_boxes[labels[pos]]))


class DetectorModel:
    """Wires backbone, pyramid, enhancement modules, and head over one ParamStore."""

    def __init__(self, cfg: DetectorConfig, seed: int = 0, saved: dict | None = None):
        """``saved`` maps parameter names to arrays to take in place of the
        seeded initialization; see ``ParamStore``."""
        self.cfg = cfg
        self.store = store = ParamStore(seed=seed, saved=saved)
        build_backbone_params(store, cfg)
        build_fpn_params(store, cfg)
        c = cfg.pyramid_channels
        build_cem_params(store, c, c)
        build_fbsm_params(store, c, c)
        build_head_params(store, c, cfg.num_classes, cfg.head_channels)

    def save(self, directory: str):
        """Checkpoint: one EFBT file per parameter and a ``CheckpointManifest``
        that carries the seed and the config that built them."""
        os.makedirs(os.path.join(directory, "params"), exist_ok=True)
        for i, t in enumerate(self.store.tensors()):
            write_tensor_file(_param_file(directory, i), t.data)
        manifest = CheckpointManifest(_CHECKPOINT_FORMAT, self.store.seed,
                                      tuple(self.store.params), self.cfg)
        with open(os.path.join(directory, "manifest.json"), "w") as f:
            json.dump(asdict(manifest), f, indent=2, sort_keys=True)

    @classmethod
    def load(cls, directory: str) -> "DetectorModel":
        """Rebuild the model a checkpoint's config describes over its
        parameters; names and shapes must match the config's exactly, and a
        manifest or parameter file that does not parse raises ValueError."""
        try:
            manifest = read_json(CheckpointManifest, os.path.join(directory, "manifest.json"))
        except ValueError as e:
            raise ValueError(f"checkpoint {e}") from e
        arrays = {name: read_tensor_file(_param_file(directory, i))
                  for i, name in enumerate(manifest.params)}
        where = f"checkpoint {directory}: parameters do not fit its config"
        try:
            model = cls(manifest.config, seed=manifest.seed, saved=arrays)
        except ValueError as e:
            raise ValueError(f"{where}: {e}") from e
        if arrays:
            raise ValueError(f"{where}: {', '.join(sorted(arrays))} not in it")
        return model

    def pyramid(self, image: Tensor) -> dict[str, Tensor]:
        """The pyramid levels, with each of ``enhance_levels`` enhanced."""
        feats = backbone_forward(image, self.store, self.cfg)
        return efpn_bs_forward(build_fpn(feats, self.store), self.store, self.cfg.enhance_levels)

    def forward(self, image: Tensor):
        """(class logits [K,N], box deltas [4,N]), see ``head_forward``."""
        return head_forward(self.pyramid(image), self.store, self.cfg.levels)

    # -- loss ---------------------------------------------------------------

    def loss(self, outputs, assignment: ImageAssignment,
             dc_params: DCLossParams | None):
        """Scalar total loss plus float (cls, reg) components for the curves.
        Regression uses smooth L1, or the adaptive loss when ``dc_params`` is
        given."""
        cls_out, reg_out = outputs
        k = self.cfg.num_classes
        lab = assignment.labels
        neg = lab == NEGATIVE
        w = np.zeros(len(lab))
        w[lab >= 0] = 0.5 / (max(len(assignment.reg_idx), 1) * k)
        w[neg] = 0.5 / (max(int(neg.sum()), 1) * k)
        cls_loss = weighted_bce_with_logits(cls_out, assignment.cls_targets, w)
        if not len(assignment.reg_idx):
            return cls_loss, float(cls_loss.data), 0.0
        pred = gather_columns(reg_out, assignment.reg_idx)
        if dc_params is None:
            reg = smooth_l1_term(pred, assignment.reg_targets)
        else:
            reg = dcloss_term(pred, assignment.reg_targets, dc_params)
        return add(cls_loss, reg), float(cls_loss.data), float(reg.data)

    # -- inference ----------------------------------------------------------

    def predict(self, image: Tensor) -> list[Detection]:
        """Every anchor x class scoring at least ``score_floor`` with a box wider
        and taller than 1e-3, after class-wise NMS: at most ``max_detections``,
        ranked by (-score, class, anchor).  Raises DivergenceError when the
        head's outputs are not finite, as a diverged model's are.  The forward
        runs under ``no_grad``, since nothing calls backward on it."""
        cfg = self.cfg
        h, w = image.data.shape[1:]
        with no_grad():
            cls_out, reg_out = self.forward(image)
        if not (np.isfinite(cls_out.data).all() and np.isfinite(reg_out.data).all()):
            raise DivergenceError("non-finite class logits or box deltas: "
                                  "the model has diverged", None)
        anchors, _ = pyramid_anchors((h, w), cfg.base_anchor, cfg.levels)
        scores = sigmoid_array(cls_out.data.astype(np.float64))
        boxes = decode_deltas(anchors, reg_out.data.astype(np.float64), (h, w))
        sized = (boxes[:, 2] - boxes[:, 0] > 1e-3) & (boxes[:, 3] - boxes[:, 1] > 1e-3)
        flat = np.flatnonzero((scores >= cfg.score_floor) & sized)  # class-major
        cls, idx = np.divmod(flat, scores.shape[1])
        cand_scores = np.take(scores, flat)
        kept = nms(np.take(boxes, idx, axis=0), cand_scores, cls, cfg.nms_iou, cfg.max_detections)
        return [Detection(Box(*row), c, s) for row, c, s in
                zip(np.take(boxes, idx[kept], axis=0).tolist(), cls[kept].tolist(),
                    cand_scores[kept].tolist())]
