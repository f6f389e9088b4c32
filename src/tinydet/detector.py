"""Dense one-anchor-per-cell detector over the feature pyramid.

The head is shared across levels: a 3x3 conv + ReLU trunk, then 1x1 heads for
per-class sigmoid scores and 4 box-delta regressions.  Box deltas use the
standard normalized encoding (dx, dy, dw, dh) relative to the cell's anchor.
Classification trains with class-balanced binary cross-entropy (positive and
negative anchors each contribute half of the loss); regression trains on
positive anchors only with a pluggable loss.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .anchors import NEGATIVE, Box, assign_maxiou, boxes_array, pyramid_anchors
from .balanced_loss import DCLossParams, dcloss_term, smooth_l1_term
from .config import from_dict
from .context import build_cem_params
from .evaluation import Detection, nms
from .gating import build_fbsm_params
from .pyramid import (
    LEVEL_STRIDES,
    BackboneConfig,
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
    relu,
    reshape,
    sigmoid_array,
    weighted_bce_with_logits,
)

__all__ = [
    "DetectorConfig",
    "DetectorModel",
    "build_head_params",
    "head_forward",
    "encode_deltas",
    "decode_deltas",
    "ImageAssignment",
    "assign_image",
]


@dataclass
class DetectorConfig:
    backbone: BackboneConfig = field(default_factory=BackboneConfig)
    num_classes: int = 3
    levels: tuple[str, ...] = ("P2", "P3", "P4", "P5", "P6")
    enhance_levels: tuple[str, ...] = ("P2",)
    gate_width: int | None = None
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
        counts = {"num_classes": self.num_classes, "head_channels": self.head_channels,
                  "max_detections": self.max_detections}
        if self.gate_width is not None:
            counts["gate_width"] = self.gate_width
        for name, value in counts.items():
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        for name in ("score_floor", "nms_iou"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {getattr(self, name)}")
        if not 0.0 <= self.neg_thr <= self.pos_thr <= 1.0:
            raise ValueError(f"need 0 <= neg_thr <= pos_thr <= 1, got neg_thr "
                             f"{self.neg_thr}, pos_thr {self.pos_thr}")


def build_head_params(store: ParamStore, channels: int, num_classes: int,
                      trunk_channels: int | None = None):
    c = trunk_channels if trunk_channels is not None else channels
    store.register_conv("head.trunk", c, channels, 3)
    store.register_conv("head.cls", num_classes, c, 1)
    store.register_conv("head.reg", 4, c, 1)


def head_forward(pyr: dict[str, Tensor], store: ParamStore, levels):
    """(class logits [K,N], box deltas [4,N]) over every anchor of ``levels``.

    Column j belongs to anchor j of ``pyramid_anchors``: the levels in turn,
    each level's cells row-major.  This is the only per-level loop of the
    detector; assignment, loss and ``predict`` all work on these columns.
    """
    cls_cols, reg_cols = [], []
    for name in levels:
        f = pyr[name]
        n = f.data.shape[1] * f.data.shape[2]
        trunk = relu(conv2d(f, store["head.trunk.w"], store["head.trunk.b"]))
        cls = conv2d(trunk, store["head.cls.w"], store["head.cls.b"])
        reg = conv2d(trunk, store["head.reg.w"], store["head.reg.b"])
        cls_cols.append(reshape(cls, (cls.data.shape[0], n)))
        reg_cols.append(reshape(reg, (4, n)))
    return concat_columns(cls_cols), concat_columns(reg_cols)


def encode_deltas(anchors: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """Normalized (dx, dy, dw, dh) of gt boxes relative to anchors."""
    aw = anchors[:, 2] - anchors[:, 0]
    ah = anchors[:, 3] - anchors[:, 1]
    ax = (anchors[:, 0] + anchors[:, 2]) / 2
    ay = (anchors[:, 1] + anchors[:, 3]) / 2
    gw = gt[:, 2] - gt[:, 0]
    gh = gt[:, 3] - gt[:, 1]
    gx = (gt[:, 0] + gt[:, 2]) / 2
    gy = (gt[:, 1] + gt[:, 3]) / 2
    return np.stack([(gx - ax) / aw, (gy - ay) / ah,
                     np.log(gw / aw), np.log(gh / ah)], axis=0)


def decode_deltas(anchors: np.ndarray, deltas: np.ndarray,
                  image_hw=None) -> np.ndarray:
    """Inverse of encode_deltas; deltas is [4,N].  Output boxes [N,4]."""
    aw = anchors[:, 2] - anchors[:, 0]
    ah = anchors[:, 3] - anchors[:, 1]
    ax = (anchors[:, 0] + anchors[:, 2]) / 2
    ay = (anchors[:, 1] + anchors[:, 3]) / 2
    cx = ax + deltas[0] * aw
    cy = ay + deltas[1] * ah
    w = aw * np.exp(np.clip(deltas[2], -6, 6))
    h = ah * np.exp(np.clip(deltas[3], -6, 6))
    boxes = np.stack([cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2], axis=1)
    if image_hw is not None:
        boxes[:, 0::2] = np.clip(boxes[:, 0::2], 0, image_hw[1])
        boxes[:, 1::2] = np.clip(boxes[:, 1::2], 0, image_hw[0])
    return boxes


@dataclass
class ImageAssignment:
    """Anchor labels and regression targets for one image, in the anchor order
    of ``pyramid_anchors`` (N anchors, Np of them positive)."""

    labels: np.ndarray       # [N] gt index, NEGATIVE or IGNORED
    cls_targets: np.ndarray  # [K,N] one-hot
    reg_idx: np.ndarray      # [Np] anchor index of each positive
    reg_targets: np.ndarray  # [4,Np] encoded deltas
    n_pos: int
    n_neg: int


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
                           reg_targets=encode_deltas(anchors[pos], gt_boxes[labels[pos]]),
                           n_pos=len(pos), n_neg=int((labels == NEGATIVE).sum()))


class DetectorModel:
    """Wires backbone, pyramid, enhancement modules, and head over one ParamStore."""

    def __init__(self, cfg: DetectorConfig, seed: int = 0, saved: dict | None = None):
        """``saved`` maps parameter names to arrays to take in place of the
        seeded initialization; see ``ParamStore``."""
        self.cfg = cfg
        self.store = store = ParamStore(seed=seed, saved=saved)
        build_backbone_params(store, cfg.backbone)
        build_fpn_params(store, cfg.backbone)
        c = cfg.backbone.pyramid_channels
        build_cem_params(store, c, c)
        build_fbsm_params(store, c, c, gate_width=cfg.gate_width)
        build_head_params(store, c, cfg.num_classes, cfg.head_channels)

    def save(self, directory: str):
        """Checkpoint the parameters together with the config that built them."""
        self.store.save(directory, asdict(self.cfg))

    @classmethod
    def load(cls, directory: str) -> "DetectorModel":
        """Rebuild the model a checkpoint's config describes over its
        parameters; names and shapes must match the config's exactly."""
        seed, arrays, config = ParamStore.load(directory)
        where = f"checkpoint {directory}"
        cfg = from_dict(DetectorConfig, config, f"{where}: config")
        try:
            model = cls(cfg, seed=seed, saved=arrays)
        except ValueError as e:
            raise ValueError(f"{where}: parameters do not fit its config: {e}") from e
        if arrays:
            raise ValueError(f"{where}: parameters do not fit its config: "
                             f"{', '.join(sorted(arrays))} not in it")
        return model

    def pyramid(self, image: Tensor) -> dict[str, Tensor]:
        feats = backbone_forward(image, self.store, self.cfg.backbone)
        pyr = build_fpn(feats, self.store, self.cfg.backbone)
        return efpn_bs_forward(pyr, self.store, levels=self.cfg.enhance_levels)

    def forward(self, image: Tensor):
        """(class logits [K,N], box deltas [4,N]), see ``head_forward``."""
        return head_forward(self.pyramid(image), self.store, self.cfg.levels)

    # -- loss ---------------------------------------------------------------

    def loss(self, outputs, assignment: ImageAssignment,
             dc_params: DCLossParams | None = None):
        """Scalar total loss plus float (cls, reg) components for the curves.
        Regression uses smooth L1, or the adaptive loss when ``dc_params`` is
        given."""
        cls_out, reg_out = outputs
        k = self.cfg.num_classes
        lab = assignment.labels
        w = np.zeros(len(lab))
        w[lab >= 0] = 0.5 / (max(assignment.n_pos, 1) * k)
        w[lab == NEGATIVE] = 0.5 / (max(assignment.n_neg, 1) * k)
        cls_loss = weighted_bce_with_logits(cls_out, assignment.cls_targets, w)
        if not len(assignment.reg_idx):
            return cls_loss, float(cls_loss.data), 0.0
        pred = gather_columns(reg_out, assignment.reg_idx)
        if dc_params is None:
            reg = smooth_l1_term(pred, assignment.reg_targets, beta=1.0)
        else:
            reg = dcloss_term(pred, assignment.reg_targets, dc_params)
        return add(cls_loss, reg), float(cls_loss.data), float(reg.data)

    # -- inference ----------------------------------------------------------

    def predict(self, image: Tensor) -> list[Detection]:
        """Every anchor x class scoring at least ``score_floor`` with a box wider
        and taller than 1e-3, after class-wise NMS: at most ``max_detections``,
        ranked by (-score, class, anchor).  Raises FloatingPointError when the
        head's outputs are not finite, as a diverged model's are."""
        cfg = self.cfg
        h, w = image.data.shape[1:]
        cls_out, reg_out = self.forward(image)
        if not (np.isfinite(cls_out.data).all() and np.isfinite(reg_out.data).all()):
            raise FloatingPointError("non-finite class logits or box deltas: "
                                     "the model has diverged")
        anchors, _ = pyramid_anchors((h, w), cfg.base_anchor, cfg.levels)
        scores = sigmoid_array(cls_out.data.astype(np.float64))
        boxes = decode_deltas(anchors, reg_out.data.astype(np.float64), image_hw=(h, w))
        sized = (boxes[:, 2] - boxes[:, 0] > 1e-3) & (boxes[:, 3] - boxes[:, 1] > 1e-3)
        cls, idx = np.nonzero((scores >= cfg.score_floor) & sized)  # class-major
        kept = nms(boxes[idx], scores[cls, idx], cls, cfg.nms_iou, cfg.max_detections)
        return [Detection(Box(*boxes[i]), int(c), float(scores[c, i]))
                for c, i in zip(cls[kept], idx[kept])]
