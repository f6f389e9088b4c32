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

from .anchors import IGNORED, Box, assign_maxiou, pyramid_anchors
from .balanced_loss import DCLossParams, dcloss_term, smooth_l1_term
from .config import from_dict
from .context import CemParams
from .evaluation import Detection, nms
from .gating import FbsmParams
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
    gather_hw,
    relu,
    reshape,
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
    enhance: bool = True
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


def build_head_params(store: ParamStore, channels: int, num_classes: int,
                      trunk_channels: int | None = None):
    c = trunk_channels if trunk_channels is not None else channels
    store.register_conv("head.trunk", c, channels, 3)
    store.register_conv("head.cls", num_classes, c, 1)
    store.register_conv("head.reg", 4, c, 1)


def head_forward(pyr: dict[str, Tensor], store: ParamStore, levels):
    """Per-level (class logits [K,H,W], box deltas [4,H,W])."""
    out = {}
    for name in levels:
        f = pyr[name]
        trunk = relu(conv2d(f, store["head.trunk.w"], store["head.trunk.b"]))
        cls = conv2d(trunk, store["head.cls.w"], store["head.cls.b"])
        reg = conv2d(trunk, store["head.reg.w"], store["head.reg.b"])
        out[name] = (cls, reg)
    return out


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
    """Precomputed anchor labels and regression targets for one image."""

    anchors: dict          # level -> [Ni,4]
    labels: dict           # level -> [Ni] (gt index, NEGATIVE, IGNORED)
    reg_idx: dict          # level -> flat positions of positives
    reg_targets: dict      # level -> [4,Np] encoded deltas
    cls_targets: dict      # level -> [K,Ni] one-hot
    n_pos: int
    n_neg: int


def assign_image(gts, image_hw, cfg: DetectorConfig) -> ImageAssignment:
    """Run max-IoU assignment jointly over all configured levels."""
    anchors, slices = pyramid_anchors(image_hw, cfg.base_anchor, cfg.levels)
    gt_boxes = np.array([b.as_array() for b, _ in gts]) if gts else np.zeros((0, 4))
    gt_classes = np.array([c for _, c in gts], dtype=np.int64)
    labels_all = assign_maxiou(anchors, gt_boxes, cfg.pos_thr, cfg.neg_thr)
    per_level, labels, reg_idx, reg_targets, cls_targets = {}, {}, {}, {}, {}
    n_pos = n_neg = 0
    for name, sl in slices.items():
        a = anchors[sl]
        lab = labels_all[sl]
        per_level[name] = a
        labels[name] = lab
        pos = np.nonzero(lab >= 0)[0]
        reg_idx[name] = pos
        if len(pos):
            reg_targets[name] = encode_deltas(a[pos], gt_boxes[lab[pos]])
        else:
            reg_targets[name] = np.zeros((4, 0))
        tgt = np.zeros((cfg.num_classes, len(a)), dtype=np.float64)
        if len(pos):
            tgt[gt_classes[lab[pos]], pos] = 1.0
        cls_targets[name] = tgt
        n_pos += len(pos)
        n_neg += int((lab == -1).sum())
    return ImageAssignment(anchors=per_level, labels=labels, reg_idx=reg_idx,
                           reg_targets=reg_targets, cls_targets=cls_targets,
                           n_pos=n_pos, n_neg=n_neg)


class DetectorModel:
    """Wires backbone, pyramid, enhancement modules, and head over one ParamStore."""

    def __init__(self, cfg: DetectorConfig, seed: int = 0):
        self.cfg = cfg
        self.store = store = ParamStore(seed=seed)
        build_backbone_params(store, cfg.backbone)
        build_fpn_params(store, cfg.backbone)
        c = cfg.backbone.pyramid_channels
        self.cem = CemParams.create(store, c, c)
        self.fbsm = FbsmParams.create(store, c, c, gate_width=cfg.gate_width)
        build_head_params(store, c, cfg.num_classes, cfg.head_channels)

    def save(self, directory: str):
        """Checkpoint the parameters together with the config that built them."""
        self.store.save(directory, asdict(self.cfg))

    @classmethod
    def load(cls, directory: str) -> "DetectorModel":
        """Rebuild the model a checkpoint's config describes and copy its
        parameters in; names and shapes must match the fresh model's exactly."""
        saved, config = ParamStore.load(directory)
        model = cls(from_dict(DetectorConfig, config, f"checkpoint {directory}: config"),
                    seed=saved.seed)
        want = {n: t.data.shape for n, t in model.store.items()}
        got = {n: t.data.shape for n, t in saved.items()}
        if got != want:
            bad = sorted(n for n in want.keys() | got.keys() if want.get(n) != got.get(n))
            raise ValueError(f"checkpoint {directory}: parameters do not fit its config: "
                             f"{', '.join(bad)}")
        for name, t in model.store.items():
            t.data[...] = saved[name].data
        return model

    def pyramid(self, image: Tensor) -> dict[str, Tensor]:
        feats = backbone_forward(image, self.store, self.cfg.backbone)
        pyr = build_fpn(feats, self.store, self.cfg.backbone)
        return efpn_bs_forward(pyr, self.cem, self.fbsm, enabled=self.cfg.enhance,
                               levels=self.cfg.enhance_levels)

    def forward(self, image: Tensor):
        return head_forward(self.pyramid(image), self.store, self.cfg.levels)

    # -- loss ---------------------------------------------------------------

    def loss(self, outputs, assignment: ImageAssignment,
             reg_loss: str = "smooth_l1", dc_params: DCLossParams | None = None):
        """Scalar total loss plus float (cls, reg) components for the curves."""
        cfg = self.cfg
        k = cfg.num_classes
        n_pos = max(assignment.n_pos, 1)
        n_neg = max(assignment.n_neg, 1)
        cls_terms = []
        preds, targets = [], []
        for name in cfg.levels:
            cls_map, reg_map = outputs[name]
            ni = cls_map.data.shape[1] * cls_map.data.shape[2]
            logits = reshape(cls_map, (k, ni))
            lab = assignment.labels[name]
            w = np.zeros((k, ni))
            w[:, lab >= 0] = 0.5 / (n_pos * k)
            w[:, lab == -1] = 0.5 / (n_neg * k)
            w[:, lab == IGNORED] = 0.0
            cls_terms.append(weighted_bce_with_logits(logits, assignment.cls_targets[name], w))
            pos = assignment.reg_idx[name]
            if len(pos):
                preds.append(gather_hw(reg_map, pos))
                targets.append(assignment.reg_targets[name])
        cls_loss = cls_terms[0]
        for t in cls_terms[1:]:
            cls_loss = add(cls_loss, t)
        if preds:
            pred = concat_columns(preds) if len(preds) > 1 else preds[0]
            tgt = np.concatenate(targets, axis=1)
            if reg_loss == "smooth_l1":
                reg = smooth_l1_term(pred, tgt, beta=1.0)
            elif reg_loss in ("dcloss", "dcloss_swapped"):
                if dc_params is None:
                    dc_params = DCLossParams(swap_weights=reg_loss == "dcloss_swapped")
                reg = dcloss_term(pred, tgt, dc_params)
            else:
                raise ValueError(f"unknown regression loss {reg_loss!r}")
            total = add(cls_loss, reg)
            reg_val = float(reg.data)
        else:
            total = cls_loss
            reg_val = 0.0
        return total, float(cls_loss.data), reg_val

    # -- inference ----------------------------------------------------------

    def predict(self, image: Tensor) -> list[Detection]:
        cfg = self.cfg
        h, w = image.data.shape[1:]
        outputs = self.forward(image)
        anchors, slices = pyramid_anchors((h, w), cfg.base_anchor, cfg.levels)
        detections = []
        for name in cfg.levels:
            cls_map, reg_map = outputs[name]
            kh = cls_map.data.shape[0]
            z = cls_map.data.reshape(kh, -1).astype(np.float64)
            scores = 1.0 / (1.0 + np.exp(-z))
            deltas = reg_map.data.reshape(4, -1).astype(np.float64)
            boxes = decode_deltas(anchors[slices[name]], deltas, image_hw=(h, w))
            for cls in range(kh):
                keep = np.nonzero(scores[cls] >= cfg.score_floor)[0]
                for i in keep:
                    b = boxes[i]
                    if b[2] - b[0] <= 1e-3 or b[3] - b[1] <= 1e-3:
                        continue
                    detections.append(Detection(Box(*b), cls, float(scores[cls, i])))
        kept = nms(detections, cfg.nms_iou)
        kept.sort(key=lambda d: -d.score)
        return kept[: cfg.max_detections]
