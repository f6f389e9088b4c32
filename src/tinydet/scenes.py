"""Deterministic synthetic tiny-object scenes.

Each scene is an RGB image in [0,1] with a handful of small filled rectangles
or discs on a lightly textured background plus Gaussian noise.  Object colors
carry a per-class signature so classification is learnable; object sides are
drawn from a clipped exponential, which mirrors the heavy small-end skew of
tiny-object data.  Generation uses a counter-based (Philox) stream keyed by
(seed, scene index), so scenes are reproducible independently of generation
order or parallelism.
"""

from __future__ import annotations

import colorsys
import json
import math
import os
from dataclasses import asdict, dataclass, field
from typing import Literal

import numpy as np

from .anchors import Box
from .config import read_json
from .tensor import read_tensor_file, write_tensor_file

__all__ = [
    "SceneSpec",
    "Scene",
    "AnnotationRecord",
    "Annotations",
    "DatasetManifest",
    "class_color",
    "generate_scene",
    "write_dataset",
    "read_dataset",
]


@dataclass
class SceneSpec:
    """Knobs of the generator; fully determines a dataset together with a seed."""

    height: int = 128
    width: int = 128
    objects_min: int = 1
    objects_max: int = 5
    side_min: float = 6.0
    side_max: float = 16.0
    side_scale: float = 3.0  # exponential decay scale of sides above side_min
    num_classes: int = 3
    contrast: float = 0.9
    noise_sigma: float = 0.02
    seed: int = 0

    def __post_init__(self):
        if not (0 <= self.seed < 2**64):  # the Philox key is 64-bit
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")
        if not (0 < self.side_min <= self.side_max < math.inf):
            raise ValueError(f"need 0 < side_min <= side_max < inf, got side_min "
                             f"{self.side_min}, side_max {self.side_max}")
        if self.objects_min < 0 or self.objects_max < self.objects_min:
            raise ValueError("need 0 <= objects_min <= objects_max")
        if self.num_classes < 1:
            raise ValueError("need at least one object class")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if not math.isfinite(self.contrast):
            raise ValueError(f"contrast must be finite, got {self.contrast}")
        if not (math.isfinite(self.side_scale) and self.side_scale >= 0):
            raise ValueError(f"side_scale must be finite and >= 0, got {self.side_scale}")
        for name in ("height", "width"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
            if self.objects_max > 0 and value < self.side_max:
                raise ValueError(f"{name} {value} is below side_max {self.side_max}, "
                                 f"so no object fits")


@dataclass
class Scene:
    image: np.ndarray              # [3,H,W] float32 in [0,1]
    gts: list = field(default_factory=list)  # [(Box, class_id)]


_BG_LEVEL = 0.4
_NOISE_BLOCK = 2 ** 13  # generate_scene: noise values drawn per block, at most


def class_color(class_id: int) -> np.ndarray:
    """Stable per-class RGB signature from a golden-angle hue walk."""
    hue = (0.13 + class_id * 0.61803398875) % 1.0
    return np.array(colorsys.hsv_to_rgb(hue, 0.85, 0.9), dtype=np.float64)


def _scene_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def _smooth_texture(rng, h, w, amplitude):
    coarse = rng.uniform(-1.0, 1.0, size=(h // 16 + 2, w // 16 + 2))
    ys = np.linspace(0, coarse.shape[0] - 1.001, h)
    xs = np.linspace(0, coarse.shape[1] - 1.001, w)
    y0 = ys.astype(int)
    x0 = xs.astype(int)
    wy = (ys - y0)[:, None]
    wx = (xs - x0)[None, :]
    tex = (coarse[y0[:, None], x0[None, :]] * (1 - wy) * (1 - wx)
           + coarse[y0[:, None], x0[None, :] + 1] * (1 - wy) * wx
           + coarse[y0[:, None] + 1, x0[None, :]] * wy * (1 - wx)
           + coarse[y0[:, None] + 1, x0[None, :] + 1] * wy * wx)
    return amplitude * tex


def _sample_side(rng, spec: SceneSpec) -> int:
    s = spec.side_min + rng.exponential(spec.side_scale)
    s = min(s, spec.side_max)
    return max(int(round(s)), int(np.ceil(spec.side_min)))


def generate_scene(spec: SceneSpec, index: int = 0) -> Scene:
    """Render one scene; fully determined by (spec, index).

    It keeps one float64 [H,W,3] working image and no other array of its
    size: the noise is added to it a block of rows at a time, it is clipped
    in place, and it is cast to the float32 [3,H,W] result once."""
    rng = _scene_rng(spec.seed, index)
    h, w = spec.height, spec.width
    img = np.full((h, w, 3), _BG_LEVEL, dtype=np.float64)
    img += _smooth_texture(rng, h, w, 2.0 * spec.noise_sigma)[..., None]

    n_objects = int(rng.integers(spec.objects_min, spec.objects_max + 1))
    boxes: list[tuple[Box, int]] = []
    for _ in range(n_objects):
        placed = False
        for _attempt in range(100):
            sw = _sample_side(rng, spec)
            sh = _sample_side(rng, spec)
            cls = int(rng.integers(spec.num_classes))
            shape = int(rng.integers(2))  # 0 = rectangle, 1 = disc
            x1 = int(rng.integers(0, w - sw + 1))
            y1 = int(rng.integers(0, h - sh + 1))
            cand = Box(float(x1), float(y1), float(x1 + sw), float(y1 + sh))
            if any(cand.x1 < b.x2 + 1 and b.x1 < cand.x2 + 1
                   and cand.y1 < b.y2 + 1 and b.y1 < cand.y2 + 1 for b, _ in boxes):
                continue
            color = _BG_LEVEL + spec.contrast * (class_color(cls) - _BG_LEVEL)
            if shape == 0:
                img[y1:y1 + sh, x1:x1 + sw] = color
            else:
                yy, xx = np.mgrid[y1:y1 + sh, x1:x1 + sw]
                cy, cx = y1 + (sh - 1) / 2.0, x1 + (sw - 1) / 2.0
                ry, rx = max(sh / 2.0, 0.75), max(sw / 2.0, 0.75)
                mask = (((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2) <= 1.0
                img[y1:y1 + sh, x1:x1 + sw][mask] = color
            boxes.append((cand, cls))
            placed = True
            break
        if not placed:
            raise ValueError(
                f"scene {index}: could not place {n_objects} non-overlapping objects "
                f"in {w}x{h} after bounded retries"
            )
    if spec.noise_sigma > 0:
        # rng.normal(0, sigma) is 0.0 + sigma * z over this stream of z: the
        # same values, drawn a block of rows at a time
        rows = max(1, _NOISE_BLOCK // (3 * w))
        block = np.empty((rows, w, 3))
        for top in range(0, h, rows):
            z = block[: min(rows, h - top)]
            rng.standard_normal(out=z)
            z *= spec.noise_sigma
            img[top : top + len(z)] += z
    np.clip(img, 0.0, 1.0, out=img)
    return Scene(image=img.transpose(2, 0, 1).astype(np.float32, order="C"), gts=boxes)


# ---------------------------------------------------------------------------
# dataset directory layout: manifest.json holds the image count, image i is
# images/{i:05d}.efbt with its shape in that file's EFBT header, and
# annotations.json lists every box with the index of its image


@dataclass
class AnnotationRecord:
    """One ground-truth box ``(x1, y1, x2, y2)`` of image ``image_id``."""

    image_id: int
    bbox: tuple[float, ...]
    category: int

    def __post_init__(self):
        if len(self.bbox) != 4:
            raise ValueError(f"bbox must have 4 entries, got {len(self.bbox)}")
        if not all(math.isfinite(v) for v in self.bbox):
            raise ValueError(f"bbox is not finite: {list(self.bbox)}")
        if self.category < 0:
            raise ValueError(f"category must be >= 0, got {self.category}")


@dataclass
class Annotations:
    """The whole of ``annotations.json``."""

    annotations: tuple[AnnotationRecord, ...]


_DATASET_FORMAT = "tinydet-dataset-v2"
_IMAGE_FILE = "images/{:05d}.efbt"  # image i of a dataset directory


@dataclass
class DatasetManifest:
    """A dataset's ``manifest.json``: ``count`` images, generated from ``spec``
    (a ``SceneSpec`` as a dict; optional, and no reader takes it)."""

    format: Literal[_DATASET_FORMAT]
    count: int
    spec: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.count < 0:
            raise ValueError(f"count must be >= 0, got {self.count}")


def write_dataset(spec: SceneSpec, n: int, out_dir: str) -> DatasetManifest:
    """Generate and persist n scenes; returns the manifest."""
    if n < 0:
        raise ValueError(f"scene count must be >= 0, got {n}")
    os.makedirs(os.path.join(out_dir, "images"), exist_ok=True)
    annotations = []
    for i in range(n):
        scene = generate_scene(spec, i)
        write_tensor_file(os.path.join(out_dir, _IMAGE_FILE.format(i)), scene.image)
        annotations += [AnnotationRecord(i, (box.x1, box.y1, box.x2, box.y2), cls)
                        for box, cls in scene.gts]
    with open(os.path.join(out_dir, "annotations.json"), "w") as f:
        json.dump(asdict(Annotations(tuple(annotations))), f, indent=2, sort_keys=True)
    manifest = DatasetManifest(_DATASET_FORMAT, n, asdict(spec))
    with open(os.path.join(out_dir, "manifest.json"), "w") as f:
        json.dump(asdict(manifest), f, indent=2, sort_keys=True)
    return manifest


def read_dataset(directory: str):
    """Load a dataset directory back into (scenes, manifest): the manifest's
    ``count`` image files, each a finite [3, H, W] array, and annotations that
    each hold a non-degenerate box inside one of those images."""
    manifest = read_json(DatasetManifest, os.path.join(directory, "manifest.json"))
    ann_path = os.path.join(directory, "annotations.json")
    records = read_json(Annotations, ann_path)
    scenes = []
    for i in range(manifest.count):
        path = os.path.join(directory, _IMAGE_FILE.format(i))
        img = read_tensor_file(path)
        if img.ndim != 3 or img.shape[0] != 3:
            raise ValueError(f"{path}: expected a [3, H, W] image, got shape {list(img.shape)}")
        if not np.isfinite(img).all():
            raise ValueError(f"{path}: the image holds a non-finite value")
        scenes.append(Scene(image=img))
    for i, rec in enumerate(records.annotations):
        where = f"{ann_path}: annotations[{i}]"
        if not 0 <= rec.image_id < manifest.count:
            raise ValueError(f"{where}: image_id {rec.image_id} outside [0, {manifest.count})")
        try:
            box = Box(*rec.bbox)
        except ValueError as e:
            raise ValueError(f"{where}.bbox: {e}") from e
        scene = scenes[rec.image_id]
        _, h, w = scene.image.shape
        if box.x1 < 0 or box.y1 < 0 or box.x2 > w or box.y2 > h:
            raise ValueError(f"{where}.bbox: {list(rec.bbox)} lies outside the {w}x{h} "
                             f"image {_IMAGE_FILE.format(rec.image_id)}")
        scene.gts.append((box, rec.category))
    return scenes, manifest
