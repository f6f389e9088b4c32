import hashlib
import json
import os
import shutil
import tempfile
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jsonfuzz import edited

from tinydet.anchors import Box
from tinydet.scenes import (
    _scene_rng,
    Scene,
    SceneSpec,
    class_color,
    generate_scene,
    read_dataset,
    write_dataset,
)
from tinydet.tensor import read_tensor_file, write_tensor_file

SPEC = SceneSpec(seed=42)


def test_spec_validation():
    SceneSpec(side_max=32.0)  # side_max alone bounds the sides
    with pytest.raises(ValueError):
        SceneSpec(side_min=0.0)
    with pytest.raises(ValueError):
        SceneSpec(objects_min=3, objects_max=1)
    with pytest.raises(ValueError):
        SceneSpec(num_classes=0)
    bad = [({"noise_sigma": -0.01}, "noise_sigma"), ({"noise_sigma": float("nan")}, "noise_sigma"),
           ({"noise_sigma": float("inf")}, "noise_sigma"), ({"contrast": float("nan")}, "contrast"),
           ({"contrast": float("-inf")}, "contrast"), ({"side_scale": -1.0}, "side_scale"),
           ({"side_scale": float("inf")}, "side_scale"), ({"height": 0}, "height"),
           ({"width": -4}, "width"), ({"height": 12}, "height 12 is below side_max"),
           ({"width": 15, "side_max": 15.5}, "width 15 is below side_max")]
    for fields, match in bad:
        with pytest.raises(ValueError, match=match):
            SceneSpec(**fields)
    for fields, match in [({"seed": -1}, r"seed must lie in \[0, 2\*\*64\), got -1"),
                          ({"seed": 2**64}, r"seed must lie in \[0, 2\*\*64\)"),
                          ({"objects_min": 0, "objects_max": 0, "side_max": float("inf")},
                           "side_max inf"),
                          ({"side_max": float("nan")}, "side_max nan")]:
        with pytest.raises(ValueError, match=match):
            SceneSpec(**fields)
    SceneSpec(height=1, width=1, objects_min=0, objects_max=0)  # nothing to place
    SceneSpec(noise_sigma=0.0, side_scale=0.0, contrast=-0.5)


# SHA-256 over the image bytes of scenes 0-7: the generator's output is pinned
SCENE_SHA256 = {
    (128, 0): "88bddf1be936426caaa3fc8f83e5b7a6c26f5b6c02b92f0bba5bebe4a35a9598",
    (128, 1009): "f5f146f87aa6718aeea4ff1203f2ae3728fa0fd7f9641cc7747610a4f3efb5f1",
    (256, 0): "da903085b22b786f926ed0498db53c4808dd37d5de6dad671dc4ffae772f930c",
    (256, 1009): "66feebee1749e9b2a1b33fd6916cc2922fe6baacbfd3a9199147568fed758fdf",
}


@pytest.mark.parametrize("side, seed", sorted(SCENE_SHA256))
def test_scene_bytes_are_pinned(side, seed):
    area = (side // 128) ** 2  # the object density of 128x128
    spec = SceneSpec(height=side, width=side, objects_min=area, objects_max=5 * area, seed=seed)
    digest = hashlib.sha256()
    for i in range(8):
        digest.update(generate_scene(spec, i).image.tobytes())
    assert digest.hexdigest() == SCENE_SHA256[side, seed]


def test_scene_image_contract():
    scene = generate_scene(SPEC, 0)
    assert scene.image.shape == (3, 128, 128)
    assert scene.image.dtype == np.float32
    assert scene.image.min() >= 0.0 and scene.image.max() <= 1.0
    assert scene.image.flags.c_contiguous  # not the [H,W,3] working image's strides


def test_scene_object_count_and_bounds():
    for i in range(30):
        scene = generate_scene(SPEC, i)
        assert SPEC.objects_min <= len(scene.gts) <= SPEC.objects_max
        for box, cls in scene.gts:
            assert 0 <= box.x1 < box.x2 <= SPEC.width
            assert 0 <= box.y1 < box.y2 <= SPEC.height
            assert box.x2 - box.x1 <= SPEC.side_max
            assert box.y2 - box.y1 <= SPEC.side_max
            assert box.x2 - box.x1 >= SPEC.side_min
            assert box.y2 - box.y1 >= SPEC.side_min
            assert 0 <= cls < SPEC.num_classes


def test_scene_objects_do_not_overlap():
    for i in range(30):
        gts = generate_scene(SPEC, i).gts
        for a in range(len(gts)):
            for b in range(a + 1, len(gts)):
                ba, bb = gts[a][0], gts[b][0]
                x_gap = ba.x1 >= bb.x2 or bb.x1 >= ba.x2
                y_gap = ba.y1 >= bb.y2 or bb.y1 >= ba.y2
                assert x_gap or y_gap


def test_scene_bitwise_determinism_and_independence():
    a = generate_scene(SPEC, 7)
    b = generate_scene(SPEC, 7)
    assert a.image.tobytes() == b.image.tobytes()
    assert a.gts == b.gts
    # order independence: scene 7 does not depend on having generated 0..6
    c = generate_scene(SceneSpec(seed=42), 7)
    assert c.image.tobytes() == a.image.tobytes()
    # different seed or index changes the scene
    assert generate_scene(SceneSpec(seed=43), 7).image.tobytes() != a.image.tobytes()
    assert generate_scene(SPEC, 8).image.tobytes() != a.image.tobytes()


def test_every_64_bit_seed_keys_its_own_stream():
    # seeds at or above 2**63 once reached the Philox key through float64, so
    # 2**63 and 2**63 + 1 drew the same scenes
    scenes = [generate_scene(SceneSpec(seed=s), 0).image.tobytes()
              for s in (2**63, 2**63 + 1, 2**64 - 1)]
    assert len(set(scenes)) == 3
    # below 2**63 the stream is the one a list key gives, as before
    for seed in (0, 1, 1009, 2**62, 2**63 - 1):
        for index in (0, 5, 31):
            want = np.random.Generator(np.random.Philox(key=[seed, index])).random(8)
            np.testing.assert_array_equal(_scene_rng(seed, index).random(8), want)


def test_objects_are_brighter_than_background_locally():
    # object pixels should deviate strongly from the 0.4 background level
    scene = generate_scene(SPEC, 3)
    for box, cls in scene.gts:
        x1, y1, x2, y2 = (int(v) for v in (box.x1, box.y1, box.x2, box.y2))
        patch = scene.image[:, y1:y2, x1:x2]
        cx, cy = (x1 + x2) // 2, (y1 + y2) // 2
        center = scene.image[:, cy, cx]
        assert np.abs(center - 0.4).max() > 0.1


def test_class_colors_distinct():
    cols = [class_color(i) for i in range(3)]
    for i in range(3):
        assert cols[i].shape == (3,)
        assert np.all((cols[i] >= 0) & (cols[i] <= 1))
        for j in range(i + 1, 3):
            assert np.abs(cols[i] - cols[j]).max() > 0.2
    # stable across calls
    np.testing.assert_array_equal(class_color(1), class_color(1))


def test_noise_free_spec_is_piecewise_flat():
    spec = SceneSpec(seed=1, noise_sigma=0.0)
    for index in range(5):
        scene = generate_scene(spec, index)
        # no noise and a texture amplitude of 2 * noise_sigma = 0: every pixel
        # outside the ground-truth boxes is exactly the background level 0.4,
        # and each object adds at most one more value per channel
        outside = np.ones(scene.image.shape[1:], dtype=bool)
        for b, _ in scene.gts:
            outside[int(b.y1):int(b.y2), int(b.x1):int(b.x2)] = False
        assert (scene.image[:, outside] == np.float32(0.4)).all()
        for channel in scene.image:
            assert len(np.unique(channel)) <= 1 + len(scene.gts)


def test_dataset_roundtrip(tmp_path):
    spec = SceneSpec(seed=5)
    manifest = write_dataset(spec, 4, str(tmp_path))
    assert manifest.count == 4
    assert manifest.spec["seed"] == 5
    scenes, loaded_manifest = read_dataset(str(tmp_path))
    assert loaded_manifest == manifest
    assert asdict(loaded_manifest) == json.load(open(tmp_path / "manifest.json"))
    # image i is images/{i:05d}.efbt, and annotations.json holds the boxes alone
    assert sorted(os.listdir(tmp_path / "images")) == [f"{i:05d}.efbt" for i in range(4)]
    assert list(json.load(open(tmp_path / "annotations.json"))) == ["annotations"]
    assert len(scenes) == 4
    for i, scene in enumerate(scenes):
        fresh = generate_scene(spec, i)
        assert scene.image.tobytes() == fresh.image.tobytes()
        assert [(b.as_array().tolist(), c) for b, c in scene.gts] == \
            [(b.as_array().tolist(), c) for b, c in fresh.gts]
    # no reader takes the manifest's spec, so one that holds a former field still loads
    spec_v0 = {**manifest.spec, "tiny_only": True}
    (tmp_path / "manifest.json").write_text(json.dumps({**asdict(manifest), "spec": spec_v0}))
    assert len(read_dataset(str(tmp_path))[0]) == 4


# SHA-256 of the two JSON files of write_dataset(SceneSpec(seed=3), 2, ...): the
# dataset format is pinned, so that changing it is a deliberate act
DATASET_JSON_SHA256 = {
    "manifest.json": "e9dd97a7e417c02128750f1cf488bb62ba6d02802c3c32b2e6db960900e89492",
    "annotations.json": "508af9ceaacabc32a32ad6e3067485433cd07f593db1588319fed06767ed6a12",
}


def test_dataset_json_bytes_are_pinned(tmp_path):
    write_dataset(SceneSpec(seed=3), 2, str(tmp_path))
    for name, expected in DATASET_JSON_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == expected, name


def test_read_dataset_diagnostics(tmp_path):
    with pytest.raises(ValueError, match="manifest.json"):
        read_dataset(str(tmp_path))
    write_dataset(SceneSpec(seed=1), 1, str(tmp_path))
    ann = tmp_path / "annotations.json"
    payload = json.load(open(ann))
    payload["annotations"][0]["image_id"] = 99
    ann.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=r"annotations\[0\]: image_id 99 outside \[0, 1\)"):
        read_dataset(str(tmp_path))


@pytest.mark.parametrize("edit, match", [
    ({"count": 7}, r"images/00002\.efbt: No such file"),
    ({"count": 1}, r"annotations\.json: annotations\[\d+\]: image_id 1 outside \[0, 1\)"),
    ({"format": "tinydet-dataset-v1"},
     r"manifest\.json: format must be 'tinydet-dataset-v2', got 'tinydet-dataset-v1'"),
    ({"count": "2"}, r"manifest\.json: count: expected int, got '2'"),
    ({"seed": 3}, r"manifest\.json: top level: unknown key 'seed'"),
    ({"count": -1}, r"manifest\.json: top level: count must be >= 0, got -1"),
])
def test_read_dataset_checks_the_manifest(tmp_path, edit, match):
    write_dataset(SceneSpec(seed=1), 2, str(tmp_path))
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), **edit}))
    with pytest.raises(ValueError, match=match):
        read_dataset(str(tmp_path))


def test_read_dataset_rejects_bad_image_files(tmp_path):
    write_dataset(SceneSpec(seed=1), 2, str(tmp_path))
    image = str(tmp_path / "images" / "00001.efbt")
    shape = r"expected a \[3, H, W\] image, got shape "
    for array, match in [(np.zeros((3, 128)), shape + r"\[3, 128\]"),
                         (np.zeros((1, 128, 128)), shape + r"\[1, 128, 128\]"),
                         (np.full((3, 128, 128), np.inf), "the image holds a non-finite value"),
                         (np.zeros((3, 0, 0)), r"the image has a zero side, got shape \[3, 0, 0\]"),
                         (np.zeros((3, 128, 0)), r"the image has a zero side")]:
        write_tensor_file(image, array)
        with pytest.raises(ValueError, match=r"images/00001\.efbt: " + match):
            read_dataset(str(tmp_path))


def _good_annotations():
    return {"annotations": [{"image_id": 0, "bbox": [0, 0, 4, 4], "category": 1}]}


def _with(path, value):
    payload = _good_annotations()
    target = payload
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return payload


def _read_annotations(directory, payload):
    # a dataset directory holding one 128x128 image and ``payload`` as annotations.json
    os.makedirs(directory / "images", exist_ok=True)
    write_tensor_file(str(directory / "images" / "00000.efbt"), np.zeros((3, 128, 128)))
    (directory / "manifest.json").write_text('{"format": "tinydet-dataset-v2", "count": 1}')
    (directory / "annotations.json").write_text(json.dumps(payload))
    return read_dataset(str(directory))[0]


def test_validate_annotations_diagnostics(tmp_path):
    [scene] = _read_annotations(tmp_path, _good_annotations())
    assert scene.gts == [(Box(0, 0, 4, 4), 1)]
    # a category past the detector's class count is the detector's to reject
    [scene] = _read_annotations(tmp_path, _with(["annotations", 0, "category"], 7))
    assert scene.gts == [(Box(0, 0, 4, 4), 7)]
    # a box may reach the image's edges
    [scene] = _read_annotations(tmp_path, _with(["annotations", 0, "bbox"], [0, 0, 128, 128]))
    assert scene.gts == [(Box(0, 0, 128, 128), 1)]
    payload = _good_annotations()
    del payload["annotations"][0]["bbox"]
    with pytest.raises(ValueError, match=r"annotations\[0\]: missing key 'bbox'"):
        _read_annotations(tmp_path, payload)


def _case(number, payload, match, name=None):
    # a case keeps its test id when cases before it are deleted
    return pytest.param(payload, match, id=f"payload{number}-{name or match}")


BAD_ANNOTATIONS = [
    ([], r"annotations\.json: top level: expected an object, got \[\]"),
    ({}, "top level: missing key 'annotations'"),
    _case(8, _with(["annotations", 0, "bbox"], 5), r"annotations\[0\]\.bbox: expected an array",
          name=r"annotations\[0\]\.bbox must be an array"),
    _case(9, _with(["annotations", 0, "bbox"], [0, 0, "a", 4]),
          r"annotations\[0\]\.bbox\[2\]: expected float, got 'a'"),
    _case(10, _with(["annotations", 0, "bbox"], [0, 0, True, 4]),
          r"annotations\[0\]\.bbox\[2\]: expected float, got True"),
    _case(11, _with(["annotations", 0, "bbox"], [0, 0, 4]),
          r"annotations\[0\]: bbox must have 4 entries, got 3"),
    _case(12, _with(["annotations", 0, "bbox"], [0, 0, 4, 4, 4]),
          "bbox must have 4 entries, got 5"),
    _case(13, _with(["annotations", 0, "category"], -1), r"category must be >= 0, got -1"),
    _case(14, _with(["annotations", 0, "category"], True),
          r"annotations\[0\]\.category: expected int, got True"),
    _case(15, _with(["annotations", 0, "image_id"], 1.5),
          r"annotations\[0\]\.image_id: expected int, got 1\.5"),
    _case(18, _with(["annotations", 0, "bbox"], [0, 0, 10 ** 400, 4]),
          r"annotations\[0\]\.bbox\[2\]: the integer does not fit a float64"),
    _case(19, _with(["annotations", 0, "bbox"], [0, 0, float("nan"), 4]),
          r"annotations\[0\]: bbox is not finite"),
    _case(20, _with(["annotations", 0, "bbox"], [4, 0, 0, 4]),
          r"annotations\[0\]\.bbox: degenerate box"),
    _case(21, _with(["annotations", 0, "image_id"], 1),
          r"annotations\[0\]: image_id 1 outside \[0, 1\)",
          name=r"annotations\[0\] references unknown image 1"),
    _case(22, _with(["annotations", 0, "image_id"], -1),
          r"annotations\[0\]: image_id -1 outside \[0, 1\)"),
    # rejected since the records are read like a config: an integral float
    # for an integer, and an unknown key such as the images list of v1
    _case(23, _with(["annotations", 0, "image_id"], 0.0),
          r"annotations\[0\]\.image_id: expected int, got 0\.0"),
    _case(24, {**_good_annotations(), "images": []}, r"top level: unknown key 'images'"),
    # a box must lie inside its image, as a detection must
    *(_case(25 + i, _with(["annotations", 0, "bbox"], box),
            r"annotations\.json: annotations\[0\]\.bbox: \[.*\] lies outside the 128x128 "
            r"image images/00000\.efbt", name=f"box {box} outside the image")
      for i, box in enumerate([[200, 200, 210, 210], [-1, 0, 4, 4], [0, 0, 4, 128.5]])),
]


@pytest.mark.parametrize("payload, match", BAD_ANNOTATIONS)
def test_validate_annotations_enforces_the_schema(tmp_path, payload, match):
    with pytest.raises(ValueError, match=match):
        _read_annotations(tmp_path, payload)


@pytest.fixture(scope="module")
def fuzz_dataset(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("fuzz") / "data")
    write_dataset(SceneSpec(height=32, width=32, objects_max=2, seed=5), 2, path)
    return path


def _load_json(directory, name):
    with open(os.path.join(directory, name)) as f:
        return json.load(f)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_read_dataset_fuzz_loads_or_raises_value_error(fuzz_dataset, data):
    name = data.draw(st.sampled_from(["annotations.json", "manifest.json"]))
    doc = data.draw(edited(_load_json(fuzz_dataset, name)))
    with tempfile.TemporaryDirectory() as d:
        directory = shutil.copytree(fuzz_dataset, os.path.join(d, "data"))
        with open(os.path.join(directory, name), "w") as f:
            json.dump(doc, f)
        try:
            scenes, _ = read_dataset(directory)
        except ValueError:
            return
    # what loads is the manifest's count of image files, each in the shape of its
    # header, and every box of annotations.json, inside its image
    manifest = doc if name == "manifest.json" else _load_json(fuzz_dataset, "manifest.json")
    records = doc if name == "annotations.json" else _load_json(fuzz_dataset, "annotations.json")
    assert [s.image.shape for s in scenes] == \
        [read_tensor_file(os.path.join(fuzz_dataset, "images", f"{i:05d}.efbt")).shape
         for i in range(manifest["count"])]
    assert sum(len(s.gts) for s in scenes) == len(records["annotations"])
    for scene in scenes:
        _, h, w = scene.image.shape
        assert all(0 <= b.x1 and 0 <= b.y1 and b.x2 <= w and b.y2 <= h for b, _ in scene.gts)
