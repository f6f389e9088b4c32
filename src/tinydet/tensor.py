"""Dense-tensor autodiff core.

A small reverse-mode engine over numpy arrays: each operation returns a new
``Tensor`` carrying a backward closure, and ``Tensor.backward()`` on a scalar
replays the recorded tape in reverse topological order.  Storage defaults to
float32; reductions accumulate in float64 before casting back, and the whole
graph can be run in float64 (used by the finite-difference checks).

``add`` and ``mul`` follow numpy broadcasting: shapes align from the right,
and a length-1 or missing axis stretches to match the other operand; any
other mismatch raises numpy's ValueError.  A plain-number operand becomes a
0-d tensor of the other operand's dtype.  Backward sums each gradient over
the axes its operand was stretched along, in float64.

Also owns the parameter store (seeded, order-deterministic initialization)
and the "EFBT" binary tensor file format used for checkpoints and dataset
fixtures.
"""

from __future__ import annotations

import json
import math
import os
import struct
import sys

import numpy as np

__all__ = [
    "Tensor",
    "ParamStore",
    "conv2d",
    "relu",
    "sigmoid",
    "sigmoid_array",
    "add",
    "mul",
    "adaptive_max_pool_1x1",
    "max_pool_2x2",
    "bilinear_upsample",
    "reshape",
    "tensor_sum",
    "tensor_mean",
    "gather_columns",
    "concat_columns",
    "weighted_bce_with_logits",
    "path_inside",
    "write_tensor_file",
    "read_tensor_file",
]


class Tensor:
    """N-dimensional real array with an optional gradient buffer.

    ``data`` is a numpy array (float32 by default).  ``grad`` is allocated
    lazily on the first backward pass and always matches ``data``'s shape.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g.astype(self.data.dtype, copy=False)

    def backward(self):
        """Populate grad buffers of every reachable requires_grad tensor.

        Only valid on a scalar (0-d) tensor produced by this module's ops.
        """
        if self.data.shape != ():
            raise ValueError(
                f"backward() requires a scalar loss, got shape {self.data.shape}"
            )
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def _make(data, parents, backward_fn):
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Reduce ``g`` to ``shape`` by summing, in float64, over the axes that
    broadcasting added or stretched from length 1."""
    if g.shape == shape:
        return g
    lead = g.ndim - len(shape)
    axes = (*range(lead), *(lead + i for i, n in enumerate(shape) if n == 1))
    return g.sum(axis=axes, dtype=np.float64).reshape(shape)


def _operand(a: Tensor, b: Tensor | float) -> Tensor:
    return b if isinstance(b, Tensor) else Tensor(np.asarray(b, dtype=a.data.dtype))


# ---------------------------------------------------------------------------
# elementwise ops


def add(a: Tensor, b: Tensor | float) -> Tensor:
    """``a + b`` under numpy broadcasting; ``b`` may be a plain number."""
    b = _operand(a, b)

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return _make(a.data + b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor | float) -> Tensor:
    """``a * b`` under numpy broadcasting; ``b`` may be a plain number."""
    b = _operand(a, b)

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _make(a.data * b.data, (a, b), backward)


def relu(x: Tensor) -> Tensor:
    pos = x.data > 0

    def backward(g):
        x._accumulate(g * pos)

    return _make(np.where(pos, x.data, x.data.dtype.type(0)), (x,), backward)


def sigmoid_array(d: np.ndarray) -> np.ndarray:
    """Logistic of an array, in its dtype; piecewise so that no |d| overflows."""
    out = np.empty_like(d)
    p = d >= 0
    out[p] = 1.0 / (1.0 + np.exp(-d[p]))
    e = np.exp(d[~p])
    out[~p] = e / (1.0 + e)
    return out


def sigmoid(x: Tensor) -> Tensor:
    out = sigmoid_array(x.data)

    def backward(g):
        x._accumulate(g * out * (1.0 - out))

    return _make(out, (x,), backward)


# ---------------------------------------------------------------------------
# pooling / resampling


def adaptive_max_pool_1x1(x: Tensor) -> Tensor:
    """Collapse the spatial dimensions of a [C,H,W] map to a [C] vector of maxima.

    The gradient routes to the first argmax per channel in row-major order,
    so the backward pass is deterministic under ties.
    """
    if x.data.ndim != 3:
        raise ValueError(f"adaptive_max_pool_1x1 expects [C,H,W], got {x.data.shape}")
    c = x.data.shape[0]
    flat = x.data.reshape(c, -1)
    idx = flat.argmax(axis=1)  # first max in row-major order
    out = flat[np.arange(c), idx]

    def backward(g):
        gx = np.zeros_like(flat)
        gx[np.arange(c), idx] = g
        x._accumulate(gx.reshape(x.data.shape))

    return _make(out, (x,), backward)


def max_pool_2x2(x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2 over a [C,H,W] map (H, W even)."""
    if x.data.ndim != 3:
        raise ValueError(f"max_pool_2x2 expects [C,H,W], got {x.data.shape}")
    c, h, w = x.data.shape
    if h % 2 or w % 2:
        raise ValueError(f"max_pool_2x2 requires even spatial dims, got {h}x{w}")
    win = x.data.reshape(c, h // 2, 2, w // 2, 2).transpose(0, 1, 3, 2, 4)
    win = win.reshape(c, h // 2, w // 2, 4)
    idx = win.argmax(axis=-1)  # first max within each window
    out = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]

    def backward(g):
        gw = np.zeros_like(win)
        np.put_along_axis(gw, idx[..., None], g[..., None], axis=-1)
        gx = gw.reshape(c, h // 2, w // 2, 2, 2).transpose(0, 1, 3, 2, 4)
        x._accumulate(gx.reshape(c, h, w))

    return _make(out, (x,), backward)


def _interp_matrix(src: int, dst: int, dtype) -> np.ndarray:
    """[dst,src] half-pixel-center linear interpolation weights along one axis."""
    pos = np.clip((np.arange(dst, dtype=np.float64) + 0.5) * (src / dst) - 0.5,
                  0.0, src - 1.0)
    lo = np.floor(pos).astype(np.int64)
    w_hi = pos - lo
    rows = np.arange(dst)
    r = np.zeros((dst, src))
    r[rows, lo] = 1 - w_hi
    r[rows, np.minimum(lo + 1, src - 1)] += w_hi
    return r.astype(dtype)


def bilinear_upsample(x: Tensor, target) -> Tensor:
    """Resize a [C,h,w] map to [C,H,W] with half-pixel-center bilinear sampling.

    The resize is separable: ``Ry @ X @ Rx.T`` with one [dst,src]
    interpolation matrix per axis, and the backward pass is ``Ry.T @ G @ Rx``.
    Each matrix row is a convex combination (non-negative weights summing to
    one), so per-channel min/max never overshoot the source range.
    Downsampling is rejected.
    """
    if x.data.ndim != 3:
        raise ValueError(f"bilinear_upsample expects [C,h,w], got {x.data.shape}")
    th, tw = int(target[0]), int(target[1])
    c, h, w = x.data.shape
    if th < h or tw < w:
        raise ValueError(
            f"bilinear_upsample: target {th}x{tw} smaller than source {h}x{w}"
        )
    ry = _interp_matrix(h, th, x.data.dtype)
    rx = _interp_matrix(w, tw, x.data.dtype)

    def backward(g):
        x._accumulate(ry.T @ g @ rx)

    return _make(ry @ x.data @ rx.T, (x,), backward)


# ---------------------------------------------------------------------------
# convolution


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, stride: int = 1) -> Tensor:
    """2-D cross-correlation with bias over a single [C_in,H,W] image.

    Kernels are 1x1 or 3x3, padded so that stride-1 convolution preserves the
    spatial size; stride s > 1 yields ceil(H/s) x ceil(W/s) outputs.  The
    convolution is one GEMM of the weights with the im2col columns.
    """
    if x.data.ndim != 3:
        raise ValueError(f"conv2d expects input [C,H,W], got {x.data.shape}")
    if weight.data.ndim != 4:
        raise ValueError(f"conv2d expects weight [Co,Ci,kh,kw], got {weight.data.shape}")
    co, ci, kh, kw = weight.data.shape
    if kh not in (1, 3) or kw not in (1, 3):
        raise ValueError(f"conv2d supports 1x1/3x3 kernels, got {kh}x{kw}")
    if x.data.shape[0] != ci:
        raise ValueError(
            f"conv2d: input has {x.data.shape[0]} channels, weight expects {ci}"
        )
    if bias.data.shape != (co,):
        raise ValueError(f"conv2d: bias shape {bias.data.shape} != ({co},)")
    c, h, w = x.data.shape
    ph, pw = kh // 2, kw // 2
    oh = (h + 2 * ph - kh) // stride + 1
    ow = (w + 2 * pw - kw) // stride + 1
    padded_shape = (c, h + 2 * ph, w + 2 * pw)
    if ph or pw:
        padded = np.zeros(padded_shape, dtype=x.data.dtype)
        padded[:, ph : ph + h, pw : pw + w] = x.data
    else:
        padded = x.data
    # im2col: a read-only [C,kh,kw,oh,ow] window view, copied by the reshape
    # unless it is already contiguous (1x1, stride 1)
    sc, sy, sx = padded.strides
    cols = np.lib.stride_tricks.as_strided(
        padded, (c, kh, kw, oh, ow), (sc, sy, sx, sy * stride, sx * stride),
        writeable=False,
    ).reshape(c * kh * kw, oh * ow)
    wmat = weight.data.reshape(co, ci * kh * kw)
    out = (wmat @ cols + bias.data[:, None]).reshape(co, oh, ow)

    def backward(g):
        gmat = g.reshape(co, oh * ow)
        if weight.requires_grad:
            weight._accumulate((gmat @ cols.T).reshape(weight.data.shape))
        if bias.requires_grad:
            bias._accumulate(gmat.sum(axis=1, dtype=np.float64))
        if x.requires_grad:
            gcols = (wmat.T @ gmat).reshape(ci, kh, kw, oh, ow)
            gpad = np.zeros(padded_shape, dtype=x.data.dtype)
            for i in range(kh):
                for j in range(kw):
                    gpad[:, i : i + oh * stride : stride, j : j + ow * stride : stride] += gcols[:, i, j]
            x._accumulate(gpad[:, ph : ph + h, pw : pw + w])

    return _make(out, (x, weight, bias), backward)


# ---------------------------------------------------------------------------
# shape / reduction / selection


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)

    def backward(g):
        x._accumulate(g.reshape(x.data.shape))

    return _make(x.data.reshape(shape), (x,), backward)


def tensor_sum(x: Tensor) -> Tensor:
    out = np.asarray(x.data.sum(dtype=np.float64)).astype(x.data.dtype)

    def backward(g):
        x._accumulate(np.full_like(x.data, g))

    return _make(out, (x,), backward)


def tensor_mean(x: Tensor) -> Tensor:
    n = x.data.size
    out = np.asarray(x.data.sum(dtype=np.float64) / n).astype(x.data.dtype)

    def backward(g):
        x._accumulate(np.full_like(x.data, g / n))

    return _make(out, (x,), backward)


def gather_columns(x: Tensor, idx) -> Tensor:
    """Select columns of a [C,N] tensor: returns [C,len(idx)]."""
    if x.data.ndim != 2:
        raise ValueError(f"gather_columns expects [C,N], got {x.data.shape}")
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= x.data.shape[1]):
        raise ValueError("gather_columns: index out of range")

    def backward(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, (slice(None), idx), g)
        x._accumulate(gx)

    return _make(x.data[:, idx], (x,), backward)


def concat_columns(tensors) -> Tensor:
    """Concatenate a list of [C,Ni] tensors along the column axis."""
    tensors = list(tensors)
    if not tensors:
        raise ValueError("concat_columns: empty input")
    c = tensors[0].data.shape[0]
    for t in tensors:
        if t.data.ndim != 2 or t.data.shape[0] != c:
            raise ValueError("concat_columns: inputs must be [C,N] with equal C")
    sizes = [t.data.shape[1] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                t._accumulate(g[:, lo:hi])

    return _make(np.concatenate([t.data for t in tensors], axis=1), tuple(tensors), backward)


def weighted_bce_with_logits(logits: Tensor, targets, weights) -> Tensor:
    """Weighted binary cross-entropy from logits, summed over all entries.

    ``targets`` and ``weights`` are plain arrays broadcastable to the logits'
    shape; entries with zero weight do not contribute to value or gradient.
    """
    t = np.broadcast_to(np.asarray(targets, dtype=np.float64), logits.data.shape)
    w = np.broadcast_to(np.asarray(weights, dtype=np.float64), logits.data.shape)
    z = logits.data.astype(np.float64)
    # stable: max(z,0) - z*t + log1p(exp(-|z|))
    per = np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))
    out = np.asarray((per * w).sum()).astype(logits.data.dtype)
    sig = 1.0 / (1.0 + np.exp(-np.abs(z)))
    sig = np.where(z >= 0, sig, 1.0 - sig)

    def backward(g):
        logits._accumulate(g * (w * (sig - t)))

    return _make(out, (logits,), backward)


# ---------------------------------------------------------------------------
# parameter store


def path_inside(directory: str, file: str, where: str) -> str:
    """``file``, a path relative to ``directory``, joined to it.  A path that is
    absolute or whose ``..`` leaves ``directory`` raises ValueError naming
    ``where``.  The check is lexical: a symlink inside the directory is followed."""
    rel = os.path.normpath(file)
    if os.path.isabs(rel) or rel.split(os.sep)[0] == os.pardir:
        raise ValueError(f"{where}: file {file!r} is outside {directory}")
    return os.path.join(directory, rel)

_CHECKPOINT_FORMAT = "tinydet-checkpoint-v1"


class ParamStore:
    """Named map of trainable tensors with order-deterministic initialization.

    The same seed and the same registration order give bitwise-identical
    initial values.  Weights use symmetric uniform(-a, a) initialization with
    a = sqrt(6 / (fan_in + fan_out)); biases start at zero.  A store built
    over ``saved``, a name -> array map, takes each parameter from it instead
    and pops it; a name it lacks or a shape that differs raises ValueError
    before anything is allocated.
    """

    def __init__(self, seed: int = 0, dtype=np.float32, saved: dict | None = None):
        self.seed = int(seed)
        self.dtype = np.dtype(dtype)
        self._rng = np.random.default_rng(self.seed)
        self.params: dict[str, Tensor] = {}
        self.saved = saved

    def register(self, name: str, shape, fan_in: int | None = None,
                 fan_out: int | None = None, zero: bool = False) -> Tensor:
        if name in self.params:
            raise ValueError(f"parameter {name!r} already registered")
        shape = tuple(int(s) for s in shape)
        if self.saved is not None:
            data = self.saved.pop(name, None)
            if data is None or data.shape != shape:
                raise ValueError(f"parameter {name!r} of shape {list(shape)} is not saved")
        elif zero:
            data = np.zeros(shape, dtype=self.dtype)
        else:
            if fan_in is None or fan_out is None:
                raise ValueError(f"parameter {name!r}: fan_in/fan_out required")
            a = float(np.sqrt(6.0 / (fan_in + fan_out)))
            data = self._rng.uniform(-a, a, size=shape).astype(self.dtype)
        t = Tensor(data, requires_grad=True)
        self.params[name] = t
        return t

    def register_conv(self, name: str, c_out: int, c_in: int, k: int):
        """Register a conv weight/bias pair; returns (weight, bias)."""
        w = self.register(f"{name}.w", (c_out, c_in, k, k),
                          fan_in=c_in * k * k, fan_out=c_out * k * k)
        b = self.register(f"{name}.b", (c_out,), zero=True)
        return w, b

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]

    def items(self):
        return self.params.items()

    def tensors(self):
        return list(self.params.values())

    def zero_grad(self):
        for t in self.params.values():
            t.zero_grad()

    def save(self, directory: str, config: dict):
        """Checkpoint: one EFBT file per tensor plus a JSON manifest that also
        carries ``config``, the model's config as a JSON object."""
        os.makedirs(os.path.join(directory, "params"), exist_ok=True)
        entries = []
        for i, (name, t) in enumerate(self.params.items()):
            fname = f"params/p{i:04d}.efbt"
            write_tensor_file(os.path.join(directory, fname), t.data)
            entries.append({"name": name, "shape": list(t.data.shape), "file": fname})
        manifest = {"format": _CHECKPOINT_FORMAT, "seed": self.seed,
                    "params": entries, "config": config}
        with open(os.path.join(directory, "manifest.json"), "w") as f:
            json.dump(manifest, f, indent=2, sort_keys=True)

    @staticmethod
    def load(directory: str) -> tuple[int, dict[str, np.ndarray], object]:
        """Read a checkpoint written by ``save``: returns (seed, name -> array,
        config), the seed and arrays ready for ``ParamStore(seed, saved=...)``.

        A missing or malformed manifest, a manifest without a config, and a
        tensor file outside ``directory`` raise ValueError.
        """
        path = os.path.join(directory, "manifest.json")
        try:
            with open(path) as f:
                manifest = json.load(f)
        except (OSError, ValueError) as e:
            raise ValueError(f"checkpoint {path}: {e}") from e
        if not (isinstance(manifest, dict) and manifest.get("format") == _CHECKPOINT_FORMAT
                and isinstance(manifest.get("seed"), int)
                and isinstance(manifest.get("params"), list)):
            raise ValueError(f"checkpoint {path}: not a {_CHECKPOINT_FORMAT} manifest "
                             f"(format, integer seed, params array)")
        if "config" not in manifest:
            raise ValueError(f"checkpoint {path}: carries no model config")
        arrays = {}
        for i, e in enumerate(manifest["params"]):
            if not (isinstance(e, dict) and isinstance(e.get("name"), str)
                    and isinstance(e.get("file"), str)):
                raise ValueError(f"checkpoint {path}: params[{i}] needs string 'name' and 'file'")
            data = read_tensor_file(path_inside(directory, e["file"],
                                                f"checkpoint {path}: params[{i}]"))
            if list(data.shape) != e.get("shape"):
                raise ValueError(
                    f"checkpoint {e['file']}: shape {list(data.shape)} != manifest {e.get('shape')}"
                )
            arrays[e["name"]] = data
        return manifest["seed"], arrays, manifest["config"]


# ---------------------------------------------------------------------------
# EFBT binary tensor format

_EFBT_MAGIC = b"EFBT"


def write_tensor_file(path: str, array: np.ndarray):
    """Write an array as EFBT: magic, version, dtype code, ndim, u32 dims, f32 LE payload."""
    arr = np.asarray(array, dtype="<f4")
    if arr.ndim > 255:
        raise ValueError("EFBT supports at most 255 dims")
    with open(path, "wb") as f:
        f.write(_EFBT_MAGIC)
        f.write(struct.pack("<BBB", 1, 0, arr.ndim))
        for d in arr.shape:
            f.write(struct.pack("<I", d))
        f.write(arr.tobytes())


def read_tensor_file(path: str) -> np.ndarray:
    """Read an EFBT file; an unreadable file, or a header that the file's size
    cannot back or no ndarray can hold, raises ValueError naming the file."""
    try:
        f = open(path, "rb")
    except OSError as e:
        raise ValueError(f"{path}: {e.strerror}") from e
    with f:
        magic = f.read(4)
        if magic != _EFBT_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}, expected 'EFBT'")
        header = f.read(3)
        if len(header) != 3:
            raise ValueError(f"{path}: truncated header")
        version, dtype_code, ndim = struct.unpack("<BBB", header)
        if version != 1:
            raise ValueError(f"{path}: unsupported version {version}")
        if dtype_code != 0:
            raise ValueError(f"{path}: unsupported dtype code {dtype_code}")
        if ndim > 64:
            raise ValueError(f"{path}: {ndim} dims, an array has at most 64")
        raw_dims = f.read(4 * ndim)
        if len(raw_dims) != 4 * ndim:
            raise ValueError(f"{path}: truncated header")
        dims = struct.unpack(f"<{ndim}I", raw_dims)
        count = math.prod(dims)  # Python ints: a crafted header cannot overflow
        left = os.fstat(f.fileno()).st_size - f.tell()
        if 4 * count > left:
            raise ValueError(f"{path}: truncated payload: header declares {count} "
                             f"float32 values, {left} bytes follow")
        if 4 * math.prod(d for d in dims if d) > sys.maxsize:
            raise ValueError(f"{path}: shape {list(dims)} is too big for an array")
        payload = f.read(4 * count)
        arr = np.frombuffer(payload, dtype="<f4", count=count)
        return arr.reshape(dims).copy()
