"""Dense-tensor autodiff core.

A small reverse-mode engine over numpy arrays: each operation returns a new
``Tensor`` carrying a backward closure, and ``Tensor.backward()`` on a scalar
replays the recorded tape in reverse topological order; inside ``no_grad``
ops record nothing, so an inference pass holds no graph.  Storage defaults to
float32; reductions accumulate in float64 before casting back, and the whole
graph can be run in float64 (used by the finite-difference checks).

``add`` and ``mul`` follow numpy broadcasting: shapes align from the right,
and a length-1 or missing axis stretches to match the other operand; any
other mismatch raises numpy's ValueError.  A plain-number operand becomes a
0-d tensor of the other operand's dtype.  Backward sums each gradient over
the axes its operand was stretched along, in float64.

Also owns the parameter store (seeded, order-deterministic initialization)
and the "EFBT" binary file format of one tensor.  It imports nothing from the
package: which files make a checkpoint is ``detector``'s business, and which
make a dataset is ``scenes``'s.
"""

from __future__ import annotations

import math
import os
import struct
import sys

import numpy as np

__all__ = [
    "Tensor",
    "no_grad",
    "ParamStore",
    "conv2d",
    "sigmoid",
    "sigmoid_array",
    "add",
    "mul",
    "max_pool",
    "bilinear_upsample",
    "gather_columns",
    "concat_columns",
    "weighted_bce_with_logits",
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

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g):
        if self.grad is None:
            # a copy in C order: g may be a view, a transposed one included
            self.grad = np.array(g, dtype=self.data.dtype, order="C")
        else:
            self.grad += g.astype(self.data.dtype, copy=False)

    def backward(self):
        """Populate grad buffers of every reachable requires_grad tensor.

        Only valid on a scalar (0-d) tensor produced by this module's ops.
        The walk pops each op node off its list before running it, and the
        node then drops its backward closure and its parents, so a spent node
        (its data, its grad and what its op kept for the backward: a conv's
        padded input or its columns, see ``conv2d``) is freed during the walk
        unless the caller still holds it; a held node keeps its grad (masked, for
        a ``conv2d`` with ``relu``).  A second
        backward through a spent node raises ValueError.
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
        while topo:
            node = topo.pop()
            if node._backward is not None:
                if node.grad is not None:
                    node._backward(node.grad)
                node._backward, node._parents = _spent, ()

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def _spent(g):
    raise ValueError("backward() already ran through this graph; build it again")


class no_grad:
    """Context in which ops record nothing: each op's output is a bare
    ``Tensor`` with no parents and no backward closure, so no output keeps its
    inputs, or what its op would keep for the backward, alive.  It restores
    the mode it found on exit, also on an exception, so uses nest."""

    def __enter__(self):
        global _recording
        self._outer, _recording = _recording, False
        return self

    def __exit__(self, *exc):
        global _recording
        _recording = self._outer
        return False


_recording = True  # False inside ``no_grad``


def _make(data, parents, backward_fn):
    """An op's output, whose node records only the parents that take a
    gradient, and nothing inside ``no_grad``."""
    out = Tensor(data)
    if not _recording:
        return out
    parents = tuple(p for p in parents if p.requires_grad)
    if parents:
        out.requires_grad = True
        out._parents = parents
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


def sigmoid_array(d: np.ndarray) -> np.ndarray:
    """Logistic of an array, in its dtype; from e = exp(-|d|), so that no |d|
    overflows.  ``minimum(d, -d)`` is -|d| but passes a NaN on unchanged,
    where ``-abs(d)`` would flip its sign bit."""
    e = np.exp(np.minimum(d, -d))
    return np.where(d >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(x: Tensor) -> Tensor:
    out = sigmoid_array(x.data)

    def backward(g):
        x._accumulate(g * out * (1.0 - out))

    return _make(out, (x,), backward)


# ---------------------------------------------------------------------------
# pooling / resampling


def max_pool(x: Tensor, size) -> Tensor:
    """Max pooling of a [C,H,W] map over non-overlapping (kh, kw) windows.

    H and W must be multiples of kh and kw; ``size = x.data.shape[1:]`` pools the
    whole map to [C,1,1].  The gradient routes to the first maximum of each
    window in row-major order, so the backward pass is deterministic under ties.
    """
    if x.data.ndim != 3:
        raise ValueError(f"max_pool expects [C,H,W], got {x.data.shape}")
    kh, kw = size
    c, h, w = x.data.shape
    if kh < 1 or kw < 1 or h % kh or w % kw:
        raise ValueError(f"max_pool: window {kh}x{kw} does not tile a {h}x{w} map")
    oh, ow = h // kh, w // kw
    win = x.data.reshape(c, oh, kh, ow, kw).transpose(0, 1, 3, 2, 4)
    win = win.reshape(c, oh, ow, kh * kw)
    idx = win.argmax(axis=-1)  # first max within each window
    out = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]

    def backward(g):
        gw = np.zeros_like(win)
        np.put_along_axis(gw, idx[..., None], g[..., None], axis=-1)
        gx = gw.reshape(c, oh, ow, kh, kw).transpose(0, 1, 3, 2, 4)
        x._accumulate(gx.reshape(c, h, w))

    return _make(out, (x,), backward)


# (src, dst, dtype) -> read-only interpolation matrix; emptied when full
_INTERP: dict = {}
_CACHE_SIZE = 64


def _interp_matrix(src: int, dst: int, dtype) -> np.ndarray:
    """[dst,src] half-pixel-center linear interpolation weights along one axis,
    built once per (src, dst, dtype) and returned read-only."""
    key = (src, dst, np.dtype(dtype))
    if key not in _INTERP:
        if len(_INTERP) >= _CACHE_SIZE:
            _INTERP.clear()
        pos = np.clip((np.arange(dst, dtype=np.float64) + 0.5) * (src / dst) - 0.5,
                      0.0, src - 1.0)
        lo = np.floor(pos).astype(np.int64)
        w_hi = pos - lo
        rows = np.arange(dst)
        r = np.zeros((dst, src))
        r[rows, lo] = 1 - w_hi
        r[rows, np.minimum(lo + 1, src - 1)] += w_hi
        r = r.astype(dtype)
        r.setflags(write=False)
        _INTERP[key] = r
    return _INTERP[key]


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

_CHUNK = 2 ** 16  # conv2d input gradient: window elements per GEMM, at most


def _windows(a: np.ndarray, k: int, oh: int, ow: int, step: int = 1,
             top: int = 0) -> np.ndarray:
    """im2col: the [C*k*k, oh*ow] columns of a [C,H,W] array, column (y, x)
    holding the k x k window at (top + y*step, x*step) of every channel.

    The window view is built with the ndarray constructor, which checks its
    extent against the buffer; the reshape copies it unless the window is
    1x1 at step 1, where it is a view."""
    a = np.ascontiguousarray(a)
    c = a.shape[0]
    sc, sy, sx = a.strides
    view = np.ndarray((c, k, k, oh, ow), a.dtype, a, top * sy, (sc, sy, sx, sy * step, sx * step))
    return view.reshape(c * k * k, oh * ow)


def _embed(a: np.ndarray, shape, pad: int, step: int) -> np.ndarray:
    """Zeros of ``shape`` with the [C,h,w] array ``a`` written every ``step``
    pixels from (pad, pad); ``a`` itself when that would change nothing."""
    if a.shape == tuple(shape) and step == 1:
        return a
    out = np.zeros(shape, dtype=a.dtype)
    _, h, w = a.shape
    out[:, pad : pad + (h - 1) * step + 1 : step, pad : pad + (w - 1) * step + 1 : step] = a
    return out


def _taps(a: np.ndarray, k: int, n: int) -> np.ndarray:
    """The [k, k, n, C] view of a contiguous [C,H,W] array: tap (dy, dx) is a
    column-major [n, C] matrix whose row j holds flat element j + dy*W + dx
    of every channel.  The ndarray constructor checks the last tap's extent
    against the buffer."""
    c = a.shape[0]
    sc, sy, sx = a.strides
    return np.ndarray((k, k, n, c), a.dtype, a, 0, (sy, sx, sx, sc))


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, stride: int = 1,
           relu: bool = False) -> Tensor:
    """2-D cross-correlation with bias over a single [C_in,H,W] image, and with
    ``relu`` its ReLU: the output is clamped to max(out, 0) in place, so a NaN
    stays NaN and a diverged map is not hidden, and the backward masks the
    output's gradient with ``out > 0`` in place.  The graph then holds one map
    where a separate activation op would hold two, and the backward makes no
    masked copy; a caller that holds the output reads the masked gradient, that
    of the pre-activation, in its ``grad``.

    Kernels are 1x1 or 3x3, padded so that stride-1 convolution preserves the
    spatial size; stride s > 1 yields ceil(H/s) x ceil(W/s) outputs.  Both the
    forward pass and the input gradient are one GEMM with ``_windows`` columns:
    forward, the [Co, Ci*k*k] weights times the windows of the zero-padded
    input at step s; the input gradient, the flipped, channel-swapped
    [Ci, Co*k*k] kernel times the step-1 windows of the output gradient,
    dilated by s and zero-padded to the input's size plus k-1 by k-1.  The
    input gradient takes those windows in chunks of whole rows, at most
    ``_CHUNK`` elements each (one row at least), and writes one GEMM per chunk
    into its rows of the result; a map that fits in one chunk takes one GEMM.

    What the backward keeps differs by kernel and stride.  A 3x3 stride-1 conv
    keeps its zero-padded input, [Ci, H+3, W+2] with one extra zero row, and
    drops its columns after the forward GEMM; its weight gradient is one
    ``np.matmul`` of the padded output gradient, read flat as [Co, H*(W+2)],
    with the nine ``_taps`` views of the padded input.  The two pad columns of
    each output-gradient row are zero, so the taps they meet add exactly 0,
    and the extra zero row holds the last tap's reach past the final row.  A
    1x1 conv keeps its columns, a view of its input, and a stride-2 conv keeps
    its columns, 9/4 of its input; their weight gradient is the output
    gradient times those columns.
    """
    if x.data.ndim != 3:
        raise ValueError(f"conv2d expects input [C,H,W], got {x.data.shape}")
    if weight.data.ndim != 4:
        raise ValueError(f"conv2d expects weight [Co,Ci,kh,kw], got {weight.data.shape}")
    co, ci, kh, kw = weight.data.shape
    if kh != kw or kh not in (1, 3):
        raise ValueError(f"conv2d supports square 1x1/3x3 kernels, got a {kh}x{kw} kernel")
    if x.data.shape[0] != ci:
        raise ValueError(
            f"conv2d: input has {x.data.shape[0]} channels, weight expects {ci}"
        )
    if bias.data.shape != (co,):
        raise ValueError(f"conv2d: bias shape {bias.data.shape} != ({co},)")
    c, h, w = x.data.shape
    k, p = kh, kh // 2
    oh = (h + 2 * p - k) // stride + 1
    ow = (w + 2 * p - k) // stride + 1
    keep_padded = k > 1 and stride == 1  # with one extra zero row, for ``_taps``
    padded = _embed(x.data, (c, h + 2 * p + keep_padded, w + 2 * p), p, 1)
    cols = _windows(padded, k, oh, ow, stride)
    wmat = weight.data.reshape(co, ci * k * k)
    # the bias is added in place, once the product is widened to its dtype
    out = (wmat @ cols).astype(np.result_type(wmat, cols, bias.data), copy=False)
    out += bias.data[:, None]
    out = out.reshape(co, oh, ow)
    if relu:
        np.maximum(out, 0, out=out)
    kept = padded if keep_padded else cols  # the backward's closure holds this one only
    src = x if x.requires_grad else None  # and the input only when it takes a gradient

    def backward(g):
        if relu:
            g *= out > 0
        gmat = g.reshape(co, oh * ow)
        if keep_padded or src is not None:
            spread = _embed(g, (co, h + k - 1, w + k - 1), p, stride)
        if weight.requires_grad:
            if keep_padded:
                wp = w + k - 1
                flat = spread.reshape(co, -1)[:, p * wp + p : p * wp + p + h * wp]
                weight._accumulate(np.matmul(flat, _taps(kept, k, h * wp)).transpose(2, 3, 0, 1))
            else:
                weight._accumulate((gmat @ kept.T).reshape(weight.data.shape))
        if bias.requires_grad:
            bias._accumulate(gmat.sum(axis=1, dtype=np.float64))
        if src is not None:
            flipped = weight.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(ci, co * k * k)
            gx = np.empty((ci, h, w), np.result_type(flipped, spread))
            rows = max(1, _CHUNK // (co * k * k * w))
            for top in range(0, h, rows):
                n = min(rows, h - top)
                np.matmul(flipped, _windows(spread, k, n, w, top=top),
                          out=gx[:, top : top + n].reshape(ci, n * w))
            src._accumulate(gx)

    return _make(out, (x, weight, bias), backward)


# ---------------------------------------------------------------------------
# shape / reduction / selection


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
    """Concatenate [C,...] tensors along the columns, each flattened row-major to [C,Ni]."""
    tensors = list(tensors)
    if not tensors:
        raise ValueError("concat_columns: empty input")
    c = tensors[0].data.shape[0]
    for t in tensors:
        if t.data.ndim < 2 or t.data.shape[0] != c:
            raise ValueError("concat_columns: inputs must be [C,...] with equal C")
    cols = [t.data.reshape(c, math.prod(t.data.shape[1:])) for t in tensors]
    offsets = np.cumsum([0] + [a.shape[1] for a in cols])

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                t._accumulate(g[:, lo:hi].reshape(t.data.shape))

    return _make(np.concatenate(cols, axis=1), tuple(tensors), backward)


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
    sig = sigmoid_array(z)

    def backward(g):
        logits._accumulate(g * (w * (sig - t)))

    return _make(out, (logits,), backward)


# ---------------------------------------------------------------------------
# parameter store


class ParamStore:
    """Named map of trainable tensors with order-deterministic initialization.

    The same seed and the same registration order give bitwise-identical
    initial values.  Weights use float32 uniform(-a, a) initialization with
    a = sqrt(6 / (fan_in + fan_out)); biases start at zero.  A store built over
    ``saved``, a name -> array map, takes each parameter from it instead, in
    its dtype, and pops it; a name it lacks or a shape that differs raises
    ValueError before anything is allocated.
    """

    def __init__(self, seed: int = 0, saved: dict | None = None):
        self.seed = int(seed)
        self._rng = np.random.default_rng(self.seed)
        self.params: dict[str, Tensor] = {}
        self.saved = saved

    def register_conv(self, name: str, c_out: int, c_in: int, k: int):
        """Register the weight ``<name>.w`` [c_out,c_in,k,k] (fan_in = c_in*k*k,
        fan_out = c_out*k*k) and the bias ``<name>.b`` [c_out]; returns
        ``conv(name)``.  A name already in the store raises ValueError."""
        a = float(np.sqrt(6.0 / ((c_in + c_out) * k * k)))
        for n, shape in ((f"{name}.w", (c_out, c_in, k, k)), (f"{name}.b", (c_out,))):
            if n in self.params:
                raise ValueError(f"parameter {n!r} already registered")
            if self.saved is not None:
                data = self.saved.pop(n, None)
                if data is None or data.shape != shape:
                    raise ValueError(f"parameter {n!r} of shape {list(shape)} is not saved")
            elif n.endswith(".b"):
                data = np.zeros(shape, dtype=np.float32)
            else:
                data = self._rng.uniform(-a, a, size=shape).astype(np.float32)
            self.params[n] = Tensor(data, requires_grad=True)
        return self.conv(name)

    def conv(self, name: str) -> tuple[Tensor, Tensor]:
        """The (weight, bias) of the conv registered as ``name``."""
        return self.params[f"{name}.w"], self.params[f"{name}.b"]

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]

    def items(self):
        return self.params.items()

    def tensors(self):
        return list(self.params.values())

    def zero_grad(self):
        for t in self.params.values():
            t.zero_grad()


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
    """Read an EFBT file; an unreadable file, a header that the file's size
    cannot back or no ndarray can hold, and bytes past the payload raise
    ValueError naming the file."""
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
        if 4 * count != left:
            fault = "truncated payload" if 4 * count > left else "trailing bytes"
            raise ValueError(f"{path}: {fault}: header declares {count} "
                             f"float32 values, {left} bytes follow")
        if 4 * math.prod(d for d in dims if d) > sys.maxsize:
            raise ValueError(f"{path}: shape {list(dims)} is too big for an array")
        payload = f.read(4 * count)
        arr = np.frombuffer(payload, dtype="<f4", count=count)
        return arr.reshape(dims).copy()
