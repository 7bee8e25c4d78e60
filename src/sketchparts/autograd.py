"""Dense tensors with taped reverse-mode differentiation.

Small by design: exactly the primitives the parser, pose head and router
classifier need. Values are stored in float32 by default. The conv and
linear GEMMs (forward, weight and input gradients) run in the operands' own
dtype, np.result_type(x, w): float32 nets use sgemm. Softmax and the
log-sum-exp cross-entropy compute in float64; the bias gradient, global
average pool, weighted_sum and max-pool scatter sum float32 data in place,
float64 being the reduction's own dtype. Results are cast back. Tests run
float64 tensors through the same code as a full-precision shadow, so
finite-difference checks stay tight.

The parser's scores reach its loss through no shape glue:
bilinear_upsample returns the top-left height x width window of its
upsampled grid, and weighted_softmax_ce reads logits of any shape (L, ...)
as L scores at each position and returns its gradient in that shape.

Every tensor receives a gradient unless it was built with
requires_grad=False, as model.forward_shared's padded sketch is:
conv2d skips the input gradient of such a tensor, and backward() never
fills its .grad. One accumulation rule, GradientSum, sums the gradients
one tensor receives in the order they arrive: the first is kept as given,
the second allocates the sum, and later ones add into it in place unless
the add would promote its dtype. So no array a grad_fn returned or
received, which may be a view or passed to two inputs, is ever written.
backward(tape, loss) fills the leaves' .grad from such a sum;
backward(tape, loss, into=total) adds the leaf gradients to the caller's
GradientSum `total` instead. Tapes replayed into one sum, the last recorded
first, give the leaves the bytes that one tape holding all their entries in
recording order gives in its single reverse replay.

Conv forward builds its im2col patch matrix in two copies: the k column
shifts of every zero-padded row, then each tap's rows of that buffer, which
for stride 1 are whole contiguous Ho*Wo runs. One GEMM multiplies it by
the (F, C*k*k) weights. Conv backward is one GEMM for dw (the output
gradient against the same patch matrix, rebuilt from the padded input
rather than kept on the tape) and one for dx (the transposed output
gradient against the weights), whose (Ho*Wo, C*k*k) product is already
channel-last: each tap's (Ho, Wo, C) slab of it is added into an (Hp, Wp,
C) buffer, one slice-add per tap in tap order over rows of Wo*C values; a
tap that reads only zero padding along a side is skipped, since the crop to
the input drops everything it would write.

He init writes each float32 weight chunk by chunk: at most HE_DRAW_CHUNK
float64 normals (1 MiB) are drawn, scaled and cast into it at a time, so
building a net never stages a weight's whole float64 draw, 4.7 MB for a
router 256x256x3x3 conv. The generator's stream is the same drawn whole or
in pieces, so the bytes are those of the cast whole draw. Below 1 MiB a net
takes more minor page faults to build; above it, building one peaks higher.

Max pooling is separable: a running np.maximum over the window's column
taps of each zero-padded row, then over the window's row taps of those row
maxima, so no window is ever copied out. Only while a tape records does the
same loop keep the winning column per row, then the winning row, each
replaced only where a later tap is strictly greater: the first maximum in
the window's row-major scan order wins. Backward scatters the output
gradient with one float64 np.bincount over those flat indices.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation

DEFAULT_DTYPE = np.float32
HE_DRAW_CHUNK = 1 << 17  # float64 values he_normal draws at a time, 1 MiB


def make_rng(seed):
    """Counter-based generator; same seed gives bit-identical streams."""
    return np.random.Generator(np.random.Philox(seed))


class Tensor:
    """N-d float array plus the gradient slot that backward() fills."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, dtype=None, requires_grad=True):
        arr = np.asarray(data)
        if dtype is None:
            dtype = arr.dtype if arr.dtype in (np.float32, np.float64) else DEFAULT_DTYPE
        self.data = np.ascontiguousarray(arr, dtype=dtype)
        self.grad = None
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={tuple(self.data.shape)}, dtype={self.data.dtype.name})"


class Tape:
    """Ordered record of primitive ops, replayed exactly once in reverse.

    Use as a context manager around the forward pass; ops executed in the
    same thread while a tape is active append themselves. A second
    backward() on the same tape raises, and every leaf reached from the loss
    receives exactly one accumulated gradient per pass.
    """

    def __init__(self):
        self.entries = []  # (output, inputs tuple, grad fn)
        self.consumed = False

    def record(self, output, inputs, grad_fn):
        self.entries.append((output, inputs, grad_fn))

    def __enter__(self):
        _ACTIVE.tapes.append(self)
        return self

    def __exit__(self, *exc):
        _ACTIVE.tapes.pop()
        return False


class _ActiveTapes(threading.local):
    """Per-thread stack of entered tapes: ops in one thread never record
    onto a tape another thread entered."""

    def __init__(self):
        self.tapes = []


_ACTIVE = _ActiveTapes()


def _record(output, inputs, grad_fn):
    if _ACTIVE.tapes:
        _ACTIVE.tapes[-1].record(output, inputs, grad_fn)


def _recording():
    return bool(_ACTIVE.tapes)


class GradientSum:
    """Per-tensor gradient sums, each the sum of what add() was given for
    that tensor, in call order.

    A tensor's first gradient is kept as given. The second allocates their
    sum; later ones add into that sum in place, unless the add would promote
    its dtype. So no array a caller passed in is ever written: a grad_fn may
    return a view of its input gradient, or one array for two inputs.
    """

    def __init__(self):
        self._sums = {}  # id(tensor) -> [tensor, sum, allocated here]

    def add(self, tensor, grad):
        entry = self._sums.get(id(tensor))
        if entry is None:
            self._sums[id(tensor)] = [tensor, grad, False]
        elif entry[2] and np.result_type(entry[1], grad) == entry[1].dtype:
            np.add(entry[1], grad, out=entry[1])
        else:
            entry[1] = entry[1] + grad
            entry[2] = True

    def pop(self, tensor):
        """The tensor's sum, which the sum forgets; None if it has none."""
        entry = self._sums.pop(id(tensor), None)
        return None if entry is None else entry[1]

    def assign(self):
        """Set each tensor's .grad to its sum, in the tensor's dtype and shape."""
        for tensor, total, _ in self._sums.values():
            tensor.grad = total.astype(tensor.dtype, copy=False).reshape(tensor.shape)


def backward(tape, loss, into=None):
    """Replay `tape` in reverse from scalar `loss`.

    The gradients of the tape's leaves (the tensors no entry produced) go to
    the GradientSum `into` in the order the replay reaches them; without
    one, they go to a new sum whose totals fill the leaves' .grad slots.
    """
    if tape.consumed:
        raise ContractViolation("tape has already been replayed backward once")
    if loss.data.size != 1:
        raise ContractViolation(f"loss must be scalar, got shape {tuple(loss.shape)}")
    tape.consumed = True

    leaves = GradientSum() if into is None else into
    pending = GradientSum()
    produced = {id(out) for out, _, _ in tape.entries}

    def receive(tensor, grad):
        if id(tensor) in produced:
            pending.add(tensor, grad)
        elif tensor.requires_grad:
            leaves.add(tensor, grad)

    receive(loss, np.ones_like(loss.data))
    for out, inputs, grad_fn in reversed(tape.entries):
        g = pending.pop(out)
        if g is None:
            continue  # not on the path from loss
        for tensor, grad in zip(inputs, grad_fn(g)):
            if grad is not None:
                receive(tensor, grad)
    if into is None:
        leaves.assign()


def zero_grads(tensors):
    for t in tensors:
        t.grad = None


def _f64(a):
    return a if a.dtype == np.float64 else a.astype(np.float64)


def _cast(a, dtype):
    return a.astype(dtype, copy=False)


# ---------------------------------------------------------------------------
# convolution


@dataclass(frozen=True)
class ConvSpec:
    """Geometry of one conv layer: kernel width, stride, dilation rate and
    output channels. The zero-pad margin is rate*(kernel-1)//2."""

    kernel: int
    out_channels: int
    stride: int = 1
    dilation: int = 1

    def __post_init__(self):
        if self.kernel < 1 or self.stride < 1 or self.dilation < 1:
            raise ContractViolation(
                f"kernel/stride/dilation must be >= 1, got "
                f"{self.kernel}/{self.stride}/{self.dilation}"
            )

    @property
    def padding(self):
        return self.dilation * (self.kernel - 1) // 2

    def out_size(self, size):
        eff = self.dilation * (self.kernel - 1) + 1
        return (size + 2 * self.padding - eff) // self.stride + 1


def _im2col(xp, k, s, r, Ho, Wo):
    """Patch matrix (C*k*k, Ho*Wo) of the padded input xp[C,Hp,Wp], rows in
    (channel, tap row, tap column) order. Two copies: the k column shifts
    of every padded row, then each tap's rows of those shifts."""
    C, Hp, _ = xp.shape
    sc, sh, sw = xp.strides
    # shifts[c, v, h, j] = xp[c, h, v*r + j*s]; the ndarray constructor
    # makes these strided views at a fraction of as_strided's cost
    shifts = np.ndarray((C, k, Hp, Wo), xp.dtype, xp, 0, (sc, sw * r, sh, sw * s)).copy()
    tc, tv, th, tw = shifts.strides
    taps = np.ndarray((C, k, k, Ho, Wo), xp.dtype, shifts, 0, (tc, th * r, tv, th * s, tw))
    return taps.reshape(C * k * k, Ho * Wo)


def conv2d(x, w, b, spec):
    """Strided, dilated cross-correlation of x[C,H,W] with w[F,C,k,k] + b[F].

    Output spatial size is floor((S + 2p - r*(k-1) - 1)/s) + 1 per side.
    """
    C, H, W = x.shape
    F, Cw, kh, kw = w.shape
    if Cw != C or kh != spec.kernel or kw != spec.kernel or F != spec.out_channels:
        raise ContractViolation(
            f"conv2d shape mismatch: input {tuple(x.shape)} vs weights "
            f"{tuple(w.shape)} under spec {spec}"
        )
    if b.shape != (F,):
        raise ContractViolation(f"bias shape {tuple(b.shape)} != ({F},)")

    p, s, r, k = spec.padding, spec.stride, spec.dilation, spec.kernel
    Ho, Wo = spec.out_size(H), spec.out_size(W)
    if Ho < 1 or Wo < 1:
        raise ContractViolation(
            f"conv2d output would be empty for input {tuple(x.shape)} under {spec}"
        )

    dt = np.result_type(x.data, w.data)
    wd = _cast(w.data, dt).reshape(F, C * k * k)
    xp = np.zeros((C, H + 2 * p, W + 2 * p), dtype=dt)
    xp[:, p : p + H, p : p + W] = x.data
    out_data = (wd @ _im2col(xp, k, s, r, Ho, Wo)).reshape(F, Ho, Wo)
    out_data += b.data[:, None, None]
    out = Tensor(_cast(out_data, x.dtype))

    if _recording():

        def grad_fn(g):
            gd = _cast(g, dt).reshape(F, Ho * Wo)
            db = g.sum(axis=(1, 2), dtype=np.float64)
            dw = (gd @ _im2col(xp, k, s, r, Ho, Wo).T).reshape(F, C, k, k)
            if not x.requires_grad:
                return None, dw, db
            # channel-last columns and input gradient, so each tap's add
            # runs over whole rows of Wo*C values
            cols = (gd.T @ wd).reshape(Ho, Wo, C, k, k)
            dxp = np.zeros((H + 2 * p, W + 2 * p, C), dtype=dt)
            # a tap whose rows or columns all fall in the zero padding only
            # writes cells that the crop below drops
            live_u = [u for u in range(k) if u * r + s * (Ho - 1) >= p and u * r < p + H]
            live_v = [v for v in range(k) if v * r + s * (Wo - 1) >= p and v * r < p + W]
            for u in live_u:
                for v in live_v:
                    # strides never collide within a fixed (u,v) tap, so
                    # plain slice-add is exact.
                    dxp[
                        u * r : u * r + s * Ho : s,
                        v * r : v * r + s * Wo : s,
                    ] += cols[:, :, :, u, v]
            dx = dxp[p : p + H, p : p + W].transpose(2, 0, 1)
            return dx, dw, db

        _record(out, (x, w, b), grad_fn)
    return out


def pool_out_size(size, window, stride):
    """Output positions of maxpool2d along a side: ceil((S-w)/s)+1, and one
    window for a side shorter than it."""
    return max(0, -(-(size - window) // stride)) + 1


def maxpool2d(x, window, stride):
    """Max over window x window patches; right/bottom zero-padded so every
    window start inside ceil((S-w)/s)+1 positions is covered. Gradient goes
    to the first maximal element in scan order."""
    if window < 1 or stride < 1:
        raise ContractViolation(f"window/stride must be >= 1, got {window}/{stride}")
    C, H, W = x.shape
    Ho, Wo = pool_out_size(H, window, stride), pool_out_size(W, window, stride)
    Hp = (Ho - 1) * stride + window
    Wp = (Wo - 1) * stride + window

    xp = np.zeros((C, Hp, Wp), dtype=x.dtype)
    xp[:, :H, :W] = x.data
    recording = _recording()
    # separable: the max over each row's column taps, then over the row taps
    rows, col_arg = _running_max(
        [xp[:, :, v : v + stride * Wo : stride] for v in range(window)], recording
    )
    best, row_arg = _running_max(
        [rows[:, u : u + stride * Ho : stride] for u in range(window)], recording
    )
    out = Tensor(best)

    if recording:

        def grad_fn(g):
            # each output's winning row of the padded input, counted over
            # all channels, then that row's winning column
            flat = row_arg + (
                np.arange(C)[:, None, None] * Hp + np.arange(0, Hp - window + 1, stride)[:, None]
            )
            j = np.arange(Wo)
            col = col_arg.ravel().take(flat * Wo + j)
            flat *= Wp
            flat += col
            flat += j * stride
            dxp = np.bincount(flat.ravel(), weights=g.ravel(), minlength=C * Hp * Wp)
            return (dxp.reshape(C, Hp, Wp)[:, :H, :W],)

        _record(out, (x,), grad_fn)
    return out


def _running_max(taps, recording):
    """Elementwise max over equal-shape taps, and, while a tape records, the
    index of the winning tap: strict > keeps the first maximum."""
    best = taps[0].copy()
    arg = None
    if recording:
        arg = np.zeros(best.shape, dtype=np.min_scalar_type(len(taps) - 1))
        better = np.empty(best.shape, dtype=bool)
    for i, tap in enumerate(taps[1:], start=1):
        if recording:
            np.greater(tap, best, out=better)
            # an arithmetic select: a masked store is several times slower
            arg += better * (i - arg)
        np.maximum(best, tap, out=best)
    return best, arg


# ---------------------------------------------------------------------------
# dense / pointwise layers


def linear(x, w, b):
    """Affine map w[O,D] @ x[D] + b[O]."""
    (D,) = x.shape
    O, Dw = w.shape
    if Dw != D or b.shape != (O,):
        raise ContractViolation(
            f"linear shape mismatch: input {tuple(x.shape)}, weights "
            f"{tuple(w.shape)}, bias {tuple(b.shape)}"
        )
    dt = np.result_type(x.data, w.data)
    wd, xd = _cast(w.data, dt), _cast(x.data, dt)
    out = Tensor(_cast(wd @ xd + b.data, x.dtype))

    if _recording():

        def grad_fn(g):
            gd = _cast(g, dt)
            return wd.T @ gd, np.outer(gd, xd), _f64(g)

        _record(out, (x, w, b), grad_fn)
    return out


def relu(x):
    out = Tensor(np.maximum(x.data, 0))
    if _recording():
        mask = x.data > 0
        _record(out, (x,), lambda g: (g * mask,))
    return out


def dropout(x, p, rng, training):
    """Inverted dropout: identity at inference, keeps mass at 1/(1-p) in training."""
    if not 0.0 <= p < 1.0:
        raise ContractViolation(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    keep = rng.random(x.shape) >= p
    scale = 1.0 / (1.0 - p)
    out = Tensor(_cast(x.data * (keep * scale), x.dtype))
    if _recording():
        _record(out, (x,), lambda g: (g * (keep * scale),))
    return out


def global_average_pool(x):
    """Spatial mean of x[C,H,W] -> [C]."""
    C, H, W = x.shape
    out = Tensor(_cast(x.data.mean(axis=(1, 2), dtype=np.float64), x.dtype))
    if _recording():
        _record(out, (x,), lambda g: (np.broadcast_to(_f64(g)[:, None, None] / (H * W), x.shape),))
    return out


def _interp_taps(n_out, n_in):
    """The two source taps behind each of n_out samples: (lo, w_lo, hi, w_hi).

    An align-corners-false sample grid with clamped edges, mirror-symmetric
    by construction so resampling commutes exactly with flips: the first
    half of the samples is computed and reflected onto the second half.
    """
    i = np.arange((n_out + 1) // 2)
    src = np.clip((i + 0.5) * (n_in / n_out) - 0.5, 0.0, n_in - 1.0)
    lo = np.floor(src).astype(np.intp)
    hi = np.minimum(lo + 1, n_in - 1)
    t = src - lo
    k = n_out // 2  # samples below k have a distinct mirror sample
    return (
        np.concatenate([lo, n_in - 1 - hi[:k][::-1]]),
        np.concatenate([1.0 - t, t[:k][::-1]]),
        np.concatenate([hi, n_in - 1 - lo[:k][::-1]]),
        np.concatenate([t, 1.0 - t[:k][::-1]]),
    )


def _interp_matrix(n_out, n_in):
    lo, w_lo, hi, w_hi = _interp_taps(n_out, n_in)
    m = np.zeros((n_out, n_in), dtype=np.float64)
    rows = np.arange(n_out)
    m[rows, lo] = w_lo
    m[rows, hi] += w_hi
    return m


def bilinear_upsample(x, factor, height, width):
    """The top-left height x width window of x[C,H,W] upsampled by an
    integer factor (align-corners-false).

    The window is sliced from the whole factor*H x factor*W grid, and the
    backward pass zero-pads the gradient back to that grid, so the bytes are
    those of upsampling whole and then cropping.
    """
    if int(factor) != factor or factor < 1:
        raise ContractViolation(f"upsample factor must be a positive integer, got {factor}")
    factor = int(factor)
    C, H, W = x.shape
    Hf, Wf = H * factor, W * factor
    if not (1 <= height <= Hf and 1 <= width <= Wf):
        raise ContractViolation(f"window {height}x{width} is not within the upsampled {Hf}x{Wf}")
    wy = _interp_matrix(Hf, H)
    wx = _interp_matrix(Wf, W)
    t = np.tensordot(_f64(x.data), wy, axes=([1], [1]))  # (C, W, Hf)
    out_data = np.tensordot(t, wx, axes=([1], [1]))  # (C, Hf, Wf)
    out = Tensor(_cast(out_data[:, :height, :width], x.dtype))

    if _recording():

        def grad_fn(g):
            full = np.zeros((C, Hf, Wf))
            full[:, :height, :width] = g
            t2 = np.tensordot(full, wy, axes=([1], [0]))  # (C, Wf, H)
            dx = np.tensordot(t2, wx, axes=([1], [0]))  # (C, H, W)
            return (dx,)

        _record(out, (x,), grad_fn)
    return out


def softmax(x):
    """Softmax over the last axis; output rows sum to one."""
    z = _f64(x.data)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(_cast(s, x.dtype))

    if _recording():

        def grad_fn(g):
            g64 = _f64(g)
            dot = (g64 * s).sum(axis=-1, keepdims=True)
            return (s * (g64 - dot),)

        _record(out, (x,), grad_fn)
    return out


# ---------------------------------------------------------------------------
# losses


def weighted_softmax_ce(logits, targets, weights):
    """Mean over positions of weights[target] * (-log softmax(logits)[target]).

    logits is [L, ...]: L scores at each position of its trailing axes,
    taken in C order; targets holds one int per position; weights is a
    length-L positive vector. Returns a scalar tensor, and a gradient in the
    logits' shape.
    """
    L = logits.shape[0]
    z = _f64(logits.data).reshape(L, -1)
    P = z.shape[1]
    t = np.asarray(targets, dtype=np.intp).reshape(-1)
    if t.shape[0] != P:
        raise ContractViolation(f"{t.shape[0]} targets for {P} positions")
    bad = np.nonzero((t < 0) | (t >= L))[0]
    if bad.size:
        raise ContractViolation(
            f"target label {t[bad[0]]} out of range [0, {L}) at position {bad[0]}"
        )
    w = np.asarray(weights, dtype=np.float64).reshape(-1)
    if w.shape[0] != L:
        raise ContractViolation(f"{w.shape[0]} weights for {L} labels")

    z = z - z.max(axis=0, keepdims=True)
    logsumexp = np.log(np.exp(z).sum(axis=0))
    cols = np.arange(P)
    logp_t = z[t, cols] - logsumexp
    wt = w[t]
    loss = -(wt * logp_t).sum() / P
    out = Tensor(np.asarray(loss), dtype=logits.dtype)

    if _recording():

        def grad_fn(g):
            soft = np.exp(z - logsumexp[None, :])
            d = soft * wt[None, :]
            d[t, cols] -= wt
            return ((g.item() / P * d).reshape(logits.shape),)

        _record(out, (logits,), grad_fn)
    return out


def softmax_ce(logits, target):
    """Plain cross-entropy of a logit vector against one class index."""
    return weighted_softmax_ce(logits, [target], np.ones(logits.shape[0]))


# ---------------------------------------------------------------------------
# arithmetic glue


def add(x, y):
    if x.shape != y.shape:
        raise ContractViolation(f"add shape mismatch: {tuple(x.shape)} vs {tuple(y.shape)}")
    out = Tensor(x.data + y.data)
    if _recording():
        _record(out, (x, y), lambda g: (g, g))
    return out


def scale(x, alpha):
    out = Tensor(_cast(x.data * float(alpha), x.dtype))
    if _recording():
        _record(out, (x,), lambda g: (g * float(alpha),))
    return out


def weighted_sum(x, weights):
    """Scalar dot of x with a constant array of the same shape."""
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != x.shape:
        raise ContractViolation(f"weighted_sum shape mismatch: {tuple(x.shape)} vs {w.shape}")
    out = Tensor(np.asarray((x.data * w).sum()), dtype=x.dtype)
    if _recording():
        _record(out, (x,), lambda g: (g.item() * w,))
    return out


def he_normal(rng, shape, fan_in):
    """He fan-in init used for all conv/linear weights."""
    std = math.sqrt(2.0 / fan_in)
    # allocated before any draw, so no freed draw leaves a heap hole under the weight
    out = np.empty(shape, DEFAULT_DTYPE)
    flat = out.reshape(-1)
    # each chunk is scaled in place (a multiply cast into `out` would stage a
    # 64 KiB buffer too), cast into the weight, and freed before the next draw
    for s in range(0, flat.size, HE_DRAW_CHUNK):
        draw = rng.standard_normal(min(HE_DRAW_CHUNK, flat.size - s))
        draw *= std
        flat[s : s + draw.size] = draw
        del draw
    return Tensor(out)
