"""Dense tensors with taped reverse-mode differentiation.

Small by design: exactly the primitives the parser, pose head and router
classifier need. Values are stored in float32 by default. The conv and
linear GEMMs (forward, weight and input gradients) run in the operands' own
dtype, np.result_type(x, w): float32 nets use sgemm. The bias gradient,
softmax, log-sum-exp cross-entropy, global average pool and weighted_sum
accumulate in float64 before the result is cast back. Tests construct
float64 tensors to run the same code as a full-precision shadow, so
finite-difference checks stay tight.

Every tensor receives a gradient unless it was built with
requires_grad=False, as the raw sketch input of model.sketch_input is:
conv2d skips the input gradient of such a tensor, and backward() never
fills its .grad. backward() sums the gradients one tensor receives in tape
order. From the third on it adds them in place into the sum it allocated
at the second, unless the add would promote that sum's dtype; it never
writes into an array a grad_fn returned or received, which may be a view
or passed to two inputs.

Conv forward builds its im2col patch matrix in two copies: the k column
shifts of every zero-padded row, then each tap's rows of that buffer, which
for stride 1 are whole contiguous Ho*Wo runs. One GEMM multiplies it by
the (F, C*k*k) weights. Conv backward is one GEMM for dw (the output
gradient against the same patch matrix, rebuilt from the padded input
rather than kept on the tape) and one for dx (the transposed weights
against the output gradient). The dx columns are laid out channel-last and
scattered into an (Hp, Wp, C) buffer by one slice-add per kernel tap, in
tap order, so each add runs over rows of Wo*C values; a tap that reads
only zero padding along a side is skipped, since the crop to the input
drops everything it would write.

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


def backward(tape, loss):
    """Replay `tape` in reverse from scalar `loss`, filling leaf .grad slots."""
    if tape.consumed:
        raise ContractViolation("tape has already been replayed backward once")
    if loss.data.size != 1:
        raise ContractViolation(f"loss must be scalar, got shape {tuple(loss.shape)}")
    tape.consumed = True

    pending = {id(loss): np.ones_like(loss.data)}
    holders = {id(loss): loss}
    # ids whose pending sum is an array this loop allocated: the only sums
    # it adds into in place, and only while the add keeps their dtype. A
    # grad_fn may return a view of its input gradient, or one array for two
    # inputs, so those are never written.
    owned = set()
    produced = {id(out) for out, _, _ in tape.entries}

    for out, inputs, grad_fn in reversed(tape.entries):
        g = pending.pop(id(out), None)
        holders.pop(id(out), None)
        owned.discard(id(out))
        if g is None:
            continue  # not on the path from loss
        for tensor, grad in zip(inputs, grad_fn(g)):
            if grad is None:
                continue
            tid = id(tensor)
            acc = pending.get(tid)
            if acc is None:
                pending[tid] = grad
                holders[tid] = tensor
            elif tid in owned and np.result_type(acc, grad) == acc.dtype:
                np.add(acc, grad, out=acc)
            else:
                pending[tid] = acc + grad
                owned.add(tid)

    for tid, tensor in holders.items():
        if tid not in produced and tensor.requires_grad:
            tensor.grad = pending[tid].astype(tensor.dtype, copy=False).reshape(tensor.shape)


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
    """Geometry of one conv layer: kernel width, stride, dilation rate, output
    channels, and the zero-pad margin (defaults to rate*(kernel-1)//2)."""

    kernel: int
    out_channels: int
    stride: int = 1
    dilation: int = 1
    pad: int = None

    def __post_init__(self):
        if self.kernel < 1 or self.stride < 1 or self.dilation < 1:
            raise ContractViolation(
                f"kernel/stride/dilation must be >= 1, got "
                f"{self.kernel}/{self.stride}/{self.dilation}"
            )

    @property
    def padding(self):
        if self.pad is not None:
            return self.pad
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
            db = _f64(g).sum(axis=(1, 2))
            dw = (gd @ _im2col(xp, k, s, r, Ho, Wo).T).reshape(F, C, k, k)
            if not x.requires_grad:
                return None, dw, db
            # channel-last columns and input gradient, so each tap's add
            # runs over whole rows of Wo*C values
            cols = (wd.T @ gd).reshape(C, k, k, Ho, Wo)
            cols = np.ascontiguousarray(cols.transpose(1, 2, 3, 4, 0))
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
                    ] += cols[u, v]
            dx = dxp[p : p + H, p : p + W].transpose(2, 0, 1)
            return dx, dw, db

        _record(out, (x, w, b), grad_fn)
    return out


def maxpool2d(x, window, stride):
    """Max over window x window patches; right/bottom zero-padded so every
    window start inside ceil((S-w)/s)+1 positions is covered. Gradient goes
    to the first maximal element in scan order."""
    if window < 1 or stride < 1:
        raise ContractViolation(f"window/stride must be >= 1, got {window}/{stride}")
    C, H, W = x.shape
    Ho = max(0, -(-(H - window) // stride)) + 1
    Wo = max(0, -(-(W - window) // stride)) + 1
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
            dxp = np.bincount(flat.ravel(), weights=_f64(g).ravel(), minlength=C * Hp * Wp)
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
    out = Tensor(_cast(_f64(x.data).mean(axis=(1, 2)), x.dtype))
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
    np.add.at(m, (rows, lo), w_lo)
    np.add.at(m, (rows, hi), w_hi)
    return m


def bilinear_upsample(x, factor):
    """Upsample x[C,H,W] by an integer factor (align-corners-false)."""
    if int(factor) != factor or factor < 1:
        raise ContractViolation(f"upsample factor must be a positive integer, got {factor}")
    factor = int(factor)
    if factor == 1:
        return x
    C, H, W = x.shape
    wy = _interp_matrix(H * factor, H)
    wx = _interp_matrix(W * factor, W)
    t = np.tensordot(_f64(x.data), wy, axes=([1], [1]))  # (C, W, Hf)
    out_data = np.tensordot(t, wx, axes=([1], [1]))  # (C, Hf, Wf)
    out = Tensor(_cast(out_data, x.dtype))

    if _recording():

        def grad_fn(g):
            t2 = np.tensordot(_f64(g), wy, axes=([1], [0]))  # (C, Wf, H)
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

    logits is [L, P]; targets is a length-P int sequence; weights is a
    length-L positive vector. Returns a scalar tensor.
    """
    L, P = logits.shape
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

    z = _f64(logits.data)
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
            return (g.item() / P * d,)

        _record(out, (logits,), grad_fn)
    return out


def softmax_ce(logits, target):
    """Plain cross-entropy of a logit vector against one class index."""
    (L,) = logits.shape
    flat = reshape(logits, (L, 1))
    return weighted_softmax_ce(flat, [target], np.ones(L))


# ---------------------------------------------------------------------------
# shape / arithmetic glue


def reshape(x, shape):
    out = Tensor(x.data.reshape(shape))
    if _recording():
        _record(out, (x,), lambda g: (g.reshape(x.shape),))
    return out


def crop2d(x, height, width):
    """Keep the top-left height x width window of x[C,H,W]."""
    C, H, W = x.shape
    if height > H or width > W:
        raise ContractViolation(f"crop {height}x{width} exceeds input {H}x{W}")
    out = Tensor(np.ascontiguousarray(x.data[:, :height, :width]))
    if _recording():

        def grad_fn(g):
            dx = np.zeros((C, H, W), dtype=np.float64)
            dx[:, :height, :width] = g
            return (dx,)

        _record(out, (x,), grad_fn)
    return out


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
    out = Tensor(np.asarray((_f64(x.data) * w).sum()), dtype=x.dtype)
    if _recording():
        _record(out, (x,), lambda g: (g.item() * w,))
    return out


def he_normal(rng, shape, fan_in):
    """He fan-in init used for all conv/linear weights."""
    std = math.sqrt(2.0 / fan_in)
    return Tensor((rng.standard_normal(shape) * std).astype(DEFAULT_DTYPE))
