"""Brute-force reference implementations used by unit and acceptance tests.

Everything here is deliberately written as plain loops over pixels and
dicts, independent of the library's vectorized paths.
"""

import math

import numpy as np


def iou_bruteforce(pred, gt):
    """Per-part IOU by explicit pixel counting; returns (dict, sIOU)."""
    h, w = gt.shape
    parts = sorted({int(v) for v in gt.reshape(-1) if v != 0})
    out = {}
    for part in parts:
        n_ii = 0
        t_i = 0
        predicted_as_i = 0
        for r in range(h):
            for c in range(w):
                if gt[r, c] == part:
                    t_i += 1
                    if pred[r, c] == part:
                        n_ii += 1
                if pred[r, c] == part:
                    predicted_as_i += 1
        union = t_i + predicted_as_i - n_ii
        out[part] = n_ii / union if union else 0.0
    siou = sum(out.values()) / len(out) if out else 0.0
    return out, siou


def balance_bruteforce(label_arrays, n_labels, include_background):
    """alpha per label from plain dict counting over label arrays."""
    pixels = {}
    images = {}
    start = 0 if include_background else 1
    for arr in label_arrays:
        seen = set()
        for v in arr.reshape(-1):
            v = int(v)
            pixels[v] = pixels.get(v, 0) + 1
            seen.add(v)
        for v in seen:
            images[v] = images.get(v, 0) + 1
    f = {}
    for label in range(start, n_labels):
        f[label] = pixels.get(label, 0) / images[label]
    fs = sorted(f.values())
    n = len(fs)
    median = fs[n // 2] if n % 2 else (fs[n // 2 - 1] + fs[n // 2]) / 2
    alpha = {label: median / f[label] for label in f}
    if not include_background:
        alpha[0] = 1.0
    return alpha


def conv2d_bruteforce(x, w, b, stride, dilation, pad):
    """Six-loop convolution oracle."""
    C, H, W = x.shape
    F, _, k, _ = w.shape
    xp = np.zeros((C, H + 2 * pad, W + 2 * pad), dtype=np.float64)
    xp[:, pad : pad + H, pad : pad + W] = x
    eff = dilation * (k - 1) + 1
    Ho = (H + 2 * pad - eff) // stride + 1
    Wo = (W + 2 * pad - eff) // stride + 1
    out = np.zeros((F, Ho, Wo))
    for f in range(F):
        for i in range(Ho):
            for j in range(Wo):
                acc = 0.0
                for c in range(C):
                    for u in range(k):
                        for v in range(k):
                            acc += (
                                xp[c, i * stride + u * dilation, j * stride + v * dilation]
                                * w[f, c, u, v]
                            )
                out[f, i, j] = acc + b[f]
    return out


def maxpool2d_bruteforce(x, window, stride, g):
    """Window-loop max pool of x[C,H,W] and the input gradient for output
    gradient g. Windows start every `stride` pixels until one reaches the
    bottom/right edge, and cells past the edge read as zero. The first
    maximum in scan order wins; gradients add up where windows overlap."""
    C, H, W = x.shape

    def starts(size):
        n = 1
        while (n - 1) * stride + window < size:
            n += 1
        return n

    Ho, Wo = starts(H), starts(W)
    out = np.zeros((C, Ho, Wo))
    dx = np.zeros((C, H, W))
    for c in range(C):
        for i in range(Ho):
            for j in range(Wo):
                best, at = None, None
                for u in range(window):
                    for v in range(window):
                        r, q = i * stride + u, j * stride + v
                        val = x[c, r, q] if r < H and q < W else 0.0
                        if best is None or val > best:
                            best, at = val, (r, q)
                out[c, i, j] = best
                if at[0] < H and at[1] < W:
                    dx[c, at[0], at[1]] += g[c, i, j]
    return out, dx


def interp_matrix_loop(n_out, n_in):
    """Row loop building the mirror-symmetric bilinear resampling matrix:
    row i and its mirror row n_out-1-i get reflected weights."""
    m = np.zeros((n_out, n_in), dtype=np.float64)
    scale = n_in / n_out
    for i in range((n_out + 1) // 2):
        src = min(max((i + 0.5) * scale - 0.5, 0.0), n_in - 1.0)
        lo = int(math.floor(src))
        hi = min(lo + 1, n_in - 1)
        t = src - lo
        m[i, lo] += 1.0 - t
        m[i, hi] += t
        j = n_out - 1 - i
        if j != i:
            m[j, n_in - 1 - lo] += 1.0 - t
            m[j, n_in - 1 - hi] += t
    return m


def enumerate_assignments(slots):
    """All one-to-one assignments given per-query candidate lists.

    slots is a list of candidate tuples per query node; yields tuples with
    one choice per node, no candidate reused, or None for unmatched.
    """
    def rec(i, used, acc):
        if i == len(slots):
            yield tuple(acc)
            return
        for cand in slots[i]:
            if cand not in used:
                yield from rec(i + 1, used | {cand}, acc + [cand])

    yield from rec(0, frozenset(), [])
