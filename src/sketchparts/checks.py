"""Self-contained invariant checks: finite-difference gradients plus the
brute-force oracles behind `selfcheck`.

This module is the one home of every oracle that `selfcheck` runs
(`gradcheck` with its `probe` direction, `iou_bruteforce`,
`balance_bruteforce`, `best_assignment`) and of the one list of gradient
cases, `GRADIENT_CASES`, on non-square shapes. Tier-1 runs each case by
name and the whole suite at several seeds, so no test restates a
comparison made here. Loop replicas of production code that only the
tests use stay in `tests/oracles.py`.

The gradient checker only ever calls forward evaluations, so it is an
independent oracle for the taped backward pass. Run it on float64 tensors;
float32 storage drowns the difference quotient in rounding noise. The
other oracles are deliberately written as plain loops, independent of the
vectorized production paths they validate.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import autograd
from .autograd import ConvSpec
from .errors import ContractViolation, check_count


def fd_gradients(fn, tensors, eps=1e-3):
    """Numeric gradients of scalar fn() w.r.t. each tensor, by central differences.

    fn must read the current .data of the given tensors; entries are
    perturbed in place one at a time.
    """
    grads = []
    for t in tensors:
        g = np.zeros_like(t.data, dtype=np.float64)
        flat = t.data.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            hi = fn().data.item()
            flat[i] = keep - eps
            lo = fn().data.item()
            flat[i] = keep
            g.reshape(-1)[i] = (hi - lo) / (2 * eps)
        grads.append(g)
    return grads


def max_rel_error(analytic, numeric):
    """max |a - n| / max(1, |a|, |n|) over all entries of all gradients."""
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
        worst = max(worst, float((np.abs(a - n) / denom).max()))
    return worst


def gradcheck(fn, tensors, eps=1e-3, tol=1e-4):
    """Tape fn(), backprop, and compare every tensor's grad to central differences.

    Returns the worst relative error; raises AssertionError above tol.
    """
    with autograd.Tape() as tape:
        loss = fn()
    autograd.backward(tape, loss)
    analytic = [t.grad if t.grad is not None else np.zeros_like(t.data) for t in tensors]
    numeric = fd_gradients(fn, tensors, eps=eps)
    err = max_rel_error(analytic, numeric)
    if err > tol:
        raise AssertionError(f"gradient mismatch: rel err {err:.3e} > {tol:.1e}")
    return err


def probe(rng, op):
    """Collapse an op's output to a scalar against a fixed random direction."""
    w = rng.standard_normal(op().shape)
    return lambda: autograd.weighted_sum(op(), w)


def iou_bruteforce(pred, gt):
    """Per-part IOU of two label arrays by explicit pixel counting;
    returns (dict, sIOU)."""
    pairs = list(zip(gt.reshape(-1).tolist(), pred.reshape(-1).tolist()))
    out = {}
    for part in sorted({g for g, _ in pairs if g != 0}):
        inter = truth = predicted = 0
        for g, q in pairs:
            truth += g == part
            predicted += q == part
            inter += g == part and q == part
        union = truth + predicted - inter
        out[part] = inter / union if union else 0.0
    return out, (sum(out.values()) / len(out) if out else 0.0)


def balance_bruteforce(label_arrays, n_labels):
    """alpha per label, background included, from plain dict counting over
    label arrays."""
    pixels, images = {}, {}
    for arr in label_arrays:
        values = arr.reshape(-1).tolist()
        for v in values:
            pixels[v] = pixels.get(v, 0) + 1
        for v in set(values):
            images[v] = images.get(v, 0) + 1
    f = {label: pixels.get(label, 0) / images[label] for label in range(n_labels)}
    fs = sorted(f.values())
    n = len(fs)
    median = fs[n // 2] if n % 2 else (fs[n // 2 - 1] + fs[n // 2]) / 2
    return {label: median / f[label] for label in f}


def best_assignment(affinity):
    """Exhaustive max of x^T A x over complete constrained assignments:
    the global pair plus a one-to-one matching within each part. Returns
    (pairs, score); the first assignment reaching the maximum wins."""
    from .graphmatch import GLOBAL

    groups = {}
    for side, graph in enumerate((affinity.query, affinity.cand)):
        for i, part in enumerate(graph.part.tolist()):
            groups.setdefault(part, ([], []))[side].append(i)
    if any(len(qs) != len(cs) for qs, cs in groups.values()):
        raise ContractViolation("each part needs as many query as candidate nodes")
    group_perms = [
        [list(zip(qs, p)) for p in itertools.permutations(cs)]
        for _, (qs, cs) in sorted(groups.items())
    ]
    index = {pair: k for k, pair in enumerate(affinity.candidates)}
    best_score, best_pairs = -1.0, None
    for combo in itertools.product(*group_perms):
        pairs = [(GLOBAL, GLOBAL)] + [pair for group in combo for pair in group]
        x = np.zeros(len(affinity.candidates))
        x[[index[pair] for pair in pairs]] = 1.0
        score = float(x @ affinity.matrix @ x)
        if score > best_score:
            best_score, best_pairs = score, dict(pairs)
    return best_pairs, best_score


# ---------------------------------------------------------------------------
# the selfcheck suite


def _t64(rng, shape):
    return autograd.Tensor(rng.standard_normal(shape))


def _probed(op, *shapes):
    """A case that probes op on float64 inputs of the given shapes."""

    def build(rng):
        tensors = [_t64(rng, shape) for shape in shapes]
        return probe(rng, lambda: op(*tensors)), tensors

    return build


def _conv(in_shape, spec):
    f, k = spec.out_channels, spec.kernel
    weights = (f, in_shape[0], k, k)
    return _probed(lambda x, w, b: autograd.conv2d(x, w, b, spec), in_shape, weights, (f,))


def _maxpool(rng):
    # distinct positive values 0.1 apart, so each window's argmax holds under
    # the perturbation and never ties the zero padding
    x = autograd.Tensor((rng.permutation(70) + 1).reshape(2, 5, 7) * 0.1)
    return probe(rng, lambda: autograd.maxpool2d(x, 3, 2)), [x]


def _relu(rng):
    # every entry further from the kink at 0 than the perturbation reaches
    x = _t64(rng, (2, 3, 5))
    x.data += np.copysign(0.01, x.data)
    return probe(rng, lambda: autograd.relu(x)), [x]


def _dropout(rng):
    seed = int(rng.integers(1 << 30))
    x = _t64(rng, (2, 3, 5))

    def dropped():
        return autograd.dropout(x, 0.4, autograd.make_rng(seed), training=True)

    return probe(rng, dropped), [x]


def _weighted_softmax_ce(rng):
    logits = _t64(rng, (4, 6))
    targets = rng.integers(0, 4, size=6)
    weights = rng.random(4) + 0.5
    return lambda: autograd.weighted_softmax_ce(logits, targets, weights), [logits]


def _softmax_ce(rng):
    logits = _t64(rng, (8,))
    target = int(rng.integers(8))
    return lambda: autograd.softmax_ce(logits, target), [logits]


# conv2d's geometries in the nets, none of them square
CONV_SHAPES = {
    "k15_s3": ((1, 19, 25), ConvSpec(15, 2, stride=3)),  # router c0
    "k5_s1": ((3, 7, 10), ConvSpec(5, 4)),  # router c1
    "k3_s2": ((2, 9, 13), ConvSpec(3, 3, stride=2)),  # parser shared c0-c2
    "k3_r2": ((2, 7, 11), ConvSpec(3, 3, dilation=2)),  # parser shared c3-c4, branch c0
    "k3_s2_r2": ((2, 9, 13), ConvSpec(3, 3, stride=2, dilation=2)),  # pose head c0-c1
    "k11_over_4x5": ((2, 4, 5), ConvSpec(11, 3)),  # pose head: taps wholly in the padding
    "k1_unpadded": ((3, 5, 7), ConvSpec(1, 4)),  # router c5: 1x1, no padding
}

# The one list of gradient cases, each a builder that takes an rng and
# returns gradcheck's scalar fn and the tensors it differentiates. The ops
# are looked up on `autograd` when a case runs, so a patched op is the one
# checked.
GRADIENT_CASES = {
    **{f"conv2d_{name}": _conv(*shape) for name, shape in CONV_SHAPES.items()},
    "maxpool2d": _maxpool,
    "linear": _probed(lambda x, w, b: autograd.linear(x, w, b), (4,), (3, 4), (3,)),
    "softmax": _probed(lambda v: autograd.softmax(v), (6,)),
    "bilinear_upsample": _probed(lambda x: autograd.bilinear_upsample(x, 4, 12, 28), (2, 3, 7)),
    # cut below its 6x10 grid, so the backward's zero-pad is checked too
    "bilinear_upsample_cut": _probed(lambda x: autograd.bilinear_upsample(x, 2, 3, 9), (2, 3, 5)),
    "scale": _probed(lambda x: autograd.scale(x, -1.7), (2, 3, 5)),
    "global_average_pool": _probed(lambda x: autograd.global_average_pool(x), (2, 3, 5)),
    "relu": _relu,
    "dropout": _dropout,
    "weighted_softmax_ce": _weighted_softmax_ce,
    "softmax_ce": _softmax_ce,
}


def _check_gradients(rng):
    for name, build in GRADIENT_CASES.items():
        try:
            gradcheck(*build(rng))
        except AssertionError as exc:
            raise AssertionError(f"{name}: {exc}") from None


def _check_class_balance(rng):
    from .augment import PairedSample
    from .imaging import LabelMap, Raster
    from .taxonomy import load_taxonomy
    from .training import compute_class_balance

    tax = load_taxonomy("super S\ncat thing : a, b, c\n")
    for _ in range(10):
        arrays = []
        for _ in range(int(rng.integers(2, 6))):
            arr = (rng.random((8, 8)) * 4).astype(np.uint8)
            arr[0, :4] = [1, 2, 3, 1]
            arrays.append(arr)
        samples = [
            PairedSample(Raster(np.zeros_like(a)), LabelMap(a), "thing", "E") for a in arrays
        ]
        got = compute_class_balance(samples, 0, tax)
        want = balance_bruteforce(arrays, 4)
        for c in range(4):
            if abs(got[c] - want[c]) > 1e-12:
                raise AssertionError(f"class balance differs at label {c}")


def _check_iou(rng):
    from .imaging import LabelMap
    from .metrics import sketch_iou

    for _ in range(20):
        gt = (rng.random((8, 8)) * 4).astype(np.uint8)
        pred = (rng.random((8, 8)) * 4).astype(np.uint8)
        got_parts, got_siou = sketch_iou(LabelMap(pred), LabelMap(gt))
        want, siou = iou_bruteforce(pred, gt)
        if got_parts != want:
            raise AssertionError("sketch_iou differs from pixel-count oracle")
        if got_siou != siou:
            raise AssertionError("sIOU differs from pixel-count oracle")


def _check_rrwm(rng):
    from .graphmatch import GLOBAL, AttributeGraph, build_affinity, rrwm_match

    for _ in range(10):
        n = int(rng.integers(2, 5))
        part = np.sort(rng.choice([1, 2], size=n)).astype(np.int64)
        cents = 0.2 + 0.6 * rng.random((n, 2))
        subtended = [float(rng.uniform(0.2, 1.5)) for _ in range(n)]
        nodes = np.column_stack([subtended, cents, np.full(n, 1.0 / n)])
        # no local edges, only each node's anchor to the global node
        edges = np.full((2, n + 1, n + 1), np.nan)
        dy, dx = (cents - 0.5).T.tolist()
        edges[:, :n, n] = edges[:, n, :n] = [list(map(math.hypot, dy, dx)),
                                             list(map(math.atan2, dy, dx))]
        hist = np.column_stack(np.unique(part, return_counts=True))
        g = AttributeGraph(part, nodes, edges, hist, 0.5)
        aff = build_affinity(g, g)
        result = rrwm_match(aff)
        best_pairs, _ = best_assignment(aff)
        if result.pairs != best_pairs:
            raise AssertionError("rrwm disagrees with exhaustive enumeration")
        if result.pairs[GLOBAL] != GLOBAL:
            raise AssertionError("global constraint violated")


def run_selfcheck(seed):
    """Run every invariant check at `seed`, an integer >= 0; returns a list
    of (name, passed, detail)."""
    check_count("seed", seed)

    checks = [
        ("gradients-vs-finite-differences", _check_gradients),
        ("class-balance-oracle", _check_class_balance),
        ("iou-oracle", _check_iou),
        ("rrwm-permutation-oracle", _check_rrwm),
    ]
    results = []
    for name, fn in checks:
        try:
            fn(autograd.make_rng((seed, len(name))))
            results.append((name, True, ""))
        except AssertionError as exc:
            results.append((name, False, str(exc)))
    return results
