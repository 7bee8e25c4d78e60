"""Seeded input generation for the three workloads.

Everything here derives from the workload seed alone; the package under
test only ever receives the generated sketches, label maps and rankings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from sketchparts.autograd import make_rng
from sketchparts.corpus import DEFAULT_TAXONOMY_TEXT, CorpusSpec, draw_figure, make_sample
from sketchparts.imaging import Raster
from sketchparts.poses import POSES
from sketchparts.taxonomy import load_taxonomy

SIZE = 128  # the CorpusSpec default image size

# Non-square sketch shapes. Each is divisible by the trunk stride and has
# about the area of a 128x128 sketch, so cost per sketch stays flat and the
# latency tail measures the code rather than the mix of sizes.
NON_SQUARE_SHAPES = ((112, 144), (144, 112), (96, 168), (168, 96))
NON_SQUARE_PER_POOL = 16  # of 64 sketches: one in four
ROUTED_BLOCK = 4  # units per visiting block, one of them non-square

# Each query ranks its own seeded draw of 64 maps from a 192-map gallery, so
# top_t=50 leaves a 14-entry tail. The large pools keep the mean cost of a
# query steady from seed to seed.
GALLERY_PER_CATEGORY = 24
RANKING_LENGTH = 64
QUERIES_PER_CATEGORY = 32
CORPUS_PER_CATEGORY = 10


def taxonomy():
    return load_taxonomy(DEFAULT_TAXONOMY_TEXT)


def fit_canvas(pixels, height, width):
    """Centre-crop or blank-pad a 2-d array to height x width."""
    out = np.zeros((height, width), dtype=pixels.dtype)
    h, w = pixels.shape
    ch, cw = min(h, height), min(w, width)
    sy, sx = (h - ch) // 2, (w - cw) // 2
    dy, dx = (height - ch) // 2, (width - cw) // 2
    out[dy : dy + ch, dx : dx + cw] = pixels[sy : sy + ch, sx : sx + cw]
    return out


@dataclass(frozen=True)
class RoutedSketch:
    sketch: Raster
    category: str
    pose: str

    @property
    def square(self):
        return self.sketch.height == self.sketch.width


def routed_sketches(seed, tax):
    """One sketch per (category, pose): 8 x 8 = 64, a quarter of them non-square."""
    pool = []
    for ci, category in enumerate(tax.categories):
        for pi, pose in enumerate(POSES):
            sample = make_sample(category, pose, make_rng((seed, 1, ci, pi)), SIZE, tax)
            pool.append(RoutedSketch(sample.sketch, category, pose))
    picks = make_rng((seed, 2)).permutation(len(pool))[:NON_SQUARE_PER_POOL]
    for k, idx in enumerate(picks):
        h, w = NON_SQUARE_SHAPES[k % len(NON_SQUARE_SHAPES)]
        item = pool[idx]
        sketch = Raster(fit_canvas(item.sketch.pixels, h, w))
        pool[idx] = RoutedSketch(sketch, item.category, item.pose)
    return pool


def unit_order(seed, pool_size, count):
    """Seeded visiting order over a pool: whole permutations, back to back."""
    rng = make_rng((seed, 6))
    order = []
    while len(order) < count:
        order.extend(int(i) for i in rng.permutation(pool_size))
    return order[:count]


def routed_order(seed, pool, count):
    """Seeded visiting order over the routed pool in blocks of ROUTED_BLOCK
    units, each holding exactly one non-square sketch at a seeded place, so
    any whole number of blocks has the same non-square share on every seed."""
    rng = make_rng((seed, 7))
    square = [i for i, s in enumerate(pool) if s.square]
    other = [i for i, s in enumerate(pool) if not s.square]
    assert len(square) == (ROUTED_BLOCK - 1) * len(other)
    order = []
    while len(order) < count:
        sq = [square[int(i)] for i in rng.permutation(len(square))]
        ns = [other[int(i)] for i in rng.permutation(len(other))]
        for b, odd in enumerate(ns):
            block = sq[b * (ROUTED_BLOCK - 1) : (b + 1) * (ROUTED_BLOCK - 1)]
            block.insert(int(rng.integers(0, ROUTED_BLOCK)), odd)
            order.extend(block)
    return order[:count]


def _figures(seed, stream, per_category, tax):
    """Ground-truth label maps; poses cycle through all eight, because the
    pose sets how many instances (wheels, windows) a figure shows and so the
    cost of matching it."""
    out = []
    for ci, category in enumerate(tax.categories):
        ids = tax.category_part_ids(category)
        for i in range(per_category):
            rng = make_rng((seed, stream, ci, i))
            pose = POSES[i % len(POSES)]
            _, labels = draw_figure(category, pose, rng, SIZE, ids)
            out.append((f"{category}-{i:02d}", labels))
    return out


@dataclass(frozen=True)
class RerankQuery:
    query: object  # LabelMap of a held-out figure
    candidates: list  # (gallery id, LabelMap), in the initial ranking order


def rerank_queries(seed, tax):
    """Held-out ground-truth queries, each with its own seeded gallery ranking."""
    gallery = _figures(seed, 3, GALLERY_PER_CATEGORY, tax)
    held_out = _figures(seed, 4, QUERIES_PER_CATEGORY, tax)
    queries = []
    for qi, (_, labels) in enumerate(held_out):
        ranking = make_rng((seed, 5, qi)).permutation(len(gallery))[:RANKING_LENGTH]
        queries.append(RerankQuery(labels, [gallery[int(i)] for i in ranking]))
    return queries


def training_corpus(seed, tax):
    """The in-memory equivalent of gen_corpus at the CorpusSpec default size."""
    spec = CorpusSpec(tax, per_category=CORPUS_PER_CATEGORY, seed=seed)
    samples = []
    for ci, category in enumerate(spec.category_list()):
        for i in range(spec.per_category):
            rng = make_rng((spec.seed, ci, i))
            pose = POSES[int(rng.integers(0, len(POSES)))]
            samples.append(make_sample(category, pose, rng, spec.image_size, tax))
    return samples
