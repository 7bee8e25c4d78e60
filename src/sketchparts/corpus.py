"""Procedural corpus of part-labelled figures.

Each category is a parametric template: a body plus appendages placed
around it, rasterized straight onto the label grid. The figure's facing
direction puts the "front" part (head, windows, nose) along the pose
vector and the tail opposite, so pose stays recoverable from the part
layout alone. A flat-gray synthetic photo accompanies every label map;
sketchifying that pair produces the training sketch.

Each part primitive evaluates its float64 arithmetic only on the canvas
window that can contain the part, widened by one pixel against rounding,
and leaves the rest of its mask False. The window is exact: every cell
outside it is False on the whole-canvas grid too.
- A superellipse of power p > 0 has rho = (|x|^p + |y|^p)^(1/p) >=
  max(|x|, |y|) in its own (rotated, radius-scaled) frame, and a cell is
  inside only when rho <= 1 + amp * sin(...) <= peak = 1 + |amp|. So an
  inside cell has |x| <= peak and |y| <= peak, which puts it at most
  peak * (|cos| rx + |sin| ry) from the centre horizontally and
  peak * (|sin| rx + |cos| ry) vertically.
- A capsule's nearest segment point lies in the segment's bounding box, so
  an inside cell is within half_width of that box.
Inside the window each cell gets the same arithmetic, so the masks, and so
every corpus byte, are those of the whole-canvas evaluation.

Dataset layout on disk, the one statement of it that every command follows:

    <root>/taxonomy.tax
    <root>/<category>/<id>.sketch.pgm
    <root>/<category>/<id>.labels.pgm
    <root>/poses.csv            # header relative_path,pose; rows: sketch path,pose

A sample is named by its file's path less its suffix, as cat/0000 for
cat/0000.sketch.pgm (SKETCH) and cat/0000.labels.pgm (LABELS). Predictions
keep the name: infer writes cat/0000.pred.pgm (PRED) and cat/0000.json
(RECORD). sample_path(root, name, suffix) builds each such path. A sample's
category is the name of the folder that holds its file (category_of).

A root may hold a tree of corpora instead, and any path inside one, a root,
a tree, a category folder or one file, reads as that slice of the corpus:
- sample_files walks it. Names are relative to the given path, or to a
  file's own folder: a/cat/0000 under a tree, 0000 under <root>/cat and for
  <root>/cat/0000.sketch.pgm. sketch_files takes, in a folder with no
  .sketch.pgm under it, every .pgm but a label map or a prediction.
- read_poses reads every poses.csv under it, keyed by sketch path relative
  to it, as a/cat/0000.sketch.pgm under a tree. With none under it, it
  reads the nearest poses.csv above it, keeping the rows of files under it,
  or, for a label map, the row of its own sample's sketch.
- read_taxonomy reads every taxonomy.tax under it, which must name the one
  taxonomy of the tree. With none under it, it reads the nearest
  taxonomy.tax above it, so <root>/cat reads <root>/taxonomy.tax; with none
  there either, the default.

A training run's folder and a folder of predictions are roots too: each
holds the taxonomy.tax of the taxonomy its checkpoint or label maps were
written for (write_taxonomy), so <run>/model.ckpt and
<preds>/cat/0000.pred.pgm read theirs as a corpus sample does.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .augment import PairedSample, sketchify
from .autograd import make_rng
from .errors import ConfigError, check_fields
from .imaging import LabelMap, Raster
from .pgm import read_pgm, write_pgm
from .poses import POSES, direction
from .taxonomy import Taxonomy, load_taxonomy, load_taxonomy_file

DEFAULT_TAXONOMY_TEXT = """\
super Small Animals
cat cat : head, body, leg, tail
cat dog : head, body, leg, tail
super Large Animals
cat horse : head, body, leg, tail
cat cow : head, body, leg, tail
super Four Wheelers
cat car : body, wheel, window
cat bus : body, wheel, window
super Flying Things
cat airplane : body, wing, tail
cat bird : body, wing, tail
"""

BACKGROUND_GRAY = 248
POSES_HEADER = ["relative_path", "pose"]  # the first row of every poses.csv
# the suffix of each file of a sample; its name is the file's path less it
SKETCH, LABELS, PRED, RECORD = ".sketch.pgm", ".labels.pgm", ".pred.pgm", ".json"
# largest canvas side a corpus is drawn at; far past it a single figure's
# masks no longer fit in memory
MAX_IMAGE_SIZE = 2048


@dataclass(frozen=True)
class CorpusSpec:
    taxonomy: Taxonomy
    per_category: int
    seed: int
    image_size: int = 128
    categories: tuple = ()  # empty means every taxonomy category; a list is stored as a tuple

    def __post_init__(self):
        check_fields(self, ints=("per_category", "image_size", "seed"), names=("categories",))
        repeated = sorted({c for c in self.categories if self.categories.count(c) > 1})
        if repeated:
            raise ConfigError(f"categories name {repeated} more than once")
        if self.per_category < 1:
            raise ConfigError(f"per_category must be positive, got {self.per_category}")
        if self.image_size < 32:
            raise ConfigError(f"image size {self.image_size} is too small to draw on")
        if self.image_size > MAX_IMAGE_SIZE:
            raise ConfigError(
                f"image size {self.image_size} is above the maximum of {MAX_IMAGE_SIZE}"
            )

    def category_list(self):
        cats = list(self.categories) if self.categories else list(self.taxonomy.categories)
        for c in cats:
            if c not in TEMPLATES:
                raise ConfigError(f"no figure template for category {c!r}")
            self.taxonomy.branch_of(c)  # raises for categories outside the taxonomy
        return cats


# ---------------------------------------------------------------------------
# mask primitives


def _span(lo, hi, size):
    """Canvas indices [start, stop) within one pixel of [lo, hi], clipped to
    the canvas; start == stop when the interval misses it."""
    start = min(size, max(0, math.ceil(lo - 1)))
    return start, max(start, min(size, math.floor(hi + 1) + 1))


def _window(size, x_lo, x_hi, y_lo, y_hi):
    """An all-False size x size mask, the float64 column coordinates (a row
    vector) and row coordinates (a column vector) of its cells within one
    pixel of the box [x_lo, x_hi] x [y_lo, y_hi], and the slices of those
    cells in the mask. The vectors broadcast to the window's grid."""
    j0, j1 = _span(x_lo, x_hi, size)
    i0, i1 = _span(y_lo, y_hi, size)
    jj = np.arange(j0, j1, dtype=np.float64)[None, :]
    ii = np.arange(i0, i1, dtype=np.float64)[:, None]
    return np.zeros((size, size), dtype=bool), jj, ii, (slice(i0, i1), slice(j0, j1))


def _ellipse(size, cx, cy, rx, ry, tilt=0.0, wobble=None, power=2.0):
    c, s = math.cos(tilt), math.sin(tilt)
    peak = 1.0 if wobble is None else 1.0 + abs(wobble[0])
    half_w = peak * (abs(c) * rx + abs(s) * ry)
    half_h = peak * (abs(s) * rx + abs(c) * ry)
    mask, jj, ii, window = _window(size, cx - half_w, cx + half_w, cy - half_h, cy + half_h)
    dx, dy = jj - cx, ii - cy
    if tilt:
        dx, dy = c * dx + s * dy, -s * dx + c * dy
    x, y = dx / rx, dy / ry
    rho = (np.abs(x) ** power + np.abs(y) ** power) ** (1.0 / power)
    lim = 1.0
    if wobble is not None:
        amp, freq, phase = wobble
        lim = 1.0 + amp * np.sin(freq * np.arctan2(y, x) + phase)
    mask[window] = rho <= lim
    return mask


def _box(size, cx, cy, rx, ry, tilt=0.0):
    # superellipse of power 4 reads as a rounded rectangle
    return _ellipse(size, cx, cy, rx, ry, tilt=tilt, power=4.0)


def _capsule(size, p0, p1, half_width):
    (x0, y0), (x1, y1) = p0, p1
    mask, jj, ii, window = _window(
        size,
        min(x0, x1) - half_width,
        max(x0, x1) + half_width,
        min(y0, y1) - half_width,
        max(y0, y1) + half_width,
    )
    vx, vy = x1 - x0, y1 - y0
    norm2 = vx * vx + vy * vy
    if norm2 == 0:
        t = np.zeros_like(jj)
    else:
        t = np.clip(((jj - x0) * vx + (ii - y0) * vy) / norm2, 0.0, 1.0)
    dist = np.hypot(jj - (x0 + t * vx), ii - (y0 + t * vy))
    mask[window] = dist <= half_width
    return mask


def _ellipse_radius_along(rx, ry, ux, uy):
    return 1.0 / math.hypot(ux / rx, uy / ry)


# ---------------------------------------------------------------------------
# figure templates; each returns [(part name, bool mask), ...] in draw order


def _animal(size, pose, rng, p):
    u = size / 128.0
    ux, uy = direction(pose)
    scale = u * rng.uniform(0.94, 1.06)
    cx = size * 0.5 - ux * size * 0.055 + rng.uniform(-3, 3) * u
    cy = size * 0.52 - uy * size * 0.055 + rng.uniform(-3, 3) * u

    brx = p["body_rx"] * scale * rng.uniform(0.95, 1.05)
    bry = p["body_ry"] * scale * rng.uniform(0.95, 1.05)
    wob = (rng.uniform(0.015, 0.04), rng.integers(2, 5), rng.uniform(0, 2 * math.pi))
    body = _ellipse(size, cx, cy, brx, bry, wobble=wob)

    # head sits along the facing direction, slightly overlapping the body
    jit = math.radians(rng.uniform(-8, 8))
    hx, hy = math.cos(jit) * ux - math.sin(jit) * uy, math.sin(jit) * ux + math.cos(jit) * uy
    hr = p["head_r"] * scale * rng.uniform(0.95, 1.05)
    reach = _ellipse_radius_along(brx, bry, hx, hy) + hr * 0.55
    head = _ellipse(size, cx + hx * reach, cy + hy * reach, hr, hr * 0.92, wobble=wob)

    legs = np.zeros_like(body)
    leg_len = p["leg_len"] * scale
    leg_hw = p["leg_w"] * scale / 2.0
    for fx in (-0.62, -0.22, 0.22, 0.62):
        x0 = cx + fx * brx
        y0 = cy + bry * 0.55
        lean = rng.uniform(-0.12, 0.12)
        legs |= _capsule(size, (x0, y0), (x0 + lean * leg_len, y0 + leg_len), leg_hw)

    # tail leaves the rear and sweeps to the side of the facing axis
    tx, ty = -hx, -hy
    reach_t = _ellipse_radius_along(brx, bry, tx, ty)
    t0 = (cx + tx * reach_t * 0.9, cy + ty * reach_t * 0.65)
    sweep = rng.uniform(0.45, 0.75) * (1 if rng.random() < 0.5 else -1)
    tlen = p["tail_len"] * scale
    t1 = (t0[0] + (tx - ty * sweep) * tlen * 0.8, t0[1] + (ty + tx * sweep) * tlen * 0.8)
    tail = _capsule(size, t0, t1, p["tail_w"] * scale / 2.0)

    # tail after legs so back views keep it visible
    return [("body", body), ("leg", legs), ("tail", tail), ("head", head)]


def _vehicle(size, pose, rng, p):
    u = size / 128.0
    ux, uy = direction(pose)
    scale = u * rng.uniform(0.94, 1.06)
    cx = size * 0.5 + rng.uniform(-3, 3) * u
    cy = size * 0.54 + rng.uniform(-3, 3) * u

    # facing north/south shows the narrow end of the vehicle
    wf = 0.55 + 0.45 * abs(ux)
    brx = p["body_rx"] * wf * scale * rng.uniform(0.96, 1.04)
    bry = p["body_ry"] * scale * rng.uniform(0.96, 1.04)
    body = _box(size, cx, cy, brx, bry)

    wheels = np.zeros_like(body)
    wr = p["wheel_r"] * scale * rng.uniform(0.95, 1.05)
    n_wheels = p["wheels"] if abs(ux) > 0.5 else 2
    span = brx - wr * 1.15
    for k in range(n_wheels):
        frac = -1.0 if n_wheels == 1 else -1.0 + 2.0 * k / (n_wheels - 1)
        wheels |= _ellipse(size, cx + frac * span, cy + bry * 0.92, wr, wr)

    # window cluster hangs toward the rear, away from the facing direction
    windows = np.zeros_like(body)
    win_r = p["win_r"] * scale
    wx = cx - ux * brx * 0.38
    wy = cy - bry * 0.32 - uy * bry * 0.25
    n_win = p["windows"] if abs(ux) > 0.5 else 1
    spread = min(brx * 0.55, (n_win - 1) * win_r * 1.4) if n_win > 1 else 0.0
    for k in range(n_win):
        frac = 0.0 if n_win == 1 else -1.0 + 2.0 * k / (n_win - 1)
        windows |= _box(size, wx + frac * spread, wy, win_r, win_r * 0.9)

    return [("body", body), ("wheel", wheels), ("window", windows)]


def _flyer(size, pose, rng, p):
    u = size / 128.0
    ux, uy = direction(pose)
    theta = math.atan2(uy, ux)
    scale = u * rng.uniform(0.94, 1.06)
    cx = size * 0.5 - ux * size * 0.03 + rng.uniform(-3, 3) * u
    cy = size * 0.5 - uy * size * 0.03 + rng.uniform(-3, 3) * u

    blen = p["body_len"] * scale * rng.uniform(0.95, 1.05)
    bw = p["body_w"] * scale * rng.uniform(0.95, 1.05)
    wob = (rng.uniform(0.01, 0.03), rng.integers(2, 4), rng.uniform(0, 2 * math.pi))
    body = _ellipse(size, cx, cy, blen, bw, tilt=theta, wobble=wob, power=p["nose"])

    sweep = math.radians(p["wing_sweep"] + rng.uniform(-6, 6))
    wings = _ellipse(
        size,
        cx + ux * blen * 0.08,
        cy + uy * blen * 0.08,
        p["wing_span"] * scale,
        p["wing_w"] * scale,
        tilt=theta + math.pi / 2 + sweep,
        power=3.0,
    )

    tail = _ellipse(
        size,
        cx - ux * blen * 0.95,
        cy - uy * blen * 0.95,
        p["tail_span"] * scale,
        p["tail_w"] * scale,
        tilt=theta + math.pi / 2,
        power=3.0,
    )

    # body drawn last so the wing and tail bars split into the two halves
    # that stick out on either side
    return [("wing", wings), ("tail", tail), ("body", body)]


TEMPLATES = {
    "cat": (_animal, {"body_rx": 28, "body_ry": 16, "head_r": 13, "leg_len": 19, "leg_w": 13, "tail_len": 22, "tail_w": 11}),
    "dog": (_animal, {"body_rx": 31, "body_ry": 17, "head_r": 14, "leg_len": 23, "leg_w": 14, "tail_len": 18, "tail_w": 12}),
    "fox": (_animal, {"body_rx": 29, "body_ry": 15, "head_r": 11, "leg_len": 18, "leg_w": 12, "tail_len": 26, "tail_w": 15}),
    "horse": (_animal, {"body_rx": 35, "body_ry": 19, "head_r": 14, "leg_len": 28, "leg_w": 13, "tail_len": 20, "tail_w": 12}),
    "cow": (_animal, {"body_rx": 37, "body_ry": 22, "head_r": 16, "leg_len": 22, "leg_w": 15, "tail_len": 17, "tail_w": 11}),
    "car": (_vehicle, {"body_rx": 40, "body_ry": 15, "wheel_r": 11, "wheels": 2, "win_r": 8, "windows": 2}),
    "bus": (_vehicle, {"body_rx": 46, "body_ry": 20, "wheel_r": 10, "wheels": 3, "win_r": 7, "windows": 4}),
    "airplane": (_flyer, {"body_len": 42, "body_w": 11, "nose": 1.6, "wing_span": 40, "wing_w": 9, "wing_sweep": 18, "tail_span": 18, "tail_w": 7}),
    "bird": (_flyer, {"body_len": 30, "body_w": 14, "nose": 2.0, "wing_span": 34, "wing_w": 12, "wing_sweep": 38, "tail_span": 13, "tail_w": 9}),
}


def draw_figure(category, pose, rng, size, part_ids):
    """Rasterize one figure. Returns (photo, labels) with branch part ids."""
    if category not in TEMPLATES:
        raise ConfigError(f"no figure template for category {category!r}")
    template, preset = TEMPLATES[category]
    parts = template(size, pose, rng, preset)
    labels = np.zeros((size, size), dtype=np.uint8)
    photo = np.full((size, size), BACKGROUND_GRAY, dtype=np.uint8)
    for name, mask in parts:
        if name not in part_ids:
            raise ConfigError(f"template part {name!r} missing from id table {part_ids}")
        pid = part_ids[name]
        labels[mask] = pid
        photo[mask] = max(40, 215 - 30 * pid)
    return Raster(photo), LabelMap(labels)


def make_sample(category, pose, rng, size, taxonomy):
    photo, labels = draw_figure(category, pose, rng, size, taxonomy.category_part_ids(category))
    sketch = sketchify(photo, labels)
    return PairedSample(sketch=sketch, labels=labels, category=category, pose=pose)


def draw_corpus(spec):
    """(sample name, PairedSample) pairs, drawn one at a time: sample
    <category>/<i:04d> of category index ci comes from make_rng((seed, ci,
    i)), which draws its pose and then its figure. An unknown category is
    refused at the first draw."""
    for ci, category in enumerate(spec.category_list()):
        for i in range(spec.per_category):
            rng = make_rng((spec.seed, ci, i))
            pose = POSES[int(rng.integers(0, len(POSES)))]
            yield f"{category}/{i:04d}", make_sample(category, pose, rng, spec.image_size,
                                                     spec.taxonomy)


def gen_corpus(spec, root):
    """Write draw_corpus(spec) under `root`; same spec and seed give identical
    bytes. Nothing is written before the first sample is drawn, so an unknown
    category, or a root that names another taxonomy, leaves no root behind."""
    root = Path(root)
    check_taxonomy_root(root, spec.taxonomy)
    rows = []
    for name, sample in draw_corpus(spec):
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        write_pgm(sample_path(root, name, SKETCH), sample.sketch.pixels)
        write_pgm(sample_path(root, name, LABELS), sample.labels.labels)
        rows.append((f"{name}{SKETCH}", sample.pose))
    with open(root / "poses.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([POSES_HEADER, *rows])
    write_taxonomy(root, spec.taxonomy)
    return [r for r, _ in rows]


# ---------------------------------------------------------------------------
# any path inside a corpus: its samples, poses and taxonomy


def sample_path(root, name, suffix):
    """<root>/<name><suffix>: the file of sample `name` of one kind, SKETCH,
    LABELS, PRED or RECORD."""
    return Path(root) / f"{name}{suffix}"


def category_of(file):
    """A sample's category: the name of the folder that holds its file."""
    return Path(file).absolute().parent.name


def _names_root(path):
    """The folder that names under `path` are relative to: `path`, or a
    file's own folder."""
    return path.parent if path.is_file() else path


def sample_files(path, suffix):
    """(sample name, file) of every file under `path`, or of `path` itself,
    whose name ends in `suffix`, sorted by file; a name is the file's path
    relative to `path`, or to a file's own folder, less `suffix`."""
    path = Path(path)
    files = [path] if path.is_file() else sorted(path.rglob(f"*{suffix}"))
    root = _names_root(path)
    return [(f.relative_to(root).as_posix().removesuffix(suffix), f)
            for f in files if f.name.endswith(suffix)]


def sketch_files(path):
    """sample_files(path, SKETCH); where that finds none, as for sketches from
    outside any corpus, every .pgm under `path` but a label map or a
    prediction, each named less .pgm."""
    return sample_files(path, SKETCH) or [
        (name, f) for name, f in sample_files(path, ".pgm")
        if not f.name.endswith((LABELS, PRED))]


def _nearest_above(path, name):
    """The file `name` in the nearest folder above `path`, or None; a
    relative `path` gives a relative file up to the working folder."""
    path = Path(path)
    for folder in [*path.parents, *(() if path.is_absolute() else Path.cwd().parents)]:
        if (folder / name).is_file():
            return folder / name
    return None


def _read_poses_files(files, root):
    """Sketch path relative to `root` -> pose, from each poses.csv of `files`
    in turn; see read_poses."""
    listed = {}  # key -> (pose, "<file> line <n>")
    for path in files:
        folder = path.parent.relative_to(root)
        try:
            with open(path, newline="", encoding="utf-8") as fh:
                reader = csv.reader(fh)
                header = next(reader, None)
                if header is None:
                    raise ConfigError(f"{path} is empty; expected a header row")
                if header != POSES_HEADER:
                    raise ConfigError(f"{path} line 1: expected the header relative_path,pose")
                for row in reader:
                    at = f"{path} line {reader.line_num}"
                    if len(row) != 2:
                        raise ConfigError(f"{at}: expected 2 fields, got {len(row)}")
                    if not row[0].endswith(SKETCH):
                        raise ConfigError(f"{at}: {row[0]!r} does not name a {SKETCH} file")
                    if row[1] not in POSES:
                        raise ConfigError(f"{at}: unknown pose {row[1]!r}")
                    key = (folder / row[0]).as_posix()
                    pose, first = listed.setdefault(key, (row[1], at))
                    if pose != row[1]:
                        raise ConfigError(f"{key} has pose {pose!r} in {first} "
                                          f"but {row[1]!r} in {at}")
        except UnicodeDecodeError:
            raise ConfigError(f"{path} is not UTF-8 text") from None
        except csv.Error as exc:
            raise ConfigError(f"{path}: {exc}") from None
    return {key: pose for key, (pose, _) in listed.items()}


def read_poses(path):
    """Sketch path -> pose for the sketches under `path`, keyed relative to
    it, or to a file's own folder: from every poses.csv under it, else from
    the nearest one above it, keeping the rows of files under `path`, or,
    for a label map, the row of its own sample's sketch. Each
    poses.csv holds the header row, then rows of exactly two fields: a
    .sketch.pgm path relative to the file's folder and one of poses.POSES.
    Malformed text, another path, an unknown pose, or a sketch given two
    poses, in one file or two, raises ConfigError naming the file and line
    (of both rows, for two poses)."""
    path = Path(path)
    root = _names_root(path)
    files = sorted(path.rglob("poses.csv"))
    if files:
        return _read_poses_files(files, root)
    above = _nearest_above(path, "poses.csv")
    if above is None:
        return {}
    inside, root = path.absolute(), root.absolute()
    if path.is_file() and path.name.endswith(LABELS):
        # a label map keeps the row of its own sample's sketch
        inside = sample_path(root, path.name.removesuffix(LABELS), SKETCH)
    rows = {(above.parent / key).absolute(): pose
            for key, pose in _read_poses_files([above], above.parent).items()}
    return {file.relative_to(root).as_posix(): pose for file, pose in rows.items()
            if file.is_relative_to(inside)}


def load_corpus(path):
    """Read the samples under `path`, any path inside a corpus or a tree of
    corpora, back into PairedSamples, sorted by read_poses(path)'s keys."""
    path = Path(path)
    poses = read_poses(path)
    if not poses:
        raise ConfigError(f"no poses.csv under or above {path} lists a sketch under it")
    root = _names_root(path)
    samples = []
    for rel, pose in sorted(poses.items()):
        name = rel.removesuffix(SKETCH)
        sketch = sample_path(root, name, SKETCH)
        samples.append(PairedSample(Raster(read_pgm(sketch)),
                                    LabelMap(read_pgm(sample_path(root, name, LABELS))),
                                    category_of(sketch), pose))
    return samples


def _taxonomy_files(root):
    """(taxonomy, path) of every taxonomy.tax under `root`, in read_poses' order."""
    return [(load_taxonomy_file(p), p) for p in sorted(Path(root).rglob("taxonomy.tax"))]


def check_taxonomy_root(root, tax):
    """Refuse, with a ConfigError naming the file, a `root` under which a
    taxonomy.tax names a taxonomy other than `tax` (by digest), so that
    writing `tax` there could not re-label what the root already holds. A
    root that does not exist yet passes."""
    for found, path in _taxonomy_files(root):
        if found.digest() != tax.digest():
            raise ConfigError(f"{path} names another taxonomy; "
                              f"{root} cannot hold outputs of two taxonomies")


def write_taxonomy(root, tax):
    """Write `tax` to <root>/taxonomy.tax, after check_taxonomy_root. Every
    command that writes a folder writes it last, after its other outputs,
    and checks the root before it starts."""
    check_taxonomy_root(root, tax)
    (Path(root) / "taxonomy.tax").write_text(tax.to_text(), encoding="utf-8")


def _one_taxonomy(found):
    """The first of (taxonomy, source) pairs that all name one taxonomy by
    digest; two that differ raise ConfigError naming both sources."""
    for tax, source in found[1:]:
        if tax.digest() != found[0][0].digest():
            raise ConfigError(f"{found[0][1]} and {source} name different taxonomies")
    return found[0]


def _read_taxonomy_from(path):
    """(read_taxonomy(path), the file it came from or, for the default, words
    that say so)."""
    found = _taxonomy_files(path)
    if found:
        return _one_taxonomy(found)
    above = _nearest_above(path, "taxonomy.tax")
    if above is not None:
        return load_taxonomy_file(above), above
    return (load_taxonomy(DEFAULT_TAXONOMY_TEXT),
            f"the default taxonomy (no taxonomy.tax under or above {path})")


def read_taxonomy(path):
    """The one taxonomy of every taxonomy.tax under `path`, in read_poses'
    order and compared by digest, so comments and spacing do not count; two
    that differ raise ConfigError naming both. With none under `path`, as
    under a file, the taxonomy.tax of the nearest folder above it, so a
    sketch, label map, category folder or checkpoint reads its corpus's or
    run's; else the default."""
    return _read_taxonomy_from(path)[0]


def check_one_taxonomy(paths):
    """The one taxonomy that `paths` read (read_taxonomy). Refuse, with a
    ConfigError naming both files, `paths` of which two read taxonomies that
    differ by digest: their part ids number the parts of two id spaces, so
    comparing them would mean nothing."""
    return _one_taxonomy([_read_taxonomy_from(p) for p in paths])[0]
