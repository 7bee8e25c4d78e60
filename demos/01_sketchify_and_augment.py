"""
Sketchification and augmentation
================================

Draw a labelled figure, turn it into a line sketch by merging its edge
image with the annotation contours, and expand it into the fixed
augmentation families.
"""

from sketchparts.augment import CLS_COMBOS, SEG_COMBOS, PairedSample, cls_variant, seg_variant
from sketchparts.augment import sketchify
from sketchparts.autograd import make_rng
from sketchparts.corpus import DEFAULT_TAXONOMY_TEXT, draw_figure
from sketchparts.taxonomy import load_taxonomy

tax = load_taxonomy(DEFAULT_TAXONOMY_TEXT)

# a horse facing east, drawn straight onto a label grid
photo, labels = draw_figure("horse", "E", make_rng(7), 128, tax.category_part_ids("horse"))
print("label ids present:", labels.ids())
print("part areas:", {i: int((labels.labels == i).sum()) for i in labels.ids()})

# the sketch is the dilated union of photo edges and annotation contours
sketch = sketchify(photo, labels)
print(f"ink fraction of the sketchified image: {(sketch.pixels > 0).mean():.3f}")

# make it a full training sample and draw every member of both families by index
sample = PairedSample(sketch=sketch, labels=labels, category="horse", pose="E")
seg_variants = [seg_variant(sample, k) for k in range(len(SEG_COMBOS))]
print(f"{len(seg_variants)} segmentation variants (7 rotations x 2 mirrorings)")
print("poses after mirroring:", sorted({v.pose for v in seg_variants}))

cls_variants = [cls_variant(sketch, k) for k in range(len(CLS_COMBOS))]
print(f"{len(cls_variants)} classifier variants (7 rotations x 5 scales x 2 mirrorings)")

# a crude ASCII look at the sketch
for row in sketch.pixels[::4]:
    print("".join("#" if v else " " for v in row[::2]))
