"""External oracle command for the extcmd workload.

    python perfbench/scorer.py <input_dir> <output_csv>

Reads the batch manifest and its MMV volumes through mmsaliency.tensorio and
scores each volume with the package's shape rule at the CLI's built-in
defaults, so its predictions equal those of `--oracle builtin`.
"""

import csv
import sys
from pathlib import Path

from mmsaliency.oracle import ShapeRuleClassifier, predict_shape_rule
from mmsaliency.tensorio import load_dataset, load_manifest

# The CLI defaults: --weights t1:0,t1c:1,t2:0,flair:1 --threshold 0.35
# --cutoff 0.7 --softness 0.08
CLASSIFIER = ShapeRuleClassifier(
    (0.0, 1.0, 0.0, 1.0),
    intensity_threshold=0.35,
    circularity_cutoff=0.7,
    softness=0.08,
)


def main(input_dir, output_csv):
    samples = load_dataset(load_manifest(Path(input_dir) / "manifest.json"))
    with open(output_csv, "w", encoding="utf-8", newline="") as fp:
        writer = csv.writer(fp, lineterminator="\n")
        writer.writerow(["sample_id", "p0", "p1"])
        for s in samples:
            probs = predict_shape_rule(CLASSIFIER, s.volume).probs
            writer.writerow([s.record.sample_id, *(repr(p) for p in probs)])


if __name__ == "__main__":
    main(*sys.argv[1:])
