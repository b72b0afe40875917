"""The two training-set variants: `together` and `split`.

`together` extracts features from whole trajectories; `split` runs the
identical battery separately on the day and night subsequences, doubling
the feature count. Birds with no night fixes simply get missing night
columns, which median imputation fills from the training rows.
"""

import numpy as np

from shearwater.datasets import DatasetMode, build_datasets, column_medians, fill_missing
from shearwater.synthgen import SynthParams, generate_corpus

corpus = generate_corpus(SynthParams(n_birds=8, trip_length_min=50, trip_length_max=90, seed=3))

# One pass over the corpus builds both modes' matrices.
built = build_datasets(corpus, [DatasetMode.TOGETHER, DatasetMode.SPLIT])
together = built[DatasetMode.TOGETHER][0]
split = built[DatasetMode.SPLIT][0].labeled(corpus.labels)
print(f"together matrix: {together.values.shape[0]} birds x {len(together.columns)} features")
print(f"split matrix:    {split.values.shape[0]} birds x {len(split.columns)} features")
print(f"first split columns: {split.columns[0]}, ..., {split.columns[248]}, ...")

missing = int(np.isnan(split.values).sum())
print(f"\nmissing cells before imputation: {missing}")
# Each missing cell takes its column's median over the training rows.
filled = fill_missing(split.values.copy(), column_medians(split.values))
print(f"missing cells after imputation:  {int(np.isnan(filled).sum())}")

# Day/night velocity behavior per bird, straight from the day_ / night_ blocks.
vmean_day = split.columns.index("day_velocity_mean")
vmean_night = split.columns.index("night_velocity_mean")
print("\nbird        label  day v-mean  night v-mean")
for i, bird in enumerate(split.bird_ids):
    print(
        f"{bird}   {split.labels[i]}      {filled[i, vmean_day]:7.3f}     "
        f"{filled[i, vmean_night]:7.3f}"
    )
