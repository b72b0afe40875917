"""From raw GPS fixes to the fixed-width per-bird feature vector.

Generates one synthetic trip, walks through the kinematic series derived
from it, and reduces everything to the 248 named features a classifier
consumes.
"""

import numpy as np

from shearwater.datasets import DatasetMode, build_dataset
from shearwater.featex import feature_names
from shearwater.geokin import feature_series
from shearwater.synthgen import SynthParams, generate_corpus

corpus = generate_corpus(SynthParams(n_birds=3, trip_length_min=40, trip_length_max=60, seed=7))
bird_id = corpus.bird_ids[0]
traj = corpus[bird_id]
print(f"bird {bird_id}: {len(traj)} GPS fixes, label={corpus.labels[bird_id]} (1=male)")
print(f"first fix: lon={traj.longitude[0]:.4f} lat={traj.latitude[0]:.4f} "
      f"elapsed={traj.elapsed[0]:.0f}s daytime={traj.daytime[0]}")

# Twelve per-point series: velocity/acceleration/distance, the four raw
# point-aligned attributes, and five deltas.
print("\nderived series (name, length, mean):")
for name, values in feature_series(traj).items():
    mean = values.mean() if len(values) else float("nan")
    print(f"  {name:18s} n={len(values):3d} mean={mean:10.4f}")

# Each bird reduces to 248 features: 12 series x 18 summary stats, 12
# exceedance counts, first-5 coordinates, and PCA of the point matrix. The
# exceedance thresholds are pooled over the whole corpus, so the matrix
# build fills those counts in once every bird's speeds are known.
matrix, _ = build_dataset(corpus, DatasetMode.TOGETHER)
vector = matrix.values[matrix.bird_ids.index(bird_id)]
names = feature_names()
print(f"\nfeature vector width: {len(vector)}")
for probe in ("velocity_q050", "velocity_mean", "exceed_gt_q095", "first_lon_1", "pca_var_ratio_1"):
    print(f"  {probe:18s} = {vector[names.index(probe)]:.4f}")
print(f"missing entries (NaN, imputed downstream): {int(np.isnan(vector).sum())}")
