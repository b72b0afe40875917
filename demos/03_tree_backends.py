"""One Newton objective, one histogram split kernel, four tree backends.

Fits the same gradient/hessian problem with exact splits (lossless bins:
every distinct value has its own bin), lossy 8-bin histogram splits, an
oblivious (shared test per level) tree, and an extra-trees tree (one random
uniform threshold per feature and node, scored as two bins). All four score
their cuts with the same gain table and accept them by the same rule. The
demo shows what the coarse bins and the random cuts give up and how the
tree shapes differ.
"""

import numpy as np

from shearwater.trees import (
    TreeParams,
    build_bins,
    fit_tree_exact,
    fit_tree_hist,
    fit_tree_oblivious,
    fit_tree_uniform,
    newton_gain,
)

rng = np.random.default_rng(42)
n = 200
X = rng.normal(size=(n, 4))
y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(float)  # XOR-ish target
p = np.full(n, y.mean())
grad, hess = p - y, p * (1 - p)

print(f"plug-in gain example: {newton_gain(2.0, 1.0, -2.0, 1.0, 1.0)} (expect 2.0)")

params = TreeParams(max_depth=3, reg_lambda=1.0, min_child_weight=1.0)
exact = fit_tree_exact(X, grad, hess, params)  # bins X losslessly, then fits on them
lossless = build_bins(X, max_edges=None)
bins = build_bins(X, max_edges=7)
hist = fit_tree_hist(bins.bin_matrix(X), grad, hess, bins, params)
oblivious = fit_tree_oblivious(lossless.bin_matrix(X), grad, hess, lossless, params)
uniform = fit_tree_uniform(X, grad, hess, params, np.random.default_rng(7))

print(f"\ncandidate cuts per column: lossless {lossless.n_edges.tolist()}, lossy {bins.n_edges.tolist()}")
print(f"exact root: feature {exact.root.feature} @ {exact.root.threshold:.4f}")
print(f"hist  root: feature {hist.root.feature} @ {hist.root.threshold:.4f}")
print(f"uniform root: feature {uniform.root.feature} @ {uniform.root.threshold:.4f} (a drawn value)")

print("\noblivious levels (one shared test per depth):")
node = oblivious.root
while not node.is_leaf:
    print(f"  feature {node.feature} @ {node.threshold:.4f}")
    node = node.left
print(f"oblivious leaves: {len(oblivious.leaves())} (a lookup table of 2^depth cells)")

print("\nsecond-order loss change sum(g*f + h*f^2/2) of each tree's output f (lower is better):")
trees = (("exact", exact), ("hist (8 bins)", hist), ("oblivious", oblivious), ("uniform", uniform))
for name, tree in trees:
    f = tree.predict(X)
    change = np.sum(grad * f + 0.5 * hess * f**2)
    print(f"  {name:13s} depth={tree.depth()} leaves={len(tree.leaves())} change={change:.4f}")
print("On an XOR target no single cut is informative, so the lossless greedy root")
print("takes an extreme cut; the 8 coarse bins leave only central cuts, which the")
print("next level can use. More candidates never worsen one greedy split, but can")
print("worsen the whole tree.")
print("The uniform tree draws one random cut per feature at each node, so its")
print("greedy choice sees far fewer candidates than exact; extra trees trade that")
print("for diversity between the trees of a forest.")
