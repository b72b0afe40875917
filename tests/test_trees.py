import numpy as np
import pytest

from shearwater.trees import (
    DecisionTree,
    TreeParams,
    build_bins,
    fit_tree_hist,
    fit_tree_oblivious,
    fit_trees,
    newton_gain,
)


def brute_force_candidates(X, grad, hess, lam, mcw):
    """Every admissible midpoint split with its mask-sum gain."""
    out = []
    for f in range(X.shape[1]):
        vals = np.unique(X[:, f])
        for a, b in zip(vals[:-1], vals[1:]):
            thr = 0.5 * (a + b)
            left = X[:, f] < thr
            gl, hl = grad[left].sum(), hess[left].sum()
            gr, hr = grad[~left].sum(), hess[~left].sum()
            if hl < mcw or hr < mcw:
                continue
            gain = 0.5 * (
                gl**2 / (hl + lam) + gr**2 / (hr + lam) - (gl + gr) ** 2 / (hl + hr + lam)
            )
            out.append((gain, f, thr))
    return out


def assert_root_matches_oracle(tree, X, grad, hess, lam, mcw, tol=1e-9):
    """Root choice must realize the brute-force max gain within tol; when
    the max is unique at that tolerance the exact (feature, threshold) must
    match (lowest feature then lowest threshold on ties)."""
    cands = brute_force_candidates(X, grad, hess, lam, mcw)
    positive = [c for c in cands if c[0] > 0.0]
    if not positive:
        assert tree.root.is_leaf
        return
    best_gain, best_f, best_thr = max(positive, key=lambda c: (c[0], -c[1], -c[2]))
    scale = max(1.0, abs(best_gain))
    assert not tree.root.is_leaf
    chosen = [
        c
        for c in cands
        if c[1] == tree.root.feature and abs(c[2] - tree.root.threshold) < 1e-12
    ]
    assert chosen, "implementation picked a threshold the oracle never proposed"
    assert abs(chosen[0][0] - best_gain) <= tol * scale
    near_ties = [c for c in positive if abs(c[0] - best_gain) <= tol * scale]
    if len(near_ties) == 1:
        first = min(near_ties, key=lambda c: (c[1], c[2]))
        assert (tree.root.feature, tree.root.threshold) == (first[1], pytest.approx(first[2]))


# --- newton gain ------------------------------------------------------------

def test_gain_zero_gradients():
    assert newton_gain(0.0, 1.0, 0.0, 1.0, 0.5) == 0.0


def test_gain_opposing_gradients_positive():
    assert newton_gain(3.0, 2.0, -3.0, 2.0, 1.0) > 0.0


def test_gain_plug_in_value():
    # 1/2 * [4/2 + 4/2 - 0/3] = 2
    assert newton_gain(2.0, 1.0, -2.0, 1.0, 1.0) == 2.0


# --- exact fitter -----------------------------------------------------------

def fit_exact(X, grad, hess, params, **kwargs):
    """A tree on lossless bins of all of X, as the exact backend bins each
    model once: its cuts are the midpoints of consecutive distinct values."""
    bins, Xb = build_bins(X, max_edges=None)
    return fit_tree_hist(Xb, grad, hess, bins, params, **kwargs)


def test_exact_degenerate_single_leaf():
    X = np.full((6, 3), 1.5)
    grad = np.full(6, 0.7)
    hess = np.ones(6)
    tree = fit_exact(X, grad, hess, TreeParams(reg_lambda=0.0))
    assert tree.root.is_leaf
    assert tree.root.value == pytest.approx(-0.7)


def test_exact_hand_computed_split():
    X = np.array([[0.0], [1.0]])
    grad = np.array([1.0, -1.0])
    hess = np.array([1.0, 1.0])
    tree = fit_exact(X, grad, hess, TreeParams(max_depth=1, reg_lambda=0.0))
    assert not tree.root.is_leaf
    assert tree.root.threshold == 0.5
    assert tree.root.left.value == -1.0
    assert tree.root.right.value == 1.0


def test_exact_max_depth_zero():
    X = np.arange(8.0).reshape(-1, 1)
    grad = np.linspace(-1, 1, 8)
    hess = np.ones(8)
    tree = fit_exact(X, grad, hess, TreeParams(max_depth=0, reg_lambda=2.0))
    assert tree.root.is_leaf
    assert tree.root.value == pytest.approx(-grad.sum() / (8 + 2.0))


def test_exact_root_matches_bruteforce_oracle(rng):
    for _ in range(200):
        n = int(rng.integers(2, 13))
        d = int(rng.integers(1, 4))
        X = rng.normal(size=(n, d))
        grad = rng.normal(size=n)
        hess = rng.uniform(0.1, 2.0, size=n)
        lam = float(rng.choice([0.0, 0.5, 1.0]))
        mcw = float(rng.choice([0.0, 0.2]))
        params = TreeParams(max_depth=1, reg_lambda=lam, min_child_weight=mcw)
        tree = fit_exact(X, grad, hess, params)
        assert_root_matches_oracle(tree, X, grad, hess, lam, mcw)


def test_exact_deterministic(rng):
    X = rng.normal(size=(40, 6))
    grad = rng.normal(size=40)
    hess = rng.uniform(0.1, 1.0, 40)
    params = TreeParams(max_depth=4, reg_lambda=0.5, features_per_node=3)
    t1 = fit_exact(X, grad, hess, params, rng=np.random.default_rng(5))
    t2 = fit_exact(X, grad, hess, params, rng=np.random.default_rng(5))
    assert t1.to_dict() == t2.to_dict()


def test_exact_finite_leaves_with_degenerate_hessian():
    X = np.arange(10.0).reshape(-1, 1)
    grad = np.linspace(-1, 1, 10)
    hess = np.zeros(10)
    tree = fit_exact(X, grad, hess, TreeParams(max_depth=3, reg_lambda=1.0, min_child_weight=0.0))
    assert np.all(np.isfinite(tree.value[tree.leaves()]))


# --- histogram fitter -------------------------------------------------------

def test_hist_lossless_equals_exact(rng):
    for _ in range(50):
        n = int(rng.integers(4, 30))
        d = int(rng.integers(1, 5))
        X = rng.normal(size=(n, d))
        grad = rng.normal(size=n)
        hess = rng.uniform(0.05, 2.0, size=n)
        lam = float(rng.choice([0.0, 1.0]))
        params = TreeParams(max_depth=3, reg_lambda=lam, min_child_weight=0.0)
        exact = fit_exact(X, grad, hess, params)
        bins, Xb = build_bins(X)  # every distinct value gets its own bin
        hist = fit_tree_hist(Xb, grad, hess, bins, params)
        assert hist.to_dict() == exact.to_dict()
        np.testing.assert_array_equal(hist.predict(X), exact.predict(X))


def test_hist_single_bin_single_leaf():
    X = np.full((10, 2), 3.0)
    bins, Xb = build_bins(X)
    tree = fit_tree_hist(
        Xb, np.ones(10), np.ones(10), bins, TreeParams(reg_lambda=1.0)
    )
    assert tree.root.is_leaf


def test_hist_lossy_bins_route_training_rows_consistently(rng):
    X = rng.normal(size=(300, 2))
    grad = rng.normal(size=300)
    hess = np.ones(300)
    bins, Xb = build_bins(X, max_edges=7)
    assert all(e.size <= 7 for e in bins.edges)
    params = TreeParams(max_depth=3, reg_lambda=1.0)
    tree = fit_tree_hist(Xb, grad, hess, bins, params)
    # thresholds must partition training rows exactly where the bin split did:
    # every training value sits strictly outside the recorded threshold
    def walk(node):
        if node.is_leaf:
            return
        assert not np.any(X[:, node.feature] == node.threshold)
        walk(node.left)
        walk(node.right)

    walk(tree.root)


def test_bins_quantile_construction(rng):
    col = np.repeat(np.arange(600.0), 1)  # 600 distinct values > 255 edges
    X = col.reshape(-1, 1)
    bins, Xb = build_bins(X, max_edges=255)
    assert bins.edges[0].size <= 255
    assert np.all(np.diff(bins.edges[0]) > 0)
    # bin extrema bracket their edges
    idx = np.searchsorted(bins.edges[0], col, side="right")
    np.testing.assert_array_equal(Xb[:, 0], idx)
    np.testing.assert_array_equal(bins.bin_matrix(X), Xb)
    for b in np.unique(idx):
        sel = col[idx == b]
        assert bins.bin_min[0][b] == sel.min()
        assert bins.bin_max[0][b] == sel.max()


def test_bins_of_one_sort_equal_each_column_alone(rng):
    # one sort of the matrix bins each column as np.unique and searchsorted
    # would; a NaN cell holds no value and gets bin -1
    X = rng.normal(size=(60, 4))
    X[:, 1] = rng.integers(0, 5, size=60)
    X[:, 2] = rng.choice([-0.0, 0.0, 1.5], size=60)
    X[rng.random(X.shape) < 0.2] = np.nan
    X[:, 3] = np.nan
    bins, Xb = build_bins(X, max_edges=None)
    for f in range(4):
        col = X[:, f]
        distinct = np.unique(col[~np.isnan(col)])
        np.testing.assert_array_equal(bins.bin_min[f], distinct)
        np.testing.assert_array_equal(bins.edges[f], 0.5 * (distinct[:-1] + distinct[1:]))
        want = np.where(np.isnan(col), -1, np.searchsorted(distinct, col))
        np.testing.assert_array_equal(Xb[:, f], want)
    assert bins.edges[3].size == 0



def _owned_bytes(obj) -> int:
    """Bytes of every array buffer reachable from ``obj``, each buffer
    counted once, however many views of it are reachable."""
    import gc

    seen, owners, stack = set(), {}, [obj]
    while stack:
        item = stack.pop()
        if id(item) in seen or isinstance(item, type):
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            while isinstance(item.base, np.ndarray):
                item = item.base
            owners[id(item)] = item.nbytes
        else:
            stack.extend(gc.get_referents(item))
    return sum(owners.values())


@pytest.mark.parametrize("max_edges", [None, 255])
def test_lossless_bins_hold_each_distinct_value_once(rng, max_edges):
    # a fit reads a lossless column's bin bounds and its bin count, so its
    # bins hold its distinct values once, as the bounds, and no edges
    X = rng.integers(0, 50, size=(120, 1)).astype(float) / 7.0
    X[rng.random(120) < 0.1] = np.nan
    bins, _ = build_bins(X, max_edges=max_edges)
    distinct = np.unique(X[~np.isnan(X)])
    assert _owned_bytes(bins) <= distinct.size * 8
    assert bins.n_edges.tolist() == [distinct.size - 1]
    np.testing.assert_array_equal(bins.edges[0], 0.5 * (distinct[:-1] + distinct[1:]))


# --- oblivious fitter -------------------------------------------------------

def fit_oblivious_lossless(X, grad, hess, params, **kwargs):
    """An oblivious tree on lossless bins of all of X, as the cat learner
    bins each model once."""
    bins, Xb = build_bins(X, max_edges=None)
    return fit_tree_oblivious(Xb, grad, hess, bins, params, **kwargs)


def test_oblivious_depth1_equals_exact(rng):
    for _ in range(30):
        n = int(rng.integers(2, 15))
        d = int(rng.integers(1, 4))
        X = rng.normal(size=(n, d))
        grad = rng.normal(size=n)
        hess = rng.uniform(0.1, 2.0, size=n)
        params = TreeParams(max_depth=1, reg_lambda=0.5, min_child_weight=0.0)
        a = fit_exact(X, grad, hess, params)
        b = fit_oblivious_lossless(X, grad, hess, params)
        assert a.to_dict() == b.to_dict()


def _xor_corner_data():
    """Asymmetric XOR: greedy level-1 gain is strictly positive."""
    corners = [(0, 0, 0)] * 3 + [(0, 1, 1)] * 2 + [(1, 0, 1)] * 1 + [(1, 1, 0)] * 2
    X = np.array([(a, b) for a, b, _ in corners], dtype=float)
    y = np.array([lab for _, _, lab in corners], dtype=float)
    grad = 0.5 - y
    hess = np.full(len(y), 0.25)
    return X, y, grad, hess


def _oblivious_objective(X, grad, hess, levels, lam):
    leaf_of = np.zeros(len(X), dtype=int)
    for f, t in levels:
        leaf_of = 2 * leaf_of + (X[:, f] >= t)
    total = 0.0
    for leaf in np.unique(leaf_of):
        g = grad[leaf_of == leaf].sum()
        h = hess[leaf_of == leaf].sum()
        total -= 0.5 * g**2 / (h + lam) if h + lam > 0 else 0.0
    return total


def test_oblivious_xor_uses_both_features():
    X, y, grad, hess = _xor_corner_data()
    params = TreeParams(max_depth=2, reg_lambda=0.0, min_child_weight=0.0)
    tree = fit_oblivious_lossless(X, grad, hess, params)

    level_tests = []
    node = tree.root
    while not node.is_leaf:
        level_tests.append((node.feature, node.threshold))
        node = node.left
    assert sorted(f for f, _ in level_tests) == [0, 1]

    # brute-force greedy oracle over the 2-split search space
    def candidates(f):
        vals = np.unique(X[:, f])
        return [(f, 0.5 * (a + b)) for a, b in zip(vals[:-1], vals[1:])]

    all_cands = candidates(0) + candidates(1)
    best1 = min(
        all_cands, key=lambda c: _oblivious_objective(X, grad, hess, [c], 0.0)
    )
    assert level_tests[0] == best1
    best2 = min(
        all_cands, key=lambda c: _oblivious_objective(X, grad, hess, [best1, c], 0.0)
    )
    assert level_tests[1] == best2

    # training objective strictly improves at the second level
    one = _oblivious_objective(X, grad, hess, level_tests[:1], 0.0)
    two = _oblivious_objective(X, grad, hess, level_tests, 0.0)
    assert two < one


def test_oblivious_is_lookup_table(rng):
    X = rng.normal(size=(60, 4))
    grad = rng.normal(size=60)
    hess = rng.uniform(0.2, 1.0, 60)
    params = TreeParams(max_depth=3, reg_lambda=1.0, min_child_weight=0.0)
    tree = fit_oblivious_lossless(X, grad, hess, params)

    # collect the per-level shared tests
    levels = []
    node = tree.root
    while not node.is_leaf:
        levels.append((node.feature, node.threshold))
        node = node.left

    # every node at depth k carries the same (feature, threshold)
    def check(node, depth):
        if node.is_leaf:
            assert depth == len(levels)
            return
        assert (node.feature, node.threshold) == levels[depth]
        check(node.left, depth + 1)
        check(node.right, depth + 1)

    check(tree.root, 0)
    assert len(tree.leaves()) == 2 ** len(levels) <= 2**3

    # prediction = indexing leaves by the split outcome bits
    leaf_values = tree.value[tree.leaves()]
    idx = np.zeros(len(X), dtype=int)
    for f, t in levels:
        idx = 2 * idx + (X[:, f] >= t)
    np.testing.assert_array_equal(tree.predict(X), leaf_values[idx])


def test_oblivious_empty_leaves_finite(rng):
    X = rng.normal(size=(12, 2))
    grad = rng.normal(size=12)
    hess = np.full(12, 0.25)
    tree = fit_oblivious_lossless(
        X, grad, hess, TreeParams(max_depth=4, reg_lambda=1.0, min_child_weight=0.0)
    )
    assert np.all(np.isfinite(tree.value[tree.leaves()]))


# --- equivalence contract at every node --------------------------------------
#
# Both fitters search the histogram gain table of lossless bins. The contract
# is stated against mask sums: every cut is one the brute-force oracle
# proposes, and its gain equals the oracle maximum up to the rounding of the
# histogram sums.

def _tie_heavy_instance(rng):
    n = int(rng.integers(6, 30))
    d = int(rng.integers(2, 6))
    X = rng.integers(0, 4, size=(n, d)).astype(float)
    grad = rng.normal(size=n)
    hess = rng.uniform(0.05, 2.0, size=n)
    rows = rng.integers(0, n, size=n)  # bootstrap: duplicated rows
    feats = np.sort(rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False))
    lam = float(rng.choice([0.0, 0.5, 1.0]))
    mcw = float(rng.choice([0.0, 0.3]))
    return X, grad, hess, rows, feats, lam, mcw


def test_exact_every_node_matches_bruteforce_oracle(rng):
    tol = 1e-9
    for _ in range(100):
        X, grad, hess, rows, feats, lam, mcw = _tie_heavy_instance(rng)
        params = TreeParams(max_depth=3, reg_lambda=lam, min_child_weight=mcw)
        tree = fit_exact(X, grad, hess, params, rows=rows, candidate_features=feats)

        def check(node, node_rows, depth):
            cands = [
                (gain, int(feats[f]), thr)
                for gain, f, thr in brute_force_candidates(
                    X[np.ix_(node_rows, feats)], grad[node_rows], hess[node_rows], lam, mcw
                )
            ]
            best = max((c[0] for c in cands), default=0.0)
            scale = max(1.0, abs(best))
            if node.is_leaf:
                if depth < params.max_depth and len(node_rows) >= 2:
                    assert best <= tol * scale
                return
            chosen = [
                c for c in cands if c[1] == node.feature and abs(c[2] - node.threshold) < 1e-12
            ]
            assert chosen, "a cut the oracle never proposed"
            assert abs(chosen[0][0] - best) <= tol * scale
            go_left = X[node_rows, node.feature] < node.threshold
            check(node.left, node_rows[go_left], depth + 1)
            check(node.right, node_rows[~go_left], depth + 1)

        check(tree.root, rows, 0)


def _oblivious_level_oracle(X, grad, hess, leaf_of, feats, lam, mcw):
    """Summed mask-sum gain of every midpoint cut over the current leaves;
    a leaf whose children fail min_child_weight adds zero."""
    out = {}
    for f in feats:
        vals = np.unique(X[:, f])
        for a, b in zip(vals[:-1], vals[1:]):
            thr = 0.5 * (a + b)
            left = X[:, f] < thr
            total = 0.0
            for leaf in np.unique(leaf_of):
                in_leaf = leaf_of == leaf
                gl, hl = grad[in_leaf & left].sum(), hess[in_leaf & left].sum()
                gr, hr = grad[in_leaf & ~left].sum(), hess[in_leaf & ~left].sum()
                if hl < mcw or hr < mcw:
                    continue
                gain = newton_gain(gl, hl, gr, hr, lam)
                if np.isfinite(gain):
                    total += float(gain)
            out[(int(f), thr)] = total
    return out


def test_oblivious_every_level_matches_bruteforce_oracle(rng):
    tol = 1e-9
    for _ in range(60):
        X, grad, hess, rows, feats, lam, mcw = _tie_heavy_instance(rng)
        params = TreeParams(max_depth=3, reg_lambda=lam, min_child_weight=mcw)
        tree = fit_oblivious_lossless(X, grad, hess, params, rows=rows, candidate_features=feats)
        Xr, gr, hr = X[rows], grad[rows], hess[rows]

        levels = []
        node = tree.root
        while not node.is_leaf:
            levels.append((node.feature, node.threshold))
            node = node.left

        leaf_of = np.zeros(len(rows), dtype=int)
        for depth in range(params.max_depth):
            oracle = _oblivious_level_oracle(Xr, gr, hr, leaf_of, feats, lam, mcw)
            best = max(oracle.values(), default=0.0)
            scale = max(1.0, abs(best))
            if depth == len(levels):
                assert best <= tol * scale
                break
            feature, threshold = levels[depth]
            chosen = [v for (f, t), v in oracle.items() if f == feature and abs(t - threshold) < 1e-12]
            assert chosen, "a cut the oracle never proposed"
            assert abs(chosen[0] - best) <= tol * scale
            leaf_of = 2 * leaf_of + (Xr[:, feature] >= threshold)


@pytest.mark.parametrize("backend", ["exact", "hist", "oblivious", "uniform"])
def test_constant_gradient_node_never_splits(rng, backend):
    # with one gradient and hessian on every row each cut's exact gain is 0
    # (lambda 0) or negative (lambda 1); a split would be on rounding noise
    for _ in range(100):
        n = int(rng.integers(4, 60))
        X = rng.normal(size=(n, int(rng.integers(1, 5))))
        grad = np.full(n, rng.normal())
        hess = np.full(n, rng.uniform(0.2, 2.0))
        lam = float(rng.choice([0.0, 1.0]))
        params = TreeParams(max_depth=3, reg_lambda=lam, min_child_weight=0.0)
        if backend == "exact":
            tree = fit_exact(X, grad, hess, params)
        elif backend == "hist":
            bins, Xb = build_bins(X, max_edges=7)
            tree = fit_tree_hist(Xb, grad, hess, bins, params)
        elif backend == "oblivious":
            tree = fit_oblivious_lossless(X, grad, hess, params)
        else:
            tree = fit_trees(X, [grad], [hess], [None], params, np.random.default_rng(n))[0]
        assert tree.root.is_leaf


def test_oblivious_on_model_bins_equals_bins_of_tree_rows(rng):
    # the model's bins add empty bins and duplicate cuts of one partition;
    # neither may change the tree
    for _ in range(100):
        X, grad, hess, rows, feats, lam, mcw = _tie_heavy_instance(rng)
        params = TreeParams(max_depth=3, reg_lambda=lam, min_child_weight=mcw)
        model_bins = fit_oblivious_lossless(
            X, grad, hess, params, rows=rows, candidate_features=feats
        )
        own = fit_oblivious_lossless(X[rows], grad[rows], hess[rows], params, candidate_features=feats)
        assert model_bins.to_dict() == own.to_dict()


# --- uniform (extra-trees) fitter --------------------------------------------

def test_uniform_thresholds_within_observed_range(rng):
    X = rng.uniform(5.0, 9.0, size=(50, 3))
    grad = rng.normal(size=50)
    hess = np.ones(50)
    tree = fit_trees(
        X, [grad], [hess], [None], TreeParams(max_depth=4, reg_lambda=0.0),
        np.random.default_rng(3),
    )[0]

    def walk(node):
        if node.is_leaf:
            return
        assert 5.0 <= node.threshold <= 9.0
        walk(node.left)
        walk(node.right)

    walk(tree.root)


def test_uniform_deterministic(rng):
    X = rng.normal(size=(30, 4))
    grad = rng.normal(size=30)
    hess = np.ones(30)
    params = TreeParams(max_depth=3, reg_lambda=0.0)
    a = fit_trees(X, [grad], [hess], [None], params, np.random.default_rng(9))[0]
    b = fit_trees(X, [grad], [hess], [None], params, np.random.default_rng(9))[0]
    assert a.to_dict() == b.to_dict()


class _RecordingRng:
    """Passes draws through to a generator and keeps each one, a uniform
    draw per value."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.draws = []

    def choice(self, *args, **kwargs):
        out = self._rng.choice(*args, **kwargs)
        self.draws.append(("choice", np.sort(out)))
        return out

    def uniform(self, *args, **kwargs):
        out = self._rng.uniform(*args, **kwargs)
        self.draws.extend(("uniform", float(v)) for v in np.ravel(out))
        return out


def test_uniform_every_node_matches_bruteforce_oracle(rng):
    # every cut has the best mask-sum gain among the cuts its node drew, and a
    # leaf that could have split drew no cut that gains; the draws are
    # replayed in growth order: level by level, every node that may split
    # draws its features left to right, then its thresholds in the same order
    tol = 1e-9
    for _ in range(100):
        X, grad, hess, rows, feats, lam, mcw = _tie_heavy_instance(rng)
        per_node = int(rng.integers(1, X.shape[1]))
        params = TreeParams(
            max_depth=3, reg_lambda=lam, min_child_weight=mcw, features_per_node=per_node
        )
        recorder = _RecordingRng(int(rng.integers(2**32)))
        tree = fit_trees(
            X, [grad], [hess], [rows], params, recorder, candidate_features=feats
        )[0]
        draws = iter(recorder.draws)

        def drawn_features():
            if per_node >= len(feats):
                return feats
            kind, node_feats = next(draws)
            assert kind == "choice"
            return node_feats

        def drawn_cuts(node_rows, node_feats):
            cols = X[np.ix_(node_rows, node_feats)]
            varies = cols.max(axis=0) > cols.min(axis=0)
            cands = []
            for f in node_feats[varies]:
                kind, thr = next(draws)
                assert kind == "uniform"
                left = X[node_rows, f] < thr
                gl, hl = grad[node_rows][left].sum(), hess[node_rows][left].sum()
                gr, hr = grad[node_rows][~left].sum(), hess[node_rows][~left].sum()
                gain = newton_gain(gl, hl, gr, hr, lam)
                if hl >= mcw and hr >= mcw and np.isfinite(gain):
                    cands.append((float(gain), int(f), float(thr)))
            return cands

        level, depth = [(tree.root, rows)], 0
        while level:
            searched = []
            for node, node_rows in level:
                if depth >= params.max_depth or len(node_rows) < 2:
                    assert node.is_leaf
                else:
                    searched.append((node, node_rows, drawn_features()))
            level = []
            for node, node_rows, node_feats in searched:
                cands = drawn_cuts(node_rows, node_feats)
                best = max((c[0] for c in cands), default=0.0)
                scale = max(1.0, abs(best))
                if node.is_leaf:
                    assert best <= tol * scale
                    continue
                chosen = [c for c in cands if (c[1], c[2]) == (node.feature, node.threshold)]
                assert chosen, "a cut the node never drew"
                assert abs(chosen[0][0] - best) <= tol * scale
                go_left = X[node_rows, node.feature] < node.threshold
                level += [(node.left, node_rows[go_left]), (node.right, node_rows[~go_left])]
            depth += 1
        assert next(draws, None) is None, "draws no node used"


# --- prediction and serialization --------------------------------------------

def test_predict_single_leaf():
    tree = DecisionTree([-1], [0.0], [-1], [0.42])
    np.testing.assert_array_equal(tree.predict(np.array([[1.0, 2.0, 3.0]])), [0.42])
    np.testing.assert_array_equal(tree.predict(np.zeros((4, 3))), np.full(4, 0.42))


def _stump():
    """x0 < 1 goes to leaf 1 (-1), else to leaf 2 (+1)."""
    return DecisionTree([0, -1, -1], [1.0, 0.0, 0.0], [1, -1, -1], [0.0, -1.0, 1.0])


def test_predict_tie_goes_right():
    np.testing.assert_array_equal(_stump().predict(np.array([[1.0], [0.999]])), [1.0, -1.0])


def test_predict_missing_follows_flag():
    # there is no per-node flag any more: a missing value always goes left
    np.testing.assert_array_equal(_stump().predict(np.array([[np.nan], [2.0]])), [-1.0, 1.0])


def test_json_round_trip(rng):
    X = rng.normal(size=(25, 3))
    grad = rng.normal(size=25)
    hess = np.ones(25)
    tree = fit_exact(X, grad, hess, TreeParams(max_depth=3, reg_lambda=0.3))
    again = DecisionTree.from_dict(tree.to_dict(), 3)
    np.testing.assert_array_equal(tree.predict(X), again.predict(X))
    assert again.to_dict() == tree.to_dict()


@pytest.mark.parametrize(
    "edit",
    [
        {"value": [0.0, -1.0]},  # unequal lengths
        {"feature": [], "threshold": [], "child": [], "value": []},
        {"child": [0, -1, -1]},  # a child that is its own node: a cycle
        {"child": [2, -1, -1]},  # a right child past the end
        {"child": [-2, -1, -1]},  # neither a leaf nor a later node
        {"feature": [3, -1, -1]},  # a split column past the schema's 3
        {"feature": [-1, -1, -1]},
        {"feature": [2**70, -1, -1]},  # past int64: ValueError, not OverflowError
        {"child": [1.7, -1, -1]},  # not an index: was read as 1
        {"threshold": [None, 0.0, 0.0]},  # was read as NaN, sending every row left
        {"value": ["0", "-1", "1"]},
        {"child": [[1], [-1], [-1]]},  # not one-dimensional
    ],
)
def test_from_dict_refuses_a_malformed_tree(edit):
    with pytest.raises(ValueError):
        DecisionTree.from_dict({**_stump().to_dict(), **edit}, 3)


def test_from_dict_refuses_a_node_with_two_parents():
    # nodes 1 and 2 both send rows to nodes 3 and 4; nodes 5 and 6 have no parent
    doc = {
        "feature": [0, 0, 0, -1, -1, -1, -1],
        "threshold": [0.0] * 7,
        "child": [1, 3, 3, -1, -1, -1, -1],
        "value": [0.0] * 7,
    }
    with pytest.raises(ValueError, match="two parents"):
        DecisionTree.from_dict(doc, 1)


def test_from_dicts_checks_each_tree_of_a_model():
    # the trees are checked on their arrays laid end to end; a child past the
    # end of its own tree must not pass for a node of the next tree
    docs = [_stump().to_dict(), _stump().to_dict()]
    assert [t.to_dict() for t in DecisionTree.from_dicts(docs, 3)] == docs
    docs[0]["child"] = [3, -1, -1]
    with pytest.raises(ValueError, match="out of range"):
        DecisionTree.from_dicts(docs, 3)
    with pytest.raises(ValueError):
        DecisionTree.from_dicts([_stump().to_dict(), {**_stump().to_dict(), "value": [0.0]}], 3)


def test_root_view_walks_to_the_leaves_predict_picks(rng):
    # one tree per backend; the view reaches exactly the leaves, and a walk
    # down it (missing values left) ends where predict does
    X = rng.normal(size=(80, 4))
    X[:, 2] = rng.integers(0, 3, size=80)
    grad, hess = rng.normal(size=80), rng.uniform(0.2, 1.0, size=80)
    params = TreeParams(max_depth=3, reg_lambda=0.5, min_child_weight=0.0)
    bins, Xb = build_bins(X, max_edges=7)
    trees = {
        "exact": fit_exact(X, grad, hess, params),
        "hist": fit_tree_hist(Xb, grad, hess, bins, params),
        "oblivious": fit_oblivious_lossless(X, grad, hess, params),
        "uniform": fit_trees(X, [grad], [hess], [None], params, np.random.default_rng(4))[0],
    }
    scored = X.copy()
    scored[::3, :] = np.nan
    for backend, tree in trees.items():
        assert not tree.root.is_leaf, backend
        reached, stack = [], [tree.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                reached.append(node.index)
            else:
                stack += [node.left, node.right]
        assert sorted(reached) == tree.leaves().tolist(), backend
        walked = []
        for x in scored:
            node = tree.root
            while not node.is_leaf:
                node = node.right if x[node.feature] >= node.threshold else node.left
            walked.append(node.index)
        tree.value = np.arange(len(tree.value), dtype=np.float64)  # predict the leaf number
        np.testing.assert_array_equal(tree.predict(scored), walked, err_msg=backend)


def test_batch_without_draws_equals_each_tree_alone(rng):
    # with every candidate feature at every node no node draws, so a batch
    # grown level by level holds the trees each grown alone
    X = rng.normal(size=(50, 5))
    X[:, 3] = rng.integers(0, 3, size=50)
    bins, Xb = build_bins(X, max_edges=16)
    params = TreeParams(max_depth=4, reg_lambda=0.5, min_child_weight=0.2)
    grads = [rng.normal(size=50) for _ in range(4)]
    hesses = [rng.uniform(0.1, 1.0, size=50) for _ in range(4)]
    rows = [rng.integers(0, 50, size=50), None, np.arange(10, 40), rng.integers(0, 50, size=5)]
    feats = [0, 1, 3, 4]
    batch = fit_trees(Xb, grads, hesses, rows, params, bins=bins, candidate_features=feats)
    assert len(batch) == 4
    for t in range(4):
        alone = fit_tree_hist(
            Xb, grads[t], hesses[t], bins, params, rows=rows[t], candidate_features=feats
        )
        assert batch[t].to_dict() == alone.to_dict()
    assert any(not tree.root.is_leaf for tree in batch)
