"""Distance catalogue tests: every Table-1 measure against the dense oracle,
plus metric-space properties and edge cases."""

import numpy as np
import pytest

from repro.core.distances import (
    DOT_PRODUCT_DISTANCES,
    NAMM_DISTANCES,
    available_distances,
    canonical_name,
    make_distance,
)
from repro.core.pairwise import pairwise_distances
from repro.core.reference import pairwise_reference
from repro.errors import UnknownDistanceError
from tests.conftest import random_dense

ALL = available_distances()
#: metrics whose formulas need nonnegative input
POSITIVE_ONLY = {"hellinger", "kl_divergence", "jensen_shannon"}


def _inputs(rng, metric, m=15, n=11, k=20, density=0.35):
    positive = metric in POSITIVE_ONLY
    x = random_dense(rng, m, k, density, positive=positive)
    y = random_dense(rng, n, k, density, positive=positive)
    return x, y


class TestCatalogue:
    def test_all_sixteen_present(self):
        assert len(ALL) == 16
        for name in ("cosine", "euclidean", "manhattan", "chebyshev",
                     "canberra", "hamming", "jensen_shannon", "kl_divergence",
                     "minkowski", "jaccard", "dice", "russellrao", "dot",
                     "hellinger", "correlation", "sqeuclidean"):
            assert name in ALL

    def test_table3_split_covers_14_benchmarked(self):
        assert len(DOT_PRODUCT_DISTANCES) == 7
        assert len(NAMM_DISTANCES) == 7
        assert not set(DOT_PRODUCT_DISTANCES) & set(NAMM_DISTANCES)

    @pytest.mark.parametrize("alias,canonical", [
        ("l1", "manhattan"), ("cityblock", "manhattan"), ("l2", "euclidean"),
        ("linf", "chebyshev"), ("KL", "kl_divergence"),
        ("jensen-shannon", "jensen_shannon"), ("russell-rao", "russellrao"),
        ("Cosine", "cosine"),
    ])
    def test_aliases(self, alias, canonical):
        assert canonical_name(alias) == canonical

    def test_unknown_distance(self):
        with pytest.raises(UnknownDistanceError):
            make_distance("wasserstein")

    def test_minkowski_requires_p_geq_1(self):
        with pytest.raises(ValueError):
            make_distance("minkowski", p=0.5)

    def test_kind_flags(self):
        assert make_distance("cosine").n_passes == 1
        assert make_distance("manhattan").n_passes == 2
        assert not make_distance("kl_divergence").symmetric
        # KL runs on the annihilating (single-pass) semiring despite being
        # grouped with the non-trivial metrics in Table 3.
        assert make_distance("kl_divergence").n_passes == 1


class TestAgainstOracle:
    @pytest.mark.parametrize("metric", ALL)
    def test_host_engine_matches_reference(self, rng, metric):
        x, y = _inputs(rng, metric)
        kw = {"p": 3.0} if metric == "minkowski" else {}
        got = pairwise_distances(x, y, metric=metric, engine="host", **kw)
        want = pairwise_reference(x, y, metric, **kw)
        np.testing.assert_allclose(got, want, atol=1e-9)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0])
    def test_minkowski_p_sweep(self, rng, p):
        x, y = _inputs(rng, "minkowski")
        got = pairwise_distances(x, y, metric="minkowski", engine="host", p=p)
        want = pairwise_reference(x, y, "minkowski", p=p)
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_minkowski_p1_equals_manhattan(self, rng):
        x, y = _inputs(rng, "minkowski")
        np.testing.assert_allclose(
            pairwise_distances(x, y, metric="minkowski", engine="host", p=1.0),
            pairwise_distances(x, y, metric="manhattan", engine="host"),
            atol=1e-9)

    def test_minkowski_p2_equals_euclidean(self, rng):
        x, y = _inputs(rng, "minkowski")
        np.testing.assert_allclose(
            pairwise_distances(x, y, metric="minkowski", engine="host", p=2.0),
            pairwise_distances(x, y, metric="euclidean", engine="host"),
            atol=1e-9)


class TestMetricProperties:
    @pytest.mark.parametrize("metric", [m for m in ALL
                                        if make_distance(m).is_metric])
    def test_self_distance_zero(self, rng, metric):
        x, _ = _inputs(rng, metric)
        d = pairwise_distances(x, x, metric=metric, engine="host")
        # sqrt-family metrics amplify fp cancellation residue: sqrt(1e-12)
        # is 1e-6, so the tolerance here is looser than elsewhere.
        np.testing.assert_allclose(np.diag(d), 0.0, atol=1e-5)

    @pytest.mark.parametrize("metric", [m for m in ALL
                                        if make_distance(m).symmetric])
    def test_symmetry(self, rng, metric):
        x, y = _inputs(rng, metric)
        dxy = pairwise_distances(x, y, metric=metric, engine="host")
        dyx = pairwise_distances(y, x, metric=metric, engine="host")
        np.testing.assert_allclose(dxy, dyx.T, atol=1e-9)

    @pytest.mark.parametrize("metric",
                             ["manhattan", "euclidean", "chebyshev",
                              "canberra", "hamming", "jaccard"])
    def test_triangle_inequality(self, rng, metric):
        x, _ = _inputs(rng, metric, m=10)
        d = pairwise_distances(x, x, metric=metric, engine="host")
        lhs = d[:, :, None]
        rhs = d[:, None, :] + d[None, :, :]
        assert np.all(lhs <= rhs + 1e-9)

    # dot is a similarity; KL's intersection-only sum is legitimately
    # negative when x < y on shared columns of non-normalized inputs.
    @pytest.mark.parametrize("metric",
                             [m for m in ALL
                              if m not in ("dot", "kl_divergence")])
    def test_nonnegative(self, rng, metric):
        x, y = _inputs(rng, metric)
        kw = {"p": 3.0} if metric == "minkowski" else {}
        d = pairwise_distances(x, y, metric=metric, engine="host", **kw)
        assert np.all(d >= -1e-12)


class TestEdgeCases:
    def test_cosine_zero_vector_pairs(self):
        x = np.array([[0.0, 0.0], [1.0, 0.0]])
        d = pairwise_distances(x, x, metric="cosine", engine="host")
        assert d[0, 0] == pytest.approx(0.0)  # both empty -> identical
        assert d[0, 1] == pytest.approx(1.0)  # empty vs non-empty -> max
        assert d[1, 1] == pytest.approx(0.0)

    def test_correlation_constant_rows(self):
        # Zero-variance rows: every degenerate pair maps to 0 (documented
        # convention in _expand_correlation — d(x, x) = 0 must hold and the
        # expansion terms cannot distinguish the degenerate sub-cases).
        x = np.array([[1.0, 1.0, 1.0], [1.0, 2.0, 3.0]])
        d = pairwise_distances(x, x, metric="correlation", engine="host")
        assert d[0, 0] == pytest.approx(0.0)
        assert d[0, 1] == pytest.approx(0.0)
        assert d[1, 1] == pytest.approx(0.0)

    def test_jaccard_both_empty_rows(self):
        x = np.array([[0.0, 0.0], [1.0, 1.0]])
        d = pairwise_distances(x, x, metric="jaccard", engine="host")
        assert d[0, 0] == pytest.approx(0.0)
        assert d[0, 1] == pytest.approx(1.0)

    def test_hamming_counts_union_mismatches(self):
        x = np.array([[1.0, 0.0, 2.0, 0.0]])
        y = np.array([[0.0, 0.0, 2.0, 3.0]])
        d = pairwise_distances(x, y, metric="hamming", engine="host")
        assert d[0, 0] == pytest.approx(2.0 / 4.0)

    def test_kl_intersection_only_semantics(self):
        # Columns where either side is zero contribute nothing (paper rule).
        x = np.array([[0.5, 0.5, 0.0]])
        y = np.array([[0.25, 0.0, 0.75]])
        d = pairwise_distances(x, y, metric="kl_divergence", engine="host")
        assert d[0, 0] == pytest.approx(0.5 * np.log(2.0))

    def test_russellrao_empty_dimensionality(self):
        x = np.zeros((2, 0))
        d = pairwise_distances(x, x, metric="russellrao", engine="host")
        np.testing.assert_allclose(d, 0.0)

    def test_chebyshev_zero_dimensional(self):
        x = np.zeros((2, 0))
        d = pairwise_distances(x, x, metric="chebyshev", engine="host")
        np.testing.assert_allclose(d, 0.0)

    def test_dice_is_binarized(self, rng):
        # Values must not matter for set-based measures.
        x, y = _inputs(rng, "dice")
        d1 = pairwise_distances(x, y, metric="dice", engine="host")
        d2 = pairwise_distances((x != 0) * 7.0, (y != 0) * 3.0,
                                metric="dice", engine="host")
        np.testing.assert_allclose(d1, d2, atol=1e-12)


# The expansion epilogues as they were written with masked ``np.divide(...,
# where=...)`` into a zeroed block. The rewritten epilogues must return the
# same bits.
_EPS_ORACLE = 1e-300
_VAR_RTOL_ORACLE = 1e-9


def _col(v):
    return np.asarray(v, dtype=np.float64)[:, None]


def _row(v):
    return np.asarray(v, dtype=np.float64)[None, :]


def _masked_cosine(dot, na, nb, k):
    denom = _col(na["l2"]) * _row(nb["l2"])
    sim = np.zeros_like(dot)
    np.divide(dot, denom, out=sim, where=denom > _EPS_ORACLE)
    out = 1.0 - sim
    both_zero = ((_col(na["l2"]) <= _EPS_ORACLE)
                 & (_row(nb["l2"]) <= _EPS_ORACLE))
    out[both_zero] = 0.0
    np.clip(out, 0.0, 2.0, out=out)
    return out


def _masked_correlation(dot, na, nb, k):
    sa, sb = _col(na["sum"]), _row(nb["sum"])
    qa, qb = _col(na["l2sq"]), _row(nb["l2sq"])
    num = k * dot - sa * sb
    var_a = k * qa - sa * sa
    var_b = k * qb - sb * sb
    deg_a = var_a <= _VAR_RTOL_ORACLE * (k * qa + sa * sa)
    deg_b = var_b <= _VAR_RTOL_ORACLE * (k * qb + sb * sb)
    np.clip(var_a, 0.0, None, out=var_a)
    np.clip(var_b, 0.0, None, out=var_b)
    den = np.sqrt(var_a * var_b)
    degenerate = deg_a | deg_b | (den <= _EPS_ORACLE)
    corr = np.zeros_like(dot)
    np.divide(num, den, out=corr, where=~degenerate)
    out = 1.0 - corr
    out[degenerate] = 0.0
    np.clip(out, 0.0, 2.0, out=out)
    return out


def _masked_dice(dot, na, nb, k):
    denom = _col(na["l0"]) + _row(nb["l0"])
    out = np.zeros_like(dot)
    np.divide(2.0 * dot, denom, out=out, where=denom > _EPS_ORACLE)
    out = 1.0 - out
    both_zero = ((_col(na["l0"]) <= _EPS_ORACLE)
                 & (_row(nb["l0"]) <= _EPS_ORACLE))
    out[both_zero] = 0.0
    return out


def _masked_jaccard(dot, na, nb, k):
    union = _col(na["l0"]) + _row(nb["l0"]) - dot
    out = np.zeros_like(dot)
    np.divide(dot, union, out=out, where=union > _EPS_ORACLE)
    out = 1.0 - out
    both_zero = ((_col(na["l0"]) <= _EPS_ORACLE)
                 & (_row(nb["l0"]) <= _EPS_ORACLE))
    out[both_zero] = 0.0
    return out


_MASKED_ORACLES = {"cosine": _masked_cosine,
                   "correlation": _masked_correlation,
                   "dice": _masked_dice, "jaccard": _masked_jaccard}

#: Zero norms, norms whose product is at most 1e-300 while each is above it
#: (1e-160 * 1e-160, 1e-200 * 1e-150), a norm at the threshold, and
#: ordinary ones.
_NORM_POOL = np.array([0.0, 0.0, 1e-300, 1e-200, 1e-160, 1e-150,
                       0.5, 1.0, 2.0, 3.0])


def _epilogue_inputs(seed, n=9, m=7, k=4):
    rng = np.random.default_rng(seed)

    def norms(size):
        # Row 0 is a constant vector (sum 4, l2sq 4 over k=4 columns:
        # zero variance); row 1 is empty.
        sums = rng.integers(-3, 5, size).astype(np.float64)
        l2sq = rng.choice(_NORM_POOL, size) + np.abs(sums)
        sums[0], l2sq[0] = 4.0, 4.0
        sums[1], l2sq[1] = 0.0, 0.0
        l2 = rng.choice(_NORM_POOL, size)
        l2[1] = 0.0
        l0 = rng.choice(_NORM_POOL, size)
        l0[1] = 0.0
        return {"l2": l2, "l0": l0, "sum": sums, "l2sq": l2sq}

    dot = rng.integers(-2, 4, (n, m)).astype(np.float64)
    dot *= rng.choice([1.0, 1e-160, 0.5], (n, m))
    dot[rng.random((n, m)) < 0.15] = np.nan
    return dot, norms(n), norms(m), k


class TestEpilogueIdentity:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("metric", sorted(_MASKED_ORACLES))
    def test_equals_masked_divide_form(self, metric, seed):
        dot, na, nb, k = _epilogue_inputs(seed)
        got = make_distance(metric).apply_expansion(dot, na, nb, k)
        want = _MASKED_ORACLES[metric](dot, na, nb, k)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("metric", sorted(_MASKED_ORACLES))
    def test_empty_block(self, metric):
        dot, na, nb, k = _epilogue_inputs(0)
        na = {key: v[:0] for key, v in na.items()}
        got = make_distance(metric).apply_expansion(dot[:0], na, nb, k)
        assert got.shape == (0, dot.shape[1])
