"""The paper's Table 1: fifteen distance measures expressed as semirings.

Each :class:`DistanceMeasure` declares everything the execution layer needs:

- which **semiring** drives the sparse inner-product pass(es);
- whether the measure is **expanded** (dot-product semiring + row norms + an
  element-wise *expansion function*, single pass) or **NAMM** (a
  non-annihilating ⊗ evaluated over the full nonzero union, two passes);
- any value **pre-transform** (Hellinger maps values through √x; the set
  measures Dice/Jaccard/Russell-Rao binarize);
- the **norms** its expansion needs (the "Norm" column of Table 1);
- a **finalize** step applied after reduction (Minkowski's 1/p root,
  Hamming's division by k, Jensen-Shannon's √(s/2)).

Numeric conventions (documented because the paper's formulas elide edge
cases): degenerate denominators are resolved so that d(x, x) = 0 always
holds — e.g. cosine distance of two empty vectors is 0, of one empty and one
non-empty vector is 1. KL divergence follows the paper's annihilating
semantics: only columns where *both* inputs are nonzero contribute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.core.monoid import MAX
from repro.core.semiring import Semiring, dot_product_semiring, namm_semiring
from repro.errors import UnknownDistanceError

__all__ = [
    "DistanceMeasure",
    "make_distance",
    "available_distances",
    "EXPANDED",
    "NAMM",
    "DOT_PRODUCT_DISTANCES",
    "NAMM_DISTANCES",
]

EXPANDED = "expanded"
NAMM = "namm"

#: Tiny threshold under which a denominator is treated as exactly zero.
_EPS = 1e-300
# Relative degeneracy threshold for variance terms of the form k*q - s*s:
# for (near-)constant vectors both terms are ~k^2*c^2 while the true variance
# is 0, so the residual is pure rounding noise and must be compared against
# the cancelled magnitude, not an absolute epsilon.
_VAR_RTOL = 1e-9


@dataclass(frozen=True)
class DistanceMeasure:
    """A named distance with its semiring decomposition (one Table-1 row)."""

    name: str
    formula: str
    kind: str  # EXPANDED or NAMM
    semiring: Semiring
    norms: Tuple[str, ...] = ()
    transform: Optional[Callable[[np.ndarray], np.ndarray]] = None
    binarize: bool = False
    expansion: Optional[Callable] = None
    finalize: Optional[Callable] = None
    is_metric: bool = False
    symmetric: bool = True
    #: d(x, y) >= 0 for all inputs (False for raw dot products and KL
    #: divergence, whose values are signed on mixed-sign data)
    non_negative: bool = True
    #: d(x, x) == 0 for all x (False for dot — d(x,x) = ||x||^2 — and
    #: Russell-Rao, whose self-distance is (k - |x|) / k)
    zero_diagonal: bool = True
    params: Mapping[str, float] = field(default_factory=dict)

    @property
    def requires_union(self) -> bool:
        return self.kind == NAMM

    @property
    def n_passes(self) -> int:
        return self.semiring.n_passes

    def apply_expansion(self, dot: np.ndarray, norms_a: Mapping[str, np.ndarray],
                        norms_b: Mapping[str, np.ndarray], k: int) -> np.ndarray:
        """Combine the dot-product block with row norms (expanded measures)."""
        if self.expansion is None:
            raise ValueError(f"{self.name} has no expansion function")
        return self.expansion(np.asarray(dot, dtype=np.float64),
                              norms_a, norms_b, k)

    def apply_finalize(self, accum: np.ndarray, k: int) -> np.ndarray:
        """Post-reduction scalar map (NAMM measures); identity if absent."""
        if self.finalize is None:
            return np.asarray(accum, dtype=np.float64)
        return self.finalize(np.asarray(accum, dtype=np.float64), k)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DistanceMeasure({self.name!r}, kind={self.kind})"


# ======================================================================
# expansion functions (Table 1 "Expansion" column)
# ======================================================================
def _col(v: np.ndarray) -> np.ndarray:
    return np.asarray(v, dtype=np.float64)[:, None]


def _row(v: np.ndarray) -> np.ndarray:
    return np.asarray(v, dtype=np.float64)[None, :]


def _divide_or_zero(num, den, ok, out=None):
    """``num / den`` where ``ok``, else 0 (into ``out`` when given).

    One unmasked divide then a ``putmask``: a ``where=`` divide into a
    zeroed block takes numpy's slow masked loop whenever ``ok`` has holes
    (zero-norm rows and columns). Where ``ok`` holds the quotient is the
    same IEEE divide, so results are bit-identical to the masked form; the
    masked-out lanes may divide by zero or overflow, hence the errstate.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = np.asarray(np.divide(num, den, out=out))  # 0-d for scalars
    np.putmask(out, ~ok, 0.0)
    return out


def _zero_both_empty(out, norm_a, norm_b):
    """d(x, x) = 0 even for empty vectors: zero every pair of two rows whose
    norms are both (numerically) zero. Empty-vs-nonempty keeps its value."""
    out[np.ix_(np.asarray(norm_a) <= _EPS, np.asarray(norm_b) <= _EPS)] = 0.0


def _expand_dot(dot, na, nb, k):
    return dot


def _expand_cosine(dot, na, nb, k):
    # One block, reused from denominator to distance. An undefined
    # similarity (zero vector) is 0, so empty-vs-nonempty gets distance 1.
    out = _col(na["l2"]) * _row(nb["l2"])
    _divide_or_zero(dot, out, out > _EPS, out=out)
    np.subtract(1.0, out, out=out)
    _zero_both_empty(out, na["l2"], nb["l2"])
    np.clip(out, 0.0, 2.0, out=out)
    return out


def _expand_euclidean(dot, na, nb, k):
    sq = _col(na["l2sq"]) + _row(nb["l2sq"]) - 2.0 * dot
    np.clip(sq, 0.0, None, out=sq)  # guard cancellation (paper §2.1 caveat)
    return np.sqrt(sq)


def _expand_sqeuclidean(dot, na, nb, k):
    sq = _col(na["l2sq"]) + _row(nb["l2sq"]) - 2.0 * dot
    np.clip(sq, 0.0, None, out=sq)
    return sq


def _expand_hellinger(dot, na, nb, k):
    # Values were pre-transformed by sqrt, so the transformed l2sq norm is
    # the original L1 mass and the dot block is <sqrt(x), sqrt(y)>.
    sq = _col(na["l2sq"]) + _row(nb["l2sq"]) - 2.0 * dot
    np.clip(sq, 0.0, None, out=sq)
    return math.sqrt(0.5) * np.sqrt(sq)


def _expand_correlation(dot, na, nb, k):
    sa, sb = _col(na["sum"]), _row(nb["sum"])
    qa, qb = _col(na["l2sq"]), _row(nb["l2sq"])
    num = k * dot - sa * sb
    var_a = k * qa - sa * sa
    var_b = k * qb - sb * sb
    deg_a = var_a <= _VAR_RTOL * (k * qa + sa * sa)
    deg_b = var_b <= _VAR_RTOL * (k * qb + sb * sb)
    np.clip(var_a, 0.0, None, out=var_a)
    np.clip(var_b, 0.0, None, out=var_b)
    den = np.sqrt(var_a * var_b)
    degenerate = deg_a | deg_b | (den <= _EPS)
    out = _divide_or_zero(num, den, ~degenerate, out=num)
    np.subtract(1.0, out, out=out)
    # Zero-variance (constant) vectors have undefined correlation; the
    # covariance numerator is then 0 as well, so any rule keyed on the
    # expansion terms cannot tell x-vs-x from constant-vs-anything. We pick
    # d = 0 for every degenerate pair (d(x, x) = 0 must hold; correlation is
    # not a metric, so no other axiom is at stake). Documented convention.
    np.putmask(out, degenerate, 0.0)
    np.clip(out, 0.0, 2.0, out=out)
    return out


def _expand_dice(dot, na, nb, k):
    out = _col(na["l0"]) + _row(nb["l0"])
    _divide_or_zero(2.0 * dot, out, out > _EPS, out=out)
    np.subtract(1.0, out, out=out)
    _zero_both_empty(out, na["l0"], nb["l0"])
    return out


def _expand_jaccard(dot, na, nb, k):
    out = _col(na["l0"]) + _row(nb["l0"]) - dot
    _divide_or_zero(dot, out, out > _EPS, out=out)
    np.subtract(1.0, out, out=out)
    _zero_both_empty(out, na["l0"], nb["l0"])
    return out


def _expand_russellrao(dot, na, nb, k):
    if k <= 0:
        return np.zeros_like(dot)
    return (float(k) - dot) / float(k)


# ======================================================================
# NAMM product ops (Table 1 "NAMM" column) — all vectorized, all defined so
# that op(0, 0) == 0, the operational meaning of id⊗ = 0 in the paper.
# ======================================================================
def _abs_diff(x, y):
    return np.abs(x - y)


def _canberra_op(x, y):
    num = np.abs(x - y)
    den = np.abs(x) + np.abs(y)
    return _divide_or_zero(num, den, den > _EPS)


def _hamming_op(x, y):
    return (x != y).astype(np.float64)


def _xlogx_over(x, m):
    """x * log(x / m) with the 0 log 0 := 0 convention."""
    valid = (x > 0) & (m > 0)
    out = _divide_or_zero(x, m, valid)
    np.log(out, out=out, where=valid)
    out *= x
    out[~valid] = 0.0
    return out


def _jensen_shannon_op(x, y):
    mu = 0.5 * (x + y)
    return _xlogx_over(x, mu) + _xlogx_over(y, mu)


def _minkowski_op(p: float):
    def op(x, y):
        return np.abs(x - y) ** p

    return op


def _kl_op(x, y):
    """KL's replaced ⊗: x·log(x/y), evaluated only on the intersection."""
    valid = (x > 0) & (y > 0)
    out = _divide_or_zero(x, y, valid)
    np.log(out, out=out, where=valid)
    out *= x
    out[~valid] = 0.0
    return out


# ======================================================================
# finalizers
# ======================================================================
def _finalize_hamming(acc, k):
    return acc / float(k) if k else acc


def _finalize_jensen_shannon(acc, k):
    return np.sqrt(np.clip(0.5 * acc, 0.0, None))


def _finalize_minkowski(p: float):
    def fin(acc, k):
        return np.clip(acc, 0.0, None) ** (1.0 / p)

    return fin


# ======================================================================
# the catalogue
# ======================================================================
def _binarize(values: np.ndarray) -> np.ndarray:
    return (values != 0.0).astype(np.float64)


_FACTORIES: Dict[str, Callable[..., DistanceMeasure]] = {}


def _register(name):
    def deco(fn):
        _FACTORIES[name] = fn
        return fn

    return deco


@_register("dot")
def _make_dot() -> DistanceMeasure:
    return DistanceMeasure(
        name="dot", formula="sum_i x_i y_i", kind=EXPANDED,
        semiring=dot_product_semiring(name="dot"),
        norms=(), expansion=_expand_dot, is_metric=False, symmetric=True,
        non_negative=False, zero_diagonal=False)


@_register("cosine")
def _make_cosine() -> DistanceMeasure:
    return DistanceMeasure(
        name="cosine", formula="1 - <x,y> / (||x||_2 ||y||_2)", kind=EXPANDED,
        semiring=dot_product_semiring(name="cosine"),
        norms=("l2",), expansion=_expand_cosine, is_metric=False,
        symmetric=True)


@_register("euclidean")
def _make_euclidean() -> DistanceMeasure:
    return DistanceMeasure(
        name="euclidean", formula="sqrt(||x||^2 - 2<x,y> + ||y||^2)",
        kind=EXPANDED, semiring=dot_product_semiring(name="euclidean"),
        norms=("l2sq",), expansion=_expand_euclidean, is_metric=True,
        symmetric=True)


@_register("sqeuclidean")
def _make_sqeuclidean() -> DistanceMeasure:
    return DistanceMeasure(
        name="sqeuclidean", formula="||x||^2 - 2<x,y> + ||y||^2",
        kind=EXPANDED, semiring=dot_product_semiring(name="sqeuclidean"),
        norms=("l2sq",), expansion=_expand_sqeuclidean, is_metric=False,
        symmetric=True)


@_register("hellinger")
def _make_hellinger() -> DistanceMeasure:
    return DistanceMeasure(
        name="hellinger",
        formula="(1/sqrt(2)) sqrt(sum_i (sqrt(x_i) - sqrt(y_i))^2)",
        kind=EXPANDED, semiring=dot_product_semiring(name="hellinger"),
        norms=("l2sq",), transform=lambda v: np.sqrt(np.clip(v, 0.0, None)),
        expansion=_expand_hellinger, is_metric=True, symmetric=True)


@_register("correlation")
def _make_correlation() -> DistanceMeasure:
    return DistanceMeasure(
        name="correlation", formula="1 - pearson(x, y)", kind=EXPANDED,
        semiring=dot_product_semiring(name="correlation"),
        norms=("sum", "l2sq"), expansion=_expand_correlation,
        is_metric=False, symmetric=True)


@_register("dice")
def _make_dice() -> DistanceMeasure:
    return DistanceMeasure(
        name="dice", formula="1 - 2|x∩y| / (|x| + |y|)", kind=EXPANDED,
        semiring=dot_product_semiring(name="dice"), norms=("l0",),
        binarize=True, expansion=_expand_dice, is_metric=False,
        symmetric=True)


@_register("jaccard")
def _make_jaccard() -> DistanceMeasure:
    return DistanceMeasure(
        name="jaccard", formula="1 - |x∩y| / |x∪y|", kind=EXPANDED,
        semiring=dot_product_semiring(name="jaccard"), norms=("l0",),
        binarize=True, expansion=_expand_jaccard, is_metric=True,
        symmetric=True)


@_register("russellrao")
def _make_russellrao() -> DistanceMeasure:
    return DistanceMeasure(
        name="russellrao", formula="(k - |x∩y|) / k", kind=EXPANDED,
        semiring=dot_product_semiring(name="russellrao"), norms=(),
        binarize=True, expansion=_expand_russellrao, is_metric=False,
        symmetric=True, zero_diagonal=False)


@_register("kl_divergence")
def _make_kl() -> DistanceMeasure:
    return DistanceMeasure(
        name="kl_divergence", formula="sum_i x_i log(x_i / y_i)",
        kind=EXPANDED,
        semiring=dot_product_semiring(product_op=_kl_op, name="kl_divergence"),
        norms=(), expansion=_expand_dot, is_metric=False, symmetric=False,
        non_negative=False)


@_register("manhattan")
def _make_manhattan() -> DistanceMeasure:
    return DistanceMeasure(
        name="manhattan", formula="sum_i |x_i - y_i|", kind=NAMM,
        semiring=namm_semiring(_abs_diff, name="manhattan"),
        is_metric=True, symmetric=True)


@_register("chebyshev")
def _make_chebyshev() -> DistanceMeasure:
    return DistanceMeasure(
        name="chebyshev", formula="max_i |x_i - y_i|", kind=NAMM,
        semiring=namm_semiring(_abs_diff, reduce=MAX, name="chebyshev"),
        is_metric=True, symmetric=True)


@_register("canberra")
def _make_canberra() -> DistanceMeasure:
    return DistanceMeasure(
        name="canberra", formula="sum_i |x_i - y_i| / (|x_i| + |y_i|)",
        kind=NAMM, semiring=namm_semiring(_canberra_op, name="canberra"),
        is_metric=True, symmetric=True)


@_register("hamming")
def _make_hamming() -> DistanceMeasure:
    return DistanceMeasure(
        name="hamming", formula="(1/k) sum_i [x_i != y_i]", kind=NAMM,
        semiring=namm_semiring(_hamming_op, name="hamming"),
        finalize=_finalize_hamming, is_metric=True, symmetric=True)


@_register("jensen_shannon")
def _make_jensen_shannon() -> DistanceMeasure:
    return DistanceMeasure(
        name="jensen_shannon",
        formula="sqrt((sum_i x_i log(x_i/m_i) + y_i log(y_i/m_i)) / 2)",
        kind=NAMM,
        semiring=namm_semiring(_jensen_shannon_op, name="jensen_shannon"),
        finalize=_finalize_jensen_shannon, is_metric=True, symmetric=True)


@_register("minkowski")
def _make_minkowski(p: float = 3.0) -> DistanceMeasure:
    p = float(p)
    if p < 1.0:
        raise ValueError(f"minkowski requires p >= 1, got {p}")
    return DistanceMeasure(
        name="minkowski", formula="(sum_i |x_i - y_i|^p)^(1/p)", kind=NAMM,
        semiring=namm_semiring(_minkowski_op(p), name=f"minkowski(p={p:g})"),
        finalize=_finalize_minkowski(p), is_metric=True, symmetric=True,
        params={"p": p})


_ALIASES = {
    "l1": "manhattan",
    "cityblock": "manhattan",
    "taxicab": "manhattan",
    "l2": "euclidean",
    "linf": "chebyshev",
    "kl": "kl_divergence",
    "kldivergence": "kl_divergence",
    "kl-divergence": "kl_divergence",
    "jensen-shannon": "jensen_shannon",
    "jensenshannon": "jensen_shannon",
    "js": "jensen_shannon",
    "russell-rao": "russellrao",
    "russell_rao": "russellrao",
    "inner_product": "dot",
    "dice-sorensen": "dice",
}


def canonical_name(name: str) -> str:
    """Resolve aliases (``l1`` → ``manhattan``, etc.) to catalogue names."""
    key = name.strip().lower().replace(" ", "_")
    key = _ALIASES.get(key, key)
    if key not in _FACTORIES:
        raise UnknownDistanceError(
            f"unknown distance {name!r}; available: {sorted(_FACTORIES)}")
    return key


def make_distance(name: str, **params) -> DistanceMeasure:
    """Instantiate a Table-1 distance by name (aliases accepted)."""
    return _FACTORIES[canonical_name(name)](**params)


def available_distances() -> Tuple[str, ...]:
    """Canonical names of all catalogue distances."""
    return tuple(sorted(_FACTORIES))


#: The Table-3 benchmark split: dot-product-based (already well served by
#: csrgemm-style baselines) vs non-trivial NAMM metrics.
DOT_PRODUCT_DISTANCES = ("correlation", "cosine", "dice", "euclidean",
                         "hellinger", "jaccard", "russellrao")
NAMM_DISTANCES = ("canberra", "chebyshev", "hamming", "jensen_shannon",
                  "kl_divergence", "manhattan", "minkowski")
