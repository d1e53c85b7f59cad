"""Independent reference paths: naive-loop layer forwards and numerical
rank checks of stable-term feature families.

The naive forwards evaluate the layer formulas summation by summation on
nested Python lists, with no contraction library, so they can certify the
BLAS-based forwards.  Each formula is one nested loop.  The invariant
layer and the equivariant layer's last bias row are one eight-term sum,
the latter with ``d_out = n_L``; the first weight row, the first bias row
and every interior bias row are one loop over the input width.

The rank machinery realizes "linear independence of stable polynomial
terms as functions" numerically: a family of terms is independent iff its
design matrix of random evaluations has full column rank, which we certify
through the singular-value ratio of a 3x-oversampled matrix, and a
family's known linear relations show as that many null singular values.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .dense import Rng
from .layers import EquivariantParams, InvariantParams
from .stableterms import PsiParams, all_terms, psi_indices, w_indices, wb_indices
from .weightspace import Uniform, WeightObject, WeightSpec, random_weights

__all__ = [
    "naive_equivariant_forward",
    "naive_invariant_forward",
    "independence_report",
    "RANK_THRESHOLD",
]

RANK_THRESHOLD = 1e-6
OVERSAMPLE = 3


# ---------------------------------------------------------------------------
# Naive-loop forwards


def _matprod(A, B):
    rows, inner, cols = len(A), len(B), len(B[0])
    out = [[0.0] * cols for _ in range(rows)]
    for i in range(rows):
        for k in range(cols):
            acc = 0.0
            for j in range(inner):
                acc += A[i][j] * B[j][k]
            out[i][k] = acc
    return out


def _naive_terms(spec: WeightSpec, Wl, bl, psi_bw, psi_ww):
    """All stable-term families on nested lists, one channel at a time."""
    L, d = spec.L, spec.d
    chains = {}
    for t in range(L):
        chains[(t + 1, t)] = [Wl[t][c] for c in range(d)]
        for s in range(t + 2, L + 1):
            prev = chains[(s - 1, t)]
            chains[(s, t)] = [_matprod(Wl[s - 1][c], prev[c]) for c in range(d)]
    wb = {}
    for s, t in wb_indices(L):
        wb[(s, t)] = [
            [
                sum(chains[(s, t)][c][p][q] * bl[t - 1][c][q] for q in range(spec.n[t]))
                for p in range(spec.n[s])
            ]
            for c in range(d)
        ]
    bw = {}
    ww = {}
    for s, t in psi_indices(L):
        row = psi_bw[(s, t)][0]
        bw[(s, t)] = []
        for c in range(d):
            bridge = [
                sum(row[m] * chains[(L, t)][c][m][q] for m in range(spec.n[L]))
                for q in range(spec.n[t])
            ]
            bw[(s, t)].append(
                [
                    [bl[s - 1][c][p] * bridge[q] for q in range(spec.n[t])]
                    for p in range(spec.n[s])
                ]
            )
        ww[(s, t)] = [
            _matprod(_matprod(chains[(s, 0)][c], psi_ww[(s, t)]), chains[(L, t)][c])
            for c in range(d)
        ]
    return chains, wb, bw, ww


def _trace(mat):
    return sum(mat[p][p] for p in range(len(mat)))


def _invariant_sum(spec: WeightSpec, terms, bl, coefs, e: int, m: int):
    """``[e][m]``: the eight-term invariant combination of one object.

    ``coefs`` are the blocks of the parts WWLL, WL0, trWW, bWLL0, Wb, trbW
    and b, laid out ``[d][e][...][m]`` (a per-layer part as a table), then
    the constant ``[e][m]``.
    """
    chains, wb, bw, ww = terms
    L, n0, nL = spec.L, spec.n[0], spec.n[-1]
    c_wwll, c_wl0, c_trww, c_bwll0, c_wb, c_trbw, c_b, c_1 = coefs
    out = [[0.0] * m for _ in range(e)]
    for co in range(e):
        for k in range(m):
            acc = c_1[co][k]
            for c in range(spec.d):
                for p in range(nL):
                    for q in range(n0):
                        acc += ww[(L, 0)][c][p][q] * c_wwll[c][co][p][q][k]
                        acc += chains[(L, 0)][c][p][q] * c_wl0[c][co][p][q][k]
                        acc += bw[(L, 0)][c][p][q] * c_bwll0[c][co][p][q][k]
                    acc += bl[L - 1][c][p] * c_b[c][co][p][k]
                for s in range(1, L):
                    acc += _trace(ww[(s, s)][c]) * c_trww[s][c][co][k]
                for t in range(1, L):
                    for p in range(nL):
                        acc += wb[(L, t)][c][p] * c_wb[t][c][co][p][k]
                    acc += _trace(bw[(t, t)][c]) * c_trbw[t][c][co][k]
            out[co][k] = acc
    return out


def _column_rows(spec: WeightSpec, terms, bl, i: int, coefs, e: int, m: int):
    """``[e][n_i][m]``: the rows of layer ``i`` that mix ``[W]^(i,0)``,
    ``[WW]^(i,0)(L,0)`` and ``[bW]^(i)(L,0)`` over their column index, then
    ``[Wb]^(i,t)(t)`` for ``0 < t < i``, then ``b^(i)``.

    ``coefs`` are the three ``[d][e][n0][m]`` blocks, the table ``t ->
    [d][e][m]`` and the ``[d][e][m]`` bias block.
    """
    chains, wb, bw, ww = terms
    c_w, c_ww, c_bw, c_wb, c_b = coefs
    out = [[[0.0] * m for _ in range(spec.n[i])] for _ in range(e)]
    for co in range(e):
        for j in range(spec.n[i]):
            for k in range(m):
                acc = 0.0
                for c in range(spec.d):
                    for q in range(spec.n[0]):
                        acc += chains[(i, 0)][c][j][q] * c_w[c][co][q][k]
                        acc += ww[(i, 0)][c][j][q] * c_ww[c][co][q][k]
                        acc += bw[(i, 0)][c][j][q] * c_bw[c][co][q][k]
                    for t in range(1, i):
                        acc += wb[(i, t)][c][j] * c_wb[t][c][co][k]
                    acc += bl[i - 1][c][j] * c_b[c][co][k]
                out[co][j][k] = acc
    return out


def _invariant_coefs(params, prefix: str, swap: bool) -> list:
    """The blocks ``prefix + part`` of :func:`_invariant_sum` as nested
    lists, each ``[e, d, ...]`` block swapped to ``[d, e, ...]`` if ``swap``."""
    lists = lambda a: (a.swapaxes(0, 1) if swap else a).tolist()
    coefs = []
    for part in ("WWLL", "WL0", "trWW", "bWLL0", "Wb", "trbW", "b"):
        v = getattr(params, prefix + part)
        coefs.append({k: lists(a) for k, a in v.items()} if isinstance(v, Mapping) else lists(v))
    return coefs + [getattr(params, prefix + "1").tolist()]


def _rows(U: WeightObject) -> list:
    """Each row of ``U`` as the nested lists ``(W^1..W^L, b^1..b^L)``."""
    W, b = [w.tolist() for w in U.W], [v.tolist() for v in U.b]
    if U.batch is None:
        return [(W, b)]
    return [([w[r] for w in W], [v[r] for v in b]) for r in range(U.batch)]


def _psi_lists(psi: PsiParams):
    return {k: v.tolist() for k, v in psi.bw.items()}, {k: v.tolist() for k, v in psi.ww.items()}


def naive_equivariant_forward(params: EquivariantParams, U: WeightObject) -> WeightObject:
    """Literal nested-loop evaluation of the equivariant layer."""
    spec, e = params.spec, params.e
    L, d, n = spec.L, spec.d, spec.n
    psi = _psi_lists(params.psi)
    unit = lambda a: a[..., None].tolist()  # a bias row's blocks, as m = 1
    first_w = [params.phiW_1_W.tolist(), params.phiW_1_WW.tolist(), params.phiW_1_bW.tolist()]
    first_w += [{}, params.phiW_1_b.tolist()]
    first_b = [unit(params.phib_1_W), unit(params.phib_1_WW), unit(params.phib_1_bW)]
    first_b += [{}, unit(params.phib_1_b)]
    scalars, mid_b = {}, {}
    for i, blk in params.mid.items():
        scalars[i] = (blk.w.tolist(), blk.ww.tolist(), blk.bw.tolist())
        mid_b[i] = [unit(blk.b_w), unit(blk.b_ww), unit(blk.b_bw)]
        mid_b[i] += [{t: unit(v) for t, v in blk.b_wb.items()}, unit(blk.b_b)]
    last_w = (params.phiW_L_W.tolist(), params.phiW_L_WW.tolist(), params.phiW_L_bW.tolist())
    last_b = _invariant_coefs(params, "phib_L_", swap=True)
    outs = []
    for Wl, bl in _rows(U):
        terms = _naive_terms(spec, Wl, bl, *psi)
        chains, _, bw, ww = terms

        def bias(i, coefs):  # a bias row: the column rows at m = 1
            return [[v[0] for v in r] for r in _column_rows(spec, terms, bl, i, coefs, e, 1)]

        W_out = [_column_rows(spec, terms, bl, 1, first_w, e, n[0])]
        b_out = [bias(1, first_b)]
        # 1 < i < L: the weight row has scalar coefficients.
        for i in range(2, L):
            s_w, s_ww, s_bw = scalars[i]
            EWi = [[[0.0] * n[i - 1] for _ in range(n[i])] for _ in range(e)]
            for co in range(e):
                for j in range(n[i]):
                    for k in range(n[i - 1]):
                        acc = 0.0
                        for c in range(d):
                            acc += chains[(i, i - 1)][c][j][k] * s_w[c][co]
                            acc += ww[(i, i - 1)][c][j][k] * s_ww[c][co]
                            acc += bw[(i, i - 1)][c][j][k] * s_bw[c][co]
                        EWi[co][j][k] = acc
            W_out.append(EWi)
            b_out.append(bias(i, mid_b[i]))
        # i = L: the weight row mixes over the row index; the bias row is the
        # invariant sum with m = n_L.
        r_w, r_ww, r_bw = last_w
        EWL = [[[0.0] * n[L - 1] for _ in range(n[L])] for _ in range(e)]
        for co in range(e):
            for j in range(n[L]):
                for k in range(n[L - 1]):
                    acc = 0.0
                    for c in range(d):
                        for p in range(n[L]):
                            acc += r_w[co][c][p][j] * chains[(L, L - 1)][c][p][k]
                            acc += r_ww[co][c][p][j] * ww[(L, L - 1)][c][p][k]
                            acc += r_bw[co][c][p][j] * bw[(L, L - 1)][c][p][k]
                    EWL[co][j][k] = acc
        W_out.append(EWL)
        b_out.append(_invariant_sum(spec, terms, bl, last_b, e, n[L]))
        outs.append(W_out + b_out)
    pick = (lambda k: [o[k] for o in outs]) if U.batch is not None else (lambda k: outs[0][k])
    return WeightObject(
        params.out_spec(),
        tuple(np.asarray(pick(k), dtype=np.float64) for k in range(L)),
        tuple(np.asarray(pick(k), dtype=np.float64) for k in range(L, 2 * L)),
        batch=U.batch,
    )


def naive_invariant_forward(params: InvariantParams, U: WeightObject) -> np.ndarray:
    """Literal nested-loop evaluation of the invariant layer."""
    spec = params.spec
    psi = _psi_lists(params.psi)
    coefs = _invariant_coefs(params, "phi_", swap=False)
    outs = [
        _invariant_sum(spec, _naive_terms(spec, Wl, bl, *psi), bl, coefs, params.e, params.d_out)
        for Wl, bl in _rows(U)
    ]
    return np.asarray(outs if U.batch is not None else outs[0], dtype=np.float64)


# ---------------------------------------------------------------------------
# Design matrices and rank checks

# Each family token names a StableTermSet table and its keys at depth L, in
# column order.  "const" (the constant 1) is no such table.
_FAMILIES = {
    "w_noL0": ("w", lambda L: [p for p in w_indices(L) if p != (L, 0)]),
    "w_L0": ("w", lambda L: [(L, 0)]),
    "b": ("b", lambda L: range(1, L + 1)),
    "wb_noL": ("wb", lambda L: [(s, t) for s, t in wb_indices(L) if s < L]),
    "wb_L": ("wb", lambda L: [(L, t) for t in range(1, L)]),
    "bw_diag": ("bw", lambda L: [(t, t) for t in range(1, L)]),
    "ww_diag": ("ww", lambda L: [(s, s) for s in range(1, L)]),
    "const": (None, None),
}


def _feature_row(U: WeightObject, psi: PsiParams, families: Sequence[str]) -> np.ndarray:
    """The selected column groups of ``U``, flattened and joined in order."""
    terms = all_terms(U, psi)
    parts = []
    for fam in families:
        table, keys = _FAMILIES[fam]
        if fam == "const":
            parts.append(np.ones(1))
        else:
            parts += [getattr(terms, table)[key].ravel() for key in keys(U.spec.L)]
    return np.concatenate(parts)


def _design(spec, psi, families, rng) -> np.ndarray:
    """Feature rows of ``OVERSAMPLE * F`` i.i.d. uniform(-1, 1) weight
    objects ``rng.child("design", k)``, F being the feature count."""
    draw = lambda k: random_weights(spec, rng.child("design", k), Uniform(-1.0, 1.0))
    rows = [_feature_row(draw(0), psi, families)]
    rows += [_feature_row(draw(k), psi, families) for k in range(1, OVERSAMPLE * rows[0].size)]
    return np.stack(rows)


def independence_report(
    spec: WeightSpec,
    psi: PsiParams,
    rng: Rng,
    threshold: float = RANK_THRESHOLD,
) -> dict:
    """Numerical rank of the stable-term families on one design matrix draw.

    Every family is evaluated on the same ``OVERSAMPLE * F`` uniform(-1, 1)
    weight objects ``rng.child("design", k)``, and a singular value counts
    as null when its ratio to the largest is below ``threshold``.

    The families asserted independent (all ``[W]^(s,t)`` except ``(L,0)``,
    all biases, all ``[Wb]`` with ``s < L``, and the constant) report their
    smallest ratio and whether it clears ``threshold``.  Each coupled pair,
    ``{[W]^(L,0), [WW]^(s,0)(L,s)}`` and ``{[Wb]^(L,t)(t), [bW]^(t)(L,t)}``,
    reports its ``deficiency``, the count of null ratios, next to the
    ``expected_deficiency`` ``(L-1)*d`` that its trace relations fix for
    every connection matrix: per channel and ``1 <= s < L``,
    ``tr [WW]^(s,0)(L,s) = tr(psi^(s,s) [W]^(L,0))`` and
    ``tr [bW]^(s)(L,s) = psi^(s,s) . [Wb]^(L,s)(s)``.  A broken relation
    leaves fewer null directions, and a family that vanishes more.
    """

    def sigma_ratios(families):
        X = _design(spec, psi, families, rng)
        sv = np.linalg.svd(X, compute_uv=False)
        return sv / sv[0]

    report: dict = {
        "spec": {"L": spec.L, "n": list(spec.n), "d": spec.d},
        "threshold": threshold,
        "oversample": OVERSAMPLE,
    }
    asserted = ["w_noL0", "b", "wb_noL", "const"]
    ratios = sigma_ratios(asserted)
    report["asserted_independent"] = {
        "families": asserted,
        "features": ratios.size,
        "sigma_ratio": float(ratios[-1]),
        "full_rank": bool(ratios[-1] >= threshold),
    }
    report["coupled"] = []
    for fams in (["w_L0", "ww_diag"], ["wb_L", "bw_diag"]):
        ratios = sigma_ratios(fams)
        report["coupled"].append(
            {
                "families": fams,
                "features": ratios.size,
                "deficiency": int(np.count_nonzero(ratios < threshold)),
                "expected_deficiency": (spec.L - 1) * spec.d,
            }
        )
    return report
