"""Independent reference paths: naive-loop layer forwards and numerical
rank checks of stable-term feature families.

The naive forwards evaluate the layer formulas summation by summation on
nested Python lists, with no contraction library, so they can certify the
BLAS-based forwards.  The rank machinery realizes "linear independence
of stable polynomial terms as functions" numerically: a family of terms is
independent iff its design matrix of random evaluations has full column
rank, which we certify through the singular-value ratio of a 3x-oversampled
matrix, and a family's known linear relations show as that many null
singular values.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .dense import Rng
from .errors import ValidationError
from .layers import EquivariantParams, InvariantParams
from .stableterms import PsiParams, all_terms, featurize, psi_indices, w_indices, wb_indices
from .weightspace import Uniform, WeightObject, WeightSpec, random_weights

__all__ = [
    "naive_equivariant_forward",
    "naive_invariant_forward",
    "feature_design_matrix",
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


def _unbatch(U: WeightObject):
    if U.batch is None:
        return [U], False
    rows = []
    for r in range(U.batch):
        rows.append(
            WeightObject(
                U.spec,
                tuple(w[r] for w in U.W),
                tuple(v[r] for v in U.b),
                batch=None,
            )
        )
    return rows, True


def _naive_equivariant_single(params: EquivariantParams, U: WeightObject):
    spec, e = params.spec, params.e
    L, d = spec.L, spec.d
    Wl = [U.weight(i).tolist() for i in range(1, L + 1)]
    bl = [U.bias(i).tolist() for i in range(1, L + 1)]
    psi_bw = {k: v.tolist() for k, v in params.psi.bw.items()}
    psi_ww = {k: v.tolist() for k, v in params.psi.ww.items()}
    chains, wb, bw, ww = _naive_terms(spec, Wl, bl, psi_bw, psi_ww)

    def trace(mat_c):
        return sum(mat_c[p][p] for p in range(len(mat_c)))

    W_out = []
    b_out = []

    # i = 1
    p_w = params.phiW_1_W.tolist()
    p_ww = params.phiW_1_WW.tolist()
    p_bw = params.phiW_1_bW.tolist()
    p_b = params.phiW_1_b.tolist()
    n0, n1 = spec.n[0], spec.n[1]
    EW1 = [[[0.0] * n0 for _ in range(n1)] for _ in range(e)]
    for co in range(e):
        for j in range(n1):
            for k in range(n0):
                acc = 0.0
                for c in range(d):
                    for q in range(n0):
                        acc += chains[(1, 0)][c][j][q] * p_w[c][co][q][k]
                        acc += ww[(1, 0)][c][j][q] * p_ww[c][co][q][k]
                        acc += bw[(1, 0)][c][j][q] * p_bw[c][co][q][k]
                    acc += bl[0][c][j] * p_b[c][co][k]
                EW1[co][j][k] = acc
    q_w = params.phib_1_W.tolist()
    q_ww = params.phib_1_WW.tolist()
    q_bw = params.phib_1_bW.tolist()
    q_b = params.phib_1_b.tolist()
    Eb1 = [[0.0] * n1 for _ in range(e)]
    for co in range(e):
        for j in range(n1):
            acc = 0.0
            for c in range(d):
                for q in range(n0):
                    acc += chains[(1, 0)][c][j][q] * q_w[c][co][q]
                    acc += ww[(1, 0)][c][j][q] * q_ww[c][co][q]
                    acc += bw[(1, 0)][c][j][q] * q_bw[c][co][q]
                acc += bl[0][c][j] * q_b[c][co]
            Eb1[co][j] = acc
    W_out.append(EW1)
    b_out.append(Eb1)

    # 1 < i < L
    for i in range(2, L):
        blk = params.mid[i]
        s_w, s_ww, s_bw = blk.w.tolist(), blk.ww.tolist(), blk.bw.tolist()
        v_w, v_ww, v_bw = blk.b_w.tolist(), blk.b_ww.tolist(), blk.b_bw.tolist()
        v_wb = {t: v.tolist() for t, v in blk.b_wb.items()}
        v_b = blk.b_b.tolist()
        ni, nim1 = spec.n[i], spec.n[i - 1]
        EWi = [[[0.0] * nim1 for _ in range(ni)] for _ in range(e)]
        for co in range(e):
            for j in range(ni):
                for k in range(nim1):
                    acc = 0.0
                    for c in range(d):
                        acc += chains[(i, i - 1)][c][j][k] * s_w[c][co]
                        acc += ww[(i, i - 1)][c][j][k] * s_ww[c][co]
                        acc += bw[(i, i - 1)][c][j][k] * s_bw[c][co]
                    EWi[co][j][k] = acc
        Ebi = [[0.0] * ni for _ in range(e)]
        for co in range(e):
            for j in range(ni):
                acc = 0.0
                for c in range(d):
                    for q in range(n0):
                        acc += chains[(i, 0)][c][j][q] * v_w[c][co][q]
                        acc += ww[(i, 0)][c][j][q] * v_ww[c][co][q]
                        acc += bw[(i, 0)][c][j][q] * v_bw[c][co][q]
                    for t in range(1, i):
                        acc += wb[(i, t)][c][j] * v_wb[t][c][co]
                    acc += bl[i - 1][c][j] * v_b[c][co]
                Ebi[co][j] = acc
        W_out.append(EWi)
        b_out.append(Ebi)

    # i = L
    nL, nLm1 = spec.n[L], spec.n[L - 1]
    r_w = params.phiW_L_W.tolist()
    r_ww = params.phiW_L_WW.tolist()
    r_bw = params.phiW_L_bW.tolist()
    EWL = [[[0.0] * nLm1 for _ in range(nL)] for _ in range(e)]
    for co in range(e):
        for j in range(nL):
            for k in range(nLm1):
                acc = 0.0
                for c in range(d):
                    for p in range(nL):
                        acc += r_w[co][c][p][j] * chains[(L, L - 1)][c][p][k]
                        acc += r_ww[co][c][p][j] * ww[(L, L - 1)][c][p][k]
                        acc += r_bw[co][c][p][j] * bw[(L, L - 1)][c][p][k]
                EWL[co][j][k] = acc
    g_wwll = params.phib_L_WWLL.tolist()
    g_wl0 = params.phib_L_WL0.tolist()
    g_bwll0 = params.phib_L_bWLL0.tolist()
    g_trww = {s: v.tolist() for s, v in params.phib_L_trWW.items()}
    g_wb = {t: v.tolist() for t, v in params.phib_L_Wb.items()}
    g_trbw = {t: v.tolist() for t, v in params.phib_L_trbW.items()}
    g_b = params.phib_L_b.tolist()
    g_1 = params.phib_L_1.tolist()
    EbL = [[0.0] * nL for _ in range(e)]
    for co in range(e):
        for j in range(nL):
            acc = g_1[co][j]
            for c in range(d):
                for p in range(nL):
                    for q in range(n0):
                        acc += g_wwll[co][c][p][q][j] * ww[(L, 0)][c][p][q]
                        acc += g_wl0[co][c][p][q][j] * chains[(L, 0)][c][p][q]
                        acc += g_bwll0[co][c][p][q][j] * bw[(L, 0)][c][p][q]
                    acc += g_b[co][c][p][j] * bl[L - 1][c][p]
                for s in range(1, L):
                    acc += g_trww[s][co][c][j] * trace(ww[(s, s)][c])
                for t in range(1, L):
                    for p in range(nL):
                        acc += g_wb[t][co][c][p][j] * wb[(L, t)][c][p]
                    acc += g_trbw[t][co][c][j] * trace(bw[(t, t)][c])
            EbL[co][j] = acc
    W_out.append(EWL)
    b_out.append(EbL)

    return WeightObject(
        params.out_spec(),
        tuple(np.asarray(w, dtype=np.float64) for w in W_out),
        tuple(np.asarray(v, dtype=np.float64) for v in b_out),
        batch=None,
    )


def naive_equivariant_forward(params: EquivariantParams, U: WeightObject) -> WeightObject:
    """Literal nested-loop evaluation of the equivariant layer."""
    rows, batched = _unbatch(U)
    outs = [_naive_equivariant_single(params, r) for r in rows]
    if not batched:
        return outs[0]
    return WeightObject(
        params.out_spec(),
        tuple(np.stack([o.W[i] for o in outs]) for i in range(params.spec.L)),
        tuple(np.stack([o.b[i] for o in outs]) for i in range(params.spec.L)),
        batch=U.batch,
    )


def _naive_invariant_single(params: InvariantParams, U: WeightObject) -> np.ndarray:
    spec, e, dp = params.spec, params.e, params.d_out
    L, d = spec.L, spec.d
    n0, nL = spec.n[0], spec.n[L]
    Wl = [U.weight(i).tolist() for i in range(1, L + 1)]
    bl = [U.bias(i).tolist() for i in range(1, L + 1)]
    psi_bw = {k: v.tolist() for k, v in params.psi.bw.items()}
    psi_ww = {k: v.tolist() for k, v in params.psi.ww.items()}
    chains, wb, bw, ww = _naive_terms(spec, Wl, bl, psi_bw, psi_ww)

    def trace(mat_c):
        return sum(mat_c[p][p] for p in range(len(mat_c)))

    p_wwll = params.phi_WWLL.tolist()
    p_wl0 = params.phi_WL0.tolist()
    p_trww = {s: v.tolist() for s, v in params.phi_trWW.items()}
    p_bwll0 = params.phi_bWLL0.tolist()
    p_wb = {t: v.tolist() for t, v in params.phi_Wb.items()}
    p_trbw = {t: v.tolist() for t, v in params.phi_trbW.items()}
    p_b = params.phi_b.tolist()
    p_1 = params.phi_1.tolist()
    out = [[0.0] * dp for _ in range(e)]
    for co in range(e):
        for k in range(dp):
            acc = p_1[co][k]
            for c in range(d):
                for p in range(nL):
                    for q in range(n0):
                        acc += ww[(L, 0)][c][p][q] * p_wwll[c][co][p][q][k]
                        acc += chains[(L, 0)][c][p][q] * p_wl0[c][co][p][q][k]
                        acc += bw[(L, 0)][c][p][q] * p_bwll0[c][co][p][q][k]
                    acc += bl[L - 1][c][p] * p_b[c][co][p][k]
                for s in range(1, L):
                    acc += trace(ww[(s, s)][c]) * p_trww[s][c][co][k]
                for t in range(1, L):
                    for p in range(nL):
                        acc += wb[(L, t)][c][p] * p_wb[t][c][co][p][k]
                    acc += trace(bw[(t, t)][c]) * p_trbw[t][c][co][k]
            out[co][k] = acc
    return np.asarray(out, dtype=np.float64)


def naive_invariant_forward(params: InvariantParams, U: WeightObject) -> np.ndarray:
    """Literal nested-loop evaluation of the invariant layer."""
    rows, batched = _unbatch(U)
    outs = [_naive_invariant_single(params, r) for r in rows]
    return np.stack(outs) if batched else outs[0]


# ---------------------------------------------------------------------------
# Design matrices and rank checks

# Each family token names a StableTermSet table and its keys at depth L, in
# column order.  "eq17" (the canonical invariant feature vector, constant
# included) and "const" (the constant 1) are no such table.
_FAMILIES = {
    "w_noL0": ("w", lambda L: [p for p in w_indices(L) if p != (L, 0)]),
    "w_L0": ("w", lambda L: [(L, 0)]),
    "b": ("b", lambda L: range(1, L + 1)),
    "wb_noL": ("wb", lambda L: [(s, t) for s, t in wb_indices(L) if s < L]),
    "wb_L": ("wb", lambda L: [(L, t) for t in range(1, L)]),
    "bw_diag": ("bw", lambda L: [(t, t) for t in range(1, L)]),
    "ww_diag": ("ww", lambda L: [(s, s) for s in range(1, L)]),
    "eq17": (None, None),
    "const": (None, None),
}


def _feature_row(U: WeightObject, psi: PsiParams, families: Sequence[str]) -> np.ndarray:
    """The selected column groups of ``U``, flattened and joined in order."""
    terms = all_terms(U, psi)
    parts = []
    for fam in families:
        table, keys = _FAMILIES[fam]
        if fam == "eq17":
            parts.append(featurize(U, psi))
        elif fam == "const":
            parts.append(np.ones(1))
        else:
            parts += [getattr(terms, table)[key].ravel() for key in keys(U.spec.L)]
    return np.concatenate(parts or [np.zeros(0)])


def _design(spec, psi, families, rng, samples_for) -> np.ndarray:
    """Feature rows of ``samples_for(F)`` i.i.d. uniform(-1, 1) weight
    objects ``rng.child("design", k)``, F being the feature count."""
    unknown = [fam for fam in families if fam not in _FAMILIES]
    if unknown:
        raise ValidationError(f"unknown feature family {unknown[0]!r}")
    draw = lambda k: random_weights(spec, rng.child("design", k), Uniform(-1.0, 1.0))
    rows = [_feature_row(draw(0), psi, families)]
    F = rows[0].size
    samples = samples_for(F)
    if samples < F:
        raise ValidationError(f"need samples >= F={F}, got {samples}")
    rows += [_feature_row(draw(k), psi, families) for k in range(1, samples)]
    return np.stack(rows)


def feature_design_matrix(
    spec: WeightSpec,
    psi: PsiParams,
    families: Sequence[str],
    samples: int,
    rng: Rng,
) -> np.ndarray:
    """Rows are the selected stable-term features of i.i.d. uniform(-1, 1)
    weight objects; needs at least as many samples as features."""
    return _design(spec, psi, families, rng, lambda F: samples)


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
        X = _design(spec, psi, families, rng, lambda F: OVERSAMPLE * F)
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
