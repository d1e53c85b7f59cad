"""Property suites verifying the algebra end to end.

Each suite draws random instances from an architecture grid, measures the
worst relative residual of one identity, and reports it against a pinned
tolerance.  All randomness flows from one seed: trial k of suite ``name``
uses the stream ``Rng(seed).child(name, k)``.  A record reports the worst
residual but not yet the trial that gave it, so a failure is located by
rerunning that suite's trials.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import layers, monomial, netfunc, oracle
from .activations import abs_act, leaky_relu, relu, sin, tanh
from .dense import Rng, rel_residual
from .errors import ValidationError
from .monomial import VARIANT_POSITIVE, VARIANT_SIGN
from .stableterms import PsiParams, _w_chains, all_terms
from .weightspace import Uniform, WeightObject, WeightSpec, _count, random_weights

__all__ = ["Grid", "SUITE_NAMES", "DEFAULT_TOLERANCES", "run_suite", "run_suites", "run_bench"]

SUITE_NAMES = (
    "group",
    "stability",
    "chains",
    "netinv",
    "equiv",
    "inv",
    "stack",
    "oracle",
    "rank",
)

DEFAULT_TOLERANCES = {
    "group": 1e-12,      # action homomorphism; scale parts held to 1e-14
    "stability": 1e-10,
    "chains": 1e-12,
    "netinv": 1e-9,
    "equiv": 1e-9,
    "inv": 1e-9,
    "stack": 1e-8,
    "oracle": 1e-12,
    "rank": 1e-6,        # singular-value ratio lower bound
}

GROUP_SCALE_TOL = 1e-14
NETINV_WITNESS_FLOOR = 1e-3


@dataclass(frozen=True)
class Grid:
    """Architecture grid the suites draw from."""

    L_values: tuple[int, ...] = (2, 3, 4)
    n_max: int = 4
    d_values: tuple[int, ...] = (1, 2)
    e_values: tuple[int, ...] = (1, 3)
    scale_range: tuple[float, float] = monomial.DEFAULT_SCALE_RANGE

    def __post_init__(self):
        # A grid no suite can draw from is rejected here, before any suite
        # runs, rather than reported as one error record per suite.
        for name, least in (("L_values", 2), ("d_values", 1), ("e_values", 1)):
            values = tuple(_count(f"each of grid {name}", v, least) for v in getattr(self, name))
            if not values:
                raise ValidationError(f"grid {name} must not be empty")
            object.__setattr__(self, name, values)
        # The netinv witness and the sharing-mutation equiv trials draw widths >= 2.
        object.__setattr__(self, "n_max", _count("grid n_max", self.n_max, 2))
        object.__setattr__(self, "scale_range", monomial._scale_range(self.scale_range))

    def sample_spec(self, rng: Rng, d: int | None = None, n_min: int = 1) -> WeightSpec:
        L = rng.choice(self.L_values)
        n = tuple(int(rng.integers(n_min, self.n_max)) for _ in range(L + 1))
        return WeightSpec(L, n, d if d is not None else rng.choice(self.d_values))


def _variant_for(trial: int) -> str:
    return VARIANT_POSITIVE if trial % 2 == 0 else VARIANT_SIGN


def _record(name, trials, worst, tol, ok, **details) -> dict:
    """One suite's report record, in the key order of ``report/1``."""
    return {
        "suite": name,
        "trials": trials,
        "max_residual": worst,
        "tolerance": tol,
        "pass": bool(ok),
        "details": details,
    }


def _draw(r: Rng, grid: Grid, variant=None, d=None, n_min=1, batch=None):
    """A trial's spec, uniform(-1, 1) weights ``U`` and group element ``g``
    (``None`` without a variant), from the streams ``r.child("spec"|"U"|"g")``."""
    spec = grid.sample_spec(r.child("spec"), d=d, n_min=n_min)
    U = random_weights(spec, r.child("U"), Uniform(-1.0, 1.0), batch=batch)
    if variant is None:
        return spec, U, None
    return spec, U, monomial.sample(spec, r.child("g"), variant, grid.scale_range)


def _block_residual(A: WeightObject, B: WeightObject) -> float:
    """Worst relative residual over the paired weight and bias blocks."""
    return max(rel_residual(a, b) for a, b in zip(A.W + A.b, B.W + B.b))


# ---------------------------------------------------------------------------
# Suites


def _suite_group(trials, rng, grid, tol):
    worst_action = 0.0
    worst_scale = 0.0
    perm_exact = True
    for k in range(trials):
        r = rng.child("group", k)
        variant = _variant_for(k)
        spec, U, g = _draw(r, grid, variant)
        h = monomial.sample(spec, r.child("h"), variant, grid.scale_range)

        gid = monomial.identity(spec, variant)
        if not monomial.act(gid, U).equal(U):
            perm_exact = False
        unit = monomial.compose(g, monomial.invert(g))
        for m in unit.layers:
            if not np.array_equal(m.perm, np.arange(m.n)):
                perm_exact = False
            worst_scale = max(worst_scale, float(np.max(np.abs(m.scales - 1.0))))
        lhs = monomial.act(monomial.compose(g, h), U)
        rhs = monomial.act(g, monomial.act(h, U))
        worst_action = max(worst_action, _block_residual(lhs, rhs))
        worst_action = max(worst_action, _block_residual(monomial.act(unit, U), U))
    ok = perm_exact and worst_scale <= GROUP_SCALE_TOL and worst_action <= tol
    return _record(
        "group", trials, worst_action, tol, ok,
        perm_parts_exact=perm_exact,
        max_scale_residual=worst_scale,
        scale_tolerance=GROUP_SCALE_TOL,
    )


def _suite_stability(trials, rng, grid, tol):
    worst = 0.0
    for k in range(trials):
        r = rng.child("stability", k)
        spec, U, g = _draw(r, grid, _variant_for(k))
        psi = PsiParams.random(spec, r.child("psi"))
        T, gT = all_terms(U, psi), all_terms(monomial.act(g, U), psi)
        # [W], [bW] and [WW] at (s, t) move by g_s on rows and g_t^-1 on
        # columns; [b] and [Wb] move by g_s alone.
        for table, moved in ((T.w, gT.w), (T.bw, gT.bw), (T.ww, gT.ww)):
            for (s, t), v in table.items():
                want = g.layer(t).apply_cols_inverse(g.layer(s).apply_rows(v))
                worst = max(worst, rel_residual(moved[(s, t)], want))
        rows = lambda s, v: g.layer(s).apply_rows(v[..., None])[..., 0]
        for s, v in T.b.items():
            worst = max(worst, rel_residual(gT.b[s], rows(s, v)))
        for (s, t), v in T.wb.items():
            worst = max(worst, rel_residual(gT.wb[(s, t)], rows(s, v)))
    return _record("stability", trials, worst, tol, worst <= tol)


def _chain_identities(V, chains, s, t, rr, row):
    """(product, direct value) pairs of the composition identities at
    (s, t, rr), on the chains of ``V``: [W](s,t)[W](t,rr) = [W](s,rr),
    [W](s,t)[Wb](t,rr) = [Wb](s,rr) and, with ``row`` a connection row of
    width n_s, (b^(s) x row)[W](s,t) [W](t,rr) = (b^(s) x row)[W](s,rr)."""
    wb = lambda i, j: np.matmul(chains[(i, j)], V.bias(j)[..., None])[..., 0]
    bw = lambda j: np.matmul(V.bias(s)[..., None] * row[0], chains[(s, j)])
    pairs = [(np.matmul(chains[(s, t)], chains[(t, rr)]), chains[(s, rr)])]
    if rr >= 1:
        pairs.append((np.matmul(chains[(s, t)], wb(t, rr)[..., None])[..., 0], wb(s, rr)))
    pairs.append((np.matmul(bw(t), chains[(t, rr)]), bw(rr)))
    return pairs


def _suite_chains(trials, rng, grid, tol):
    worst = 0.0
    exact_specialization = True
    for k in range(trials):
        r = rng.child("chains", k)
        spec, U, _ = _draw(r, grid)
        absU = U.map(np.abs)
        chains, abs_chains = _w_chains(U), _w_chains(absU)
        L = spec.L
        for s in range(1, L + 1):
            if not np.array_equal(chains[(s, s - 1)], U.weight(s)):
                exact_specialization = False
        for s in range(2, L + 1):
            for t in range(1, s):
                for rr in range(t):
                    row = r.child("psirow", s, t, rr).uniform(-1.0, 1.0, (1, spec.n[s]))
                    # Each residual is measured against the same product over
                    # the absolute values of its factors, which bounds its
                    # rounding error; max|product| is no such scale, since
                    # cancellation can make it arbitrarily small.
                    exact = _chain_identities(U, chains, s, t, rr, row)
                    bounds = _chain_identities(absU, abs_chains, s, t, rr, np.abs(row))
                    for (got, want), (bound, _) in zip(exact, bounds):
                        worst = max(worst, float(np.max(np.abs(got - want)) / np.max(bound)))
    return _record(
        "chains", trials, worst, tol, worst <= tol and exact_specialization,
        one_step_chain_exact=exact_specialization,
    )


_NETINV_PAIRS = (
    (relu, VARIANT_POSITIVE),
    (leaky_relu(0.2), VARIANT_POSITIVE),
    (tanh, VARIANT_SIGN),
    (sin, VARIANT_SIGN),
)


def _mlp_residual(U, g, x, act):
    """Relative residual between the networks ``U`` and ``g U`` at input ``x``."""
    return rel_residual(
        netfunc.mlp_forward(U, x, act), netfunc.mlp_forward(monomial.act(g, U), x, act)
    )


def _suite_netinv(trials, rng, grid, tol):
    worst = 0.0
    for k in range(trials):
        r = rng.child("netinv", k)
        act, variant = _NETINV_PAIRS[k % len(_NETINV_PAIRS)]
        spec, U, g = _draw(r, grid, variant, d=1)
        x = r.child("x").uniform(-1.0, 1.0, spec.n[0])
        worst = max(worst, _mlp_residual(U, g, x, act))
    # Vacuity guard: a mismatched activation/variant pair must visibly break
    # the invariance on at least one instance.
    witness = 0.0
    for k in range(50):
        r = rng.child("netinv-witness", k)
        spec, U, g = _draw(r, grid, VARIANT_SIGN, d=1, n_min=2)
        if all(np.all(m.scales == 1.0) for m in g.layers):
            continue
        x = r.child("x").uniform(-1.0, 1.0, spec.n[0])
        witness = max(witness, _mlp_residual(U, g, x, relu))
        if witness > NETINV_WITNESS_FLOOR:
            break
    return _record(
        "netinv", trials, worst, tol, worst <= tol and witness > NETINV_WITNESS_FLOOR,
        mismatch_witness_residual=witness,
        witness_floor=NETINV_WITNESS_FLOOR,
    )


def _force_hidden_swap(g, variant):
    """Ensure the layer-1 permutation is nontrivial (needs n_1 >= 2)."""
    m = g.layer(1)
    if not np.array_equal(m.perm, np.arange(m.n)):
        return g
    swapped = np.arange(m.n)
    swapped[[0, 1]] = swapped[[1, 0]]
    layers_ = list(g.layers)
    layers_[1] = monomial.MonomialElement(m.scales, swapped)
    return monomial.GroupElement(variant, tuple(layers_))


def _corrupt_equivariant(params, U, out):
    """Emulate one broken sharing constraint: the first-layer weight-row
    coefficient acquires a row dependence it is not allowed to have."""
    weights = np.arange(1, U.spec.n[1] + 1, dtype=np.float64)
    rogue = np.einsum("...djq,j->...j", U.weight(1), weights)  # [W]^(1,0) = W^(1)
    W = list(out.W)
    W[0] = W[0] + 0.1 * rogue[..., None, :, None]
    return WeightObject(out.spec, tuple(W), tuple(out.b), out.batch)


def _suite_equiv(trials, rng, grid, tol, mutate_sharing=False):
    worst = 0.0
    for k in range(trials):
        r = rng.child("equiv", k)
        variant = _variant_for(k)
        batch = 2 if k % 3 == 0 else None
        spec, U, g = _draw(r, grid, variant, n_min=2 if mutate_sharing else 1, batch=batch)
        e = r.child("e").choice(grid.e_values)
        params = layers.init_equivariant(spec, e, r.child("params"))
        if mutate_sharing:
            g = _force_hidden_swap(g, variant)
        gU = monomial.act(g, U)
        out_U = layers.equivariant_forward(params, U)
        out_gU = layers.equivariant_forward(params, gU)
        if mutate_sharing:
            out_U = _corrupt_equivariant(params, U, out_U)
            out_gU = _corrupt_equivariant(params, gU, out_gU)
        # The action is channel-independent, so g acts on the e-channel output.
        worst = max(worst, _block_residual(out_gU, monomial.act(g, out_U)))
    return _record("equiv", trials, worst, tol, worst <= tol, sharing_mutation=bool(mutate_sharing))


def _suite_inv(trials, rng, grid, tol):
    worst = 0.0
    for k in range(trials):
        r = rng.child("inv", k)
        batch = 2 if k % 3 == 0 else None
        spec, U, g = _draw(r, grid, _variant_for(k), batch=batch)
        e = r.child("e").choice(grid.e_values)
        params = layers.init_invariant(spec, e, 3, r.child("params"))
        worst = max(
            worst,
            rel_residual(
                layers.invariant_forward(params, monomial.act(g, U)),
                layers.invariant_forward(params, U),
            ),
        )
    return _record("inv", trials, worst, tol, worst <= tol)


_STACK_PAIRS = (
    (relu, VARIANT_POSITIVE),
    (sin, VARIANT_SIGN),
    (abs_act, VARIANT_POSITIVE),
    (abs_act, VARIANT_SIGN),
)


def _suite_stack(trials, rng, grid, tol):
    worst = 0.0
    for k in range(trials):
        r = rng.child("stack", k)
        act, variant = _STACK_PAIRS[k % len(_STACK_PAIRS)]
        spec, U, g = _draw(r, grid, variant)
        re = r.child("e")
        e1 = re.choice(grid.e_values)
        e2 = re.choice(grid.e_values)
        p1 = layers.init_equivariant(spec, e1, r.child("p1"))
        spec2 = WeightSpec(spec.L, spec.n, e1)
        p2 = layers.init_equivariant(spec2, e2, r.child("p2"))
        head = layers.init_invariant(WeightSpec(spec.L, spec.n, e2), 2, 3, r.child("head"))
        stack = [(p1, act), (p2, act)]
        worst = max(
            worst,
            rel_residual(
                layers.stack_forward(stack, head, monomial.act(g, U), variant),
                layers.stack_forward(stack, head, U, variant),
            ),
        )
    return _record("stack", trials, worst, tol, worst <= tol)


def _suite_oracle(trials, rng, grid, tol):
    worst = 0.0
    for k in range(trials):
        r = rng.child("oracle", k)
        spec, U, _ = _draw(r, grid)
        e = r.child("e").choice(grid.e_values)
        eq = layers.init_equivariant(spec, e, r.child("eq"))
        inv = layers.init_invariant(spec, e, 2, r.child("inv"))
        fast = layers.equivariant_forward(eq, U)
        worst = max(worst, _block_residual(fast, oracle.naive_equivariant_forward(eq, U)))
        worst = max(
            worst,
            rel_residual(
                layers.invariant_forward(inv, U), oracle.naive_invariant_forward(inv, U)
            ),
        )
    return _record("oracle", trials, worst, tol, worst <= tol)


def _suite_rank(trials, rng, grid, tol, collapse_psi=False):
    """Full rank of the asserted-independent families at generic connection
    matrices, and detection of the known width-1 collapse witness."""
    specs = min(max(trials // 20, 3), 10)
    worst_ratio = 1.0
    all_full = True
    reports = []
    for k in range(specs):
        r = rng.child("rank", k)
        L = 2 + (k % 2)
        rn = r.child("n")
        n = tuple(int(rn.integers(1, 3)) for _ in range(L + 1))
        spec = WeightSpec(L, n, 1)
        psi = (
            PsiParams.constant(spec, 1.0)
            if collapse_psi
            else PsiParams.random(spec, r.child("psi"))
        )
        rep = oracle.independence_report(spec, psi, r.child("report"), threshold=tol)
        reports.append(rep)
        worst_ratio = min(worst_ratio, rep["asserted_independent"]["sigma_ratio"])
        all_full = all_full and rep["asserted_independent"]["full_rank"]
    witness_spec = WeightSpec(2, (1, 1, 1), 1)
    witness = oracle.independence_report(
        witness_spec,
        PsiParams.constant(witness_spec, 1.0),
        rng.child("rank-witness"),
        threshold=tol,
    )
    witness_deficient = any(c["deficient"] for c in witness["coupled"])
    if collapse_psi:
        detected = witness_deficient or any(
            c["deficient"] for rep in reports for c in rep["coupled"]
        )
        ok = all_full and detected
    else:
        ok = all_full and witness_deficient
    # max_residual carries the smallest sigma ratio seen.
    return _record(
        "rank", specs, worst_ratio, tol, ok,
        asserted_full_rank=all_full,
        witness_deficient=witness_deficient,
        collapse_psi=bool(collapse_psi),
        reports=reports + [witness],
    )


_SUITE_FNS = {
    "group": _suite_group,
    "stability": _suite_stability,
    "chains": _suite_chains,
    "netinv": _suite_netinv,
    "equiv": _suite_equiv,
    "inv": _suite_inv,
    "stack": _suite_stack,
    "oracle": _suite_oracle,
    "rank": _suite_rank,
}


def _require_trials(trials: int) -> None:
    """Zero trials would report a pass that checked nothing."""
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")


def _require_tolerance(name: str, tol: float) -> None:
    """A NaN tolerance fails every residual and an infinite one passes any."""
    if not math.isfinite(tol):
        raise ValidationError(f"tolerance of suite {name!r} must be finite, got {tol}")


def run_suite(
    name: str,
    trials: int,
    seed: int,
    grid: Grid | None = None,
    tolerance: float | None = None,
    mutate_sharing: bool = False,
    collapse_psi: bool = False,
) -> dict:
    if name not in _SUITE_FNS:
        raise ValidationError(f"unknown suite {name!r}")
    _require_trials(trials)
    grid = grid or Grid()
    tol = DEFAULT_TOLERANCES[name] if tolerance is None else tolerance
    _require_tolerance(name, tol)
    rng = Rng(seed)
    kwargs = {}
    if name == "equiv":
        kwargs["mutate_sharing"] = mutate_sharing
    if name == "rank":
        kwargs["collapse_psi"] = collapse_psi
    return _SUITE_FNS[name](trials, rng, grid, tol, **kwargs)


def run_suites(
    selector: str,
    trials: int,
    seed: int,
    grid: Grid | None = None,
    tolerance_overrides: dict[str, float] | None = None,
    mutate_sharing: bool = False,
    collapse_psi: bool = False,
) -> dict:
    """Run one suite or all of them; returns the full JSON-ready report."""
    # These checks come before the per-suite error records can swallow them.
    _require_trials(trials)
    if selector != "all" and selector not in _SUITE_FNS:
        raise ValidationError(f"unknown suite {selector!r}")
    names = SUITE_NAMES if selector == "all" else (selector,)
    overrides = tolerance_overrides or {}
    for name, tol in overrides.items():
        _require_tolerance(name, tol)
    records = []
    for name in names:
        try:
            records.append(
                run_suite(
                    name,
                    trials,
                    seed,
                    grid,
                    overrides.get(name),
                    mutate_sharing=mutate_sharing,
                    collapse_psi=collapse_psi,
                )
            )
        except Exception as exc:  # partial report still emitted
            tol = overrides.get(name, DEFAULT_TOLERANCES[name])
            records.append(
                _record(name, trials, None, tol, False, error=f"{type(exc).__name__}: {exc}")
            )
    return {
        "format": "report/1",
        "command": "check",
        "seed": seed,
        "trials": trials,
        "suites": records,
        "pass": bool(all(rec["pass"] for rec in records)),
    }


def run_bench(reps: int, seed: int, grid: Grid | None = None, batch: int = 8) -> dict:
    """Median wall-clock time per batched forward, BLAS path vs naive loops.

    ``batch`` rows are evaluated per call: that is the workload the
    contraction path exists for (the loops scale linearly in it).
    """
    if reps < 1:
        raise ValidationError(f"reps must be >= 1, got {reps}")
    grid = grid or Grid()
    rng = Rng(seed)
    rows = []
    for L in grid.L_values:
        n = tuple([3] * (L + 1))
        for d in grid.d_values:
            spec = WeightSpec(L, n, d)
            e = max(grid.e_values)
            params = layers.init_equivariant(spec, e, rng.child("bench", L, d))
            U = random_weights(
                spec, rng.child("bench-U", L, d), Uniform(-1.0, 1.0), batch=batch
            )

            def timed(fn):
                samples = []
                for _ in range(reps):
                    t0 = time.perf_counter()
                    fn(params, U)
                    samples.append(time.perf_counter() - t0)
                return float(np.median(samples))

            rows.append(
                {
                    "L": L,
                    "n": list(n),
                    "d": d,
                    "e": e,
                    "batch": batch,
                    "reps": reps,
                    "optimized_s": timed(layers.equivariant_forward),
                    "naive_s": timed(oracle.naive_equivariant_forward),
                }
            )
    return {"format": "report/1", "command": "bench", "seed": seed, "rows": rows}
