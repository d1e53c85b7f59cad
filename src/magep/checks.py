"""Property suites verifying the algebra end to end.

Each suite draws random instances from an architecture grid, measures the
worst relative residual of one identity, and reports it against a pinned
tolerance.  Every suite but rank is a trial function ``(r, k, grid)`` that
one loop, :func:`_run_trials`, runs on the stream
``r = Rng(seed).child(name, k)`` for each trial k, keeping the worst
residual; rank's trials are a few specs, each drawn from
``Rng(seed).child("rank", k)``.  A record reports the worst residual but
not yet the trial that gave it, so a failure is located by calling that
suite's trial function on each k.

:func:`run_suites` splits the trials of one call into ``shares =
min(usable CPUs, trials)`` shares: share j computes trial k of every
selected suite where ``k % shares == j``.  It forks one worker per share
but the first, once per call, and computes share 0 itself.  Each suite's
record folds the trial outputs in k order, and the caller computes every
trial no worker returned, one that raised included.  It stops reading from
a worker whose message is missing, fails to load or names another suite,
and computes that worker's trials itself from then on.  As a trial is a
pure function of its stream, the report has the bytes of one process, an
error record's traceback included.  The caller computes every share
itself where ``os.fork`` is missing, another thread is alive (a forked
child could inherit a lock it holds) or one CPU is usable.
"""

from __future__ import annotations

import math
import operator
import os
import pickle
import signal
import threading
import traceback
from contextvars import ContextVar
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import layers, monomial, netfunc, oracle
from .activations import abs_act, leaky_relu, relu, sin, tanh
from .dense import Rng, _usable_cpus, rel_residual
from .errors import ValidationError
from .monomial import VARIANT_POSITIVE, VARIANT_SIGN
from .stableterms import PsiParams, _w_chains, all_terms
from .weightspace import Uniform, WeightObject, WeightSpec, _count, random_weights

__all__ = ["Grid", "SUITE_NAMES", "DEFAULT_TOLERANCES", "run_suite", "run_suites"]

DEFAULT_TOLERANCES = {
    "group": 1e-12,      # action homomorphism; scale parts held to 1e-14
    "stability": 1e-10,
    "chains": 1e-12,
    "netinv": 1e-9,
    "equiv": 1e-9,
    "inv": 1e-9,
    "stack": 1e-8,
    "oracle": 1e-12,
    "rank": oracle.RANK_THRESHOLD,  # full-rank bound and null-space cut of sigma ratios
}
SUITE_NAMES = tuple(DEFAULT_TOLERANCES)

GROUP_SCALE_TOL = 1e-14
NETINV_WITNESS_FLOOR = 1e-3
# Innermost frames an error record keeps of a raising suite's traceback.
TRACEBACK_FRAMES = 8


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
    """One suite's report record, in the key order of ``report/1``.  A worst
    residual that is not finite fails and reads ``None``, like an error's."""
    finite = worst is not None and math.isfinite(worst)
    return {
        "suite": name,
        "trials": trials,
        "max_residual": worst if finite else None,
        "tolerance": tol,
        "pass": bool(ok and finite),
        "details": details,
    }


# The shares of the run_suites call in progress: (this process's share,
# the number of shares, and the workers' read ends in the caller or this
# worker's write end), or None where one process computes every trial.
_SHARES: ContextVar[tuple | None] = ContextVar("_SHARES", default=None)


class _ShareSent(BaseException):
    """Raised in a worker once it has sent its share of a suite: the rest
    of the suite, its fold and summary, is the caller's."""


def _outputs(name: str, count: int, compute) -> list:
    """``[compute(k) for k in range(count)]``, the outputs of suite ``name``'s
    trials in k order.

    Under shares each process computes its share in k order and stops at
    the first trial that raises, which the caller then computes again and
    raises from.  A worker sends ``(name, outputs)`` to the caller and
    raises :class:`_ShareSent`.  The caller closes, and computes from then
    on the trials of, a worker whose message is missing, does not load or
    names another suite; the worker's next send then fails, and it ends."""
    done = {}
    shares = _SHARES.get()
    if shares is not None:
        j, n_shares, pipes = shares
        for k in range(j, count, n_shares):
            try:
                done[k] = compute(k)
            except Exception:  # computed again, and raised, below
                break
        if j:
            pickle.dump((name, done), pipes)
            pipes.flush()
            raise _ShareSent
        for pipe in pipes:
            try:  # a pipe closed here before raises too
                tag, sent = pickle.load(pipe)
            except Exception:  # the worker died, or its message does not load
                tag = None
            if tag == name:
                done.update(sent)
            else:  # the worker's trials are the caller's from here on
                pipe.close()
    return [done[k] if k in done else compute(k) for k in range(count)]


def _fork_shares(calls: list, trials: int, workers: list) -> int:
    """The number of shares of a run_suites call at ``trials``.  Appends to
    ``workers`` the ``(pid, read end)`` of one forked worker per share but
    the first; none where the caller computes every share itself."""
    n_shares = min(_usable_cpus(), trials)
    if n_shares < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    for j in range(1, n_shares):
        r, w = os.pipe()
        try:
            pid = os.fork()
        except OSError:  # the caller computes the shares left without a worker
            os.close(r)
            os.close(w)
            break
        if pid == 0:
            _work(j, n_shares, w, [r] + [reader.fileno() for _, reader in workers], calls)
        os.close(w)
        workers.append((pid, os.fdopen(r, "rb")))
    return n_shares


def _work(j: int, n_shares: int, w: int, inherited: list, calls: list) -> None:
    """Worker j's life: run every ``run_suite(*args)`` of ``calls`` on share j,
    sending each suite's outputs down the pipe ``w``, then end the process.
    Anything but a sent share ends it early, and the caller computes the
    rest; it never returns into its caller's code."""
    try:
        for fd in inherited:  # the read ends, so that only the caller holds them
            os.close(fd)
        with os.fdopen(w, "wb") as pipe:
            _SHARES.set((j, n_shares, pipe))
            for args in calls:
                try:
                    run_suite(*args)
                except _ShareSent:
                    pass
    finally:
        os._exit(0)


def _stop(workers: list) -> None:
    """Close the workers' read ends, then end and reap every worker."""
    for _, reader in workers:
        reader.close()
    for pid, _ in workers:
        try:
            if os.waitpid(pid, os.WNOHANG) == (0, 0):  # still running
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        except ChildProcessError:  # reaped already, as where SIGCHLD is ignored
            pass


def _worse(a, b):
    """The worse of two trial outputs at one position: ``max(a, b)``, or a
    NaN, which ``max`` would drop or keep by the order of its arguments."""
    return b if b != b or b > a else a


def _run_trials(name, trial, summary, trials, rng, grid, tol, **options) -> dict:
    """Suite ``name``'s record from ``trial(r, k, grid)`` on each stream
    ``r = rng.child(name, k)``, k < trials.  A trial returns its residual,
    or a tuple of the residual and the suite's extras; each position is kept
    at its worst over the trials, its max or a NaN.  ``summary(rng, grid,
    *extras)`` gives the pass condition and details the extras add;
    ``options`` reach both."""
    compute = lambda k: trial(rng.child(name, k), k, grid, **options)
    worst = None
    for out in _outputs(name, trials, compute):
        out = out if isinstance(out, tuple) else (out,)
        worst = out if worst is None else tuple(map(_worse, worst, out))
    residual, *extras = worst
    ok, details = summary(rng, grid, *extras, **options) if summary else (True, {})
    return _record(name, trials, residual, tol, ok and residual <= tol, **details)


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
# Trials


def _trial_group(r, k, grid):
    """Action residual, the scale residual of ``g g^-1`` and whether a
    permutation part came out inexact."""
    variant = _variant_for(k)
    spec, U, g = _draw(r, grid, variant)
    h = monomial.sample(spec, r.child("h"), variant, grid.scale_range)

    gid = monomial.identity(spec, variant)
    unit = monomial.compose(g, monomial.invert(g))
    perm_inexact = not monomial.act(gid, U).equal(U) or any(
        not np.array_equal(m.perm, np.arange(m.n)) for m in unit.layers
    )
    scale = max(float(np.max(np.abs(m.scales - 1.0))) for m in unit.layers)
    lhs = monomial.act(monomial.compose(g, h), U)
    rhs = monomial.act(g, monomial.act(h, U))
    action = max(_block_residual(lhs, rhs), _block_residual(monomial.act(unit, U), U))
    return action, scale, perm_inexact


def _group_summary(rng, grid, scale, perm_inexact):
    return not perm_inexact and scale <= GROUP_SCALE_TOL, {
        "perm_parts_exact": not perm_inexact,
        "max_scale_residual": scale if math.isfinite(scale) else None,
        "scale_tolerance": GROUP_SCALE_TOL,
    }


def _trial_stability(r, k, grid):
    spec, U, g = _draw(r, grid, _variant_for(k))
    psi = PsiParams.random(spec, r.child("psi"))
    T, gT = all_terms(U, psi), all_terms(monomial.act(g, U), psi)
    # [W], [bW] and [WW] at (s, t) move by g_s on rows and g_t^-1 on
    # columns; [b] and [Wb] move by g_s alone.
    worst = 0.0
    for table, moved in ((T.w, gT.w), (T.bw, gT.bw), (T.ww, gT.ww)):
        for (s, t), v in table.items():
            want = g.layer(t).apply_cols_inverse(g.layer(s).apply_rows(v))
            worst = max(worst, rel_residual(moved[(s, t)], want))
    rows = lambda s, v: g.layer(s).apply_rows(v[..., None])[..., 0]
    for s, v in T.b.items():
        worst = max(worst, rel_residual(gT.b[s], rows(s, v)))
    for (s, t), v in T.wb.items():
        worst = max(worst, rel_residual(gT.wb[(s, t)], rows(s, v)))
    return worst


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


def _trial_chains(r, k, grid):
    """Worst chain-identity ratio and whether a one-step chain differs from
    its weight."""
    spec, U, _ = _draw(r, grid)
    absU = U.map(np.abs)
    chains, abs_chains = _w_chains(U), _w_chains(absU)
    L = spec.L
    one_step_inexact = not all(
        np.array_equal(chains[(s, s - 1)], U.weight(s)) for s in range(1, L + 1)
    )
    worst = 0.0
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
                    ratio = float(np.max(np.abs(got - want)) / np.max(bound))
                    worst = max(worst, math.inf if math.isnan(ratio) else ratio)
    return worst, one_step_inexact


def _chains_summary(rng, grid, one_step_inexact):
    return not one_step_inexact, {"one_step_chain_exact": not one_step_inexact}


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


def _trial_netinv(r, k, grid):
    act, variant = _NETINV_PAIRS[k % len(_NETINV_PAIRS)]
    spec, U, g = _draw(r, grid, variant, d=1)
    return _mlp_residual(U, g, r.child("x").uniform(-1.0, 1.0, spec.n[0]), act)


def _netinv_summary(rng, grid):
    """Vacuity guard: a mismatched activation/variant pair must visibly break
    the invariance on at least one instance."""
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
    return witness > NETINV_WITNESS_FLOOR, {
        "mismatch_witness_residual": witness if math.isfinite(witness) else None,
        "witness_floor": NETINV_WITNESS_FLOOR,
    }


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


def _trial_equiv(r, k, grid, mutate_sharing=False):
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
    return _block_residual(out_gU, monomial.act(g, out_U))


def _equiv_summary(rng, grid, mutate_sharing=False):
    return True, {"sharing_mutation": bool(mutate_sharing)}


def _trial_inv(r, k, grid):
    batch = 2 if k % 3 == 0 else None
    spec, U, g = _draw(r, grid, _variant_for(k), batch=batch)
    e = r.child("e").choice(grid.e_values)
    params = layers.init_invariant(spec, e, 3, r.child("params"))
    return rel_residual(
        layers.invariant_forward(params, monomial.act(g, U)),
        layers.invariant_forward(params, U),
    )


_STACK_PAIRS = (
    (relu, VARIANT_POSITIVE),
    (sin, VARIANT_SIGN),
    (abs_act, VARIANT_POSITIVE),
    (abs_act, VARIANT_SIGN),
)


def _trial_stack(r, k, grid):
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
    return rel_residual(
        layers.stack_forward(stack, head, monomial.act(g, U), variant),
        layers.stack_forward(stack, head, U, variant),
    )


def _trial_oracle(r, k, grid):
    spec, U, _ = _draw(r, grid)
    e = r.child("e").choice(grid.e_values)
    eq = layers.init_equivariant(spec, e, r.child("eq"))
    inv = layers.init_invariant(spec, e, 2, r.child("inv"))
    fast = layers.equivariant_forward(eq, U)
    return max(
        _block_residual(fast, oracle.naive_equivariant_forward(eq, U)),
        rel_residual(layers.invariant_forward(inv, U), oracle.naive_invariant_forward(inv, U)),
    )


def _trial_rank(r, k, tol):
    """The rank report of spec k, of depth 2 + k % 2."""
    L = 2 + (k % 2)
    rn = r.child("n")
    spec = WeightSpec(L, tuple(int(rn.integers(1, 3)) for _ in range(L + 1)), 1)
    psi = PsiParams.random(spec, r.child("psi"))
    return oracle.independence_report(spec, psi, r.child("report"), threshold=tol)


def _suite_rank(trials, rng, grid, tol):
    """Rank of the stable-term families at random connection matrices, on
    ``min(max(trials // 20, 3), 10)`` specs of depth 2 or 3, widths 1-2 and
    d = 1, drawn apart from the grid.

    Passes iff every report's asserted-independent families have full rank
    (smallest singular-value ratio >= tol) and every coupled pair is short
    of full rank by exactly its (L-1)*d trace relations (ratios below tol).
    max_residual carries the smallest asserted ratio seen.
    """
    specs = min(max(trials // 20, 3), 10)
    reports = _outputs("rank", specs, lambda k: _trial_rank(rng.child("rank", k), k, tol))
    worst_ratio = 1.0
    all_full = True
    exact = True
    for rep in reports:
        worst_ratio = min(worst_ratio, rep["asserted_independent"]["sigma_ratio"])
        all_full = all_full and rep["asserted_independent"]["full_rank"]
        exact = exact and all(c["deficiency"] == c["expected_deficiency"] for c in rep["coupled"])
    return _record(
        "rank", specs, worst_ratio, tol, all_full and exact,
        asserted_full_rank=all_full,
        coupled_deficiency_exact=exact,
        reports=reports,
    )


# Each suite's runner, (trials, rng, grid, tol, **options) -> record.
_SUITE_FNS = {
    "group": partial(_run_trials, "group", _trial_group, _group_summary),
    "stability": partial(_run_trials, "stability", _trial_stability, None),
    "chains": partial(_run_trials, "chains", _trial_chains, _chains_summary),
    "netinv": partial(_run_trials, "netinv", _trial_netinv, _netinv_summary),
    "equiv": partial(_run_trials, "equiv", _trial_equiv, _equiv_summary),
    "inv": partial(_run_trials, "inv", _trial_inv, None),
    "stack": partial(_run_trials, "stack", _trial_stack, None),
    "oracle": partial(_run_trials, "oracle", _trial_oracle, None),
    "rank": _suite_rank,
}


def _require_run(names, trials, seed, mutate_sharing) -> tuple[int, int]:
    """``trials`` and ``seed`` as ints, checked with the selected ``names``
    before any suite runs.  Zero trials, or a sharing mutation without the
    equiv suite that reads it, would report a pass that checked nothing."""
    for name in names:
        if name not in _SUITE_FNS:
            raise ValidationError(f"unknown suite {name!r}")
    if mutate_sharing and "equiv" not in names:
        raise ValidationError(f"the sharing mutation needs the equiv suite, got {', '.join(names)}")
    try:
        seed = operator.index(seed)
    except TypeError:
        raise ValidationError(f"seed must be an integer, got {seed!r}") from None
    return _count("trials", trials, 1), seed


def _require_tolerance(name: str, tol: float) -> None:
    """A tolerance is an integer or float, numpy's included, and not a bool,
    as the report writes it as given.  A NaN tolerance fails every residual
    and an infinite one passes any."""
    if isinstance(tol, bool) or not isinstance(tol, (int, float, np.integer, np.floating)):
        raise ValidationError(f"tolerance of suite {name!r} must be a real number, got {tol!r}")
    if not math.isfinite(tol):
        raise ValidationError(f"tolerance of suite {name!r} must be finite, got {tol}")


def run_suite(
    name: str,
    trials: int,
    seed: int,
    grid: Grid | None = None,
    tolerance: float | None = None,
    mutate_sharing: bool = False,
) -> dict:
    trials, seed = _require_run((name,), trials, seed, mutate_sharing)
    grid = grid or Grid()
    tol = DEFAULT_TOLERANCES[name] if tolerance is None else tolerance
    _require_tolerance(name, tol)
    # Set only for equiv (checked above), the one runner that takes it.
    options = {"mutate_sharing": True} if mutate_sharing else {}
    return _SUITE_FNS[name](trials, Rng(seed), grid, tol, **options)


def run_suites(
    selector: str,
    trials: int,
    seed: int,
    grid: Grid | None = None,
    tolerance_overrides: dict[str, float] | None = None,
    mutate_sharing: bool = False,
) -> dict:
    """Run one suite or all of them; returns the full JSON-ready report."""
    # These checks come before the per-suite error records can swallow them.
    names = SUITE_NAMES if selector == "all" else (selector,)
    trials, seed = _require_run(names, trials, seed, mutate_sharing)
    overrides = tolerance_overrides or {}
    for name, tol in overrides.items():
        if name not in _SUITE_FNS:
            raise ValidationError(f"unknown suite {name!r} in tolerance_overrides")
        _require_tolerance(name, tol)
    calls = [
        (name, trials, seed, grid, overrides.get(name), mutate_sharing and name == "equiv")
        for name in names
    ]
    records, workers = [], []
    token = _SHARES.set(None)
    try:
        n_shares = _fork_shares(calls, trials, workers)
        if n_shares > 1:
            _SHARES.set((0, n_shares, [reader for _, reader in workers]))
        for args in calls:
            try:
                records.append(run_suite(*args))
            except Exception as exc:  # partial report still emitted
                name = args[0]
                tol = overrides.get(name, DEFAULT_TOLERANCES[name])
                frames = traceback.extract_tb(exc.__traceback__, limit=-TRACEBACK_FRAMES)
                records.append(
                    _record(
                        name, trials, None, tol, False,
                        error=f"{type(exc).__name__}: {exc}",
                        traceback=[f"{os.path.basename(f.filename)}:{f.lineno} in {f.name}" for f in frames],
                    )
                )
    finally:
        _SHARES.reset(token)
        _stop(workers)
    return {
        "format": "report/1",
        "command": "check",
        "seed": seed,
        "trials": trials,
        "suites": records,
        "pass": bool(all(rec["pass"] for rec in records)),
    }
