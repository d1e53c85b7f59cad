
import copy
import dataclasses
import math
import pickle
import re
from collections.abc import Mapping

import numpy as np
import pytest

from magep import layers, monomial, oracle
from magep.checks import Grid
from magep.activations import abs_act, relu, sin, tanh
from magep.dense import Rng, rel_residual
from magep.errors import ConfigurationError, ValidationError
from magep.stableterms import RUN_CAP, PsiParams, _cells, _declared, psi_indices
from magep.weightspace import Uniform, WeightObject, WeightSpec, random_weights

from helpers import constant_psi


def _random_setup(seed, L=3, n=(2, 3, 2, 2), d=2, e=3):
    spec = WeightSpec(L, n, d)
    r = Rng(seed)
    params = layers.init_equivariant(spec, e, r.child("p"))
    U = random_weights(spec, r.child("U"), Uniform(-1.0, 1.0))
    return spec, params, U


def _ones_equivariant(spec):
    e, d, n0, nL, L = 1, spec.d, spec.n[0], spec.n[spec.L], spec.L
    ones = np.ones
    return layers.EquivariantParams(
        spec=spec,
        e=e,
        phiW_L_W=ones((e, d, nL, nL)),
        phiW_L_WW=ones((e, d, nL, nL)),
        phiW_L_bW=ones((e, d, nL, nL)),
        phib_L_WWLL=ones((e, d, nL, n0, nL)),
        phib_L_WL0=ones((e, d, nL, n0, nL)),
        phib_L_bWLL0=ones((e, d, nL, n0, nL)),
        phib_L_trWW={s: ones((e, d, nL)) for s in range(1, L)},
        phib_L_Wb={t: ones((e, d, nL, nL)) for t in range(1, L)},
        phib_L_trbW={t: ones((e, d, nL)) for t in range(1, L)},
        phib_L_b=ones((e, d, nL, nL)),
        phib_L_1=ones((e, nL)),
        phiW_1_W=ones((d, e, n0, n0)),
        phiW_1_WW=ones((d, e, n0, n0)),
        phiW_1_bW=ones((d, e, n0, n0)),
        phiW_1_b=ones((d, e, n0)),
        phib_1_W=ones((d, e, n0)),
        phib_1_WW=ones((d, e, n0)),
        phib_1_bW=ones((d, e, n0)),
        phib_1_b=ones((d, e)),
        mid={
            i: layers.MiddleBlocks(
                w=ones((d, e)),
                ww=ones((d, e)),
                bw=ones((d, e)),
                b_w=ones((d, e, n0)),
                b_ww=ones((d, e, n0)),
                b_bw=ones((d, e, n0)),
                b_wb={t: ones((d, e)) for t in range(1, i)},
                b_b=ones((d, e)),
            )
            for i in range(2, L)
        },
        psi=constant_psi(spec, 1.0),
    )


def test_all_ones_scalar_network_regression_values():
    # every weight, bias, coefficient and connection entry equal to one on
    # the width-1 two-layer architecture; values pinned from the naive
    # summation oracle (and checkable by hand).
    spec = WeightSpec(2, (1, 1, 1), 1)
    U = WeightObject(
        spec,
        (np.ones((1, 1, 1)), np.ones((1, 1, 1))),
        (np.ones((1, 1)), np.ones((1, 1))),
    )
    params = _ones_equivariant(spec)
    out = layers.equivariant_forward(params, U)
    slow = oracle.naive_equivariant_forward(params, U)
    for a, b in zip(out.W + out.b, slow.W + slow.b):
        assert np.allclose(a, b, atol=1e-15)
    assert out.weight(1).item() == pytest.approx(4.0)
    assert out.bias(1).item() == pytest.approx(4.0)
    assert out.weight(2).item() == pytest.approx(3.0)
    assert out.bias(2).item() == pytest.approx(8.0)


def test_zero_object_gives_constant_row_only():
    spec, params, _ = _random_setup(1)
    out = layers.equivariant_forward(params, WeightObject.zeros(spec))
    for i in range(1, spec.L + 1):
        assert np.all(out.weight(i) == 0.0)
    for i in range(1, spec.L):
        assert np.all(out.bias(i) == 0.0)
    assert np.allclose(out.bias(spec.L), np.broadcast_to(params.phib_L_1, out.bias(spec.L).shape))


def test_zero_scale_init_forward_is_bias_only():
    spec = WeightSpec(2, (2, 2, 2), 1)
    params = layers.init_equivariant(spec, 2, Rng(5), scale=0.0)
    U = random_weights(spec, Rng(6), Uniform(-1.0, 1.0))
    out = layers.equivariant_forward(params, U)
    for i in range(1, spec.L + 1):
        assert np.all(out.weight(i) == 0.0)
    assert np.all(out.bias(1) == 0.0)
    assert np.all(out.bias(2) == 0.0)  # phib_L_1 is also drawn from (-0, 0)


def test_init_deterministic():
    spec = WeightSpec(3, (1, 2, 3, 1), 2)
    a = layers.init_equivariant(spec, 2, Rng(9))
    b = layers.init_equivariant(spec, 2, Rng(9))
    for k, v in a.blocks().items():
        assert np.array_equal(v, b.blocks()[k]), k


def test_middle_case_block_count_for_three_layers():
    spec = WeightSpec(3, (2, 2, 2, 2), 1)
    params = layers.init_equivariant(spec, 1, Rng(0))
    blk = params.mid[2]
    names = ["w", "ww", "bw", "b_w", "b_ww", "b_bw", "b_b"]
    assert len(names) + len(blk.b_wb) == 8  # 3 + 3 + 1 (t=1) + 1


def test_equivariance_small_dims():
    worst = 0.0
    for k in range(40):
        r = Rng(3000 + k)
        variant = "positive" if k % 2 == 0 else "sign"
        L = int(r.child("L").integers(2, 4))
        n = tuple(int(v) for v in r.child("n").integers(1, 3, L + 1))
        spec = WeightSpec(L, n, int(r.child("d").integers(1, 2)))
        params = layers.init_equivariant(spec, int(r.child("e").integers(1, 3)), r.child("p"))
        U = random_weights(spec, r.child("U"), Uniform(-1.0, 1.0))
        g = monomial.sample(spec, r.child("g"), variant)
        lhs = layers.equivariant_forward(params, monomial.act(g, U))
        rhs = monomial.act_layers(g.layers, layers.equivariant_forward(params, U))
        worst = max(
            worst,
            max(rel_residual(a, b) for a, b in zip(lhs.W + lhs.b, rhs.W + rhs.b)),
        )
    assert worst <= 1e-10


def test_invariance_small_dims():
    worst = 0.0
    for k in range(40):
        r = Rng(4000 + k)
        variant = "positive" if k % 2 == 0 else "sign"
        L = int(r.child("L").integers(2, 4))
        n = tuple(int(v) for v in r.child("n").integers(1, 3, L + 1))
        spec = WeightSpec(L, n, int(r.child("d").integers(1, 2)))
        params = layers.init_invariant(spec, 2, 3, r.child("p"))
        U = random_weights(spec, r.child("U"), Uniform(-1.0, 1.0))
        g = monomial.sample(spec, r.child("g"), variant)
        worst = max(
            worst,
            rel_residual(
                layers.invariant_forward(params, monomial.act(g, U)),
                layers.invariant_forward(params, U),
            ),
        )
    assert worst <= 1e-10


def test_invariant_zero_object_is_constant_row():
    spec = WeightSpec(2, (2, 3, 2), 2)
    params = layers.init_invariant(spec, 2, 4, Rng(1))
    out = layers.invariant_forward(params, WeightObject.zeros(spec))
    assert np.array_equal(out, params.phi_1)


def test_invariant_linearity_in_phi():
    spec = WeightSpec(2, (2, 2, 2), 1)
    r = Rng(12)
    psi = PsiParams.random(spec, r.child("psi"))
    pa = layers.init_invariant(spec, 2, 3, r.child("a"), psi=psi)
    pb = layers.init_invariant(spec, 2, 3, r.child("b"), psi=psi)

    def add(x, y):
        return layers.InvariantParams(
            spec=spec,
            e=2,
            d_out=3,
            phi_WWLL=pa.phi_WWLL + pb.phi_WWLL,
            phi_WL0=pa.phi_WL0 + pb.phi_WL0,
            phi_trWW={k: pa.phi_trWW[k] + pb.phi_trWW[k] for k in pa.phi_trWW},
            phi_bWLL0=pa.phi_bWLL0 + pb.phi_bWLL0,
            phi_Wb={k: pa.phi_Wb[k] + pb.phi_Wb[k] for k in pa.phi_Wb},
            phi_trbW={k: pa.phi_trbW[k] + pb.phi_trbW[k] for k in pa.phi_trbW},
            phi_b=pa.phi_b + pb.phi_b,
            phi_1=pa.phi_1 + pb.phi_1,
            psi=psi,
        )

    U = random_weights(spec, r.child("U"), Uniform(-1.0, 1.0))
    combined = layers.invariant_forward(add(pa, pb), U)
    separate = layers.invariant_forward(pa, U) + layers.invariant_forward(pb, U)
    assert rel_residual(combined, separate) <= 1e-12


def test_activation_examples():
    spec = WeightSpec(2, (1, 2, 1), 1)
    negative = random_weights(spec, Rng(0), Uniform(-2.0, -1.0))
    zeroed = negative.map(relu)
    assert all(np.all(w == 0.0) for w in zeroed.W + zeroed.b)
    U = random_weights(spec, Rng(1), Uniform(-1.0, 1.0))
    minus = U.map(lambda x: -x)
    a = minus.map(tanh)
    b = U.map(tanh).map(lambda x: -x)
    assert a.allclose(b, atol=1e-15)


def test_relu_commutes_with_positive_action_entrywise():
    spec = WeightSpec(3, (2, 2, 2, 2), 1)
    for k in range(10):
        r = Rng(5000 + k)
        U = random_weights(spec, r.child("U"), Uniform(-1.0, 1.0))
        g = monomial.sample(spec, r.child("g"), "positive")
        a = monomial.act(g, U).map(relu)
        b = monomial.act(g, U.map(relu))
        worst = max(rel_residual(x, y) for x, y in zip(a.W + a.b, b.W + b.b))
        assert worst <= 1e-14


def test_stack_empty_list_is_invariant_head():
    spec = WeightSpec(2, (2, 2, 2), 1)
    head = layers.init_invariant(spec, 2, 3, Rng(0))
    U = random_weights(spec, Rng(1))
    assert np.array_equal(
        layers.stack_forward([], head, U), layers.invariant_forward(head, U)
    )


def test_stack_two_layer_invariance():
    worst = 0.0
    for k, (act, variant) in enumerate([(relu, "positive"), (sin, "sign"), (abs_act, "sign")]):
        r = Rng(6000 + k)
        spec = WeightSpec(2, (2, 3, 2), 1)
        p1 = layers.init_equivariant(spec, 2, r.child("p1"))
        p2 = layers.init_equivariant(WeightSpec(2, spec.n, 2), 3, r.child("p2"))
        head = layers.init_invariant(WeightSpec(2, spec.n, 3), 2, 3, r.child("h"))
        U = random_weights(spec, r.child("U"), Uniform(-1.0, 1.0))
        g = monomial.sample(spec, r.child("g"), variant)
        worst = max(
            worst,
            rel_residual(
                layers.stack_forward([(p1, act), (p2, act)], head, monomial.act(g, U), variant),
                layers.stack_forward([(p1, act), (p2, act)], head, U, variant),
            ),
        )
    assert worst <= 1e-8


def test_stack_rejects_incompatible_activation():
    spec = WeightSpec(2, (2, 2, 2), 1)
    p1 = layers.init_equivariant(spec, 2, Rng(0))
    head = layers.init_invariant(WeightSpec(2, spec.n, 2), 2, 3, Rng(1))
    U = random_weights(spec, Rng(2))
    with pytest.raises(ConfigurationError, match="not compatible"):
        layers.stack_forward([(p1, relu)], head, U, variant="sign")


def test_stack_rejects_channel_mismatch():
    spec = WeightSpec(2, (2, 2, 2), 1)
    p1 = layers.init_equivariant(spec, 2, Rng(0))
    head = layers.init_invariant(WeightSpec(2, spec.n, 5), 2, 3, Rng(1))
    U = random_weights(spec, Rng(2))
    with pytest.raises(ConfigurationError, match="channels"):
        layers.stack_forward([(p1, relu)], head, U)


def _equivariant_closed_form(spec, e):
    d, n0, nL, L = spec.d, spec.n[0], spec.n[spec.L], spec.L
    count = 3 * e * d * nL * nL            # last-layer weight row
    count += 3 * e * d * nL * n0 * nL      # bias row, full boundary terms
    count += sum(e * d * nL for _ in range(1, L))          # trWW per s
    count += sum(e * d * nL * nL for _ in range(1, L))     # Wb per t
    count += sum(e * d * nL for _ in range(1, L))          # trbW per t
    count += e * d * nL * nL + e * nL      # bias-of-bias and constant row
    count += 3 * d * e * n0 * n0 + d * e * n0              # first-layer weight row
    count += 3 * d * e * n0 + d * e        # first-layer bias row
    for i in range(2, L):
        count += 3 * d * e                 # scalar weight-row coefficients
        count += 3 * d * e * n0            # bias-row vectors
        count += (i - 1) * d * e           # Wb terms
        count += d * e                     # bias coefficient
    return count


def _invariant_closed_form(spec, e, d_out):
    d, n0, nL, L = spec.d, spec.n[0], spec.n[spec.L], spec.L
    count = 3 * d * e * nL * n0 * d_out
    count += sum(d * e * d_out for _ in range(1, L))       # trWW
    count += sum(d * e * nL * d_out for _ in range(1, L))  # Wb
    count += sum(d * e * d_out for _ in range(1, L))       # trbW
    count += d * e * nL * d_out + e * d_out
    return count


def test_parameter_count_matches_closed_form():
    for spec, e in [
        (WeightSpec(2, (1, 2, 1), 1), 1),
        (WeightSpec(3, (2, 3, 2, 2), 2), 3),
        (WeightSpec(4, (1, 2, 3, 2, 1), 1), 2),
        (WeightSpec(5, (3, 1, 4, 2, 5, 2), 2), 3),
    ]:
        params = layers.init_equivariant(spec, e, Rng(0))
        stored = sum(v.size for v in params.blocks().values())
        assert stored == _equivariant_closed_form(spec, e)
        inv = layers.init_invariant(spec, e, 3, Rng(1))
        stored = sum(v.size for v in inv.blocks().values())
        assert stored == _invariant_closed_form(spec, e, 3)


def _coefficient_map(params, forward, U):
    """Columns: the flattened forward with one coefficient 1 and the rest 0."""
    cols = []
    for arr in params.blocks().values():
        for idx in np.ndindex(arr.shape):
            arr[idx] = 1.0
            cols.append(np.ravel(forward(params, U)))
            arr[idx] = 0.0
    return np.stack(cols, axis=1)


@pytest.mark.parametrize(
    "n, d, e, counts",
    [
        ((2, 2, 2), 1, 1, (71, 38)),
        ((1, 2, 2, 1), 1, 1, (30, 22)),
        ((2, 3, 3, 2), 2, 2, (356, 180)),
    ],
)
def test_coefficient_map_rank_falls_short_by_the_trace_coefficients(n, d, e, counts):
    # Both layers are linear in their coefficients.  The trace identities
    # make the trWW and trbW features fixed combinations of the WL0 and Wb
    # ones, so exactly their 2(L-1)*d*e*m coefficients are redundant, m
    # being n_L for the equivariant last-bias row and d_out for the
    # invariant layer; every other coefficient is identifiable.
    spec = WeightSpec(len(n) - 1, n, d)
    r = Rng(3)
    U = random_weights(spec, r.child("U"), Uniform(-1.0, 1.0), batch=60)
    d_out = 2
    eq = layers.init_equivariant(spec, e, r.child("eq"), scale=0.0)
    inv = layers.init_invariant(spec, e, d_out, r.child("inv"), scale=0.0)
    maps = (
        (_coefficient_map(eq, lambda p, V: layers.equivariant_forward(p, V).flat, U), n[-1]),
        (_coefficient_map(inv, layers.invariant_forward, U), d_out),
    )
    for (X, m), count in zip(maps, counts):
        assert X.shape[1] == count
        assert np.linalg.matrix_rank(X) == count - 2 * (spec.L - 1) * d * e * m


def test_channel_counts_are_coerced_and_checked():
    spec = WeightSpec(2, (1, 2, 1), 1)
    assert type(layers.init_equivariant(spec, np.int64(2), Rng(0)).e) is int
    for bad in ["2", 2.0, 0, True]:
        with pytest.raises(ValidationError):
            layers.init_equivariant(spec, bad, Rng(0))
        with pytest.raises(ValidationError):
            layers.init_invariant(spec, 2, bad, Rng(0))


def test_no_dead_parameters_equivariant():
    # flipping any single stored coefficient must change the forward output
    spec = WeightSpec(3, (2, 2, 2, 2), 1)
    r = Rng(13)
    params = layers.init_equivariant(spec, 2, r.child("p"))
    U = random_weights(spec, r.child("U"), Uniform(0.5, 1.5))  # nonzero terms
    base = layers.equivariant_forward(params, U)
    for name, arr in params.blocks().items():
        idx = tuple(0 for _ in arr.shape)
        arr[idx] += 1.0
        out = layers.equivariant_forward(params, U)
        changed = any(
            not np.array_equal(a, b) for a, b in zip(out.W + out.b, base.W + base.b)
        )
        arr[idx] -= 1.0
        assert changed, f"block {name} is dead"


def test_no_dead_parameters_invariant():
    spec = WeightSpec(3, (2, 2, 2, 2), 1)
    r = Rng(14)
    params = layers.init_invariant(spec, 2, 2, r.child("p"))
    U = random_weights(spec, r.child("U"), Uniform(0.5, 1.5))
    base = layers.invariant_forward(params, U)
    for name, arr in params.blocks().items():
        idx = tuple(0 for _ in arr.shape)
        arr[idx] += 1.0
        out = layers.invariant_forward(params, U)
        arr[idx] -= 1.0
        assert not np.array_equal(out, base), f"block {name} is dead"


def test_degenerate_widths_still_equivariant():
    spec = WeightSpec(3, (1, 1, 1, 1), 1)
    r = Rng(15)
    params = layers.init_equivariant(spec, 2, r.child("p"))
    U = random_weights(spec, r.child("U"), Uniform(-1.0, 1.0))
    g = monomial.sample(spec, r.child("g"))
    lhs = layers.equivariant_forward(params, monomial.act(g, U))
    rhs = monomial.act_layers(g.layers, layers.equivariant_forward(params, U))
    assert max(rel_residual(a, b) for a, b in zip(lhs.W + lhs.b, rhs.W + rhs.b)) <= 1e-10


def test_batched_forward_matches_per_row():
    spec = WeightSpec(2, (2, 3, 2), 2)
    r = Rng(16)
    params = layers.init_equivariant(spec, 2, r.child("p"))
    U = random_weights(spec, r.child("U"), Uniform(-1.0, 1.0), batch=3)
    out = layers.equivariant_forward(params, U)
    for row in range(3):
        single = WeightObject(spec, tuple(w[row] for w in U.W), tuple(b[row] for b in U.b))
        one = layers.equivariant_forward(params, single)
        for i in range(1, 3):
            assert np.allclose(out.weight(i)[row], one.weight(i), atol=1e-15)
            assert np.allclose(out.bias(i)[row], one.bias(i), atol=1e-15)


def test_params_round_trip_bit_exact(tmp_path):
    spec = WeightSpec(3, (2, 3, 2, 2), 2)
    params = layers.init_equivariant(spec, 3, Rng(21))
    path = tmp_path / "eq.mgp.json"
    layers.save_params(params, path)
    loaded = layers.load_params(path)
    assert isinstance(loaded, layers.EquivariantParams)
    for k, v in params.blocks().items():
        assert np.array_equal(v, loaded.blocks()[k]), k
    for key in params.psi.bw:
        assert np.array_equal(params.psi.bw[key], loaded.psi.bw[key])
        assert np.array_equal(params.psi.ww[key], loaded.psi.ww[key])

    inv = layers.init_invariant(spec, 2, 4, Rng(22))
    path = tmp_path / "inv.mgp.json"
    layers.save_params(inv, path)
    loaded = layers.load_params(path)
    assert isinstance(loaded, layers.InvariantParams)
    for k, v in inv.blocks().items():
        assert np.array_equal(v, loaded.blocks()[k]), k


def test_forward_rejects_wrong_spec():
    spec, params, _ = _random_setup(2)
    other = random_weights(WeightSpec(2, (2, 2, 2), 2), Rng(0))
    with pytest.raises(ValidationError):
        layers.equivariant_forward(params, other)


# The packing code of the forward before the blocks became views of their
# GEMM buffers, kept here as the reference for the buffers' layout.


def _old_pack_features(params, prefix):
    slots = ("WWLL", "WL0", "trWW", "bWLL0", "Wb", "trbW", "b")
    const = getattr(params, prefix + "1")
    L, m = params.spec.L, const.shape[-1]

    def features(v):
        return v.reshape(v.shape[0], v.shape[1], -1, m)

    blocks = []
    for slot in slots:
        value = getattr(params, prefix + slot)
        if isinstance(value, Mapping):
            value = np.concatenate([features(value[k]) for k in range(L - 1, 0, -1)], axis=2)
        else:
            value = features(value)
        blocks.append(value if prefix == "phib_L_" else value.swapaxes(0, 1))
    body = np.concatenate(blocks, axis=2)  # [e, d, width, m]
    return np.concatenate([body.reshape(body.shape[0], -1, m), const[:, None]], axis=1)


def _old_row_coefficients(heads, tail):
    h = np.array(heads).swapaxes(2, 3).swapaxes(0, 1)  # [d, 3, n0, e, *k]
    t = np.array(tail).swapaxes(0, 1)  # [d, c, e, *k]
    d = t.shape[0]
    return np.concatenate([h.reshape(d, 3 * h.shape[2], -1), t.reshape(d, t.shape[1], -1)], axis=1)


def _old_buffers(p):
    e, d, nL = p.e, p.spec.d, p.spec.n[-1]
    last = np.concatenate([p.phiW_L_W, p.phiW_L_WW, p.phiW_L_bW], axis=1)
    first = np.concatenate(
        [
            _old_row_coefficients([p.phiW_1_W, p.phiW_1_WW, p.phiW_1_bW], [p.phiW_1_b]),
            _old_row_coefficients([p.phib_1_W, p.phib_1_WW, p.phib_1_bW], [p.phib_1_b]),
        ],
        axis=2,
    )
    out = [
        _old_pack_features(p, "phib_L_"),
        last.transpose(0, 3, 1, 2).reshape(e * nL, 3 * d * nL),
        first,
    ]
    for i, blk in p.mid.items():
        out.append(np.concatenate([blk.w, blk.ww, blk.bw]))
        tail = [blk.b_wb[t] for t in range(1, i)] + [blk.b_b]
        out.append(_old_row_coefficients([blk.b_w, blk.b_ww, blk.b_bw], tail))
    return out


def _buffers(p):
    if isinstance(p, layers.InvariantParams):
        return [p._packed]
    out = [p._last_bias, p._last_weight, p._first_rows]
    for scalars, rows in p._interior.values():
        out += [scalars, rows]
    return out


DEEP = WeightSpec(4, (3, 16, 5, 16, 2), 2)
PACK_SPECS = [DEEP, WeightSpec(3, (2, 3, 1, 4), 1)]


@pytest.mark.parametrize("spec", PACK_SPECS, ids=["deep", "d1"])
@pytest.mark.parametrize("e", [1, 4])
def test_buffers_equal_the_old_packing_bit_for_bit(spec, e):
    p = layers.init_equivariant(spec, e, Rng(31))
    inv = layers.init_invariant(spec, e, 3, Rng(32))
    pairs = list(zip(_buffers(p), _old_buffers(p)))
    pairs.append((inv._packed, _old_pack_features(inv, "phi_")))
    assert len(pairs) == 2 * spec.L
    for got, want in pairs:
        assert got.flags.c_contiguous and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("spec", PACK_SPECS, ids=["deep", "d1"])
@pytest.mark.parametrize("e", [1, 4])
def test_unbatched_forward_is_row_zero_of_a_batch_of_one_bit_for_bit(spec, e):
    # Rows of larger batches are not pinned bitwise: BLAS may block a batched
    # product differently.  At batch 3 on these specs, 239 of 1680 output
    # tensors differed from their unbatched forward, by up to 1.8e-15 relative.
    r = Rng(38)
    params = layers.init_equivariant(spec, e, r.child("p"))
    head = layers.init_invariant(WeightSpec(spec.L, spec.n, e), 2, 3, r.child("head"))
    for k in range(5):
        U = random_weights(spec, r.child("U", k), Uniform(-2.0, 2.0))
        one = WeightObject(spec, tuple(w[None] for w in U.W), tuple(v[None] for v in U.b), 1)
        alone, row = layers.equivariant_forward(params, U), layers.equivariant_forward(params, one)
        for a, b in zip(alone.W + alone.b, row.W + row.b):
            assert a.shape == b.shape[1:] and a.tobytes() == b[0].tobytes()
        # Both outputs are one contiguous row, so the head reads them alike.
        alone, row = (layers.stack_forward([(params, relu)], head, V) for V in (U, one))
        assert alone.tobytes() == row[0].tobytes()


@pytest.mark.parametrize("spec", PACK_SPECS, ids=["deep", "d1"])
def test_every_block_is_a_view_of_a_buffer(spec):
    r = Rng(33)
    for p in (layers.init_equivariant(spec, 2, r.child(1)), layers.init_invariant(spec, 2, 3, r)):
        buffers = _buffers(p)
        for name, block in p.blocks().items():
            assert any(np.shares_memory(block, buf) for buf in buffers), name


def _constructor_args(p):
    return {f.name: getattr(p, f.name) for f in dataclasses.fields(p)}


def _tables(p):
    out = [v for v in _constructor_args(p).values() if isinstance(v, Mapping)]
    return out + [blk.b_wb for blk in getattr(p, "mid", {}).values()]


def test_tables_are_read_only():
    spec = WeightSpec(4, (2, 3, 2, 2, 2), 2)
    r = Rng(39)
    for p, count in (
        (layers.init_equivariant(spec, 2, r.child(1)), 3 + 1 + 2),  # tables, mid, b_wb
        (layers.init_invariant(spec, 2, 3, r), 3),
    ):
        tables = _tables(p)
        assert len(tables) == count
        for table in tables:
            with pytest.raises(TypeError):
                table[1] = np.zeros(1)


def test_construction_copies_the_given_blocks():
    spec = WeightSpec(3, (2, 3, 2, 2), 2)
    r = Rng(35)
    for p in (layers.init_equivariant(spec, 3, r.child(1)), layers.init_invariant(spec, 3, 2, r)):
        # Tables given in descending key order are stored ascending, the
        # order the .mgp.json bytes depend on.
        args = {
            k: dict(reversed(v.items())) if isinstance(v, Mapping) else v
            for k, v in _constructor_args(p).items()
        }
        q = type(p)(**args)
        assert all(list(t) == sorted(t) for t in _tables(q))
        before = {k: v.copy() for k, v in q.blocks().items()}
        for v in p.blocks().values():
            v[...] = 7.0
        for k, v in q.blocks().items():
            assert np.array_equal(v, before[k]), k
            assert not any(np.shares_memory(v, buf) for buf in _buffers(p)), k


# Each case gives one field of a layer at WeightSpec(3, (2, 3, 2, 2), 2),
# e = 2, d_out = 3, a value of the wrong type, keys or shape.
_WRONG_FIELDS = [
    ("invariant", "phi_trWW", lambda p: np.zeros((1, 2, 3)), "phi_trWW must be keyed by layers (1, 2)"),
    ("invariant", "phi_WL0", lambda p: {1: np.zeros(1)}, "phi_WL0 is not a numeric array"),
    ("equivariant", "mid", lambda p: [1, 2], "mid must be keyed by layers (2,)"),
    ("equivariant", "mid", lambda p: {2: np.zeros(1)}, "mid[2] must be MiddleBlocks"),
    ("invariant", "phi_1", lambda p: "x", "phi_1 is not a numeric array"),
    ("invariant", "phi_Wb", lambda p: {1: p.phi_Wb[1]}, "phi_Wb must be keyed by layers (1, 2)"),
    (
        "equivariant", "phiW_L_W", lambda p: np.zeros(1),
        "phiW_L_W has shape (1,), expected (2, 2, 2, 2)",
    ),
    (
        "equivariant", "mid", lambda p: {2: dataclasses.replace(p.mid[2], b_wb={1: np.zeros(3)})},
        "mid[2].b_wb[1] has shape (3,), expected (2, 2)",
    ),
]


@pytest.mark.parametrize("kind, name, value, message", _WRONG_FIELDS)
def test_constructor_names_the_wrong_field(kind, name, value, message):
    spec = WeightSpec(3, (2, 3, 2, 2), 2)
    if kind == "equivariant":
        p = layers.init_equivariant(spec, 2, Rng(44))
    else:
        p = layers.init_invariant(spec, 2, 3, Rng(44))
    with pytest.raises(ValidationError, match=re.escape(message)):
        dataclasses.replace(p, **{name: value(p)})


# A spec that is not a WeightSpec, or a psi that is not PsiParams, given to
# a layer, to PsiParams, or to an initializer.
_WRONG_TYPES = [
    ("equivariant", "spec", (2, (1, 2, 1), 1), "spec must be a WeightSpec, got tuple"),
    ("equivariant", "psi", None, "psi must be PsiParams, got NoneType"),
    ("invariant", "spec", (2, (1, 2, 1), 1), "spec must be a WeightSpec, got tuple"),
    ("invariant", "psi", None, "psi must be PsiParams, got NoneType"),
    ("invariant", "psi", {"bw": {}, "ww": {}}, "psi must be PsiParams, got dict"),
    ("psi", "spec", (2, (1, 2, 1), 1), "spec must be a WeightSpec, got tuple"),
    ("init_equivariant", "spec", (2, (1, 2, 1), 1), "spec must be a WeightSpec, got tuple"),
    ("init_equivariant", "psi", {"bw": {}, "ww": {}}, "psi must be PsiParams, got dict"),
    ("init_invariant", "spec", (2, (1, 2, 1), 1), "spec must be a WeightSpec, got tuple"),
    ("init_invariant", "psi", {"bw": {}, "ww": {}}, "psi must be PsiParams, got dict"),
    ("PsiParams.random", "spec", (2, (1, 2, 1), 1), "spec must be a WeightSpec, got tuple"),
]

_BUILDERS = {
    "init_equivariant": lambda spec, rng, psi=None: layers.init_equivariant(spec, 2, rng, psi=psi),
    "init_invariant": lambda spec, rng, psi=None: layers.init_invariant(spec, 2, 3, rng, psi=psi),
    "PsiParams.random": PsiParams.random,
}


@pytest.mark.parametrize("kind, name, value, message", _WRONG_TYPES)
def test_wrong_typed_spec_or_psi_names_the_field(kind, name, value, message):
    spec, r = WeightSpec(2, (1, 2, 1), 1), Rng(45)
    if kind in _BUILDERS:
        with pytest.raises(ValidationError, match=re.escape(message)):
            _BUILDERS[kind](**{"spec": spec, "rng": r, name: value})
        return
    if kind == "equivariant":
        p = layers.init_equivariant(spec, 2, r)
    elif kind == "invariant":
        p = layers.init_invariant(spec, 2, 3, r)
    else:
        p = PsiParams.random(spec, r)
    with pytest.raises(ValidationError, match=re.escape(message)):
        dataclasses.replace(p, **{name: value})


@pytest.mark.parametrize("kind", ["equivariant", "invariant"])
def test_copies_own_their_buffers(kind):
    spec = WeightSpec(3, (2, 3, 2, 2), 2)
    r = Rng(37)
    if kind == "equivariant":
        p, forward = layers.init_equivariant(spec, 2, r.child("p")), layers.equivariant_forward
    else:
        p, forward = layers.init_invariant(spec, 2, 3, r.child("p")), layers.invariant_forward
    U = random_weights(spec, r.child("U"), Uniform(0.5, 1.5))

    def out(params):
        y = forward(params, U)
        return y.flat.copy() if kind == "equivariant" else y

    base = out(p)
    copies = (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p)), dataclasses.replace(p))
    for q in copies:
        assert np.array_equal(out(q), base)
        for name, block in q.blocks().items():
            assert any(np.shares_memory(block, buf) for buf in _buffers(q)), name
            assert not any(np.shares_memory(block, buf) for buf in _buffers(p)), name
        next(iter(q.blocks().values()))[...] += 1.0
        assert not np.array_equal(out(q), base)
        assert np.array_equal(out(p), base)


def test_equality_is_identity():
    spec = WeightSpec(2, (1, 2, 1), 1)
    U, V = random_weights(spec, Rng(0)), random_weights(spec, Rng(0))
    assert U == U and U != V
    assert U.equal(V) and U.allclose(V)
    spec = WeightSpec(3, (1, 2, 2, 1), 1)
    p, q = layers.init_equivariant(spec, 2, Rng(1)), layers.init_equivariant(spec, 2, Rng(1))
    assert p == p and p != q and p.mid[2] != q.mid[2]
    assert all(np.array_equal(v, q.blocks()[k]) for k, v in p.blocks().items())
    inv = layers.init_invariant(spec, 2, 3, Rng(2))
    assert inv == inv and inv != layers.init_invariant(spec, 2, 3, Rng(2))


# Specs of the check grid, and the equivariant layers and head of the
# deep-forward benchmark workload (L=6, n=32, d 1 -> 4 -> 4, e=4, d_out=3).
_GRID_SPECS = [Grid().sample_spec(Rng(40).child(k)) for k in range(6)]
_INIT_CASES = [(spec, e, 3) for spec in _GRID_SPECS for e in (1, 3)] + [
    (WeightSpec(6, (32,) * 7, 1), 4, 3),
    (WeightSpec(6, (32,) * 7, 4), 4, 3),
]


@pytest.mark.parametrize("spec, e, d_out", _INIT_CASES, ids=lambda v: str(v))
def test_init_equals_what_the_checking_constructor_builds(spec, e, d_out):
    r = Rng(41)
    for p in (layers.init_equivariant(spec, e, r.child("eq")), layers.init_invariant(spec, e, d_out, r)):
        q = copy.copy(p)  # through __reduce__, i.e. the checking constructor
        got, want = q.blocks(), p.blocks()
        assert list(got) == list(want)
        for k, v in want.items():
            assert got[k].dtype == v.dtype and got[k].tobytes() == v.tobytes(), k
        for a, b in zip(_buffers(q), _buffers(p), strict=True):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        for name, block in p.blocks().items():
            assert any(np.shares_memory(block, buf) for buf in _buffers(p)), name


def test_init_rejects_a_psi_built_for_another_architecture():
    spec, other = WeightSpec(3, (2, 3, 2, 2), 2), WeightSpec(3, (2, 3, 3, 2), 2)
    psi = PsiParams.random(other, Rng(42))
    with pytest.raises(ValidationError, match="different architecture"):
        layers.init_equivariant(spec, 2, Rng(43), psi=psi)
    with pytest.raises(ValidationError, match="different architecture"):
        layers.init_invariant(spec, 2, 3, Rng(43), psi=psi)


def test_zero_scale_init_gives_negative_zero_blocks_and_draws_nothing():
    spec = WeightSpec(4, (2, 3, 2, 3, 2), 2)
    for init in (
        lambda r: layers.init_equivariant(spec, 3, r, scale=0.0),
        lambda r: layers.init_invariant(spec, 3, 2, r, scale=0.0),
    ):
        r = Rng(44)
        blocks = init(r).blocks()
        assert all(np.all(v == 0.0) and np.all(np.signbit(v)) for v in blocks.values())
        assert np.array_equal(r.uniform(0.0, 1.0, 8), Rng(44).uniform(0.0, 1.0, 8))


def _draw_per_block(cls, rng, spec, views, scale):
    """The reference draw: one ``rng.uniform(-a, a, shape)`` per block, in
    field order, a table's entries in ascending key order."""
    sizes = {"1": 1, "d": spec.d, "n0": spec.n[0], "nL": spec.n[-1]}
    for name, decl in _declared(cls):
        for k, cell in _cells(decl, views[name]):
            if k is not None:
                sizes["nk"] = spec.n[k]
            a = scale if decl.fan_of is None else scale / math.sqrt(math.prod(decl.fan_of(sizes)))
            cell[...] = rng.uniform(-a, a, cell.shape)


def _psi_per_entry(spec, rng):
    """The reference Psi: one uniform(-1, 1) draw per entry, every [bW] one
    in psi_indices order, then every [WW] one."""
    keys, n0, nL = psi_indices(spec.L), spec.n[0], spec.n[-1]
    bw = {k: rng.uniform(-1.0, 1.0, (1, nL)) for k in keys}
    return PsiParams(spec, bw, {k: rng.uniform(-1.0, 1.0, (n0, nL)) for k in keys})


# Blocks of RUN_CAP entries or more among smaller ones (n = 32), runs cut at
# the cap (n = 8), interior layers (L = 4), and width-1 layers.
_DRAW_SPECS = [
    (WeightSpec(2, (32, 32, 32), 2), 4),
    (WeightSpec(3, (8, 8, 8, 8), 2), 3),
    (WeightSpec(4, (3, 2, 4, 2, 3), 2), 3),
    (WeightSpec(3, (1, 2, 1, 1), 1), 1),
]


@pytest.mark.parametrize("scale", [1.0, 0.37, 0.0])
@pytest.mark.parametrize("spec, e", _DRAW_SPECS, ids=str)
def test_run_draw_equals_one_uniform_draw_per_block(monkeypatch, spec, e, scale):
    inits = {
        "equivariant": lambda r, psi=None: layers.init_equivariant(spec, e, r, scale, psi),
        "invariant": lambda r, psi=None: layers.init_invariant(spec, e, 3, r, scale, psi),
    }
    got, runs, random = {}, [], Rng.random
    monkeypatch.setattr(Rng, "random", lambda self, size: runs.append(size) or random(self, size))
    for kind, init in inits.items():
        r = Rng(47)
        got[kind] = init(r), r.random(4)
    # A run longer than the cap would hold a second copy of a whole layer.
    assert max(runs) < RUN_CAP
    monkeypatch.setattr(layers, "_draw", _draw_per_block)
    psi = _psi_per_entry(spec, Rng(47).child("psi"))
    for kind, init in inits.items():
        r = Rng(47)
        (p, after), want = got[kind], init(r, psi)
        assert list(p.blocks()) == list(want.blocks())
        for name, block in want.blocks().items():
            assert p.blocks()[name].tobytes() == block.tobytes(), (kind, name)
        for table, ref in ((p.psi.bw, psi.bw), (p.psi.ww, psi.ww)):
            assert all(table[k].tobytes() == ref[k].tobytes() for k in ref), kind
        # Both draws leave the stream at the same place.
        assert after.tobytes() == r.random(4).tobytes(), kind
        if scale == 0.0:
            assert all(np.all(v == 0.0) & np.all(np.signbit(v)) for v in p.blocks().values())
            assert after.tobytes() == Rng(47).random(4).tobytes()
    if spec.n[0] == 32:
        assert any(v.size >= RUN_CAP for v in want.blocks().values())


@pytest.mark.parametrize("init", [
    lambda spec, r, scale: layers.init_equivariant(spec, 2, r, scale),
    lambda spec, r, scale: layers.init_invariant(spec, 2, 3, r, scale),
], ids=["equivariant", "invariant"])
@pytest.mark.parametrize("scale", [-1.0, -1e-300, math.nan, math.inf, -math.inf, 1e308])
def test_init_rejects_a_scale_it_cannot_draw_from(init, scale):
    # uniform(-a, a) is drawn as -a + (a + a) u: a negative scale would draw
    # silently, and a scale whose double overflows would give inf and NaN.
    with pytest.raises(ValidationError, match="scale must be >= 0"):
        init(WeightSpec(3, (2, 3, 2, 2), 2), Rng(48), scale)
