import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from magep.dense import Rng, rel_residual
from magep.errors import DimensionError, ValidationError
from magep.monomial import (
    VARIANTS,
    GroupElement,
    MonomialElement,
    act,
    act_layers,
    compose,
    identity,
    identity_monomial,
    invert,
    sample,
    sample_monomial,
)
from magep.stableterms import _w_chains
from magep.weightspace import Uniform, WeightObject, WeightSpec, random_weights

SPEC = WeightSpec(2, (1, 2, 1), 1)


def _example_object():
    return WeightObject(
        SPEC,
        (np.array([[[1.0], [1.0]]]), np.array([[[1.0, 1.0]]])),
        (np.array([[1.0, 1.0]]), np.array([[0.0]])),
    )


def test_identity_action_is_bit_exact():
    spec = WeightSpec(3, (2, 3, 2, 2), 2)
    U = random_weights(spec, Rng(0), Uniform(-1.0, 1.0), batch=2)
    assert act(identity(spec), U).equal(U)


def test_group_unit_laws():
    spec = WeightSpec(3, (2, 3, 4, 2), 1)
    g = sample(spec, Rng(4))
    e = identity(spec)
    assert compose(e, g).to_json() == g.to_json()
    assert invert(e).is_identity()


def test_scaled_action_hand_example():
    # hidden factor diag(2, 3), identity permutation
    g = GroupElement(
        "positive",
        (
            identity_monomial(1),
            MonomialElement(np.array([2.0, 3.0]), np.arange(2)),
            identity_monomial(1),
        ),
    )
    out = act(g, _example_object())
    assert np.allclose(out.weight(1), [[[2.0], [3.0]]])
    assert np.allclose(out.weight(2), [[[0.5, 1.0 / 3.0]]])
    assert np.allclose(out.bias(1), [[2.0, 3.0]])
    assert np.allclose(out.bias(2), [[0.0]])


def test_permutation_only_action_swaps_rows_and_columns():
    g = GroupElement(
        "positive",
        (
            identity_monomial(1),
            MonomialElement(np.ones(2), np.array([1, 0])),
            identity_monomial(1),
        ),
    )
    U = WeightObject(
        SPEC,
        (np.array([[[1.0], [2.0]]]), np.array([[[3.0, 4.0]]])),
        (np.array([[5.0, 6.0]]), np.array([[7.0]])),
    )
    out = act(g, U)
    assert np.array_equal(out.weight(1), [[[2.0], [1.0]]])
    assert np.array_equal(out.weight(2), [[[4.0, 3.0]]])
    assert np.array_equal(out.bias(1), [[6.0, 5.0]])


def test_permutation_composition_by_hand():
    # pi = (1 2 3 -> 2 3 1), sigma = swap(1, 2); matrices multiply as P_pi P_sigma
    pi = MonomialElement(np.ones(3), np.array([1, 2, 0]))
    sigma = MonomialElement(np.ones(3), np.array([1, 0, 2]))
    got = pi.compose(sigma)
    want = pi.as_matrix() @ sigma.as_matrix()
    assert np.array_equal(got.as_matrix(), want)
    assert np.array_equal(got.perm, pi.perm[sigma.perm])


def test_pure_scaling_composition_is_entrywise_product():
    a = MonomialElement(np.array([2.0, 3.0]), np.arange(2))
    b = MonomialElement(np.array([5.0, 7.0]), np.arange(2))
    got = a.compose(b)
    assert np.array_equal(got.scales, [10.0, 21.0])
    assert np.array_equal(got.perm, np.arange(2))


def test_compose_invert_gives_identity_within_tolerance():
    spec = WeightSpec(4, (3, 4, 2, 3, 1), 1)
    for k in range(20):
        variant = "positive" if k % 2 == 0 else "sign"
        g = sample(spec, Rng(k), variant)
        unit = compose(g, invert(g))
        for m in unit.layers:
            assert np.array_equal(m.perm, np.arange(m.n))
            assert np.max(np.abs(m.scales - 1.0)) <= 1e-14


def test_action_homomorphism():
    spec = WeightSpec(3, (2, 4, 3, 2), 2)
    for k in range(20):
        r = Rng(100 + k)
        U = random_weights(spec, r.child("U"), Uniform(-1.0, 1.0))
        g = sample(spec, r.child("g"))
        h = sample(spec, r.child("h"))
        lhs = act(compose(g, h), U)
        rhs = act(g, act(h, U))
        worst = max(
            rel_residual(a, b) for a, b in zip(lhs.W + lhs.b, rhs.W + rhs.b)
        )
        assert worst <= 1e-12


def test_sample_determinism_and_variants():
    spec = WeightSpec(3, (2, 3, 3, 2), 1)
    a = sample(spec, Rng(8))
    b = sample(spec, Rng(8))
    assert a.to_json() == b.to_json()
    s = sample(spec, Rng(9), "sign")
    for m in s.layers[1:-1]:
        assert set(np.unique(m.scales)) <= {-1.0, 1.0}


def test_sample_degenerate_range_on_width_one_spec_is_identity():
    spec = WeightSpec(2, (1, 1, 1), 1)
    g = sample(spec, Rng(3), scale_range=(1.0, 1.0))
    assert g.is_identity()


def test_sample_rejects_bad_scale_range():
    spec = WeightSpec(2, (1, 2, 1), 1)
    with pytest.raises(ValidationError):
        sample(spec, Rng(0), scale_range=(0.0, 1.0))
    with pytest.raises(ValidationError):
        sample(spec, Rng(0), scale_range=(2.0, 1.0))
    for bad in [(np.nan, 4.0), (0.25, np.inf), (0.25,)]:
        with pytest.raises(ValidationError, match="scale range"):
            sample_monomial(3, Rng(0), scale_range=bad)


@pytest.mark.parametrize("scales", [[np.nan, 1.0], [1.0, np.inf], [0.0, 1.0]])
def test_monomial_scales_must_be_finite_and_non_zero(scales):
    with pytest.raises(ValidationError, match="finite and non-zero"):
        MonomialElement(scales, [0, 1])


def test_boundary_factors_must_be_identities():
    with pytest.raises(ValidationError, match="boundary"):
        GroupElement(
            "positive",
            (
                MonomialElement(np.array([2.0]), np.arange(1)),
                identity_monomial(2),
                identity_monomial(1),
            ),
        )


def test_variant_constraint_enforced():
    with pytest.raises(ValidationError):
        GroupElement(
            "positive",
            (
                identity_monomial(1),
                MonomialElement(np.array([-1.0, 1.0]), np.arange(2)),
                identity_monomial(1),
            ),
        )


def test_structure_mismatch_errors():
    g = sample(WeightSpec(2, (1, 2, 1), 1), Rng(0))
    h = sample(WeightSpec(2, (1, 3, 1), 1), Rng(0))
    with pytest.raises(DimensionError):
        compose(g, h)
    U = random_weights(WeightSpec(2, (2, 2, 2), 1), Rng(1))
    with pytest.raises(DimensionError):
        act(g, U)


def test_general_boundary_action_conjugates_chains():
    # With non-identity boundary factors, chains still transform as
    # g_s . [W]^(s,t) . g_t^{-1}; only the raw layer API permits this.
    spec = WeightSpec(3, (2, 3, 2, 2), 1)
    r = Rng(77)
    U = random_weights(spec, r.child("U"), Uniform(-1.0, 1.0))
    layers_ = tuple(
        sample_monomial(n, r.child("m", i)) for i, n in enumerate(spec.n)
    )
    chains, moved = _w_chains(U), _w_chains(act_layers(layers_, U))
    for s, t in [(3, 0), (2, 0), (3, 1)]:
        got = moved[(s, t)]
        want = layers_[t].apply_cols_inverse(layers_[s].apply_rows(chains[(s, t)]))
        assert rel_residual(got, want) <= 1e-12


def test_serialized_permutations_are_one_based():
    m = MonomialElement(np.ones(3), np.array([2, 0, 1]))
    assert m.to_json()["perm"] == [3, 1, 2]


def _rebuilt(g):
    """``g`` through the public, checking constructors."""
    return GroupElement(g.variant, tuple(MonomialElement(m.scales, m.perm) for m in g.layers))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    variant=st.sampled_from(VARIANTS),
    n=st.lists(st.integers(1, 5), min_size=3, max_size=6),
)
def test_derived_elements_rebuild_through_the_public_constructors(seed, variant, n):
    spec = WeightSpec(len(n) - 1, tuple(n), 1)
    r = Rng(seed)
    g, h = sample(spec, r.child("g"), variant), sample(spec, r.child("h"), variant)
    for x in (g, h, compose(g, h), invert(g), identity(spec, variant)):
        assert x.variant == variant and x.widths() == spec.n
        assert _rebuilt(x).to_json() == x.to_json()
        for m in x.layers:
            assert np.array_equal(m.inv_perm, np.argsort(m.perm))
            for arr in (m.scales, m.perm, m.inv_perm):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = arr[0]


def test_public_constructor_copies_and_freezes_its_arrays():
    scales, perm = np.array([2.0, 3.0, 5.0]), np.array([2, 0, 1])
    m = MonomialElement(scales, perm)
    scales[0], perm[:] = 7.0, [0, 1, 2]
    assert m.scales.tolist() == [2.0, 3.0, 5.0] and m.perm.tolist() == [2, 0, 1]
    for q in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert np.array_equal(q.perm, m.perm) and np.array_equal(q.inv_perm, m.inv_perm)
        with pytest.raises(ValueError, match="read-only"):
            q.perm[0] = 0


def test_compose_and_invert_still_reject_scales_their_arithmetic_overflows():
    def element(scale):
        hidden = MonomialElement(np.array([scale, 1.0]), np.arange(2))
        return GroupElement("positive", (identity_monomial(1), hidden, identity_monomial(1)))

    big = element(1e200)
    with np.errstate(over="ignore", under="ignore"):
        with pytest.raises(ValidationError, match="finite and non-zero"):
            compose(big, big)
        with pytest.raises(ValidationError, match="finite and non-zero"):
            compose(element(1e-200), element(1e-200))
        with pytest.raises(ValidationError, match="finite and non-zero"):
            invert(element(5e-324))
    assert invert(big).layer(1).scales.tolist() == [1e-200, 1.0]


def test_identity_rejects_an_unknown_variant():
    with pytest.raises(ValidationError, match="unknown variant"):
        identity(SPEC, "bogus")
    with pytest.raises(ValidationError, match="unknown variant"):
        sample(SPEC, Rng(0), "bogus")
