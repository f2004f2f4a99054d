"""`split_branches` cuts each maximal cone by the differences of its own
branches only.  The properties here check that this refinement is a
complete fan on which every sorted branch is linear, and that the chain
and the Riemann-Roch left side it gives equal those of the global route
it replaced, `conftest.global_split_branches`, which cuts every maximal
cone by the branch differences of every maximal cone."""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tropehrhart import hrr
from tropehrhart.chains import (
    ConvexChain,
    _brianchon_gram_terms,
    box_values,
    split_branches,
    support_function_chain,
)
from tropehrhart.lattice import Fan, is_complete, is_refinement
from tropehrhart.matroid import uniform_matroid

from conftest import (
    CHARACTER_FANS,
    global_split_branches,
    p1_power_fan,
    projective_fan,
    random_bundle,
)

SMOOTH_FANS = {name: f for name, f in CHARACTER_FANS.items() if f.is_smooth()}
FOUR_D_FANS = {"P4": projective_fan(4), "P1^4": p1_power_fan(4)}
SETTINGS = dict(deadline=None, derandomize=True)


def _todd_sum_on(h, fan_r, branch_numbers):
    """The sum of `todd_lhs` taken on a given refinement of h's fan."""
    cones = hrr._simplicial_cones(fan_r)
    lams = hrr._pulled_back(cones, hrr._extension_forms(h.fan, fan_r.rays))
    return hrr._todd_sum(cones, lams, [sn.values for sn in branch_numbers],
                         h.fan.ambient_dim)


def _check_against_the_global_route(bundle):
    h = bundle.support_function()
    fan_r, branch_numbers = split_branches(h)

    checked = Fan(fan_r.rays, fan_r.maximal_keys, fan_r.ambient_dim)
    assert checked.cone_keys == fan_r.cone_keys
    assert is_complete(checked)
    assert is_refinement(checked, h.fan)
    for key in fan_r.maximal_keys:
        for sn in branch_numbers:
            values = [sn.values[i] for i in sorted(key)]
            assert fan_r.solve_on(key, values) is not None

    global_fan, global_numbers = global_split_branches(h)
    # the global cuts include each cone's own, so they refine this fan
    assert is_refinement(global_fan, fan_r)
    oracle = ConvexChain(
        [t for sn in global_numbers for t in _brianchon_gram_terms(sn)]
    )
    box = bundle.chi_box()
    for (offsets, got), (_, want) in zip(
        box_values(support_function_chain(h), box), box_values(oracle, box)
    ):
        assert np.array_equal(got, want), offsets
    assert hrr.todd_lhs(h) == _todd_sum_on(h, global_fan, global_numbers)


@settings(max_examples=80, **SETTINGS)
@given(
    name=st.sampled_from(sorted(SMOOTH_FANS)),
    rm=st.sampled_from([(2, 3), (2, 4), (3, 5)]),
    seed=st.integers(0, 10**6),
)
def test_own_branch_refinement_equals_the_global_route(name, rm, seed):
    bundle = random_bundle(SMOOTH_FANS[name], uniform_matroid(*rm),
                           random.Random(seed))
    _check_against_the_global_route(bundle)


# the global route refines a U(3,5) draw on (P^1)^4 to over a thousand rays,
# so the 4-d draws take rank 2
@settings(max_examples=20, **SETTINGS)
@given(
    name=st.sampled_from(sorted(FOUR_D_FANS)),
    rm=st.sampled_from([(2, 3), (2, 4)]),
    seed=st.integers(0, 10**6),
)
def test_own_branch_refinement_equals_the_global_route_in_4d(name, rm, seed):
    bundle = random_bundle(FOUR_D_FANS[name], uniform_matroid(*rm),
                           random.Random(seed))
    _check_against_the_global_route(bundle)
