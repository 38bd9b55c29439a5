"""One-step operators: worked examples, algebraic laws and oracle equivalence.

The operators work on bitmasks; the tests convert names with ``g.mask``,
``g.action_mask`` and ``g.unmask``, and action masks back with :func:`acts`.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from congame.operators import (
    a_set_mask,
    afpre1_mask,
    afpre_fix_mask,
    apre1_mask,
    apre2_mask,
    b_set_mask,
    pre1_mask,
    pre2_mask,
)

from .conftest import games_with_subset
from .oracles import oracle_afpre1, oracle_apre1, oracle_apre2, oracle_pre1, oracle_pre2


def acts(actions, m):
    """The actions whose bits are set in the action mask `m`."""
    return frozenset(a for i, a in enumerate(actions) if m >> i & 1)


def oracle_a_set(g, v, Y, gamma2):
    y, excused = frozenset(Y), frozenset(gamma2)
    return frozenset(
        a for a in g.p1_actions(v)
        if all(g.succ(v, a, b) in y
               for b in g.p2_actions(v) if b not in excused))


def oracle_b_set(g, v, X, gamma1):
    x, allowed = frozenset(X), frozenset(gamma1)
    return frozenset(
        b for b in g.p2_actions(v)
        if any(g.succ(v, a, b) in x for a in allowed))


@st.composite
def games_with_p1_supports(draw, n_subsets: int):
    """An arena, a nonempty P1 support per state, and `n_subsets` state subsets."""
    g, *subsets = draw(games_with_subset(n_subsets=n_subsets))
    gamma1 = {v: frozenset(draw(st.sets(st.sampled_from(g.p1_actions(v)), min_size=1)))
              for v in g.states}
    return (g, gamma1, *subsets)


class TestActionSets:
    def test_a_set_examples(self, buchi_game, cobuchi_game):
        g = buchi_game
        assert acts(g.p1_actions("A"), a_set_mask(g, g.index("A"), g.mask(["C"]), 0)) == {"a"}
        g = cobuchi_game
        vi, y = g.index("S2"), g.mask(["S0", "S1"])
        assert a_set_mask(g, vi, y, 0) == 0
        excused = g.action_mask("S2", ["e", "f"], player=2)
        assert acts(g.p1_actions("S2"), a_set_mask(g, vi, y, excused)) == {"a", "y"}

    def test_b_set_examples(self, buchi_game, cobuchi_game):
        g = buchi_game
        m = b_set_mask(g, g.index("B"), g.mask(["C"]), g.action_mask("B", ["a"]))
        assert acts(g.p2_actions("B"), m) == {"a", "b"}
        g = cobuchi_game
        vi, x = g.index("S2"), g.mask(["S0", "S1"])
        m = b_set_mask(g, vi, x, g.action_mask("S2", ["a", "y"]))
        assert acts(g.p2_actions("S2"), m) == {"d"}
        assert b_set_mask(g, vi, x, 0) == 0

    @given(games_with_subset(n_subsets=1))
    def test_a_set_matches_oracle(self, gs):
        g, y = gs
        for v in g.states:
            for k in range(len(g.p2_actions(v)) + 1):
                gamma2 = g.p2_actions(v)[:k]
                m = a_set_mask(g, g.index(v), g.mask(y), g.action_mask(v, gamma2, player=2))
                assert acts(g.p1_actions(v), m) == oracle_a_set(g, v, y, gamma2)

    @given(games_with_subset(n_subsets=1))
    def test_b_set_matches_oracle(self, gs):
        g, x = gs
        for v in g.states:
            for k in range(len(g.p1_actions(v)) + 1):
                gamma1 = g.p1_actions(v)[:k]
                m = b_set_mask(g, g.index(v), g.mask(x), g.action_mask(v, gamma1))
                assert acts(g.p2_actions(v), m) == oracle_b_set(g, v, x, gamma1)


class TestPredecessors:
    def test_pre1_examples(self, buchi_game, safety_game):
        g = buchi_game
        assert g.unmask(pre1_mask(g, g.mask(["C"]))) == {"A", "B", "C"}
        assert g.unmask(pre1_mask(g, g.mask(["A"]))) == {"B"}
        assert pre1_mask(g, 0) == 0
        g = safety_game
        assert g.unmask(pre1_mask(g, g.mask(["g"]))) == {"g"}

    def test_apre1_examples(self, buchi_game, safety_game):
        g = buchi_game
        c = g.mask(["C"])
        assert g.unmask(apre1_mask(g, g.full_mask, c)) == {"A", "B", "C"}
        assert g.unmask(apre1_mask(g, c, c)) == {"A", "B", "C"}
        g = safety_game
        assert g.unmask(apre1_mask(g, g.mask(["g", "t"]), g.mask(["t"]))) == {"g", "t"}
        assert g.unmask(apre1_mask(g, g.mask(["g"]), g.mask(["g"]))) == {"g"}

    @given(games_with_subset(n_subsets=1))
    def test_pre1_matches_oracle(self, gs):
        g, x = gs
        assert g.unmask(pre1_mask(g, g.mask(x))) == oracle_pre1(g, x)

    @given(games_with_subset(n_subsets=2))
    def test_apre1_matches_oracle(self, gs):
        g, y, x = gs
        assert g.unmask(apre1_mask(g, g.mask(y), g.mask(x))) == oracle_apre1(g, y, x)

    @given(games_with_subset(n_subsets=1))
    def test_pre1_equals_apre1_diagonal(self, gs):
        g, x = gs
        x = g.mask(x)
        assert pre1_mask(g, x) == apre1_mask(g, x, x)

    @given(games_with_subset(n_subsets=2))
    def test_apre1_within_pre1_of_y(self, gs):
        g, y, x = gs
        y, x = g.mask(y), g.mask(x)
        assert apre1_mask(g, y, x) & ~pre1_mask(g, y) == 0

    @given(games_with_subset(n_subsets=2))
    def test_pre1_monotone(self, gs):
        g, x, x2 = gs
        x, x2 = g.mask(x), g.mask(x2)
        assert pre1_mask(g, x & x2) & ~pre1_mask(g, x) == 0


class TestOpponentPredecessors:
    """The P2-side operators against a fixed P1 support per state."""

    @given(games_with_p1_supports(n_subsets=1))
    def test_pre2_matches_oracle(self, gs):
        g, gamma1, y = gs
        masks = [g.action_mask(v, gamma1[v]) for v in g.states]
        assert g.unmask(pre2_mask(g, masks, g.mask(y))) == oracle_pre2(g, gamma1, y)

    @given(games_with_p1_supports(n_subsets=2))
    def test_apre2_matches_oracle(self, gs):
        g, gamma1, y, x = gs
        masks = [g.action_mask(v, gamma1[v]) for v in g.states]
        assert g.unmask(apre2_mask(g, masks, g.mask(y), g.mask(x))) \
            == oracle_apre2(g, gamma1, y, x)


class TestAfpre:
    def test_fixpoint_example(self, cobuchi_game):
        g = cobuchi_game
        x1 = g.mask({"S0", "S1", "S2", "S3"})
        fix = afpre_fix_mask(g, g.index("S2"), g.full_mask, x1, x1)
        assert acts(g.p1_actions("S2"), fix) == {"a", "b", "x", "y"}

    def test_fixpoint_stays_in_z(self, cobuchi_game):
        g = cobuchi_game
        z = frozenset({"S0", "S1", "S2", "S3"})
        fix = afpre_fix_mask(g, g.index("S2"), g.mask(z), g.mask(z), g.mask({"S0", "S1"}))
        for a in acts(g.p1_actions("S2"), fix):
            for b in g.p2_actions("S2"):
                assert g.succ("S2", a, b) in z

    def test_empty_z_kills_everything(self, buchi_game):
        g = buchi_game
        assert afpre1_mask(g, 0, g.full_mask, g.full_mask) == 0
        c = g.mask(["C"])
        assert afpre_fix_mask(g, g.index("A"), 0, c, c) == 0

    def test_full_arguments_allow_everything(self, buchi_game):
        v = buchi_game.full_mask
        assert afpre1_mask(buchi_game, v, v, v) == v

    @given(games_with_subset(n_subsets=3))
    def test_afpre1_matches_oracle(self, gs):
        g, z, y, x = gs
        assert g.unmask(afpre1_mask(g, g.mask(z), g.mask(y), g.mask(x))) \
            == oracle_afpre1(g, z, y, x)

    @given(games_with_subset(n_subsets=3))
    def test_afpre1_monotone_in_x(self, gs):
        g, z, y, x = gs
        z, y, x = g.mask(z), g.mask(y), g.mask(x)
        assert afpre1_mask(g, z, y, x & y) & ~afpre1_mask(g, z, y, x) == 0

    @given(games_with_subset(n_subsets=3))
    def test_fixpoint_subset_of_stay_actions(self, gs):
        g, z, y, x = gs
        z, y, x = g.mask(z), g.mask(y), g.mask(x)
        for vi in range(g.n_states):
            assert afpre_fix_mask(g, vi, z, y, x) & ~a_set_mask(g, vi, z, 0) == 0
