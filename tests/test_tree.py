import math
import random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ragtree.actions import ActionKind, ReasoningState
from ragtree.tree import RealizedAction, SearchTree, uct_score


def make_tree():
    return SearchTree(ReasoningState(question="q?"))


def realized(action, raw=0.0, question="q?"):
    return RealizedAction(action=action, state=ReasoningState(question=question), raw_reward=raw)


def mp_uct(q, n, big_n, c):
    with mpmath.workdps(50):
        return float(
            mpmath.mpf(q) / n + mpmath.mpf(c) * mpmath.sqrt(mpmath.log(big_n) / n)
        )


class TestUctScore:
    def test_zero_visits_zero_mean(self):
        assert uct_score(0.0, 1, 1, 1.0) == 0.0

    def test_known_value(self):
        assert uct_score(2.0, 2, 8, 1.4) == pytest.approx(2.4275, abs=1e-4)

    def test_no_exploration_is_mean(self):
        assert uct_score(-3.0, 3, 3, 0.0) == -1.0

    def test_matches_high_precision_reference(self):
        rng = random.Random(7)
        for _ in range(1000):
            q = rng.uniform(-10, 10)
            n = rng.randint(1, 100)
            big_n = rng.randint(n, 1000)
            c = rng.uniform(0, 3)
            got = uct_score(q, n, big_n, c)
            want = mp_uct(q, n, big_n, c)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestSelectChild:
    def expanded(self, stats, parent_visits):
        tree = make_tree()
        children = tree.expand(tree.root, [realized(a) for a, _ in zip(ActionKind, stats)])
        # select_child relies on this: no child is ever unvisited.
        assert all(c.visit_count == 1 for c in children)
        tree.root.visit_count = parent_visits
        tree.root.q_value = 0.0
        for child_id, (q, n) in zip(tree.root.children, stats):
            child = tree.node(child_id)
            child.q_value, child.visit_count = q, n
        return tree

    def test_uct_argmax(self):
        tree = self.expanded([(2.0, 2), (1.0, 1)], parent_visits=8)
        # scores: 2.4275 vs 1 + 1.4*sqrt(ln 8) = 3.019 -> second child wins
        assert tree.select_child(tree.root, 1.4).id == 2

    def test_tie_breaks_to_lowest_id(self):
        tree = self.expanded([(1.0, 1), (1.0, 1)], parent_visits=4)
        assert tree.select_child(tree.root, 1.4).id == 1

    def test_matches_exhaustive_argmax_on_random_trees(self):
        rng = random.Random(11)
        for _ in range(200):
            n_children = rng.randint(1, 6)
            stats = [(rng.uniform(-5, 5), rng.randint(1, 20)) for _ in range(n_children)]
            parent_visits = max(1, sum(n for _, n in stats))
            c = rng.uniform(0, 2)
            tree = self.expanded(stats, parent_visits)
            got = tree.select_child(tree.root, c).id
            scores = [
                (uct_score(q, n, parent_visits, c), -cid)
                for cid, (q, n) in zip(tree.root.children, stats)
            ]
            best = max(scores)
            want = -best[1]
            assert got == want

    def test_chosen_score_is_uct_score_bit_for_bit(self):
        # Each tree has a rival child whose score sits within two ulps of
        # another child's (often equal), so the choice depends on the last
        # bit of every score: evaluating uct_score's expression in any other
        # order picks a different child on some of these trees.
        rng = random.Random(23)
        for _ in range(2000):
            n_children = rng.randint(2, 6)
            stats = [[rng.uniform(-5, 5), rng.randint(1, 50)] for _ in range(n_children)]
            parent_visits = sum(n for _, n in stats) + rng.randint(0, 50)
            c = rng.choice([0.0, rng.uniform(0, 3)])
            i, j = rng.sample(range(n_children), 2)
            target = uct_score(stats[i][0], stats[i][1], parent_visits, c)
            n_j = stats[j][1]
            q_j = (target - c * math.sqrt(math.log(parent_visits) / n_j)) * n_j
            direction = rng.choice([-math.inf, math.inf])
            for _ in range(rng.randint(0, 2)):
                q_j = math.nextafter(q_j, direction)
            stats[j][0] = q_j
            tree = self.expanded([tuple(s) for s in stats], parent_visits)
            chosen = tree.select_child(tree.root, c)
            scores = [uct_score(q, n, parent_visits, c) for q, n in stats]
            best = max(scores)
            assert uct_score(chosen.q_value, chosen.visit_count, parent_visits, c) == best
            assert chosen.id == tree.root.children[scores.index(best)]

    @given(
        stats=st.lists(
            st.tuples(
                st.floats(-5, 5, allow_nan=False), st.integers(min_value=1, max_value=20)
            ),
            min_size=1,
            max_size=6,
        ),
        k=st.floats(-10, 10, allow_nan=False),
        c=st.floats(0, 2, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_argmax_invariant_under_mean_shift(self, stats, k, c):
        parent_visits = max(1, sum(n for _, n in stats))
        base = [uct_score(q, n, parent_visits, c) for q, n in stats]
        shifted = [uct_score(q + k * n, n, parent_visits, c) for q, n in stats]
        gap = sorted(base, reverse=True)
        if len(gap) > 1 and gap[0] - gap[1] < 1e-9 * (1 + abs(k)):
            return  # near-tie: float noise may legitimately flip the argmax
        assert base.index(max(base)) == shifted.index(max(shifted))


class TestBackpropagate:
    def test_single_node(self):
        tree = make_tree()
        tree.backpropagate(0, 0.5)
        assert tree.root.q_value == 0.5
        assert tree.root.visit_count == 1

    def test_path_locality(self):
        tree = make_tree()
        tree.expand(tree.root, [realized(ActionKind.DIRECT_ANSWER), realized(ActionKind.QUICK_REASONING)])
        tree.expand(tree.node(2), [realized(ActionKind.DIRECT_ANSWER)])
        tree.expand(tree.node(3), [realized(ActionKind.DIRECT_ANSWER)])
        before_sibling = (tree.node(1).q_value, tree.node(1).visit_count)
        snapshot = {n.id: (n.q_value, n.visit_count) for n in tree.nodes}
        tree.backpropagate(4, -1.2)
        for nid in (4, 3, 2, 0):
            q, n = snapshot[nid]
            assert tree.node(nid).q_value == pytest.approx(q - 1.2)
            assert tree.node(nid).visit_count == n + 1
        assert (tree.node(1).q_value, tree.node(1).visit_count) == before_sibling

    def test_additivity(self):
        tree = make_tree()
        tree.expand(tree.root, [realized(ActionKind.DIRECT_ANSWER)])
        tree.backpropagate(1, 0.3)
        tree.backpropagate(1, 0.7)
        leaf = tree.node(1)
        assert leaf.q_value == pytest.approx(1.0)
        assert leaf.visit_count == 3  # creation backprop plus two more


class TestExpand:
    def test_creates_children_in_order(self):
        tree = make_tree()
        acts = [ActionKind.DIRECT_ANSWER, ActionKind.QUICK_REASONING, ActionKind.DECOMPOSE_QUESTION]
        children = tree.expand(tree.root, [realized(a, raw=0.1) for a in acts])
        assert [c.incoming_action for c in children] == acts
        assert all(c.depth == 1 for c in children)
        assert all(c.visit_count == 1 for c in children)
        assert all(c.q_value == pytest.approx(0.1) for c in children)

    def test_conservation_identity(self):
        # visit(v) == 1 + sum(child visits) whenever every backprop
        # originates at or below v's children.
        rng = random.Random(3)
        tree = make_tree()
        frontier = [tree.root]
        for _ in range(20):
            node = rng.choice([n for n in frontier if not n.children])
            n_children = rng.randint(1, 3)
            children = tree.expand(
                node, [realized(ActionKind.QUICK_REASONING, raw=rng.random()) for _ in range(n_children)]
            )
            frontier.extend(children)
        for node in tree.nodes:
            if node.children:
                total = sum(tree.node(c).visit_count for c in node.children)
                expected = total + (1 if node.parent is not None else 0)
                assert node.visit_count == expected

    def test_counts_open_leaves(self):
        # Open: neither terminal nor expanded. The root starts open. After
        # 20 random expansions, terminal-only ones close the tree.
        rng = random.Random(5)
        tree = make_tree()
        assert tree.open_leaves == 1
        for step in range(1000):
            open_nodes = [n for n in tree.nodes if not n.terminal and not n.children]
            assert tree.open_leaves == len(open_nodes)
            if not open_nodes:
                break
            items = [
                RealizedAction(
                    action=ActionKind.QUICK_REASONING,
                    state=ReasoningState(question="q?"),
                    raw_reward=0.0,
                    terminal=step >= 20 or rng.random() < 0.3,
                )
                for _ in range(rng.randint(1, 3))
            ]
            tree.expand(rng.choice(open_nodes), items)
        assert step > 20 and tree.open_leaves == 0
