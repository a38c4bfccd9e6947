import math
import random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ragtree.generation import Completion, equivalent
from ragtree.reward import cluster_completions, compute_reward


def comp(answer, ll=0.0):
    return Completion(text=f"The answer is: {answer}.", answer=answer, log_likelihood=ll)


def brute_force_partition(answers):
    """Oracle: greedy first-match clustering re-derived by index scanning."""
    groups = []
    for i, answer in enumerate(answers):
        for group in groups:
            if equivalent(answer, answers[group[0]]):
                group.append(i)
                break
        else:
            groups.append([i])
    return [tuple(g) for g in groups]


class TestClustering:
    def test_exact_partition(self):
        batch = [comp("42"), comp("Paris"), comp("42.0"), comp("paris!")]
        clusters = cluster_completions(batch)
        assert clusters == [[0, 2], [1, 3]]
        assert batch[clusters[0][0]].answer == "42"
        assert sum(map(len, clusters)) == 4

    def test_singletons(self):
        clusters = cluster_completions([comp("a"), comp("b"), comp("c")])
        assert len(clusters) == 3

    @given(
        st.lists(
            st.sampled_from(["42", "42.0", "paris", "Paris!", "rome", "7"]),
            min_size=1,
            max_size=10,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force_oracle(self, answers):
        clusters = cluster_completions([comp(a) for a in answers])
        assert [tuple(c) for c in clusters] == brute_force_partition(answers)

    @given(
        st.lists(
            st.sampled_from(["42", "42.0", "paris", "Paris!", "rome"]),
            min_size=1,
            max_size=10,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_is_a_partition(self, answers):
        clusters = cluster_completions([comp(a) for a in answers])
        seen = sorted(i for c in clusters for i in c)
        assert seen == list(range(len(answers)))


class TestComputeReward:
    def test_known_example(self):
        # 3-of-4 majority with log-likelihoods -1, -2, -3 -> conf 0.75, raw -2
        batch = [comp("x", -1.0), comp("x", -2.0), comp("x", -3.0), comp("y", -0.1)]
        reward = compute_reward(cluster_completions(batch), batch)
        assert reward.majority == (0, 1, 2)
        assert reward.confidence == pytest.approx(0.75, abs=1e-12)
        assert reward.raw_reward == pytest.approx(-2.0, abs=1e-12)
        with mpmath.workdps(50):
            want = float(mpmath.mpf("0.75") * mpmath.exp(-2))
        assert reward.positive_reward == pytest.approx(want, rel=1e-12)

    def test_unanimous_zero_ll(self):
        batch = [comp("x", 0.0)] * 4
        reward = compute_reward(cluster_completions(batch), batch)
        assert reward.confidence == 1.0
        assert reward.raw_reward == 0.0
        assert reward.positive_reward == 1.0

    def test_positive_raw_is_clamped_in_positive_reward(self):
        batch = [comp("x", 2.0), comp("x", 2.0)]
        reward = compute_reward(cluster_completions(batch), batch)
        assert reward.raw_reward == 2.0
        assert reward.positive_reward == 1.0  # conf 1.0 * exp(min(2, 0))

    def test_log_positive_reward_stays_finite_where_positive_underflows(self):
        # exp(-800) is 0.0 in floats; its logarithm is kept exactly.
        batch = [comp("x", -800.0), comp("x", -800.0), comp("y", -1.0), comp("z", -1.0)]
        reward = compute_reward(cluster_completions(batch), batch)
        assert reward.positive_reward == 0.0
        assert reward.log_positive_reward == math.log(0.5) - 800.0

    def test_tie_keeps_earliest_founded(self):
        batch = [comp("a", -1.0), comp("b", -0.1), comp("a", -1.0), comp("b", -0.1)]
        reward = compute_reward(cluster_completions(batch), batch)
        assert reward.majority == (0, 2)

    def test_singleton_batch(self):
        batch = [comp("only", -0.5)]
        reward = compute_reward(cluster_completions(batch), batch)
        assert reward.confidence == 1.0
        assert reward.raw_reward == -0.5

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c"]),
                st.floats(-10, 1, allow_nan=False, allow_infinity=False),
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_invariants(self, items):
        batch = [comp(a, ll) for a, ll in items]
        clusters = cluster_completions(batch)
        reward = compute_reward(clusters, batch)
        k = len(batch)
        # confidence is n*/K for integer n*, and n* is the max cluster size
        n_star = max(len(c) for c in clusters)
        assert reward.confidence == pytest.approx(n_star / k)
        assert 0.0 < reward.positive_reward <= 1.0
        assert reward.log_positive_reward == pytest.approx(math.log(reward.positive_reward))
        # raw reward is the mean over the majority cluster, independently summed
        majority = next(c for c in clusters if len(c) == n_star)
        assert reward.majority == tuple(majority)
        want_raw = sum(batch[i].log_likelihood for i in majority) / n_star
        assert reward.raw_reward == pytest.approx(want_raw, rel=1e-12, abs=1e-12)

    def test_confidence_monotone_in_majority_size(self):
        rewards = []
        for n_agree in (1, 2, 3, 4):
            batch = [comp("x", -1.0)] * n_agree + [comp(f"w{i}", -1.0) for i in range(4 - n_agree)]
            rewards.append((batch, compute_reward(cluster_completions(batch), batch)))
        confs = [r.confidence for batch, r in rewards if batch[r.majority[0]].answer == "x"]
        assert confs == sorted(confs)

    def test_permutation_changes_nothing_but_representative_ties(self):
        rng = random.Random(5)
        batch = [comp("x", -1.0), comp("x", -3.0), comp("y", -0.5), comp("x", -2.0)]
        base = compute_reward(cluster_completions(batch), batch)
        for _ in range(20):
            shuffled = batch[:]
            rng.shuffle(shuffled)
            reward = compute_reward(cluster_completions(shuffled), shuffled)
            assert reward.confidence == base.confidence
            assert reward.raw_reward == pytest.approx(base.raw_reward)
            # unique majority survives shuffling
            assert shuffled[reward.majority[0]].answer == "x"

