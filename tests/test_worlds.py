import json
import re

import pytest

from ragtree.worlds import WorldError, build_world

from conftest import FIXTURES, run_world
from shipped_worlds import generate_fixtures


class TestFixtureFiles:
    def test_twenty_worlds_shipped(self, worlds):
        assert len(worlds) == 20
        kinds = {w.expectations["kind"] for w in worlds.values()}
        assert kinds == {
            "retrieval_gated",
            "no_retrieval",
            "consistency_trap",
            "hallucination_trap",
        }

    def test_script_keys_are_prompt_hashes(self, worlds):
        for world in worlds.values():
            for key in world.lm_script:
                assert len(key) == 16
                assert int(key, 16) >= 0

    def test_regeneration_matches_shipped_files(self, tmp_path):
        written = generate_fixtures(tmp_path)
        assert sorted(p.name for p in written) == sorted(p.name for p in FIXTURES.glob("*.json"))
        for path in written:
            assert path.read_bytes() == (FIXTURES / path.name).read_bytes(), path.name

    def test_build_world_rejects_missing_fields(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x"}', encoding="utf-8")
        with pytest.raises(WorldError, match="question"):
            build_world(path)

    @pytest.mark.parametrize(
        "text, message",
        [("{", "invalid JSON"), ("[]", "expected a JSON object")],
        ids=["truncated", "array"],
    )
    def test_build_world_rejects_bad_json(self, tmp_path, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(WorldError, match=message):
            build_world(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("lm_script", {"0123456789abcdef": [["t"]]}),
            ("lm_script", {"0123456789abcdef": [["t", "likely"]]}),
            ("lm_script", ["t", -0.1]),
            ("lm_script", {"0123456789abcdef": []}),
            ("lm_script", {"0123456789abcdef": [["t", float("nan")]]}),
            ("lm_script", {"0123456789abcdef": ["t1"]}),
            ("lm_script", {"0123456789abcdef": [[None, "-0.5"]]}),
            ("lm_script", {"0123456789abcdef": [[7, -0.5]]}),
            ("lm_script", {"0123456789abcdef": [["t", "-0.5"]]}),
            ("lm_script", {"0123456789abcdef": [["t", True]]}),
            ("lm_script", {"0123456789abcdef": [["t", 10**400]]}),
            ("retriever_script", {"query": [["doc-1"]]}),
            ("retriever_script", {"query": ["ab"]}),
            ("config_overrides", {"rollouts": 0}),
            ("config_overrides", {"no_such_setting": 1}),
            ("config_overrides", {"rollouts": True}),
            ("config_overrides", {"rollouts": 2.5}),
            ("config_overrides", {"k_completions": 2.0}),
            ("config_overrides", {"max_depth": 2.5}),
            ("config_overrides", {"seed": "x"}),
            ("config_overrides", {"parallel_expansion": "no"}),
            ("config_overrides", {"c_uct": True}),
            ("config_overrides", {"tau_prune": "0.5"}),
            ("config_overrides", {"c_uct": 10**400}),
            ("name", 5),
            ("question", 7),
            ("gold", 42),
            ("question", ""),
            ("gold", ""),
            ("gold", "The"),
            ("gold", "an ."),
        ],
        ids=["lm-entry-short", "lm-loglik-text", "lm-list", "lm-entry-empty", "lm-loglik-nan",
             "lm-entry-string", "lm-text-null", "lm-text-number", "lm-loglik-numeric-string",
             "lm-loglik-bool", "lm-loglik-huge-int", "retriever-entry-short", "retriever-entry-string",
             "config-invalid", "config-unknown", "config-rollouts-bool", "config-rollouts-float",
             "config-k-float", "config-depth-float", "config-seed-string", "config-parallel-string",
             "config-c-uct-bool", "config-tau-string", "config-c-uct-huge-int", "name-number", "question-number",
             "gold-number", "question-empty", "gold-empty", "gold-article", "gold-articles-only"],
    )
    def test_build_world_names_malformed_field(self, tmp_path, field, value):
        data = {"name": "w", "question": "Q?", "gold": "x", "lm_script": {},
                "retriever_script": {}, field: value}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(WorldError, match=rf"^{re.escape(str(path))}: malformed '{field}': "):
            build_world(path)


class TestWorldExpectations:
    def winning_terminal(self, result):
        best_answer = result.answer
        nodes = {n["id"]: n for n in result.trace["nodes"]}
        for node in result.trace["nodes"]:
            summary = node["state_summary"]
            if node["terminal"] and not node["pruned"] and summary.endswith(
                f"answered={best_answer}"
            ):
                return node, nodes
        raise AssertionError("no terminal node carries the winning answer")

    def test_retrieval_gated_worlds_win_through_retrieval(self, worlds):
        for name, world in worlds.items():
            if world.expectations.get("kind") != "retrieval_gated":
                continue
            backends = world.backends()
            from ragtree.orchestrator import run_search

            result = run_search(world.question, world.config(), backends)
            assert result.answer == world.gold, name
            assert backends.retriever.calls >= world.expectations["min_retriever_calls"]
            node, nodes = self.winning_terminal(result)
            path_actions = set()
            while node["parent"] is not None:
                path_actions.add(node["action"])
                node = nodes[node["parent"]]
            assert path_actions & set(world.expectations["winning_action_in"]), name

    def test_no_retrieval_worlds_never_call_retriever(self, worlds):
        for name, world in worlds.items():
            if world.expectations.get("kind") != "no_retrieval":
                continue
            backends = world.backends()
            from ragtree.orchestrator import run_search

            result = run_search(world.question, world.config(), backends)
            assert result.answer == world.gold, name
            assert backends.retriever.calls == world.expectations["retriever_calls"]

    def test_consistency_traps_prune(self, worlds):
        for name, world in worlds.items():
            if world.expectations.get("kind") != "consistency_trap":
                continue
            result = run_world(world)
            pruned = sum(1 for n in result.trace["nodes"] if n["pruned"])
            assert pruned >= world.expectations["min_pruned"], name
            assert result.answer == world.gold, name

    def test_hallucination_traps_resist_mirage(self, worlds):
        for name, world in worlds.items():
            if world.expectations.get("kind") != "hallucination_trap":
                continue
            result = run_world(world)
            assert result.answer == world.gold, name
            assert result.answer != world.expectations["mirage"], name
            # The mirage may appear in voting but must not win.
            mirage_scores = [
                s for a, s in result.scored_answers if a == world.expectations["mirage"]
            ]
            gold_score = next(s for a, s in result.scored_answers if a == world.gold)
            for mirage_score in mirage_scores:
                assert gold_score > mirage_score, name


class TestWorldClosure:
    """Shipped scripts must cover every prompt the acceptance suite reaches."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {"rollouts": 4},
            {"rollouts": 8},
            {"rollouts": 16},
            {"rollouts": 16, "parallel_expansion": False},
            {"rollouts": 16, "disabled_actions": ["A4", "A5"]},
        ],
        ids=["r4", "r8", "r16", "r16-seq", "r16-ablated"],
    )
    def test_closed_under_acceptance_configs(self, worlds, overrides):
        for name, world in worlds.items():
            run_world(world, **dict(overrides))  # raises UnknownPromptError on a gap
