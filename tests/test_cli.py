import json
import re
import shutil
import subprocess
import sys

import pytest

from ragtree.cli import (
    DatasetError,
    Example,
    _build_lm,
    build_parser,
    grade,
    load_dataset,
    main,
    run_benchmark,
)
from ragtree.config import RunConfig
from ragtree.generation import Completion, GenerationOutcome
from ragtree.orchestrator import NO_ANSWER, Backends, run_search
from ragtree.retrieval import Document, LocalIndex

from conftest import FIXTURES, child_env, run_world


class TestLoadDataset:
    def write(self, tmp_path, lines):
        path = tmp_path / "data.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_loads_examples(self, tmp_path):
        path = self.write(
            tmp_path,
            [
                '{"id": "e1", "question": "Q1?", "gold_answer": "x"}',
                "",
                '{"question": "Q2?", "gold_answer": "b", "choices": [["A", "apple"], ["B", "berry"]]}',
            ],
        )
        examples = load_dataset(path)
        assert [e.id for e in examples] == ["e1", "3"]
        assert examples[1].choices == (("A", "apple"), ("B", "berry"))

    def test_bad_json_names_line(self, tmp_path):
        path = self.write(tmp_path, ['{"question": "Q?", "gold_answer": "x"}', "oops"])
        with pytest.raises(DatasetError, match=r":2:"):
            load_dataset(path)

    def test_missing_field_names_line(self, tmp_path):
        path = self.write(tmp_path, ['{"question": "Q?"}'])
        with pytest.raises(DatasetError, match="gold_answer"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "row, field",
        [
            ({"question": "   ", "gold_answer": "Paris"}, "question"),
            ({"question": "", "gold_answer": "Paris"}, "question"),
            ({"question": "Q?", "gold_answer": "  "}, "gold_answer"),
            ({"question": "Q?", "gold_answer": "\t\n"}, "gold_answer"),
            ({"question": "Q?", "gold_answer": 7}, "gold_answer"),
        ],
        ids=["blank-question", "empty-question", "blank-gold", "whitespace-gold", "int-gold"],
    )
    def test_blank_or_non_string_field_names_line(self, tmp_path, row, field):
        path = self.write(tmp_path, ['{"question": "Q?", "gold_answer": "x"}', json.dumps(row)])
        with pytest.raises(DatasetError, match=rf":2: '{field}' must be a string with a non-blank"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "row",
        [
            {"question": "Q?", "gold_answer": "The"},
            {"question": "Q?", "gold_answer": "a"},
            {"question": "Q?", "gold_answer": "An."},
            {"question": "Q?", "gold_answer": "(?)", "choices": [["A", "apple"], ["?", "berry"]]},
        ],
        ids=["gold-the", "gold-a", "gold-an-dot", "choice-gold-punctuation"],
    )
    def test_gold_that_normalizes_to_empty_names_line(self, tmp_path, row):
        path = self.write(tmp_path, ['{"question": "Q?", "gold_answer": "x"}', json.dumps(row)])
        with pytest.raises(DatasetError, match=r":2: 'gold_answer' .* normalizes to \"\""):
            load_dataset(path)

    def test_article_label_is_a_valid_choice_gold(self, tmp_path):
        row = {"question": "Q?", "gold_answer": "A", "choices": [["A", "apple"], ["B", "berry"]]}
        path = self.write(tmp_path, [json.dumps(row)])
        assert load_dataset(path)[0].gold_answer == "A"

    def test_empty_dataset_rejected(self, tmp_path):
        path = self.write(tmp_path, [""])
        with pytest.raises(DatasetError, match="empty"):
            load_dataset(path)


class TestGrade:
    def test_free_form_equivalence(self):
        example = Example(id="1", question="q", gold_answer="The Eiffel Tower")
        assert grade("eiffel tower.", example)
        assert not grade("louvre", example)

    def test_no_answer_is_wrong(self):
        example = Example(id="1", question="q", gold_answer="x")
        assert not grade(NO_ANSWER, example)

    def test_multiple_choice_label_or_text(self):
        example = Example(
            id="1",
            question="q",
            gold_answer="B",
            choices=(("A", "apple"), ("B", "berry")),
        )
        assert grade("B", example)
        assert grade("berry", example)
        assert not grade("apple", example)
        assert not grade("A", example)

    def test_labels_compare_as_labels(self):
        # Case and punctuation are ignored but articles kept, so label "A"
        # is named by "(a)" and not by "The" or "an", which normalize to "".
        choices = (("A", "apple"), ("B", "berry"))
        gold_a = Example(id="1", question="q", gold_answer="A", choices=choices)
        for named in ("A", "(A)", "a.", " a "):
            assert grade(named, gold_a), named
        for other in ("The", "an", "the", "", "B", "berry"):
            assert not grade(other, gold_a), other
        gold_b = Example(id="1", question="q", gold_answer="B", choices=choices)
        assert grade("(B)", gold_b)
        assert grade("the berry", gold_b)
        assert not grade("The", gold_b)

    def test_a_form_that_normalizes_to_empty_matches_nothing(self):
        assert not grade("a", Example(id="1", question="q", gold_answer="The"))
        assert not grade("", Example(id="1", question="q", gold_answer="The"))
        unlabelled = Example(id="1", question="q", gold_answer="?", choices=(("?", "x"),))
        assert not grade("?", unlabelled)
        assert not grade("x", unlabelled)
        # A gold label with no choice of its own is named only by its label.
        missing = Example(id="1", question="q", gold_answer="C", choices=(("A", "The"),))
        assert grade("(c)", missing)
        assert not grade("an", missing)


class TestRunBenchmark:
    def setup_worlds(self, worlds, names):
        chosen = {n: worlds[n] for n in names}
        examples = [
            Example(id=n, question=w.question, gold_answer=w.gold) for n, w in chosen.items()
        ]
        return examples, chosen

    def test_accuracy_arithmetic(self, worlds, tmp_path):
        names = ["no-retrieval-00", "no-retrieval-01"]
        examples, chosen = self.setup_worlds(worlds, names)
        # Sabotage one gold answer so exactly one example grades correct.
        examples[1] = Example(id=names[1], question=examples[1].question, gold_answer="wrong")
        metrics, records = run_benchmark(
            examples, lambda ex: (RunConfig(), chosen[ex.id].backends()), tmp_path
        )
        assert metrics.accuracy == pytest.approx(0.5)
        assert [r["correct"] for r in records] == [True, False]

    def test_averages_over_two_examples(self, worlds, tmp_path):
        examples, chosen = self.setup_worlds(worlds, ["no-retrieval-00", "retrieval-gated-00"])
        budgets = [run_world(chosen[ex.id]).budget for ex in examples]
        assert budgets[0] != budgets[1]
        metrics, _ = run_benchmark(
            examples, lambda ex: (chosen[ex.id].config(), chosen[ex.id].backends()), tmp_path
        )
        assert (metrics.accuracy, metrics.errors) == (1.0, 0)
        assert metrics.avg_tokens == sum(b.tokens_generated for b in budgets) / 2
        assert metrics.avg_lm_calls == sum(b.lm_calls for b in budgets) / 2
        assert metrics.avg_retriever_calls == sum(b.retriever_calls for b in budgets) / 2

    def test_per_example_isolation(self, worlds, tmp_path):
        examples, chosen = self.setup_worlds(worlds, ["no-retrieval-00"])
        examples.append(Example(id="broken", question="q?", gold_answer="x"))

        def setup(ex):
            if ex.id == "broken":
                raise RuntimeError("boom")
            return RunConfig(), chosen[ex.id].backends()

        metrics, records = run_benchmark(examples, setup, tmp_path)
        assert records[1]["error"] == "boom"
        assert metrics.accuracy == pytest.approx(0.5)

    def test_writes_traces_and_metrics(self, worlds, tmp_path):
        examples, chosen = self.setup_worlds(worlds, ["no-retrieval-00"])
        question = "Quelle ville est traversée par la Limmat ?"
        examples.append(Example(id="limmat", question=question, gold_answer="Zürich"))

        class Zurich:
            def sample(self, prompt, k, seed, tag=""):
                completion = Completion(text="The answer is: Zürich.", answer="Zürich")
                return GenerationOutcome(completions=(completion,) * k, tokens_consumed=k)

        def setup(ex):
            if ex.id == "limmat":
                return RunConfig(rollouts=4), Backends(Zurich())
            return RunConfig(), chosen[ex.id].backends()

        run_benchmark(examples, setup, tmp_path)
        for example in examples:
            text = (tmp_path / f"{example.id}.trace.json").read_text(encoding="utf-8")
            trace = run_search(example.question, *setup(example)).trace
            assert text == json.dumps(trace, sort_keys=True, separators=(",", ":")) + "\n"
            assert text.count("\n") == 1 and text.isascii()
            assert json.loads(text) == trace
        limmat = (tmp_path / "limmat.trace.json").read_text()
        assert '"question":"Quelle ville est travers\\u00e9e par la Limmat ?"' in limmat
        trace = json.loads((tmp_path / "no-retrieval-00.trace.json").read_text())
        assert trace["final"]["answer"] == "harbor-0"
        payload = json.loads((tmp_path / "metrics.json").read_text())
        assert payload["metrics"]["accuracy"] == 1.0
        assert "wall_time" not in json.dumps(payload)


class TestParser:
    def test_help_lists_all_flags(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        text = capsys.readouterr().out
        for flag in (
            "--dataset", "--worlds", "--out-dir", "--rollouts", "--max-depth",
            "--k-completions", "--c-uct", "--top-k", "--tau-prune",
            "--disable-actions", "--seed", "--sequential", "--lm-endpoint",
            "--lm-model", "--lm-scripted", "--corpus", "--retriever-script",
            "--search-endpoint",
        ):
            assert flag in text
        # The source flags pick the retriever; there is no selector flag.
        assert not re.search(r"--retriever(?!-script)", text)

    def test_lm_model_names_the_endpoint_model(self):
        for extra, model in (([], "default"), (["--lm-model", "m"], "m")):
            argv = ["--out-dir", "x", "--lm-endpoint", "http://lm.test/v1", *extra]
            lm = _build_lm(build_parser().parse_args(argv))
            lm._session.close()
            assert lm.model == model

    def test_disable_actions_rejects_a6(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--out-dir", "x", "--disable-actions", "A6"])


class TestMainWorldsMode:
    def test_end_to_end_on_fixtures(self, tmp_path, capsys):
        code = main(["--worlds", str(FIXTURES), "--out-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "accuracy=1.0000" in out
        payload = json.loads((tmp_path / "metrics.json").read_text())
        assert payload["metrics"]["accuracy"] == 1.0
        assert len(payload["examples"]) == 20

    def test_world_overrides_respected_unless_flag_explicit(self, tmp_path):
        # consistency-trap worlds override k_completions to 5; the run must
        # honor that, which shows up as the branch being pruned.
        main(["--worlds", str(FIXTURES), "--out-dir", str(tmp_path)])
        trace = json.loads((tmp_path / "consistency-trap-00.trace.json").read_text())
        assert trace["config"]["k_completions"] == 5
        assert any(n["pruned"] for n in trace["nodes"])
        # An explicit flag wins, in every spelling argparse accepts.
        spellings = (["--k-completions", "3"], ["--k-completions=3"], ["--k-comp", "3"])
        for i, flag in enumerate(spellings):
            out = tmp_path / f"explicit{i}"
            main(["--worlds", str(FIXTURES), "--out-dir", str(out), *flag])
            trace = json.loads((out / "consistency-trap-00.trace.json").read_text())
            assert trace["config"]["k_completions"] == 3, flag
        # An explicit flag wins even when it equals the RunConfig default.
        out = tmp_path / "explicit-default"
        main(["--worlds", str(FIXTURES), "--out-dir", str(out), "--k-completions", "4"])
        trace = json.loads((out / "consistency-trap-00.trace.json").read_text())
        assert trace["config"]["k_completions"] == 4

    def test_deterministic_outputs(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["--worlds", str(FIXTURES), "--out-dir", str(out_a)])
        main(["--worlds", str(FIXTURES), "--out-dir", str(out_b)])
        for path in sorted(out_a.iterdir()):
            assert path.read_bytes() == (out_b / path.name).read_bytes(), path.name

    def test_unwritable_trace_path_exits_2_naming_it(self, tmp_path, capsys):
        worlds_dir = tmp_path / "worlds"
        worlds_dir.mkdir()
        shutil.copy(FIXTURES / "no-retrieval-00.json", worlds_dir)
        blocked = tmp_path / "out" / "no-retrieval-00.trace.json"
        blocked.mkdir(parents=True)  # a directory where the trace file goes
        assert main(["--worlds", str(worlds_dir), "--out-dir", str(tmp_path / "out")]) == 2
        assert f"error: cannot write trace to {blocked}: " in capsys.readouterr().err

    def test_missing_inputs_exit_2(self, tmp_path, capsys):
        assert main(["--out-dir", str(tmp_path)]) == 2
        assert main(["--worlds", str(tmp_path / "nowhere"), "--out-dir", str(tmp_path)]) == 2

    def test_disable_actions_ablates_retrieval(self, tmp_path):
        argv = ["--worlds", str(FIXTURES), "--out-dir", str(tmp_path), "--disable-actions", "A4,A5"]
        assert main(argv) == 0
        traces = sorted(tmp_path.glob("*.trace.json"))
        assert len(traces) == 20
        for path in traces:
            trace = json.loads(path.read_text())
            assert trace["config"]["disabled_actions"] == ["A4", "A5"], path.name
            used = {n["action"] for n in trace["nodes"]}
            assert not used & {"A4", "A5"}, path.name

    def test_disabling_a6_exits_2(self, tmp_path, capsys):
        argv = ["--worlds", str(FIXTURES), "--out-dir", str(tmp_path), "--disable-actions", "A6"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "cannot disable 'A6'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_c_uct_exits_2(self, tmp_path, capsys, value):
        argv = ["--worlds", str(FIXTURES), "--out-dir", str(tmp_path), "--c-uct", value]
        assert main(argv) == 2
        assert "c_uct must be finite" in capsys.readouterr().err

    def test_world_file_is_keyed_by_its_name_not_its_stem(self, tmp_path, capsys):
        worlds_dir = tmp_path / "worlds"
        worlds_dir.mkdir()
        shutil.copy(FIXTURES / "no-retrieval-00.json", worlds_dir / "a.json")
        out_dir = tmp_path / "out"
        assert main(["--worlds", str(worlds_dir), "--out-dir", str(out_dir)]) == 0
        assert "accuracy=1.0000" in capsys.readouterr().out
        assert [p.name for p in out_dir.glob("*.trace.json")] == ["no-retrieval-00.trace.json"]

    def test_two_worlds_of_one_name_exit_2_before_running(self, tmp_path, capsys):
        worlds_dir = tmp_path / "worlds"
        worlds_dir.mkdir()
        for stem in ("a", "b"):
            shutil.copy(FIXTURES / "no-retrieval-00.json", worlds_dir / f"{stem}.json")
        out_dir = tmp_path / "out"
        assert main(["--worlds", str(worlds_dir), "--out-dir", str(out_dir)]) == 2
        assert "duplicate example id 'no-retrieval-00'" in capsys.readouterr().err
        assert not any(out_dir.iterdir())

    def test_malformed_world_file_exits_2(self, tmp_path, capsys):
        worlds_dir = tmp_path / "worlds"
        worlds_dir.mkdir()
        (worlds_dir / "w.json").write_text('{"name": "w"}', encoding="utf-8")
        assert main(["--worlds", str(worlds_dir), "--out-dir", str(tmp_path / "out")]) == 2
        assert "missing field 'question'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, content, where",
        [
            ("--dataset", '{"question": "Q?", "gold_answer": "A", "choices": "AB"}\n', ":1: "),
            ("--dataset", '{"question": "Q?", "gold_answer": "A", "choices": 5}\n', ":1: "),
            ("--dataset", '{"question": "Q?", "gold_answer": "A", "choices": ["AB", "CD"]}\n', ":1: "),
            ("--dataset", '{"question": "Q?", "gold_answer": "A", "choices": {"A)": "Paris"}}\n', ":1: "),
            ("--dataset", '{"question": "Q?", "gold_answer": "A", "choices": [["A"]]}\n', ":1: "),
            ("--dataset", '{"question": "Q?", "gold_answer": "A", "choices": [["A", "x", "y"]]}\n', ":1: "),
            ("--dataset", '{"question": "Q?", "gold_answer": "A", "choices": [["A", 1]]}\n', ":1: "),
            ("--dataset", "[1, 2]\n", ":1: "),
            ("--dataset", '{"id": [1, 2], "question": "Q?", "gold_answer": "A"}\n', ":1: "),
            ("--dataset", '{"id": true, "question": "Q?", "gold_answer": "A"}\n', ":1: "),
            ("--dataset", '{"id": null, "question": "Q?", "gold_answer": "A"}\n', ":1: "),
            ("--dataset", '{"id": 1.5, "question": "Q?", "gold_answer": "A"}\n', ":1: "),
            ("--dataset", '{"question": 5, "gold_answer": "A"}\n', ":1: "),
            ("--dataset", '{"question": ["Q?"], "gold_answer": "A"}\n', ":1: "),
            ("--dataset", '{"question": "Q?", "gold_answer": true}\n', ":1: "),
            ("--dataset", '{"question": "Q?", "gold_answer": 42}\n', ":1: "),
            ("--dataset", '{"question": "Q?", "gold_answer": "The"}\n', ":1: 'gold_answer' "),
            ("--worlds", json.dumps({
                "name": "w", "question": "Q?", "gold": "x",
                "lm_script": {"0123456789abcdef": [["t"]]}, "retriever_script": {},
            }), ": malformed 'lm_script': "),
            ("--worlds", json.dumps({
                "name": "w", "question": "Q?", "gold": "x", "lm_script": {},
                "retriever_script": {}, "config_overrides": {"c_uct": float("nan")},
            }), ": malformed 'config_overrides': c_uct must be finite"),
            ("--worlds", json.dumps({
                "name": "w", "question": "Q?", "gold": 42, "lm_script": {}, "retriever_script": {},
            }), ": malformed 'gold': "),
            ("--worlds", json.dumps({
                "name": "w", "question": "Q?", "gold": "the", "lm_script": {}, "retriever_script": {},
            }), ": malformed 'gold': 'the' normalizes to"),
        ],
        ids=["dataset-choices-string", "dataset-choices-number", "dataset-choices-strings",
             "dataset-choices-object", "dataset-choices-single", "dataset-choices-triple",
             "dataset-choices-number-text", "dataset-row-list", "dataset-id-list",
             "dataset-id-bool", "dataset-id-null", "dataset-id-float", "dataset-question-number",
             "dataset-question-list", "dataset-gold-bool", "dataset-gold-number",
             "dataset-gold-article", "world-lm-entry-short", "world-c-uct-nan",
             "world-gold-number", "world-gold-article"],
    )
    def test_malformed_input_file_exits_2_naming_it(self, tmp_path, capsys, flag, content, where):
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        path = inputs / "bad.json"
        path.write_text(content, encoding="utf-8")
        source = path if flag == "--dataset" else inputs
        assert main([flag, str(source), "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}{where}")


class TestMainDatasetMode:
    def test_scripted_lm_with_local_corpus(self, tmp_path, worlds, capsys):
        # Reuse a shipped world's LM script through the --lm-scripted path.
        world = worlds["no-retrieval-00"]
        dataset = tmp_path / "data.jsonl"
        dataset.write_text(
            json.dumps({"id": "w0", "question": world.question, "gold_answer": world.gold})
            + "\n",
            encoding="utf-8",
        )
        script_path = tmp_path / "script.json"
        script_path.write_text(
            json.dumps({k: [[t, ll] for t, ll in v] for k, v in world.lm_script.items()}),
            encoding="utf-8",
        )
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"doc_id": "d1", "text": "registry"}\n', encoding="utf-8")
        out_dir = tmp_path / "out"
        code = main(
            [
                "--dataset", str(dataset),
                "--out-dir", str(out_dir),
                "--lm-scripted", str(script_path),
                "--corpus", str(corpus),
            ]
        )
        assert code == 0
        assert "accuracy=1.0000" in capsys.readouterr().out

    def test_gated_question_answers_through_corpus(self, tmp_path, worlds, capsys):
        # The world's one document plus documents that share no term with
        # its query "secret codeword of Auria", so the index returns exactly
        # the scripted document and every prompt is a scripted one. Only
        # retrieval answers the question.
        world = worlds["retrieval-gated-00"]
        dataset = tmp_path / "data.jsonl"
        dataset.write_text(
            json.dumps({"id": "g0", "question": world.question, "gold_answer": world.gold})
            + "\n",
            encoding="utf-8",
        )
        script_path = tmp_path / "script.json"
        script_path.write_text(json.dumps(world.lm_script), encoding="utf-8")
        [(query, [(doc_id, text)])] = world.retriever_script.items()
        others = ["Harbour tides run high in spring.", "Grain prices fell at the market."]
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(
            "".join(
                json.dumps({"doc_id": i, "text": t}) + "\n"
                for i, t in [("filler-1", others[0]), (doc_id, text), ("filler-2", others[1])]
            ),
            encoding="utf-8",
        )
        argv = ["--dataset", str(dataset), "--out-dir", str(tmp_path / "out"),
                "--lm-scripted", str(script_path), "--corpus", str(corpus)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "accuracy=1.0000" in out
        assert "avg_retriever_calls=1.0" in out
        assert LocalIndex.from_jsonl(corpus).search(query, 10) == [Document(doc_id, text)]

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"doc_id": null, "text": null}', "doc_id must be a string or an integer"),
            ('{"doc_id": "d2", "text": 3}', "text must be a string"),
            ('{"doc_id": "d1", "text": "dog"}', "doc_id 'd1' repeats line 1"),
        ],
        ids=["null-row", "int-text", "repeated-id"],
    )
    def test_malformed_corpus_row_exits_2_naming_the_line(self, tmp_path, capsys, line, message):
        dataset = tmp_path / "data.jsonl"
        dataset.write_text('{"id": "e1", "question": "q", "gold_answer": "x"}\n', encoding="utf-8")
        script_path = tmp_path / "script.json"
        script_path.write_text("{}", encoding="utf-8")
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"doc_id": "d1", "text": "cat"}\n' + line + "\n", encoding="utf-8")
        argv = ["--dataset", str(dataset), "--out-dir", str(tmp_path / "out"),
                "--lm-scripted", str(script_path), "--corpus", str(corpus)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {corpus}:2: bad corpus line: ")
        assert message in err
        assert not list(tmp_path.rglob("*.trace.json"))

    @pytest.mark.parametrize(
        "ids, message",
        [
            (["../escaped"], "example id '../escaped' is not a plain file name"),
            ([".."], "example id '..' is not a plain file name"),
            (["a/b"], "example id 'a/b' is not a plain file name"),
            (["ok", "dup", "dup"], "duplicate example id 'dup'"),
        ],
        ids=["parent-path", "dot-dot", "separator", "duplicate"],
    )
    def test_bad_example_ids_exit_2_before_running(self, tmp_path, worlds, capsys, ids, message):
        world = worlds["no-retrieval-00"]
        dataset = tmp_path / "data.jsonl"
        dataset.write_text(
            "".join(
                json.dumps({"id": i, "question": world.question, "gold_answer": world.gold}) + "\n"
                for i in ids
            ),
            encoding="utf-8",
        )
        script_path = tmp_path / "script.json"
        script_path.write_text(json.dumps(world.lm_script), encoding="utf-8")
        out_dir = tmp_path / "out"
        argv = ["--dataset", str(dataset), "--out-dir", str(out_dir),
                "--lm-scripted", str(script_path)]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.trace.json"))

    def test_empty_corpus_exits_2_naming_the_file(self, tmp_path, worlds, capsys):
        world = worlds["retrieval-gated-00"]
        dataset = tmp_path / "data.jsonl"
        dataset.write_text(
            json.dumps({"id": "g0", "question": world.question, "gold_answer": world.gold})
            + "\n",
            encoding="utf-8",
        )
        script_path = tmp_path / "script.json"
        script_path.write_text(json.dumps(world.lm_script), encoding="utf-8")
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("\n  \n\n", encoding="utf-8")
        argv = ["--dataset", str(dataset), "--out-dir", str(tmp_path / "out"),
                "--lm-scripted", str(script_path), "--corpus", str(corpus)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {corpus}: corpus is empty\n"
        assert "accuracy=" not in captured.out
        assert not list(tmp_path.rglob("*.trace.json"))

    @pytest.mark.parametrize("field", ["question", "gold_answer"])
    def test_blank_dataset_field_exits_2_before_running(self, tmp_path, worlds, capsys, field):
        # A blank gold matches no prediction; a blank question would fail
        # every search.
        world = worlds["no-retrieval-00"]
        row = {"id": "w0", "question": world.question, "gold_answer": world.gold}
        dataset = tmp_path / "data.jsonl"
        dataset.write_text(
            json.dumps(row) + "\n" + json.dumps({**row, "id": "w1", field: " \t "}) + "\n",
            encoding="utf-8",
        )
        script_path = tmp_path / "script.json"
        script_path.write_text(json.dumps(world.lm_script), encoding="utf-8")
        argv = ["--dataset", str(dataset), "--out-dir", str(tmp_path / "out"),
                "--lm-scripted", str(script_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {dataset}:2: '{field}' must be")
        assert not list(tmp_path.rglob("*.trace.json"))

    def test_bad_corpus_line_exits_2_with_line_number(self, tmp_path, capsys):
        dataset = tmp_path / "data.jsonl"
        dataset.write_text('{"id": "e1", "question": "q", "gold_answer": "x"}\n', encoding="utf-8")
        script_path = tmp_path / "script.json"
        script_path.write_text("{}", encoding="utf-8")
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"doc_id": "d1", "text": "cat"}\nnot json\n', encoding="utf-8")
        code = main(
            [
                "--dataset", str(dataset),
                "--out-dir", str(tmp_path / "out"),
                "--lm-scripted", str(script_path),
                "--corpus", str(corpus),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"{corpus}:2:" in err

    def test_no_config_flags_run_the_runconfig_defaults(self, tmp_path, worlds):
        world = worlds["no-retrieval-00"]
        dataset = tmp_path / "data.jsonl"
        dataset.write_text(
            json.dumps({"id": "w0", "question": world.question, "gold_answer": world.gold})
            + "\n",
            encoding="utf-8",
        )
        script_path = tmp_path / "script.json"
        script_path.write_text(
            json.dumps({k: [[t, ll] for t, ll in v] for k, v in world.lm_script.items()}),
            encoding="utf-8",
        )
        out_dir = tmp_path / "out"
        code = main(
            ["--dataset", str(dataset), "--out-dir", str(out_dir), "--lm-scripted", str(script_path)]
        )
        assert code == 0
        trace = json.loads((out_dir / "w0.trace.json").read_text())
        assert trace["config"] == RunConfig().to_dict()

    def test_crashing_examples_exit_3_and_are_counted(self, tmp_path, capsys):
        dataset = tmp_path / "data.jsonl"
        dataset.write_text(
            '{"id": "e1", "question": "q1", "gold_answer": "x"}\n'
            '{"id": "e2", "question": "q2", "gold_answer": "b"}\n',
            encoding="utf-8",
        )
        script_path = tmp_path / "script.json"
        script_path.write_text("{}", encoding="utf-8")
        out_dir = tmp_path / "out"
        code = main(
            ["--dataset", str(dataset), "--out-dir", str(out_dir), "--lm-scripted", str(script_path)]
        )
        assert code == 3
        assert "error: 2 of 2 examples raised" in capsys.readouterr().err
        payload = json.loads((out_dir / "metrics.json").read_text())
        assert payload["metrics"]["errors"] == 2
        assert [r["error_kind"] for r in payload["examples"]] == ["UnknownPromptError"] * 2

    @pytest.mark.parametrize(
        "flags, messages",
        [
            ([], ["--lm-scripted or --lm-endpoint"]),
            (
                ["--lm-scripted", "{script}", "--lm-endpoint", "http://lm.test/v1"],
                ["--lm-scripted", "--lm-endpoint"],
            ),
            (
                ["--lm-scripted", "{script}", "--retriever-script", "{script}",
                 "--search-endpoint", "http://search.test"],
                ["--retriever-script", "--search-endpoint"],
            ),
        ],
    )
    def test_missing_backend_inputs_exit_2(self, tmp_path, capsys, flags, messages):
        dataset = tmp_path / "data.jsonl"
        dataset.write_text('{"id": "e1", "question": "q", "gold_answer": "x"}\n', encoding="utf-8")
        script_path = tmp_path / "script.json"
        script_path.write_text("{}", encoding="utf-8")
        flags = [f.format(script=script_path) for f in flags]
        argv = ["--dataset", str(dataset), "--out-dir", str(tmp_path / "out"), *flags]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects two sources of one kind
            code = exc.code
        assert code == 2
        err = capsys.readouterr().err
        assert "error: " in err
        for message in messages:
            assert message in err

    @pytest.mark.parametrize(
        "content",
        ["not json", "[1, 2]", '{"k": 3}', '{"k": [["t", NaN]]}', '{"k": ["ab"]}',
         '{"k": [[null, "-0.5"]]}', '{"k": [[7, true]]}', '{"k": [["t", true]]}'],
    )
    @pytest.mark.parametrize("flag", ["--lm-scripted", "--retriever-script"])
    def test_malformed_script_exits_2_naming_the_file(self, tmp_path, capsys, flag, content):
        dataset = tmp_path / "data.jsonl"
        dataset.write_text('{"id": "e1", "question": "q", "gold_answer": "x"}\n', encoding="utf-8")
        good = tmp_path / "good.json"
        good.write_text("{}", encoding="utf-8")
        bad = tmp_path / "bad.json"
        bad.write_text(content, encoding="utf-8")
        argv = [
            "--dataset", str(dataset),
            "--out-dir", str(tmp_path / "out"),
            "--lm-scripted", str(good),
            "--retriever-script", str(good),
        ]
        argv[argv.index(flag) + 1] = str(bad)
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")


def run_cli(*argv):
    """Run ``python -m ragtree`` in a child process on this checkout."""
    return subprocess.run(
        [sys.executable, "-m", "ragtree", *map(str, argv)],
        capture_output=True, text=True, env=child_env(), timeout=60,
    )


class TestCliProcess:
    def test_retriever_script_alone_selects_the_scripted_retriever(self, tmp_path, worlds):
        # The gated question is answerable only through retrieval, so a
        # dropped retriever shows as accuracy 0 and no retriever call.
        world = worlds["retrieval-gated-00"]
        dataset = tmp_path / "data.jsonl"
        dataset.write_text(
            json.dumps({"id": "g0", "question": world.question, "gold_answer": world.gold})
            + "\n",
            encoding="utf-8",
        )
        lm = tmp_path / "lm.json"
        lm.write_text(json.dumps(world.lm_script), encoding="utf-8")
        docs = tmp_path / "map.json"
        docs.write_text(json.dumps(world.retriever_script), encoding="utf-8")
        out_dir = tmp_path / "out"
        proc = run_cli(
            "--dataset", dataset, "--out-dir", out_dir,
            "--lm-scripted", lm, "--retriever-script", docs,
        )
        assert proc.returncode == 0, proc.stderr
        assert "accuracy=1.0000" in proc.stdout
        metrics = json.loads((out_dir / "metrics.json").read_text())["metrics"]
        assert metrics["accuracy"] == 1.0
        # A4 and A5 each keep a retrieval record of the one query searched.
        assert metrics["avg_retriever_calls"] == 1.0
        trace = json.loads((out_dir / "g0.trace.json").read_text())
        records = [r for e in trace["rollouts"] for r in e.get("retrieval", [])]
        assert len(records) == 2 and len({r["query"] for r in records}) == 1
        assert trace["budget"]["retriever_calls"] == 1

    @pytest.mark.parametrize(
        "first, second",
        [
            ("--dataset", "--worlds"),
            ("--lm-scripted", "--lm-endpoint"),
            ("--corpus", "--retriever-script"),
            ("--corpus", "--search-endpoint"),
            ("--retriever-script", "--search-endpoint"),
            # A world carries its own LM and retriever scripts.
            ("--worlds", "--lm-endpoint"),
            ("--worlds", "--lm-scripted"),
            ("--worlds", "--corpus"),
            ("--worlds", "--retriever-script"),
            ("--worlds", "--search-endpoint"),
            # Only --lm-endpoint reads a model name.
            ("--worlds", "--lm-model"),
            ("--lm-scripted", "--lm-model"),
        ],
    )
    def test_two_sources_of_one_kind_exit_2_naming_both(self, tmp_path, first, second):
        proc = run_cli("--out-dir", tmp_path, first, "a", second, "b")
        assert proc.returncode == 2
        assert f"argument {second}: not allowed with argument {first}" in proc.stderr
        assert not any(tmp_path.iterdir())
