"""Self-tests of the benchmark's own machinery. Run from a ragtree checkout:

    python3 perfbench/selftest.py
"""
import sys
import tempfile
import threading
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ragtree import cli, worlds  # noqa: E402

from loop import Question, QuestionLoop  # noqa: E402
from spans import Recorder, covered, self_times  # noqa: E402


class FailureAccounting(unittest.TestCase):
    def test_shipped_fixtures_at_64_rollouts_all_count_as_failed(self):
        """The shipped worlds are closed only up to 16 rollouts. At 64 each
        run hits an unscripted prompt; every one must count as failed."""
        paths = sorted((ROOT / "fixtures" / "worlds").glob("*.json"))
        self.assertEqual(len(paths), 20)
        with tempfile.TemporaryDirectory() as tmp:
            loop = QuestionLoop(Path(tmp))
            for path in paths:
                world = worlds.build_world(path)
                example = cli.Example(id=world.name, question=world.question, gold_answer=world.gold)
                loop.ask(Question(example, world.config(rollouts=64), world.backends()))
            summary = loop.summary()
        self.assertEqual(summary["attempted"], 20)
        self.assertEqual(summary["failed"], 20)
        self.assertEqual(summary["failed_share"], 1.0)
        self.assertFalse(summary["correct"])
        self.assertEqual(summary["reasons"], {"raised UnknownPromptError": 20})

    def test_wrong_answer_counts_as_failed(self):
        path = ROOT / "fixtures" / "worlds" / "no-retrieval-00.json"
        world = worlds.build_world(path)
        example = cli.Example(id=world.name, question=world.question, gold_answer="not-the-gold")
        with tempfile.TemporaryDirectory() as tmp:
            loop = QuestionLoop(Path(tmp))
            loop.ask(Question(example, world.config(), world.backends()))
            summary = loop.summary()
        self.assertEqual((summary["attempted"], summary["failed"]), (1, 1))
        self.assertEqual(summary["reasons"], {"wrong answer": 1})


class SelfTime(unittest.TestCase):
    def test_overlapping_children_from_two_threads(self):
        # parent [0, 10] on thread 1; children on threads 2 and 3 overlap
        # over [3, 5]; a third child runs past the parent's end. The fields
        # are (id, name, start, end, cpu, thread, parent).
        spans = [
            (1, "rollout", 0.0, 10.0, 4.0, 1, None),
            (2, "a", 1.0, 5.0, 3.0, 2, 1),
            (3, "b", 3.0, 7.0, 2.5, 3, 1),
            (4, "c", 9.0, 12.0, 1.0, 1, 1),
            (5, "a.inner", 2.0, 4.0, 1.5, 2, 2),
        ]
        own = self_times(spans)
        self.assertAlmostEqual(own[1][0], 10.0 - (6.0 + 1.0))  # union [1,7] + [9,10]
        self.assertAlmostEqual(own[2][0], 4.0 - 2.0)
        self.assertAlmostEqual(own[3][0], 4.0)
        self.assertAlmostEqual(own[4][0], 3.0)
        self.assertAlmostEqual(own[5][0], 2.0)
        # CPU: only same-thread children count against the parent.
        self.assertAlmostEqual(own[1][1], 4.0 - 1.0)
        self.assertAlmostEqual(own[2][1], 3.0 - 1.5)
        self.assertAlmostEqual(own[3][1], 2.5)

    def test_covered_merges_nested_and_disjoint(self):
        self.assertAlmostEqual(covered([(0, 4), (1, 2), (6, 8), (7, 9)], 0, 10), 7.0)
        self.assertAlmostEqual(covered([(-5, 1), (9, 20)], 0, 10), 2.0)
        self.assertEqual(covered([], 0, 10), 0.0)

    def test_worker_thread_spans_take_the_rollout_as_parent(self):
        recorder = Recorder()
        recorder.enabled = True
        leaf = recorder.wrap("leaf", lambda: threading.get_ident())

        def rollout():
            threads = [threading.Thread(target=leaf) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
                self.assertFalse(t.is_alive())
            return leaf()

        recorder.span("question", recorder.wrap("orchestrator.rollout", rollout))
        by_name = {}
        for span in recorder.spans:
            by_name.setdefault(span[1], []).append(span)
        (question,) = by_name["question"]
        (roll,) = by_name["orchestrator.rollout"]
        self.assertEqual(roll[6], question[0])
        self.assertEqual([s[6] for s in by_name["leaf"]], [roll[0]] * 3)
        self.assertEqual(sum(s[5] != roll[5] for s in by_name["leaf"]), 2)
        self.assertIsNone(recorder.rollout)


if __name__ == "__main__":
    unittest.main()
