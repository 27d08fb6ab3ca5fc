"""Tests for the simulated chat models."""

import numpy as np
import pytest

from repro.core.triples import LabeledTriple
from repro.llm.icl import FALSE, TRUE, UNCLASSIFIED, parse_response
from repro.llm.prompts import PromptVariant, render_prompt
from repro.llm.simulated import (
    BIOGPT_PROFILE,
    GPT35_PROFILE,
    GPT4_PROFILE,
    BehaviourProfile,
    SimulatedChatModel,
    TaskAbility,
    truth_table,
)
from repro.ontology.relations import IS_A


def triples(n, label, prefix):
    return [
        LabeledTriple(f"{prefix}{i}", f"{prefix} entity {i}", IS_A,
                      f"{prefix}o{i}", f"{prefix} class {i}", label)
        for i in range(n)
    ]


POS = triples(3, 1, "p")
NEG = triples(3, 0, "n")


def make_query(i, label):
    return LabeledTriple(f"q{i}", f"query entity {i}", IS_A,
                         f"qo{i}", f"query class {i}", label)


def make_client(profile, queries, task=1, seed=0):
    truth = truth_table(POS + NEG + queries)
    return SimulatedChatModel(profile, truth, task, seed=seed)


class TestProfiles:
    def test_paper_profiles_cover_three_tasks(self):
        for profile in (GPT4_PROFILE, GPT35_PROFILE, BIOGPT_PROFILE):
            for task in (1, 2, 3):
                ability = profile.ability(task)
                assert 0.0 <= ability.p_pos <= 1.0

    def test_unknown_task_raises(self):
        with pytest.raises(KeyError):
            GPT4_PROFILE.ability(9)

    def test_validation(self):
        with pytest.raises(ValueError):
            TaskAbility(p_pos=1.5, p_neg=0.5)
        with pytest.raises(ValueError):
            BehaviourProfile("x", {1: TaskAbility(0.5, 0.5)}, order_bias=2.0)


class TestSimulatedBehaviour:
    def test_deterministic_first_delivery(self):
        queries = [make_query(i, i % 2) for i in range(10)]
        a = make_client(GPT4_PROFILE, queries, seed=1)
        b = make_client(GPT4_PROFILE, queries, seed=1)
        prompt = render_prompt(POS, NEG, queries[0])
        assert a.complete(prompt) == b.complete(prompt)

    def test_gpt4_mostly_correct_on_task1(self):
        queries = [make_query(i, i % 2) for i in range(200)]
        client = make_client(GPT4_PROFILE, queries, task=1, seed=0)
        correct = 0
        for query in queries:
            prompt = render_prompt(POS, NEG, query)
            answer = parse_response(client.complete(prompt))
            predicted = 1 if answer == TRUE else 0
            correct += predicted == query.label
        assert correct / len(queries) > 0.8

    def test_biogpt_order_bias_toward_false(self):
        queries = [make_query(i, 1) for i in range(150)]  # all positive
        client = make_client(BIOGPT_PROFILE, queries, task=1, seed=0)
        false_count = 0
        for query in queries:
            prompt = render_prompt(POS, NEG, query)  # blocked: last is False
            if parse_response(client.complete(prompt)) == FALSE:
                false_count += 1
        assert false_count / len(queries) > 0.5

    def test_abstain_only_with_variant2(self):
        queries = [make_query(i, i % 2) for i in range(200)]
        client = make_client(GPT35_PROFILE, queries, task=1, seed=0)
        base_abstains = variant2_abstains = 0
        for query in queries:
            base = render_prompt(POS, NEG, query, PromptVariant.BASE)
            abstain = render_prompt(POS, NEG, query, PromptVariant.ABSTAIN)
            if parse_response(client.complete(base)) == UNCLASSIFIED:
                base_abstains += 1
            if parse_response(client.complete(abstain)) == UNCLASSIFIED:
                variant2_abstains += 1
        assert base_abstains == 0
        assert variant2_abstains > 5

    def test_consistency_controls_repeat_flips(self):
        queries = [make_query(i, i % 2) for i in range(100)]
        flaky_profile = BehaviourProfile(
            "flaky", {1: TaskAbility(0.5, 0.5)}, consistency=0.0
        )
        stable_profile = BehaviourProfile(
            "stable", {1: TaskAbility(0.5, 0.5)}, consistency=1.0
        )

        def flip_rate(profile):
            client = make_client(profile, queries, seed=0)
            flips = 0
            for query in queries:
                prompt = render_prompt(POS, NEG, query)
                first = client.complete_indexed(prompt, 0)
                second = client.complete_indexed(prompt, 1)
                flips += first != second
            return flips / len(queries)

        assert flip_rate(stable_profile) == 0.0
        assert flip_rate(flaky_profile) > 0.2

    def test_unknown_query_answered_by_coin(self):
        client = SimulatedChatModel(GPT4_PROFILE, {}, 1, seed=0)
        prompt = render_prompt(POS, NEG, make_query(0, 1))
        answer = parse_response(client.complete(prompt))
        assert answer in (TRUE, FALSE)


class TestParseResponse:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("True", TRUE),
            ("  false.  ", FALSE),
            ("<classification>: True", TRUE),
            ("The triple is False.", FALSE),
            ("I don't know", UNCLASSIFIED),
            ("I do not know the answer", UNCLASSIFIED),
            ("true and false", UNCLASSIFIED),
            ("something irrelevant", UNCLASSIFIED),
            ("", UNCLASSIFIED),
        ],
    )
    def test_parsing(self, text, expected):
        assert parse_response(text) == expected


class TestCompleteIndexed:
    """The engine entry point is pure in (prompt, repeat)."""

    def client(self, profile=GPT35_PROFILE, seed=0):
        return SimulatedChatModel(profile, {}, 1, seed=seed)

    def test_matches_the_stateful_repeat_sequence(self):
        # Five successive complete() calls of the earlier stateful simulator
        # (it counted the repeats of each prompt itself) returned these.
        stateful_texts = [
            "is a compound of biological interest that has been studied extensively",
            "is a compound of biological interest that has been studied extensively",
            "the answer depends on additional experimental context not provided here",
            "is a compound of biological interest that has been studied extensively",
            "The triple is False.",
        ]
        indexed = self.client(BIOGPT_PROFILE)
        prompt = "<triple>: (a, is_a, b)\n<classification>:"
        indexed_texts = [
            indexed.complete_indexed(prompt, repeat) for repeat in range(5)
        ]
        assert indexed_texts == stateful_texts

    def test_pure_under_any_call_order(self):
        client = self.client(seed=3)
        prompt = "<triple>: (x, is_a, y)\n<classification>:"
        forward = [client.complete_indexed(prompt, r) for r in range(4)]
        backward = [client.complete_indexed(prompt, r) for r in (3, 2, 1, 0)]
        assert backward == list(reversed(forward)) == forward[::-1]
        # Interleaving unrelated prompts changes nothing either.
        client.complete_indexed("<triple>: (p, is_a, q)\n<classification>:", 0)
        assert client.complete_indexed(prompt, 2) == forward[2]

    def test_does_not_touch_delivery_history(self):
        client = self.client(BIOGPT_PROFILE)
        prompt = "<triple>: (a, is_a, b)\n<classification>:"
        first = client.complete_indexed(prompt, 0)
        assert client.complete_indexed(prompt, 2) != first
        # No history is kept: complete() is repeat 0 however often it runs.
        assert [client.complete(prompt) for _ in range(3)] == [first] * 3

    def test_replicas_answer_identically(self):
        prompt = "<triple>: (m, is_a, n)\n<classification>:"
        replicas = [self.client(seed=7) for _ in range(3)]
        answers = {r.complete_indexed(prompt, 2) for r in replicas}
        assert len(answers) == 1
