"""Tests for WordPiece training and encoding."""

import dataclasses
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.bert.wordpiece import (
    SPECIAL_TOKENS,
    WordPieceTokenizer,
    train_wordpiece,
)

CORPUS = [
    ["hydroxy", "acid", "hydroxyacid"],
    ["hydroxy", "butanoic", "acid"],
    ["amino", "acid", "aminobutanoic"],
] * 10


class TestTrainWordpiece:
    def test_specials_present(self):
        tokenizer = train_wordpiece(CORPUS, vocab_size=80)
        for special in SPECIAL_TOKENS:
            assert special in tokenizer

    def test_merges_frequent_pairs(self):
        tokenizer = train_wordpiece(CORPUS, vocab_size=200)
        # 'acid' is frequent enough to become a single piece.
        assert tokenizer.encode_word("acid") == [tokenizer.id_of("acid")]

    def test_vocab_size_bounded(self):
        tokenizer = train_wordpiece(CORPUS, vocab_size=60)
        assert len(tokenizer) <= 60 + 1  # final merge may add one piece

    def test_too_small_vocab_rejected(self):
        with pytest.raises(ValueError):
            train_wordpiece(CORPUS, vocab_size=5)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            train_wordpiece([], vocab_size=100)


class TestEncoding:
    @pytest.fixture(scope="class")
    def tokenizer(self):
        return train_wordpiece(CORPUS, vocab_size=150)

    def test_greedy_longest_match(self, tokenizer):
        pieces = tokenizer.encode_word("hydroxyacid")
        decoded = tokenizer.decode(pieces)
        assert decoded.replace(" ", "") == "hydroxyacid"

    def test_unknown_characters_give_unk(self, tokenizer):
        assert tokenizer.encode_word("ØØØ") == [tokenizer.unk_id]

    def test_encode_adds_specials(self, tokenizer):
        ids = tokenizer.encode(["acid"])
        assert ids[0] == tokenizer.cls_id
        assert ids[-1] == tokenizer.sep_id

    def test_encode_truncates(self, tokenizer):
        ids = tokenizer.encode(["hydroxy"] * 50, max_len=10)
        assert len(ids) == 10
        assert ids[-1] == tokenizer.sep_id

    def test_decode_skips_specials(self, tokenizer):
        ids = tokenizer.encode(["acid", "amino"])
        assert tokenizer.decode(ids) == "acid amino"

    def test_empty_word(self, tokenizer):
        assert tokenizer.encode_word("") == []

    def test_duplicate_pieces_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            WordPieceTokenizer(list(SPECIAL_TOKENS) + ["a", "a"])

    def test_missing_special_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            WordPieceTokenizer(["a", "b"])

    @settings(deadline=None, max_examples=30)
    @given(st.text(alphabet="abcdxyz", min_size=1, max_size=15))
    def test_round_trip_known_alphabet(self, tokenizer, word):
        # every single character of the training alphabet is in the vocab,
        # so greedy encoding must reconstruct the word exactly.
        pieces = tokenizer.encode_word(word)
        if tokenizer.unk_id not in pieces:
            assert tokenizer.decode(pieces).replace(" ", "") == word


def _reference_pieces(sentences, vocab_size, min_pair_frequency=2):
    """WordPiece training as first written: every pair of every word is
    recounted before each merge.  The oracle for :func:`train_wordpiece`."""
    word_freq = Counter()
    for sentence in sentences:
        word_freq.update(sentence)
    segmentations = {
        word: tuple([word[0]] + ["##" + c for c in word[1:]]) for word in word_freq
    }
    vocab = set(SPECIAL_TOKENS)
    for symbols in segmentations.values():
        vocab.update(symbols)
    while len(vocab) < vocab_size:
        pair_freq = Counter()
        for word, symbols in segmentations.items():
            for a, b in zip(symbols, symbols[1:]):
                pair_freq[(a, b)] += word_freq[word]
        if not pair_freq:
            break
        (best_a, best_b), best_count = max(
            pair_freq.items(), key=lambda kv: (kv[1], kv[0])
        )
        if best_count < min_pair_frequency:
            break
        new_piece = best_a + (best_b[2:] if best_b.startswith("##") else best_b)
        vocab.add(new_piece)
        for word, symbols in segmentations.items():
            merged, index = [], 0
            while index < len(symbols):
                if (
                    index + 1 < len(symbols)
                    and symbols[index] == best_a
                    and symbols[index + 1] == best_b
                ):
                    merged.append(new_piece)
                    index += 2
                else:
                    merged.append(symbols[index])
                    index += 1
            segmentations[word] = tuple(merged)
    return list(SPECIAL_TOKENS) + sorted(vocab - set(SPECIAL_TOKENS))


def _pieces(tokenizer):
    return [tokenizer.piece_of(i) for i in range(len(tokenizer))]


class TestTrainingMatchesReference:
    """Incremental pair counting yields exactly the full-recount vocabulary."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_micro_lab_corpus(self, seed):
        from repro.core import Lab
        from tests.conftest import MICRO_LAB_CONFIG

        lab = Lab(dataclasses.replace(MICRO_LAB_CONFIG, corpus_seed=seed))
        corpus = lab.materialize("corpus-chemistry")
        assert _pieces(lab.materialize("wordpiece")) == _reference_pieces(
            corpus, MICRO_LAB_CONFIG.wordpiece_vocab
        )
        pieces = _pieces(train_wordpiece(corpus, vocab_size=900))
        assert pieces == _reference_pieces(corpus, 900)

    def test_overlapping_pairs(self):
        corpus = [["aaaa", "aaa", "aa", "baaab", "abab"]] * 3
        pieces = _pieces(train_wordpiece(corpus, vocab_size=40))
        assert pieces == _reference_pieces(corpus, 40)
        assert "aa" in pieces and "##aa" in pieces

    @pytest.mark.parametrize("min_pair_frequency", [1, 2, 4, 7])
    def test_min_pair_frequency_stop(self, min_pair_frequency):
        corpus = [["abc", "abd"], ["abc", "xyz"], ["abc"]]
        tokenizer = train_wordpiece(
            corpus, vocab_size=200, min_pair_frequency=min_pair_frequency
        )
        assert _pieces(tokenizer) == _reference_pieces(
            corpus, 200, min_pair_frequency
        )
        assert len(tokenizer) < 200  # stopped by frequency, not by size

    def test_corpus_without_pairs(self):
        corpus = [["a", "b", "c"], ["d", "a"]]
        pieces = _pieces(train_wordpiece(corpus, vocab_size=100))
        assert pieces == _reference_pieces(corpus, 100)
        assert pieces == list(SPECIAL_TOKENS) + ["a", "b", "c", "d"]

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(st.text(alphabet="abc#", min_size=1, max_size=7), max_size=6),
            min_size=1,
            max_size=8,
        ).filter(lambda corpus: any(corpus)),
        st.integers(min_value=15, max_value=60),
        st.integers(min_value=1, max_value=3),
    )
    def test_random_corpora(self, corpus, vocab_size, min_pair_frequency):
        tokenizer = train_wordpiece(
            corpus, vocab_size=vocab_size, min_pair_frequency=min_pair_frequency
        )
        assert _pieces(tokenizer) == _reference_pieces(
            corpus, vocab_size, min_pair_frequency
        )
