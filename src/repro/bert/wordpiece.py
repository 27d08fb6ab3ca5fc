"""WordPiece tokenisation: BPE-style vocabulary training + greedy encoding.

PubmedBERT ships a 28,895-piece WordPiece vocabulary trained on PubMed
(Table A4).  This module trains an equivalent (smaller) vocabulary on the
synthetic corpus: pieces start as characters, the most frequent adjacent pair
is merged repeatedly, and continuation pieces carry the ``##`` prefix.
Encoding is greedy longest-match-first with ``[UNK]`` fallback, exactly as in
the reference implementation.
"""

from __future__ import annotations

import heapq
from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

PAD_TOKEN = "[PAD]"
UNK_TOKEN = "[UNK]"
CLS_TOKEN = "[CLS]"
SEP_TOKEN = "[SEP]"
MASK_TOKEN = "[MASK]"

SPECIAL_TOKENS: Tuple[str, ...] = (
    PAD_TOKEN,
    UNK_TOKEN,
    CLS_TOKEN,
    SEP_TOKEN,
    MASK_TOKEN,
)


class WordPieceTokenizer:
    """A trained WordPiece vocabulary with greedy sub-word encoding."""

    def __init__(self, pieces: Sequence[str]):
        for special in SPECIAL_TOKENS:
            if special not in pieces:
                raise ValueError(f"vocabulary missing special token {special}")
        self._pieces: List[str] = list(pieces)
        self._ids: Dict[str, int] = {p: i for i, p in enumerate(self._pieces)}
        if len(self._ids) != len(self._pieces):
            raise ValueError("vocabulary contains duplicate pieces")
        # Greedy encoding is deterministic per word; corpora repeat words
        # heavily, so memoising keeps encode() off the pretraining profile.
        self._word_cache: Dict[str, List[int]] = {}

    # -- vocabulary access ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._pieces)

    def __contains__(self, piece: str) -> bool:
        return piece in self._ids

    def id_of(self, piece: str) -> int:
        try:
            return self._ids[piece]
        except KeyError:
            raise KeyError(f"piece {piece!r} not in WordPiece vocabulary") from None

    def piece_of(self, piece_id: int) -> str:
        return self._pieces[piece_id]

    @property
    def pad_id(self) -> int:
        return self._ids[PAD_TOKEN]

    @property
    def unk_id(self) -> int:
        return self._ids[UNK_TOKEN]

    @property
    def cls_id(self) -> int:
        return self._ids[CLS_TOKEN]

    @property
    def sep_id(self) -> int:
        return self._ids[SEP_TOKEN]

    @property
    def mask_id(self) -> int:
        return self._ids[MASK_TOKEN]

    def special_ids(self) -> List[int]:
        return [self._ids[t] for t in SPECIAL_TOKENS]

    # -- encoding --------------------------------------------------------------

    def encode_word(self, word: str) -> List[int]:
        """Greedy longest-match WordPiece encoding of one word."""
        if not word:
            return []
        cached = self._word_cache.get(word)
        if cached is not None:
            return list(cached)
        pieces: List[int] = []
        start = 0
        while start < len(word):
            end = len(word)
            found = None
            while end > start:
                candidate = word[start:end]
                if start > 0:
                    candidate = "##" + candidate
                if candidate in self._ids:
                    found = self._ids[candidate]
                    break
                end -= 1
            if found is None:
                pieces = [self.unk_id]
                break
            pieces.append(found)
            start = end
        self._word_cache[word] = pieces
        return list(pieces)

    def encode(self, words: Sequence[str], add_special: bool = True,
               max_len: Optional[int] = None) -> List[int]:
        """Encode a word sequence into piece ids, optionally adding
        ``[CLS]`` / ``[SEP]`` and truncating to ``max_len``."""
        ids: List[int] = []
        for word in words:
            ids.extend(self.encode_word(word))
        if add_special:
            ids = [self.cls_id] + ids + [self.sep_id]
        if max_len is not None and len(ids) > max_len:
            ids = ids[: max_len - 1] + [self.sep_id] if add_special else ids[:max_len]
        return ids

    def decode(self, ids: Sequence[int]) -> str:
        """Inverse of :meth:`encode` (specials dropped, ``##`` joined)."""
        words: List[str] = []
        for piece_id in ids:
            piece = self._pieces[piece_id]
            if piece in SPECIAL_TOKENS:
                continue
            if piece.startswith("##") and words:
                words[-1] += piece[2:]
            else:
                words.append(piece)
        return " ".join(words)


def _word_to_symbols(word: str) -> Tuple[str, ...]:
    return tuple([word[0]] + ["##" + c for c in word[1:]])


def _merge_pair(
    symbols: Tuple[str, ...], a: str, b: str, piece: str
) -> Tuple[str, ...]:
    """Replace each ``(a, b)`` occurrence with ``piece``, scanning left to
    right without overlaps (``a a a`` merges its first two symbols)."""
    merged: List[str] = []
    index = 0
    while index < len(symbols):
        if (
            index + 1 < len(symbols)
            and symbols[index] == a
            and symbols[index + 1] == b
        ):
            merged.append(piece)
            index += 2
        else:
            merged.append(symbols[index])
            index += 1
    return tuple(merged)


class _Descending:
    """Heap key that orders pairs largest first (``heapq`` pops the least)."""

    __slots__ = ("pair",)

    def __init__(self, pair: Tuple[str, str]):
        self.pair = pair

    def __lt__(self, other: "_Descending") -> bool:
        return self.pair > other.pair


def train_wordpiece(
    sentences: Iterable[Sequence[str]],
    vocab_size: int = 1_000,
    min_pair_frequency: int = 2,
) -> WordPieceTokenizer:
    """Train a WordPiece vocabulary by iterative pair merging.

    ``vocab_size`` bounds the total vocabulary including the five special
    tokens and the initial character pieces.  Each step merges the pair
    with the highest ``(count, pair)``.  Pair counts and a pair -> words
    index are kept up to date for just the words a merge touches, and a
    lazily pruned max-heap finds the next pair, so a step costs the words
    it rewrites rather than a recount of the whole corpus.
    """
    if vocab_size < len(SPECIAL_TOKENS) + 10:
        raise ValueError("vocab_size too small to be useful")

    word_freq: Counter = Counter()
    for sentence in sentences:
        word_freq.update(sentence)
    if not word_freq:
        raise ValueError("corpus is empty")

    segmentations: Dict[str, Tuple[str, ...]] = {
        word: _word_to_symbols(word) for word in word_freq
    }
    vocab = set(SPECIAL_TOKENS)
    for symbols in segmentations.values():
        vocab.update(symbols)

    pair_counts: Dict[Tuple[str, str], int] = {}
    pair_words: Dict[Tuple[str, str], Dict[str, None]] = {}
    for word, symbols in segmentations.items():
        for pair in zip(symbols, symbols[1:]):
            pair_counts[pair] = pair_counts.get(pair, 0) + word_freq[word]
            pair_words.setdefault(pair, {})[word] = None
    heap = [(-count, _Descending(pair)) for pair, count in pair_counts.items()]
    heapq.heapify(heap)

    while len(vocab) < vocab_size:
        while heap and pair_counts.get(heap[0][1].pair) != -heap[0][0]:
            heapq.heappop(heap)  # stale: the pair's count has changed since
        if not heap:
            break
        best_count, (best_a, best_b) = -heap[0][0], heap[0][1].pair
        if best_count < min_pair_frequency:
            break
        new_piece = best_a + (best_b[2:] if best_b.startswith("##") else best_b)
        vocab.add(new_piece)
        deltas: Dict[Tuple[str, str], int] = {}
        for word in list(pair_words[(best_a, best_b)]):
            old = segmentations[word]
            new = _merge_pair(old, best_a, best_b, new_piece)
            segmentations[word] = new
            freq = word_freq[word]
            old_pairs = list(zip(old, old[1:]))
            new_pairs = list(zip(new, new[1:]))
            for pair in old_pairs:
                deltas[pair] = deltas.get(pair, 0) - freq
            for pair in new_pairs:
                deltas[pair] = deltas.get(pair, 0) + freq
            for pair in set(old_pairs).difference(new_pairs):
                del pair_words[pair][word]
            for pair in new_pairs:
                pair_words.setdefault(pair, {})[word] = None
        for pair, delta in deltas.items():
            if delta == 0:
                continue
            count = pair_counts.get(pair, 0) + delta
            if count > 0:
                pair_counts[pair] = count
                heapq.heappush(heap, (-count, _Descending(pair)))
            else:
                del pair_counts[pair]
                del pair_words[pair]

    ordered = list(SPECIAL_TOKENS) + sorted(vocab - set(SPECIAL_TOKENS))
    return WordPieceTokenizer(ordered)


__all__ = [
    "WordPieceTokenizer",
    "train_wordpiece",
    "SPECIAL_TOKENS",
    "PAD_TOKEN",
    "UNK_TOKEN",
    "CLS_TOKEN",
    "SEP_TOKEN",
    "MASK_TOKEN",
]
