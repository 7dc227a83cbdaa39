"""Seeded synthetic tweets in the SemEval 2018 E-c layout.

Labels come from an emotion keyword lexicon: each emotion is switched on
in a fixed share of the tweets, roughly its SemEval training-set
prevalence, and a tweet that carries an emotion contains one or two of its
keywords. Keywords of an absent emotion are sometimes added as confusers,
so the task is learnable but not trivial. Fill words are pseudo-words drawn
from a Zipf distribution.

The embeddings file mimics a pretrained table: keyword vectors cluster
around one centre per emotion, fill words are isotropic noise, and a tail of
the rarer fill words is missing so that coverage is below one.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

EMOTIONS = (
    "anger", "anticipation", "disgust", "fear", "joy", "love",
    "optimism", "pessimism", "sadness", "surprise", "trust",
)

# Rough label prevalence of the SemEval 2018 E-c English training set.
PREVALENCE = (0.37, 0.14, 0.38, 0.18, 0.36, 0.10, 0.29, 0.12, 0.29, 0.05, 0.05)

LEXICON = {
    "anger": "angry furious rage mad outraged livid fuming irate annoyed infuriated hostile seething",
    "anticipation": "waiting soon tomorrow expecting countdown upcoming hoping planning ready eager tonight await",
    "disgust": "gross disgusting nasty vile sick revolting awful yuck filthy repulsive shameful creepy",
    "fear": "scared afraid terrified nervous panic anxious worried dread frightened horror shaking uneasy",
    "joy": "happy glad delighted cheerful smile laughing fun great awesome yay excited wonderful",
    "love": "love adore darling sweetheart beloved hugs kisses cherish romance devoted crush affection",
    "optimism": "hope bright positive believe better improve faith confident progress opportunity brighter onward",
    "pessimism": "hopeless doomed pointless never useless worse bleak gloomy defeated cynical futile downhill",
    "sadness": "sad crying tears depressed lonely heartbroken miserable grief sorrow unhappy hurt mourning",
    "surprise": "wow shocked unexpected suddenly amazed astonished unbelievable stunned omg whoa surprising speechless",
    "trust": "trust reliable honest loyal faithful depend support promise count sincere dependable genuine",
}
KEYWORDS = {e: LEXICON[e].split() for e in EMOTIONS}

_CONSONANTS = "bcdfghjklmnprstvwz"
_VOWELS = "aeiou"
_N_FILL = 20000
_ZIPF_EXPONENT = 0.9
_CONFUSER_RATE = 0.15
_EMBED_COVERAGE_RANK = 5000  # fill words ranked beyond this have no vector
# Keywords go among the first pieces, so truncation at 50 tokens never cuts
# them and long tweets carry their labels as reliably as short ones.
_CUE_SPAN = 36


@dataclass(frozen=True)
class Shape:
    """How long tweets are and how much tweet-specific markup they carry."""

    min_tokens: int
    max_tokens: int
    log_mean: float  # lognormal length around exp(log_mean) tokens
    log_sigma: float
    markup: float  # chance per tweet of each markup kind (URL, mention, ...)


SEMEVAL = Shape(min_tokens=3, max_tokens=60, log_mean=2.68, log_sigma=0.45, markup=0.15)
FULL = Shape(min_tokens=52, max_tokens=70, log_mean=0.0, log_sigma=0.0, markup=0.15)
NOISY = Shape(min_tokens=3, max_tokens=60, log_mean=2.6, log_sigma=0.45, markup=0.5)


class TweetGenerator:
    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.fill = self._pseudo_words(_N_FILL)
        weights = 1.0 / np.arange(1, _N_FILL + 1) ** _ZIPF_EXPONENT
        self._fill_cdf = np.cumsum(weights / weights.sum())

    def _pseudo_words(self, n: int) -> list[str]:
        """n distinct consonant-vowel words; none repeats a letter three times."""
        syllables = [c + v for c in _CONSONANTS for v in _VOWELS]
        seen = {w for words in KEYWORDS.values() for w in words}
        words: list[str] = []
        while len(words) < n:
            count = self.rng.integers(1, 4, size=n)
            picks = self.rng.integers(len(syllables), size=(n, 3))
            tails = self.rng.integers(len(_CONSONANTS), size=n)
            coda = self.rng.random(n) < 0.3
            for k, row, tail, has_tail in zip(count, picks, tails, coda):
                w = "".join(syllables[i] for i in row[:k]) + (_CONSONANTS[tail] if has_tail else "")
                if w not in seen and len(words) < n:
                    seen.add(w)
                    words.append(w)
        return words

    def _fill_words(self, n: int) -> list[str]:
        ranks = np.searchsorted(self._fill_cdf, self.rng.random(n))
        return [self.fill[min(r, _N_FILL - 1)] for r in ranks]

    def _length(self, shape: Shape) -> int:
        if shape.log_sigma == 0.0:
            n = self.rng.integers(shape.min_tokens, shape.max_tokens + 1)
        else:
            n = round(self.rng.lognormal(shape.log_mean, shape.log_sigma))
        return int(min(max(n, shape.min_tokens), shape.max_tokens))

    def tweet(self, shape: Shape, labels: list[int], confuser: bool) -> str:
        """One raw tweet carrying ``labels``, plus one keyword of an absent
        emotion when ``confuser`` is set.

        Every piece below tokenizes to at least one token, so a tweet has at
        least ``_length`` tokens; markup pieces such as hashtags and "!!!"
        add a few more.
        """
        rng = self.rng
        n = self._length(shape)
        cues = []
        for e, on in zip(EMOTIONS, labels):
            if on:
                cues += list(rng.choice(KEYWORDS[e], size=rng.integers(1, 3)))
        if confuser:
            off = [e for e, on in zip(EMOTIONS, labels) if not on]
            if off:
                cues.append(str(rng.choice(KEYWORDS[off[rng.integers(len(off))]])))
        pieces = self._fill_words(max(n - len(cues), 1))
        for cue in cues:
            if rng.random() < shape.markup:
                cue = "#" + cue
            elif rng.random() < shape.markup:
                cue = cue + cue[-1] * int(rng.integers(2, 5))  # elongation
            pieces.insert(int(rng.integers(min(len(pieces), _CUE_SPAN) + 1)), cue)
        if rng.random() < shape.markup:
            pieces.insert(0, f"@{self.fill[rng.integers(200)]}{rng.integers(100)}")
        if rng.random() < shape.markup:
            pieces.append(f"https://t.co/{self.fill[rng.integers(_N_FILL)]}{rng.integers(10**6)}")
        if rng.random() < shape.markup:
            pieces.insert(int(rng.integers(len(pieces) + 1)), str(rng.integers(1, 2020)))
        if rng.random() < shape.markup:
            pieces.append("!!!" if rng.random() < 0.5 else "?")
        return " ".join(pieces)

    def tweets(self, n: int, shape: Shape) -> tuple[list[str], list[list[int]]]:
        """n tweets and their labels. Each emotion is on in exactly
        round(prevalence * n) of them, and confusers go to a fixed share, so
        that label balance and noise do not vary with the seed."""
        labels = np.array([self._exactly(p, n) for p in PREVALENCE]).T.tolist()
        confusers = self._exactly(_CONFUSER_RATE, n)
        return [self.tweet(shape, lab, c) for lab, c in zip(labels, confusers)], labels

    def _exactly(self, share: float, n: int) -> np.ndarray:
        """0/1 vector of length n with round(share * n) ones in random places."""
        return (self.rng.permutation(n) < round(share * n)).astype(int)

    def embeddings(self, d_emb: int) -> list[tuple[str, np.ndarray]]:
        """Vectors for every keyword and the more frequent fill words."""
        rng = self.rng
        centres = rng.normal(0.0, 0.25, size=(len(EMOTIONS), d_emb))
        rows = []
        for centre, e in zip(centres, EMOTIONS):
            for w in KEYWORDS[e]:
                rows.append((w, centre + rng.normal(0.0, 0.1, size=d_emb)))
        for w in self.fill[:_EMBED_COVERAGE_RANK]:
            rows.append((w, rng.normal(0.0, 0.15, size=d_emb)))
        return rows


def write_tsv(path: Path, texts: list[str], labels: list[list[int]]):
    lines = ["\t".join(["ID", "Tweet", *EMOTIONS])]
    for i, (text, lab) in enumerate(zip(texts, labels), start=1):
        lines.append("\t".join([f"2018-En-{i:05d}", text, *map(str, lab)]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_lines(path: Path, texts: list[str]):
    path.write_text("\n".join(texts) + "\n", encoding="utf-8")


def write_embeddings(path: Path, rows: list[tuple[str, np.ndarray]]):
    fmt = " ".join(["%.5f"] * len(rows[0][1]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{word} {fmt % tuple(vec)}\n" for word, vec in rows)
