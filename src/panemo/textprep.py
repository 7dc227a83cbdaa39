"""Tweet text preparation: tokenizer, vocabulary, dataset and embedding I/O.

The tokenizer is a documented simplification of full tweet-normalization
toolchains: lowercasing, URL/@mention/number placeholders, hashtag splitting
into a marker plus the bare tag, elongation collapse, and punctuation
separation. No spell correction or hashtag word segmentation.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import ConfigError, ParseError

PAD = "<pad>"
UNK = "<unk>"
PAD_INDEX = 0
UNK_INDEX = 1

EMOTIONS = (
    "anger",
    "anticipation",
    "disgust",
    "fear",
    "joy",
    "love",
    "optimism",
    "pessimism",
    "sadness",
    "surprise",
    "trust",
)
NUM_EMOTIONS = len(EMOTIONS)

_URL_RE = re.compile(r"https?://\S+|www\.\S+")
_MENTION_RE = re.compile(r"@\w+")
_HASHTAG_RE = re.compile(r"#(\w+)")
_NUMBER_RE = re.compile(r"^[+-]?\d+([.,]\d+)*$")
# letters only: "soooo" -> "soo", but "!!!" stays three separate tokens
_ELONGATION_RE = re.compile(r"([a-z])\1{2,}")
# split off runs of punctuation from word characters
_PUNCT_SPLIT_RE = re.compile(r"[\w<>]+|[^\w\s<>]")
_BINARY = frozenset(("0", "1"))  # the label values


def decode_text(data: bytes, source, error: type[Exception] = ParseError) -> str:
    """``data`` decoded as UTF-8, without one leading byte-order mark. Bytes
    that are not UTF-8 raise ``error`` naming ``source`` and the line that
    holds them."""
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]  # its lines end at LF, CR LF or a lone CR, as in split_lines
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise error(f"{source}: line {line} is not UTF-8") from None


def read_text(path, error: type[Exception] = ParseError) -> str:
    """The text of a UTF-8 file; see ``decode_text``."""
    return decode_text(Path(path).read_bytes(), path, error)


def split_lines(text: str) -> list[str]:
    """The lines of ``text``, each ended by LF, CR LF, a lone CR or the end of
    the text: the universal newlines of text-mode files. Unlike
    ``str.splitlines``, it keeps U+2028, U+0085, form feeds and the other
    Unicode line boundaries inside their line."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def tokenize(text: str) -> list[str]:
    """Normalize a raw tweet into a token list.

    Rules, in order: lowercase; URLs -> "<url>"; @mentions -> "<user>";
    "#tag" -> "<hashtag>" followed by "tag"; characters repeated three or
    more times collapsed to two; numeric literals -> "<number>"; punctuation
    split into single-character tokens; otherwise whitespace-delimited.
    ``verify.reference_tokenize`` is the plain form of these rules.
    """
    text = text.lower()
    # each substitution only where its pattern can match
    if "http" in text or "www." in text:
        text = _URL_RE.sub(" <url> ", text)
    if "@" in text:
        text = _MENTION_RE.sub(" <user> ", text)
    if "#" in text:
        text = _HASHTAG_RE.sub(r" <hashtag> \1 ", text)
    text = _ELONGATION_RE.sub(r"\1\1", text)

    tokens = []
    for piece in text.split():
        if piece.isalpha():  # letters are word characters and never a number or placeholder
            tokens.append(piece)
        elif _NUMBER_RE.match(piece):
            tokens.append("<number>")
        else:
            for tok in _PUNCT_SPLIT_RE.findall(piece):  # a placeholder never matches the number pattern
                tokens.append("<number>" if _NUMBER_RE.match(tok) else tok)
    return tokens


class Vocabulary:
    """token <-> index map with reserved PAD (0) and UNK (1) entries."""

    def __init__(self, tokens: list[str] | None = None):
        # the first appearance of a token sets its index; PAD and UNK keep 0 and 1
        self._tokens = list(dict.fromkeys([PAD, UNK, *(tokens or ())]))
        self._index = dict(zip(self._tokens, range(len(self._tokens))))

    def __len__(self) -> int:
        return len(self._tokens)

    @property
    def tokens(self) -> list[str]:
        return list(self._tokens)


def build_vocabulary(corpus: list[list[str]], min_count: int = 1) -> Vocabulary:
    """Vocabulary of tokens with frequency >= min_count, in first-appearance order."""
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    if not corpus:
        raise ValueError("empty corpus")
    counts = Counter(chain.from_iterable(corpus))  # keys in first-appearance order
    return Vocabulary([tok for tok, count in counts.items() if count >= min_count])


@dataclass
class Example:
    """One encoded tweet: padded indices, validity mask, 11 binary labels."""

    indices: list[int]
    mask: list[int]
    labels: list[int]


@dataclass
class Dataset:
    examples: list[Example] = field(default_factory=list)

    def __len__(self):
        return len(self.examples)

    def label_matrix(self) -> np.ndarray:
        """The (n, m) int64 labels."""
        return np.array([ex.labels for ex in self.examples], dtype=np.int64)

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(indices, mask) as (n, T) int64 and float64 arrays."""
        idx = np.array([ex.indices for ex in self.examples], dtype=np.int64)
        msk = np.array([ex.mask for ex in self.examples], dtype=np.float64)
        return idx, msk


@dataclass
class RawDataset:
    """Loaded but not yet encoded: raw token lists plus labels."""

    token_lists: list[list[str]]
    labels: list[list[int]]

    def __len__(self):
        return len(self.labels)


def load_semeval_tsv(path) -> RawDataset:
    """Load a SemEval 2018 E-c style TSV: ID, Tweet, then the 11 emotions.
    The ID column is required but not kept.

    The header must name the emotions in canonical order; labels are the
    literal strings "0"/"1"; the tweet must hold at least one token (it has
    no positions to attend over otherwise). Raises ParseError with the
    offending row number, or naming the file when it has no data rows.
    """
    lines = split_lines(read_text(path))
    if not lines:
        raise ParseError(f"{path}: empty file, expected a header row")
    header = lines[0].split("\t")
    expected = ["ID", "Tweet", *EMOTIONS]
    if len(header) != len(expected):
        raise ParseError(
            f"{path}: header has {len(header)} columns, expected {len(expected)}"
        )
    if [h.strip().lower() for h in header[2:]] != list(EMOTIONS):
        raise ParseError(f"{path}: emotion columns must be in order {EMOTIONS}")

    token_lists, labels = [], []
    for rownum, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        cols = line.split("\t")
        if len(cols) != len(expected):
            raise ParseError(
                f"{path}: row {rownum} has {len(cols)} columns, expected {len(expected)}"
            )
        values = cols[2:]
        if not _BINARY.issuperset(values):
            name, val = next((n, v) for n, v in zip(EMOTIONS, values) if v not in _BINARY)
            raise ParseError(f"{path}: row {rownum} has non-binary label {val!r} for {name}")
        row_labels = list(map(int, values))
        tokens = tokenize(cols[1])
        if not tokens:
            raise ParseError(f"{path}: row {rownum} has an empty tweet")
        token_lists.append(tokens)
        labels.append(row_labels)
    if not labels:
        raise ParseError(f"{path}: no data rows after the header")
    return RawDataset(token_lists=token_lists, labels=labels)


def encode(tokens: list[str], vocab: Vocabulary, max_len: int) -> tuple[list[int], list[int]]:
    """Map tokens to indices, truncate to max_len, right-pad with PAD.

    Returns (indices, mask) where mask marks real tokens with 1.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    kept = tokens[:max_len]
    lookup = vocab._index.get
    indices = [lookup(t, UNK_INDEX) for t in kept]
    mask = [1] * len(kept)
    pad = max_len - len(kept)
    return indices + [PAD_INDEX] * pad, mask + [0] * pad


def encode_dataset(raw: RawDataset, vocab: Vocabulary, max_len: int) -> Dataset:
    return Dataset(
        [Example(*encode(toks, vocab, max_len), labels) for toks, labels in zip(raw.token_lists, raw.labels)]
    )


@dataclass
class EmbeddingMatrix:
    """Frozen |vocab| x d_emb lookup table; row 0 (PAD) is all-zero."""

    weights: np.ndarray
    coverage: float  # fraction of vocabulary found in the embedding file

    @property
    def dim(self) -> int:
        return self.weights.shape[1]


# Characters of the float literals that np.loadtxt and float() read alike;
# copied values with any other character are parsed line by line instead.
_BULK_SAFE = b"0123456789eE+-.naifANIFtyTY \n"


def _parse_vectors(path, texts: list[str], lines: list[int], d_emb: int) -> np.ndarray:
    """The (len(texts), d_emb) values of space-separated vector texts.

    One bulk parse when every text uses only float-literal characters;
    otherwise, or if that parse fails, each text is parsed as float() parses
    its values, and the first non-numeric one is a ParseError naming its line.
    """
    joined = "\n".join(texts).encode("utf-8")
    if texts and not joined.translate(None, _BULK_SAFE):
        try:
            return np.loadtxt(texts, delimiter=" ", comments=None, ndmin=2)
        except ValueError:
            pass
    values = np.empty((len(texts), d_emb))
    for i, (text, lineno) in enumerate(zip(texts, lines)):
        try:
            values[i] = text.split(" ")
        except ValueError:
            raise ParseError(f"{path}: line {lineno} has a non-numeric value") from None
    return values


def load_embeddings(path, vocab: Vocabulary, d_emb: int, seed: int) -> EmbeddingMatrix:
    """Read "word v1 ... v_d" lines; fill missing rows from a seeded PRNG.

    Empty lines are skipped; every other line must hold d_emb values. In-file
    vectors are copied verbatim, the last line of a repeated word winning; a
    non-numeric value on a copied line, or a non-finite value in a copied
    vector, is a ParseError naming the line. The PAD row stays zero; UNK and
    out-of-file words get i.i.d. uniform(-0.05, 0.05) entries.
    """
    weights = random_embeddings(len(vocab), d_emb, seed).weights
    # vocabulary row, source line and value text of every line to copy
    rows, lines, texts = [], [], []

    lookup = vocab._index.get
    try:
        with open(path, encoding="utf-8-sig") as fh:  # one leading byte-order mark is not text
            for lineno, line in enumerate(fh, start=1):
                n_values = line.count(" ")  # one space before each value
                if not n_values and line == "\n":
                    continue
                if n_values != d_emb:
                    _parse_vectors(path, texts, lines, d_emb)  # an earlier non-numeric line comes first
                    raise ParseError(f"{path}: line {lineno} has {n_values} values, expected {d_emb}")
                cut = line.index(" ")
                idx = lookup(line[:cut], UNK_INDEX)
                if idx not in (PAD_INDEX, UNK_INDEX):
                    rows.append(idx)
                    lines.append(lineno)
                    texts.append(line[cut + 1 :].rstrip("\n"))
    except UnicodeDecodeError:
        read_text(path)  # the streamed read cannot place the bad bytes; this raises naming their line
        raise

    values = _parse_vectors(path, texts, lines, d_emb)
    last = dict(zip(rows, range(len(rows))))  # vocabulary row -> its last copied line
    idx = np.fromiter(last.keys(), dtype=np.int64, count=len(last))
    sel = np.fromiter(last.values(), dtype=np.int64, count=len(last))
    weights[idx] = values[sel]
    bad = ~np.isfinite(values[sel]).all(axis=1)
    if bad.any():
        raise ParseError(f"{path}: line {np.asarray(lines)[sel][bad].min()} has a non-finite value")
    coverage = float(len(last)) / max(len(vocab) - 2, 1)
    return EmbeddingMatrix(weights=weights, coverage=coverage)


def random_embeddings(vocab_size: int, d_emb: int, seed: int, scale: float = 0.05) -> EmbeddingMatrix:
    """Seeded uniform(-scale, scale) table for runs without a pretrained file."""
    if vocab_size < 2:
        raise ConfigError("vocabulary must contain at least PAD and UNK")
    rng = np.random.default_rng(seed)
    weights = rng.uniform(-scale, scale, size=(vocab_size, d_emb))
    weights[PAD_INDEX] = 0.0
    return EmbeddingMatrix(weights=weights, coverage=0.0)
