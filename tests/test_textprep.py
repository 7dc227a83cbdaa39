import random
import re
from collections import Counter

import numpy as np
import pytest

from panemo import textprep as tp
from panemo import verify
from panemo.errors import ParseError


class TestTokenize:
    def test_lowercase(self):
        assert tp.tokenize("Hello WORLD") == ["hello", "world"]

    def test_url_and_mention(self):
        assert tp.tokenize("see http://t.co/x @bob") == ["see", "<url>", "<user>"]

    def test_elongation_punct_hashtag(self):
        assert tp.tokenize("soooo happy!!! #blessed") == [
            "soo", "happy", "!", "!", "!", "<hashtag>", "blessed",
        ]

    def test_numbers(self):
        assert tp.tokenize("won 100 times") == ["won", "<number>", "times"]

    def test_empty(self):
        assert tp.tokenize("") == []

    def test_punctuation_split(self):
        assert tp.tokenize("no,way") == ["no", ",", "way"]

    def test_matches_reference_oracle(self):
        rng = random.Random(13)
        texts = [verify.random_tweet_text(rng) for _ in range(5000)]
        mismatches = [t for t in texts if tp.tokenize(t) != verify.reference_tokenize(t)]
        assert mismatches == []
        # the texts reach both sides of every shortcut
        lowered = [t.lower() for t in texts]
        for trigger in ("http", "www.", "@", "#"):
            assert 0.1 < sum(trigger in t for t in lowered) / len(texts) < 0.9, trigger
        pieces = [p for t in lowered for p in t.split()]
        assert 0.1 < sum(p.isalpha() for p in pieces) / len(pieces) < 0.9
        assert any(p.isalpha() and not p.isascii() for p in pieces)
        for char in ("\u200b", "\x1c", "<url>", "<<url>>", "ǅ", "İ", "ß", "ﬁ", "١", "²", "Ａ"):
            assert any(char in t for t in texts), char


def index_of(vocab, *tokens):
    """The vocabulary rows of ``tokens``, looked up through ``encode``."""
    return tp.encode(list(tokens), vocab, len(tokens))[0]


class TestVocabulary:
    def test_build_min_count_1(self):
        vocab = tp.build_vocabulary([["a", "b", "a"]], min_count=1)
        assert index_of(vocab, "a", "b") == [2, 3]
        assert index_of(vocab, tp.PAD, tp.UNK) == [0, 1]
        assert len(vocab) == 4

    def test_build_min_count_2(self):
        vocab = tp.build_vocabulary([["a", "b", "a"]], min_count=2)
        assert vocab.tokens == [tp.PAD, tp.UNK, "a"]
        assert index_of(vocab, "b") == [tp.UNK_INDEX]  # unknown falls back to UNK

    def test_indices_independent_of_document_boundaries(self):
        docs = [["x", "y"], ["y", "z", "x"]]
        vocab = tp.build_vocabulary(docs, min_count=1)
        counts = Counter(t for d in docs for t in d)  # brute-force frequency oracle
        for tok in counts:
            assert tok in vocab.tokens
        # first-appearance order across the flattened corpus
        assert vocab.tokens[2:] == ["x", "y", "z"]

    def test_constructor_keeps_first_appearance(self):
        tokens = ["b", "a", "b", tp.UNK, "c", tp.PAD, "a", "<PAD>"]
        index = {}  # oracle: add the tokens one by one after PAD and UNK, skipping repeats
        for tok in [tp.PAD, tp.UNK, *tokens]:
            index.setdefault(tok, len(index))
        vocab = tp.Vocabulary(tokens)
        assert vocab.tokens == list(index) == [tp.PAD, tp.UNK, "b", "a", "c", "<PAD>"]
        queries = [*tokens, "unseen"]
        assert index_of(vocab, *queries) == [index.get(t, tp.UNK_INDEX) for t in queries]
        assert len(vocab) == len(index)

    def test_build_min_count_2_first_appearance_across_documents(self):
        docs = [["e", "b", "a"], ["c", "a", "d"], ["b", "c", "f", "e"]]
        vocab = tp.build_vocabulary(docs, min_count=2)
        assert vocab.tokens == [tp.PAD, tp.UNK, "e", "b", "a", "c"]
        assert index_of(vocab, *"abcdef") == [4, 3, 5, tp.UNK_INDEX, 2, tp.UNK_INDEX]

    def test_empty_corpus(self):
        with pytest.raises(ValueError):
            tp.build_vocabulary([], min_count=1)


HEADER = "ID\tTweet\t" + "\t".join(tp.EMOTIONS)


class TestLoadTsv:
    def test_paper_example_row(self, tmp_path):
        row = "2017-En-1\tThe best revenge is massive success.\t1\t0\t0\t0\t1\t0\t1\t0\t0\t0\t0"
        path = tmp_path / "d.tsv"
        path.write_text(HEADER + "\n" + row + "\n")
        raw = tp.load_semeval_tsv(path)
        assert len(raw) == 1
        active = {n for n, v in zip(tp.EMOTIONS, raw.labels[0]) if v}
        assert active == {"anger", "joy", "optimism"}
        assert raw.token_lists[0][0] == "the"

    def test_header_only(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text(HEADER + "\n\n")
        with pytest.raises(ParseError, match=re.escape(f"{path}: no data rows")):
            tp.load_semeval_tsv(path)

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text(HEADER + "\nid\ttext\t" + "\t".join(["0"] * 10) + "\n")
        with pytest.raises(ParseError, match="row 2"):
            tp.load_semeval_tsv(path)

    def test_non_binary_label(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text(HEADER + "\nid\ttext\t2" + "\t0" * 10 + "\n")
        with pytest.raises(ParseError, match="non-binary"):
            tp.load_semeval_tsv(path)

    def test_empty_tweet(self, tmp_path):
        path = tmp_path / "d.tsv"
        good = "id\tfine words\t" + "\t".join(["0"] * 11)
        path.write_text(HEADER + "\n" + good + "\nid2\t  \t" + "\t".join(["0"] * 11) + "\n")
        with pytest.raises(ParseError, match=r"d\.tsv: row 3 has an empty tweet"):
            tp.load_semeval_tsv(path)

    def test_wrong_header_order(self, tmp_path):
        bad = "ID\tTweet\t" + "\t".join(reversed(tp.EMOTIONS))
        path = tmp_path / "d.tsv"
        path.write_text(bad + "\n")
        with pytest.raises(ParseError):
            tp.load_semeval_tsv(path)

    def test_row_order_preserved_and_supports_match_brute_force(self, tmp_path):
        rng = np.random.default_rng(5)
        rows = []
        for i in range(20):
            labels = rng.integers(0, 2, 11)
            rows.append(f"id-{i}\ttweet number {i}\t" + "\t".join(map(str, labels)))
        path = tmp_path / "d.tsv"
        path.write_text(HEADER + "\n" + "\n".join(rows) + "\n")
        raw = tp.load_semeval_tsv(path)
        assert raw.labels == [list(map(int, r.split("\t")[2:])) for r in rows]
        # brute-force per-emotion support count straight off the file text
        file_rows = [r.split("\t")[2:] for r in rows]
        for c in range(11):
            expected = sum(int(r[c]) for r in file_rows)
            assert sum(lab[c] for lab in raw.labels) == expected

    def test_unicode_line_boundary_stays_in_its_row(self, tmp_path):
        # str.splitlines would cut this row at U+2028 and at U+0085
        path = tmp_path / "d.tsv"
        path.write_text(HEADER + "\nid\tfirst\u2028second\x85third\t1" + "\t0" * 10 + "\n", encoding="utf-8")
        raw = tp.load_semeval_tsv(path)
        assert raw.token_lists == [["first", "second", "third"]]
        assert raw.labels == [[1] + [0] * 10]

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_crlf_and_cr_line_ends(self, tmp_path, newline):
        labels = ["\t".join("1" if c == i else "0" for c in range(11)) for i in range(3)]
        rows = [HEADER] + [f"id-{i}\ttweet {i}\t{labels[i]}" for i in range(3)]
        path = tmp_path / "d.tsv"
        path.write_bytes((newline.join(rows) + newline).encode())
        raw = tp.load_semeval_tsv(path)
        assert len(raw) == 3
        assert [lab.index(1) for lab in raw.labels] == [0, 1, 2]


def test_split_lines_breaks_only_at_universal_newlines():
    text = "a\rb\r\nc\n\nd\u2028e\x85f\x0bg\x0ch\x1ci\x1dj\x1ek\u2029l\n"
    assert tp.split_lines(text) == ["a", "b", "c", "", "d\u2028e\x85f\x0bg\x0ch\x1ci\x1dj\x1ek\u2029l"]
    assert tp.split_lines("") == [] and tp.split_lines("x") == ["x"] and tp.split_lines("\n") == [""]


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["LF", "CR LF", "CR"])
def test_decode_text_names_the_line_that_split_lines_gives(newline):
    data = newline.join([b"a", b"b", b"c\xe9", b"d"]) + newline
    with pytest.raises(ParseError, match=r"^d\.tsv: line 3 is not UTF-8$"):
        tp.decode_text(data, "d.tsv")


BOM = b"\xef\xbb\xbf"  # the UTF-8 byte-order mark


def test_decode_text_drops_one_leading_byte_order_mark():
    assert tp.decode_text(BOM + b"I love it\n", "t.txt") == "I love it\n"
    assert tp.decode_text(BOM + BOM + b"x", "t.txt") == "\ufeffx"
    assert tp.decode_text(b"x" + BOM, "t.txt") == "x\ufeff"


def test_byte_order_mark_keeps_the_line_of_a_bad_byte(tmp_path):
    # the bad byte follows a line end, so a line count off by the mark's 3 bytes misses that end
    with pytest.raises(ParseError, match=r"^d\.tsv: line 3 is not UTF-8$"):
        tp.decode_text(BOM + b"a\nb\n\xe9c\n", "d.tsv")
    path = tmp_path / "vec.txt"
    path.write_bytes(BOM + b"cat 1.0 2.0\ndog 1.0 2.0\n\xe9 1.0 2.0\n")
    with pytest.raises(ParseError, match=r"vec\.txt: line 3 is not UTF-8$"):
        tp.load_embeddings(path, tp.build_vocabulary([["cat", "dog"]]), 2, seed=0)


class TestEncode:
    def test_padding(self):
        vocab = tp.build_vocabulary([["cat"]])
        indices, mask = tp.encode(["cat"], vocab, max_len=3)
        assert indices == [2, 0, 0]
        assert mask == [1, 0, 0]

    def test_unknown_token(self):
        vocab = tp.build_vocabulary([["cat"]])
        indices, _ = tp.encode(["dog"], vocab, max_len=2)
        assert indices[0] == tp.UNK_INDEX

    def test_truncation(self):
        vocab = tp.build_vocabulary([["a"]])
        indices, mask = tp.encode(["a"] * 60, vocab, max_len=50)
        assert len(indices) == 50 and mask == [1] * 50

    def test_roundtrip_up_to_truncation(self):
        tokens = ["the", "cat", "sat", "on", "the", "mat"]
        vocab = tp.build_vocabulary([tokens])
        indices, mask = tp.encode(tokens, vocab, max_len=4)
        decoded = [vocab.tokens[i] for i, m in zip(indices, mask) if m]
        assert decoded == tokens[:4]

    def test_deterministic(self):
        vocab = tp.build_vocabulary([["a", "b"]])
        assert tp.encode(["a", "b"], vocab, 5) == tp.encode(["a", "b"], vocab, 5)

    def test_dataset_arrays(self):
        raw = tp.RawDataset(
            token_lists=[["x", "y"], ["y"], ["z", "x", "y", "w"]],
            labels=[[1] + [0] * 10, [0] * 10 + [1], [1, 1] + [0] * 9],
        )
        dataset = tp.encode_dataset(raw, tp.build_vocabulary(raw.token_lists), max_len=3)
        idx, msk = dataset.arrays()
        lab = dataset.label_matrix()
        assert idx.dtype == lab.dtype == np.int64 and msk.dtype == np.float64
        assert idx.tolist() == [ex.indices for ex in dataset.examples]
        assert msk.tolist() == [[1, 1, 0], [1, 0, 0], [1, 1, 1]]
        assert lab.tolist() == raw.labels


class TestLoadEmbeddings:
    def test_copy_and_pad_zero(self, tmp_path):
        vocab = tp.build_vocabulary([["cat"]])
        path = tmp_path / "vec.txt"
        path.write_text("cat 1.0 2.0\n")
        emb = tp.load_embeddings(path, vocab, d_emb=2, seed=0)
        np.testing.assert_array_equal(emb.weights[index_of(vocab, "cat")], [[1.0, 2.0]])
        np.testing.assert_array_equal(emb.weights[tp.PAD_INDEX], [0.0, 0.0])
        assert np.all(np.abs(emb.weights[tp.UNK_INDEX]) <= 0.05)

    def test_rows_not_copied_are_the_seeded_random_table(self, tmp_path):
        vocab = tp.build_vocabulary([["cat", "dog", "bird"]])
        path = tmp_path / "vec.txt"
        path.write_text("dog 1.0 2.0\n")
        emb = tp.load_embeddings(path, vocab, 2, seed=7)
        table = tp.random_embeddings(len(vocab), 2, seed=7).weights
        dog = index_of(vocab, "dog")[0]
        assert emb.weights[dog].tolist() == [1.0, 2.0]
        others = [i for i in range(len(vocab)) if i != dog]
        assert emb.weights[others].tobytes() == table[others].tobytes()

    def test_byte_order_mark_is_not_part_of_the_first_word(self, tmp_path):
        vocab = tp.build_vocabulary([["the", "cat", "dog"]])
        plain, marked = tmp_path / "plain.txt", tmp_path / "bom.txt"
        plain.write_text("the 1.0 2.0\ncat 3.0 4.0\n")
        marked.write_bytes(BOM + plain.read_bytes())
        want = tp.load_embeddings(plain, vocab, 2, seed=7)
        got = tp.load_embeddings(marked, vocab, 2, seed=7)
        assert got.weights.tobytes() == want.weights.tobytes()
        assert got.coverage == want.coverage == 2 / 3

    def test_same_seed_bit_identical(self, tmp_path):
        vocab = tp.build_vocabulary([["cat", "dog", "bird"]])
        path = tmp_path / "vec.txt"
        path.write_text("cat 1.0 2.0\n")
        a = tp.load_embeddings(path, vocab, 2, seed=7)
        b = tp.load_embeddings(path, vocab, 2, seed=7)
        assert a.weights.tobytes() == b.weights.tobytes()

    def test_coverage_matches_file_scan(self, tmp_path):
        words = [f"w{i}" for i in range(10)]
        vocab = tp.build_vocabulary([words])
        in_file = words[:4] + ["other1", "other2"]
        path = tmp_path / "vec.txt"
        path.write_text("".join(f"{w} 0.1 0.2 0.3\n" for w in in_file))
        emb = tp.load_embeddings(path, vocab, 3, seed=0)
        # independent scan of the file text
        file_words = {line.split(" ")[0] for line in path.read_text().splitlines()}
        expected = len([w for w in words if w in file_words]) / len(words)
        assert emb.coverage == expected

    def test_wrong_arity(self, tmp_path):
        vocab = tp.build_vocabulary([["cat"]])
        path = tmp_path / "vec.txt"
        path.write_text("cat 1.0 2.0 3.0\n")
        with pytest.raises(ParseError, match="line 1"):
            tp.load_embeddings(path, vocab, d_emb=2, seed=0)

    @pytest.mark.parametrize("bad", ["abc", "nan", "-inf", "1e999"])
    def test_bad_value_on_copied_line(self, tmp_path, bad):
        vocab = tp.build_vocabulary([["cat", "dog"]])
        path = tmp_path / "vec.txt"
        path.write_text(f"cat 1.0 2.0\nowl {bad} 0.0\ndog 0.5 {bad}\n")
        with pytest.raises(ParseError, match="line 3"):
            tp.load_embeddings(path, vocab, d_emb=2, seed=0)

    def test_last_occurrence_wins(self, tmp_path):
        vocab = tp.build_vocabulary([["cat", "dog"]])
        path = tmp_path / "vec.txt"
        path.write_text("cat 1.0 2.0\ndog nan 0.0\ncat 3.0 4.0\ndog 5.0 6.0\n")
        emb = tp.load_embeddings(path, vocab, d_emb=2, seed=0)
        np.testing.assert_array_equal(emb.weights[index_of(vocab, "cat", "dog")], [[3.0, 4.0], [5.0, 6.0]])
        assert emb.coverage == 1.0

    def test_wrong_arity_of_word_not_in_vocabulary(self, tmp_path):
        vocab = tp.build_vocabulary([["cat"]])
        path = tmp_path / "vec.txt"
        path.write_text("cat 1.0 2.0\nowl 1.0\n")
        with pytest.raises(ParseError, match="line 2 has 1 values, expected 2"):
            tp.load_embeddings(path, vocab, d_emb=2, seed=0)

    @pytest.mark.parametrize("line", ["happy\t0.1\t0.2\t0.3", "day"])
    def test_line_without_values_is_rejected(self, tmp_path, line):
        vocab = tp.build_vocabulary([["happy", "day"]])
        path = tmp_path / "vec.txt"
        path.write_text(line + "\nday 0.1 0.2 0.3\n")
        with pytest.raises(ParseError, match="line 1 has 0 values, expected 3"):
            tp.load_embeddings(path, vocab, d_emb=3, seed=0)

    def test_empty_lines_are_skipped(self, tmp_path):
        vocab = tp.build_vocabulary([["cat"]])
        path = tmp_path / "vec.txt"
        path.write_bytes(b"\n\r\ncat 1.0 2.0\r\n\n")
        emb = tp.load_embeddings(path, vocab, d_emb=2, seed=0)
        np.testing.assert_array_equal(emb.weights[index_of(vocab, "cat")], [[1.0, 2.0]])

    def test_non_numeric_line_reported_before_later_wrong_arity(self, tmp_path):
        vocab = tp.build_vocabulary([["cat"]])
        path = tmp_path / "vec.txt"
        path.write_text("cat 1.0 x\nowl 1.0\n")
        with pytest.raises(ParseError, match="line 1 has a non-numeric value"):
            tp.load_embeddings(path, vocab, d_emb=2, seed=0)

    @pytest.mark.parametrize("text, value", [("1_0", 10.0), ("١", 1.0), ("+1e2", 100.0)])
    def test_values_read_as_float_reads_them(self, tmp_path, text, value):
        vocab = tp.build_vocabulary([["cat", "dog"]])
        path = tmp_path / "vec.txt"
        path.write_text(f"cat {text} 2.0\ndog 0.5 0.25\n", encoding="utf-8")
        emb = tp.load_embeddings(path, vocab, d_emb=2, seed=0)
        np.testing.assert_array_equal(emb.weights[index_of(vocab, "cat", "dog")], [[value, 2.0], [0.5, 0.25]])
