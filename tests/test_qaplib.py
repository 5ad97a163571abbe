import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaplandscape import (
    ParseError, QapInstance, generate_instance, parse_qaplib, serialize_qaplib,
)
from qaplandscape import qaplib
from strategies import DECIMAL_ENTRY, qap_instances

SAMPLE = "3\n0 1 2\n1 0 3\n2 3 0\n0 5 5\n5 0 5\n5 5 0\n"


class TestParse:
    def test_sample_readback(self):
        inst = parse_qaplib(SAMPLE)
        assert inst.n == 3
        assert inst.r[0][1] == 1
        assert inst.r[1][2] == 3
        assert inst.w[0][1] == 5
        assert inst.exact

    def test_any_whitespace_layout(self):
        a = parse_qaplib(SAMPLE)
        b = parse_qaplib(SAMPLE.replace("\n", " ") + "   \n\t")
        assert a == b

    def test_flow_first_swaps_matrices(self):
        straight = parse_qaplib(SAMPLE)
        flipped = parse_qaplib(SAMPLE, flow_first=True)
        assert flipped.r == straight.w
        assert flipped.w == straight.r

    def test_size_below_minimum(self):
        with pytest.raises(ParseError, match="at least 3"):
            parse_qaplib("2\n0 1\n1 0\n0 1\n1 0\n")

    def test_token_count_short(self):
        text = "3\n" + " ".join(str(i) for i in range(17)) + "\n"
        with pytest.raises(ParseError, match="expected 19 tokens") as info:
            parse_qaplib(text)
        assert info.value.offset == len(text)

    def test_token_count_extra(self):
        text = SAMPLE + "99\n"
        with pytest.raises(ParseError, match="extra token") as info:
            parse_qaplib(text)
        assert info.value.offset == len(SAMPLE)

    def test_non_numeric_token_names_offset(self):
        text = "3\n0 1 2\n1 zap 3\n2 3 0\n0 5 5\n5 0 5\n5 5 0\n"
        with pytest.raises(ParseError, match="zap") as info:
            parse_qaplib(text)
        assert info.value.offset == text.index("zap")

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "infinity", "1e400"])
    def test_non_finite_token_names_offset(self, token):
        text = f"3\n0 1 2\n1 {token} 3\n2 3 0\n0 5 5\n5 0 5\n5 5 0\n"
        with pytest.raises(ParseError, match="non-finite") as info:
            parse_qaplib(text)
        assert info.value.offset == text.index(token)

    # float() reads digit separators and int() and float() read non-ASCII
    # digits; instance text holds neither.
    @pytest.mark.parametrize("token", ["1_000", "1_0.5", "1e1_0", "١٢", "３", "٣.5"])
    def test_separator_and_non_ascii_entries_are_refused(self, token):
        text = f"3\n0 1 2\n1 {token} 3\n2 3 0\n0 5 5\n5 0 5\n5 5 0\n"
        with pytest.raises(ParseError, match="non-numeric") as info:
            parse_qaplib(text)
        assert info.value.offset == text.index(token)

    @pytest.mark.parametrize("size", ["１２", "٣", "3_0"])
    def test_separator_and_non_ascii_size_is_refused(self, size):
        text = f"\n{size}\n" + SAMPLE[2:]
        with pytest.raises(ParseError, match="integer size") as info:
            parse_qaplib(text)
        assert info.value.offset == 1

    def test_non_numeric_size(self):
        with pytest.raises(ParseError, match="integer size"):
            parse_qaplib("x\n1 2 3\n")

    def test_empty_input(self):
        with pytest.raises(ParseError, match="empty"):
            parse_qaplib("   \n ")

    def test_float_entries_switch_mode(self):
        text = SAMPLE.replace("0 1 2", "0 1.5 2")
        inst = parse_qaplib(text)
        assert not inst.exact
        assert inst.r[0][1] == 1.5


class TestSerialize:
    def test_roundtrip_integers(self):
        for n, seed in [(3, 0), (5, 42), (8, 7)]:
            inst = generate_instance(n, seed, 0, 99)
            again = parse_qaplib(serialize_qaplib(inst))
            assert again == inst
            assert again.exact == inst.exact

    def test_roundtrip_floats(self):
        inst = generate_instance(4, 3, 0, 9).as_float()
        again = parse_qaplib(serialize_qaplib(inst))
        assert again == inst
        assert not again.exact

    @settings(max_examples=50, deadline=None)
    @given(qap_instances(entries=DECIMAL_ENTRY))
    def test_roundtrip_decimal_floats(self, inst):
        again = parse_qaplib(serialize_qaplib(inst))
        assert again == inst
        assert not again.exact


class TestGenerate:
    def test_determinism(self):
        assert generate_instance(4, 7, 0, 9) == generate_instance(4, 7, 0, 9)

    def test_seed_changes_output(self):
        assert generate_instance(4, 7, 0, 9) != generate_instance(4, 8, 0, 9)

    def test_degenerate_range(self):
        inst = generate_instance(3, 1, 5, 5)
        assert all(v == 5 for row in inst.r for v in row)
        assert all(v == 5 for row in inst.w for v in row)

    def test_entries_within_range(self):
        inst = generate_instance(5, 42, 0, 99)
        for row in list(inst.r) + list(inst.w):
            assert all(0 <= v <= 99 for v in row)

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_instance(2, 1, 0, 9)
        with pytest.raises(ValueError):
            generate_instance(4, 1, 5, 2)
        with pytest.raises(ValueError):
            generate_instance(4, 1, 0.5, 2)


def scanned(text, flow_first=False):
    """The instance the per-token scanner alone reads from text."""
    n, entries = qaplib._scan(text)
    first = [entries[i * n:(i + 1) * n] for i in range(n)]
    second = [entries[n * n + i * n:n * n + (i + 1) * n] for i in range(n)]
    return QapInstance(second, first) if flow_first else QapInstance(first, second)


def outcome(read, text, flow_first):
    """What a reader makes of text: the mode and the repr of every entry,
    which tells int from float and -0.0 from 0.0, or the error's type,
    message and offset."""
    try:
        inst = read(text, flow_first)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)
    return inst.exact, [repr(v) for row in (*inst.r, *inst.w) for v in row]


# Tokens the scanner refuses or reads otherwise than a plain int or float
# does: specials, digit separators, other scripts' digits, hex, ints beyond
# the float range or the int digit limit, and negative zeros; and valid
# tokens of unusual form.
ODD_TOKENS = [
    "inf", "-inf", "nan", "Infinity", "1e400", "-1e400", "1_0", "1_0.5", "1e1_0",
    "\u0663", "\uff13", "\u0663.5", "0x10", "0b1", "1e", ".", "+", "--1", "1.5.",
    "-0", "+0", "-00", "-0.0", "0", "007", "+5", "-5e-3", "2.5E+2", "1.", ".5",
    "9" * 400, "-" + "9" * 400, "9" * 5000, "1\x00", "e5",
]
ASCII_SEPARATORS = [" ", "\n", "\t", "  ", "\r\n", "\x0b", "\x0c", "\x1c"]
# Unicode whitespace, and a zero-width space, which is not whitespace.
SEPARATORS = ASCII_SEPARATORS + ["\x85", "\xa0", "\u2003", "\u3000", "\u200b"]
HEADS = ["3", "4", "+3", "03", "2", "x", "3.0", "\u0663", "3_0", "-3"]


@st.composite
def token_soups(draw):
    """Instance text from one pool of plain tokens, a few odd tokens put in
    at random places, and separators; mostly of the right length, so that
    many soups reach the one-split reading."""
    head = draw(st.sampled_from(["3"] * 24 + ["4"] * 8 + HEADS))
    n = int(head) if head in ("3", "4", "+3", "03") else 3
    count = 2 * n * n + draw(st.sampled_from([0] * 6 + [-1, 1]))
    plain = draw(st.sampled_from([
        st.integers(-10**30, 10**30).map(str),
        st.integers(-999, 999).map(lambda v: str(v / 100)),
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.integers(-99, 99).map(str) | st.integers(-99, 99).map(lambda v: f"{v}e{v % 7}"),
    ]))
    tokens = draw(st.lists(plain, min_size=count, max_size=count))
    odd = draw(st.sampled_from([None] + ODD_TOKENS))
    for _ in range(odd is not None and draw(st.integers(1, 2))):
        tokens[draw(st.integers(0, len(tokens) - 1))] = odd
    pool = draw(st.sampled_from([ASCII_SEPARATORS] * 2 + [SEPARATORS]))
    seps = draw(st.lists(st.sampled_from(pool), min_size=count + 2, max_size=count + 2))
    text = seps[0] + head + "".join(s + t for s, t in zip(seps[1:], tokens)) + seps[-1]
    return text, draw(st.booleans())


class TestOneSplit:
    """parse_qaplib reads well-formed text from one split and leaves the rest
    to the per-token scanner; either way it reads what the scanner reads."""

    @settings(max_examples=500, deadline=None)
    @given(token_soups())
    def test_agrees_with_the_scanner(self, soup):
        text, flow_first = soup
        assert outcome(parse_qaplib, text, flow_first) == outcome(scanned, text, flow_first)

    @pytest.mark.parametrize("token", ODD_TOKENS)
    def test_each_odd_token_agrees_with_the_scanner(self, token):
        for text in (SAMPLE.replace(" 3\n", f" {token}\n", 1),
                     SAMPLE.replace(" 3\n", f" {token}\n", 1).replace(" 5\n", " 0.5\n")):
            assert outcome(parse_qaplib, text, False) == outcome(scanned, text, False)

    @pytest.mark.parametrize("text", [
        SAMPLE,
        SAMPLE.replace("0 1 2", "0 1.5 2"),
        "3 " + " ".join(f"{v / 100:.2f}" for v in range(18)),
        SAMPLE.replace("\n", "\x0b\x1c"),
        SAMPLE.replace("1 0 3", "-1 +0 007"),
    ])
    def test_well_formed_text_takes_the_split(self, text):
        n, entries = qaplib._split(text)
        assert (n, entries) == qaplib._scan(text)
