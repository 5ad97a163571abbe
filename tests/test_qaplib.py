import pytest
from hypothesis import given, settings

from qaplandscape import ParseError, generate_instance, parse_qaplib, serialize_qaplib
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
