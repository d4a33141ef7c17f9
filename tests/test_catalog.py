"""Catalog data, defining relations, and the file format."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2unitals import catalog
from sl2unitals.catalog import (
    F_MATRIX,
    G_MATRIX,
    ParseError,
    constants,
    load,
    parse,
    serialize,
)
from sl2unitals.design import HatSystem, check_P, check_Q

#: sha256 of ``serialize(load(name), name=name)``, the file ``export NAME`` writes.
#: The systems are built from the literal matrices alone, so these pin them.
EXPORT_SHA256 = {
    "classical8": "576d4f30c1962073a673f7aba54d239652fb9d472e4a3fa483bd180d5245ef8d",
    "wu": "b517b6cc19eeda6ccbb33d5671bf583752f8cdb92faaea61f0351db3e8a8e0ea",
    "ou": "945b32937559fce89689c6989c6b9bd509ae778818e36dd49a4e15e98a3980b3",
    "pu": "3b3141dd38da4b3cd9c90ab7611229d4e5c3e2a9f83a58cde06b66d3db86ed28",
}


class TestEntries:
    @pytest.mark.parametrize("name", catalog.NAMES)
    def test_serialized_bytes_are_pinned(self, name):
        text = serialize(load(name), name=name)
        assert hashlib.sha256(text.encode()).hexdigest() == EXPORT_SHA256[name]

    def test_all_load_and_validate(self, sl2):
        for name in catalog.NAMES:
            system = load(name)
            assert len(system.bases) == 6
            assert all(check_Q(sl2, b) for b in system.bases)
            assert check_P(system)

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown catalog entry"):
            load("easterunital")

    def test_wu_first_base_literal_entry(self, sl2):
        # the printed matrix (z^5, 1; z^5, z^6) has codes (7, 1, 7, 5)
        base = load("wu").bases[0]
        assert sl2.idx((7, 1, 7, 5)) in base

    def test_classical_frobenius_relations(self, sl2):
        system = load("classical8")
        fr = sl2.frob_index
        for lit, der1, der2 in ((0, 1, 2), (3, 4, 5)):
            once = tuple(sorted(int(fr[x]) for x in system.bases[lit]))
            twice = tuple(sorted(int(fr[x]) for x in once))
            assert once == system.bases[der1]
            assert twice == system.bases[der2]

    def test_ou_conjugation_relations(self, sl2):
        system = load("ou")
        gi = sl2.idx(G_MATRIX)
        for lit, der in ((0, 1), (1, 2), (3, 4), (4, 5)):
            conj = tuple(sorted(sl2.conj_idx(x, gi) for x in system.bases[lit]))
            assert conj == system.bases[der]

    def test_pu_shares_first_three_with_ou(self):
        assert load("pu").bases[:3] == load("ou").bases[:3]

    def test_pu_fourth_base_is_f_conjugate(self, sl2):
        fi = sl2.idx(F_MATRIX)
        d4f = tuple(sorted(sl2.conj_idx(x, fi) for x in load("ou").bases[3]))
        assert d4f == load("pu").bases[3]


class TestConstants:
    def test_orders(self, sl2, named):
        assert sl2.order_of_idx(sl2.idx(named.g)) == 9
        assert sl2.order_of_idx(sl2.idx(named.f)) == 2
        assert len(named.C) == 9
        assert len(named.F) == 2
        assert len(named.U) == 3
        assert len(named.L) == 3

    def test_U_generated_by_g_cubed(self, sl2, named):
        gi = sl2.idx(named.g)
        g3 = sl2.elements[sl2.cayley[sl2.cayley[gi, gi], gi]]
        assert named.U[1].conjugator == g3
        assert named.U[1].frob == 0

    def test_L_is_frobenius(self, sl2, named):
        assert named.L[1].conjugator == sl2.one
        assert named.L[1].frob == 1


class TestFileFormat:
    def test_round_trip_all_entries(self, sl2):
        for name in catalog.NAMES:
            system = load(name)
            text = serialize(system, name=name)
            back, meta = parse(text, group=sl2)
            assert back.subgroup == system.subgroup
            assert back.bases == system.bases
            assert meta["name"] == name
            # byte-stable round trip
            assert serialize(back, name=name) == text

    def test_header_lines(self):
        text = serialize(load("wu"), name="wu")
        lines = text.splitlines()
        assert lines[0] == "unital v1"
        assert lines[1] == "q 8"
        assert lines[2] == "modulus 11"

    def test_generator_subgroup_line(self, sl2):
        text = "\n".join(
            [
                "unital v1",
                "q 8",
                "modulus 11",
                "S gen 4 6 6 2",
            ]
            + [
                line
                for line in serialize(load("wu")).splitlines()
                if line.startswith("D ")
            ]
        )
        system, _ = parse(text, group=sl2)
        assert system.subgroup == load("wu").subgroup

    def test_bad_determinant_reports_line(self, sl2):
        text = serialize(load("wu"), name="wu")
        bad = text.replace("7 1 7 5", "7 1 7 4", 1)
        with pytest.raises(ParseError, match="determinant") as err:
            parse(bad, group=sl2)
        assert err.value.line == 6  # first base line

    def test_wrong_block_size_reports_line(self, sl2):
        lines = serialize(load("wu"), name="wu").splitlines()
        k = next(i for i, l in enumerate(lines) if l.startswith("D 1"))
        head, tail = lines[k].split(":", 1)
        mats = tail.split(",")[:-1]
        lines[k] = head + ":" + ",".join(mats)
        with pytest.raises(ParseError, match="expected 9"):
            parse("\n".join(lines), group=sl2)

    def test_missing_identity_rejected(self, sl2):
        text = serialize(load("wu"), name="wu")
        bad = text.replace("D 1 : 1 0 0 1 ,", "D 1 : 2 0 0 5 ,", 1)
        with pytest.raises(ParseError, match="identity"):
            parse(bad, group=sl2)

    def test_missing_header_rejected(self):
        with pytest.raises(ParseError, match="unital v1"):
            parse("q 8\nmodulus 11\n")

    def test_reducible_modulus_rejected(self):
        with pytest.raises(ParseError, match="irreducible"):
            parse("unital v1\nq 8\nmodulus 15\nS gen 4 6 6 2\n")

    def test_comments_ignored(self, sl2):
        text = serialize(load("ou"), name="ou")
        commented = "# banner\n" + text.replace("q 8", "q 8  # field size")
        system, _ = parse(commented, group=sl2)
        assert system.bases == load("ou").bases


def relabelled(group, system, alpha_index, picks):
    """The image of a hat system under the automorphism all_aut_maps[alpha_index],
    with base k moved through the identity by the inverse of its element picks[k]."""
    perm = group.aut_perm(group.all_aut_maps[alpha_index])
    cay, inv = group.cayley, group.inverse_index
    bases = []
    for base, pick in zip(system.bases, picks):
        image = sorted(int(perm[x]) for x in base)
        d_inv = int(inv[image[pick % len(image)]])
        bases.append(tuple(sorted(int(cay[x, d_inv]) for x in image)))
    return HatSystem(group, frozenset(int(perm[x]) for x in system.subgroup), tuple(bases))


#: Tokens that a mutated file may carry in place of one of its own.
JUNK_TOKENS = ["", "x", "-1", "0", "2", "4", "8", "11", "999", ",", ":", "S", "D", "q", "gen"]


class TestFileFormatProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        name=st.sampled_from(catalog.NAMES),
        alpha=st.integers(0, 1511),
        picks=st.lists(st.integers(0, 8), min_size=6, max_size=6),
    )
    def test_round_trip_relabelled(self, sl2, name, alpha, picks):
        system = relabelled(sl2, load(name, sl2), alpha, picks)
        text = serialize(system, name=name)
        back, meta = parse(text, group=sl2)
        assert (back.subgroup, back.bases, meta) == (system.subgroup, system.bases, {"name": name})
        assert serialize(back, name=name) == text

    @settings(max_examples=120, deadline=None)
    @given(
        name=st.sampled_from(catalog.NAMES),
        edits=st.lists(
            st.tuples(
                st.sampled_from(["drop", "duplicate", "swap", "replace"]),
                st.integers(0, 10**6),
                st.integers(0, 10**6),
                st.sampled_from(JUNK_TOKENS),
            ),
            min_size=1,
            max_size=3,
        ),
    )
    def test_mutated_file_raises_only_parse_error(self, sl2, name, edits):
        lines = serialize(load(name, sl2), name=name).splitlines()
        for op, i, j, token in edits:
            if not lines:
                break
            i, j = i % len(lines), j % len(lines)
            if op == "drop":
                del lines[i]
            elif op == "duplicate":
                lines.insert(j, lines[i])
            elif op == "swap":
                lines[i], lines[j] = lines[j], lines[i]
            else:
                words = lines[i].split(" ")
                words[j % len(words)] = token
                lines[i] = " ".join(words)
        try:
            parse("\n".join(lines) + "\n", group=sl2)
        except ParseError:
            pass

    @settings(max_examples=150, deadline=None)
    @given(
        name=st.sampled_from(catalog.NAMES),
        at=st.integers(0, 10**6),
        junk=st.binary(max_size=12),
        whole=st.binary(max_size=64),
    )
    def test_arbitrary_bytes_raise_only_parse_error(self, sl2, name, at, junk, whole):
        data = serialize(load(name, sl2), name=name).encode()
        at %= len(data) + 1
        for blob in (data[:at] + junk + data[at:], whole):
            try:
                parse(blob, group=sl2)
            except ParseError:
                pass

    def test_non_utf8_byte_reports_its_line(self, sl2):
        # lines end as str.splitlines ends them: \r\n, \r and U+2028 too
        data = b"unital v1\r\nq 8\rmodulus 11" + "\u2028".encode() + b"S \xfe"
        with pytest.raises(ParseError, match=r"^line 4: not UTF-8 text: byte 0xfe") as err:
            parse(data, group=sl2)
        assert err.value.line == 4
