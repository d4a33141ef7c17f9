"""Field arithmetic tests against an independent polynomial oracle."""

import pytest

from sl2unitals.gf2e import DEFAULT_MODULI, GF2e, is_irreducible


def poly_mul_mod(a: int, b: int, modulus: int) -> int:
    """Schoolbook coefficient convolution, then long division; written
    independently of the shift-and-reduce implementation."""
    prod = 0
    i = 0
    aa = a
    while aa:
        if aa & 1:
            prod ^= b << i
        aa >>= 1
        i += 1
    dm = modulus.bit_length() - 1
    while prod.bit_length() - 1 >= dm:
        prod ^= modulus << (prod.bit_length() - 1 - dm)
    return prod


@pytest.fixture(params=[1, 2, 3, 4, 5])
def field(request):
    return GF2e(request.param)


@pytest.fixture
def gf8():
    return GF2e(3)


class TestConstruction:
    def test_rejects_reducible_modulus(self):
        # X^3 + X^2 + X + 1 = (X+1)(X^2+1)
        with pytest.raises(ValueError, match="reducible"):
            GF2e(3, modulus=0b1111)

    def test_rejects_negative_modulus(self):
        # -7 has the bit length of X^2 + X + 1, but encodes no polynomial
        assert not is_irreducible(-7)
        with pytest.raises(ValueError, match="reducible"):
            GF2e(2, modulus=-7)

    def test_rejects_wrong_degree(self):
        with pytest.raises(ValueError, match="degree"):
            GF2e(3, modulus=0b111)

    def test_rejects_out_of_range_degree(self):
        with pytest.raises(ValueError):
            GF2e(6)

    def test_default_moduli_are_irreducible(self):
        for e, m in DEFAULT_MODULI.items():
            assert is_irreducible(m)
            assert m.bit_length() - 1 == e


class TestAdd:
    def test_self_inverse(self, field):
        for x in field.elements():
            assert field.add(x, x) == 0

    def test_z_plus_one_is_z_cubed(self, gf8):
        # z^3 = z + 1 under the default modulus: codes 2 + 1 = 3
        assert gf8.add(2, 1) == 3

    def test_xor_example(self, gf8):
        assert gf8.add(6, 5) == 3

    def test_commutative_associative(self, gf8):
        for a in gf8.elements():
            for b in gf8.elements():
                assert gf8.add(a, b) == gf8.add(b, a)
                for c in gf8.elements():
                    assert gf8.add(gf8.add(a, b), c) == gf8.add(a, gf8.add(b, c))


class TestMul:
    def test_identity(self, field):
        for x in field.elements():
            assert field.mul(x, 1) == x

    def test_z_times_z_squared(self, gf8):
        assert gf8.mul(2, 4) == 3

    def test_z5_squared(self, gf8):
        # z^5 * z^5 = z^10 = z^3, code 3 (frozen from the oracle below)
        assert poly_mul_mod(7, 7, 0b1011) == 3
        assert gf8.mul(7, 7) == 3

    def test_against_oracle_all_pairs(self, field):
        for a in field.elements():
            for b in field.elements():
                assert field.mul(a, b) == poly_mul_mod(a, b, field.modulus)

    def test_power_law(self, gf8):
        # mul(z^i, z^j) = z^((i+j) mod 7)
        pows = [1]
        for _ in range(6):
            pows.append(gf8.mul(pows[-1], 2))
        for i in range(7):
            for j in range(7):
                assert gf8.mul(pows[i], pows[j]) == pows[(i + j) % 7]


class TestInv:
    def test_one(self, field):
        assert field.inv(1) == 1

    def test_z_inverse(self, gf8):
        expected = [x for x in gf8.nonzero_elements() if gf8.mul(2, x) == 1]
        assert expected == [5]
        assert gf8.inv(2) == 5

    def test_zero_raises(self, field):
        with pytest.raises(ValueError, match="division by zero"):
            field.inv(0)

    def test_inverse_property(self, field):
        for x in field.nonzero_elements():
            assert field.mul(x, field.inv(x)) == 1


class TestFrobenius:
    def test_prime_field_fixed(self, field):
        assert field.frobenius(0, 1) == 0
        assert field.frobenius(1, 1) == 1

    def test_squares_z(self, gf8):
        assert gf8.frobenius(2, 1) == 4

    def test_order_e(self, field):
        for x in field.elements():
            assert field.frobenius(x, field.e) == x

    def test_is_automorphism(self, gf8):
        for a in gf8.elements():
            for b in gf8.elements():
                assert gf8.frobenius(gf8.add(a, b)) == gf8.add(
                    gf8.frobenius(a), gf8.frobenius(b)
                )
                assert gf8.frobenius(gf8.mul(a, b)) == gf8.mul(
                    gf8.frobenius(a), gf8.frobenius(b)
                )


class TestDiscriminant:
    def test_irreducible_case(self, gf8):
        assert gf8.discriminant_check(1, 1) is True

    def test_square_case(self, gf8):
        # X^2 + 1 = (X + 1)^2
        assert gf8.discriminant_check(1, 0) is False

    def test_matches_exhaustive_evaluation(self, gf8):
        for d in gf8.elements():
            for t in gf8.elements():
                has_root = any(
                    gf8.mul(x, x) ^ gf8.mul(t, x) ^ d == 0 for x in gf8.elements()
                )
                assert gf8.discriminant_check(d, t) == (not has_root)


class TestStructure:
    def test_distributivity_exhaustive(self, gf8):
        for a in gf8.elements():
            for b in gf8.elements():
                for c in gf8.elements():
                    assert gf8.mul(a, gf8.add(b, c)) == gf8.add(
                        gf8.mul(a, b), gf8.mul(a, c)
                    )

    def test_code_two_generates_multiplicative_group(self, gf8):
        seen = set()
        x = 1
        for _ in range(7):
            x = gf8.mul(x, 2)
            seen.add(x)
        assert seen == set(gf8.nonzero_elements())

    def test_power_table_matches_published_codes(self, gf8):
        pows = [1]
        for _ in range(6):
            pows.append(gf8.mul(pows[-1], 2))
        assert pows == [1, 2, 4, 3, 6, 7, 5]
