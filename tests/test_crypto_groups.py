"""Tests for group parameters and primality testing (repro.crypto.groups)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.groups import MODP_GROUPS, GroupParameters, generate_safe_prime_group, is_probable_prime, limbs
from repro.exceptions import ValidationError


class TestIsProbablePrime:
    @pytest.mark.parametrize("prime", [2, 3, 5, 7, 11, 13, 97, 65537, 2**31 - 1, 2**61 - 1])
    def test_known_primes(self, prime):
        assert is_probable_prime(prime)

    @pytest.mark.parametrize("composite", [0, 1, 4, 6, 9, 15, 21, 91, 561, 41041, 2**32, 2**61 - 3])
    def test_known_composites_and_non_primes(self, composite):
        assert not is_probable_prime(composite)

    def test_carmichael_numbers_detected(self):
        # Carmichael numbers fool Fermat tests but not Miller-Rabin.
        for carmichael in (561, 1105, 1729, 2465, 2821, 6601):
            assert not is_probable_prime(carmichael)

    def test_large_known_prime(self):
        assert is_probable_prime((1 << 521) - 1)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=2, max_value=10_000))
    def test_property_agrees_with_trial_division(self, n):
        by_trial = all(n % d for d in range(2, int(n**0.5) + 1)) and n >= 2
        assert is_probable_prime(n) == by_trial


class TestGroupParameters:
    def test_rfc_groups_have_prime_modulus(self):
        for group in MODP_GROUPS.values():
            assert is_probable_prime(group.prime)

    def test_rfc_group_bit_lengths(self):
        assert MODP_GROUPS["modp-1536"].bit_length == 1536
        assert MODP_GROUPS["modp-2048"].bit_length == 2048
        assert MODP_GROUPS["modp-3072"].bit_length == 3072

    def test_power_matches_builtin_pow(self):
        group = MODP_GROUPS["modp-1536"]
        assert group.power(2, 10) == pow(2, 10, group.prime)

    @pytest.mark.parametrize("bits", [8, 16, 64, 127])
    def test_generator_powers_equal_pow(self, bits):
        # The cross-device harness's public keys: g**x for every exponent below p, window edges included.
        group = generate_safe_prime_group(bits, 7)
        prime = group.prime
        exponents = [0, 1, 2, 63, 64, 65, prime - 2, prime - 1] + [
            group.element_from_seed("dh-private", i, 7) for i in range(40)
        ]
        assert group.generator_powers(exponents) == [pow(group.generator, x, prime) for x in exponents]

    def test_rejects_tiny_prime(self):
        with pytest.raises(ValidationError):
            GroupParameters(prime=3, generator=2)

    def test_rejects_out_of_range_generator(self):
        with pytest.raises(ValidationError):
            GroupParameters(prime=23, generator=23)

    def test_element_from_seed_in_range_and_deterministic(self):
        group = GroupParameters(prime=2027, generator=2)
        e1 = group.element_from_seed("owner", 1)
        e2 = group.element_from_seed("owner", 1)
        assert e1 == e2
        assert 2 <= e1 <= group.prime - 2


class TestGenerateSafePrimeGroup:
    def test_produces_a_safe_prime(self):
        group = generate_safe_prime_group(48, seed="test")
        p = group.prime
        assert is_probable_prime(p)
        assert is_probable_prime((p - 1) // 2)

    def test_deterministic_for_same_seed(self):
        a = generate_safe_prime_group(40, seed="x")
        b = generate_safe_prime_group(40, seed="x")
        assert a.prime == b.prime and a.generator == b.generator

    def test_different_seeds_give_different_groups(self):
        a = generate_safe_prime_group(40, seed="x")
        b = generate_safe_prime_group(40, seed="y")
        assert a.prime != b.prime

    def test_generator_is_in_group(self):
        group = generate_safe_prime_group(32, seed="g")
        assert 1 < group.generator < group.prime

    def test_generator_has_subgroup_order_q(self):
        group = generate_safe_prime_group(32, seed="q")
        q = (group.prime - 1) // 2
        assert pow(group.generator, q, group.prime) == 1

    def test_rejects_out_of_range_bits(self):
        with pytest.raises(ValidationError):
            generate_safe_prime_group(4)
        with pytest.raises(ValidationError):
            generate_safe_prime_group(4096)


class TestLimbs:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 2**200 - 1), max_size=8))
    def test_property_rows_reassemble_to_the_values(self, values):
        rows = limbs(values, 8)
        assert rows.shape == (8, len(values))
        assert int(rows.max(initial=0)) < 2**27
        assert [sum(int(v) << (27 * j) for j, v in enumerate(col)) for col in rows.T] == values

    # One limb, the 65-bit harness group and three limbs; on the last two these
    # lanes leave the kernel's accumulator in [p, 2p), so the exit subtract is needed.
    @pytest.mark.parametrize("bits", [24, 64, 78])
    def test_power_limbs_results_lie_below_p(self, bits):
        group = generate_safe_prime_group(bits, "pin")
        p = group.prime
        bases = [p - 1, p - 2, 2, 3, p // 2] * 4
        exponents = [p - 2, 3, p - 1, 2**40 + 7, p - 3] * 4
        exponent_rows = limbs(exponents, -(-max(exponents).bit_length() // 27))  # as many rows as they need
        rows = group.power_limbs(limbs(bases, group.n_limbs), exponent_rows)
        assert rows.dtype == np.uint64 and int(rows.max()) < 2**27
        values = [sum(int(v) << (27 * j) for j, v in enumerate(col)) for col in rows.T]
        assert values == [pow(b, e, p) for b, e in zip(bases, exponents)]
        assert max(values) < p
