"""Tests for the simulated address space and MTA hashing (repro.arch.memory)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.memory import AddressSpace, bank_of, hash_address
from repro.errors import ConfigurationError


class TestAddressSpace:
    def test_allocations_are_disjoint_and_aligned(self):
        sp = AddressSpace(align=64)
        a = sp.alloc("a", 100)
        b = sp.alloc("b", 10)
        assert a.base % 64 == 0
        assert b.base % 64 == 0
        assert b.base >= a.end

    def test_addr_scalar_and_array(self):
        sp = AddressSpace()
        a = sp.alloc("a", 10)
        assert a.addr(3) == a.base + 3
        arr = a.addr(np.array([0, 9]))
        assert arr.tolist() == [a.base, a.base + 9]

    def test_addr_bounds_checked_for_scalars(self):
        sp = AddressSpace()
        a = sp.alloc("a", 10)
        with pytest.raises(IndexError):
            a.addr(10)
        with pytest.raises(IndexError):
            a.addr(-1)

    @pytest.mark.parametrize("index", [10, 11, -1, -10, np.int64(10), np.int64(-1)])
    def test_addr_out_of_range_int_and_np_int64(self, index):
        a = AddressSpace().alloc("a", 10)
        with pytest.raises(IndexError, match="out of bounds for allocation 'a'"):
            a.addr(index)

    def test_addr_in_range_int_and_np_int64_agree(self):
        sp = AddressSpace()
        sp.alloc("pad", 5)
        a = sp.alloc("a", 10)
        for i in range(10):
            assert a.addr(i) == a.addr(np.int64(i)) == a.base + i
            assert type(a.addr(i)) is int and type(a.addr(np.int64(i))) is int

    def test_addr_arrays_keep_vector_path(self):
        a = AddressSpace().alloc("a", 10)
        out = a.addr([1, 2])
        assert isinstance(out, np.ndarray) and out.dtype == np.int64
        assert a.addr(np.arange(3)).tolist() == [a.base, a.base + 1, a.base + 2]

    def test_duplicate_name_rejected(self):
        sp = AddressSpace()
        sp.alloc("a", 1)
        with pytest.raises(ConfigurationError):
            sp.alloc("a", 1)

    def test_negative_length_rejected(self):
        with pytest.raises(ConfigurationError):
            AddressSpace().alloc("a", -1)

    def test_lookup_and_contains(self):
        sp = AddressSpace()
        a = sp.alloc("a", 5)
        assert sp["a"] is a
        assert "a" in sp
        assert "b" not in sp

    def test_size_high_water_mark(self):
        sp = AddressSpace(align=1)
        sp.alloc("a", 5)
        sp.alloc("b", 3)
        assert sp.size == 8

    def test_bad_alignment_rejected(self):
        with pytest.raises(ConfigurationError):
            AddressSpace(align=0)


class TestHashAddress:
    def test_scalar_and_vector_agree(self):
        addrs = np.arange(100, dtype=np.int64)
        vec = hash_address(addrs)
        for i in range(100):
            assert int(vec[i]) == hash_address(i)

    def test_injective_on_sample(self):
        addrs = np.arange(100_000, dtype=np.int64)
        hashed = hash_address(addrs)
        assert len(np.unique(hashed)) == len(addrs)

    def test_scrambles_consecutive_addresses(self):
        # consecutive logical words must land on unrelated banks
        banks = bank_of(np.arange(1024), n_banks=64)
        counts = np.bincount(banks, minlength=64)
        # roughly uniform: no bank more than 3x the mean
        assert counts.max() <= 3 * counts.mean()

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2**40))
    def test_property_hash_in_64bit_range(self, addr):
        h = hash_address(addr)
        assert 0 <= h < 2**64


class TestBankOf:
    def test_in_range(self):
        banks = bank_of(np.arange(1000), n_banks=16)
        assert banks.min() >= 0
        assert banks.max() < 16

    def test_scalar(self):
        assert 0 <= bank_of(12345, 8) < 8

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ConfigurationError):
            bank_of(0, 12)
