"""Round-tripping coefficient banks through the register packing.

The paper ships 64 3-bit signed correlator coefficients per bank (I
and Q), packed 10 per 32-bit word into 7 words each (register map
addresses 0..6 and 7..13).  These properties pin the packing down
bit-exactly: any legal bank survives the trip host -> packed words ->
register bus -> unpacked bank unchanged, and the writes never stray
outside the 24 registers the design claims.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.hw import register_map as regmap
from repro.hw.registers import UserRegisterBus, pack_signed_fields, \
    unpack_signed_fields
from repro.hw.uhd import UhdDriver
from repro.hw.usrp import UsrpN210

#: One full 64-element bank of 3-bit signed coefficients in [-4, 3].
coeff_banks = st.lists(
    st.integers(min_value=-(1 << (regmap.COEFF_BITS - 1)),
                max_value=(1 << (regmap.COEFF_BITS - 1)) - 1),
    min_size=regmap.CORRELATOR_LENGTH,
    max_size=regmap.CORRELATOR_LENGTH,
)


@given(coeff_banks)
@settings(max_examples=100, deadline=None)
def test_pack_unpack_is_bit_exact(bank):
    words = pack_signed_fields(bank, regmap.COEFF_BITS)
    assert len(words) == regmap.COEFF_WORDS
    assert all(0 <= word < (1 << regmap.COEFF_WORD_WIDTH) for word in words)
    recovered = unpack_signed_fields(words, regmap.COEFF_BITS,
                                     regmap.CORRELATOR_LENGTH)
    assert recovered == bank


@given(coeff_banks, coeff_banks)
@settings(max_examples=50, deadline=None)
def test_bus_roundtrip_through_the_driver(bank_i, bank_q):
    """Host -> UhdDriver -> register bus -> readback recovers the banks."""
    device = UsrpN210()
    driver = UhdDriver(device)
    driver.set_correlator_coefficients(np.asarray(bank_i),
                                       np.asarray(bank_q))

    words_i = [device.bus.read(regmap.REG_COEFF_I_BASE + k)
               for k in range(regmap.COEFF_WORDS)]
    words_q = [device.bus.read(regmap.REG_COEFF_Q_BASE + k)
               for k in range(regmap.COEFF_WORDS)]
    assert unpack_signed_fields(words_i, regmap.COEFF_BITS,
                                regmap.CORRELATOR_LENGTH) == bank_i
    assert unpack_signed_fields(words_q, regmap.COEFF_BITS,
                                regmap.CORRELATOR_LENGTH) == bank_q

    # The hardware block saw exactly what the host sent.
    loaded_i, loaded_q = device.core.correlator.bank_coefficients(0)
    assert loaded_i.tolist() == bank_i
    assert loaded_q.tolist() == bank_q


@given(coeff_banks, coeff_banks)
@settings(max_examples=25, deadline=None)
def test_coefficient_writes_stay_inside_the_claimed_footprint(bank_i, bank_q):
    """No coefficient write may land outside the paper's 24 registers."""
    touched: list[int] = []
    bus = UserRegisterBus()
    original_write = bus.write

    def recording_write(address, value):
        touched.append(address)
        original_write(address, value)

    bus.write = recording_write
    device = UsrpN210(bus=bus)
    driver = UhdDriver(device)
    driver.set_correlator_coefficients(np.asarray(bank_i),
                                       np.asarray(bank_q))
    assert touched, "the driver must actually write the bus"
    assert all(0 <= address < regmap.REGISTERS_USED for address in touched)
    assert max(touched) == regmap.REG_COEFF_Q_BASE + regmap.COEFF_WORDS - 1
