"""Layout of the 24 user registers used by the custom DSP core.

The paper states the design uses 24 of the available 255 user registers
for "run-time updates of cross-correlator coefficients, detection
thresholds, jammer settings, and antenna control signals".  This module
pins down a concrete layout with the same footprint:

==========  =====================================================
Address     Contents
==========  =====================================================
0 .. 6      I correlator coefficients, 64 x 3-bit signed, packed
            10 per 32-bit word (LSB first)
7 .. 13     Q correlator coefficients, same packing
14          cross-correlation detection threshold (unsigned)
15          energy threshold HIGH, dB x 256 (Q8.8 unsigned)
16          energy threshold LOW, dB x 256 (Q8.8 unsigned)
17          trigger configuration: three 4-bit stage source fields
            (bits 0-3, 4-7, 8-11) + stage-enable bits 12-14
18          trigger combination window, baseband samples
19          jam delay after trigger, baseband samples
20          jam uptime, baseband samples (full 32-bit range:
            1 sample = 40 ns up to 2^32 samples ~ 40 s... clipped
            to 2^32 - 1 by the bus width)
21          jam waveform select (bits 0-1) + WGN seed (bits 2-31)
22          control flags: bit 0 jammer enable, bit 1 continuous
            (jam regardless of triggers), bit 2 replay-capture
            freeze, bits 8-15 antenna control
23          replay length, samples (1..512)
==========  =====================================================

The multi-standard correlator bank (the Drexel lab's FPGA packet
detector generalized onto this core) extends the layout past the
paper's 24 registers with a bank-select write window plus per-bank
thresholds:

==========  =====================================================
Address     Contents
==========  =====================================================
24          bank count: 0 = banked mode off (the paper's
            correlator), 1..4 = number of active stacked banks
25          bank select: which bank (0..3) the coefficient write
            window at 26..39 targets
26 .. 32    selected bank's I coefficients, same 3-bit packing
33 .. 39    selected bank's Q coefficients, same packing
40 .. 43    per-bank correlation thresholds (direct-mapped, one
            register per bank — not windowed, so the host can
            retune any bank's threshold in one write)
==========  =====================================================

The windowed coefficient path mirrors how the real register bus
hot-swaps banks: the host parks the select register on a bank, streams
the 14 coefficient words, and the core latches them into that bank's
shadow storage — taking effect on the next processed chunk when the
bank is live.  ``REGISTERS_USED`` stays the paper's 24 (the base
core); ``TOTAL_REGISTERS_USED`` covers the banked extension.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Bits per packed correlator coefficient (3-bit signed, paper Fig. 3).
COEFF_BITS = 3

#: Coefficients per 32-bit register word (floor(32 / 3)).
COEFFS_PER_WORD = 32 // COEFF_BITS

#: Correlator length in samples (fixed by the WARP reference core).
CORRELATOR_LENGTH = 64

#: Words needed to carry one 64-coefficient bank.
COEFF_WORDS = -(-CORRELATOR_LENGTH // COEFFS_PER_WORD)  # ceil division -> 7

REG_COEFF_I_BASE = 0
REG_COEFF_Q_BASE = REG_COEFF_I_BASE + COEFF_WORDS            # 7
REG_XCORR_THRESHOLD = REG_COEFF_Q_BASE + COEFF_WORDS         # 14
REG_ENERGY_THRESHOLD_HIGH = 15
REG_ENERGY_THRESHOLD_LOW = 16
REG_TRIGGER_CONFIG = 17
REG_TRIGGER_WINDOW = 18
REG_JAM_DELAY = 19
REG_JAM_UPTIME = 20
REG_JAM_WAVEFORM = 21
REG_CONTROL_FLAGS = 22
REG_REPLAY_LENGTH = 23

#: Total registers consumed by the design (matches the paper's 24).
REGISTERS_USED = 24

#: Maximum concurrently-stacked correlator banks (WiFi short / DSSS /
#: WiMAX / ZigBee fit in one pass; matches the multi-standard FPGA
#: detector's concurrent-correlator count).
MAX_BANKS = 4

REG_BANK_COUNT = 24
REG_BANK_SELECT = 25
REG_BANK_COEFF_I_BASE = 26
REG_BANK_COEFF_Q_BASE = REG_BANK_COEFF_I_BASE + COEFF_WORDS      # 33
REG_BANK_THRESHOLD_BASE = REG_BANK_COEFF_Q_BASE + COEFF_WORDS    # 40

#: Registers added by the banked extension (count + select + one
#: windowed coefficient bank + MAX_BANKS thresholds).
BANKED_REGISTERS_USED = 2 + 2 * COEFF_WORDS + MAX_BANKS

#: Full footprint: the paper's 24 plus the banked extension.
TOTAL_REGISTERS_USED = REGISTERS_USED + BANKED_REGISTERS_USED

# Control-flag bit positions (register 22).
FLAG_JAMMER_ENABLE = 1 << 0
FLAG_CONTINUOUS = 1 << 1
FLAG_REPLAY_FREEZE = 1 << 2
ANTENNA_SHIFT = 8
ANTENNA_MASK = 0xFF << ANTENNA_SHIFT

# Trigger-config fields (register 17).
STAGE_SOURCE_BITS = 4
STAGE_SOURCE_MASK = (1 << STAGE_SOURCE_BITS) - 1
STAGE_ENABLE_SHIFT = 12
#: Bit 15: stage combination mode (0 = sequence-within-window, the
#: paper's description; 1 = any-stage-fires).
TRIGGER_MODE_BIT = 1 << 15

# Waveform-select fields (register 21).
WAVEFORM_SELECT_MASK = 0x3
WGN_SEED_SHIFT = 2
#: The WGN seed occupies bits 2..31 of the waveform register.
WGN_SEED_MASK = (1 << (32 - WGN_SEED_SHIFT)) - 1

#: Highest value the 32-bit JAM_UPTIME register can carry.  The
#: docstring contract above ("clipped to 2^32 - 1 by the bus width")
#: is enforced by :func:`clip_jam_uptime`.
JAM_UPTIME_MAX = (1 << 32) - 1


@dataclass(frozen=True)
class RegisterSpec:
    """Declarative contract for one user register.

    ``width`` is the number of meaningful low bits; ``max_value`` the
    highest value the hardware accepts (defaults to the all-ones value
    of ``width`` bits, but can be tighter — the replay length stops at
    512 even though it needs 10 bits).  The static-analysis pass
    (:mod:`repro.analysis`, rule RJ002) checks literal writes against
    this table, so it is the single source of truth for field widths.
    """

    name: str
    address: int
    width: int
    description: str
    max_value: int = -1

    def __post_init__(self) -> None:
        if not 1 <= self.width <= 32:
            raise ValueError(f"register width {self.width} outside [1, 32]")
        if self.max_value < 0:
            object.__setattr__(self, "max_value", (1 << self.width) - 1)
        if self.max_value >= (1 << self.width):
            raise ValueError(
                f"max_value {self.max_value:#x} does not fit {self.width} bits"
            )


#: Bits used per packed-coefficient word (10 coefficients x 3 bits).
COEFF_WORD_WIDTH = COEFFS_PER_WORD * COEFF_BITS

REGISTER_SPECS: tuple[RegisterSpec, ...] = tuple(
    [RegisterSpec(f"REG_COEFF_I_{k}", REG_COEFF_I_BASE + k, COEFF_WORD_WIDTH,
                  f"I correlator coefficients, word {k} (10 x 3-bit signed)")
     for k in range(COEFF_WORDS)]
    + [RegisterSpec(f"REG_COEFF_Q_{k}", REG_COEFF_Q_BASE + k, COEFF_WORD_WIDTH,
                    f"Q correlator coefficients, word {k} (10 x 3-bit signed)")
       for k in range(COEFF_WORDS)]
    + [
        RegisterSpec("REG_XCORR_THRESHOLD", REG_XCORR_THRESHOLD, 32,
                     "cross-correlation detection threshold (unsigned)"),
        RegisterSpec("REG_ENERGY_THRESHOLD_HIGH", REG_ENERGY_THRESHOLD_HIGH, 16,
                     "energy rise threshold, dB x 256 (Q8.8 unsigned)"),
        RegisterSpec("REG_ENERGY_THRESHOLD_LOW", REG_ENERGY_THRESHOLD_LOW, 16,
                     "energy fall threshold, dB x 256 (Q8.8 unsigned)"),
        RegisterSpec("REG_TRIGGER_CONFIG", REG_TRIGGER_CONFIG, 16,
                     "3 x 4-bit stage sources + enable bits 12-14 + mode bit 15"),
        RegisterSpec("REG_TRIGGER_WINDOW", REG_TRIGGER_WINDOW, 32,
                     "trigger combination window, baseband samples"),
        RegisterSpec("REG_JAM_DELAY", REG_JAM_DELAY, 32,
                     "jam delay after trigger, baseband samples"),
        RegisterSpec("REG_JAM_UPTIME", REG_JAM_UPTIME, 32,
                     "jam uptime, baseband samples (saturates at 2^32 - 1)"),
        RegisterSpec("REG_JAM_WAVEFORM", REG_JAM_WAVEFORM, 32,
                     "waveform select (bits 0-1) + WGN seed (bits 2-31)"),
        RegisterSpec("REG_CONTROL_FLAGS", REG_CONTROL_FLAGS, 16,
                     "enable/continuous/freeze flags + antenna bits 8-15"),
        RegisterSpec("REG_REPLAY_LENGTH", REG_REPLAY_LENGTH, 10,
                     "replay capture length, samples (1..512)", max_value=512),
        RegisterSpec("REG_BANK_COUNT", REG_BANK_COUNT, 3,
                     "active stacked banks (0 = banked mode off, 1..4)",
                     max_value=MAX_BANKS),
        RegisterSpec("REG_BANK_SELECT", REG_BANK_SELECT, 2,
                     "bank targeted by the coefficient write window",
                     max_value=MAX_BANKS - 1),
    ]
    + [RegisterSpec(f"REG_BANK_COEFF_I_{k}", REG_BANK_COEFF_I_BASE + k,
                    COEFF_WORD_WIDTH,
                    f"selected bank's I coefficients, word {k} "
                    "(10 x 3-bit signed)")
       for k in range(COEFF_WORDS)]
    + [RegisterSpec(f"REG_BANK_COEFF_Q_{k}", REG_BANK_COEFF_Q_BASE + k,
                    COEFF_WORD_WIDTH,
                    f"selected bank's Q coefficients, word {k} "
                    "(10 x 3-bit signed)")
       for k in range(COEFF_WORDS)]
    + [RegisterSpec(f"REG_BANK_THRESHOLD_{k}", REG_BANK_THRESHOLD_BASE + k,
                    32, f"bank {k} correlation threshold (unsigned)")
       for k in range(MAX_BANKS)]
)

#: Address -> spec, for bounds checks and the static analyzer.
SPEC_BY_ADDRESS: dict[int, RegisterSpec] = {
    spec.address: spec for spec in REGISTER_SPECS
}

assert len(SPEC_BY_ADDRESS) == TOTAL_REGISTERS_USED, \
    "register spec table has gaps"


def register_spec(address: int) -> RegisterSpec | None:
    """Spec for ``address``, or ``None`` for unassigned registers."""
    return SPEC_BY_ADDRESS.get(address)


def clip_jam_uptime(samples: int) -> int:
    """Saturate a jam uptime request to the 32-bit bus width.

    The register layout promises values above ``2^32 - 1`` are
    *clipped*, not rejected — the bus simply cannot carry more.
    Negative uptimes have no hardware meaning and are rejected.
    """
    if samples < 0:
        raise ValueError(f"jam uptime {samples} cannot be negative")
    return min(int(samples), JAM_UPTIME_MAX)


def encode_energy_threshold_db(threshold_db: float) -> int:
    """Encode an energy threshold in dB as a Q8.8 register word.

    The hardware accepts thresholds between 3 and 30 dB (paper §2.3).
    """
    if not 3.0 <= threshold_db <= 30.0:
        raise ValueError(
            f"energy threshold {threshold_db} dB outside the hardware's 3-30 dB range"
        )
    return int(round(threshold_db * 256.0))


def decode_energy_threshold_db(word: int) -> float:
    """Decode a Q8.8 energy-threshold register word back to dB."""
    return word / 256.0
