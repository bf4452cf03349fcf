"""The Parity Line Table (PLT).

One XOR parity line per RAID-Group, held in a small SRAM structure beside
the STTRAM array (128 KB per table for the paper's 64 MB cache; SuDoku-Z
keeps two).  The table supports the two hardware operations:

* **write-path update** (section III-B): every cache write folds
  ``old ^ new`` into the group's parity -- a read-modify-write that never
  touches the other group members; and
* **scrub-path rebuild/mismatch**: during correction the controller
  recomputes the group parity from the (single-bit-corrected) members and
  diffs it against the stored parity to locate candidate faulty bits.

The paper treats the PLT as axiomatically clean (it is SRAM, not
STTRAM).  Field studies of deployed memory systems show ECC/metadata
structures fail too, so this reproduction drops the axiom: every entry
carries a CRC-32 checksum maintained by the legitimate hardware
operations, the chaos harness (:mod:`repro.resilience.chaos`) can
corrupt entries behind the checksum's back, and the engines verify
entries before trusting them (see ``SuDokuEngine``).  Groups whose
parity cannot currently be trusted are *quarantined* until a
CRC-verified rebuild restores them.

The entry checksum is **location-keyed**: it covers the group index as
well as the parity word.  This matters because every code in the stack
(ECC-1, CRC-31, XOR parity) is linear, so another group's parity fed
into a RAID-4 reconstruction produces a *valid codeword with wrong
data* -- the one fault the line codec is structurally blind to.  Keying
the checksum by location (the trick self-describing filesystem metadata
uses against misdirected writes) turns that silent-corruption pathway
into an immediately detected ``verify`` failure.

With chaos disabled nothing ever corrupts an entry, every verification
passes, and behaviour is bit-identical to the axiomatically-clean table.
"""

from __future__ import annotations

import zlib
from typing import List, Optional, Sequence, Set, Union

from repro.coding.bitvec import mask_of
from repro.kernels import KernelBackend, resolve_backend


class ParityLineTable:
    """Per-group parity store for one hash function."""

    def __init__(
        self,
        num_groups: int,
        line_bits: int,
        backend: Optional[Union[str, KernelBackend]] = None,
    ) -> None:
        if num_groups <= 0:
            raise ValueError("num_groups must be positive")
        if line_bits <= 0:
            raise ValueError("line_bits must be positive")
        self.num_groups = num_groups
        self.line_bits = line_bits
        self.backend = resolve_backend(backend)
        self._mask = mask_of(line_bits)
        self._entry_bytes = (line_bits + 7) // 8
        self._parity: List[int] = [0] * num_groups
        self._crc: List[int] = [
            self._entry_crc(group, 0) for group in range(num_groups)
        ]
        #: Groups whose parity entry failed verification and has not yet
        #: been restored by a CRC-verified rebuild.
        self.quarantined: Set[int] = set()
        self.write_updates = 0  # PLT write traffic, for section VII-I
        self.corruptions = 0  # chaos events applied to this table
        #: Mutation counter: every operation that can change an entry's
        #: parity, CRC or quarantine flag bumps it, so an unchanged epoch
        #: proves no entry moved (the SuDoku-Z peeling memo's stamp).
        #: ``quarantined`` must change only through those operations.
        self.epoch = 0

    # -- hardware operations ------------------------------------------------------

    def parity(self, group: int) -> int:
        """Stored parity line of a group."""
        self._check_group(group)
        return self._parity[group]

    def update(self, group: int, old_word: int, new_word: int) -> None:
        """Write-path read-modify-write: fold ``old ^ new`` into parity."""
        self._check_group(group)
        self._check_word(old_word)
        self._check_word(new_word)
        value = self._parity[group] ^ old_word ^ new_word
        self.epoch += 1
        self._parity[group] = value
        self._crc[group] = self._entry_crc(group, value)
        self.write_updates += 1

    def rebuild(self, group: int, members: Sequence[int]) -> int:
        """Recompute and store a group's parity from member words.

        A rebuild re-derives the entry from the protected lines, so it
        also lifts any quarantine on the group.
        """
        if members and (min(members) < 0 or max(members) > self._mask):
            raise ValueError(f"word does not fit in {self.line_bits} bits")
        return self.store(group, self.backend.xor_fold(members, self.line_bits))

    def store(self, group: int, value: int) -> int:
        """Store a parity word already known to be the group's fold.

        Like :meth:`rebuild`, this writes the entry CRC and lifts any
        quarantine; the caller vouches for ``value``.
        """
        self._check_group(group)
        self._check_word(value)
        self.epoch += 1
        self._parity[group] = value
        self._crc[group] = self._entry_crc(group, value)
        self.quarantined.discard(group)
        return value

    def mismatch(self, group: int, members: Sequence[int]) -> int:
        """Stored parity XOR recomputed parity: candidate fault positions."""
        self._check_group(group)
        return self._parity[group] ^ self.backend.xor_fold(members, self.line_bits)

    # -- metadata integrity -------------------------------------------------------

    def verify(self, group: int) -> bool:
        """Does the entry's stored CRC match its parity word *and* slot?

        A failure means either the SRAM cell array flipped under the
        hardware's feet (the chaos harness's ``corrupt``) or the entry
        belongs to a different group (``swap`` -- a perturbed mapping);
        in both cases the entry must not feed a RAID-4 reconstruction or
        an SDR mismatch computation.
        """
        self._check_group(group)
        return self._crc[group] == self._entry_crc(group, self._parity[group])

    def quarantine(self, group: int) -> None:
        """Mark a group's entry untrustworthy until rebuilt."""
        self._check_group(group)
        self.epoch += 1
        self.quarantined.add(group)

    def is_quarantined(self, group: int) -> bool:
        """Is this group's parity currently untrusted?"""
        self._check_group(group)
        return group in self.quarantined

    # -- chaos hooks (fault model for the SRAM metadata itself) -------------------

    def corrupt(self, group: int, error_mask: int) -> int:
        """Flip parity bits *without* updating the entry CRC.

        Models a transient fault striking the SRAM cells of the parity
        word; the checksum logic never ran, so ``verify`` will catch it.
        Returns the corrupted parity word.
        """
        self._check_group(group)
        self._check_word(error_mask)
        self.epoch += 1
        self._parity[group] ^= error_mask
        self.corruptions += 1
        return self._parity[group]

    def swap(self, group_a: int, group_b: int) -> None:
        """Swap two entries wholesale (parity *and* CRC).

        Models a perturbed group mapping: the PLT row decoder resolved
        the wrong row, so each group reads the other's (internally
        consistent) entry.  The location-keyed CRC is what catches this:
        each entry's checksum still covers its *original* group index, so
        ``verify`` fails at the new location.  Without the keying the
        linearity of the codes would let the wrong parity reconstruct a
        valid-but-wrong codeword -- silent corruption.
        """
        self._check_group(group_a)
        self._check_group(group_b)
        if group_a == group_b:
            return
        self.epoch += 1
        self._parity[group_a], self._parity[group_b] = (
            self._parity[group_b],
            self._parity[group_a],
        )
        self._crc[group_a], self._crc[group_b] = (
            self._crc[group_b],
            self._crc[group_a],
        )
        self.corruptions += 1

    def _entry_crc(self, group: int, word: int) -> int:
        payload = group.to_bytes(4, "little") + word.to_bytes(
            self._entry_bytes, "little"
        )
        return zlib.crc32(payload)

    # -- reporting ------------------------------------------------------------------

    @property
    def storage_bytes(self) -> int:
        """SRAM footprint of this table (128 KB for the paper's default)."""
        return (self.num_groups * self.line_bits + 7) // 8

    def amortised_bits_per_line(self, num_lines: int) -> float:
        """Parity storage amortised over protected lines (paper: ~1 bit/line/table)."""
        if num_lines <= 0:
            raise ValueError("num_lines must be positive")
        return self.num_groups * self.line_bits / num_lines

    # -- internal -------------------------------------------------------------------

    def _check_group(self, group: int) -> None:
        if not 0 <= group < self.num_groups:
            raise IndexError(f"group {group} out of range")

    def _check_word(self, word: int) -> None:
        if word < 0 or word > self._mask:
            raise ValueError(f"word does not fit in {self.line_bits} bits")
