"""A bit-level array of encoded lines that faults act on.

:class:`STTRAMArray` tracks, per line, both the *stored* value (which
faults corrupt) and the *golden* value (what was last written).  The
golden copy is simulator bookkeeping, not hardware: it is what lets the
Monte-Carlo harness classify every correction attempt as success,
detectable-uncorrectable (DUE), or silent data corruption (SDC).

Storage follows the faults, not the line count.  A *fill word* is the
golden value of every line never written on its own (``format()`` sets
it to the encoded zero line); ``_written`` holds the golden values that
differ from it; ``_diverged`` holds the stored word of every line whose
stored copy differs from its golden.  The key set of ``_diverged`` *is*
the *dirty-frame set*: every mutation keeps it exact (``write`` cleans,
``inject``/``restore`` compare against golden), so membership is O(1)
and enumerating the faulty population is O(dirty) instead of O(lines)
-- the index behind the sparse scrub fast path
(:meth:`repro.sttram.scrub.ScrubEngine.scrub_pass` with ``sparse=True``)
and the campaign ``heal`` step.  A healed line simply leaves
``_diverged``, so memory does not grow with the lines ever repaired.

``epoch`` counts mutations.  Every store goes through ``_settle``,
``write_many`` or ``fill_word``, and each bumps it, so an unchanged
epoch proves that no stored or golden word moved: a caller that
remembered a result over some lines may skip re-reading them (the
SuDoku-Z peeling memo's stamp).

Permanent (stuck-at) faults attach via :meth:`attach_permanent_faults`.
Stuck bits re-assert through every ``write``/``restore``/``inject``:
the stored value is always read through the mask, modelling cells that
physically cannot hold the written polarity.  Two consequences matter
for the scrub fast path:

* the dirty set stays defined against raw golden (``stored != golden``),
  so a line whose stuck bit conflicts with its golden content is
  *permanently dirty* and sparse scrub passes keep visiting it -- this
  is what keeps sparse bit-identical to dense under permanent faults;
* :meth:`is_clean` is *residual* cleanliness -- stored matches golden
  as read through the stuck bits -- so correction audits do not
  misclassify a re-asserted stuck bit as silent data corruption.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.coding.bitvec import mask_of, popcount
from repro.coding.parity import xor_reduce

if TYPE_CHECKING:  # pragma: no cover - import cycle (faults imports array)
    from repro.sttram.faults import PermanentFaultMap


class STTRAMArray:
    """Fixed-geometry array of ``num_lines`` lines of ``line_bits`` bits."""

    def __init__(self, num_lines: int, line_bits: int) -> None:
        if num_lines <= 0:
            raise ValueError("num_lines must be positive")
        if line_bits <= 0:
            raise ValueError("line_bits must be positive")
        self.num_lines = num_lines
        self.line_bits = line_bits
        self._mask = mask_of(line_bits)
        self._fill = 0
        self._written: Dict[int, int] = {}
        self._diverged: Dict[int, int] = {}
        self._fault_map: Optional["PermanentFaultMap"] = None
        #: Mutation counter, bumped by every store (module docstring).
        self.epoch = 0

    # -- permanent faults -------------------------------------------------------

    def attach_permanent_faults(self, fault_map: "PermanentFaultMap") -> None:
        """Attach a stuck-at map; stuck bits assert immediately and forever.

        Every subsequent ``write``/``restore``/``inject`` stores the
        value as filtered through the stuck bits, and current contents
        are re-asserted now (the dirty set updates accordingly).  Only
        one map may be attached over an array's lifetime.
        """
        if self._fault_map is not None:
            raise ValueError("a permanent fault map is already attached")
        if fault_map.line_bits != self.line_bits:
            raise ValueError(
                f"fault map is {fault_map.line_bits} bits wide, "
                f"array lines are {self.line_bits}"
            )
        for masks in (fault_map.stuck_at_one, fault_map.stuck_at_zero):
            for line_index in masks:
                self._check(line_index, 0)
        self._fault_map = fault_map
        self._assert_stuck_bits()

    def _assert_stuck_bits(self) -> None:
        """Re-read every stuck line through its mask (O(stuck lines))."""
        fault_map = self._fault_map
        if fault_map is None:
            return
        touched = set(fault_map.stuck_at_one) | set(fault_map.stuck_at_zero)
        for index in touched:
            golden = self._written.get(index, self._fill)
            stored = self._diverged.get(index, golden)
            self._settle(index, fault_map.apply(index, stored), golden)

    @property
    def has_permanent_faults(self) -> bool:
        """True once a stuck-at map is attached."""
        return self._fault_map is not None

    @property
    def permanent_faults(self) -> Optional["PermanentFaultMap"]:
        """The attached stuck-at map, if any."""
        return self._fault_map

    def _through_faults(self, index: int, value: int) -> int:
        """Value as physically storable at this line (stuck bits asserted)."""
        if self._fault_map is None:
            return value
        return self._fault_map.apply(index, value)

    def _settle(self, index: int, stored: int, golden: int) -> None:
        """Store a line's new value and keep the dirty set exact."""
        self.epoch += 1
        if stored == golden:
            self._diverged.pop(index, None)
        else:
            self._diverged[index] = stored

    # -- access ---------------------------------------------------------------

    def write(self, index: int, value: int) -> int:
        """Write a line: updates both stored and golden; returns old stored.

        The returned previous stored value is what a hardware
        read-modify-write would have seen, which is what the Parity Line
        Table update needs.  Golden records the *intended* value; stuck
        bits assert in the stored copy only, so a conflicting write
        leaves the line dirty (the residual fault a scrub will keep
        re-encountering).
        """
        self._check(index, value)
        previous = self._diverged.get(index, self._written.get(index, self._fill))
        if value == self._fill:
            self._written.pop(index, None)
        else:
            self._written[index] = value
        self._settle(index, self._through_faults(index, value), value)
        return previous

    def write_many(self, indices: Sequence[int], values: Sequence[int]) -> None:
        """``write(index, value)`` for each pair, in order.

        Validated once, all before any write.  A repeated index keeps
        its last value, and stuck bits assert in the stored copies as
        in ``write``.  Without a stuck-at map every written line stores
        its golden word, so the batch is one dict update plus the
        removal of the fill-valued words and of the lines' stale faults.
        """
        if len(indices) != len(values):
            raise ValueError("write_many needs one value per index")
        self._check_many(indices, values)
        if self._fault_map is not None:
            for index, value in zip(indices, values):
                self.write(index, value)
            return
        self.epoch += 1
        fill, written, diverged = self._fill, self._written, self._diverged
        written.update(zip(indices, values))
        if fill in values:
            for index in indices:
                if written.get(index) == fill:
                    del written[index]
        if diverged:
            for index in indices:
                diverged.pop(index, None)

    def read(self, index: int) -> int:
        """Read the stored (possibly corrupted) value."""
        self._check(index, 0)
        return self._diverged.get(index, self._written.get(index, self._fill))

    def snapshot(self, indices: Sequence[int]) -> Tuple[tuple, tuple]:
        """Stored words and dirty flags of ``indices``, in order.

        One call instead of a ``read`` and an ``is_dirty`` per line, for
        callers that compare whole groups (the SuDoku-Z peeling memo).
        """
        self._check_indices(indices)
        diverged, written, fill = self._diverged, self._written, self._fill
        return (
            tuple([diverged.get(i, written.get(i, fill)) for i in indices]),
            tuple([i in diverged for i in indices]),
        )

    def dirty_items(self, indices: Sequence[int]) -> tuple:
        """``(index, stored word)`` of the dirty members of ``indices``,
        in order.

        Every other member stores its golden word, so with golden fixed
        this names the stored state of all of ``indices`` at O(dirty)
        Python cost -- the SuDoku-Z peeling memo's key.
        """
        self._check_indices(indices)
        diverged = self._diverged
        return tuple([(i, diverged[i]) for i in indices if i in diverged])

    def split_clean(self, indices: Sequence[int]) -> Tuple[List[int], int]:
        """The dirty members of ``indices``, in order, and the XOR of the
        stored words of all the others.

        A line outside the dirty set stores its golden word, which is
        ``_written.get(i, fill)``, so the clean half is never read line
        by line: its XOR is that of the clean written words, with the
        fill word folded in once when the clean unwritten count is odd.
        A group scan reads and decodes only the dirty half.
        """
        self._check_indices(indices)
        diverged, written = self._diverged, self._written
        dirty = [i for i in indices if i in diverged]
        words: List[int] = []
        if written:
            clean = [i for i in indices if i not in diverged] if dirty else indices
            words = [written[i] for i in clean if i in written]
        clean_xor = xor_reduce(words)
        if (len(indices) - len(dirty) - len(words)) & 1:
            clean_xor ^= self._fill
        return dirty, clean_xor

    def golden(self, index: int) -> int:
        """The last value actually written (fault-free reference)."""
        self._check(index, 0)
        return self._written.get(index, self._fill)

    # -- fault manipulation -----------------------------------------------------

    def inject(self, index: int, error_vector: int) -> None:
        """XOR an error mask into the stored value (golden untouched).

        Flips landing on stuck bits are absorbed: a stuck cell cannot
        transition, so the post-injection value is re-read through the
        stuck mask.
        """
        self._check(index, error_vector)
        golden = self._written.get(index, self._fill)
        stored = self._diverged.get(index, golden) ^ error_vector
        self._settle(index, self._through_faults(index, stored), golden)

    def inject_many(self, vectors: Dict[int, int]) -> None:
        """``inject(index, vector)`` for every item of ``vectors``.

        Indices and masks are validated once, all before any is applied;
        the flips, and the stuck bits absorbing them, are exactly the
        per-line ``inject``'s.
        """
        self._check_many(vectors.keys(), vectors.values())
        for index, vector in vectors.items():
            golden = self._written.get(index, self._fill)
            stored = self._diverged.get(index, golden) ^ vector
            self._settle(index, self._through_faults(index, stored), golden)

    def restore(self, index: int, value: int) -> None:
        """Write back a corrected value without touching golden.

        This models the scrub engine writing its repaired line into the
        array; whether the repair was *right* is judged against golden.
        Stuck bits re-assert through the write-back -- the defining
        permanent-fault behaviour: a correct repair of a stuck-conflicting
        line still leaves the stuck bits wrong in storage.
        """
        self._check(index, value)
        self._settle(
            index,
            self._through_faults(index, value),
            self._written.get(index, self._fill),
        )

    def restore_many(
        self, indices: Sequence[int], values: Sequence[int]
    ) -> List[bool]:
        """``restore`` each index to its value; their ``is_clean`` after.

        Validated once, all before any write.  Stuck bits re-assert as in
        ``restore``, and a flag is residual cleanliness as ``is_clean``
        defines it, so a correct repair of a stuck-conflicting line
        reads clean while staying in the dirty set.
        """
        if len(indices) != len(values):
            raise ValueError("restore_many needs one value per index")
        self._check_many(indices, values)
        clean: List[bool] = []
        for index, value in zip(indices, values):
            golden = self._written.get(index, self._fill)
            stored = self._through_faults(index, value)
            self._settle(index, stored, golden)
            # residual_vector's test, on the word just stored.
            clean.append(stored == self._through_faults(index, golden))
        return clean

    def error_vector(self, index: int) -> int:
        """Current stored-vs-golden difference mask."""
        self._check(index, 0)
        golden = self._written.get(index, self._fill)
        return self._diverged.get(index, golden) ^ golden

    def residual_vector(self, index: int) -> int:
        """Stored-vs-golden difference beyond what stuck bits force.

        Zero means the line is as correct as the hardware permits: every
        remaining divergence from golden sits on a stuck bit asserting
        its polarity.
        """
        self._check(index, 0)
        golden = self._written.get(index, self._fill)
        return self._diverged.get(index, golden) ^ self._through_faults(
            index, golden
        )

    def is_clean(self, index: int) -> bool:
        """True when stored matches golden up to stuck-bit residue.

        Without permanent faults this is exact stored-equals-golden.
        With them, a line whose only divergence is re-asserted stuck
        bits counts as clean -- the correction audit must not label a
        physically unavoidable residue as silent data corruption.  The
        *dirty set* intentionally keeps the raw definition, so such
        lines remain visible to sparse scrub passes.
        """
        return self.residual_vector(index) == 0

    def is_dirty(self, index: int) -> bool:
        """O(1) membership test against the dirty-frame set."""
        return index in self._diverged

    def dirty_frames(self) -> List[int]:
        """Sorted indices whose stored word diverges from golden.

        This is the fault index the sparse scrub fast path walks; sorted
        so sparse and dense passes visit faulty frames in the same order
        (group repairs consume parity state, so visit order matters for
        bit-identical outcome accounting).
        """
        return sorted(self._diverged)

    def written_frames(self) -> List[int]:
        """Sorted indices whose golden value differs from the fill word."""
        return sorted(self._written)

    @property
    def dirty_count(self) -> int:
        """Number of currently dirty frames (O(1))."""
        return len(self._diverged)

    def faulty_lines(self) -> List[int]:
        """Indices of lines whose stored value differs from golden."""
        return self.dirty_frames()

    def total_faulty_bits(self) -> int:
        """Total number of corrupted bits across the array (O(dirty))."""
        fill, written = self._fill, self._written
        return sum(
            popcount(stored ^ written.get(index, fill))
            for index, stored in self._diverged.items()
        )

    # -- bulk helpers -------------------------------------------------------------

    def fill_word(self, value: int) -> None:
        """Write one value to every line: the bulk formatting primitive.

        Semantically identical to ``write(index, value)`` over every
        index, at O(stuck lines) cost: the value becomes the fill word,
        both sparse maps empty, and stuck bits re-assert on the lines
        that have them.
        """
        self._check(0, value)
        self.epoch += 1
        self._fill = value
        self._written.clear()
        self._diverged.clear()
        self._assert_stuck_bits()

    def __len__(self) -> int:
        return self.num_lines

    def __iter__(self) -> Iterator[int]:
        """Every line's stored word in index order (O(lines))."""
        words = [self._fill] * self.num_lines
        for index, value in self._written.items():
            words[index] = value
        for index, value in self._diverged.items():
            words[index] = value
        return iter(words)

    def _check(self, index: int, value: int) -> None:
        if not 0 <= index < self.num_lines:
            raise IndexError(f"line index {index} out of range")
        if value < 0 or value > self._mask:
            raise ValueError(f"value does not fit in {self.line_bits} bits")

    def _check_indices(self, indices) -> None:
        if indices and not (0 <= min(indices) and max(indices) < self.num_lines):
            raise IndexError("line index out of range")

    def _check_many(self, indices, values) -> None:
        """``_check`` of every (index, value) pair, as one range test each."""
        self._check_indices(indices)
        if values and (min(values) < 0 or max(values) > self._mask):
            raise ValueError(f"value does not fit in {self.line_bits} bits")
