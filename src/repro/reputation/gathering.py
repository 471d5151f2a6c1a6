"""The *information gathering* block: storing and organizing feedback.

Every mechanism shares the same evidence store; what differs is how much of
the stored information each mechanism actually uses (rater identities for
EigenTrust's normalized local trust, only aggregate counts for the Beta
baseline, nothing but blinded ratings for the anonymous mode).  That
difference is what the privacy facet measures.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field, fields
from itertools import chain
from typing import TYPE_CHECKING, Any

from repro import _profiling
from repro.simulation.transaction import Feedback, FeedbackBatch

# Only the pair ledger's array readers (``_pair_ledger`` and the
# ``LocalTrustBuilder`` methods that build matrices) use NumPy and the
# kernels, and only EigenTrust, PowerTrust and the overlay call them: the
# readers import both where they run, so a process that stores feedback
# for a per-subject fold (Beta, average, TrustMe) never loads NumPy or SciPy.
if TYPE_CHECKING:
    import numpy as np

    from repro.core import backend
    from repro.core.backend import PeerIndex


@dataclass
class FeedbackColumns:
    """The store's report log: one row of parallel columns per report, in
    arrival order, and the only record of a report (:meth:`feedback`
    rebuilds it).

    Numeric columns live in ``array.array`` buffers, which NumPy views
    zero-copy; peer identifiers are *interned* into dense integer codes
    (``id_for_code`` maps a code back to the string), so kernels can
    translate a whole column with one permutation gather instead of one
    dict lookup per report.  A double holds every integer time up to 2**53.
    """

    transaction_ids: array = field(default_factory=lambda: array("q"))
    ratings: array = field(default_factory=lambda: array("d"))
    positives: array = field(default_factory=lambda: array("b"))
    truthful: array = field(default_factory=lambda: array("b"))
    times: array = field(default_factory=lambda: array("d"))
    #: Interned peer codes; ``rater_codes`` holds -1 for anonymous reports.
    subject_codes: array = field(default_factory=lambda: array("q"))
    rater_codes: array = field(default_factory=lambda: array("q"))
    id_for_code: list[str] = field(default_factory=list)
    _code_for_id: dict[str, int] = field(default_factory=dict)

    def extend(self, batch: FeedbackBatch) -> None:
        """Append a batch's rows.  A batch that names new ids first interns
        each of them once, in the order its reports name them (each row's
        subject, then its rater)."""
        codes = self._code_for_id
        try:
            subject_codes = [codes[subject] for subject in batch.subjects]
            rater_codes = [-1 if rater is None else codes[rater] for rater in batch.raters]
        except KeyError:
            ids = self.id_for_code
            for peer in chain.from_iterable(zip(batch.subjects, batch.raters, strict=True)):
                if peer is not None and peer not in codes:
                    codes[peer] = len(ids)
                    ids.append(peer)
            self.extend(batch)
            return
        self.transaction_ids.fromlist(batch.transaction_ids)
        self.ratings.fromlist(batch.ratings)
        self.positives.fromlist([rating >= 0.5 for rating in batch.ratings])
        self.truthful.fromlist(batch.truthful)
        self.times.fromlist(batch.times)
        self.subject_codes.fromlist(subject_codes)
        self.rater_codes.fromlist(rater_codes)

    def feedback(self, row: int) -> Feedback:
        """The report stored in ``row``, field by field as it was appended."""
        rater = self.rater_codes[row]
        return Feedback(
            transaction_id=self.transaction_ids[row],
            time=int(self.times[row]),
            subject=self.id_for_code[self.subject_codes[row]],
            rating=self.ratings[row],
            rater=None if rater < 0 else self.id_for_code[rater],
            truthful=bool(self.truthful[row]),
        )

    def take(self, rows: list[int]) -> FeedbackColumns:
        """The given rows, in order, over the same interned codes."""
        kept = FeedbackColumns(id_for_code=self.id_for_code, _code_for_id=self._code_for_id)
        for name, column in vars(self).items():
            if isinstance(column, array):
                setattr(kept, name, array(column.typecode, [column[row] for row in rows]))
        return kept

    def __len__(self) -> int:
        return len(self.subject_codes)


@dataclass
class FeedbackStore:
    """Append-only log of disclosed feedback (see :class:`FeedbackColumns`).

    Reports arrive in column batches (:meth:`extend`).  With
    ``max_per_subject`` set, a report past a subject's cap evicts that
    subject's oldest report: :meth:`extend` counts the eviction and bumps the
    epoch, and the next :meth:`columns` compacts the log in arrival order
    (evictions are the rare path).
    """

    max_per_subject: int | None = None
    _columns: FeedbackColumns = field(default_factory=FeedbackColumns)
    #: Reports held per subject, in first-seen order: :meth:`subjects`.
    _per_subject: dict[str, int] = field(default_factory=dict)
    #: Evictions not yet compacted: subject code -> oldest rows to drop.
    _evicted: dict[int, int] = field(default_factory=dict)
    _version: int = 0
    _epoch: int = 0
    #: Incrementally maintained participant set: (epoch it is valid for,
    #: the live set); rebuilt after history rewrites.
    _participants_state: tuple[int, set[str]] | None = None
    _participants_sorted: list[str] | None = None

    # The participant set is derived from the log, and a set pickles in
    # hash order: snapshots and checkpoints leave both fields out, so their
    # bytes do not depend on PYTHONHASHSEED, and the first read rebuilds them.
    def __getstate__(self) -> dict[str, object]:
        state = {item.name: getattr(self, item.name) for item in fields(self)}
        state["_participants_state"] = None
        state["_participants_sorted"] = None
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        buckets = state.get("_by_subject")
        if buckets is None:
            self.__dict__.update(state)
            return
        # Pickled while the store kept a Feedback list per subject: replay the
        # lists in the order its columns() returned them, and keep its
        # counters, so every fold watermark into the log stays valid.
        if state["_columns_stale"]:
            reports = [feedback for bucket in buckets.values() for feedback in bucket]
        else:
            cursors = {subject: iter(bucket) for subject, bucket in buckets.items()}
            ids = state["_columns"].id_for_code
            reports = [next(cursors[ids[code]]) for code in state["_columns"].subject_codes]
        self.__init__(max_per_subject=state["max_per_subject"])
        self._columns.extend(FeedbackBatch.of(reports))
        self._per_subject = {subject: len(bucket) for subject, bucket in buckets.items()}
        self._version = state["_version"]
        self._epoch = state["_epoch"]

    @property
    def version(self) -> int:
        """Monotone change counter: bumps on every mutation, including
        :meth:`clear` — unlike ``len()``, safe to key caches on."""
        return self._version

    @property
    def epoch(self) -> int:
        """History-rewrite counter: bumps when stored feedback is *removed*
        (eviction, :meth:`clear`), never on plain appends.

        Incremental consumers hold an ``(epoch, position)`` watermark into
        the column log: unchanged epoch means everything before ``position``
        is still exactly what they folded in, so only the appended tail needs
        processing; a changed epoch means the log was rewritten and the
        consumer must cold-start.
        """
        return self._epoch

    def extend(self, batch: FeedbackBatch) -> None:
        """Append a batch's reports in row order.

        The cap applies row by row, and the counters move as if each report
        came alone: the version by one per report, the epoch by one per
        eviction.
        """
        first = len(self._columns)
        self._columns.extend(batch)
        per_subject = self._per_subject
        evictions = 0
        if self.max_per_subject is None:
            for subject in batch.subjects:
                per_subject[subject] = per_subject.get(subject, 0) + 1
        else:
            cap = self.max_per_subject
            codes = self._columns.subject_codes
            for row, subject in enumerate(batch.subjects, first):
                held = per_subject.get(subject, 0) + 1
                if held > cap:
                    held -= 1
                    code = codes[row]
                    self._evicted[code] = self._evicted.get(code, 0) + 1
                    evictions += 1
                per_subject[subject] = held
        state = self._participants_state
        if state is not None and state[0] == self._epoch and not evictions:
            # An eviction makes the set stale instead: the next read rebuilds it.
            participants = state[1]
            known = len(participants)
            participants.update(batch.subjects)
            participants.update(batch.raters)
            participants.discard(None)
            if len(participants) != known:
                self._participants_sorted = None
        self._epoch += evictions
        self._version += len(batch)

    def columns(self) -> FeedbackColumns:
        """The stored feedback as parallel columns (see :class:`FeedbackColumns`).

        Treat the result as read-only: it is the store's live log.
        """
        if self._evicted:
            pending = self._evicted
            kept = []
            for row, code in enumerate(self._columns.subject_codes):
                if pending.get(code):
                    pending[code] -= 1
                else:
                    kept.append(row)
            self._columns = self._columns.take(kept)
            self._evicted = {}
        return self._columns

    def __len__(self) -> int:
        return len(self._columns) - sum(self._evicted.values())

    def subjects(self) -> list[str]:
        return [subject for subject, held in self._per_subject.items() if held]

    def participants(self) -> set[str]:
        """All peer identifiers seen either as subject or as rater.

        A scan of every stored report: :meth:`sorted_participants` calls it
        only to rebuild its set, on the first read and after a history
        rewrite.
        """
        columns = self.columns()
        ids = columns.id_for_code
        participants = {ids[code] for code in columns.subject_codes}
        participants.update(ids[code] for code in columns.rater_codes if code >= 0)
        return participants

    def sorted_participants(self) -> list[str]:
        """Participants in sorted order, cached between refreshes.

        The participant set is maintained incrementally: :meth:`extend` folds
        each report's subject/rater into the live set (invalidating the
        sorted view only when someone genuinely new appears), and a history
        rewrite (eviction, :meth:`clear`) bumps the epoch, which rebuilds
        the set from the surviving reports — so a rater whose only report
        was evicted and who later returns is re-admitted correctly.  The
        O(n log n) sort per refresh becomes O(1) on the common no-new-peer
        round.  Treat the result as read-only.
        """
        state = self._participants_state
        if state is None or state[0] != self._epoch:
            self._participants_state = (self._epoch, self.participants())
            self._participants_sorted = None
        if self._participants_sorted is None:
            self._participants_sorted = sorted(self._participants_state[1])
        return self._participants_sorted

    def clear(self) -> None:
        self._columns = FeedbackColumns()
        self._per_subject = {}
        self._evicted = {}
        self._version += 1
        self._epoch += 1


def _pair_ledger(columns: FeedbackColumns) -> tuple[array, array, array, dict[int, int]]:
    """The pair ledger of every report in ``columns``, built at once:
    ``(raters, subjects, sums, slots)`` as :class:`LocalTrustBuilder` keeps
    them.

    The empty-ledger case of :meth:`LocalTrustBuilder._fold` (a builder's
    first read, the first after a restore, every one after an eviction), in
    array operations: ``np.unique`` finds the distinct ``rater << 32 |
    subject`` keys, sorting them by first index gives first-seen order, and
    ``bincount`` sums each pair's ``±1`` deltas, which is exact in any
    order.  So the ledger and the slot map equal what the fold's loop
    builds one report at a time.
    """
    import numpy as np

    raters = np.array(columns.rater_codes, dtype=np.int64)
    named = raters >= 0
    keys = raters[named] << 32 | np.array(columns.subject_codes, dtype=np.int64)[named]
    deltas = np.where(np.array(columns.positives, dtype=bool)[named], 1.0, -1.0)
    distinct, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    sums = np.bincount(inverse.ravel(), weights=deltas, minlength=distinct.size)[order]
    distinct = distinct[order]
    return (
        array("q", (distinct >> 32).tobytes()),
        array("q", (distinct & 0xFFFFFFFF).tobytes()),
        array("d", sums.tobytes()),
        dict(zip(distinct.tolist(), range(distinct.size))),
    )


class LocalTrustBuilder:
    """Build pairwise *local trust* values from stored feedback.

    EigenTrust defines the local trust of peer *i* in peer *j* as
    ``s_ij = sat(i, j) - unsat(i, j)`` clipped at zero, then normalized over
    *i*'s row.  PowerTrust uses the same raw pairwise evidence.  Anonymous
    feedback carries no rater, so it cannot contribute to pairwise local
    trust — mechanisms that need it simply see less evidence, which is the
    accuracy cost of anonymity the ablation experiment quantifies.

    The builder keeps one *pair ledger* in column form: every distinct
    ``(rater, subject)`` pair, in first-seen order, has a rater code, a
    subject code (the store's interned codes, see :class:`FeedbackColumns`)
    and a signed total ``positives - negatives``.  Each read folds only the
    reports appended since the previous one, from an ``(epoch, position)``
    watermark into the store's column log, so a refresh costs O(new reports
    + distinct pairs) however much evidence the store holds.  Three readers
    share the ledger: the sparse ``C`` build of :meth:`matrix`, the
    layout-change rebuild of :meth:`dense_raw_totals` and the overlay's
    in-degree centrality (:meth:`raters_per_subject`).

    The deltas are integers, which float arithmetic sums exactly in any
    order, so every matrix built from the ledger is *bitwise* identical to
    a rescan of the whole report log (the rescan twins in ``tests/oracles``
    hold it to that).  A store-history rewrite (eviction, ``clear``) restarts
    the fold from the first report.
    """

    def __init__(self, store: FeedbackStore) -> None:
        self._store = store
        #: The pair ledger: parallel columns, one entry per distinct pair.
        self._pair_raters = array("q")
        self._pair_subjects = array("q")
        self._pair_sums = array("d")
        #: ``rater_code << 32 | subject_code`` -> ledger slot.
        self._pair_slots: dict[int, int] = {}
        #: ``(epoch, position)`` of the column log folded so far.
        self._pair_watermark: tuple[int, int] = (-1, 0)
        #: Dense raw-total matrix cache: (peer-id tuple, epoch, position,
        #: ndarray).  See :meth:`dense_raw_totals`.
        self._dense_state: tuple[tuple[str, ...], int, int, object] | None = None

    # Everything but the store is derived from it, so snapshots and
    # checkpoints carry the store alone and an unpickled builder starts an
    # empty ledger that its first read re-folds.  Builders pickled with
    # the older dict-of-dicts ledger restore the same way.
    def __getstate__(self) -> dict[str, object]:
        return {"_store": self._store}

    def __setstate__(self, state: dict[str, object]) -> None:
        self.__init__(state["_store"])

    def _fold(self) -> FeedbackColumns:
        """Bring the pair ledger up to date; returns the columns it reflects."""
        columns = self._store.columns()
        epoch = self._store.epoch
        if self._pair_watermark[0] != epoch:
            self._pair_raters = array("q")
            self._pair_subjects = array("q")
            self._pair_sums = array("d")
            self._pair_slots = {}
            self._pair_watermark = (epoch, 0)
        start = self._pair_watermark[1]
        total = len(columns)
        if start == 0 < total:
            (
                self._pair_raters,
                self._pair_subjects,
                self._pair_sums,
                self._pair_slots,
            ) = _pair_ledger(columns)
            self._pair_watermark = (epoch, total)
            _profiling.add_work("folded.pair_ledger", total)
        elif start < total:
            slots = self._pair_slots
            pair_raters = self._pair_raters
            pair_subjects = self._pair_subjects
            sums = self._pair_sums
            rater_codes = columns.rater_codes
            subject_codes = columns.subject_codes
            positives = columns.positives
            for position in range(start, total):
                rater = rater_codes[position]
                if rater < 0:
                    continue
                subject = subject_codes[position]
                delta = 1.0 if positives[position] else -1.0
                key = rater << 32 | subject
                slot = slots.get(key)
                if slot is None:
                    slots[key] = len(sums)
                    pair_raters.append(rater)
                    pair_subjects.append(subject)
                    sums.append(delta)
                else:
                    sums[slot] += delta
            self._pair_watermark = (epoch, total)
            _profiling.add_work("folded.pair_ledger", total - start)
        return columns

    def _pair_positions(self, index: PeerIndex) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The folded ledger in ``index`` positions: ``(rows, columns, sums)``
        of every pair whose rater and subject are both in ``index``."""
        import numpy as np

        perm = index.permutation(self._fold().id_for_code)
        rows = perm[np.asarray(self._pair_raters, dtype=np.intp)]
        cols = perm[np.asarray(self._pair_subjects, dtype=np.intp)]
        # A copy, not a view: a live view would pin the ledger's buffer
        # and make the next fold's append raise.
        sums = np.array(self._pair_sums, dtype=float)
        known = (rows >= 0) & (cols >= 0)
        return rows[known], cols[known], sums[known]

    def matrix(self, index: PeerIndex) -> backend.TrustMatrix:
        """The row-normalized local trust ``C`` over ``index``'s peers.

        Below :data:`~repro.core.backend.DENSE_TRUST_THRESHOLD` peers the
        incrementally scattered dense raw matrix is clipped and normalized
        (:meth:`dense_raw_totals`); from the threshold up ``C`` is built
        as CSR from the ledger's positive totals — one permutation over
        the id universe and O(distinct pairs) of array work per refresh.
        """
        from repro.core import backend

        n = len(index)
        if n < backend.DENSE_TRUST_THRESHOLD:
            return backend.normalize_dense_raw(self.dense_raw_totals(index))
        rows, cols, sums = self._pair_positions(index)
        positive = sums > 0.0
        return backend.local_trust_matrix(n, rows[positive], cols[positive], sums[positive])

    def raters_per_subject(self) -> dict[str, int]:
        """How many distinct raters assessed each rated peer (ledger pairs
        per subject code)."""
        import numpy as np

        ids = self._fold().id_for_code
        counts = np.bincount(
            np.asarray(self._pair_subjects, dtype=np.intp), minlength=len(ids)
        )
        return {ids[code]: int(count) for code, count in enumerate(counts.tolist()) if count}

    def dense_raw_totals(self, index: PeerIndex) -> np.ndarray:
        """Signed pair totals as a dense ``(n, n)`` float array, maintained
        incrementally for a fixed peer layout.

        ``index`` lays out every current participant.  While the layout is
        unchanged, each refresh scatters only the newly appended reports
        into the cached matrix; a layout change (a new participant
        appeared, identities rebound) rebuilds it by scattering the pair
        ledger.  The entries are integer-valued sums of ``±1``, so the
        cached matrix is bitwise identical to a from-scratch scatter.
        Callers must treat the returned array as read-only (take a
        clipped/normalized copy).
        """
        import numpy as np

        columns = self._store.columns()
        epoch = self._store.epoch
        total = len(columns)
        positions = index.position_map
        # Insertion order of a PeerIndex position map *is* the dense layout.
        key = tuple(positions)
        state = self._dense_state
        if (
            state is not None
            and state[0] == key
            and state[1] == epoch
            and state[2] <= total
        ):
            raw = state[3]
            start = state[2]
            if start < total:
                ids = columns.id_for_code
                subject_codes = columns.subject_codes
                rater_codes = columns.rater_codes
                positives = columns.positives
                for position in range(start, total):
                    rater = rater_codes[position]
                    if rater < 0:
                        continue
                    row = positions[ids[rater]]
                    column = positions[ids[subject_codes[position]]]
                    raw[row, column] += 1.0 if positives[position] else -1.0
                _profiling.add_work("folded.dense_raw", total - start)
        else:
            n = len(index)
            raw = np.zeros((n, n), dtype=float)
            rows, cols, sums = self._pair_positions(index)
            raw[rows, cols] = sums
        self._dense_state = (key, epoch, total, raw)
        return raw
