"""The trust overlay network used by PowerTrust.

PowerTrust "constructs a trust overlay network to model the trust
relationships among peers" (paper, Section 2.2): a directed graph whose edge
``i → j`` means peer *i* reported feedback about peer *j*, weighted by the
aggregated rating.  Power nodes are the most reputable, most-connected nodes
of this overlay; their assessments get extra weight during global
aggregation.
"""

from __future__ import annotations

from repro.reputation.gathering import FeedbackStore, LocalTrustBuilder


class TrustOverlayNetwork:
    """The directed rated-whom overlay, read off a feedback store's pair ledger."""

    def __init__(
        self, store: FeedbackStore, *, builder: LocalTrustBuilder | None = None
    ) -> None:
        self._store = store
        #: Pairwise rated-whom ledger shared with the owning mechanism (so
        #: the overlay rides the same incrementally maintained totals) or a
        #: private one when the overlay stands alone.
        self._builder = builder or LocalTrustBuilder(store)
        #: Centrality memo keyed by the store's monotone version (which
        #: bumps on clear() too, unlike the report count), so the repeated
        #: power-node selection rounds of one refresh rebuild the overlay
        #: once instead of once per round.
        self._centrality_cache: tuple[int, dict[str, float]] | None = None

    def in_degree_centrality(self) -> dict[str, float]:
        """Normalized in-degree of every node: how widely a peer was rated.

        Computed straight from the pair ledger — the overlay node set is
        every subject and rater, its edge set every distinct ``(rater,
        subject)`` pair, so the in-degree of a peer is the number of ledger
        pairs with that subject.  The arithmetic mirrors
        ``networkx.in_degree_centrality`` term for term (an integer degree
        times the reciprocal of ``n - 1``) so the values equal the
        historical nx-backed computation bitwise, without building a
        DiGraph per refresh.
        """
        version = self._store.version
        if self._centrality_cache is not None and self._centrality_cache[0] == version:
            return self._centrality_cache[1]
        # The store's sorted participants are the overlay's nodes; the sorted
        # order fixes the result dict's insertion order: consumers re-sort
        # with a total tiebreak today, but a deterministic key order keeps
        # any future iteration over the dict safe too.
        nodes = self._store.sorted_participants()
        if not nodes:
            centrality: dict[str, float] = {}
        elif len(nodes) == 1:
            # nx.in_degree_centrality returns 1 for every node of a
            # singleton graph (the n-1 normalization is undefined).
            centrality = {node: 1.0 for node in nodes}
        else:
            scale = 1.0 / (len(nodes) - 1.0)
            raters = self._builder.raters_per_subject()
            centrality = {node: raters.get(node, 0) * scale for node in nodes}
        self._centrality_cache = (version, centrality)
        return centrality

    def select_power_nodes(self, scores: dict[str, float], m: int) -> list[str]:
        """Select the ``m`` power nodes: highest score, in-degree as tie-break.

        PowerTrust observes that feedback in real systems follows a power law
        and leverages the few most-assessed, most-reputable nodes; we select
        them by the current global score with overlay in-degree as the
        secondary criterion.
        """
        if m <= 0:
            return []
        centrality = self.in_degree_centrality()
        candidates = sorted(
            scores,
            key=lambda peer: (scores[peer], centrality.get(peer, 0.0), peer),
            reverse=True,
        )
        return candidates[:m]
