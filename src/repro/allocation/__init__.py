"""Query allocation: the concrete "system process" participants judge.

The satisfaction model the paper builds on (Section 2.1) comes from query
allocation in distributed information systems: consumers submit queries, a
mediator allocates each query to one of several autonomous providers, and
both sides form long-run satisfaction from how well the allocations match
their intentions.  This subpackage provides that substrate:

* :mod:`repro.allocation.query` — queries and their results;
* :mod:`repro.allocation.participants` — provider and consumer agents;
* :mod:`repro.allocation.strategies` — allocation strategies (capacity-based,
  quality-based, random, reputation-aware and the satisfaction-balanced
  strategy in the spirit of SbQA);
* :mod:`repro.allocation.mediator` — the mediator executing allocations and
  feeding the satisfaction tracker;
* :mod:`repro.allocation.workload` — synthetic query workload generation.
"""
